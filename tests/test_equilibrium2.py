import dataclasses
import math
import sys

import numpy as np
import pytest

from stemopt import LightProfile, ModelParams, cli
from stemopt import equilibrium2 as e2
from stemopt import model2 as m2
from stemopt import numerics
from stemopt.errors import NoBracketError, NotConvergedError
from stemopt.lightfield import check_class_F


H0_EXACT = math.sqrt(2.0) / 4.0


def _params(rho0):
    return ModelParams(theta0=math.pi / 4, alpha=0.5, c=1.0, rho0=rho0)


def _shade_rate(stem, params):
    """The shade's rate at the stem's nodes, d0 u / sin(theta), as
    `shade_map` hands it to the canopy."""
    return params.rho0 / math.cos(params.theta0) * stem.u / np.sin(stem.theta)


@pytest.fixture(scope="module")
def direct_sweep():
    return {rho0: e2.solve_equilibrium_direct(_params(rho0), verify=False)
            for rho0 in (0.001, 0.05)}


# ---------------------------------------------------------------------------
# shading map
# ---------------------------------------------------------------------------

def test_shade_zero_density(stem_flat):
    prof = e2.shade_map(stem_flat, _params(0.0))
    ys = np.linspace(0.0, stem_flat.h, 200)
    assert np.max(np.abs(prof.eval(ys) - 1.0)) == 0.0


def test_shade_flat_stem_two_quadratures(stem_flat):
    # the canopy's exact integral against a midpoint rule of the rate it
    # reports, I'/I, on 32 subcells of each node cell, from each node to the tip
    prof = e2.shade_map(stem_flat, _params(0.02))
    y = stem_flat.y
    width = np.diff(y)[:, None] / 32.0
    mid = y[:-1, None] + width * (np.arange(32) + 0.5)
    cell = np.sum(prof.derivative(mid) / prof.eval(mid) * width, axis=1)
    tail = np.append(np.cumsum(cell[::-1])[::-1], 0.0)
    assert np.max(np.abs(prof.eval(y) - np.exp(-tail))) < 1e-8


def test_shade_knots_are_the_stem_nodes(stem_flat):
    prof = e2.shade_map(stem_flat, _params(0.02))
    assert np.array_equal(prof.breakpoints, stem_flat.y)
    assert prof.breakpoints[0] == 0.0 and prof.breakpoints[-1] == stem_flat.h == prof.top


def test_shade_above_canopy_is_one(stem_flat):
    prof = e2.shade_map(stem_flat, _params(0.05))
    assert prof.eval(stem_flat.h + 0.1) == 1.0
    ys = np.linspace(0.0, 2 * stem_flat.h, 300)
    vals = prof.eval(ys)
    assert np.all(np.diff(vals) >= -1e-15)


# ---------------------------------------------------------------------------
# fixed point
# ---------------------------------------------------------------------------

def test_fixed_point_zero_density_one_iteration():
    res = e2.solve_equilibrium_fixed_point(_params(0.0))
    assert res.iterations == 1
    assert abs(res.h - H0_EXACT) < 1e-6
    ys = np.linspace(0.0, 2 * H0_EXACT, 100)
    assert np.max(np.abs(res.I_star.eval(ys) - 1.0)) < 1e-15


def test_fixed_point_small_density(pair_001):
    _, res, params = pair_001
    assert abs(res.h - H0_EXACT) / H0_EXACT < 0.05
    assert res.residual_map <= 1e-6
    assert res.residual_refit <= 1e-5
    assert res.class_f_ok
    assert res.stem.hamiltonian_max_abs <= 1e-6


def test_ground_intensity_decreasing_in_density(direct_sweep, pair_001):
    vals = [direct_sweep[0.001].I_star.eval(0.0),
            pair_001[0].I_star.eval(0.0),
            direct_sweep[0.05].I_star.eval(0.0)]
    assert np.all(np.diff(vals) < 0.0)


# ---------------------------------------------------------------------------
# direct shooting
# ---------------------------------------------------------------------------

def test_direct_zero_density_reduces_to_flat(stem_flat):
    # at rho0 = 0 the stems' own shade exp(-0 z) is exactly 1, so the
    # coupled stem is the full-light stem bit for bit
    res = e2.solve_equilibrium_direct(_params(0.0))
    ys = np.linspace(0.0, res.h, 300)
    for f in dataclasses.fields(res.stem):
        got, want = getattr(res.stem, f.name), getattr(stem_flat, f.name)
        if f.name == "read":   # a callable: compare its columns at fixed heights
            got, want = got(ys), want(ys)
            assert all(np.array_equal(got[k], want[k]) for k in want), f.name
        else:
            assert np.array_equal(got, want), f.name
    assert np.max(np.abs(res.I_star.eval(ys) - 1.0)) < 1e-12
    # degenerate equilibrium: shading map returns full light exactly; the
    # refit compares the stem with a fresh shot under that full light
    assert res.residual_map == 0.0
    assert res.residual_refit < 1e-5


def test_direct_no_bracket_reports_scan():
    # dense, low-angle canopy: the coupled residual keeps one sign on the scan
    params = ModelParams(theta0=0.06, alpha=0.5, c=1.0, rho0=0.5)
    with pytest.raises(NoBracketError) as err:
        e2.solve_equilibrium_direct(params, verify=False)
    msg = str(err.value)
    h0 = m2.estimate_h0(params)
    assert f"[{1e-3 * h0:.6g}, {3.0 * h0:.6g}]" in msg
    assert "(200 samples)" in msg
    for part in ("f(lo)=", "f(hi)=", "min ", "max "):
        assert part in msg


def test_direct_agrees_with_fixed_point(pair_001):
    direct, fixed, params = pair_001
    assert abs(direct.h - fixed.h) <= 1e-5
    ys = np.linspace(0.0, max(direct.h, fixed.h) * 1.05, 2001)
    gap = np.max(np.abs(direct.I_star.eval(ys) - fixed.I_star.eval(ys)))
    assert gap <= 1e-5


def test_direct_hamiltonian_and_single_root(pair_001):
    direct, _, _ = pair_001
    assert direct.stem.hamiltonian_max_abs <= 1e-6
    assert len(direct.h_roots) == 1
    assert not direct.multiroot_flag


def test_direct_class_f_and_costate_bounds(pair_001):
    direct, _, _ = pair_001
    assert direct.class_f_ok
    rep = check_class_F(direct.I_star, y_max=2 * H0_EXACT)
    assert rep.in_class
    ratio = direct.stem.q / direct.stem.I
    y = direct.stem.y
    pos = y > 0
    c0 = np.min(ratio[pos] / y[pos])
    assert c0 > 0.0
    assert ratio.max() <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def test_verify_residuals_small(pair_001):
    direct, fixed, params = pair_001
    assert direct.residual_refit <= 1e-5
    assert direct.residual_map <= 1e-5
    assert fixed.residual_map <= 1e-5
    # integrated intensity against the shade of the stem: not zero by design
    assert direct.residual_map > 1e-12


def test_shot_counts_of_verified_solves(pair_001, pair_001_shots):
    # the refit brackets from the scan and the fixed point from its last
    # height change: 10 and 126 shots with the former fixed warm brackets
    assert pair_001_shots["direct"]["shots"] <= 7
    assert pair_001_shots["fixed_point"]["shots"] <= 105


def test_fixed_point_warm_brackets_hold_their_root(pair_001, pair_001_shots):
    # a warm bracket without the root would leave Brent at an end, far from
    # a zero ground residual; the refit shares no bracket with the stem
    residuals = pair_001_shots["fixed_point"]["residual_q0"]
    assert max(map(abs, residuals)) <= 1e-8, residuals
    assert pair_001[1].residual_refit > 0.0


@pytest.mark.parametrize("dim", [1e-2, 1e-6])
def test_verify_detects_perturbation(pair_001, dim):
    direct, _, params = pair_001
    prof = direct.I_star
    ys = prof.breakpoints.copy()
    # dim the light below half height by the fraction `dim`, staying in the
    # smooth canopy class: add a narrow rate bump of area -ln(1 - dim) above h/2
    width = 0.05 * direct.h
    mid = direct.h / 2
    bump = -math.log(1.0 - dim) / width * ((ys >= mid) & (ys < mid + width))
    fake_profile = LightProfile.exponential_canopy(
        ys, _shade_rate(direct.stem, params) + bump, prof.top)
    fake = e2.Equilibrium2Result(
        I_star=fake_profile, stem=direct.stem, method="direct_shooting",
        iterations=1, residual_map=0.0, residual_refit=0.0, h=direct.h)
    refit = e2.verify_equilibrium(fake, params).residual_refit
    # each stem is read through its own shot, so even a shade error of one
    # part in 10^6 stands 100x above the unperturbed refit
    assert refit >= 100.0 * direct.residual_refit
    if dim == 1e-2:
        assert refit > 1e-3


def test_reported_height_is_a_candidate(pair_001):
    # both methods report the candidate heights of the stem they return
    for res in pair_001[:2]:
        assert res.h in res.h_roots, (res.method, res.h, res.h_roots)


@pytest.mark.parametrize("rate_scale,u_scale", [(1.01, 1.0), (1.0, 1.001)],
                         ids=["denser-shade", "denser-leaves"])
def test_direct_map_residual_detects_a_perturbed_shade(pair_001, monkeypatch,
                                                       rate_scale, u_scale):
    # the map residual sets exp(-d0 z), z from the coupled ODE, against the
    # shade that shade_map rebuilds from the stem's u / sin(theta): a shade
    # one percent denser, or one rebuilt from leaves one part in a thousand
    # denser, must show in it
    direct, _, params = pair_001
    shade = e2.shade_map

    def denser(stem, params):
        stem = dataclasses.replace(stem, u=u_scale * stem.u)
        prof = shade(stem, params)
        return LightProfile.exponential_canopy(
            prof.breakpoints, rate_scale * _shade_rate(stem, params), prof.top)

    monkeypatch.setattr(e2, "shade_map", denser)
    perturbed = e2.solve_equilibrium_direct(params, verify=False)
    assert direct.residual_map <= 1e-6
    assert perturbed.residual_map > 1e-5
    assert perturbed.residual_map > 100.0 * direct.residual_map


def test_verify_equilibrium_completes_an_unverified_solve(direct_sweep):
    # the verified solve and the stand-alone verification of an unverified
    # solve report the same residuals, and the verification leaves every
    # other field, the solve's map residual included, as the solve built it
    params = _params(0.001)
    bare = direct_sweep[0.001]
    res = e2.verify_equilibrium(bare, params)
    assert type(res) is e2.Equilibrium2Result
    assert math.isnan(bare.residual_refit)
    verified = e2.solve_equilibrium_direct(params)
    assert res.residual_refit == verified.residual_refit
    assert res.residual_map == verified.residual_map
    for f in dataclasses.fields(res):
        if f.name != "residual_refit":
            assert getattr(res, f.name) is getattr(bare, f.name), f.name


def test_height_approaches_flat_limit(direct_sweep, pair_001):
    hs = [direct_sweep[0.05].h, pair_001[0].h, direct_sweep[0.001].h]
    gaps = [abs(h - H0_EXACT) for h in hs]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 5e-4


def test_fixed_point_failure_carries_its_context(monkeypatch):
    monkeypatch.setattr(e2, "_FP_MAX_ITER", 2)
    with pytest.raises(NotConvergedError) as err:
        e2.solve_equilibrium_fixed_point(_params(1e-3))
    message = str(err.value)
    assert "rho0=0.001" in message
    assert "damping=0.5" in message
    history = err.value.history
    assert len(history) == 2
    assert all(change > 1e-8 for change in history)
    assert f"{history[-1]:.2e}" in message


def test_full_light_integral_is_computed_once_per_alpha(tmp_path, monkeypatch):
    # estimate_h0 sizes every coupled scan and the class-F check of the
    # direct solve; its quadrature depends on alpha alone, so a verified
    # solve and a three-value sweep at one alpha make one quad call
    calls, quad = [], m2.quad
    monkeypatch.setattr(m2, "quad", lambda *args: calls.append(args) or quad(*args))
    m2._full_light_integral.cache_clear()
    e2.solve_equilibrium_direct(_params(0.001))
    scenario = tmp_path / "sweep.ini"
    scenario.write_text("[scenario]\nschema_version = 1\nkind = sweep\n\n"
                        "[params]\ntheta0 = 0.7853981633974483\nalpha = 0.5\nc = 1.0\n\n"
                        "[sweep]\nparameter = rho0\nvalues = 0.001 0.002 0.005\n")
    assert cli.main(["--scenario", str(scenario), "--out", str(tmp_path / "out"),
                     "--quiet"]) == 0
    assert len(calls) == 1


def test_eq2_bounded_memory(direct_sweep, params2, canopy_profile, traced_peak):
    # every dense read of the free-length layer runs in blocks of
    # numerics._BLOCK points: the stem's read and Hamiltonian drift on its
    # ~4,600-node output mesh, and the class-F check's ~15,000 slopes
    params = _params(0.05)
    assert traced_peak(lambda: e2.solve_equilibrium_direct(
        params, verify=False)) <= 1.5 * 2 ** 20
    assert traced_peak(lambda: check_class_F(
        direct_sweep[0.05].I_star, y_max=2.0 * m2.estimate_h0(params))) <= 0.75 * 2 ** 20
    assert traced_peak(lambda: m2.shoot_op2(canopy_profile, params2)) <= 1.0 * 2 ** 20


def test_eq2_both_runner_bounded_memory(traced_peak):
    # `method = both` keeps only the fixed point's profile and height while
    # the direct method solves and verifies, so no verified stem, with its
    # dense shot and shade (0.63 MiB), stays alive through the other solve
    # (a warm peak of 2.05 MiB when the direct result stayed alive through
    # the fixed point)
    scn = cli.Scenario(kind="eq2", params=_params(0.01), profile=None,
                       options={"method": "both", "damping": 0.5}, source_path="")
    assert traced_peak(lambda: cli._run_eq2(scn)) <= 1.75 * 2 ** 20


@pytest.mark.parametrize("light", ["canopy", "mollified-step", "coupled"])
def test_blocked_stem_matches_one_shot(light, params2, canopy_profile, monkeypatch):
    profile, params = {
        "canopy": (canopy_profile, params2),
        "mollified-step": (LightProfile.mollified_step(0.5, 0.2, 0.01), params2),
        "coupled": (None, _params(0.01))}[light]
    stem = m2.shoot_op2(profile, params)
    monkeypatch.setattr(numerics, "_BLOCK", sys.maxsize)   # one block
    ref = m2.shoot_op2(profile, params)
    for name in ("y", "p", "q", "I", "theta", "u", "z", "x", "T", "payoff",
                 "transport_cost", "hamiltonian_max_abs"):
        assert np.array_equal(getattr(stem, name), getattr(ref, name)), name
