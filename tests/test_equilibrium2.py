import dataclasses
import math

import numpy as np
import pytest

from stemopt import LightProfile, ModelParams
from stemopt import equilibrium2 as e2
from stemopt import model2 as m2
from stemopt.errors import NoBracketError, NotConvergedError
from stemopt.lightfield import check_class_F


H0_EXACT = math.sqrt(2.0) / 4.0


def _params(rho0):
    return ModelParams(theta0=math.pi / 4, alpha=0.5, c=1.0, rho0=rho0)


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
    # canopy-profile integral against a direct trapezoid of the same rate
    params = _params(0.02)
    prof = e2.shade_map(stem_flat, params)
    d0 = params.rho0 / math.cos(params.theta0)
    mask = (stem_flat.q / stem_flat.I) > 1e-6
    y = stem_flat.y[mask]
    rate = d0 * stem_flat.u[mask] / np.sin(stem_flat.theta[mask])
    expo = np.concatenate([[0.0], np.cumsum(0.5 * (rate[1:] + rate[:-1])
                                            * np.diff(y))])
    direct = np.exp(expo - expo[-1])
    assert np.max(np.abs(prof.eval(y) - direct)) < 1e-8


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
    res = e2.solve_equilibrium_direct(_params(0.0))
    assert abs(res.h - stem_flat.h) < 1e-8
    ys = np.linspace(0.0, res.h, 300)
    assert np.max(np.abs(res.I_star.eval(ys) - 1.0)) < 1e-12
    # degenerate equilibrium: shading map returns full light exactly; the
    # refit residual is bounded by the verifier's interpolation resolution
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


def test_verify_detects_perturbation(pair_001):
    direct, _, params = pair_001
    prof = direct.I_star
    ys = prof.rate_y.copy()
    # dim the light below half height by one percent, staying in the smooth
    # canopy class: add a narrow rate bump of area -ln(0.99) above h/2
    width = 0.05 * direct.h
    mid = direct.h / 2
    bump = -math.log(0.99) / width * ((ys >= mid) & (ys < mid + width))
    fake_profile = LightProfile.exponential_canopy(
        ys, prof.rate_v + bump, prof.top)
    fake = e2.Equilibrium2Result(
        I_star=fake_profile, stem=direct.stem, method="direct_shooting",
        iterations=1, residual_map=0.0, residual_refit=0.0, h=direct.h)
    assert e2.verify_equilibrium(fake, params).residual_refit > 1e-3


def test_direct_map_residual_detects_a_perturbed_shade(pair_001, monkeypatch):
    # the shade the stems cast, one percent denser than the coupled system's
    # own intensity column: the direct solve's map residual must see it
    direct, _, params = pair_001
    shade = e2.shade_map

    def denser(stem, params):
        prof = shade(stem, params)
        return LightProfile.exponential_canopy(prof.rate_y, 1.01 * prof.rate_v,
                                               prof.top)

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
