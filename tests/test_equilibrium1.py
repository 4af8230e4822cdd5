import dataclasses
import math
import sys

import numpy as np
import pytest

from stemopt import LightProfile, ModelParams
from stemopt import equilibrium1 as e1
from stemopt import lightfield
from stemopt import model1 as m1
from stemopt import numerics
from stemopt.kernels import trapezoid_cumulative
from stemopt.numerics import map_blocks


def _params(rho_kappa):
    return ModelParams(theta0=math.pi / 4, kappa=1.0, ell=1.0, rho=rho_kappa)


@pytest.fixture(scope="module")
def eq_01():
    return e1.solve_equilibrium1(_params(0.1))


def _theta_of_s(s, params):
    # the equilibrium angle at stem length s below the tip, log-shade rho*kappa*s
    return m1.phi_inverse((math.exp(-params.kappa) - 1.0)
                          * np.exp(params.rho * params.kappa * s), params)


def test_bcp_zero_density_is_flat():
    s, theta, depth = e1.solve_bcp(_params(0.0))
    # no shade: theta stays theta0 at every node and the depth is s sin(theta0).
    # Node k sums k <= _N_GRID Simpson terms, each within 4 roundings of exact
    # (f + 4f, + f, the product and the width), so its error is at most
    # (k + 4) u times its depth, and u times the depth is below one ulp of h*
    assert np.all(theta == math.pi / 4)
    assert np.max(np.abs(depth - s * math.sin(math.pi / 4))) \
        <= (e1._N_GRID + 4) * np.spacing(depth[-1])


def test_bcp_first_order_taylor():
    s, _, depth = e1.solve_bcp(_params(0.1))
    # depth(s) = s sin(theta0) + O(s^2): the gap quarters when s halves
    gaps = [depth[k] - s[k] * math.sin(math.pi / 4) for k in (20, 10)]
    assert abs(gaps[0]) < 1e-5
    assert 3.5 < gaps[0] / gaps[1] < 4.5


def test_bcp_resubstitution():
    # the depth's central differences at the nodes give back sin(theta(s))
    params = _params(0.1)
    s, _, depth = e1.solve_bcp(params)
    dd = (depth[2:] - depth[:-2]) / (s[2:] - s[:-2])
    resid = dd - np.sin(_theta_of_s(s[1:-1], params))
    assert np.max(np.abs(resid)) < 1e-6


def test_bcp_nodes_are_the_returned_shape():
    # the solve returns solve_bcp's nodes foot to tip, angles and all
    params = _params(0.1)
    s, theta, depth = e1.solve_bcp(params)
    res = e1.solve_equilibrium1(params, verify=False)
    assert np.array_equal(res.theta_star, theta[::-1])
    assert np.array_equal(res.y, depth[-1] - depth[::-1])
    assert res.h_star == depth[-1]


def test_unverified_solve_inverts_the_feedback_once(monkeypatch):
    # one blocked pass over the 2 * _N_GRID + 1 quadrature nodes gives both
    # the depth and the returned angles: a second inversion at the returned
    # nodes would add 2,049 elements
    calls, elements = [], []
    phi_inverse = m1.phi_inverse

    def counted(z, params):
        calls.append(1)
        elements.append(np.size(z))
        return phi_inverse(z, params)
    for module in (e1, m1):
        monkeypatch.setattr(module, "phi_inverse", counted)
    e1.solve_equilibrium1(_params(0.05), verify=False)
    assert sum(elements) == 4_097
    assert len(calls) == -(-(2 * e1._N_GRID + 1) // numerics._BLOCK)


def test_equilibrium_zero_density():
    res = e1.solve_equilibrium1(_params(0.0))
    assert abs(res.h_star - math.sin(math.pi / 4)) < 1e-12
    assert np.max(np.abs(res.theta_star - math.pi / 4)) == 0.0
    assert np.max(np.abs(res.I_star.eval(res.y) - 1.0)) == 0.0
    assert res.residual_map == 0.0
    assert res.residual_refit < 1e-12


def test_equilibrium_qualitative(eq_01):
    res = eq_01
    # shading makes the lower stem more vertical, hence a taller stem than
    # the no-shade height ell*sin(theta0); the angle profile stays monotone
    assert res.h_star >= math.sin(math.pi / 4) - 1e-12
    assert res.h_star <= 1.0
    assert res.theta_star[0] > math.pi / 4
    assert abs(res.theta_star[-1] - math.pi / 4) < 1e-9
    assert np.all(np.diff(res.theta_star) <= 1e-12)


def test_equilibrium_shade_endpoints(eq_01):
    res = eq_01
    assert abs(res.I_star.eval(res.h_star) - 1.0) < 1e-12
    # ground intensity equals exp(-rho kappa ell) by the length constraint
    assert abs(res.I_star.eval(0.0) - math.exp(-0.1)) < 1e-8


def test_necessary_condition_pointwise(eq_01):
    res = eq_01
    params = _params(0.1)
    rk = 0.1
    shade = trapezoid_cumulative(res.y, rk / np.sin(res.theta_star))
    z = (math.exp(-1.0) - 1.0) * np.exp(shade[-1] - shade)
    th = m1.phi_inverse(z, params)
    assert np.max(np.abs(th - res.theta_star)) <= 1e-7


def test_length_constraint(eq_01):
    res = eq_01
    length = np.trapezoid(1.0 / np.sin(res.theta_star), res.y)
    assert abs(length - 1.0) <= 1e-8


@pytest.mark.parametrize("rk", [0.01, 0.05, 0.1])
def test_fixed_point_residuals(rk):
    # the solve verifies by default: re-verifying returns the same bits
    res = e1.solve_equilibrium1(_params(rk))
    assert res.residual_refit <= 1e-6
    assert res.residual_map <= 1e-6
    # the profile and exp(-rho kappa s) are independent constructions:
    # the gap is real
    assert res.residual_map > 0
    assert res.uniqueness_ok


def test_former_runaway_draw():
    # a wrong feedback root once made the step size of the depth's
    # integration collapse here
    params = ModelParams(theta0=0.7642311192707387, kappa=2.8119289102694713,
                         ell=1.9943380715350787, rho=0.07723037028980666)
    res = e1.solve_equilibrium1(params)
    assert res.residual_refit <= 1e-6
    assert res.residual_map <= 1e-6


def test_height_matches_simpson_over_eq1_box():
    # h* is the depth of the foot, the integral of sin(theta(s)) over the
    # stem; a composite Simpson rule on 2^14 + 1 nodes is independent of it
    n = 2 ** 14
    weights = np.ones(n + 1)
    weights[1:-1:2], weights[2:-1:2] = 4.0, 2.0
    for params in _eq1_box_draws(8):
        th = _theta_of_s(np.linspace(0.0, params.ell, n + 1), params)
        height = float(np.sum(weights * np.sin(th))) * params.ell / (3.0 * n)
        res = e1.solve_equilibrium1(params, verify=False)
        assert abs(res.h_star - height) <= 1e-12


def test_depth_matches_cumulative_simpson_over_eq1_box():
    # the depth below the tip at every returned node, against a cumulative
    # composite Simpson rule on 2^15 cells: 16 of its cells per node
    n = 2 ** 15
    for params in _eq1_box_draws(8):
        th = _theta_of_s(np.linspace(0.0, params.ell, n + 1), params)
        f = np.sin(th)
        pairs = (f[:-2:2] + 4.0 * f[1:-1:2] + f[2::2]) * params.ell / (3.0 * n)
        reference = np.concatenate(([0.0], np.cumsum(pairs)))[::n // (2 * e1._N_GRID)]
        res = e1.solve_equilibrium1(params, verify=False)
        depth = (res.h_star - res.y)[::-1]   # tip to foot
        assert np.max(np.abs(depth - reference)) <= 1e-12


def test_residuals_measure_the_equilibrium():
    # with the depth exact to rounding, both residuals fall to the level of
    # the profile's and the refit's own quadratures
    res = e1.solve_equilibrium1(_params(0.05))
    assert res.residual_map <= 1e-12
    assert res.residual_refit <= 1e-12


def _same_profile(a, b, ys):
    return (a.kind == b.kind and a.top == b.top
            and np.array_equal(a.breakpoints, b.breakpoints)
            and np.array_equal(a.eval(ys), b.eval(ys)))


def test_verify_fixed_point_completes_an_unverified_solve(eq_01):
    # the solve measures its residuals through the same contract as the
    # stand-alone verification: the same result, field by field and bit by bit
    res = e1.verify_fixed_point(e1.solve_equilibrium1(_params(0.1), verify=False),
                                _params(0.1))
    assert type(res) is e1.Equilibrium1Result
    for f in dataclasses.fields(res):
        a, b = getattr(res, f.name), getattr(eq_01, f.name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), f.name
        elif f.name == "I_star":
            assert _same_profile(a, b, res.y)
        else:
            assert a == b, f.name


def test_perturbation_detector(eq_01):
    res = eq_01
    params = _params(0.1)
    fake = e1.Equilibrium1Result(
        h_star=res.h_star, y=res.y, theta_star=res.theta_star + 0.01,
        x=res.x, I_star=res.I_star, residual_refit=0.0, residual_map=0.0,
        uniqueness_ok=True, uniqueness_margin=0.0)
    rep = e1.verify_fixed_point(fake, params)
    assert rep.residual_refit >= 0.005


def test_ground_angle_monotone_in_density():
    # more shading pushes the stem base toward vertical
    values = [e1.solve_equilibrium1(_params(rk), verify=False).theta_star[0]
              for rk in (0.02, 0.04, 0.06, 0.08, 0.1)]
    assert np.all(np.diff(values) > 0.0)


# ---------------------------------------------------------------------------
# blocked evaluation: the same bits as the one-shot construction
# ---------------------------------------------------------------------------

_BLOCKED_SIZES = [numerics._BLOCK - 1, numerics._BLOCK, numerics._BLOCK + 1,
                  8 * numerics._BLOCK + 1]   # eight full blocks and one point
_DRAW = ModelParams(theta0=1.0, kappa=2.5, ell=1.7, rho=0.08)


def _one_shot_trapezoid(x, y):
    """The cumulative trapezoid as one expression, kept as the reference."""
    out = np.zeros_like(x)
    out[1:] = np.cumsum(0.5 * (y[1:] + y[:-1]) * np.diff(x))
    return out


def _eq1_box_draws(n):
    rng = np.random.default_rng(2024)
    return [ModelParams(theta0=rng.uniform(0.2, 1.35), kappa=rng.uniform(0.3, 3.0),
                        ell=rng.uniform(0.5, 2.0),
                        rho=math.exp(rng.uniform(math.log(0.01), math.log(0.1))))
            for _ in range(n)]


@pytest.fixture(scope="module")
def eq_draw():
    return e1.solve_equilibrium1(_DRAW, verify=False)


@pytest.mark.parametrize("n", _BLOCKED_SIZES)
def test_blocked_dense_length_matches_one_shot(n):
    # a dense grid in stem length, foot to tip: the angle explicit in s and
    # the cumulative trapezoid over the height above the foot, blocked and
    # as one expression
    s = np.linspace(_DRAW.ell, 0.0, n)
    th = map_blocks(lambda sb: _theta_of_s(sb, _DRAW), s)
    assert np.array_equal(th, _theta_of_s(s, _DRAW))
    y = _DRAW.ell - s
    assert np.array_equal(trapezoid_cumulative(y, np.cos(th) / np.sin(th)),
                          _one_shot_trapezoid(y, np.cos(th) / np.sin(th)))


def _one_shot_uniqueness_margin(profile, params, ys):
    t0, k = params.theta0, params.kappa
    rhs = math.tan(t0) ** 2 * math.cos(math.pi / 2 - t0) \
        * (1.0 - (k + 1.0) * math.exp(-k)) / (1.0 - math.exp(-k))
    cum = _one_shot_trapezoid(ys, 1.0 / np.maximum(profile.eval(ys), 1e-300))
    return float(np.min(rhs - profile.derivative(ys) * cum))


@pytest.mark.parametrize("n", [None] + _BLOCKED_SIZES)
def test_blocked_uniqueness_margin_matches_one_shot(n, eq_draw, monkeypatch):
    prof, h = eq_draw.I_star, eq_draw.h_star
    if n is not None:   # a check grid of exactly n points
        monkeypatch.setattr(lightfield, "_check_grid",
                            lambda profile, y_max: np.linspace(0.0, y_max, n))
    assert lightfield.check_uniqueness_condition(prof, _DRAW, h)[1] \
        == _one_shot_uniqueness_margin(prof, _DRAW, lightfield._check_grid(prof, h))


@pytest.mark.parametrize("params", _eq1_box_draws(3))
def test_blocked_solve_matches_one_shot(params, monkeypatch):
    res = e1.solve_equilibrium1(params)
    with monkeypatch.context() as mp:   # one block, one-expression trapezoid
        mp.setattr(numerics, "_BLOCK", sys.maxsize)
        for module in (e1, m1, lightfield):
            mp.setattr(module, "trapezoid_cumulative", _one_shot_trapezoid)
        ref = e1.solve_equilibrium1(params)
    for name in ("h_star", "theta_star", "x", "residual_refit", "residual_map",
                 "uniqueness_ok", "uniqueness_margin"):
        assert np.array_equal(getattr(res, name), getattr(ref, name)), name


def test_eq1_bounded_memory(eq_draw, traced_peak):
    assert traced_peak(lambda: e1.solve_equilibrium1(_DRAW)) <= 0.75 * 2 ** 20
    assert traced_peak(lambda: lightfield.check_uniqueness_condition(
        eq_draw.I_star, _DRAW, eq_draw.h_star)) <= 0.6 * 2 ** 20


@pytest.mark.parametrize("light", ["step", "I_star"])
def test_op1_bounded_memory(light, eq_draw, traced_peak):
    # the blocked height scan holds about one block of nodes at a time, not
    # the scan's 139k nodes
    profile, params = {
        "step": (LightProfile.step(0.7, 1.0),   # two pieces above the jump
                 ModelParams(theta0=math.pi / 4, kappa=1.0, ell=1.2)),
        "I_star": (eq_draw.I_star, _DRAW)}[light]
    assert traced_peak(lambda: m1.solve_op1(profile, params)) <= 0.75 * 2 ** 20
