import dataclasses
import math
import sys

import numpy as np
import pytest

from stemopt import ModelParams
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
    traj = e1.solve_bcp(_params(0.0))
    # no shade: theta stays theta0 at every node and the depth is s sin(theta0)
    assert np.all(traj.dy[:, 0] == math.sin(math.pi / 4))
    assert np.max(np.abs(traj.y[:, 0] - traj.t * math.sin(math.pi / 4))) <= 1e-15


def test_bcp_first_order_taylor():
    traj = e1.solve_bcp(_params(0.1))
    # depth(s) = s sin(theta0) + O(s^2): the gap quarters when s halves
    gaps = [traj.sample(np.array([s]))[0, 0] - s * math.sin(math.pi / 4)
            for s in (0.01, 0.005)]
    assert abs(gaps[0]) < 1e-5
    assert 3.5 < gaps[0] / gaps[1] < 4.5


def test_bcp_resubstitution():
    params = _params(0.1)
    traj = e1.solve_bcp(params)
    ss = np.linspace(1e-4, 0.9, 400)
    dd = traj.sample(ss + 5e-7)[:, 0] - traj.sample(ss - 5e-7)[:, 0]
    resid = dd / 1e-6 - np.sin(_theta_of_s(ss, params))
    assert np.max(np.abs(resid)) < 1e-6


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
    # a wrong feedback root made the equilibrium integration's step size
    # collapse here
    params = ModelParams(theta0=0.7642311192707387, kappa=2.8119289102694713,
                         ell=1.9943380715350787, rho=0.07723037028980666)
    assert len(e1.solve_bcp(params).t) < 1000
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


def _same_profile(a, b, ys):
    return (a.kind == b.kind and a.top == b.top
            and np.array_equal(a.rate_y, b.rate_y)
            and np.array_equal(a.rate_v, b.rate_v)
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
        rho_kappa=res.rho_kappa, uniqueness_ok=True, uniqueness_margin=0.0)
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
    # the shape on a dense grid in stem length, foot to tip, as the solve
    # samples it: depth from the dense output, angle explicit in s
    traj = e1.solve_bcp(_DRAW)
    s = np.linspace(_DRAW.ell, 0.0, n)
    depth = map_blocks(lambda sb: traj.sample(sb)[:, 0], s)
    th = map_blocks(lambda sb: _theta_of_s(sb, _DRAW), s)
    ref_depth, ref_th = traj.sample(s)[:, 0], _theta_of_s(s, _DRAW)
    assert np.array_equal(depth, ref_depth)
    assert np.array_equal(th, ref_th)
    y, ref_y = depth[0] - depth, ref_depth[0] - ref_depth
    assert np.array_equal(trapezoid_cumulative(y, np.cos(th) / np.sin(th)),
                          _one_shot_trapezoid(ref_y, np.cos(ref_th) / np.sin(ref_th)))


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
