import json
import math

import numpy as np
import pytest

from stemopt import ModelParams
from stemopt import model1 as m1
from stemopt import spatial as sp


@pytest.fixture(scope="module")
def vertical_family(params45):
    xi = np.linspace(0.0, 3.0, 101)
    return sp.StemFamily.uniform_angles(xi, np.full(101, 0.3), params45,
                                        n_s=100, theta=math.pi / 2)


# ---------------------------------------------------------------------------
# single stem
# ---------------------------------------------------------------------------

def test_constant_field_perpendicular_optimum(params45):
    fld = sp.LightField2D.from_function(lambda X, Y: np.full_like(X, 0.8),
                                        (-1.0, 2.0, 0.0, 1.5), 64, 64)
    res = sp.solve_op3_single(fld, 0.0, params45)
    assert res.converged
    assert np.max(np.abs(res.theta - params45.theta0)) < 1e-12
    assert np.max(np.abs(res.p)) < 1e-14
    assert res.stationarity_residual < 1e-10


def test_stratified_field_reduces_to_height_model(params45, canopy_profile):
    fld = sp.LightField2D.stratified(canopy_profile, (-1.0, 2.0, 0.0, 1.5),
                                     32, 4096)
    res = sp.solve_op3_single(fld, 0.0, params45, n_s=800)
    ref = m1.solve_op1(canopy_profile, params45)[0]
    gap = np.max(np.abs(res.theta - np.interp(res.y, ref.y, ref.theta)))
    assert res.converged
    assert gap <= 1e-4
    assert res.stationarity_residual <= 1e-5
    # costate vanishes at the free tip by construction
    assert np.all(res.p[-1] == 0.0)


def test_sideways_gradient_bends_right(params45):
    fld = sp.LightField2D.from_function(
        lambda X, Y: np.clip(0.5 + 0.2 * X, 0.0, 1.0),
        (-1.0, 3.0, 0.0, 1.5), 128, 64)
    res = sp.solve_op3_single(fld, 0.0, params45)
    assert res.converged
    assert res.stationarity_residual <= 1e-5
    assert res.theta[0] < params45.theta0  # leans toward brighter x
    assert res.theta_left_range


def test_family_curves_match_the_single_stem(params45):
    rng = np.random.default_rng(15)
    xi = np.array([0.0, 0.7, 2.3])
    fam = sp.StemFamily.uniform_angles(xi, np.ones(3), params45, n_s=120,
                                       theta=rng.uniform(0.2, 3.0, (3, 121)))
    fld = sp.LightField2D.from_function(lambda X, Y: np.full_like(X, 0.8),
                                        (-1.0, 4.0, 0.0, 1.5), 16, 16)
    for i, root in enumerate(xi):
        res = sp.solve_op3_single(fld, float(root), params45, n_s=120,
                                  max_sweeps=0, theta_init=fam.theta[i])
        assert np.array_equal(res.x, fam.x[i])
        assert np.array_equal(res.y, fam.y[i])


@pytest.mark.parametrize("n_s", [63, 64, 800])
def test_blocked_hamiltonian_matches_one_block(params45, monkeypatch, n_s):
    fld = sp.LightField2D.from_function(
        lambda X, Y: np.clip(0.5 + 0.2 * X, 0.0, 1.0),
        (-1.0, 3.0, 0.0, 1.5), 128, 64)
    results = [sp.solve_op3_single(fld, 0.0, params45, n_s=n_s)]
    for rows in (7, n_s + 1):
        monkeypatch.setattr(sp, "_H_ROWS", rows)
        results.append(sp.solve_op3_single(fld, 0.0, params45, n_s=n_s))
    one_block = results.pop()
    assert one_block.converged
    for res in results:
        assert np.array_equal(res.theta, one_block.theta)
        assert np.array_equal(res.p, one_block.p)
        assert res.payoff == one_block.payoff
        assert res.sweeps == one_block.sweeps


def test_lone_stem_fields_are_python_scalars(params45):
    # the CLI writes them to JSON, which takes no numpy bool
    fld = sp.LightField2D.from_function(lambda X, Y: np.full_like(X, 0.8),
                                        (-1.0, 2.0, 0.0, 1.5), 16, 16)
    res = sp.solve_op3_single(fld, 0.0, params45, n_s=40)
    for name, kind in (("payoff", float), ("stationarity_residual", float),
                       ("converged", bool), ("theta_left_range", bool), ("sweeps", int)):
        assert type(getattr(res, name)) is kind
    assert res.theta.shape == res.x.shape == (41,)
    assert res.p.shape == (41, 2)
    json.dumps({"payoff": res.payoff, "converged": res.converged,
                "left": res.theta_left_range, "sweeps": res.sweeps})


@pytest.fixture(scope="module")
def family_case(params45):
    """A field, five roots and their initial angles, whose rows stop at
    different sweeps: a cold start, random angles, and the angles that a
    lone solve at root 1.1 ends its 500 sweeps with, still cycling."""
    fld = sp.LightField2D.from_function(
        lambda X, Y: np.clip(0.6 + 0.3 * np.sin(2.0 * X) * Y, 0.0, 1.0),
        (-1.0, 3.0, 0.0, 1.5), 96, 96)
    rng = np.random.default_rng(30)
    cycling = sp.solve_op3_single(fld, 1.1, params45, n_s=80).theta
    init = np.stack([np.full(81, params45.theta0), rng.uniform(0.3, 2.5, 81), cycling,
                     cycling + 1e-6 * rng.standard_normal(81), rng.uniform(1.0, 1.2, 81)])
    return fld, np.array([0.0, 0.4, 1.1, 1.7, 2.2]), init


@pytest.mark.parametrize("max_sweeps", [0, 8, 500])
def test_family_rows_are_lone_solves(params45, family_case, max_sweeps):
    fld, roots, init = family_case
    fam = sp.solve_op3_single(fld, roots, params45, n_s=80, max_sweeps=max_sweeps,
                              theta_init=init)
    lone = [sp.solve_op3_single(fld, float(root), params45, n_s=80,
                                max_sweeps=max_sweeps, theta_init=theta)
            for root, theta in zip(roots, init)]
    assert fam.theta.shape == fam.x.shape == (5, 81)
    assert fam.p.shape == (5, 81, 2)
    for i, one in enumerate(lone):
        for name in ("theta", "p", "x", "y", "payoff", "converged",
                     "stationarity_residual", "theta_left_range"):
            assert np.array_equal(getattr(fam, name)[i], getattr(one, name)), name
    assert type(fam.sweeps) is int
    assert fam.sweeps == sum(one.sweeps for one in lone)
    if max_sweeps == 500:
        # rows converge at different sweeps, and one stops at the cap
        assert len({one.sweeps for one in lone if one.converged}) >= 2
        assert any(one.sweeps == max_sweeps and not one.converged for one in lone)


# ---------------------------------------------------------------------------
# light from a family
# ---------------------------------------------------------------------------

def _full_grid_march(rho, xs, ys, theta0):
    """The light of a vegetation grid, marched from every node at once."""
    x0, x1, y0, y1 = xs[0], xs[-1], ys[0], ys[-1]
    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    to_sun = (-math.sin(theta0), math.cos(theta0))
    step = 0.5 * min(dx, dy)
    span = math.hypot(x1 - x0, y1 - y0)
    n_steps = int(math.ceil(span / step)) + 2
    X, Y = np.meshgrid(xs, ys)
    expo = np.zeros_like(X)
    for k in range(n_steps):
        t = (k + 0.5) * step
        qx = X + t * to_sun[0]
        qy = Y + t * to_sun[1]
        inside = (qx >= x0) & (qx <= x1) & (qy >= y0) & (qy <= y1)
        if not inside.any():
            break
        vals = np.zeros_like(qx)
        vals[inside] = sp._bilinear(rho, xs, ys, qx[inside], qy[inside])
        expo += vals * step
    return np.clip(np.exp(-expo), 0.0, 1.0)


@pytest.mark.parametrize("theta0", [math.pi / 4, 1.2])
@pytest.mark.parametrize("window", [(-1.0, 4.0, 0.0, 1.3),    # rays leave at the top
                                    (-0.3, 1.0, 0.0, 3.0)])   # and at the side
def test_ray_march_matches_full_grid_reference(theta0, window):
    params = ModelParams(theta0=theta0, kappa=1.0, ell=1.0)
    xi = np.linspace(0.0, 3.0, 25)
    fam = sp.StemFamily.uniform_angles(xi, sp.rho_bar_ramp(xi, 1.0, 0.5),
                                       params, n_s=60)
    rep = sp.light_from_family(fam, window, 97, 53, params=params)
    ref = _full_grid_march(rep.vegetation, rep.field.x, rep.field.y, theta0)
    assert np.array_equal(rep.field.I, ref)
    assert np.min(ref) < 1.0


def test_spatial_kernels_bounded_memory(params45, canopy_profile, traced_peak):
    limit = 1.5 * 2 ** 20
    xi = np.linspace(0.0, 3.0, 9)
    fam = sp.StemFamily.uniform_angles(xi, sp.rho_bar_ramp(xi, 1.0, 0.01),
                                       params45, n_s=200)
    window = (-0.5, 4.2, 0.0, 1.2)
    assert traced_peak(lambda: sp.light_from_family(
        fam, window, 160, 160, params=params45)) <= limit
    fld = sp.LightField2D.stratified(canopy_profile, (-1.0, 2.0, 0.0, 1.5),
                                     32, 4096)
    assert traced_peak(lambda: sp.solve_op3_single(
        fld, 0.0, params45, n_s=800, max_sweeps=5)) <= limit


def test_empty_family_full_light(params45):
    xi = np.linspace(0.0, 2.0, 5)
    fam = sp.StemFamily.uniform_angles(xi, np.zeros(5), params45, n_s=40)
    rep = sp.light_from_family(fam, (-1.0, 3.0, 0.0, 1.3), 64, 64,
                               params=params45)
    assert np.max(np.abs(rep.field.I - 1.0)) == 0.0


def test_vertical_family_matches_stratified_formula(params45, vertical_family):
    rep = sp.light_from_family(vertical_family, (-1.0, 4.0, 0.0, 1.3),
                               384, 384, params=params45)
    # interior column: I = exp(-rho kappa (h - y)/cos theta0), stem height 1
    for y_probe in (0.4, 0.6, 0.9):
        got = float(rep.field.eval(1.5, y_probe))
        expect = math.exp(-0.3 * (1.0 - y_probe) / math.cos(params45.theta0))
        assert abs(got - expect) < 1e-4
    # marched exponent against an independent fine trapezoid along the ray
    to_sun = (-math.sin(params45.theta0), math.cos(params45.theta0))
    ts = np.linspace(0.0, 2.0, 20001)
    px = 1.5 + ts * to_sun[0]
    py = 0.5 + ts * to_sun[1]
    dens = sp._bilinear(rep.vegetation, rep.field.x, rep.field.y, px, py)
    dens[(px < -1.0) | (py > 1.3)] = 0.0
    ref = math.exp(-np.trapezoid(dens, ts))
    assert abs(float(rep.field.eval(1.5, 0.5)) - ref) < 1e-4


def test_splat_on_the_right_edge_stays_in_the_last_column(params45, monkeypatch):
    # only the stem rooted on the edge carries mass; the splat is the
    # transpose of the sampler, which reads the edge node alone there
    monkeypatch.setattr(sp, "_SMOOTH_PASSES", 0)
    fam = sp.StemFamily.uniform_angles(np.array([2.0, 2.5, 3.0]),
                                       np.array([0.3, 0.0, 0.0]), params45,
                                       n_s=50, theta=math.pi / 2)
    rep = sp.light_from_family(fam, (-1.0, 2.0, 0.0, 1.3), 64, 64,
                               params=params45)
    cell = (rep.field.x[1] - rep.field.x[0]) * (rep.field.y[1] - rep.field.y[0])
    assert np.all(rep.vegetation[:, :-1] == 0.0)
    assert rep.vegetation[:, -1].sum() * cell == pytest.approx(rep.deposited_mass)
    assert rep.deposited_mass == pytest.approx(fam.total_leaf_mass())


def test_family_mass_conservation(params45, vertical_family):
    rep = sp.light_from_family(vertical_family, (-1.0, 4.0, 0.0, 1.3),
                               256, 256, params=params45)
    expected = vertical_family.total_leaf_mass()
    assert abs(rep.deposited_mass - expected) <= 0.02 * expected


def test_ramp_family_light_increases_with_x(params45):
    xi = np.linspace(0.0, 3.0, 25)
    fam = sp.StemFamily.uniform_angles(xi, sp.rho_bar_ramp(xi, 1.0, 0.5),
                                       params45, n_s=60)
    rep = sp.light_from_family(fam, (-1.0, 4.0, 0.0, 1.3), 192, 192,
                               params=params45)
    # at fixed height inside the canopy, more vegetation sits up-sun of
    # larger x only up to the plateau edge; compare across the ramp
    y_probe = 0.3
    lo = float(rep.field.eval(0.2, y_probe))
    hi = float(rep.field.eval(1.4, y_probe))
    assert lo > hi  # ramp: less shade near the origin


# ---------------------------------------------------------------------------
# half-line relaxation
# ---------------------------------------------------------------------------

def test_halfline_zero_density_one_iteration(params45):
    res = sp.halfline_relaxation(params45, rho_scale=0.0, n_stems=5,
                                 iterations=2, grid=64, n_s=80)
    assert res.converged
    assert len(res.changes) == 1
    assert np.max(np.abs(res.family.theta - params45.theta0)) < 1e-10


def test_halfline_small_density_trend(params45):
    res = sp.halfline_relaxation(params45, rho_scale=0.01, n_stems=7,
                                 iterations=8, grid=128, n_s=160)
    changes = np.array(res.changes)
    # residual log non-increasing after burn-in (conjecture-level check)
    assert np.all(np.diff(changes[1:]) <= 1e-12)
    th_root = res.family.theta[:, 0]
    # boundary-layer picture: origin stem stays perpendicular to the rays,
    # interior stems grow more vertical with depth into the canopy
    assert abs(th_root[0] - params45.theta0) < 0.02
    interior = th_root[:-2]
    assert np.all(np.diff(interior) >= -5e-3)
    assert interior[-1] > params45.theta0 + 0.05


def test_halfline_sweeps_each_family_in_one_call(params45, monkeypatch):
    calls, solve = [], sp.solve_op3_single

    def counted(fld, root_x, *args, **kwargs):
        calls.append(np.shape(root_x))
        return solve(fld, root_x, *args, **kwargs)
    monkeypatch.setattr(sp, "solve_op3_single", counted)
    res = sp.halfline_relaxation(params45, rho_scale=0.01, n_stems=5,
                                 iterations=2, grid=64, n_s=40)
    assert len(res.changes) == 2
    assert calls == [(5,), (5,)]
