import math

import numpy as np
import pytest

from stemopt import LightProfile, ModelParams
from stemopt import model1 as m1
from stemopt import oracles
from stemopt.errors import DomainError, NoCrossingError


# ---------------------------------------------------------------------------
# capture kernel
# ---------------------------------------------------------------------------

def test_g_at_theta0(params45):
    # (1 - e^-1) * sqrt(2), computed directly from the kernel definition
    val = m1.g_profile(math.pi / 4, params45)
    assert abs(val - (1.0 - math.exp(-1.0)) * math.sqrt(2.0)) < 1e-14
    assert abs(val - 0.8939534673502062) < 1e-12


def test_g_at_vertical(params45):
    val = m1.g_profile(math.pi / 2, params45)
    expect = (1.0 - math.exp(-math.sqrt(2.0))) * math.sqrt(2.0) / 2.0
    assert abs(val - expect) < 1e-14
    assert abs(val - 0.5351972896481857) < 1e-12


def test_g_times_sin_is_transverse_capture(params45):
    rng = np.random.default_rng(11)
    th = rng.uniform(params45.theta0, math.pi / 2, 50)
    lhs = m1.g_profile(th, params45) * np.sin(th)
    rhs = m1.capture_transverse(th, params45)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


# ---------------------------------------------------------------------------
# feedback inversion
# ---------------------------------------------------------------------------

def test_phi_at_upper_limit(params45):
    z_top = math.exp(-1.0) - 1.0
    assert m1.phi_inverse(z_top, params45) == params45.theta0


def test_phi_resubstitution(params45):
    th = m1.phi_inverse(-1.0, params45)
    assert params45.theta0 < th < math.pi / 2
    assert abs(m1.F_of(th, params45) + 1.0) < 1e-10


def test_phi_monotone_decreasing(params45):
    rng = np.random.default_rng(5)
    z = -np.sort(rng.uniform(0.7, 50.0, 40))  # descending, inside the domain
    th = m1.phi_inverse(z, params45)
    assert np.all(np.diff(th) > 0.0)  # z decreasing => theta increasing


def test_phi_domain_error(params45):
    with pytest.raises(DomainError):
        m1.phi_inverse(0.5, params45)


def test_phi_exact_over_eq1_box():
    # every call, scalar or array, returns a root meeting the residual
    # tolerance, and the two call forms agree
    rng = np.random.default_rng(7)
    for _ in range(16):
        params = ModelParams(theta0=rng.uniform(0.2, 1.35),
                             kappa=rng.uniform(0.3, 3.0))
        z_max = math.exp(-params.kappa) - 1.0
        z = z_max * np.exp(rng.uniform(0.0, 4.0, 64))
        tol = 1e-12 * (1.0 + np.abs(z))
        th = m1.phi_inverse(z, params)
        th_scalar = np.array([m1.phi_inverse(float(v), params) for v in z])
        assert np.all(np.abs(m1.F_of(th_scalar, params) - z) <= tol)
        assert np.all(np.abs(m1.F_of(th, params) - z) <= tol)
        assert np.max(np.abs(th - th_scalar)) <= 1e-13


# ---------------------------------------------------------------------------
# payoffs
# ---------------------------------------------------------------------------

def test_payoff_flat_light_straight_stem(params45, const_profile):
    theta = np.full(65, params45.theta0)
    val = oracles.payoff_op1(theta, const_profile, params45)
    assert abs(val - params45.ell * (1.0 - math.exp(-1.0))) < 1e-10


def test_payoff_vertical_stem(params45, const_profile):
    theta = np.full(65, math.pi / 2)
    val = oracles.payoff_op1(theta, const_profile, params45)
    expect = (1.0 - math.exp(-math.sqrt(2.0))) * math.sqrt(2.0) / 2.0
    assert abs(val - expect) < 1e-10


def test_payoff_step_profile_short_branch():
    # straight stem below the jump collects ell * (1 - e^-1) * eps
    params = ModelParams(theta0=math.pi / 4, kappa=1.0, ell=1.2)
    eps = 0.3
    theta = np.full(129, math.pi / 4)
    val = oracles.payoff_op1(theta, LightProfile.step(eps, 1.0), params)
    assert abs(val - 1.2 * (1.0 - math.exp(-1.0)) * eps) < 1e-10


# ---------------------------------------------------------------------------
# range reduction
# ---------------------------------------------------------------------------

def test_fold_fixed_point(params45):
    theta = np.full(33, params45.theta0)
    out = oracles.fold_angles(theta, params45)
    assert np.array_equal(out, theta)


def test_fold_negative_reflection(params45):
    out = oracles.fold_angles(np.array([-math.pi / 4]), params45)
    assert abs(out[0] - math.pi / 4) < 1e-14


def test_fold_affine_branch(params45):
    # 3pi/5 lies in ]pi/2, theta0 + pi/2]; folds to pi - 3pi/5 = 2pi/5
    out = oracles.fold_angles(np.array([3.0 * math.pi / 5]), params45)
    assert abs(out[0] - 2.0 * math.pi / 5) < 1e-14


def test_fold_range_and_payoff_improvement(params45):
    rng = np.random.default_rng(23)
    prof = LightProfile.tabulated([0.0, 0.5, 1.0], [0.6, 0.8, 1.0])
    for _ in range(100):
        theta = rng.uniform(1e-6, math.pi, 33)  # upward controls
        folded = oracles.fold_angles(theta, params45)
        assert np.all(folded >= params45.theta0 - 1e-12)
        assert np.all(folded <= math.pi / 2 + 1e-12)
        before = oracles.payoff_op1(theta, prof, params45, refine=2048)
        after = oracles.payoff_op1(folded, prof, params45, refine=2048)
        assert after >= before - 1e-11


def test_rearrange_sorted_input_unchanged():
    vals = np.linspace(1.5, 0.8, 17)
    assert np.array_equal(oracles.rearrange_nonincreasing(vals), vals)


def test_rearrange_two_block():
    t0 = math.pi / 4
    vals = np.concatenate([np.full(8, t0), np.full(8, math.pi / 2)])
    out = oracles.rearrange_nonincreasing(vals)
    assert np.array_equal(out, np.concatenate([np.full(8, math.pi / 2),
                                               np.full(8, t0)]))


def test_rearrange_properties(params45):
    rng = np.random.default_rng(31)
    prof = LightProfile.tabulated([0.0, 0.3, 1.0], [0.5, 0.7, 1.0])
    h = 0.8
    for _ in range(100):
        theta = rng.uniform(params45.theta0, math.pi / 2, 64)
        re = oracles.rearrange_nonincreasing(theta)
        # equimeasurable and length preserving
        assert np.array_equal(np.sort(re), np.sort(theta))
        len_before = np.sum(1.0 / np.sin(theta))
        len_after = np.sum(1.0 / np.sin(re))
        assert abs(len_before - len_after) < 1e-12 * len_before
        # payoff never decreases under non-decreasing light
        before = oracles.payoff_heights(theta, h, prof, params45)
        after = oracles.payoff_heights(re, h, prof, params45)
        assert after >= before - 1e-13


# ---------------------------------------------------------------------------
# solver
# ---------------------------------------------------------------------------

def test_solve_flat_light_closed_form(params45, const_profile):
    shapes = m1.solve_op1(const_profile, params45)
    assert len(shapes) == 1
    s = shapes[0]
    assert np.max(np.abs(s.theta - params45.theta0)) < 1e-12
    assert abs(s.h - params45.ell * math.sin(params45.theta0)) < 1e-11
    assert abs(s.payoff - (1.0 - math.exp(-1.0))) < 1e-10
    assert abs(s.lam - (1.0 - math.exp(-1.0))) < 1e-14


def test_solve_flat_light_random_triples():
    rng = np.random.default_rng(97)
    for _ in range(5):
        params = ModelParams(theta0=rng.uniform(0.2, 1.3),
                             kappa=rng.uniform(0.3, 3.0),
                             ell=rng.uniform(0.5, 2.0))
        s = m1.solve_op1(LightProfile.constant(1.0), params)[0]
        assert np.max(np.abs(s.theta - params.theta0)) <= 1e-10
        assert abs(s.h - params.ell * math.sin(params.theta0)) <= 1e-10


def test_solve_canopy_invariants(params45, canopy_profile):
    s = m1.solve_op1(canopy_profile, params45)[0]
    # terminal angle, monotonicity, length, feedback consistency
    assert abs(s.theta[-1] - params45.theta0) <= 1e-8
    assert np.all(np.diff(s.theta) <= 1e-12)
    assert abs(s.length_error) <= 1e-8
    resid = m1.F_of(s.theta, params45) + s.lam / canopy_profile.eval(s.y)
    assert np.max(np.abs(resid)) <= 1e-8


def test_solve_step_two_candidates():
    params = ModelParams(theta0=math.pi / 4, kappa=1.0, ell=1.2)
    shapes = m1.solve_op1(LightProfile.step(0.7, 1.0), params)
    assert len(shapes) == 2
    hs = sorted(s.h for s in shapes)
    assert hs[0] < 1.0 < hs[1]


@pytest.mark.filterwarnings("error")
def test_solve_all_dark_light_is_a_domain_error(params45):
    # the feedback angle would be 0/0 all along the stem: refused before the
    # scan, with no warning on the way
    with pytest.raises(DomainError, match="light is zero along the whole stem"):
        m1.solve_op1(LightProfile.constant(0.0), params45)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------

def test_oracle_flat_light_picks_theta0(params45, const_profile):
    res = oracles.oracle_op1(const_profile, params45, 4, 9)
    assert np.max(np.abs(res.theta - params45.theta0)) < 1e-12


def test_oracle_never_beats_solver(params45, canopy_profile):
    best = m1.solve_op1(canopy_profile, params45)[0]
    res = oracles.oracle_op1(canopy_profile, params45, 5, 9)
    assert res.payoff <= best.payoff + 1e-9


def test_oracle_refinement_narrows_gap(params45, canopy_profile):
    best = m1.solve_op1(canopy_profile, params45)[0]
    coarse = oracles.oracle_op1(canopy_profile, params45, 3, 7)
    finer = oracles.oracle_op1(canopy_profile, params45, 6, 11)
    assert finer.payoff >= coarse.payoff - 1e-12
    assert best.payoff - finer.payoff < best.payoff - coarse.payoff + 1e-9


# ---------------------------------------------------------------------------
# non-uniqueness reproduction
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nonuniq():
    params = ModelParams(theta0=math.pi / 4, kappa=1.0, ell=1.2)
    return m1.find_nonuniqueness_epsilon(params), params


def test_nonuniqueness_tie(nonuniq):
    nu, params = nonuniq
    assert 0.0 < nu.eps_hat < nu.eps_one < 1.0
    assert abs(nu.payoff_low - nu.payoff_high) <= 1e-10
    # short-branch payoff has the closed form ell (1 - e^-1) eps
    assert abs(nu.payoff_low - 1.2 * (1.0 - math.exp(-1.0)) * nu.eps_hat) < 1e-12


def test_nonuniqueness_limits(nonuniq):
    nu, params = nonuniq
    prof = LightProfile.step(1e-8, 1.0)
    # tall branch payoff approaches (1 - e^-1)/5 as the dim level vanishes
    z_top = math.exp(-1.0) - 1.0
    a = m1.phi_inverse(z_top / 1e-8, params)
    tall = 1e-8 * m1.capture_transverse(a, params) / math.sin(a) \
        + (1.2 - 1.0 / math.sin(a)) * (1.0 - math.exp(-1.0))
    assert abs(tall - (1.0 - math.exp(-1.0)) / 5.0) < 1e-6


def test_nonuniqueness_solver_shapes_agree(nonuniq):
    nu, params = nonuniq
    assert nu.shape_low.h < 1.0 < nu.shape_high.h
    assert abs(nu.shape_low.payoff - nu.payoff_low) < 1e-8
    assert abs(nu.shape_high.payoff - nu.payoff_high) < 1e-8
    # both branches satisfy the feedback law
    prof = LightProfile.step(nu.eps_hat, 1.0)
    for shape in (nu.shape_low, nu.shape_high):
        mask = np.abs(shape.y - 1.0) > 1e-6
        resid = m1.F_of(shape.theta[mask], params) \
            + shape.lam / prof.eval(shape.y[mask])
        assert np.max(np.abs(resid)) <= 1e-8


def test_nonuniqueness_requires_valid_geometry():
    bad = ModelParams(theta0=math.pi / 4, kappa=1.0, ell=0.9)  # ell < y_jump
    with pytest.raises(NoCrossingError):
        m1.find_nonuniqueness_epsilon(bad)


def test_nonuniqueness_boundary_ordering(nonuniq):
    # tall branch wins near zero light, short branch wins at the branch limit
    nu, params = nonuniq
    z_top = math.exp(-1.0) - 1.0

    def payoffs(eps):
        a = m1.phi_inverse(z_top / eps, params)
        below = 1.0 / math.sin(a)
        tall = eps * m1.capture_transverse(a, params) * below \
            + (params.ell - below) * (1.0 - math.exp(-1.0))
        short = params.ell * (1.0 - math.exp(-1.0)) * eps
        return short, tall

    s_lo, t_lo = payoffs(1e-6)
    s_hi, t_hi = payoffs(nu.eps_one * (1.0 - 1e-9))
    assert t_lo > s_lo
    assert t_hi < s_hi


def test_oracle_finds_both_branches_at_tie(nonuniq):
    # exhaustive grid search lands near-optimal controls on both sides of
    # the jump: a short stem at the light angle and a tall steep one
    nu, params = nonuniq
    prof = LightProfile.step(nu.eps_hat, 1.0)
    grid = np.linspace(params.theta0, math.pi / 2, 9)
    mesh = np.meshgrid(*([grid] * 4), indexing="ij")
    V = np.stack([m.ravel() for m in mesh], axis=1)
    j = oracles.profile_antiderivative(prof, params.ell)
    pays = oracles.payoff_piecewise_constant(V, prof, params, j)
    heights = np.sin(V).sum(axis=1) * params.ell / 4
    tied = nu.payoff_low
    assert pays[heights < 1.0].max() >= tied - 1e-9
    assert pays[heights > 1.0].max() >= tied - 0.005 * tied
