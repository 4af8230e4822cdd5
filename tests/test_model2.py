import math
from dataclasses import replace

import numpy as np
import pytest

from stemopt import LightProfile, ModelParams
from stemopt import model2 as m2
from stemopt import oracles
from stemopt.errors import DomainError
from stemopt.numerics import quad


H0_EXACT = math.sqrt(2.0) / 4.0   # full light, alpha=1/2, c=1, theta0=pi/4


# ---------------------------------------------------------------------------
# pointwise algebra
# ---------------------------------------------------------------------------

def test_capture_zero_density(params2):
    assert m2.G2(0.9, 0.0, params2) == 0.0


def test_capture_at_light_angle(params2):
    assert abs(m2.G2(math.pi / 4, 1.0, params2) - (1.0 - math.exp(-1.0))) < 1e-14


def test_capture_concave_in_density(params2):
    rng = np.random.default_rng(2)
    th = math.pi / 3
    u = rng.uniform(0.0, 4.0, (100, 2))
    mid = m2.G2(th, u.mean(axis=1), params2)
    avg = 0.5 * (m2.G2(th, u[:, 0], params2) + m2.G2(th, u[:, 1], params2))
    assert np.all(mid >= avg - 1e-14)


def test_feedback_zero_height_costate(params2):
    th, u, w = m2.feedback_TU(1.0, 0.0, 0.4, params2)
    assert w == 0.0
    assert th == params2.theta0
    assert abs(u - (-math.log(0.4))) < 1e-14


def test_feedback_unit_density_point(params2):
    _, u, _ = m2.feedback_TU(1.0, 0.0, math.exp(-1.0), params2)
    assert abs(u - 1.0) < 1e-14


def test_feedback_trig_identities(params2):
    rng = np.random.default_rng(8)
    t0 = params2.theta0
    for _ in range(50):
        I = rng.uniform(0.5, 1.0)
        q = rng.uniform(0.05, 0.95) * I
        p = rng.uniform(0.0, 0.5)
        th, u, w = m2.feedback_TU(I, p, q, params2)
        s = math.sqrt(math.cos(t0) ** 2 + (w + math.sin(t0)) ** 2)
        assert abs(math.sin(th) - (math.sin(t0) + w) / s) < 1e-12
        assert abs(math.cos(th - t0) - (1.0 + w * math.sin(t0)) / s) < 1e-12
        assert abs(math.cos(th) - math.cos(t0) / s) < 1e-12


def test_feedback_maximizes_hamiltonian(params2):
    # finite-difference stationarity and a local grid sweep
    rng = np.random.default_rng(13)
    for _ in range(20):
        I = rng.uniform(0.6, 1.0)
        q = rng.uniform(0.1, 0.9) * I
        p = rng.uniform(0.0, 0.3)
        th, u, _ = m2.feedback_TU(I, p, q, params2)

        def ham(theta, dens):
            return p * math.sin(theta) - q * dens + I * m2.G2(theta, dens, params2)

        h0 = ham(th, u)
        d = 1e-5
        g_th = (ham(th + d, u) - ham(th - d, u)) / (2 * d)
        g_u = (ham(th, u + d) - ham(th, u - d)) / (2 * d)
        assert abs(g_th) < 1e-6 and abs(g_u) < 1e-6
        # negative-definite Hessian at the critical point
        h_tt = (ham(th + d, u) - 2 * h0 + ham(th - d, u)) / d ** 2
        h_uu = (ham(th, u + d) - 2 * h0 + ham(th, u - d)) / d ** 2
        h_tu = (ham(th + d, u + d) - ham(th + d, u - d)
                - ham(th - d, u + d) + ham(th - d, u - d)) / (4 * d * d)
        assert h_tt < 0 and h_tt * h_uu - h_tu ** 2 > 0
        # grid sweep cannot beat the critical point
        ths = np.linspace(max(1e-3, th - 0.3), min(math.pi - 1e-3, th + 0.3), 50)
        us = np.linspace(max(0.0, u - 1.0), u + 1.0, 50)
        grid = np.array([[ham(t, v) for v in us] for t in ths])
        assert grid.max() <= h0 + 1e-9


def test_feedback_rejects_bad_costates(params2):
    with pytest.raises(DomainError):
        m2.feedback_TU(1.0, 0.0, -0.1, params2)


# ---------------------------------------------------------------------------
# first integral
# ---------------------------------------------------------------------------

def test_tail_mass_vanishes_at_tip(params2):
    assert m2.z_first_integral(1.0, 0.0, 1.0, params2) == 0.0


def test_tail_mass_ground_limit(params2):
    assert abs(m2.z_first_integral(1.0, 0.0, 1e-13, params2) - 1.0) < 1e-11


def test_tail_mass_matches_flat_light_closed_form(params2):
    rng = np.random.default_rng(4)
    q = rng.uniform(0.05, 0.95, 50)
    z = m2.z_first_integral(np.ones(50), np.zeros(50), q, params2)
    closed = (1.0 + q * np.log(q) - q) ** 2  # c=1, alpha=1/2
    assert np.max(np.abs(z - closed)) < 1e-12


# ---------------------------------------------------------------------------
# reduced slopes
# ---------------------------------------------------------------------------

def test_rhs_flat_light(params2, const_profile):
    dp, dq, _ = m2._costate_rhs(0.2, np.array([0.0, 0.4]), const_profile, params2,
                                m2._Floats)
    assert dp == 0.0
    expect = 0.5 / math.sin(math.pi / 4) / (1.0 + 0.4 * math.log(0.4) - 0.4)
    assert abs(dq - expect) < 1e-12


def test_rhs_zero_height_costate_factor(params2, canopy_profile):
    y, q = 0.3, 0.5
    I = canopy_profile.eval(y)
    dp, _, _ = m2._costate_rhs(y, np.array([0.0, q * I]), canopy_profile, params2,
                               m2._Floats)
    f1 = (1.0 - q) / math.sin(params2.theta0)
    assert abs(dp + canopy_profile.derivative(y) * f1) < 1e-12


def test_rhs_mass_slope_positive(params2, canopy_profile):
    rng = np.random.default_rng(21)
    for _ in range(50):
        y = rng.uniform(0.01, 0.9)
        I = canopy_profile.eval(y)
        q = rng.uniform(0.05, 0.95) * I
        p = rng.uniform(0.0, 0.2)
        _, dq, _ = m2._costate_rhs(y, np.array([p, q]), canopy_profile, params2,
                                   m2._Floats)
        assert dq > 0.0


@pytest.mark.parametrize("self_shade", [True, False])
def test_costate_rhs_batch_rows_are_float_calls(self_shade, params2, canopy_profile):
    # one kernel for one state and for a batch, in every branch: the series
    # (|1 - q/I| < 1e-3), the logarithm, the negative-q guard with r above
    # and at _Q_FLOOR, and q = I, where D takes the 1e-300 floor.  numpy's
    # vectorized log and pow may round the last bit unlike the C library's
    # on the float path, so the rows agree to a few ulp, not bit for bit
    ratio = np.array([1.0 - 5e-4, 1.0 + 2e-4, 1.0, 0.3, 0.9, 1.4, -0.5, -2.0])
    p = np.array([0.1, 0.0, 0.05, 0.2, 0.0, 0.1, 0.3, 0.1])
    y = np.linspace(0.05, 0.8, len(ratio))
    if self_shade:
        params, profile = replace(params2, rho0=0.3), None
        I = np.linspace(1.0, 0.4, len(ratio))
    else:
        params, profile = params2, canopy_profile
        I = canopy_profile.eval(y)
    z = np.linspace(0.0, 0.5, len(ratio))
    S = np.stack([p, ratio * I, z] + ([I] if self_shade else []), axis=1)
    batch = m2._costate_rhs(y, S, profile, params, np).T
    rows = np.array([m2._costate_rhs(yi, si, profile, params, m2._Floats)
                     for yi, si in zip(y, S)])
    assert np.all(np.isfinite(batch))
    np.testing.assert_allclose(batch, rows, rtol=1e-14, atol=0.0)


# ---------------------------------------------------------------------------
# tip layer
# ---------------------------------------------------------------------------

def test_seed_matches_implicit_solution(params2, const_profile):
    # the shot from the exact tip state reproduces the closed-form inversion
    # inside the tip layer, where 1 - q is small
    h = H0_EXACT
    cfg = m2.Op2Config()
    traj = m2._shoot_once(h, const_profile, params2, cfg, rtol=cfg.rtol)
    beta = m2._stretch(params2)
    for depth in (1e-5 * h, 1e-6 * h):
        q_shot = traj.sample([(depth / h) ** beta])[0, 1]
        q_true = oracles.closed_form_q([h - depth], h, params2)[0]
        assert abs(q_shot - q_true) / (1.0 - q_true) < 1e-5
    assert np.all(traj.y[:, 0] == 0.0)  # full light keeps the height costate at zero


def test_tip_slope_is_the_layer_limit(params2, const_profile):
    # the sigma-slope (0, -K h^beta, 0) that starts the shot is the limit of
    # the closed-form mass costate's difference quotient at the tip
    h = H0_EXACT
    beta = m2._stretch(params2)
    state, slope = m2._tip(h, const_profile, params2)
    assert state.tolist() == [[0.0, 1.0, 0.0]]
    assert slope[0, 0] == slope[0, 2] == 0.0
    for sig in (1e-2, 1e-3):
        q = oracles.closed_form_q(m2._unstretch(sig, h, beta)[0], h, params2)
        assert abs((q - 1.0) / sig / slope[0, 1] - 1.0) < sig


def test_dark_tip_is_rejected(params2):
    with pytest.raises(DomainError, match="tip light must be positive"):
        m2.shoot_op2(LightProfile.constant(0.0), params2)


def test_layer_constant_closed_form(params2):
    # [(2 - a) 2^((1-a)/a) c^(1/a) / sin t0]^(a/(2-a)) at a=1/2 is (3/sin)^(1/3)
    K = m2.layer_constant(params2, 1.0)
    assert abs(K - (3.0 / math.sin(math.pi / 4)) ** (1.0 / 3.0)) < 1e-14


def test_qlayer_exponent_fit(stem_flat, params2):
    tau = stem_flat.h - stem_flat.y
    mask = (tau > 2e-6 * stem_flat.h) & (tau < 100e-6 * stem_flat.h)
    slope = np.polyfit(np.log(tau[mask]),
                       np.log(1.0 - stem_flat.q[mask] / stem_flat.I[mask]), 1)[0]
    target = params2.alpha / (2.0 - params2.alpha)
    assert abs(slope / target - 1.0) < 0.10


def test_player_exponent_fit(stem_canopy, params2):
    tau = stem_canopy.h - stem_canopy.y
    mask = (tau > 20e-6 * stem_canopy.h) \
        & (tau < 1000e-6 * stem_canopy.h) & (stem_canopy.p > 0)
    slope = np.polyfit(np.log(tau[mask]), np.log(stem_canopy.p[mask]), 1)[0]
    target = 2.0 / (2.0 - params2.alpha)
    assert abs(slope / target - 1.0) < 0.10


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

def test_shoot_flat_light_height(stem_flat):
    assert abs(stem_flat.h - H0_EXACT) < 1e-6
    assert len(stem_flat.h_candidates) == 1


def test_shoot_flat_light_profiles(stem_flat, params2):
    assert np.max(np.abs(stem_flat.theta - params2.theta0)) < 1e-10
    assert np.max(stem_flat.p) == 0.0
    assert abs(stem_flat.z[0] - 1.0) < 1e-6
    assert abs(stem_flat.T - 0.5) < 1e-6


def test_shoot_flat_light_implicit_relation(stem_flat, params2):
    ys = np.linspace(0.0, stem_flat.h * 0.98, 100)
    q = stem_flat.interp("q", ys)
    q_true = oracles.closed_form_q(ys, stem_flat.h, params2)
    assert np.max(np.abs(q - q_true)) < 1e-6


def test_shoot_hamiltonian_conservation(stem_flat, stem_canopy):
    assert stem_flat.hamiltonian_max_abs <= 1e-6
    assert stem_canopy.hamiltonian_max_abs <= 1e-6


def test_shoot_costate_structure(stem_canopy):
    # distinct heights; p >= 0 and non-increasing; q strictly increasing
    # with q/I in ]0, 1]
    assert np.all(np.diff(stem_canopy.y) > 0.0)
    assert np.all(stem_canopy.p >= 0.0)
    assert np.all(np.diff(stem_canopy.p) <= 1e-12)
    assert np.all(np.diff(stem_canopy.q) > 0.0)
    ratio = stem_canopy.q / stem_canopy.I
    assert ratio[-1] <= 1.0 + 1e-12
    assert np.all(ratio[1:] > 0.0)


def test_shoot_angle_bounds(stem_canopy, params2):
    assert np.all(stem_canopy.theta >= params2.theta0 - 1e-12)
    assert stem_canopy.theta.max() < math.pi / 2 - 0.5  # well below vertical


def test_shoot_mass_consistency(stem_flat, params2):
    mass = np.trapezoid(stem_flat.u / np.sin(stem_flat.theta), stem_flat.y)
    z0 = m2.z_first_integral(stem_flat.I[0], stem_flat.p[0],
                             max(stem_flat.q[0], 1e-15), params2)
    assert abs(z0 - mass) < 1e-5
    assert abs(stem_flat.z[0] - mass) < 1e-5  # integrated state agrees too


def test_residual_decreasing_near_root(params2, const_profile):
    cfg = m2.Op2Config()
    hs = H0_EXACT * np.array([0.9, 0.95, 1.0, 1.05, 1.1])
    resid = [m2.shoot_residual(float(h), const_profile, params2, cfg, rtol=1e-9)
             for h in hs]
    assert np.all(np.diff(resid) < 0.0)


def test_small_alpha_layer_offset(const_profile):
    params = ModelParams(theta0=math.pi / 4, alpha=0.11, c=1.0)
    assert m2.shoot_op2(const_profile, params).h > 0.0


def test_full_light_height_over_alpha_grid(const_profile):
    # the shot from the exact tip state finds the full-light height for
    # every exponent of the parameter box, down to its small-alpha end
    rng = np.random.default_rng(16)
    for alpha in np.concatenate([[0.1, 0.9], rng.uniform(0.1, 0.9, 4)]):
        params = ModelParams(theta0=math.pi / 4, alpha=float(alpha), c=1.0)
        h0 = m2.estimate_h0(params)
        h = m2.shoot_op2(const_profile, params).h
        assert abs(h - h0) / h0 <= 1e-9, (alpha, h, h0)


@pytest.mark.parametrize("alpha", [0.11, 0.5, 0.9])
def test_residual_batch_matches_fine_mesh(alpha, const_profile, monkeypatch):
    # the 448-node scan stays close to a 16,384-node sigma reference over
    # the scan range of `shoot_op2` and brackets exactly one root
    params = ModelParams(theta0=math.pi / 4, alpha=alpha, c=1.0)
    h0 = m2.estimate_h0(params)
    hs = np.linspace(1e-3 * h0, 3.0 * h0, 200)
    coarse = m2.residual_batch(hs, const_profile, params)
    monkeypatch.setattr(m2, "_SCAN_SIGMA", np.sqrt(np.linspace(0.0, 1.0, 16384)))
    fine = m2.residual_batch(hs, const_profile, params)
    assert np.max(np.abs(coarse - fine)) <= 1e-5
    assert np.count_nonzero(np.diff(np.sign(coarse))) == 1
    assert np.array_equal(np.sign(coarse), np.sign(fine))


def test_maximality_along_trajectory(stem_canopy, params2):
    # the reconstructed controls beat a local control grid at sampled points
    rng = np.random.default_rng(17)
    idx = rng.integers(len(stem_canopy.y) // 10, 9 * len(stem_canopy.y) // 10, 20)
    for i in idx:
        I, p, q = stem_canopy.I[i], stem_canopy.p[i], stem_canopy.q[i]
        th, u = stem_canopy.theta[i], stem_canopy.u[i]
        base = p * math.sin(th) - q * u + I * m2.G2(th, u, params2)
        ths = np.linspace(max(1e-3, th - 0.2), th + 0.2, 50)
        us = np.linspace(max(0.0, u - 0.5), u + 0.5, 50)
        TH, UU = np.meshgrid(ths, us)
        vals = p * np.sin(TH) - q * UU + I * m2.G2(TH, UU, params2)
        assert vals.max() <= base + 1e-9


# ---------------------------------------------------------------------------
# closed forms and oracle
# ---------------------------------------------------------------------------

def test_h0_closed_form_quarter_integral(params2):
    # sin(t0)/(a c^(1/a)) * int_0^1 (1 + s ln s - s) ds with the integral 1/4
    val = quad(lambda s: 1.0 + (s * math.log(s) if s > 0.0 else 0.0) - s,
               0.0, 1.0, 1e-12)
    assert abs(val - 0.25) < 1e-11
    assert abs(m2.estimate_h0(params2) - H0_EXACT) < 1e-10


def test_closed_form_q_at_and_below_the_full_light_ground(params2):
    # a tip height a rounding above the full-light height puts y = 0 below
    # the closed form's ground, where q = 0 instead of a failed bracket
    h = m2.estimate_h0(params2) * (1.0 + 1e-12)
    assert oracles.closed_form_q([0.0, -0.1], h, params2).tolist() == [0.0, 0.0]
    assert 0.0 < oracles.closed_form_q(0.5 * h, h, params2) < 1.0


def test_closed_form_payoff_half_exponent(params2):
    # at alpha = 1/2, c = 1 the payoff is 2 int_0^1 -q ln q (1 - q + q ln q) dq
    # = 2 * 7/108; the integrand's log factor enters with its limit 0 at q = 0
    assert oracles.closed_form_payoff(params2) == pytest.approx(7.0 / 54.0, rel=1e-14)


def test_oracle_zero_density_floor(params2, const_profile):
    val = oracles.oracle_payoff(np.full(8, params2.theta0), np.zeros(8), 0.5,
                                const_profile, params2)
    assert val == 0.0


def _oracle_payoff_loop(th, uu, T, profile, params):
    """The running payoff with its transport cost summed segment by segment:
    the reference for the vectorized `oracles.oracle_payoff`."""
    n = len(th)
    dt = T / n
    yg, Jg = oracles.profile_antiderivative(profile, T + 1.0, 1 << 16)
    dy = np.sin(th) * dt
    y_hi = np.cumsum(dy)
    y_lo = y_hi - dy
    cap = m2.G2(th, uu, params) / np.sin(th) * (np.interp(y_hi, yg, Jg)
                                                - np.interp(y_lo, yg, Jg))
    tail = np.concatenate([np.cumsum((uu * dt)[::-1])[::-1], [0.0]])
    a = params.alpha
    cost = np.empty(n)
    for i in range(n):
        z_hi, z_lo = tail[i], tail[i + 1]
        if uu[i] > 1e-14:
            cost[i] = (z_hi ** (a + 1.0) - z_lo ** (a + 1.0)) / (uu[i] * (a + 1.0))
        else:
            cost[i] = z_hi ** a * dt
    return float(np.sum(cap) - params.c * np.sum(cost))


def test_oracle_payoff_matches_its_segment_loop(params2, canopy_profile):
    # numpy's array power may round differently from the scalar one by an
    # ulp; the cancellation between a segment's two tail powers amplifies
    # that by z / (u dt) < 2e3 on these inputs, far below the tolerance
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(1, 65))
        th = rng.uniform(params2.theta0, math.pi / 2, n)
        uu = np.where(rng.random(n) < 0.2, 0.0, rng.uniform(0.1, 3.0, n))
        T = rng.uniform(0.2, 2.0)
        want = _oracle_payoff_loop(th, uu, T, canopy_profile, params2)
        got = oracles.oracle_payoff(th, uu, T, canopy_profile, params2)
        assert abs(got - want) <= 1e-12 * (1.0 + abs(want))


def test_oracle_flat_light_close_to_solver(params2, const_profile, stem_flat):
    res = oracles.oracle_op2(const_profile, params2, 64, seed=0)
    closed = oracles.closed_form_payoff(params2)
    assert res.payoff <= stem_flat.payoff + 1e-9
    assert res.payoff >= 0.98 * closed
    # optimal angles cluster at the light angle under flat light
    assert np.max(np.abs(res.theta - params2.theta0)) < 1e-6


def test_oracle_segment_limit(params2, const_profile):
    with pytest.raises(DomainError):
        oracles.oracle_op2(const_profile, params2, 128)


def test_oracle_refinement_improves(params2, const_profile, stem_flat):
    coarse = oracles.oracle_op2(const_profile, params2, 8, seed=3, n_starts=1)
    fine = oracles.oracle_op2(const_profile, params2, 32, seed=3, n_starts=1)
    assert coarse.payoff <= stem_flat.payoff + 1e-9
    assert fine.payoff <= stem_flat.payoff + 1e-9
    assert fine.payoff >= coarse.payoff - 1e-9


@pytest.mark.parametrize("theta0,alpha,c", [(0.6, 0.4, 1.5), (1.1, 0.6, 0.7)])
def test_shoot_flat_light_generic_parameters(theta0, alpha, c):
    # the flat-light closed forms hold for any admissible parameter triple
    params = ModelParams(theta0=theta0, alpha=alpha, c=c)
    st = m2.shoot_op2(LightProfile.constant(1.0), params)
    assert abs(st.h - m2.estimate_h0(params)) < 1e-6
    ys = np.linspace(0.1 * st.h, 0.9 * st.h, 7)
    q = st.interp("q", ys)
    q_true = oracles.closed_form_q(ys, st.h, params)
    assert np.max(np.abs(q - q_true)) < 1e-6
    assert st.hamiltonian_max_abs < 1e-6
