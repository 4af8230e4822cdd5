"""Optimal stems with free length and variable leaf density.

The stationarity system gives closed-form controls (angle and leaf density)
in terms of the two costates and the light intensity, and a first integral
pins the remaining tail mass.  What is left is a two-point problem in height
for the costate pair: terminal values are known at the unknown tip height h,
and the mass costate must vanish at the ground.  The right side blows up
with an integrable power at the tip, so integration starts from a small
offset with an asymptotic seed and the tip height is found by root-finding
on the ground residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    DegenerateDenominatorError,
    DomainError,
    NoBracketError,
    SingularityError,
)
from .lightfield import LightProfile
from .numerics import (
    Bracket,
    OdeProblem,
    find_root,
    integrate,
    quad,
    rk4_mesh,
    sign_change_brackets,
    trapezoid_cumulative,
)
from .params import ModelParams, Op2Config

_Q_FLOOR = -0.9         # reduced system extended to slightly negative mass costate
_W_CAP = 1e12
_SCAN_RTOL = 1e-7       # warm-bracket end points only locate a sign change
_CLOSED_FORM_TOL = 1e-12


# ---------------------------------------------------------------------------
# Pointwise algebra
# ---------------------------------------------------------------------------

def G2(theta, u, params: ModelParams):
    """Saturated capture per unit arc length for leaf density u."""
    th = np.asarray(theta, dtype=float)
    uu = np.asarray(u, dtype=float)
    c = np.cos(th - params.theta0)
    with np.errstate(over="ignore"):
        val = -np.expm1(-uu / c) * c
    return float(val) if (np.isscalar(theta) and np.isscalar(u)) else val


def _one_minus_r_term(r):
    """Stable 1 - r + r ln r, extended by ln|r| for the negative-r guard."""
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    near = np.abs(1.0 - r) < 1e-3
    e = 1.0 - r[near]
    out[near] = e * e / 2 + e ** 3 / 6 + e ** 4 / 12 + e ** 5 / 20 + e ** 6 / 30
    rest = ~near
    rr = r[rest]
    safe = np.maximum(np.abs(rr), 1e-300)
    out[rest] = 1.0 - rr + rr * np.log(safe)
    return out


def _one_minus_r_scalar(r: float) -> float:
    if abs(1.0 - r) < 1e-3:
        e = 1.0 - r
        return e * e / 2 + e ** 3 / 6 + e ** 4 / 12 + e ** 5 / 20 + e ** 6 / 30
    return 1.0 - r + r * math.log(max(abs(r), 1e-300))


def feedback_TU(I, p, q, params: ModelParams):
    """Maximizing controls (Theta, U) and the slope variable w.

    w  = (p/I) / (1 - q/I + (q/I) ln(q/I))
    Theta = arctan(tan theta0 + w / cos theta0)
    U  = -ln(q/I) cos(Theta - theta0)
    """
    I_arr = np.asarray(I, dtype=float)
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    if np.any(q_arr <= 0.0):
        raise DomainError("mass costate q must be positive for the feedback")
    if np.any(p_arr < 0.0):
        raise DomainError("height costate p must be non-negative")
    r = q_arr / I_arr
    D = I_arr * _one_minus_r_term(r)
    if np.any((D <= 0.0) & (p_arr > 0.0)):
        raise DegenerateDenominatorError("q reached I with p > 0: w diverges")
    with np.errstate(divide="ignore", invalid="ignore"):
        w = np.where(D > 0.0, p_arr / np.maximum(D, 1e-300), 0.0)
    w = np.minimum(w, _W_CAP)
    t0 = params.theta0
    theta = np.arctan(np.tan(t0) + w / math.cos(t0))
    U = -np.log(r) * np.cos(theta - t0)
    scalar = all(np.isscalar(v) or np.asarray(v).ndim == 0 for v in (I, p, q))
    if scalar:
        return float(theta), float(U), float(w)
    return theta, U, w


def z_first_integral(I, p, q, params: ModelParams):
    """Tail mass from the conserved Hamiltonian (zero on optimal paths):

    z = c^(-1/alpha) { ([I-q+q ln(q/I)] cos t0)^2
                        + (p + [I-q+q ln(q/I)] sin t0)^2 }^(1/(2 alpha))
    """
    I_arr = np.asarray(I, dtype=float)
    p_arr = np.asarray(p, dtype=float)
    q_arr = np.asarray(q, dtype=float)
    D = I_arr * _one_minus_r_term(q_arr / I_arr)
    t0 = params.theta0
    inner = (D * math.cos(t0)) ** 2 + (p_arr + D * math.sin(t0)) ** 2
    val = params.c ** (-1.0 / params.alpha) * inner ** (1.0 / (2.0 * params.alpha))
    scalar = all(np.isscalar(v) or np.asarray(v).ndim == 0 for v in (I, p, q))
    return float(val) if scalar else val


def _rhs_terms(I, p, q, params: ModelParams):
    """f1, f2 and the tail-mass slope, with the negative-q guard applied."""
    a, c, t0 = params.alpha, params.c, params.theta0
    sa = math.sin(t0)
    r = max(q / I, _Q_FLOOR)
    D = I * _one_minus_r_scalar(r)
    if D <= 0.0:
        raise SingularityError(f"degenerate bracket at q/I={r}")
    w = min(max(p, 0.0) / D, _W_CAP)
    S = math.cos(t0) ** 2 + (w + sa) ** 2
    f1 = (1.0 - r) * (1.0 + w * sa) / (w + sa)
    f2 = a * c ** (1.0 / a) / (w + sa) * S ** (1.0 - 1.0 / (2.0 * a)) \
        * D ** (1.0 - 1.0 / a)
    ln_r = math.log(max(abs(r), 1e-300))
    z_slope = ln_r * (1.0 + w * sa) / (sa + w)
    return f1, f2, z_slope


def _rhs_terms_vec(I, p, q, params: ModelParams):
    """Vectorized f1, f2, tail-mass slope for batched residual scans."""
    a, c, t0 = params.alpha, params.c, params.theta0
    sa = math.sin(t0)
    r = np.maximum(q / I, _Q_FLOOR)
    D = I * _one_minus_r_term(r)
    D = np.maximum(D, 1e-300)
    w = np.minimum(np.maximum(p, 0.0) / D, _W_CAP)
    S = math.cos(t0) ** 2 + (w + sa) ** 2
    f1 = (1.0 - r) * (1.0 + w * sa) / (w + sa)
    f2 = a * c ** (1.0 / a) / (w + sa) * S ** (1.0 - 1.0 / (2.0 * a)) \
        * D ** (1.0 - 1.0 / a)
    z_slope = np.log(np.maximum(np.abs(r), 1e-300)) * (1.0 + w * sa) / (sa + w)
    return f1, f2, z_slope


def _costate_rhs(y, s, profile: LightProfile, params: ModelParams):
    """Height-parameterized slopes (p', q', z') of the state s = (p, q, z)."""
    f1, f2, zs = _rhs_terms(profile.eval(y), s[0], s[1], params)
    return np.array([-profile.derivative(y) * f1, f2, zs])


# ---------------------------------------------------------------------------
# Terminal layer
# ---------------------------------------------------------------------------

def layer_constant(params: ModelParams, I_h: float = 1.0) -> float:
    """Leading coefficient K of 1 - q/I ~ K (h-y)^(alpha/(2-alpha)) near the tip,
    from the frozen-intensity local model."""
    a, c, t0 = params.alpha, params.c, params.theta0
    base = (2.0 - a) * 2.0 ** ((1.0 - a) / a) * c ** (1.0 / a) \
        / (math.sin(t0) * I_h ** (1.0 / a))
    return base ** (a / (2.0 - a))


def seed_terminal_layer(h: float, profile: LightProfile, params: ModelParams,
                        epsilon: float):
    """Asymptotic start values (p, q) at y = h - epsilon.

    The mass costate leaves its terminal value with a known fractional power;
    the height costate is higher order and starts at zero.
    """
    I_h = profile.eval(h)
    K = layer_constant(params, I_h)
    e = K * epsilon ** (params.alpha / (2.0 - params.alpha))
    if e >= 0.5:
        raise DomainError(f"layer offset {epsilon} too large for height {h}")
    return 0.0, I_h * (1.0 - e)


def _seed_state(h, profile, params, epsilon):
    p0, q0 = seed_terminal_layer(h, profile, params, epsilon)
    z0 = z_first_integral(profile.eval(h), p0, q0, params)
    return np.array([p0, q0, z0])


# ---------------------------------------------------------------------------
# Shooting
# ---------------------------------------------------------------------------

@dataclass
class StemState2:
    """Optimality-system trajectory sampled over height, plus summary scalars."""

    h: float
    y: np.ndarray
    p: np.ndarray
    q: np.ndarray
    I: np.ndarray
    theta: np.ndarray
    u: np.ndarray
    z: np.ndarray
    x: np.ndarray
    T: float
    payoff: float
    transport_cost: float
    hamiltonian_max_abs: float
    residual_q0: float
    h_candidates: list[float] = field(default_factory=list)
    epsilon: float = 0.0
    richardson_dq: float = math.nan

    def interp(self, name: str, yq):
        return np.interp(np.asarray(yq, dtype=float), self.y, getattr(self, name))


def _shoot_once(h, profile, params, cfg: Op2Config, rtol):
    eps = cfg.epsilon_rel * h
    state0 = _seed_state(h, profile, params, eps)

    def rhs(y, s):   # a closure here, so that perfbench names it model2.rhs
        return _costate_rhs(y, s, profile, params)

    problem = OdeProblem(3, rhs)
    return integrate(problem, (h - eps, 0.0), state0, rtol=rtol, atol=cfg.atol)


def shoot_residual(h, profile, params, cfg: Op2Config, rtol) -> float:
    """Ground value of the mass costate for tip height h (signed)."""
    return float(_shoot_once(h, profile, params, cfg, rtol=rtol).y[-1, 1])


def _graded_sigma(n_layer: int = 64, n_main: int = 384) -> np.ndarray:
    """Unit-interval mesh with geometric refinement at the tip end (sigma=0)."""
    layer = np.logspace(-8.0, -1.0, n_layer)
    main = np.linspace(0.1, 1.0, n_main)[1:]
    return np.concatenate([[0.0], layer, main])


def residual_batch(hs, profile: LightProfile, params: ModelParams,
                   eps_rel: float = 1e-6, coupled_slope=None) -> np.ndarray:
    """Ground residual q(0, h) for many tip heights in one vectorized sweep.

    Fixed-step RK4 in the scaled coordinate sigma = (h - eps - y)/(h - eps)
    on a tip-graded mesh; accuracy is ample for locating sign changes, which
    Brent then refines with the adaptive integrator.  `coupled_slope(Y)`
    gives the slopes of a system that carries the intensity as a fourth
    state column, started at I(h) (the coupled equilibrium system).
    """
    hs = np.asarray(hs, dtype=float)
    eps = eps_rel * hs
    h_eff = hs - eps
    n = len(hs)

    p0 = np.zeros(n)
    q0 = np.empty(n)
    I_h = np.atleast_1d(profile.eval(hs))
    for i, h in enumerate(hs):
        _, q0[i] = seed_terminal_layer(float(h), profile, params, float(eps[i]))
    z0 = z_first_integral(I_h, p0, q0, params)
    Y = np.stack([p0, q0, z0] if coupled_slope is None else [p0, q0, z0, I_h], axis=1)

    def slope(sig, Y):
        if coupled_slope is not None:
            return -h_eff[:, None] * coupled_slope(Y)
        y = h_eff * (1.0 - sig)
        I = np.atleast_1d(profile.eval(y))
        Ip = np.atleast_1d(profile.derivative(y))
        f1, f2, zs = _rhs_terms_vec(I, Y[:, 0], Y[:, 1], params)
        return -h_eff[:, None] * np.stack([-Ip * f1, f2, zs], axis=1)

    return rk4_mesh(slope, _graded_sigma(), Y)[:, 1].copy()


def estimate_h0(params: ModelParams) -> float:
    """Tip height of the full-light closed form, used to size scan ranges."""
    a, c, t0 = params.alpha, params.c, params.theta0
    val = quad(lambda s: _one_minus_r_scalar(s) ** ((1.0 - a) / a),
               0.0, 1.0, 1e-12)
    return math.sin(t0) / (a * c ** (1.0 / a)) * val


def _shoot_tip_height(residual, scan, finalize, h0: float, cfg: Op2Config):
    """Shared tip-height shooting driver; returns (best state, all roots).

    Tries the warm bracket `cfg.h_bracket` with `residual(h, rtol)` at the
    scan tolerance, else samples the batched `scan(hs)` on [1e-3, 3]*h0 and
    brackets every sign change.  Brent refines each bracket at `cfg.rtol`,
    `finalize(h)` builds a state per root, and the best payoff wins (first
    one on ties).
    """
    brackets: list[Bracket] = []
    if cfg.h_bracket is not None:
        lo, hi = cfg.h_bracket
        f_lo = residual(lo, _SCAN_RTOL)
        f_hi = residual(hi, _SCAN_RTOL)
        if f_lo * f_hi <= 0.0:
            brackets.append(Bracket(lo, hi, f_lo, f_hi))
    if not brackets:
        hs = np.linspace(max(1e-3 * h0, 1e-9), 3.0 * h0, cfg.scan_samples)
        fs = scan(hs)
        brackets = sign_change_brackets(hs, fs)
        if not brackets:
            raise NoBracketError(
                f"ground residual has no sign change for h in [{hs[0]:.6g}, "
                f"{hs[-1]:.6g}] ({len(hs)} samples): f(lo)={fs[0]:.3e}, "
                f"f(hi)={fs[-1]:.3e}, min {np.min(fs):.3e}, max {np.max(fs):.3e}")

    roots = [find_root(lambda h: residual(h, cfg.rtol), brk, tol=cfg.root_tol)
             for brk in brackets]
    states = [finalize(h) for h in roots]
    return max(states, key=lambda s: s.payoff), [float(h) for h in roots]


def shoot_op2(profile: LightProfile, params: ModelParams,
              config: Op2Config | None = None) -> StemState2:
    """Solve the free-height stem problem under the given light profile.

    Scans the ground residual over a height range (or the supplied bracket),
    refines every sign change by Brent, and returns the trajectory at the
    best-payoff root with reconstruction of controls, tail mass, curve and
    invariant diagnostics.
    """
    cfg = config or Op2Config()
    best, roots = _shoot_tip_height(
        lambda h, rtol: shoot_residual(h, profile, params, cfg, rtol=rtol),
        lambda hs: residual_batch(hs, profile, params, eps_rel=cfg.epsilon_rel),
        lambda h: _finalize(h, profile, params, cfg),
        estimate_h0(params), cfg)
    best.h_candidates = roots
    return best


def output_mesh(nodes: np.ndarray, h: float, eps: float, n_out: int) -> np.ndarray:
    """Ascending sample heights: integrator nodes, a uniform fill, and a
    geometric tail under the tip where the costate curvature blows up
    (linear interpolation between plain uniform samples would lose five
    digits there)."""
    uniform = np.linspace(0.0, h - eps, n_out + 1)
    tau = np.geomspace(2.0 * eps, 0.5 * h, 320)
    return np.unique(np.concatenate([nodes, uniform, h - tau]))


def assemble_state(h, y_all, p, q, z, I, params: ModelParams,
                   eps: float, residual: float) -> StemState2:
    """Reconstruct controls, curve and diagnostics from sampled costates."""
    # the ground node carries the shooting residual; floor it so the
    # reconstructed leaf density stays a finite, plottable value there
    q_floor = np.maximum(q, 1e-15 * I)
    theta, u, w = feedback_TU(I, np.maximum(p, 0.0), q_floor, params)

    sin_t = np.sin(theta)
    # the truncated tip layer contributes eps/sin(theta(h)) of arc length
    T = float(np.trapezoid(1.0 / sin_t, y_all)) + eps / float(sin_t[-1])
    capture = I * G2(theta, u, params)
    cost_density = params.c * np.maximum(z, 0.0) ** params.alpha
    payoff = float(np.trapezoid((capture - cost_density) / sin_t, y_all))
    transport = float(np.trapezoid(cost_density / sin_t, y_all))
    x = trapezoid_cumulative(y_all, np.cos(theta) / sin_t)

    # Hamiltonian along the integrated (not first-integral) tail mass
    t0 = params.theta0
    D = I * _one_minus_r_term(q_floor / I)
    S = np.sqrt(math.cos(t0) ** 2 + (w + math.sin(t0)) ** 2)
    H = np.maximum(p, 0.0) * (math.sin(t0) + w) / S \
        + D * (1.0 + w * math.sin(t0)) / S - cost_density
    ham_max = float(np.max(np.abs(H)))

    return StemState2(
        h=float(h), y=y_all, p=np.maximum(p, 0.0), q=q, I=I,
        theta=theta, u=u, z=np.maximum(z, 0.0), x=x,
        T=T, payoff=payoff, transport_cost=transport,
        hamiltonian_max_abs=ham_max,
        residual_q0=float(residual),
        epsilon=float(eps),
    )


def _finalize(h, profile, params, cfg: Op2Config) -> StemState2:
    traj = _shoot_once(h, profile, params, cfg, rtol=cfg.rtol)
    eps = cfg.epsilon_rel * h

    y_all = output_mesh(traj.t[::-1], h, eps, cfg.n_out)
    samp = traj.sample(y_all)
    I = np.atleast_1d(profile.eval(y_all))
    state = assemble_state(h, y_all, samp[:, 0], samp[:, 1], samp[:, 2], I,
                           params, eps, float(traj.y[-1, 1]))

    if cfg.richardson:
        cfg_half = replace(cfg, epsilon_rel=cfg.epsilon_rel / 2, richardson=False)
        traj_half = _shoot_once(h, profile, params, cfg_half, rtol=cfg.rtol)
        state.richardson_dq = abs(float(traj_half.y[-1, 1]) - float(traj.y[-1, 1]))
    return state


def closed_form_q(y, h: float, params: ModelParams):
    """Full-light mass costate by inverting its implicit relation; oracle use."""
    a, c, t0 = params.alpha, params.c, params.theta0
    scale = math.sin(t0) / (a * c ** (1.0 / a))

    def depth(qv):
        return scale * quad(lambda s: _one_minus_r_scalar(s) ** ((1.0 - a) / a),
                            qv, 1.0, _CLOSED_FORM_TOL)

    out = []
    for yy in np.atleast_1d(np.asarray(y, dtype=float)):
        target = h - yy
        f = lambda qv: depth(qv) - target
        out.append(find_root(f, Bracket(0.0, 1.0, f(0.0), f(1.0)),
                             tol=_CLOSED_FORM_TOL))
    return np.array(out) if np.asarray(y).ndim else float(out[0])


def closed_form_payoff(params: ModelParams) -> float:
    """Full-light optimal payoff, reduced to a single quadrature in q."""
    a, c = params.alpha, params.c

    def f(qv):
        return (-qv * math.log(qv)) * _one_minus_r_scalar(qv) ** ((1.0 - a) / a)

    return quad(f, 0.0, 1.0, _CLOSED_FORM_TOL, singular_at=(0.0,)) / (a * c ** (1.0 / a))


# ---------------------------------------------------------------------------
# Direct-transcription oracle
# ---------------------------------------------------------------------------

@dataclass
class Oracle2Result:
    payoff: float
    theta: np.ndarray
    u: np.ndarray
    T: float
    evaluations: int


def oracle_payoff(theta_vals, u_vals, T, profile: LightProfile,
                  params: ModelParams, j_grid=None):
    """Exact running payoff of piecewise-constant controls on [0, T]."""
    th = np.asarray(theta_vals, dtype=float)
    uu = np.asarray(u_vals, dtype=float)
    n = len(th)
    dt = T / n
    if j_grid is None:
        y_max = T + 1.0
        yg = np.linspace(0.0, y_max, 1 << 16)
        j_grid = (yg, trapezoid_cumulative(yg, profile.eval(yg)))
    yg, Jg = j_grid
    dy = np.sin(th) * dt
    y_hi = np.cumsum(dy)
    y_lo = y_hi - dy
    cap = G2(th, uu, params) / np.sin(th) * (np.interp(y_hi, yg, Jg)
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


def oracle_op2(profile: LightProfile, params: ModelParams, n_segments: int,
               seed: int = 0, n_starts: int = 2) -> Oracle2Result:
    """Direct transcription with coordinate descent over (T, theta_i, u_i).

    Golden-section line search per coordinate, multi-start, honest continuous
    payoff evaluation, so the indirect solver must dominate the result.
    """
    if n_segments > 64:
        raise DomainError("transcription limited to 64 segments")
    rng = np.random.default_rng(seed)
    h0_est = estimate_h0(params)
    T_ref = h0_est / math.sin(params.theta0)
    u_ref = params.c ** (-1.0 / params.alpha) / T_ref

    y_max = 3.0 * T_ref + 1.0
    yg = np.linspace(0.0, y_max, 1 << 16)
    j_grid = (yg, trapezoid_cumulative(yg, profile.eval(yg)))

    evals = 0
    gold = (math.sqrt(5.0) - 1.0) / 2.0

    def golden_max(fun, lo, hi, iters=28):
        nonlocal evals
        a_, b_ = lo, hi
        c_ = b_ - gold * (b_ - a_)
        d_ = a_ + gold * (b_ - a_)
        fc, fd = fun(c_), fun(d_)
        evals += 2
        for _ in range(iters):
            if fc > fd:
                b_, d_, fd = d_, c_, fc
                c_ = b_ - gold * (b_ - a_)
                fc = fun(c_)
            else:
                a_, c_, fc = c_, d_, fd
                d_ = a_ + gold * (b_ - a_)
                fd = fun(d_)
            evals += 1
        return (c_, fc) if fc > fd else (d_, fd)

    best = None
    for start in range(n_starts):
        if start == 0:
            th = np.full(n_segments, params.theta0)
            uu = np.full(n_segments, 2.0 * u_ref)
            T = T_ref
        else:
            th = rng.uniform(params.theta0, math.pi / 2 - 0.1, n_segments)
            uu = rng.uniform(0.0, 4.0 * u_ref, n_segments)
            T = rng.uniform(0.5 * T_ref, 2.0 * T_ref)
        current = oracle_payoff(th, uu, T, profile, params, j_grid)
        for _ in range(40):
            before = current
            for i in range(n_segments):
                def f_u(v, i=i):
                    trial = uu.copy()
                    trial[i] = v
                    return oracle_payoff(th, trial, T, profile, params, j_grid)
                v, fv = golden_max(f_u, 0.0, 12.0 * u_ref)
                if fv > current:
                    uu[i], current = v, fv

                def f_th(v, i=i):
                    trial = th.copy()
                    trial[i] = v
                    return oracle_payoff(trial, uu, T, profile, params, j_grid)
                v, fv = golden_max(f_th, params.theta0, math.pi / 2 - 1e-6)
                if fv > current:
                    th[i], current = v, fv

            def f_T(v):
                return oracle_payoff(th, uu, v, profile, params, j_grid)
            v, fv = golden_max(f_T, 0.2 * T_ref, 3.0 * T_ref)
            if fv > current:
                T, current = v, fv
            if evals > 300_000 or current - before < 1e-12 * (1.0 + abs(current)):
                break
        if best is None or current > best.payoff:
            best = Oracle2Result(float(current), th.copy(), uu.copy(), float(T), evals)
    return best
