"""Optimal stems with free length and variable leaf density.

The stationarity system gives closed-form controls (angle and leaf density)
in terms of the two costates and the light intensity, and a first integral
pins the remaining tail mass.  What is left is a two-point problem in height
for the costate pair: terminal values are known at the unknown tip height h,
and the mass costate must vanish at the ground.  Near the tip
1 - q/I ~ K (h - y)^beta with beta = alpha/(2 - alpha), so the right side
blows up there; the shot runs in the stretched height
sigma = ((h - y)/h)^beta, in which the solution is regular, from the exact
tip state at sigma = 0 to the ground at sigma = 1, and the tip height is
found by root-finding on the ground residual.  The same shot solves the
coupled equilibrium system, where the light is the stems' own shade,
integrated as a fourth state from full light at the tip (`profile=None`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDenominatorError, DomainError, SingularityError
from .kernels import sorted_unique, trapezoid_cumulative
from .lightfield import LightProfile
from .numerics import OdeProblem, find_roots, integrate, quad, rk4_mesh
from .params import ModelParams, Op2Config

_Q_FLOOR = -0.9         # reduced system extended to slightly negative mass costate
_W_CAP = 1e12
_SCAN_RTOL = 1e-7       # warm-bracket end points only locate a sign change
_I_FLOOR = 1e-12        # floor of the stems' own shade carried as a state
# batched-scan mesh in sigma, dense toward the ground (sigma = 1)
_SCAN_SIGMA = np.sqrt(np.linspace(0.0, 1.0, 448))


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


def _self_shade_slope(I, z_slope, params: ModelParams):
    """dI/dy of the light the stems cast on themselves at density rho0."""
    return -params.rho0 / math.cos(params.theta0) * I * z_slope


def _costate_rhs(y, s, profile: LightProfile | None, params: ModelParams):
    """Height-parameterized slopes (p', q', z') of the state s = (p, q, z).

    With `profile=None` the light is the stems' own shade at `params.rho0`,
    carried as a fourth state I and floored at `_I_FLOOR`; the slopes are
    then (p', q', z', I').
    """
    I = max(s[3], _I_FLOOR) if profile is None else profile.eval(y)
    f1, f2, zs = _rhs_terms(I, s[0], s[1], params)
    if profile is None:
        dI = _self_shade_slope(I, zs, params)
        return np.array([-dI * f1, f2, zs, dI])
    return np.array([-profile.derivative(y) * f1, f2, zs])


# ---------------------------------------------------------------------------
# Terminal layer
# ---------------------------------------------------------------------------

def layer_constant(params: ModelParams, I_h):
    """Leading coefficient K of 1 - q/I ~ K (h-y)^(alpha/(2-alpha)) near the tip,
    from the frozen-intensity local model, for tip light I_h (array or float)."""
    a, c, t0 = params.alpha, params.c, params.theta0
    base = (2.0 - a) * 2.0 ** ((1.0 - a) / a) * c ** (1.0 / a) \
        / (math.sin(t0) * I_h ** (1.0 / a))
    return base ** (a / (2.0 - a))


def _stretch(params: ModelParams) -> float:
    """Exponent beta of the stretched height sigma = ((h - y)/h)^beta."""
    return params.alpha / (2.0 - params.alpha)


def _unstretch(sig, h, beta):
    """Height y = h (1 - sigma^(1/beta)) of the stretched height sigma, and
    dy/dsigma = -(h/beta) sigma^(1/beta - 1), which is 0 at the tip."""
    return h * (1.0 - sig ** (1.0 / beta)), -h / beta * sig ** (1.0 / beta - 1.0)


def _tip(hs, profile: LightProfile | None, params: ModelParams):
    """Exact state (p, q, z[, I]) = (0, I_h, 0[, 1]) at the tip sigma = 0 of
    each height in `hs`, one row each, and its sigma-slope
    (0, -I_h K h^beta, 0[, 0]), the limit of the right side there.
    `profile=None` stands for the stems' own shade, which is 1 at the tip."""
    hs = np.atleast_1d(hs)
    zero = np.zeros_like(hs)
    I_h = np.ones_like(hs) if profile is None else np.atleast_1d(profile.eval(hs))
    if np.any(I_h <= 0.0):
        raise DomainError("tip light must be positive")
    dq = -I_h * layer_constant(params, I_h) * hs ** _stretch(params)
    state, slope = [zero, I_h, zero], [zero, dq, zero]
    if profile is None:
        state.append(I_h)
        slope.append(zero)
    return np.stack(state, axis=1), np.stack(slope, axis=1)


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

    def interp(self, name: str, yq):
        return np.interp(np.asarray(yq, dtype=float), self.y, getattr(self, name))


def _shoot_once(h, profile, params, cfg: Op2Config, rtol):
    """DP45 shot in sigma from the tip (sigma = 0) to the ground (sigma = 1)."""
    beta = _stretch(params)
    state0, tip_slope = (a[0] for a in _tip(h, profile, params))

    def rhs(sig, s):   # a closure here, so that perfbench names it model2.rhs
        if sig == 0.0:
            return tip_slope
        y, dy = _unstretch(sig, h, beta)
        return dy * _costate_rhs(y, s, profile, params)

    problem = OdeProblem(len(state0), rhs)
    return integrate(problem, (0.0, 1.0), state0, rtol=rtol, atol=cfg.atol)


def shoot_residual(h, profile, params, cfg: Op2Config, rtol) -> float:
    """Ground value of the mass costate for tip height h (signed)."""
    return float(_shoot_once(h, profile, params, cfg, rtol=rtol).y[-1, 1])


def residual_batch(hs, profile: LightProfile | None, params: ModelParams) -> np.ndarray:
    """Ground residual q(0, h) for many tip heights in one vectorized sweep.

    Fixed-step RK4 in sigma on `_SCAN_SIGMA`; accuracy is ample for locating
    sign changes, which Brent then refines with the adaptive integrator.
    With `profile=None` the light is the stems' own shade, carried as a
    fourth state column started at 1 and floored at `_I_FLOOR` (the coupled
    equilibrium system).
    """
    hs = np.asarray(hs, dtype=float)
    beta = _stretch(params)
    Y, tip_slope = _tip(hs, profile, params)

    def slope(sig, Y):
        if sig == 0.0:
            return tip_slope
        y, dy = _unstretch(sig, hs, beta)
        if profile is None:
            I = np.maximum(Y[:, 3], _I_FLOOR)
        else:
            I = np.atleast_1d(profile.eval(y))
        f1, f2, zs = _rhs_terms_vec(I, Y[:, 0], Y[:, 1], params)
        if profile is None:
            dI = _self_shade_slope(I, zs, params)
            cols = [-dI * f1, f2, zs, dI]
        else:
            cols = [-np.atleast_1d(profile.derivative(y)) * f1, f2, zs]
        return dy[:, None] * np.stack(cols, axis=1)

    return rk4_mesh(slope, _SCAN_SIGMA, Y)[:, 1].copy()


def estimate_h0(params: ModelParams) -> float:
    """Tip height of the full-light closed form, used to size scan ranges."""
    a, c, t0 = params.alpha, params.c, params.theta0
    val = quad(lambda s: _one_minus_r_scalar(s) ** ((1.0 - a) / a),
               0.0, 1.0, 1e-12)
    return math.sin(t0) / (a * c ** (1.0 / a)) * val


def shoot_op2(profile: LightProfile | None, params: ModelParams,
              config: Op2Config | None = None) -> StemState2:
    """Solve the free-height stem problem under the given light profile.

    `profile=None` solves the coupled equilibrium system instead: the light
    is the shade the stems cast on themselves at density `params.rho0`,
    integrated along with the costates from full light at the tip.

    The stages of `numerics.find_roots` are the warm bracket `cfg.h_bracket`,
    evaluated at the scan tolerance, then the batched RK4 scan on
    [1e-3, 3] times the full-light height.  Brent refines every bracket at
    `cfg.rtol`, and the trajectory of the best-payoff root (the first one on
    ties) is returned with reconstruction of controls, tail mass, curve and
    invariant diagnostics; `h_candidates` holds every root.
    """
    cfg = config or Op2Config()

    def stages():
        if cfg.h_bracket is not None:
            lo, hi = cfg.h_bracket
            yield [([lo, hi], [shoot_residual(h, profile, params, cfg, _SCAN_RTOL)
                               for h in (lo, hi)])]
        h0 = estimate_h0(params)
        hs = np.linspace(max(1e-3 * h0, 1e-9), 3.0 * h0, cfg.scan_samples)
        yield [(hs, residual_batch(hs, profile, params))]

    roots = find_roots(lambda h: shoot_residual(h, profile, params, cfg, cfg.rtol),
                       cfg.root_tol, stages())
    best = max((_finalize(h, profile, params, cfg) for h in roots),
               key=lambda s: s.payoff)
    best.h_candidates = roots
    return best


def output_mesh(nodes: np.ndarray, h: float, beta: float, n_out: int):
    """Ascending sample heights and their sigma: the integrator nodes,
    n_out + 1 uniform heights, and 321 uniform sigma, which grade the
    samples toward the tip where the costate curvature blows up (linear
    interpolation between plain uniform heights would lose five digits
    there).  Distinct small sigma that map to the same height in floating
    point keep only the smallest."""
    uniform = np.linspace(1.0, 0.0, n_out + 1) ** beta
    sigma = sorted_unique(np.concatenate([nodes, uniform, np.linspace(0.0, 1.0, 321)]))
    y = _unstretch(sigma, h, beta)[0]
    keep = np.concatenate([[True], y[1:] < y[:-1]])
    return y[keep][::-1], sigma[keep][::-1]


def assemble_state(h, y_all, p, q, z, I, params: ModelParams,
                   residual: float) -> StemState2:
    """Reconstruct controls, curve and diagnostics from sampled costates."""
    # the ground node carries the shooting residual; floor it so the
    # reconstructed leaf density stays a finite, plottable value there
    q_floor = np.maximum(q, 1e-15 * I)
    theta, u, w = feedback_TU(I, np.maximum(p, 0.0), q_floor, params)

    sin_t = np.sin(theta)
    T = float(np.trapezoid(1.0 / sin_t, y_all))
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
    )


def _finalize(h, profile, params, cfg: Op2Config) -> StemState2:
    traj = _shoot_once(h, profile, params, cfg, rtol=cfg.rtol)
    y_all, sigma = output_mesh(traj.t, h, _stretch(params), cfg.n_out)
    samp = traj.sample(sigma)
    I = (np.clip(samp[:, 3], _I_FLOOR, 1.0) if profile is None
         else np.atleast_1d(profile.eval(y_all)))
    return assemble_state(h, y_all, samp[:, 0], samp[:, 1], samp[:, 2], I,
                          params, float(traj.y[-1, 1]))
