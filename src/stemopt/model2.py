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
coupled equilibrium system, where the light is the stems' own shade
(`profile=None`).  That shade is a first integral of the tail mass,
I = exp(-d0 z) with d0 = rho0 / cos theta0, so both shots carry the three
states (p, q, z) and read the light from one hook, `_light`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from typing import Callable

import numpy as np

from .errors import DegenerateDenominatorError, DomainError, add_note
from .kernels import FLOATS, sorted_unique, trapezoid_cumulative
from .lightfield import LightProfile
from .numerics import OdeProblem, find_roots, integrate, map_blocks, quad, rk4_mesh
from .params import ModelParams, Op2Config

_Q_FLOOR = -0.9         # reduced system extended to slightly negative mass costate
_W_CAP = 1e12
_SCAN_RTOL = 1e-7       # warm-bracket end points only locate a sign change
_I_FLOOR = 1e-12        # floor of the stems' own shade
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


def _one_minus_r(r, xp):
    """Stable 1 - r + r ln r, extended by ln|r| for the negative-r guard,
    in the arithmetic of `xp` (numpy for arrays, `FLOATS` for a float)."""
    e = 1.0 - r
    series = e * e / 2 + e ** 3 / 6 + e ** 4 / 12 + e ** 5 / 20 + e ** 6 / 30
    return xp.where(xp.abs(e) < 1e-3, series,
                    e + r * xp.log(xp.maximum(xp.abs(r), 1e-300)))


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
    D = I_arr * _one_minus_r(r, np)
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
    D = I_arr * _one_minus_r(q_arr / I_arr, np)
    t0 = params.theta0
    inner = (D * math.cos(t0)) ** 2 + (p_arr + D * math.sin(t0)) ** 2
    val = params.c ** (-1.0 / params.alpha) * inner ** (1.0 / (2.0 * params.alpha))
    scalar = all(np.isscalar(v) or np.asarray(v).ndim == 0 for v in (I, p, q))
    return float(val) if scalar else val


def _rhs_terms(I, p, q, params: ModelParams, xp):
    """f1, f2 and the tail-mass slope, with the negative-q guard applied and
    D floored at 1e-300, in the arithmetic of `xp`."""
    a, c, t0 = params.alpha, params.c, params.theta0
    sa = math.sin(t0)
    r = xp.maximum(q / I, _Q_FLOOR)
    D = xp.maximum(I * _one_minus_r(r, xp), 1e-300)
    w = xp.minimum(xp.maximum(p, 0.0) / D, _W_CAP)
    S = math.cos(t0) ** 2 + (w + sa) ** 2
    f1 = (1.0 - r) * (1.0 + w * sa) / (w + sa)
    f2 = a * c ** (1.0 / a) / (w + sa) * S ** (1.0 - 1.0 / (2.0 * a)) \
        * D ** (1.0 - 1.0 / a)
    z_slope = xp.log(xp.maximum(xp.abs(r), 1e-300)) * (1.0 + w * sa) / (sa + w)
    return f1, f2, z_slope


def _light(y, z, profile: LightProfile | None, params: ModelParams, xp):
    """Light I and its partial slopes (dI/dy, dI/dz) at height y and tail
    mass z, in the arithmetic of `xp`.  A profile answers from the height
    through its one kernel, `eval_and_slope`.  `profile=None`, the shade the
    stems cast on themselves at density `params.rho0`, answers from the tail
    mass: I = exp(-d0 z) with d0 = rho0 / cos theta0, floored at `_I_FLOOR`."""
    if profile is None:
        d0 = params.rho0 / math.cos(params.theta0)
        I = xp.maximum(xp.exp(-d0 * z), _I_FLOOR)
        return I, 0.0, -d0 * I
    return (*profile.eval_and_slope(y, xp), 0.0)


def _costate_rhs(y, S, profile: LightProfile | None, params: ModelParams, xp):
    """Height-parameterized slopes (p', q', z') of the state S = (p, q, z)
    at height y, as a tuple: of one state of floats with `xp` = `FLOATS`, or
    with `xp` = numpy of a batch of states stored component by component,
    one row of S each, at their heights in y.  The light along the stem
    changes at the rate dI/dy + dI/dz z'.
    """
    p, q, z = S
    I, I_y, I_z = _light(y, z, profile, params, xp)
    f1, f2, zs = _rhs_terms(I, p, q, params, xp)
    return -(I_y + I_z * zs) * f1, f2, zs


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
    """Exact state (p, q, z) = (0, I_h, 0) at the tip sigma = 0 of each
    height in `hs`, one row each, and its sigma-slope (0, -I_h K h^beta, 0),
    the limit of the right side there."""
    hs = np.atleast_1d(hs)
    zero = np.zeros_like(hs)
    I_h = _light(hs, zero, profile, params, np)[0]
    if np.any(I_h <= 0.0):
        raise DomainError("tip light must be positive")
    dq = -I_h * layer_constant(params, I_h) * hs ** _stretch(params)
    return np.stack([zero, I_h, zero], axis=1), np.stack([zero, dq, zero], axis=1)


# ---------------------------------------------------------------------------
# Shooting
# ---------------------------------------------------------------------------

@dataclass
class StemState2:
    """Optimality-system trajectory sampled over height, plus summary scalars.
    `read` rebuilds the columns at any heights from the stem's own DP45
    shot; the sampled columns are its reading on the output mesh `y`."""

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
    read: Callable[..., dict]
    h_candidates: list[float] = field(default_factory=list)

    def interp(self, name: str, yq):
        """A column at heights yq, read through the stem's shot."""
        return self.read(np.asarray(yq, dtype=float))[name]


def _sigma_problem(h, profile, params):
    """Tip state and right side in sigma of the shot from the tip (sigma = 0)
    to the ground (sigma = 1): of one state of floats for a float tip height
    h, or of a batch, one row per component, for an array of tip heights."""
    beta = _stretch(params)
    xp = np if np.ndim(h) else FLOATS
    state0, tip_slope = (v.T if xp is np else v[0].tolist() for v in _tip(h, profile, params))

    def rhs(sig, s):   # a closure here, so that perfbench names it model2.rhs
        if sig == 0.0:
            return tip_slope
        y, dy = _unstretch(sig, h, beta)
        return [dy * v for v in _costate_rhs(y, s, profile, params, xp)]

    return state0, rhs


def _shoot_once(h, profile, params, cfg: Op2Config, rtol):
    """DP45 shot in sigma from the tip (sigma = 0) to the ground (sigma = 1);
    an error raised in it gets a note that names the tip height."""
    try:
        state0, rhs = _sigma_problem(h, profile, params)
        problem = OdeProblem(len(state0), rhs)
        return integrate(problem, (0.0, 1.0), state0, rtol=rtol, atol=cfg.atol)
    except Exception as exc:
        add_note(exc, f"in the shot at tip height h={h!r}, rtol {rtol:g}")
        raise


def shoot_residual(h, profile, params, cfg: Op2Config, rtol) -> float:
    """Ground value of the mass costate for tip height h (signed)."""
    return float(_shoot_once(h, profile, params, cfg, rtol=rtol).y[-1, 1])


def residual_batch(hs, profile: LightProfile | None, params: ModelParams) -> np.ndarray:
    """Ground residual q(0, h) for many tip heights in one vectorized sweep.

    Fixed-step RK4 in sigma on `_SCAN_SIGMA`; accuracy is ample for locating
    sign changes, which Brent then refines with the adaptive integrator.
    With `profile=None` the light is the stems' own shade (the coupled
    equilibrium system).
    """
    Y, rhs = _sigma_problem(np.asarray(hs, dtype=float), profile, params)
    return rk4_mesh(rhs, _SCAN_SIGMA, Y)[1].copy()


@lru_cache(maxsize=16)   # depends on alpha alone; a solve reads it more than once
def _full_light_integral(a: float) -> float:
    return quad(lambda s: _one_minus_r(s, FLOATS) ** ((1.0 - a) / a), 0.0, 1.0, 1e-12)


def estimate_h0(params: ModelParams) -> float:
    """Tip height of the full-light closed form, used to size scan ranges."""
    a, c, t0 = params.alpha, params.c, params.theta0
    return math.sin(t0) / (a * c ** (1.0 / a)) * _full_light_integral(a)


def shoot_op2(profile: LightProfile | None, params: ModelParams,
              config: Op2Config | None = None) -> StemState2:
    """Solve the free-height stem problem under the given light profile.

    `profile=None` solves the coupled equilibrium system instead: the light
    is the shade the stems cast on themselves at density `params.rho0`,
    exp(-d0 z) of the integrated tail mass z, with d0 = rho0 / cos theta0.
    A profile with jumps raises DomainError: the shot reads only the light's
    slope, which is zero on both sides of a jump.

    The stages of `numerics.find_roots` are the warm bracket `cfg.h_bracket`,
    evaluated at the scan tolerance, then the batched RK4 scan on
    [1e-3, 3] times the full-light height.  Brent refines every bracket with
    DP45 shots at `cfg.rtol` and stops once the residual or the bracket is
    within `cfg.rtol`, the accuracy those shots deliver.  Each root's stem is
    reconstructed from the shot Brent took there; `h_candidates` holds every
    root and the stem of the best-payoff one (the first one on ties) is
    returned.
    """
    cfg = config or Op2Config()
    if profile and profile.discontinuities:
        raise DomainError("the free-length shot cannot follow the light's jumps at "
                          f"y = {list(profile.discontinuities)}; use a mollified step")

    def stages():
        if cfg.h_bracket is not None:
            lo, hi = cfg.h_bracket
            yield [([lo, hi], [shoot_residual(h, profile, params, cfg, _SCAN_RTOL)
                               for h in (lo, hi)])]
        h0 = estimate_h0(params)
        hs = np.linspace(max(1e-3 * h0, 1e-9), 3.0 * h0, cfg.scan_samples)
        yield [(hs, residual_batch(hs, profile, params))]

    @cache   # each tip height is shot once per call: a root's stem is Brent's shot
    def shot(h):
        return _shoot_once(h, profile, params, cfg, cfg.rtol)

    roots = find_roots(lambda h: float(shot(h).y[-1, 1]), cfg.rtol, stages())
    best = max((_finalize(h, shot(h), profile, params, cfg) for h in roots),
               key=lambda s: s.payoff)
    best.h_candidates = roots
    return best


def _finalize(h, traj, profile, params, cfg: Op2Config) -> StemState2:
    """The stem of tip height h, with controls, curve and diagnostics read
    from `traj`, the DP45 shot at that height, by `read`, which the stem
    keeps.  Its samples are the integrator nodes, n_out + 1 uniform heights,
    and 321 uniform sigma, which grade them toward the tip where the costate
    curvature blows up; distinct small sigma that map to the same height in
    floating point keep only the smallest.  They are read, with the
    Hamiltonian's drift, in blocks (`numerics.map_blocks`)."""
    beta = _stretch(params)
    t0 = params.theta0

    def columns(y, sigma):
        """Columns p, q, z, I, theta, u and w at heights y, from the shot's
        Hermite dense output at their stretched heights sigma; q is floored at
        1e-15 I in the feedback, so u stays finite at the ground, where q is
        residual."""
        p, q, z = traj.sample(sigma).T
        p, z = np.maximum(p, 0.0), np.maximum(z, 0.0)
        I = _light(y, z, profile, params, np)[0]
        return p, q, z, I, *feedback_TU(I, p, np.maximum(q, 1e-15 * I), params)

    def read(y):
        """The columns at heights y, by name."""
        sigma = (np.maximum(h - y, 0.0) / h) ** beta
        return dict(zip(("p", "q", "z", "I", "theta", "u", "w"), columns(y, sigma)))

    def rows(nodes):
        """p, q, z, I, theta, u and the Hamiltonian, along the integrated (not
        first-integral) tail mass, one row per node (y, sigma) of `nodes`."""
        p, q, z, I, theta, u, w = columns(*nodes.T)
        D = I * _one_minus_r(np.maximum(q, 1e-15 * I) / I, np)
        S = np.sqrt(math.cos(t0) ** 2 + (w + math.sin(t0)) ** 2)
        H = p * (math.sin(t0) + w) / S + D * (1.0 + w * math.sin(t0)) / S \
            - params.c * z ** params.alpha
        return np.stack([p, q, z, I, theta, u, H], axis=1)

    uniform = np.linspace(1.0, 0.0, cfg.n_out + 1) ** beta
    sigma = sorted_unique(np.concatenate([traj.t, uniform, np.linspace(0.0, 1.0, 321)]))
    y = _unstretch(sigma, h, beta)[0]
    keep = np.concatenate([[True], y[1:] < y[:-1]])
    y, sigma = y[keep][::-1], sigma[keep][::-1]
    p, q, z, I, theta, u, H = map_blocks(rows, np.stack([y, sigma], axis=1)).T

    sin_t = np.sin(theta)
    capture = I * G2(theta, u, params)
    cost_density = params.c * z ** params.alpha
    return StemState2(
        h=float(h), y=y, p=p, q=q, I=I, theta=theta, u=u, z=z,
        x=trapezoid_cumulative(y, np.cos(theta) / sin_t),
        T=float(np.trapezoid(1.0 / sin_t, y)),
        payoff=float(np.trapezoid((capture - cost_density) / sin_t, y)),
        transport_cost=float(np.trapezoid(cost_density / sin_t, y)),
        hamiltonian_max_abs=float(np.max(np.abs(H))),
        residual_q0=float(traj.y[-1, 1]),
        read=read,
    )
