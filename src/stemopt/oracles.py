"""Validators that no solver and no CLI kind calls: brute-force oracles,
the payoffs they search, and the full-light closed forms.  No oracle, nor a
helper it calls, reaches a solver, a feedback law, the ODE integrator or a
root finder; besides the capture laws they share only `estimate_h0`."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceededError, DomainError
from .kernels import FLOATS, capture_transverse, sorted_unique, trapezoid_cumulative
from .lightfield import LightProfile
from .model1 import g_profile
from .model2 import G2, _one_minus_r, estimate_h0
from .numerics import Bracket, find_root, quad
from .params import ModelParams

_FOLD_SWEEPS = 64  # passes of each fold before the final clip
_CLOSED_FORM_TOL = 1e-12


# ---------------------------------------------------------------------------
# Fixed length: payoffs, range reduction, rearrangement and oracle
# ---------------------------------------------------------------------------

def payoff_op1(theta_s, profile: LightProfile, params: ModelParams,
               refine: int = 8192):
    """Sunlight captured by an arc-length parameterized control on [0, ell].

    `theta_s` holds node values on a uniform s-grid, interpreted as a
    piecewise-linear control with angles in ]0, pi].  Heights below ground
    (impossible here since sin(theta) >= 0) would clamp to the ground value.
    """
    vals = np.asarray(theta_s, dtype=float)
    n = max(refine, 4 * (len(vals) - 1))
    s = np.linspace(0.0, params.ell, n + 1)
    s_nodes = np.linspace(0.0, params.ell, len(vals))
    th = np.interp(s, s_nodes, vals)
    y = trapezoid_cumulative(s, np.sin(th))
    integrand = profile.eval(np.maximum(y, 0.0)) * capture_transverse(th, params)
    return float(np.trapezoid(integrand, s))


def payoff_piecewise_constant(theta_segments, profile: LightProfile,
                              params: ModelParams, j_grid):
    """Exact payoff of piecewise-constant controls on equal s-segments.

    Vectorized over a (n_combos, n_segments) matrix of angle values; each
    segment contributes G(theta)/sin(theta) * (J(y1) - J(y0)) with J the
    antiderivative of the light profile.
    """
    V = np.atleast_2d(np.asarray(theta_segments, dtype=float))
    n_seg = V.shape[1]
    ds = params.ell / n_seg
    yg, Jg = j_grid
    dy = np.sin(V) * ds
    # J at the column ends; the root's J is 0, so each gain is one difference
    J = np.interp(np.cumsum(dy, axis=1), yg, Jg)
    gain = np.diff(J, axis=1, prepend=0.0)
    seg = capture_transverse(V, params) / np.sin(V) * gain
    out = seg.sum(axis=1)
    return float(out[0]) if np.asarray(theta_segments).ndim == 1 else out


def profile_antiderivative(profile: LightProfile, y_max: float, n: int = (1 << 17) + 1):
    """Cumulative integral of the profile on n nodes, for segment-exact payoffs."""
    yg = np.linspace(0.0, y_max, n)
    return yg, trapezoid_cumulative(yg, profile.eval(yg))


def payoff_heights(theta_y, h: float, profile: LightProfile, params: ModelParams):
    """Height-parameterized payoff: integral of I(y) g(theta(y)) over [0, h].

    `theta_y` holds values at uniform y-nodes; midpoint rule per cell, which
    makes the discrete rearrangement inequality exact.
    """
    vals = np.asarray(theta_y, dtype=float)
    n = len(vals) - 1
    y_mid = (np.arange(n) + 0.5) * h / n
    th_mid = 0.5 * (vals[:-1] + vals[1:])
    return float(np.sum(profile.eval(y_mid) * g_profile(th_mid, params)) * h / n)


def fold_angles(theta_s, params: ModelParams):
    """Fold a control with values in ]-pi, pi] into [theta0, pi/2].

    One pass of the sign reflection, then the piecewise-affine fold iterated
    until the range settles.  Each elementary move never lowers the captured
    sunlight when the light profile is non-decreasing.
    """
    t0 = params.theta0
    th = np.asarray(theta_s, dtype=float).copy()
    if np.any(th <= -math.pi) or np.any(th > math.pi):
        raise ValueError("angles must lie in ]-pi, pi]")

    for _ in range(_FOLD_SWEEPS):
        neg = th <= t0 - math.pi / 2
        th[neg] = -th[neg]
        high = th > t0 + math.pi / 2
        th[high] = 2.0 * t0 + math.pi - th[high]
        low = (th > t0 - math.pi / 2) & (th <= 0.0)
        th[low] = 2.0 * t0 - th[low]
        if np.all((th > 0.0) & (th <= t0 + math.pi / 2)):
            break

    for _ in range(_FOLD_SWEEPS):
        if np.all((th >= t0) & (th <= math.pi / 2)):
            return th
        mid = (th > math.pi / 2) & (th <= t0 + math.pi / 2)
        th[mid] = math.pi - th[mid]
        low = (th >= 0.0) & (th < t0)
        th[low] = 2.0 * t0 - th[low]
    return np.clip(th, t0, math.pi / 2)


def rearrange_nonincreasing(theta_y):
    """Non-increasing rearrangement of a sampled height profile.

    Equimeasurable with the input on a uniform grid: simply the values sorted
    in descending order.  Preserves the stem length and never lowers the
    payoff under non-decreasing light.
    """
    vals = np.asarray(theta_y, dtype=float)
    return np.sort(vals)[::-1].copy()


@dataclass
class OracleResult:
    """Best piecewise-constant angle control found, with its payoff."""

    payoff: float
    theta: np.ndarray  # one angle per s-segment
    evaluations: int


def oracle_op1(profile: LightProfile, params: ModelParams,
               n_segments: int, n_angles: int) -> OracleResult:
    """Maximize the payoff over piecewise-constant angle controls.

    Exhaustive search over the full angle grid when the combination count
    fits the budget (small segment counts); otherwise coordinate descent
    with local grid refinement from two flat starts, theta0 and mid-range.
    """
    grid = np.linspace(params.theta0, math.pi / 2, n_angles)
    j_grid = profile_antiderivative(profile, params.ell)
    combos = n_angles ** n_segments

    if combos <= 2_000_000 and n_segments <= 6:
        mesh = np.meshgrid(*([grid] * n_segments), indexing="ij")
        V = np.stack([m.ravel() for m in mesh], axis=1)
        pays = payoff_piecewise_constant(V, profile, params, j_grid)
        best = int(np.argmax(pays))
        return OracleResult(float(pays[best]), V[best].copy(), combos)

    if n_segments > 64:
        raise BudgetExceededError(f"{n_segments} segments exceed the oracle limit")

    evals = 0
    best_pay = -math.inf
    best_v = None
    for start in (params.theta0, 0.5 * (params.theta0 + math.pi / 2)):
        v = np.full(n_segments, start)
        local = grid.copy()
        span = (math.pi / 2 - params.theta0) / (n_angles - 1)
        for sweep in range(60):
            improved = False
            for i in range(n_segments):
                trial = np.repeat(v[None, :], len(local), axis=0)
                trial[:, i] = local
                pays = payoff_piecewise_constant(trial, profile, params, j_grid)
                evals += len(local)
                j = int(np.argmax(pays))
                if pays[j] > payoff_piecewise_constant(v, profile, params, j_grid) + 1e-15:
                    v[i] = local[j]
                    improved = True
            if not improved:
                # refine the search grid around the current point
                span *= 0.35
                if span < 1e-7:
                    break
                local = np.clip(np.concatenate(
                    [v + d for d in np.linspace(-span, span, 9)]),
                    params.theta0, math.pi / 2)
                local = sorted_unique(local)
        pay = payoff_piecewise_constant(v, profile, params, j_grid)
        if pay > best_pay:
            best_pay, best_v = pay, v.copy()
    return OracleResult(float(best_pay), best_v, evals)


# ---------------------------------------------------------------------------
# Free length: full-light closed forms and direct-transcription oracle
# ---------------------------------------------------------------------------

def closed_form_q(y, h: float, params: ModelParams):
    """Full-light mass costate by inverting its implicit relation; oracle use.

    Heights at least the full-light height below the tip h get q = 0."""
    a, c, t0 = params.alpha, params.c, params.theta0
    scale = math.sin(t0) / (a * c ** (1.0 / a))

    def depth(qv):
        return scale * quad(lambda s: _one_minus_r(s, FLOATS) ** ((1.0 - a) / a),
                            qv, 1.0, _CLOSED_FORM_TOL)

    full = depth(0.0)   # the full-light height, where q reaches 0
    out = []
    for yy in np.atleast_1d(np.asarray(y, dtype=float)):
        target = h - yy
        f = lambda qv: depth(qv) - target
        if target >= full:   # at or below the full-light ground
            out.append(0.0)
            continue
        out.append(find_root(f, Bracket(0.0, 1.0, full - target, f(1.0)),
                             tol=_CLOSED_FORM_TOL))
    return np.array(out) if np.asarray(y).ndim else float(out[0])


def closed_form_payoff(params: ModelParams) -> float:
    """Full-light optimal payoff, reduced to a single quadrature in q.

    The integrand -q ln q (1 - q + q ln q)^((1 - alpha)/alpha) has the limit 0
    at q = 0 but an unbounded slope there, which Simpson's error estimate
    misjudges; it is integrated in s = sqrt(q), where the slope is bounded.
    """
    a, c = params.alpha, params.c

    def f(qv):
        return ((-qv * math.log(qv) if qv > 0.0 else 0.0)
                * _one_minus_r(qv, FLOATS) ** ((1.0 - a) / a))

    return quad(lambda s: 2.0 * s * f(s * s), 0.0, 1.0,
                _CLOSED_FORM_TOL) / (a * c ** (1.0 / a))


@dataclass
class Oracle2Result:
    """Best piecewise-constant (angle, leaf density) control and stem length found."""

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
    dt = T / len(th)
    yg, Jg = j_grid or profile_antiderivative(profile, T + 1.0, 1 << 16)
    dy = np.sin(th) * dt
    y_hi = np.cumsum(dy)
    y_lo = y_hi - dy
    cap = G2(th, uu, params) / np.sin(th) * (np.interp(y_hi, yg, Jg)
                                             - np.interp(y_lo, yg, Jg))
    tail = np.concatenate([np.cumsum((uu * dt)[::-1])[::-1], [0.0]])
    a = params.alpha
    z_hi, z_lo = tail[:-1], tail[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        cost = np.where(uu > 1e-14,
                        (z_hi ** (a + 1.0) - z_lo ** (a + 1.0)) / (uu * (a + 1.0)),
                        z_hi ** a * dt)
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

    j_grid = profile_antiderivative(profile, 3.0 * T_ref + 1.0, 1 << 16)

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
