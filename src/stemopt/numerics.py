"""Shared numerical kernels: bracketed root finding, ODE integration, quadrature.

All routines are pure functions of their inputs and hold no module state, so
they are safe to call concurrently.  Singular layers are never handled here;
callers are expected to integrate in a variable in which the solution is
regular and to declare singular quadrature endpoints explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    MaxIterationsError,
    NoBracketError,
    NonFiniteError,
    NoSignChangeError,
    StepUnderflowError,
)

_EPS = np.finfo(float).eps

_MAX_STEPS = 200_000
_BRENT_MAX_ITER = 200
_QUAD_MAX_LEVELS = 400   # panels of a graded wing
_BLOCK = 2048        # elements per block of `map_blocks`


# ---------------------------------------------------------------------------
# Root finding
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Bracket:
    """A sign-change interval [lo, hi] with cached endpoint values."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"bracket requires lo < hi, got [{self.lo}, {self.hi}]")
        if self.f_lo * self.f_hi > 0.0:
            raise NoSignChangeError(
                f"f({self.lo})={self.f_lo} and f({self.hi})={self.f_hi} have the same sign"
            )


def bracket(f: Callable[[float], float], lo: float, hi: float) -> Bracket:
    """Evaluate f at both endpoints and build a validated Bracket."""
    return Bracket(lo, hi, f(lo), f(hi))


def find_root(
    f: Callable[[float], float],
    brk: Bracket,
    tol: float,
) -> float:
    """Brent's method on a validated bracket.

    Returns x inside [brk.lo, brk.hi] with |f(x)| <= tol or enclosing-interval
    width <= tol.  Combines bisection with secant/inverse-quadratic steps, so
    it is robust for the monotone but expensive residuals used by the solvers.
    """
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    a, b = brk.lo, brk.hi
    fa, fb = brk.f_lo, brk.f_hi
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b

    c, fc = a, fa
    d = e = b - a
    for _ in range(_BRENT_MAX_ITER):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * tol
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0 or abs(fb) <= tol:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < min(3.0 * xm * q - abs(tol1 * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa = b, fb
        if abs(d) > tol1:
            b += d
        else:
            b += math.copysign(tol1, xm)
        fb = f(b)
    raise MaxIterationsError(f"Brent did not converge in {_BRENT_MAX_ITER} iterations")


def sign_change_brackets(xs, fs) -> list[Bracket]:
    """Every sign-change bracket [xs[i], xs[i+1]] of a sampled function.

    A sample that is exactly zero opens a bracket of its own, which Brent
    returns at once; a zero at the last sample opens the interval before it.
    """
    last = len(xs) - 2
    return [Bracket(float(xs[i]), float(xs[i + 1]), float(fs[i]), float(fs[i + 1]))
            for i in range(len(xs) - 1)
            if fs[i] == 0.0 or fs[i] * fs[i + 1] < 0.0
            or (i == last and fs[i + 1] == 0.0)]


def find_roots(refine: Callable[[float], float], tol: float, stages) -> list[float]:
    """Every root bracketed by the first stage of a scan that changes sign.

    `stages` is a lazy iterable of stages, each a list of sampled pieces
    (xs, fs), bracketed piece by piece so that no bracket spans a jump; later
    stages are not evaluated.  Brent refines each bracket on `refine` at
    `tol`.  Returns the roots in ascending order, or raises NoBracketError
    with the last stage's range, sample count and sampled values.
    """
    for stage in stages:
        brackets = [brk for xs, fs in stage for brk in sign_change_brackets(xs, fs)]
        if brackets:
            return sorted(find_root(refine, brk, tol=tol) for brk in brackets)
        xs, fs = (np.concatenate(part) for part in zip(*stage))
    raise NoBracketError(
        f"residual has no sign change on [{xs[0]:.6g}, {xs[-1]:.6g}] "
        f"({len(xs)} samples): f(lo)={fs[0]:.3e}, f(hi)={fs[-1]:.3e}, "
        f"min {np.min(fs):.3e}, max {np.max(fs):.3e}")


# ---------------------------------------------------------------------------
# ODE integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OdeProblem:
    """First-order ODE system y' = rhs(t, y) with a deterministic right side."""

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]


@dataclass
class Trajectory:
    """Dense sampled solution with node derivatives for Hermite interpolation."""

    t: np.ndarray
    y: np.ndarray   # shape (n, dim)
    dy: np.ndarray  # shape (n, dim), rhs evaluated at nodes

    def sample(self, ts) -> np.ndarray:
        """Cubic-Hermite interpolation at query points (vectorized).

        Accuracy is consistent with a 4th-order integrator between nodes.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        t, y, dy = self.t, self.y, self.dy
        flip = t[0] > t[-1]
        if flip:
            t, y, dy = t[::-1], y[::-1], dy[::-1]
        idx = np.clip(np.searchsorted(t, ts, side="right") - 1, 0, len(t) - 2)
        t0, t1 = t[idx], t[idx + 1]
        h = t1 - t0
        s = np.where(h > 0, (ts - t0) / np.where(h == 0, 1.0, h), 0.0)
        s = np.clip(s, 0.0, 1.0)[:, None]
        h = h[:, None]
        y0, y1 = y[idx], y[idx + 1]
        d0, d1 = dy[idx], dy[idx + 1]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        out = h00 * y0 + h10 * h * d0 + h01 * y1 + h11 * h * d1
        # h00 + h01 == 1 holds only to rounding; keep constant components exact
        const = np.all(y == y[0], axis=0) & np.all(dy == 0.0, axis=0)
        out[:, const] = y[0, const]
        return out


# Dormand-Prince 5(4) tableau
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _integrate_dp45(problem, a, b, y0, rtol, atol):
    f = problem.rhs
    span = b - a
    direction = 1.0 if span > 0 else -1.0
    t = a
    y = np.asarray(y0, dtype=float).copy()
    k0 = np.asarray(f(t, y))
    scale = atol + rtol * np.abs(y)
    d0 = np.sqrt(np.mean((y / scale) ** 2)) if y.size else 0.0
    d1 = np.sqrt(np.mean((k0 / scale) ** 2))
    h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else 1e-6 * abs(span)
    h = min(h, 0.1 * abs(span)) * direction

    ts, ys, dys = [t], [y.copy()], [k0.copy()]
    floor = 16.0 * _EPS * max(abs(a), abs(b))
    ks = np.empty((7, problem.dimension))
    for _ in range(_MAX_STEPS):
        if direction * (t + h) > direction * b:
            h = b - t
        if abs(h) < floor:
            raise StepUnderflowError(
                f"step {h:.3e} below floor {floor:.3e} at t={t!r}"
            )
        ks[0] = k0
        failed = False
        for i in range(1, 7):
            yi = y + h * (ks[:i].T @ _DP_A[i])
            ki = np.asarray(f(t + _DP_C[i] * h, yi))
            if not np.all(np.isfinite(ki)):
                failed = True
                break
            ks[i] = ki
        if not failed:
            y5 = y + h * (ks.T @ _DP_B5)
            y4 = y + h * (ks.T @ _DP_B4)
            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y5))
            err = np.sqrt(np.mean(((y5 - y4) / scale) ** 2))
        if failed or not np.isfinite(err):
            h *= 0.25
            continue
        if err <= 1.0:
            t = t + h
            y = y5
            k0 = ks[6].copy()  # FSAL
            ts.append(t)
            ys.append(y.copy())
            dys.append(k0.copy())
            if t == b or direction * (b - t) <= floor:
                return Trajectory(np.array(ts), np.array(ys), np.array(dys))
            factor = 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
            h *= factor
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    raise MaxIterationsError(f"adaptive integrator exceeded {_MAX_STEPS} steps")


def integrate(
    problem: OdeProblem,
    span: tuple[float, float],
    initial: Sequence[float],
    *,
    rtol: float,
    atol: float,
) -> Trajectory:
    """Integrate an ODE system over span=(a, b), a != b.

    Embedded Dormand-Prince 5(4) pair with per-step error control at
    (rtol, atol).
    """
    a, b = float(span[0]), float(span[1])
    if a == b:
        raise ValueError("span endpoints must differ")
    y0 = np.asarray(initial, dtype=float)
    if y0.shape != (problem.dimension,):
        raise ValueError(f"initial state must have shape ({problem.dimension},)")
    if not np.all(np.isfinite(y0)):
        raise ValueError("initial state must be finite")
    return _integrate_dp45(problem, a, b, y0, rtol, atol)


def rk4_mesh(slope, mesh: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Classical fixed-step RK4 over the nodes of `mesh`; returns the state
    at mesh[-1].  `slope(t, y)` may act on a batch of stacked states."""
    y = y0
    for k in range(len(mesh) - 1):
        s0, s1 = mesh[k], mesh[k + 1]
        dt = s1 - s0
        k1 = slope(s0, y)
        k2 = slope(s0 + dt / 2, y + dt / 2 * k1)
        k3 = slope(s0 + dt / 2, y + dt / 2 * k2)
        k4 = slope(s1, y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------

def _simpson_weights(n: int) -> np.ndarray:
    """Unscaled composite Simpson weights 1, 4, 2, ..., 2, 4, 1 on n cells."""
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w


def _simpson_adaptive(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    if not (math.isfinite(flm) and math.isfinite(frm)):
        raise NonFiniteError(f"integrand non-finite near [{a}, {b}]")
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    if depth <= 0 or abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0
    return _simpson_adaptive(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1) + \
        _simpson_adaptive(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1)


def _quad_panel(f, a, b, tol, depth=48):
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    if not (math.isfinite(fa) and math.isfinite(fm) and math.isfinite(fb)):
        raise NonFiniteError(f"integrand non-finite on [{a}, {b}]")
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_adaptive(f, a, b, fa, fm, fb, whole, tol, depth)


def _graded_wing(f, end, inner, tol):
    """Integral over the interval between `inner` and `end` (ascending sense),
    with panel widths halving geometrically toward the singular `end`.

    Consecutive panel integrals of a power/log singularity form a (nearly)
    geometric sequence, so the unresolved tail is closed by geometric
    extrapolation; that keeps power endpoints accurate even when the mesh
    reaches the floating-point resolution floor at `end`.
    """
    total = 0.0
    edge = inner
    prev_panel = None
    ratio = None
    floor = 64.0 * _EPS * max(1.0, abs(end))
    for level in range(_QUAD_MAX_LEVELS):
        nxt = end + 0.5 * (edge - end)
        if abs(nxt - end) <= floor or nxt == edge:
            break
        panel = _quad_panel(f, min(nxt, edge), max(nxt, edge),
                            tol / (4.0 * (level + 1) ** 2))
        total += panel
        if prev_panel is not None and abs(prev_panel) > 0.0:
            ratio = abs(panel) / abs(prev_panel)
            if ratio < 0.97:
                tail = panel * ratio / (1.0 - ratio)
                if abs(tail) <= 0.25 * tol * (1.0 + abs(total)):
                    return total + tail
        prev_panel = panel
        edge = nxt
    else:
        raise MaxIterationsError("graded mesh did not resolve the singular tail")
    # resolution floor reached: close with the last geometric estimate
    if prev_panel is not None and ratio is not None and ratio < 0.97:
        total += prev_panel * ratio / (1.0 - ratio)
    return total


def quad(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float,
    singular_at: Sequence[float] = (),
) -> float:
    """Adaptive-Simpson quadrature (a <= b) with graded meshes at declared endpoints.

    `singular_at` lists endpoint coordinates (a and/or b) where the integrand
    has an integrable power/log singularity.  Panels shrink geometrically
    toward those endpoints so the integrand is only ever evaluated at interior
    points; the innermost tail is closed with a midpoint estimate once it
    drops below the tolerance floor.
    """
    if a == b:
        return 0.0
    sing_a = any(abs(s - a) <= 1e-14 * max(1.0, abs(a)) for s in singular_at)
    sing_b = any(abs(s - b) <= 1e-14 * max(1.0, abs(b)) for s in singular_at)
    width = b - a

    if not sing_a and not sing_b:
        return _quad_panel(f, a, b, tol)

    # Carve the interval into a smooth core plus graded wings.
    lo = a + (0.25 * width if sing_a else 0.0)
    hi = b - (0.25 * width if sing_b else 0.0)
    total = _quad_panel(f, lo, hi, tol / 4.0)
    if sing_a:
        total += _graded_wing(f, a, lo, tol)
    if sing_b:
        total += _graded_wing(f, b, hi, tol)
    return total


def map_blocks(fn, x) -> np.ndarray:
    """fn(x) for an elementwise fn of a 1-D array, evaluated in blocks of
    `_BLOCK` elements into one array, so that fn's temporaries do not grow
    with len(x).  Gives the same bits as fn(x)."""
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    for i in range(0, len(x), _BLOCK):
        out[i:i + _BLOCK] = fn(x[i:i + _BLOCK])
    return out

