"""Shared numerical kernels: bracketed root finding, ODE integration,
quadrature, and blocked evaluation of elementwise functions.

All routines are pure functions of their inputs and hold no module state, so
they are safe to call concurrently.  Singular layers are never handled here;
callers are expected to integrate in a variable in which the solution is
regular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Callable, Sequence

import numpy as np

from .errors import (
    MaxIterationsError,
    NoBracketError,
    NonFiniteError,
    NoSignChangeError,
    StepUnderflowError,
    add_note,
)

_EPS = 2.0 ** -52   # float64 machine epsilon

_MAX_STEPS = 200_000
_BRENT_MAX_ITER = 200
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
    `tol`; an error raised there gets a note that names the bracket and its
    end values.  Returns the roots in ascending order, or raises
    NoBracketError with the last stage's range, sample count and sampled
    values.
    """
    for stage in stages:
        brackets = [brk for xs, fs in stage for brk in sign_change_brackets(xs, fs)]
        roots = []
        for brk in brackets:
            try:
                roots.append(find_root(refine, brk, tol=tol))
            except Exception as exc:
                add_note(exc, f"while refining the bracket [{brk.lo!r}, {brk.hi!r}], "
                              f"f(lo)={brk.f_lo:.6e}, f(hi)={brk.f_hi:.6e}")
                raise
        if roots:
            return sorted(roots)
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
    """First-order ODE system y' = rhs(t, y); rhs takes the state as a list
    of floats and returns its slopes as a sequence of floats."""

    dimension: int
    rhs: Callable[[float, list], Sequence[float]]


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
        idx = np.clip(np.searchsorted(t, ts, side="right") - 1, 0, len(t) - 2)
        t0, t1 = t[idx], t[idx + 1]
        h = t1 - t0
        s = np.where(h > 0, (ts - t0) / np.where(h == 0, 1.0, h), 0.0)
        s, h = np.clip(s, 0.0, 1.0)[:, None], h[:, None]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        # each term gathers its node rows, so one (n, dim) gather is live at a time
        return h00 * y[idx] + h10 * h * dy[idx] + h01 * y[idx + 1] + h11 * h * dy[idx + 1]


# Dormand-Prince 5(4) tableau; the fifth-order weights are the last stage's
# row (FSAL), so that stage's slope starts the next step
_DP_C = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = _DP_A[-1] + (0.0,)
_DP_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40)


def _advance(y, h, weights, ks):
    """y + h * sum_m weights[m] * ks[m], component by component."""
    return [yj + h * sum(map(mul, weights, col)) for yj, col in zip(y, zip(*ks))]


def _rms(v) -> float:
    return math.sqrt(sum(e * e for e in v) / len(v))


def integrate(
    problem: OdeProblem,
    span: tuple[float, float],
    initial: Sequence[float],
    *,
    rtol: float,
    atol: float,
) -> Trajectory:
    """Integrate an ODE system over span=(a, b), which must increase: a < b.

    Embedded Dormand-Prince 5(4) pair with per-step error control at
    (rtol, atol), on Python floats: the state is a list, and `problem.rhs`
    returns each stage's slopes as a sequence of floats.  A stage that raises
    ArithmeticError or returns a non-finite slope rejects the step, which is
    retried at a quarter of its length; any other exception propagates.
    """
    a, b = float(span[0]), float(span[1])
    if not a < b:
        raise ValueError(f"span must increase, got ({a}, {b})")
    y = list(map(float, initial))
    if len(y) != problem.dimension:
        raise ValueError(f"initial state must have shape ({problem.dimension},)")
    if not all(map(math.isfinite, y)):
        raise ValueError("initial state must be finite")
    f, t = problem.rhs, a
    k0 = f(t, y)
    d0, d1 = (_rms([v / (atol + rtol * abs(yj)) for v, yj in zip(w, y)]) for w in (y, k0))
    h = 0.01 * d0 / d1 if (d0 > 1e-5 and d1 > 1e-5) else 1e-6 * (b - a)
    h = min(h, 0.1 * (b - a))

    ts, ys, dys = [t], [y], [k0]
    floor = 16.0 * _EPS * max(abs(a), abs(b))
    for _ in range(_MAX_STEPS):
        if t + h > b:
            h = b - t
        if h < floor:
            raise StepUnderflowError(f"step {h:.3e} below floor {floor:.3e} at t={t!r}")
        ks, err = [k0], math.nan
        try:
            for c, row in zip(_DP_C, _DP_A):
                ki = f(t + c * h, _advance(y, h, row, ks))
                if not all(map(math.isfinite, ki)):
                    break
                ks.append(ki)
            else:
                y5 = _advance(y, h, _DP_B5, ks)
                err = _rms([(u - v) / (atol + rtol * max(abs(yj), abs(u)))
                            for yj, u, v in zip(y, y5, _advance(y, h, _DP_B4, ks))])
        except ArithmeticError:
            pass
        if not math.isfinite(err):
            h *= 0.25
        elif err <= 1.0:
            t, y, k0 = t + h, y5, ks[-1]   # FSAL
            ts.append(t)
            ys.append(y)
            dys.append(k0)
            if t == b or b - t <= floor:
                return Trajectory(np.array(ts), np.array(ys), np.array(dys))
            h *= 5.0 if err == 0.0 else min(5.0, 0.9 * err ** -0.2)
        else:
            h *= max(0.2, 0.9 * err ** -0.2)
    raise MaxIterationsError(f"adaptive integrator exceeded {_MAX_STEPS} steps")


def rk4_mesh(slope, mesh: np.ndarray, y0: np.ndarray) -> np.ndarray:
    """Classical fixed-step RK4 over the nodes of `mesh`; returns the state
    at mesh[-1].  `slope(t, y)` may act on a batch of states, one row per
    component, and return a sequence of rows, which are stacked likewise."""
    y = y0
    for k in range(len(mesh) - 1):
        s0, s1 = mesh[k], mesh[k + 1]
        dt = s1 - s0
        k1 = np.asarray(slope(s0, y))
        k2 = np.asarray(slope(s0 + dt / 2, y + dt / 2 * k1))
        k3 = np.asarray(slope(s0 + dt / 2, y + dt / 2 * k2))
        k4 = np.asarray(slope(s1, y + dt * k3))
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


def quad(f: Callable[[float], float], a: float, b: float, tol: float) -> float:
    """Adaptive Simpson quadrature of f over [a, b], a <= b (Lyness 1969).

    f must be finite at both ends and inside: an integrand with an integrable
    singularity at an end is passed with its finite limit there.
    """
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fm, fb = f(a), f(m), f(b)
    if not (math.isfinite(fa) and math.isfinite(fm) and math.isfinite(fb)):
        raise NonFiniteError(f"integrand non-finite on [{a}, {b}]")
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _simpson_adaptive(f, a, b, fa, fm, fb, whole, tol, 48)


def map_blocks(fn, x) -> np.ndarray:
    """fn(x) for a fn that maps each element of x (each row of a 2-D x) to a
    value or to a row of values, evaluated in blocks of `_BLOCK` elements
    into one array, so that fn's temporaries do not grow with len(x).  Gives
    the same bits as fn(x)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(0)
    for i in range(0, len(x), _BLOCK):
        part = fn(x[i:i + _BLOCK])
        if i == 0:
            out = np.empty((len(x),) + np.shape(part)[1:])
        out[i:i + _BLOCK] = part
        del part   # freed before the next block is formed
    return out
