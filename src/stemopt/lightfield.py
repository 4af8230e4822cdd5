"""Height-dependent light intensity profiles I(y).

A profile maps height y >= 0 to an intensity in [0, 1], is non-decreasing,
and equals 1 above the surrounding canopy.  Step profiles are the single
discontinuous kind; every other kind is absolutely continuous with an
almost-everywhere derivative.  The fixed-length solver splits its height scan
at a step's jump and the planar field samples it, but the free-length shot,
which reads only the slope, rejects it.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import numerics
from .errors import NotDifferentiableError
from .kernels import running_sum, sorted_unique, trapezoid_cumulative
from .params import ModelParams

_HOLDER_C, _HOLDER_BETA = 1.0, 0.5   # class-F slope bound C * y^(-beta)


@dataclass(frozen=True)
class LightProfile:
    """Immutable light-intensity profile.

    constant            I(y) = level (default 1)
    step                I = eps below y_jump, 1 above
    mollified-step      cubic smoothstep replacing the jump; `width` is the
                        inverse of the peak steepness: max I' = (1-eps)/width
    tabulated           piecewise-linear through strictly increasing knots,
                        flat extension at the last knot value
    exponential-canopy  I(y) = exp(-R(y)), R(y) = exact integral from y up
                        to the canopy height of a C1 shading rate, the
                        monotone cubic Hermite interpolant of the rate knots;
                        I' = rate * I is the slope of I

    Each kind's constructor validates its inputs and fixes its one kernel,
    light(y, xp) -> (I, I'), in the arithmetic of `xp`: numpy for arrays,
    `kernels.FLOATS` for one float.  No call dispatches on the kind.
    """

    kind: str
    _light: Callable[[object, object], tuple] = field(repr=False)
    top: float                   # height above which the profile is constant
    discontinuities: tuple[float, ...] = ()
    breakpoints: tuple | np.ndarray = ()   # knots the checks add to their grid

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(level: float = 1.0) -> "LightProfile":
        if not 0.0 <= level <= 1.0:
            raise ValueError("constant level must lie in [0, 1]")
        return LightProfile("constant", lambda y, xp: (
            level + 0.0 * xp.abs(y), 0.0 * xp.abs(y)), top=0.0)

    @staticmethod
    def step(eps: float, y_jump: float = 1.0) -> "LightProfile":
        _check_step(eps, y_jump)

        def light(y, xp):   # the slope is NaN at the jump
            return (xp.where(y <= y_jump, eps, 1.0),
                    xp.where(xp.abs(y - y_jump) < 1e-12, math.nan, 0.0))
        return LightProfile("step", light, top=y_jump, discontinuities=(y_jump,),
                            breakpoints=(y_jump,))

    @staticmethod
    def mollified_step(eps: float, y_jump: float = 1.0, width: float = 0.05) -> "LightProfile":
        _check_step(eps, y_jump)
        if width <= 0.0:
            raise ValueError("mollifier width must be positive")
        half = 0.75 * width
        start, span, rise = y_jump - half, 2.0 * half, 1.0 - eps

        def light(y, xp):
            t = (y - start) / span
            tt = xp.minimum(xp.maximum(t, 0.0), 1.0)
            return (eps + rise * tt * tt * (3.0 - 2.0 * tt),
                    xp.where((t > 0.0) & (t < 1.0),
                             rise * 6.0 * tt * (1.0 - tt) / span, 0.0))
        return LightProfile("mollified-step", light, top=y_jump + half,
                            breakpoints=(y_jump, start, y_jump + half))

    @staticmethod
    def tabulated(knots_y, knots_i) -> "LightProfile":
        ky, ki = np.asarray(knots_y, float), np.asarray(knots_i, float)
        if ky.ndim != 1 or ky.shape != ki.shape:
            raise ValueError(f"tabulated knots: {ky.size} heights, {ki.size} intensities")
        if len(ky) < 2:
            raise ValueError("tabulated profile needs at least two knots")
        if not (np.all(np.isfinite(ky)) and np.all(np.isfinite(ki))):
            raise ValueError("tabulated knots must be finite")
        if np.any(np.diff(ky) <= 0.0):
            raise ValueError("tabulated knots must have strictly increasing y")
        if np.any(np.diff(ki) < 0.0):
            raise ValueError("tabulated intensities must be non-decreasing")
        if ki.min() < 0.0 or ki.max() > 1.0:
            raise ValueError("intensities must lie in [0, 1]")
        # per cell, its left end, value and slope; flat outside the knots
        cells = np.stack([np.concatenate([ky[:1], ky]), np.concatenate([ki[:1], ki]),
                          np.concatenate([[0.0], np.diff(ki) / np.diff(ky), [0.0]])])

        def light(y, xp):   # ndarray.searchsorted takes a float as it takes an array
            y0, i0, slope = xp.take(cells, ky.searchsorted(y, "right"), -1)
            return i0 + slope * (y - y0), slope
        return LightProfile("tabulated", light, top=float(ky[-1]), breakpoints=ky)

    @staticmethod
    def exponential_canopy(rate_y, rate_v, height: float) -> "LightProfile":
        ry, rv = np.asarray(rate_y, float), np.asarray(rate_v, float)
        height = float(height)
        if len(ry) < 2 or np.any(np.diff(ry) <= 0.0):
            raise ValueError("rate knots must be two or more, with strictly increasing y")
        if np.any(rv < 0.0):
            raise ValueError("shading rate must be non-negative")
        if height <= 0.0:
            raise ValueError("canopy height must be positive")
        # each per-cell array is written into its row of `cells`, rows not yet
        # due serving as scratch: the one-shot build's operations, so its bits
        cells = np.empty((7, len(ry) - 1))
        y0, h, c, v, b1, b2, b3 = cells
        np.subtract(ry[1:], ry[:-1], out=h)
        dv = np.subtract(rv[1:], rv[:-1], out=c)
        s = np.divide(dv, h, out=y0)
        s0, s1 = s[:-1], s[1:]
        # Fritsch-Butland knot slopes (weighted harmonic means, 0 at an extremum,
        # one-sided at the ends) keep each cell's cubic between its end rates
        w0 = np.add(h[:-1], 2.0 * h[1:], out=b1[:-1])
        w1 = np.add(2.0 * h[:-1], h[1:], out=b2[:-1])
        slope = np.zeros(len(ry))
        slope[0], slope[-1] = s[0], s[-1]
        np.divide(np.multiply((w0 + w1) * s0, s1, out=b3[:-1]),
                  np.add(w0 * s1, w1 * s0, out=w0), out=slope[1:-1], where=s0 * s1 > 0.0)
        b1_end = np.multiply(h, slope[1:], out=s)
        np.multiply(h, slope[:-1], out=b1)
        del slope
        np.subtract(3.0 * dv - 2.0 * b1, b1_end, out=b2)
        np.subtract(b1 + b1_end, 2.0 * dv, out=b3)
        # per cell, t = (y - y_i) / h_i: rate rv_i + t (b1 + t (b2 + t b3)),
        # and its integral from y_i, a quartic, exact at the knots in `cum`
        cum = running_sum(np.multiply(h, rv[:-1] + (0.5 * b1 + (b2 / 3.0 + 0.25 * b3)),
                                      out=dv))
        y0[:], c[:], v[:] = ry[:-1], cum[:-1], rv[:-1]
        total, inner = float(cum[-1]), ry[1:-1]

        def light(y, xp):   # ndarray.searchsorted takes a float as it takes an array
            y0, dy, c, v, b1, b2, b3 = xp.take(cells, inner.searchsorted(y, "right"), -1)
            d = xp.minimum(xp.maximum(y - y0, 0.0), dy)
            t = d / dy
            R = c + d * (v + t * (0.5 * b1 + t * (b2 / 3.0 + 0.25 * t * b3)))
            I = xp.where(y >= height, 1.0, xp.exp(R - total))
            return I, xp.where(y < height, (v + t * (b1 + t * (b2 + t * b3))) * I, 0.0)
        return LightProfile("exponential-canopy", light, top=height, breakpoints=ry)

    @staticmethod
    def constant_rate_canopy(rate: float, height: float) -> "LightProfile":
        return LightProfile.exponential_canopy([0.0, height], [rate, rate], height)

    # -- evaluation ---------------------------------------------------------

    def eval(self, y):
        """Intensity at height(s) y >= 0; vectorized."""
        y_arr = np.asarray(y, dtype=float)
        out = self._light(np.atleast_1d(y_arr), np)[0]
        return float(out[0]) if y_arr.ndim == 0 else out

    def derivative(self, y):
        """Almost-everywhere derivative I'(y) >= 0; vectorized; raises at a jump."""
        y_arr = np.asarray(y, dtype=float)
        out = self._light(np.atleast_1d(y_arr), np)[1]
        if self.discontinuities and np.isnan(out).any():
            raise NotDifferentiableError(f"profile jumps at y={self.discontinuities}")
        return float(out[0]) if y_arr.ndim == 0 else out

    def eval_and_slope(self, y, xp):
        """(I, I') at y in the arithmetic of `xp` (numpy, or `kernels.FLOATS`
        for one float); the slope is NaN within 1e-12 of a jump."""
        return self._light(y, xp)


def _check_step(eps: float, y_jump: float):
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"step level must lie in ]0, 1], got {eps}")
    if y_jump <= 0.0:
        raise ValueError("y_jump must be positive")


@dataclass(frozen=True)
class RegularityReport:
    """Outcome of the canopy-regularity membership check."""

    delta: float                 # 1 - I(0)
    in_class: bool               # I'(y) <= C * y^(-beta) a.e.
    worst_margin: float          # min over grid of C*y^(-beta) - I'(y)
    worst_y: float


def load_tabulated_csv(path) -> LightProfile:
    """Read a tabulated profile from CSV with header ``y,I``."""
    ys, iv = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        if [h.strip() for h in header] != ["y", "I"]:
            raise ValueError(f"expected header 'y,I', got {header}")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"line {reader.line_num}: expected two fields y,I, got {row}")
            ys.append(float(row[0]))
            iv.append(float(row[1]))
    return LightProfile.tabulated(ys, iv)


def _check_grid(profile: LightProfile, y_max: float, n: int = 10_000) -> np.ndarray:
    grid = np.linspace(0.0, y_max, n)
    extra = np.asarray(profile.breakpoints, float)
    return sorted_unique(np.clip(np.concatenate([grid, extra]), 0.0, y_max))


def check_uniqueness_condition(
    profile: LightProfile,
    params: ModelParams,
    h_max: float,
) -> tuple[bool, float]:
    """Slope-vs-shade criterion guaranteeing a unique optimal height.

    Checks, for a.e. h in [0, h_max],

        I'(h) * int_0^h dy / I(y)  <  tan^2(t0) cos(pi/2 - t0)
                                       * (1 - (k+1) e^-k) / (1 - e^-k).

    Returns (holds, worst margin).  A jump inside ]0, h_max] fails outright.
    """
    t0, k = params.theta0, params.kappa
    rhs = math.tan(t0) ** 2 * math.cos(math.pi / 2 - t0) \
        * (1.0 - (k + 1.0) * math.exp(-k)) / (1.0 - math.exp(-k))
    if any(0.0 < d <= h_max for d in profile.discontinuities):
        return False, -math.inf
    ys = _check_grid(profile, h_max)
    inv_i = numerics.map_blocks(lambda y: 1.0 / np.maximum(profile.eval(y), 1e-300), ys)
    cum = trapezoid_cumulative(ys, inv_i)
    del inv_i
    lhs = numerics.map_blocks(profile.derivative, ys)
    lhs *= cum
    margin = float(np.min(np.subtract(rhs, lhs, out=lhs)))
    return margin > 0.0, margin


def check_class_F(
    profile: LightProfile,
    y_max: float | None = None,
) -> RegularityReport:
    """Membership in the regular canopy family: I(0) >= 1 - delta and
    I'(y) <= C * y^(-beta) a.e., checked on a dense grid plus all knots,
    with the constants C = 1, beta = 1/2 that the equilibrium theory fixes.
    """
    if y_max is None:
        y_max = max(profile.top, 1.0)
    delta = 1.0 - profile.eval(0.0)
    if profile.discontinuities:
        return RegularityReport(delta, False, -math.inf,
                                profile.discontinuities[0])
    ys = _check_grid(profile, y_max)
    ys = ys[ys > 0.0]
    margins = numerics.map_blocks(
        lambda y: _HOLDER_C * y ** (-_HOLDER_BETA) - profile.derivative(y), ys)
    i_worst = int(np.argmin(margins))
    return RegularityReport(
        delta=float(delta),
        in_class=bool(margins[i_worst] >= 0.0),
        worst_margin=float(margins[i_worst]),
        worst_y=float(ys[i_worst]),
    )
