"""Kernels that more than one solver layer shares: the leaf-capture law, the
running sum and the cumulative trapezoid along an array's last axis, a sorted
unique, and `FLOATS`.
The module imports only numpy, `math` and `types`, so a layer that needs only
these kernels does not execute the fixed-length stem model or the numerics."""

from __future__ import annotations

import math
from types import SimpleNamespace
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .params import ModelParams


# the numpy names the light and costate kernels use, on one float of the
# adaptive shot, each giving Python floats; `where` takes both values
FLOATS = SimpleNamespace(maximum=max, minimum=min, abs=abs, log=math.log, exp=math.exp,
                         take=lambda a, i, axis=-1: a[..., i].tolist(),
                         where=lambda cond, a, b: a if cond else b)


def capture_transverse(theta, params: ModelParams):
    """Saturated capture per unit transverse width, G(theta).

    Equals (1 - exp(-kappa/cos(theta-theta0))) * cos(theta-theta0); the
    absolute value of the cosine is used so the expression stays physical
    (bounded by the projection width) for angles outside the reduced range.
    """
    th = np.asarray(theta, dtype=float)
    c = np.abs(np.cos(th - params.theta0))
    with np.errstate(divide="ignore", over="ignore"):
        val = np.where(c > 0.0, -np.expm1(-params.kappa / np.maximum(c, 1e-300)) * c, 0.0)
    return float(val) if np.isscalar(theta) or val.ndim == 0 else val


def _G_parts(th, t0, k):
    c = np.cos(th - t0)
    s = np.sin(th - t0)
    e = np.exp(-k / c)
    G = -np.expm1(-k / c) * c
    Gp = s * (k * e / c - (1.0 - e))
    W = k * e / c - 1.0 + e
    Gpp = c * W - k * k * s * s * e / c ** 3
    return G, Gp, Gpp


def running_sum(area: np.ndarray) -> np.ndarray:
    """Partial sums of `area` along its last axis, after a leading 0."""
    out = np.zeros(area.shape[:-1] + (area.shape[-1] + 1,))
    np.cumsum(area, axis=-1, out=out[..., 1:])
    return out


def trapezoid_cumulative(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Cumulative trapezoid of samples y(x) along y's last axis, which
    matches the nodes x; result[..., 0] = 0."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    area = y[..., 1:] + y[..., :-1]   # 0.5 * (y[1:] + y[:-1]) * diff(x), in place
    area *= 0.5 * np.diff(x)   # exact halving: the same bits as two products
    return running_sum(area)


def sorted_unique(a) -> np.ndarray:
    """The distinct values of `a`, ascending: a sorted flat copy with each
    repeat of its predecessor dropped.  The same bits as np.unique(a) on
    finite values, without np.unique's import of numpy.ma."""
    out = np.sort(a, axis=None)
    keep = np.empty(out.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]
