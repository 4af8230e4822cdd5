"""Optimal stems of fixed length and constant leaf density.

The control is the tangent angle.  Necessary conditions reduce the problem to
an algebraic feedback: the angle at height y solves F(theta) = z with
z = (e^-kappa - 1) I(h) / I(y), where F is strictly decreasing on
[theta0, pi/2[.  The height h is then pinned by the arc-length constraint,
which may have several roots when the light profile rises steeply.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoCrossingError
from .kernels import _G_parts, capture_transverse, trapezoid_cumulative
from .lightfield import LightProfile
from .numerics import Bracket, _simpson_weights, bracket, find_root, find_roots
from .params import ModelParams

_THETA_CAP = 1e-9  # feedback angle never reaches pi/2; cap the search there
_TABLE_NODES = 1025  # nodes of the cached feedback table that seeds Newton
_MAX_NEWTON = 100  # safeguarded iterations; a table seed needs two or three


# ---------------------------------------------------------------------------
# Capture per unit height and the angle feedback
# ---------------------------------------------------------------------------

def g_profile(theta, params: ModelParams):
    """Capture per unit height, g(theta) = G(theta) / sin(theta)."""
    th = np.asarray(theta, dtype=float)
    val = capture_transverse(th, params) / np.sin(th)
    return float(val) if np.isscalar(theta) or val.ndim == 0 else val


def F_of(theta, params: ModelParams):
    """Feedback function F(theta) = G'(theta) tan(theta) - G(theta).

    Strictly decreasing from e^-kappa - 1 at theta0 to -infinity at pi/2.
    """
    th = np.asarray(theta, dtype=float)
    G, Gp, _ = _G_parts(th, params.theta0, params.kappa)
    val = Gp * np.tan(th) - G
    return float(val) if np.isscalar(theta) or val.ndim == 0 else val


def _F_and_deriv(th, t0, k):
    G, Gp, Gpp = _G_parts(th, t0, k)
    t = np.tan(th)
    return Gp * t - G, Gpp * t + Gp * t * t


@functools.lru_cache(maxsize=4)
def _feedback_table(t0: float, k: float):
    """Monotone table of F on [theta0, pi/2 - cap], nodes clustered toward
    pi/2 (geometric in pi/2 - theta), as (theta, -F) with -F increasing."""
    w = np.geomspace(math.pi / 2 - t0, _THETA_CAP, _TABLE_NODES)
    th = math.pi / 2 - w
    th[0], th[-1] = t0, math.pi / 2 - _THETA_CAP
    neg_f = np.maximum.accumulate(-_F_and_deriv(th, t0, k)[0])
    th.flags.writeable = neg_f.flags.writeable = False  # shared by every caller
    return th, neg_f


def phi_inverse(z, params: ModelParams):
    """Invert the feedback: the unique theta in [theta0, pi/2[ with F(theta)=z.

    Newton seeded by linear interpolation in a cached table of F, safeguarded
    by bisection on the two table nodes around the seed.  An element stops
    once its residual meets 1e-13*(1+|z|), its Newton step vanishes in
    rounding or its bracket closes, and keeps its iterate.  Exact at the
    endpoint z = e^-kappa - 1 (returns theta0).  Raises DomainError for z
    above that endpoint.
    """
    t0, k = params.theta0, params.kappa
    z_arr = np.atleast_1d(np.asarray(z, dtype=float))
    z_max = math.exp(-k) - 1.0
    if np.any(z_arr > z_max + 1e-12 * (1.0 + abs(z_max))):
        bad = float(z_arr[z_arr > z_max + 1e-12 * (1.0 + abs(z_max))][0])
        raise DomainError(f"feedback value {bad} exceeds upper limit {z_max}")

    hi_cap = math.pi / 2 - _THETA_CAP
    out = np.where(z_arr >= z_max, t0, np.nan)
    active = z_arr < z_max
    if active.any():
        tab_th, tab_nf = _feedback_table(t0, k)
        # F(hi_cap) is astronomically negative; clamp z below it
        nz = np.minimum(-z_arr[active], tab_nf[-1])
        th = np.interp(nz, tab_nf, tab_th)
        j = np.minimum(np.searchsorted(tab_nf, nz), _TABLE_NODES - 1)
        lo, hi = tab_th[np.maximum(j - 1, 0)], tab_th[j]
        tol = 1e-13 * (1.0 + nz)
        for _ in range(_MAX_NEWTON):
            f, fp = _F_and_deriv(th, t0, k)
            r = f + nz
            # F decreasing: positive residual means the root lies above
            lo = np.where(r > 0, th, lo)
            hi = np.where(r < 0, th, hi)
            cand = th - r / fp
            done = (np.abs(r) <= tol) | (cand == th) | (hi - lo <= 1e-15)
            if done.all():
                break
            inside = (cand > lo) & (cand < hi)
            th = np.where(done, th, np.where(inside, cand, 0.5 * (lo + hi)))
        out[active] = np.minimum(np.maximum(th, t0), hi_cap)
    return float(out[0]) if np.isscalar(z) or np.asarray(z).ndim == 0 else out


# ---------------------------------------------------------------------------
# Solver
# ---------------------------------------------------------------------------

@dataclass
class StemShape1:
    """A solution candidate: height, angle profile, planar curve, payoff."""

    h: float
    y: np.ndarray
    theta: np.ndarray
    x: np.ndarray
    payoff: float
    lam: float
    length_error: float


def _pieces(profile: LightProfile, lo: float, hi: float):
    """[lo, hi] split at the profile's jumps strictly inside it."""
    cuts = [d for d in profile.discontinuities if lo < d < hi]
    bounds = [lo] + sorted(cuts) + [hi]
    return list(zip(bounds[:-1], bounds[1:]))


def _theta_star(y, h: float, profile: LightProfile, params: ModelParams):
    z = (math.exp(-params.kappa) - 1.0) * profile.eval(h) / profile.eval(y)
    return phi_inverse(z, params)


def _simpson_piece(a: float, b: float, n_min: int, density: float):
    n = max(n_min, int(math.ceil((b - a) * density)))
    n += n % 2
    ys = np.linspace(a, b, n + 1)
    return ys, _simpson_weights(n) * (b - a) / (3.0 * n)


def _feedback_nodes(h: float, profile: LightProfile, params: ModelParams,
                    density: float):
    """Simpson nodes, weights and feedback angles of each continuity piece
    of the shape stopping at height h."""
    eps_edge = 1e-13 * max(1.0, h)
    for (a, b) in _pieces(profile, 0.0, h):
        ys, wts = _simpson_piece(a + eps_edge, b - eps_edge, 32, density)
        yield ys, wts, _theta_star(ys, h, profile, params)


def _arc_length(nodes) -> float:
    L = 0.0   # summed piece by piece, in order (sum() compensates on 3.12+)
    for _, wts, th in nodes:
        L += float(np.sum(wts / np.sin(th)))
    return L


def solve_op1(profile: LightProfile, params: ModelParams,
              n_grid: int = 2048, scan_samples: int = 1000) -> list[StemShape1]:
    """All stationary shapes of the fixed-length problem, best payoff first.

    Scans the height equation L(h) = ell for sign changes on each continuity
    piece of the profile (steep or discontinuous profiles admit several
    roots), refines each by Brent, and evaluates payoffs to order the
    candidates.  Ties are returned in ascending height order for the caller
    to break.  Raises DomainError when the light is zero along the whole
    stem, and NoBracketError when no piece changes sign.
    """
    ell = params.ell
    # profiles are non-decreasing: dark at the top means dark all along
    if profile.eval(ell) <= 0.0:
        raise DomainError(f"light is zero along the whole stem (I({ell!r}) = 0)")
    scan_density = max(256.0 / ell, scan_samples / ell * 0.25)
    fine_density = max(float(n_grid) / ell, scan_density)

    def resid(h, density=scan_density):
        return _arc_length(_feedback_nodes(h, profile, params, density)) - ell

    pieces = []
    for (a, b) in _pieces(profile, 1e-9 * ell, ell):
        a_in = a + 1e-9 * ell
        b_in = b - 1e-9 * ell if b < ell else b
        if b_in <= a_in:
            continue
        n_samp = max(64, int(scan_samples * (b_in - a_in) / ell))
        hs = np.linspace(a_in, b_in, n_samp)
        pieces.append((hs, np.array([resid(float(h)) for h in hs])))
    roots = find_roots(lambda h: resid(h, fine_density), 1e-13 * max(1.0, ell), [pieces])

    shapes: list[StemShape1] = []
    for h in roots:
        nodes = list(_feedback_nodes(h, profile, params, fine_density))
        P = 0.0
        for ys, wts, th in nodes:
            P += float(np.sum(wts * profile.eval(ys) * g_profile(th, params)))
        y = np.linspace(0.0, h, n_grid + 1)
        th = _theta_star(y, h, profile, params)
        x = trapezoid_cumulative(y, np.cos(th) / np.sin(th))
        lam = (1.0 - math.exp(-params.kappa)) * profile.eval(h)
        shapes.append(StemShape1(h=float(h), y=y, theta=th, x=x,
                                 payoff=float(P), lam=float(lam),
                                 length_error=float(_arc_length(nodes) - ell)))
    shapes.sort(key=lambda s: (-s.payoff, s.h))
    return shapes


# ---------------------------------------------------------------------------
# Non-uniqueness reproduction
# ---------------------------------------------------------------------------

@dataclass
class NonUniqueness:
    """Step-profile level at which the two stationary shapes tie, with both branches."""

    eps_hat: float
    eps_one: float
    payoff_low: float       # short-stem branch at eps_hat
    payoff_high: float      # tall-stem branch at eps_hat
    shape_low: StemShape1
    shape_high: StemShape1


def find_nonuniqueness_epsilon(params: ModelParams) -> NonUniqueness:
    """Step-profile level at which the two stationary shapes tie exactly.

    The short branch stays below the jump at angle theta0; the tall branch
    crosses it at the steep feedback angle.  Bisection on the payoff gap
    locates the tie; the jump sits at y_jump = 1, and ell*sin(theta0) < 1 < ell
    is required so both branches exist.
    """
    t0, k, ell = params.theta0, params.kappa, params.ell
    y_jump = 1.0
    if not ell * math.sin(t0) < y_jump < ell:
        raise NoCrossingError("need ell*sin(theta0) < y_jump < ell for two branches")
    zmax = math.exp(-k) - 1.0
    one_minus = 1.0 - math.exp(-k)

    def alpha_of(eps):
        return phi_inverse(zmax / eps, params)

    def s_low(eps):
        return ell * one_minus * eps

    def s_high(eps):
        a = alpha_of(eps)
        below = y_jump / math.sin(a)
        return eps * capture_transverse(a, params) * below + (ell - below) * one_minus

    # largest eps with a valid tall branch: crossing length equals ell
    def tall_margin(eps):
        return math.sin(alpha_of(eps)) - y_jump / ell

    eps_one = find_root(tall_margin, bracket(tall_margin, 1e-9, 1.0 - 1e-12), tol=1e-14)

    def gap(eps):
        return s_high(eps) - s_low(eps)

    lo, hi = 1e-9, eps_one * (1.0 - 1e-10)
    g_lo, g_hi = gap(lo), gap(hi)
    if not g_lo > 0.0 > g_hi:
        raise NoCrossingError(f"payoff gap does not change sign: {g_lo}, {g_hi}")
    eps_hat = find_root(gap, Bracket(lo, hi, g_lo, g_hi), tol=1e-13)

    shapes = solve_op1(LightProfile.step(eps_hat, y_jump), params)
    if len(shapes) < 2:
        raise NoCrossingError("solver did not recover both branches at eps_hat")
    shapes.sort(key=lambda s: s.h)
    return NonUniqueness(
        eps_hat=float(eps_hat),
        eps_one=float(eps_one),
        payoff_low=float(s_low(eps_hat)),
        payoff_high=float(s_high(eps_hat)),
        shape_low=shapes[0],
        shape_high=shapes[-1],
    )
