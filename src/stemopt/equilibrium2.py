"""Competitive equilibrium for stems with free length and leaf density.

Two independent constructions of the same object: damped fixed-point
iteration of the best-response/shading composition, and direct shooting of
the coupled costate system, whose light is the stems' own shade.  The two
must agree, which is the main consistency check of the whole pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model2
from .errors import NotConvergedError
from .kernels import sorted_unique
from .lightfield import LightProfile, check_class_F
from .model2 import StemState2
from .numerics import map_blocks
from .params import ModelParams, Op2Config

_FP_MAX_ITER = 40


# ---------------------------------------------------------------------------
# Shading map
# ---------------------------------------------------------------------------

def shade_map(stem: StemState2, params: ModelParams) -> LightProfile:
    """Light profile cast by a uniform field of identical stems.

    I(y) = exp( -(rho0 / cos theta0) * integral_y^inf u / sin theta ), built
    as a canopy profile whose rate knots are the stem's nodes, from y = 0 to
    the tip y = h.
    """
    d0 = params.rho0 / math.cos(params.theta0)
    return LightProfile.exponential_canopy(
        stem.y, d0 * stem.u / np.sin(stem.theta), stem.h)


# ---------------------------------------------------------------------------
# Result container and verification
# ---------------------------------------------------------------------------

@dataclass
class Equilibrium2Result:
    """Free-length equilibrium: shade profile, stem, method, residuals and diagnostics."""

    I_star: LightProfile
    stem: StemState2
    method: str                      # 'fixed_point' | 'direct_shooting'
    iterations: int
    residual_map: float
    residual_refit: float
    h: float
    h_roots: list[float] = field(default_factory=list)
    class_f_ok: bool = True
    multiroot_flag: bool = False
    history: list[float] = field(default_factory=list)


def profile_gap(p1: LightProfile, p2: LightProfile, h: float) -> float:
    """Sup gap between two light profiles at 2001 points on [0, 1.05 h]."""
    ys = np.linspace(0.0, h * 1.05, 2001)
    return float(np.max(np.abs(map_blocks(p1.eval, ys) - map_blocks(p2.eval, ys))))


def verify_equilibrium(result: Equilibrium2Result,
                       params: ModelParams) -> Equilibrium2Result:
    """The result with its refit residual measured; the map residual is the
    one the solve set.

    refit: fresh best response under the stored profile, its height
    bracketed by the scan and not around the stored height, compared to the
    stored stem controls in sup norm (angles everywhere; leaf density away
    from the ground where it is log-divergent), each stem read between its
    nodes through its own DP45 shot.
    """
    fresh = model2.shoot_op2(result.I_star, params)
    ys = np.linspace(0.0, min(fresh.h, result.h) * 0.999, 800)
    new, old = fresh.read(ys), result.stem.read(ys)
    d_theta = np.max(np.abs(new["theta"] - old["theta"]))
    # the log in the leaf density amplifies ground-level costate noise by 1/q,
    # so the density comparison starts above the ground layer
    above = ys > 0.05 * result.h
    d_u = np.max(np.abs(new["u"][above] - old["u"][above]))
    return replace(result, residual_refit=float(
        max(d_theta, d_u, abs(fresh.h - result.h))))


# ---------------------------------------------------------------------------
# Fixed-point construction
# ---------------------------------------------------------------------------

def solve_equilibrium_fixed_point(params: ModelParams,
                                  damping: float = 0.5) -> Equilibrium2Result:
    """Damped iteration of best response followed by shading.

    r_{k+1} = (1 - damping) r_k + damping * I'/I of shade(best_response(I_k)),
    shading rates mixed on a fixed grid, I_k the canopy profile of r_k, until
    the sup-norm change of I drops below 1e-8 (at most 40 iterations).  The
    first two best responses scan for their height; the later ones and the
    final stem bracket it at four times the last height change around the
    last height.  Profiles failing the regularity-family check are flagged
    but the iteration continues.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in ]0, 1]")
    # inner iterates shoot, and stop Brent, at relaxed accuracy; the returned
    # stem and the residual verification are recomputed at full accuracy below
    inner = Op2Config(rtol=1e-9, atol=1e-12, n_out=1024)
    h0 = model2.estimate_h0(params)
    # shading-rate grid, graded toward the ground where the rate is log-divergent
    y_grid = sorted_unique(np.concatenate([
        [0.0], np.geomspace(1e-7 * h0, 0.05 * h0, 160),
        np.linspace(0.05 * h0, 2.0 * h0, 1600)]))
    rate_vals = np.zeros_like(y_grid)
    profile: LightProfile = LightProfile.constant(1.0)
    I_grid = profile.eval(y_grid)   # the iterate's I on the grid

    h_last = warm = None
    class_f_ok, multiroot = True, False
    history: list[float] = []
    for _ in range(_FP_MAX_ITER):
        stem = model2.shoot_op2(profile, params, replace(inner, h_bracket=warm))
        if h_last is not None:
            # no narrower than 1e-7 h: the warm ends are shot at
            # model2._SCAN_RTOL = 1e-7, below which their signs may be rounding
            width = max(4.0 * abs(stem.h - h_last), 1e-7 * stem.h)
            warm = (stem.h - width, stem.h + width)
        h_last = stem.h
        multiroot |= len(stem.h_candidates) > 1   # selection rule: best payoff, flagged
        shade = shade_map(stem, params)
        # the shade's own C1 rate, I'/I, read on the grid in one kernel pass
        # (0 above its top); the damped update in rate space keeps the
        # iterate a C1 canopy profile
        shade_I, shade_slope = shade.eval_and_slope(y_grid, np)
        new_rate = (1.0 - damping) * rate_vals + damping * (shade_slope / shade_I)
        new_profile = LightProfile.exponential_canopy(y_grid, new_rate,
                                                      float(y_grid[-1]))
        new_I = new_profile.eval(y_grid)
        change = float(np.max(np.abs(new_I - I_grid)))
        history.append(change)
        rate_vals, profile, I_grid = new_rate, new_profile, new_I
        if not check_class_F(profile, y_max=float(y_grid[-1])).in_class:
            class_f_ok = False
        if change <= 1e-8:
            break
    else:
        exc = NotConvergedError(
            f"fixed point not reached in {_FP_MAX_ITER} iterations at "
            f"rho0={params.rho0!r}, damping={damping!r} "
            f"(last change {history[-1]:.2e})")
        exc.history = tuple(history)
        raise exc

    # full-accuracy stem under the converged profile
    stem = model2.shoot_op2(profile, params, Op2Config(h_bracket=warm))
    multiroot |= len(stem.h_candidates) > 1
    result = Equilibrium2Result(
        I_star=profile, stem=stem, method="fixed_point", iterations=len(history),
        residual_map=profile_gap(profile, shade_map(stem, params), stem.h),
        residual_refit=math.nan, h=stem.h,
        h_roots=stem.h_candidates, class_f_ok=class_f_ok, multiroot_flag=multiroot,
        history=history,
    )
    return verify_equilibrium(result, params)


# ---------------------------------------------------------------------------
# Direct shooting of the coupled system
# ---------------------------------------------------------------------------

def solve_equilibrium_direct(params: ModelParams,
                             verify: bool = True) -> Equilibrium2Result:
    """Shoot the coupled (p, q, z) system backward from the stem tip.

    Terminal values p=0, q=1, z=0 hold at the unknown height h; the ground
    residual is again the mass costate.  The stem is `model2.shoot_op2`
    under the stems' own shade (`profile=None`), I = exp(-d0 z) of the
    integrated tail mass.  The equilibrium profile is the shade cast by the
    solved stem, rebuilt by `shade_map` from the quadrature of its
    u / sin(theta); the map residual compares it against exp(-d0 z) at the
    stem's nodes.
    """
    stem = model2.shoot_op2(None, params)
    roots = stem.h_candidates
    profile = shade_map(stem, params)
    in_class = check_class_F(profile, y_max=2.0 * model2.estimate_h0(params)).in_class
    result = Equilibrium2Result(
        I_star=profile, stem=stem, method="direct_shooting", iterations=1,
        residual_map=float(np.max(np.abs(stem.I - map_blocks(profile.eval, stem.y)))),
        residual_refit=math.nan, h=stem.h,
        h_roots=roots, class_f_ok=in_class, multiroot_flag=len(roots) > 1,
    )
    return verify_equilibrium(result, params) if verify else result
