"""Competitive equilibrium for stems with free length and leaf density.

Two independent constructions of the same object: damped fixed-point
iteration of the best-response/shading composition, and direct shooting of
the coupled costate-plus-intensity system.  The two must agree, which is the
main consistency check of the whole pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import model2
from .errors import NotConvergedError
from .lightfield import LightProfile, check_class_F
from .model2 import StemState2
from .numerics import OdeProblem, integrate
from .params import ModelParams, Op2Config

_Q_CUT = 1e-6   # drop nodes where q/I is residual noise when building shade rates
_FP_MAX_ITER = 40


# ---------------------------------------------------------------------------
# Shading map
# ---------------------------------------------------------------------------

def _thin_nodes(y: np.ndarray, budget: int = 1600) -> np.ndarray:
    """Index subset keeping every node in the dense end regions (where the
    rate is curved), thinning only the smooth middle."""
    n = len(y)
    if n <= budget:
        return np.arange(n)
    lo, hi = 0.1 * y[-1], 0.9 * y[-1]
    ends = np.flatnonzero((y < lo) | (y > hi))
    mid = np.flatnonzero((y >= lo) & (y <= hi))
    k = max(1, len(mid) // budget)
    return np.unique(np.concatenate([ends, mid[::k], [0, n - 1]]))


def shade_map(stem: StemState2, params: ModelParams) -> LightProfile:
    """Light profile cast by a uniform field of identical stems.

    I(y) = exp( -(rho0 / cos theta0) * integral_y^inf u / sin theta ), built
    as a canopy profile from the stem's sampled leaf-density rate.  Nodes
    where the mass costate is residual-level noise are replaced by a flat
    rate extension toward the ground.
    """
    d0 = params.rho0 / math.cos(params.theta0)
    keep = (stem.q / stem.I) > _Q_CUT
    idx = np.flatnonzero(keep)[_thin_nodes(stem.y[keep])]
    y = stem.y[idx]
    rate = d0 * stem.u[idx] / np.sin(stem.theta[idx])
    if y[0] > 0.0:
        y = np.concatenate([[0.0], y])
        rate = np.concatenate([[rate[0]], rate])
    if y[-1] < stem.h:
        y = np.concatenate([y, [stem.h]])
        rate = np.concatenate([rate, [0.0]])
    return LightProfile.exponential_canopy(y, rate, stem.h)


# ---------------------------------------------------------------------------
# Result container and verification
# ---------------------------------------------------------------------------

@dataclass
class Equilibrium2Result:
    I_star: LightProfile
    stem: StemState2
    method: str                      # 'fixed_point' | 'direct_shooting'
    iterations: int
    residual_map: float
    residual_refit: float
    h: float
    h_roots: list[float] = field(default_factory=list)
    class_f_ok: bool = True
    class_f_delta: float = 0.0
    multiroot_flag: bool = False
    history: list[float] = field(default_factory=list)


def _sup_gap_profiles(p1: LightProfile, p2: LightProfile, y_max: float,
                      n: int = 2001) -> float:
    ys = np.linspace(0.0, y_max, n)
    return float(np.max(np.abs(p1.eval(ys) - p2.eval(ys))))


def verify_equilibrium(result: Equilibrium2Result,
                       params: ModelParams) -> tuple[float, float]:
    """Residuals of the two halves of the equilibrium definition.

    refit: fresh best response under the stored profile, compared to the
    stored stem controls in sup norm (angles everywhere; leaf density away
    from the ground where it is log-divergent).  map: the larger of two sup
    gaps, the stored profile against the shade rebuilt from the stored stem
    on [0, 1.05 h], and the intensity the stem carries (the integrated
    intensity column for direct shooting) against the stored profile at the
    stem's nodes.
    """
    cfg = Op2Config(h_bracket=(max(1e-6, result.h * 0.9), result.h * 1.1))
    fresh = model2.shoot_op2(result.I_star, params, cfg)
    ys = np.linspace(0.0, min(fresh.h, result.h) * 0.999, 800)
    d_theta = np.max(np.abs(fresh.interp("theta", ys)
                            - result.stem.interp("theta", ys)))
    # the log in the leaf density amplifies ground-level costate noise by 1/q,
    # so the density comparison starts above the ground layer
    ys_u = ys[ys > 0.05 * result.h]
    d_u = np.max(np.abs(fresh.interp("u", ys_u) - result.stem.interp("u", ys_u)))
    residual_refit = float(max(d_theta, d_u, abs(fresh.h - result.h)))
    stem = result.stem
    residual_map = max(
        _sup_gap_profiles(result.I_star, shade_map(stem, params), 1.05 * result.h),
        float(np.max(np.abs(stem.I - result.I_star.eval(stem.y)))))
    return residual_refit, residual_map


# ---------------------------------------------------------------------------
# Fixed-point construction
# ---------------------------------------------------------------------------

def solve_equilibrium_fixed_point(params: ModelParams, damping: float = 0.5,
                                  verify: bool = True) -> Equilibrium2Result:
    """Damped iteration of best response followed by shading.

    I_{k+1} = (1 - damping) I_k + damping * shade(best_response(I_k)),
    mixed pointwise on a fixed grid, until the sup-norm change drops below
    1e-8 (at most 40 iterations).  Profiles failing the regularity-family
    check are flagged but the iteration continues.
    """
    if not 0.0 < damping <= 1.0:
        raise ValueError("damping must lie in ]0, 1]")
    cfg = Op2Config()
    # inner iterates run at relaxed accuracy; the returned stem and the
    # residual verification are recomputed at full accuracy below
    inner = replace(cfg, rtol=max(cfg.rtol, 1e-9), atol=max(cfg.atol, 1e-12),
                    root_tol=max(cfg.root_tol, 1e-10), n_out=1024)
    h0 = model2.estimate_h0(params)
    # shading-rate grid, graded toward the ground where the rate is log-divergent
    y_grid = np.unique(np.concatenate([
        [0.0], np.geomspace(1e-7 * h0, 0.05 * h0, 160),
        np.linspace(0.05 * h0, 2.0 * h0, 1600)]))
    rate_vals = np.zeros_like(y_grid)
    profile: LightProfile = LightProfile.constant(1.0)

    stem = None
    h_prev = None
    class_f_ok = True
    class_f_delta = 0.0
    history: list[float] = []
    iterations = 0
    multiroot = False
    h_roots: list[float] = []
    for k in range(_FP_MAX_ITER):
        iterations = k + 1
        width = 0.1 if k < 2 else 0.02
        warm = None if h_prev is None else ((1.0 - width) * h_prev,
                                            (1.0 + width) * h_prev)
        stem = model2.shoot_op2(profile, params, replace(inner, h_bracket=warm))
        h_prev = stem.h
        h_roots = stem.h_candidates
        if len(h_roots) > 1:
            multiroot = True  # selection rule: best payoff, flagged
        shade = shade_map(stem, params)
        shade_rate = np.interp(y_grid, shade.rate_y, shade.rate_v,
                               left=shade.rate_v[0], right=0.0)
        # damped update in rate space keeps the iterate a C1 canopy profile
        new_rate = (1.0 - damping) * rate_vals + damping * shade_rate
        new_profile = LightProfile.exponential_canopy(y_grid, new_rate,
                                                      float(y_grid[-1]))
        change = float(np.max(np.abs(new_profile.eval(y_grid)
                                     - profile.eval(y_grid))))
        history.append(change)
        rate_vals = new_rate
        profile = new_profile
        report = check_class_F(profile, y_max=float(y_grid[-1]))
        class_f_delta = max(class_f_delta, report.delta)
        if not report.in_class:
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
    final_cfg = replace(cfg, h_bracket=(0.98 * h_prev, 1.02 * h_prev))
    stem = model2.shoot_op2(profile, params, final_cfg)
    result = Equilibrium2Result(
        I_star=profile, stem=stem, method="fixed_point", iterations=iterations,
        residual_map=math.nan, residual_refit=math.nan, h=stem.h,
        h_roots=h_roots, class_f_ok=class_f_ok, class_f_delta=class_f_delta,
        multiroot_flag=multiroot, history=history,
    )
    if verify:
        result.residual_refit, result.residual_map = verify_equilibrium(result, params)
    return result


# ---------------------------------------------------------------------------
# Direct shooting of the coupled system
# ---------------------------------------------------------------------------

def _coupled_rhs(params: ModelParams):
    d0 = params.rho0 / math.cos(params.theta0)

    def rhs(y, s):
        p, q, z, I = s[0], s[1], s[2], max(s[3], 1e-9)
        f1, f2, z_slope = model2._rhs_terms(I, p, q, params)
        f3 = -d0 * I * z_slope
        return np.array([-f3 * f1, f2, z_slope, f3])

    return rhs


def _coupled_residual(h, params, cfg: Op2Config, rtol):
    eps = cfg.epsilon_rel * h
    p0, q0 = model2.seed_terminal_layer(h, LightProfile.constant(1.0), params, eps)
    z0 = model2.z_first_integral(1.0, p0, q0, params)
    problem = OdeProblem(4, _coupled_rhs(params))
    traj = integrate(problem, (h - eps, 0.0), [p0, q0, z0, 1.0],
                     rtol=rtol, atol=cfg.atol)
    return float(traj.y[-1, 1]), traj


def _coupled_scan(hs, params: ModelParams, cfg: Op2Config) -> np.ndarray:
    """Vectorized ground residuals of the coupled system over many heights."""
    d0 = params.rho0 / math.cos(params.theta0)

    def slope(Y):
        I = np.maximum(Y[:, 3], 1e-12)
        f1, f2, zs = model2._rhs_terms_vec(I, Y[:, 0], Y[:, 1], params)
        f3 = -d0 * I * zs
        return np.stack([-f3 * f1, f2, zs, f3], axis=1)

    return model2.residual_batch(hs, LightProfile.constant(1.0), params,
                                 eps_rel=cfg.epsilon_rel, coupled_slope=slope)


def solve_equilibrium_direct(params: ModelParams,
                             verify: bool = True) -> Equilibrium2Result:
    """Shoot the coupled (p, q, z, I) system backward from the stem tip.

    Terminal values p=0, q=I=1 hold at the unknown height h; the ground
    residual is again the mass costate.  The equilibrium profile is the
    shade cast by the solved stem; the verification compares it against the
    integrated intensity component.
    """
    cfg = Op2Config()
    h0 = model2.estimate_h0(params)

    def finalize(h):
        resid, traj = _coupled_residual(h, params, cfg, rtol=cfg.rtol)
        eps = cfg.epsilon_rel * h
        y_all = model2.output_mesh(traj.t[::-1], h, eps, cfg.n_out)
        samp = traj.sample(y_all)
        I_arr = np.clip(samp[:, 3], 1e-12, 1.0)
        return model2.assemble_state(h, y_all, samp[:, 0], samp[:, 1],
                                     samp[:, 2], I_arr, params, eps, resid)

    stem, roots = model2._shoot_tip_height(
        lambda h, rtol: _coupled_residual(h, params, cfg, rtol=rtol)[0],
        lambda hs: _coupled_scan(hs, params, cfg), finalize, h0, cfg)
    profile = shade_map(stem, params)
    report = check_class_F(profile, y_max=2.0 * h0)
    result = Equilibrium2Result(
        I_star=profile, stem=stem, method="direct_shooting", iterations=1,
        residual_map=math.nan, residual_refit=math.nan, h=stem.h,
        h_roots=roots, class_f_ok=report.in_class,
        class_f_delta=report.delta, multiroot_flag=len(roots) > 1,
    )
    if verify:
        result.residual_refit, result.residual_map = verify_equilibrium(result, params)
    return result
