"""Competitive equilibrium for fixed-length, constant-thickness stems.

All stems share one shape; the shade they cast determines the light profile,
which in turn must make that shape optimal.  At stem length s from the tip
the log-shade is rho*kappa*s, the leaf mass above, so the angle is explicit
in s and one quadrature of sin(theta) over s gives the depth, the shape and
its height: no ODE integration, fixed-point iteration or height search is
needed, and the fixed-point property is verified a posteriori instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import running_sum, trapezoid_cumulative
from .lightfield import LightProfile, check_uniqueness_condition
from .model1 import _theta_star, phi_inverse, solve_op1
from .numerics import map_blocks
from .params import ModelParams

_N_GRID = 2048   # cells of the returned equilibrium shape and profile


@dataclass
class Equilibrium1Result:
    """Fixed-length equilibrium: shape, shade profile and verification residuals."""

    h_star: float
    y: np.ndarray
    theta_star: np.ndarray
    x: np.ndarray
    I_star: LightProfile
    residual_refit: float
    residual_map: float
    uniqueness_ok: bool          # constructed profile passes the slope test
    uniqueness_margin: float


def solve_bcp(params: ModelParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stem length s from the tip, angle and depth of the equilibrium stem.

    The log-shade at s is rho*kappa*s, so the angle is explicit,
    theta(s) = phi((e^-kappa - 1) e^(rho kappa s)), starting at theta0; the
    depth, the integral of sin(theta), is composite Simpson on 2 * `_N_GRID`
    cells, returned tip first at the `_N_GRID` + 1 even nodes, as copies.
    """
    s = np.linspace(0.0, params.ell, 2 * _N_GRID + 1)
    z = (math.exp(-params.kappa) - 1.0) * np.exp(params.rho * params.kappa * s)
    theta = map_blocks(lambda zb: phi_inverse(zb, params), z)
    slope = np.sin(theta)
    pairs = slope[:-2:2] + 4.0 * slope[1:-1:2] + slope[2::2]   # Simpson on cell pairs
    depth = running_sum(pairs * (params.ell / (6.0 * _N_GRID)))
    return s[::2].copy(), theta[::2].copy(), depth


def solve_equilibrium1(params: ModelParams,
                       verify: bool = True) -> Equilibrium1Result:
    """Equilibrium shape, height and light profile for the given density.

    The shape is `solve_bcp`'s nodes, foot to tip.  The shade profile is
    assembled from it, and its map residual is measured against
    exp(-rho*kappa*s), the shade the stem length above each node implies;
    with `verify`, `verify_fixed_point` measures the refit too.
    """
    s, theta_star, depth = (a[::-1] for a in solve_bcp(params))   # y increases
    h_star = float(depth[0])
    y = h_star - depth
    del depth   # the refit below runs without the depth's nodes
    rho_kappa = params.rho * params.kappa
    x = trapezoid_cumulative(y, np.cos(theta_star) / np.sin(theta_star))
    # the shade that identical stems of this shape cast: rate rho*kappa / sin
    I_star = LightProfile.exponential_canopy(y, rho_kappa / np.sin(theta_star),
                                             h_star)

    uniq_ok, uniq_margin = check_uniqueness_condition(I_star, params, h_star)

    result = Equilibrium1Result(
        h_star=h_star, y=y, theta_star=theta_star, x=x, I_star=I_star,
        residual_refit=math.nan,
        residual_map=float(np.max(np.abs(I_star.eval(y) - np.exp(-rho_kappa * s)))),
        uniqueness_ok=uniq_ok, uniqueness_margin=uniq_margin,
    )
    return verify_fixed_point(result, params) if verify else result


def verify_fixed_point(result: Equilibrium1Result,
                       params: ModelParams) -> Equilibrium1Result:
    """The result with its refit residual measured; the map residual is the
    one the solve set.

    refit: re-solve the shape problem under the equilibrium light and compare
    its feedback angles at the equilibrium's nodes with the stored angles in
    sup norm.
    """
    refit = solve_op1(result.I_star, params)[0]
    theta = _theta_star(np.minimum(result.y, refit.h), result.I_star.eval(refit.h),
                        result.I_star, params)
    return replace(result, residual_refit=float(
        np.max(np.abs(theta - result.theta_star))))
