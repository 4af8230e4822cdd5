"""Competitive equilibrium for fixed-length, constant-thickness stems.

All stems share one shape; the shade they cast determines the light profile,
which in turn must make that shape optimal.  At stem length s from the tip
the log-shade is rho*kappa*s, the leaf mass above, so the angle is explicit
in s and one forward integration of the depth gives the shape and its
height: no fixed-point iteration or height search is needed, and the
fixed-point property is verified a posteriori instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import trapezoid_cumulative
from .lightfield import LightProfile, check_uniqueness_condition
from .model1 import _theta_star, phi_inverse, solve_op1
from .numerics import OdeProblem, Trajectory, integrate
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


def solve_bcp(params: ModelParams) -> Trajectory:
    """Depth of the equilibrium stem below its tip, by stem length s from the tip.

    The log-shade at s is rho*kappa*s, so the angle is explicit,
    theta(s) = phi((e^-kappa - 1) e^(rho kappa s)), starting at theta0, and
    depth' = sin(theta(s)), depth(0) = 0, is integrated over [0, ell].
    """
    rk = params.rho * params.kappa
    z_top = math.exp(-params.kappa) - 1.0

    def rhs(s, state):
        return [math.sin(phi_inverse(z_top * math.exp(rk * s), params))]

    return integrate(OdeProblem(1, rhs), (0.0, params.ell), [0.0],
                     rtol=1e-11, atol=1e-13)


def solve_equilibrium1(params: ModelParams,
                       verify: bool = True) -> Equilibrium1Result:
    """Equilibrium shape, height and light profile for the given density.

    The tip height is the depth of the stem's foot; the shape is sampled at
    nodes uniform in stem length, the shade profile is assembled from it,
    and its map residual is measured against exp(-rho*kappa*s), the shade
    the stem length above each node implies.  With `verify`, the refit
    residual is measured too, by `verify_fixed_point`.
    """
    traj = solve_bcp(params)
    h_star = float(traj.y[-1, 0])
    rho_kappa = params.rho * params.kappa
    s = np.linspace(params.ell, 0.0, _N_GRID + 1)   # foot to tip: y increases
    y = h_star - traj.sample(s)[:, 0]
    theta_star = phi_inverse((math.exp(-params.kappa) - 1.0) * np.exp(rho_kappa * s),
                             params)
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
