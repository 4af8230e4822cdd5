"""Competitive equilibrium for fixed-length, constant-thickness stems.

All stems share one shape; the shade they cast determines the light profile,
which in turn must make that shape optimal.  The equilibrium shape follows
from a single backward Cauchy problem for the log-intensity along the stem,
measured downward from the tip, so no fixed-point iteration is needed; the
fixed-point property is verified a posteriori instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .kernels import trapezoid_cumulative
from .lightfield import LightProfile, check_uniqueness_condition
from .model1 import phi_inverse, solve_op1
from .numerics import (
    OdeProblem,
    Trajectory,
    _simpson_weights,
    find_roots,
    integrate,
)
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
    rho_kappa: float
    uniqueness_ok: bool          # constructed profile passes the slope test
    uniqueness_margin: float


def solve_bcp(params: ModelParams) -> Trajectory:
    """Backward Cauchy problem for the log-shade zeta(t), t <= 0.

    zeta' = -rho*kappa / sin(phi((e^-kappa - 1) e^zeta)), zeta(0) = 0.
    The angle profile measured down from the tip is
    theta_hat(t) = phi((e^-kappa - 1) e^zeta(t)), starting at theta0.
    """
    rk = params.rho * params.kappa
    z_top = math.exp(-params.kappa) - 1.0

    def rhs(t, state):
        th = phi_inverse(z_top * math.exp(state[0]), params)
        return np.array([-rk / math.sin(th)])

    if rk == 0.0:
        ts = np.linspace(0.0, -params.ell, 65)
        return Trajectory(ts, np.zeros((65, 1)), np.zeros((65, 1)))
    return integrate(OdeProblem(1, rhs), (0.0, -params.ell), [0.0],
                     rtol=1e-11, atol=1e-13)


def theta_hat_at(traj: Trajectory, t, params: ModelParams):
    """Angle profile along the backward solution (vectorized)."""
    z_top = math.exp(-params.kappa) - 1.0
    zeta = traj.sample(np.asarray(t, dtype=float))[:, 0]
    return phi_inverse(z_top * np.exp(zeta), params)


def solve_equilibrium1(params: ModelParams,
                       verify: bool = True) -> Equilibrium1Result:
    """Equilibrium shape, height and light profile for the given density.

    The tip height solves the cumulative-length equation along the backward
    solution; the shade profile is then assembled from the equilibrium shape
    and its map residual is measured against that solution.  With `verify`,
    the refit residual is measured too, by `verify_fixed_point`.
    """
    ell = params.ell
    traj = solve_bcp(params)

    # stem length L(h) from the tip down to depth h is strictly increasing,
    # its integrand 1/sin(theta) being positive, so ]0, ell] brackets the
    # one root of L(h) = ell
    def length_resid(h):
        n = 2048
        ts = np.linspace(-h, 0.0, n + 1)
        th = theta_hat_at(traj, ts, params)
        return float(np.sum(_simpson_weights(n) / np.sin(th)) * h / (3.0 * n)) - ell

    lo, hi = 1e-12, ell
    h_star = find_roots(length_resid, 1e-13,
                        [[([lo, hi], [length_resid(lo), length_resid(hi)])]])[0]

    y = np.linspace(0.0, h_star, _N_GRID + 1)
    theta_star = theta_hat_at(traj, y - h_star, params)
    x = trapezoid_cumulative(y, np.cos(theta_star) / np.sin(theta_star))
    # the shade that identical stems of this shape cast: rate rho*kappa / sin
    rho_kappa = params.rho * params.kappa
    I_star = LightProfile.exponential_canopy(y, rho_kappa / np.sin(theta_star),
                                             h_star)
    # map: the stored profile against exp(-zeta), the backward problem's shade
    zeta = traj.sample(y - h_star)[:, 0]

    uniq_ok, uniq_margin = check_uniqueness_condition(I_star, params, h_star)

    result = Equilibrium1Result(
        h_star=float(h_star), y=y, theta_star=theta_star, x=x, I_star=I_star,
        residual_refit=math.nan,
        residual_map=float(np.max(np.abs(I_star.eval(y) - np.exp(-zeta)))),
        rho_kappa=rho_kappa, uniqueness_ok=uniq_ok, uniqueness_margin=uniq_margin,
    )
    return verify_fixed_point(result, params) if verify else result


def verify_fixed_point(result: Equilibrium1Result,
                       params: ModelParams) -> Equilibrium1Result:
    """The result with its refit residual measured; the map residual is the
    one the solve set.

    refit: re-solve the shape problem under the equilibrium light and compare
    angle profiles in sup norm.
    """
    refit = solve_op1(result.I_star, params)[0]
    theta = np.interp(result.y, refit.y, refit.theta)
    return replace(result, residual_refit=float(
        np.max(np.abs(theta - result.theta_star))))
