"""Physical and economic constants shared by all solver modules, and the
free-length shooting options."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class ModelParams:
    """Problem constants.

    theta0  angle of the incoming light rays, in ]0, pi/2[; the rays travel
            along (sin theta0, -cos theta0)
    kappa   leaf density per unit stem length (fixed-thickness model)
    ell     stem length (fixed-length model)
    rho     stems per unit length (fixed-thickness equilibrium)
    alpha   concave transport-cost exponent, in ]0, 1[ (variable-mass model)
    c       transport cost coefficient (variable-mass model)
    rho0    stem density (variable-mass equilibrium)
    """

    theta0: float
    kappa: float = 1.0
    ell: float = 1.0
    rho: float = 0.0
    alpha: float = 0.5
    c: float = 1.0
    rho0: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if not 0.0 < self.theta0 < math.pi / 2:
            raise ValueError(f"theta0 must lie in ]0, pi/2[, got {self.theta0}")
        if self.kappa <= 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.ell <= 0.0:
            raise ValueError(f"ell must be positive, got {self.ell}")
        if self.rho < 0.0:
            raise ValueError(f"rho must be non-negative, got {self.rho}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must lie in ]0, 1[, got {self.alpha}")
        if self.c <= 0.0:
            raise ValueError(f"c must be positive, got {self.c}")
        if self.rho0 < 0.0:
            raise ValueError(f"rho0 must be non-negative, got {self.rho0}")


@dataclass(frozen=True)
class Op2Config:
    """Options of the free-length shooting, `model2.shoot_op2`.  `rtol` is
    the relative tolerance of the DP45 shots and also Brent's stop on the
    ground residual and the tip-height bracket, the accuracy those shots
    deliver."""

    h_bracket: tuple[float, float] | None = None
    scan_samples: int = 200
    rtol: float = 1e-11
    atol: float = 1e-13
    n_out: int = 4096                  # uniform output resolution
