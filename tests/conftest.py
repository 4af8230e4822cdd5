import math
import tracemalloc

import pytest

from stemopt import LightProfile, ModelParams
from stemopt import equilibrium2, model2


@pytest.fixture(scope="session")
def params45():
    """Fixed-length model constants used throughout: 45-degree light."""
    return ModelParams(theta0=math.pi / 4, kappa=1.0, ell=1.0)


@pytest.fixture(scope="session")
def params2():
    """Free-length model constants with the closed-form-friendly exponent."""
    return ModelParams(theta0=math.pi / 4, alpha=0.5, c=1.0)


@pytest.fixture(scope="session")
def const_profile():
    return LightProfile.constant(1.0)


@pytest.fixture(scope="session")
def canopy_profile():
    """Smooth canopy with small slope; passes the uniqueness condition."""
    return LightProfile.constant_rate_canopy(0.1, 1.0)


@pytest.fixture(scope="session")
def stem_flat(params2, const_profile):
    """Full-light free-length solution (closed forms available)."""
    return model2.shoot_op2(const_profile, params2)


@pytest.fixture(scope="session")
def stem_canopy(params2, canopy_profile):
    """Free-length solution under the smooth canopy (nonzero height costate)."""
    return model2.shoot_op2(canopy_profile, params2)


@pytest.fixture(scope="session")
def pair_001():
    """Verified direct and fixed-point equilibria at rho0 = 0.01, with their
    parameters; shared so the suite solves this fixed point once."""
    params = ModelParams(theta0=math.pi / 4, alpha=0.5, c=1.0, rho0=0.01)
    return (equilibrium2.solve_equilibrium_direct(params),
            equilibrium2.solve_equilibrium_fixed_point(params),
            params)


@pytest.fixture(scope="session")
def traced_peak():
    def peak(fn):
        """Bytes a call allocates at its peak, above what was live before it."""
        fn()   # fills any per-parameter cache first
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
    return peak
