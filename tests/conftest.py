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
def pair_001_shots():
    """Filled by `pair_001`: per method, the count of its DP45 shots
    (`model2._shoot_once` calls) and the `residual_q0` of every stem
    `model2.shoot_op2` returned."""
    return {}


@pytest.fixture(scope="session")
def pair_001(pair_001_shots):
    """Verified direct and fixed-point equilibria at rho0 = 0.01, with their
    parameters; shared so the suite solves this fixed point once."""
    params = ModelParams(theta0=math.pi / 4, alpha=0.5, c=1.0, rho0=0.01)
    shoot_once, shoot_op2 = model2._shoot_once, model2.shoot_op2
    solved = []
    for method in ("direct", "fixed_point"):
        record = pair_001_shots[method] = {"shots": 0, "residual_q0": []}

        def counted(*args, record=record, **kwargs):
            record["shots"] += 1
            return shoot_once(*args, **kwargs)

        def stem(*args, record=record):
            solved_stem = shoot_op2(*args)
            record["residual_q0"].append(solved_stem.residual_q0)
            return solved_stem

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model2, "_shoot_once", counted)
            mp.setattr(model2, "shoot_op2", stem)
            solved.append(getattr(equilibrium2, f"solve_equilibrium_{method}")(params))
    return (*solved, params)


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
