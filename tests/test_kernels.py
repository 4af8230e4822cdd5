import math

import numpy as np
import pytest

from stemopt import equilibrium2 as e2
from stemopt import kernels, lightfield, model1, model2, oracles, spatial
from stemopt.lightfield import LightProfile
from stemopt.params import ModelParams


def test_each_shared_kernel_has_one_definition():
    for module, name in [(model1, "capture_transverse"), (model1, "_G_parts"),
                         (spatial, "capture_transverse"), (spatial, "_G_parts"),
                         (spatial, "trapezoid_cumulative")]:
        assert getattr(module, name) is getattr(kernels, name), (module, name)
        assert getattr(kernels, name).__module__ == "stemopt.kernels"


@pytest.fixture
def unique_inputs(monkeypatch):
    """The arrays each caller of sorted_unique passes it, by module."""
    seen = {}
    for module in (lightfield, oracles, model2, e2):
        def record(a, name=module.__name__):
            seen.setdefault(name, []).append(np.array(a, copy=True))
            return kernels.sorted_unique(a)
        monkeypatch.setattr(module, "sorted_unique", record)
    return seen


def test_sorted_unique_is_np_unique_on_the_real_grids(unique_inputs, params45,
                                                      params2, canopy_profile):
    lightfield.check_class_F(LightProfile.mollified_step(0.3, 0.6, 0.1), y_max=1.0)
    lightfield.check_uniqueness_condition(canopy_profile, params45, 1.0)
    oracles.oracle_op1(canopy_profile, params45, 8, 9)   # descent, refined grids
    stem = model2.shoot_op2(LightProfile.constant(1.0), params2)
    e2.shade_map(stem, ModelParams(theta0=math.pi / 4, alpha=0.5, c=1.0, rho0=0.01))
    e2.solve_equilibrium_fixed_point(
        ModelParams(theta0=math.pi / 4, alpha=0.5, c=1.0, rho0=0.0))
    assert set(unique_inputs) == {"stemopt.lightfield", "stemopt.oracles",
                                  "stemopt.model2", "stemopt.equilibrium2"}
    assert len(unique_inputs["stemopt.equilibrium2"]) == 1   # the fixed point's y grid
    for arrays in unique_inputs.values():
        for a in arrays:
            got, want = kernels.sorted_unique(a), np.unique(a)
            assert np.array_equal(got, want)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_sorted_unique_drops_repeats_of_any_order():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 50, 400).astype(float) / 7.0
    assert np.array_equal(kernels.sorted_unique(a), np.unique(a))
    assert kernels.sorted_unique(np.empty(0)).shape == (0,)
