"""stemopt: optimal sunlight-harvesting stem shapes and canopy equilibria.

Solvers for two single-stem optimization models (fixed length/thickness and
free length/leaf density), their competitive equilibria under self-generated
shade, a planar light-field variant, and brute-force oracles validating each
solver independently.

Importing the package registers every submodule in ``sys.modules`` without
executing it; a submodule runs on the first access to one of its attributes,
so a run executes only the modules whose code it calls (a half-line run:
``cli``, ``errors``, ``params``, ``kernels`` and ``spatial``).  The public
names below resolve to their defining module's object.
"""

import importlib.util
import sys

__version__ = "0.1.0"

# submodule -> the public names the package re-exports from it
_PUBLIC = {
    "errors": (),
    "kernels": (),
    "numerics": (),
    "params": ("ModelParams", "Op2Config"),
    "lightfield": ("LightProfile", "RegularityReport", "check_class_F",
                   "check_uniqueness_condition", "load_tabulated_csv"),
    "model1": ("StemShape1", "NonUniqueness", "g_profile", "phi_inverse", "solve_op1",
               "find_nonuniqueness_epsilon"),
    "equilibrium1": ("Equilibrium1Result", "solve_bcp", "solve_equilibrium1",
                     "verify_fixed_point"),
    "model2": ("G2", "StemState2", "feedback_TU", "z_first_integral", "shoot_op2"),
    "equilibrium2": ("Equilibrium2Result", "shade_map", "solve_equilibrium_fixed_point",
                     "solve_equilibrium_direct", "verify_equilibrium"),
    "spatial": ("LightField2D", "StemFamily", "solve_op3_single", "light_from_family",
                "halfline_relaxation"),
    "oracles": ("OracleResult", "Oracle2Result", "payoff_op1", "fold_angles",
                "rearrange_nonincreasing", "oracle_op1", "oracle_op2"),
    "cli": (),
}
_OWNER = {name: module for module, names in _PUBLIC.items() for name in names}
__all__ = [*_OWNER, "__version__"]


def _register(module: str):
    spec = importlib.util.find_spec(f"{__name__}.{module}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    lazy = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


globals().update({module: _register(module) for module in _PUBLIC})


def __getattr__(name: str):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_OWNER[name]], name)
