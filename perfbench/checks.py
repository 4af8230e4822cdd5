"""Per-solve checks at the acceptance tolerances of tests/test_acceptance.py.

Each check reads what the CLI wrote (manifest, summary, artifacts) and
returns None when the solve passes or a one-line reason when it misses.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

EQ1_RESIDUAL_TOL = 1e-6     # criterion 07
EQ2_TOL = 1e-5              # criterion 08
MASS_REL_TOL = 1e-12        # deposited mass equals kappa*ell*trapz(rho_bar) to rounding


def verify_manifest(out: Path) -> dict:
    """Output hashes of the solve; raises ValueError if a file does not match."""
    manifest = json.loads((out / "manifest.json").read_text())
    for name, digest in manifest["outputs"].items():
        if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
            raise ValueError(f"manifest hash mismatch for {name}")
    return manifest["outputs"]


def _over(label: str, value, tol: float) -> str | None:
    if value is None or not math.isfinite(value) or abs(value) > tol:
        return f"{label}={value!r} exceeds {tol:g}"
    return None


def check_eq1(summary: dict, draw: dict, fixed: dict, extra: dict) -> str | None:
    return (_over("residual_refit", summary["residual_refit"], EQ1_RESIDUAL_TOL)
            or _over("residual_map", summary["residual_map"], EQ1_RESIDUAL_TOL))


def check_eq2(summary: dict, draw: dict, fixed: dict, extra: dict) -> str | None:
    # the summary carries the primary (direct) residuals; the fixed-point
    # residuals are taken from the solver's return value
    fp = extra.get("fixed_point")
    if fp is None:
        return "fixed-point result not captured"
    return (_over("direct.residual_refit", summary["residual_refit"], EQ2_TOL)
            or _over("direct.residual_map", summary["residual_map"], EQ2_TOL)
            or _over("fixed_point.residual_refit", fp["residual_refit"], EQ2_TOL)
            or _over("fixed_point.residual_map", fp["residual_map"], EQ2_TOL)
            or _over("method_gap_h", summary.get("method_gap_h"), EQ2_TOL)
            or _over("method_gap_I", summary.get("method_gap_I"), EQ2_TOL))


def expected_halfline_mass(draw: dict, fixed: dict) -> float:
    """kappa * ell * trapz(rho_bar) over the generated root positions."""
    b = draw["b"]
    xi = np.linspace(0.0, 3.0 * b, fixed["n_stems"])
    rho_bar = draw["rho_scale"] * np.clip(xi / b, 0.0, 1.0)
    return fixed["kappa"] * fixed["ell"] * float(np.trapezoid(rho_bar, xi))


def check_halfline(summary: dict, draw: dict, fixed: dict, extra: dict) -> str | None:
    # non-convergence of the half-line relaxation is reported, not failed
    numbers = [summary["deposited_mass"], *summary["changes"],
               *summary["theta_root"]]
    if not all(math.isfinite(v) for v in numbers):
        return "non-finite value in summary.json"
    for name in ("family.csv", "field.csv"):
        text = (extra["out"] / name).read_bytes().lower()
        if b"nan" in text or b"inf" in text:
            return f"non-finite value in {name}"
    expected = expected_halfline_mass(draw, fixed)
    rel = abs(summary["deposited_mass"] - expected) / expected
    if not rel <= MASS_REL_TOL:
        return f"deposited_mass rel. difference {rel:.3g} exceeds {MASS_REL_TOL:g}"
    return None


CHECKS = {"eq1": check_eq1, "eq2": check_eq2,
          "halfline": check_halfline}
