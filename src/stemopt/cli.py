"""Scenario-driven command line: parse a config, run the requested solver,
write CSV/JSON artifacts plus a hashed manifest.

Exit codes: 0 success, 1 usage or validation error, 2 solver non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import equilibrium1, equilibrium2, model1, model2, spatial
from .errors import (
    NoArtifactsError,
    NotConvergedError,
    ParseError,
    StemOptError,
    ValidationError,
)
from .lightfield import LightProfile, load_tabulated_csv
from .model2 import Op2Config
from .params import ModelParams

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"

KINDS = ("op1", "eq1", "op2", "eq2", "op3", "halfline", "sweep")

_KNOWN_KEYS = {
    "scenario": {"schema_version", "kind"},
    "params": {"theta0", "kappa", "ell", "rho", "alpha", "c", "rho0"},
    "profile": {"kind", "level", "epsilon", "y_jump", "width", "csv",
                "rate", "height"},
    "sweep": {"parameter", "values"},
    "halfline": {"rho_scale", "b", "n_stems", "iterations", "grid", "relax"},
    "op3": {"root", "nx", "ny"},
}

# [solver] keys each kind reads; any other key is rejected
_SOLVER_KEYS = {
    "op1": {"grid", "example34"},
    "op2": {"tol", "scan_samples", "h_lo", "h_hi"},
    "eq2": {"method", "damping"},
}

_REQUIRED_PARAMS = {
    "op1": ("theta0", "kappa", "ell"),
    "eq1": ("theta0", "kappa", "ell", "rho"),
    "op2": ("theta0", "alpha", "c"),
    "eq2": ("theta0", "alpha", "c", "rho0"),
    "op3": ("theta0", "kappa", "ell"),
    "halfline": ("theta0", "kappa", "ell"),
    "sweep": ("theta0", "alpha", "c"),
}


@dataclass
class Scenario:
    kind: str
    params: ModelParams
    profile: LightProfile | None
    solver: dict = field(default_factory=dict)
    sweep: dict = field(default_factory=dict)
    halfline: dict = field(default_factory=dict)
    op3: dict = field(default_factory=dict)
    source_path: str = ""


def _get_float(section, key, name):
    try:
        return float(section[key])
    except KeyError:
        raise ValidationError(name, "missing required value")
    except ValueError:
        raise ValidationError(name, f"not a number: {section[key]!r}")


def parse_scenario(path) -> Scenario:
    """Read and validate a scenario file; unknown keys are rejected with
    their location."""
    path = Path(path)
    if not path.exists():
        raise ParseError(f"scenario file not found: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",))
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if "scenario" not in cp:
        raise ValidationError("scenario", "missing [scenario] section")

    for section in cp.sections():
        if section == "solver":
            continue  # its keys depend on the kind, checked below
        if section not in _KNOWN_KEYS:
            raise ValidationError(section, "unknown section")
        for key in cp[section]:
            if key not in _KNOWN_KEYS[section]:
                raise ValidationError(f"{section}.{key}", "unknown key")

    meta = cp["scenario"]
    version = int(meta.get("schema_version", "-1"))
    if version != SCHEMA_VERSION:
        raise ValidationError("scenario.schema_version",
                              f"unsupported version {version}")
    kind = meta.get("kind", "")
    if kind not in KINDS:
        raise ValidationError("scenario.kind", f"must be one of {KINDS}")

    psec = cp["params"] if "params" in cp else {}
    for req in _REQUIRED_PARAMS[kind]:
        if req not in psec:
            raise ValidationError(req, f"required for kind={kind}")
    kwargs = {}
    for key in _KNOWN_KEYS["params"]:
        if key in psec:
            kwargs[key] = _get_float(psec, key, key)
    try:
        params = ModelParams(**kwargs)
    except ValueError as exc:
        msg = str(exc)
        name = msg.split(" ", 1)[0]
        raise ValidationError(name, msg) from exc

    profile = None
    if "profile" in cp:
        profile = _build_profile(cp["profile"], path.parent)
    elif kind in ("op1", "op2", "op3"):
        raise ValidationError("profile", f"required for kind={kind}")

    solver = dict(cp["solver"]) if "solver" in cp else {}
    for key in solver:
        _check_solver_key(kind, key, f"solver.{key}")
    sweep = dict(cp["sweep"]) if "sweep" in cp else {}
    halfline = dict(cp["halfline"]) if "halfline" in cp else {}
    op3 = dict(cp["op3"]) if "op3" in cp else {}
    if kind == "sweep":
        if "parameter" not in sweep or "values" not in sweep:
            raise ValidationError("sweep.values", "sweep needs parameter and values")
        if sweep["parameter"] != "rho0":
            raise ValidationError("sweep.parameter", "only rho0 sweeps supported")
    return Scenario(kind=kind, params=params, profile=profile, solver=solver,
                    sweep=sweep, halfline=halfline, op3=op3,
                    source_path=str(path))


def _check_solver_key(kind: str, key: str, name: str):
    accepted = sorted(_SOLVER_KEYS.get(kind, ()))
    if key not in accepted:
        raise ValidationError(
            name, f"not read by kind={kind} (accepted: {', '.join(accepted) or 'none'})")


def _build_profile(sec, base_dir: Path) -> LightProfile:
    kind = sec.get("kind", "constant")
    try:
        if kind == "constant":
            return LightProfile.constant(float(sec.get("level", "1.0")))
        if kind == "step":
            return LightProfile.step(_get_float(sec, "epsilon", "profile.epsilon"),
                                     float(sec.get("y_jump", "1.0")))
        if kind == "mollified-step":
            return LightProfile.mollified_step(
                _get_float(sec, "epsilon", "profile.epsilon"),
                float(sec.get("y_jump", "1.0")),
                float(sec.get("width", "0.05")))
        if kind == "tabulated":
            if "csv" not in sec:
                raise ValidationError("profile.csv", "tabulated profile needs a csv path")
            return load_tabulated_csv(base_dir / sec["csv"])
        if kind == "exponential-canopy":
            return LightProfile.constant_rate_canopy(
                _get_float(sec, "rate", "profile.rate"),
                _get_float(sec, "height", "profile.height"))
    except ValueError as exc:
        raise ValidationError(f"profile.{kind}", str(exc)) from exc
    raise ValidationError("profile.kind", f"unknown profile kind {kind!r}")


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _write_csv(path: Path, header: list[str], columns: list[np.ndarray]):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in zip(*columns):
            fh.write(",".join(_fmt(float(v)) for v in row) + "\n")


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _finish(out: Path, scenario: Scenario, outputs: list[Path], residuals: dict):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "tool": "stemopt",
        "tool_version": TOOL_VERSION,
        "scenario": {
            "path": scenario.source_path,
            "sha256": _sha256(Path(scenario.source_path)),
            "kind": scenario.kind,
        },
        "outputs": {p.name: _sha256(p) for p in outputs},
        "residuals": residuals,
    }
    _write_json(out / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# Runners
# ---------------------------------------------------------------------------

def _run_op1(scn: Scenario, out: Path) -> dict:
    n_grid = int(scn.solver.get("grid", "2048"))
    shapes = model1.solve_op1(scn.profile, scn.params, n_grid=n_grid)
    best = shapes[0]
    _write_csv(out / "shape.csv", ["y", "theta", "x", "I"],
               [best.y, best.theta, best.x, scn.profile.eval(best.y)])
    summary = {
        "h": best.h, "lambda": best.lam, "payoff": best.payoff,
        "length_error": best.length_error,
        "candidates": [{"h": s.h, "payoff": s.payoff, "lambda": s.lam}
                       for s in shapes],
    }
    _write_json(out / "summary.json", summary)
    outputs = [out / "shape.csv", out / "summary.json"]
    if scn.solver.get("example34", "false").lower() in ("1", "true", "yes"):
        nu = model1.find_nonuniqueness_epsilon(scn.params)
        _write_json(out / "nonuniqueness.json", {
            "eps_hat": nu.eps_hat, "eps_one": nu.eps_one,
            "payoff_low": nu.payoff_low, "payoff_high": nu.payoff_high,
            "h_low": nu.shape_low.h, "h_high": nu.shape_high.h,
        })
        outputs.append(out / "nonuniqueness.json")
    return {"outputs": outputs, "residuals": {"length_error": best.length_error}}


def _run_eq1(scn: Scenario, out: Path) -> dict:
    res = equilibrium1.solve_equilibrium1(scn.params)
    _write_csv(out / "equilibrium.csv", ["y", "theta_star", "I_star", "x"],
               [res.y, res.theta_star, res.I_star.eval(res.y), res.x])
    _write_json(out / "summary.json", {
        "h_star": res.h_star, "rho_kappa": res.rho_kappa,
        "residual_refit": res.residual_refit, "residual_map": res.residual_map,
        "uniqueness_ok": res.uniqueness_ok,
        "uniqueness_margin": res.uniqueness_margin,
    })
    return {"outputs": [out / "equilibrium.csv", out / "summary.json"],
            "residuals": {"refit": res.residual_refit, "map": res.residual_map}}


def _op2_config(scn: Scenario) -> Op2Config:
    cfg = Op2Config()
    if "tol" in scn.solver:
        cfg.rtol = float(scn.solver["tol"])
    if "scan_samples" in scn.solver:
        cfg.scan_samples = int(scn.solver["scan_samples"])
    if "h_lo" in scn.solver and "h_hi" in scn.solver:
        cfg.h_bracket = (float(scn.solver["h_lo"]), float(scn.solver["h_hi"]))
    return cfg


def _run_op2(scn: Scenario, out: Path) -> dict:
    st = model2.shoot_op2(scn.profile, scn.params, _op2_config(scn))
    _write_csv(out / "stem.csv", ["y", "theta", "u", "I", "p", "q", "z", "x"],
               [st.y, st.theta, st.u, st.I, st.p, st.q, st.z, st.x])
    _write_json(out / "summary.json", {
        "h": st.h, "T": st.T, "payoff": st.payoff,
        "transport_cost": st.transport_cost,
        "hamiltonian_max_abs": st.hamiltonian_max_abs,
        "residual_q0": st.residual_q0,
        "h_candidates": st.h_candidates,
    })
    return {"outputs": [out / "stem.csv", out / "summary.json"],
            "residuals": {"q0": st.residual_q0,
                          "hamiltonian": st.hamiltonian_max_abs}}


def _eq2_summary(res) -> dict:
    return {
        "rho0": None, "h": res.h, "iterations": res.iterations,
        "residual_map": res.residual_map, "residual_refit": res.residual_refit,
        "method": res.method, "h_roots": res.h_roots,
        "class_f_ok": res.class_f_ok, "multiroot_flag": res.multiroot_flag,
    }


def _run_eq2(scn: Scenario, out: Path) -> dict:
    method = scn.solver.get("method", "direct")
    damping = float(scn.solver.get("damping", "0.5"))
    results = {}
    if method in ("direct", "both"):
        results["direct"] = equilibrium2.solve_equilibrium_direct(scn.params)
    if method in ("fixed_point", "both"):
        results["fixed_point"] = equilibrium2.solve_equilibrium_fixed_point(
            scn.params, damping=damping)
    primary = results.get("direct") or results["fixed_point"]
    st = primary.stem
    _write_csv(out / "equilibrium.csv", ["y", "theta", "u", "I_star", "p", "q", "z"],
               [st.y, st.theta, st.u, primary.I_star.eval(st.y), st.p, st.q, st.z])
    summary = _eq2_summary(primary)
    summary["rho0"] = scn.params.rho0
    if len(results) == 2:
        ys = np.linspace(0.0, max(r.h for r in results.values()) * 1.05, 2001)
        gap = float(np.max(np.abs(results["direct"].I_star.eval(ys)
                                  - results["fixed_point"].I_star.eval(ys))))
        summary["method_gap_I"] = gap
        summary["method_gap_h"] = abs(results["direct"].h
                                      - results["fixed_point"].h)
    _write_json(out / "summary.json", summary)
    return {"outputs": [out / "equilibrium.csv", out / "summary.json"],
            "residuals": {"map": primary.residual_map,
                          "refit": primary.residual_refit}}


def _run_sweep(scn: Scenario, out: Path) -> dict:
    values = [float(v) for v in scn.sweep["values"].split()]
    rows = []
    for v in values:
        res = equilibrium2.solve_equilibrium_direct(replace(scn.params, rho0=v))
        rows.append((v, res.h, res.residual_map))
    _write_csv(out / "sweep.csv", ["rho0", "h", "residual_map"],
               [np.array([r[i] for r in rows]) for i in range(3)])
    _write_json(out / "summary.json",
                {"parameter": "rho0", "values": values,
                 "h": [r[1] for r in rows],
                 "residual_map": [r[2] for r in rows]})
    return {"outputs": [out / "sweep.csv", out / "summary.json"],
            "residuals": {"max_map": max(r[2] for r in rows)}}


def _run_op3(scn: Scenario, out: Path) -> dict:
    root = float(scn.op3.get("root", "0.0"))
    nx = int(scn.op3.get("nx", "64"))
    ny = int(scn.op3.get("ny", "2048"))
    ell = scn.params.ell
    window = (root - 0.5 * ell, root + 1.5 * ell, 0.0, 1.2 * ell)
    fld = spatial.LightField2D.stratified(scn.profile, window, nx, ny)
    res = spatial.solve_op3_single(fld, root, scn.params)
    _write_csv(out / "stem.csv", ["s", "x", "y", "theta"],
               [res.s, res.x, res.y, res.theta])
    _write_json(out / "summary.json", {
        "payoff": res.payoff,
        "stationarity_residual": res.stationarity_residual,
        "converged": res.converged, "sweeps": res.sweeps,
        "theta_left_range": res.theta_left_range,
    })
    out_files = [out / "stem.csv", out / "summary.json"]
    if not res.converged:
        raise NotConvergedError("forward-backward sweep did not converge")
    return {"outputs": out_files,
            "residuals": {"stationarity": res.stationarity_residual}}


def _run_halfline(scn: Scenario, out: Path) -> dict:
    hf = scn.halfline
    res = spatial.halfline_relaxation(
        scn.params,
        rho_scale=float(hf.get("rho_scale", "0.01")),
        b=float(hf.get("b", "1.0")),
        n_stems=int(hf.get("n_stems", "9")),
        iterations=int(hf.get("iterations", "10")),
        relax=float(hf.get("relax", "0.3")),
        grid=int(hf.get("grid", "160")),
    )
    fam = res.family
    m, n = fam.x.shape
    xi_col = np.repeat(fam.xi, n)
    s_col = np.tile(fam.s, m)
    _write_csv(out / "family.csv", ["xi", "s", "x", "y", "theta"],
               [xi_col, s_col, fam.x.ravel(), fam.y.ravel(), fam.theta.ravel()])
    fld = res.report.field
    X, Y = np.meshgrid(fld.x, fld.y)
    _write_csv(out / "field.csv", ["x", "y", "I"],
               [X.ravel(), Y.ravel(), fld.I.ravel()])
    _write_json(out / "summary.json", {
        "converged": res.converged, "iterations": res.iterations,
        "changes": res.changes,
        "deposited_mass": res.report.deposited_mass,
        "capped_cells": res.report.capped_cells,
        "theta_root": [float(v) for v in fam.theta[:, 0]],
    })
    # non-convergence of the half-line conjecture is a reported outcome
    return {"outputs": [out / "family.csv", out / "field.csv", out / "summary.json"],
            "residuals": {"last_change": res.changes[-1] if res.changes else 0.0}}


_RUNNERS = {"op1": _run_op1, "eq1": _run_eq1, "op2": _run_op2, "eq2": _run_eq2,
            "sweep": _run_sweep, "op3": _run_op3, "halfline": _run_halfline}


def run(scenario: Scenario, out_dir, quiet: bool = False) -> int:
    """Execute a scenario; returns the process exit code."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    try:
        result = _RUNNERS[scenario.kind](scenario, out)
    except NotConvergedError as exc:
        if not quiet:
            print(f"solver did not converge: {exc}", file=sys.stderr)
        return 2
    _finish(out, scenario, result["outputs"], result["residuals"])
    if not quiet:
        for p in result["outputs"]:
            print(f"wrote {p}")
        print(f"wrote {out / 'manifest.json'}")
    return 0


# ---------------------------------------------------------------------------
# Plot data
# ---------------------------------------------------------------------------

def emit_plotdata(out_dir) -> Path:
    """Collect run artifacts into a tidy long-format CSV (series, x, y)."""
    out = Path(out_dir)
    rows: list[tuple[str, float, float]] = []
    candidates = [out / "shape.csv", out / "stem.csv", out / "equilibrium.csv"]
    found = False
    for path in candidates:
        if not path.exists():
            continue
        found = True
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
        cols = {name: data[:, i] for i, name in enumerate(header)}
        axis = "y" if "y" in cols else "s"
        for series, names in (("theta", ("theta", "theta_star")),
                              ("u", ("u",)),
                              ("I", ("I", "I_star"))):
            for name in names:
                if name in cols:
                    rows += [(series, float(a), float(b))
                             for a, b in zip(cols[axis], cols[name])]
                    break
        if "x" in cols and "y" in cols:
            rows += [("stem", float(a), float(b))
                     for a, b in zip(cols["x"], cols["y"])]
    if not found:
        raise NoArtifactsError(f"no curve artifacts found in {out}")
    path = out / "plotdata.csv"
    with open(path, "w", newline="") as fh:
        fh.write("series,x,y\n")
        for series, a, b in rows:
            fh.write(f"{series},{_fmt(a)},{_fmt(b)}\n")
    return path


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stemopt",
        description="Optimal sunlight-harvesting stems and canopy equilibria")
    parser.add_argument("--scenario", required=True, help="scenario config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--grid", type=int, default=None,
                        help="override the op1 solver grid size")
    parser.add_argument("--tol", type=float, default=None,
                        help="override the op2 solver tolerance")
    parser.add_argument("--quiet", action="store_true")
    parser.add_argument("--plotdata", action="store_true",
                        help="also emit tidy plot data")
    args = parser.parse_args(argv)

    try:
        scenario = parse_scenario(args.scenario)
        for key, value in (("grid", args.grid), ("tol", args.tol)):
            if value is not None:
                _check_solver_key(scenario.kind, key, f"--{key}")
                scenario.solver[key] = str(value)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        code = run(scenario, args.out, quiet=args.quiet)
    except StemOptError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if code == 0 and args.plotdata:
        emit_plotdata(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
