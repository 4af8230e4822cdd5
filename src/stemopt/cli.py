"""Scenario-driven command line: parse a config, run the requested solver,
write CSV/JSON artifacts plus a hashed manifest.

Exit codes: 0 success, 1 usage or validation error, 2 solver non-convergence.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import math
import sys
from collections import namedtuple
from dataclasses import dataclass, replace
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import __version__, equilibrium1, equilibrium2, lightfield, model1, model2, spatial
from .errors import (
    NoArtifactsError,
    NotConvergedError,
    ParseError,
    StemOptError,
    ValidationError,
)
from .params import ModelParams, Op2Config

SCHEMA_VERSION = 1


@dataclass
class Scenario:
    """A parsed scenario file: its kind, typed parameters, light profile and options."""

    kind: str
    params: ModelParams
    profile: lightfield.LightProfile | None
    options: dict          # typed value of every option key the kind reads
    source_path: str


# ---------------------------------------------------------------------------
# Artifact helpers
# ---------------------------------------------------------------------------

def _fmt(v: float) -> str:
    return f"{v:.12g}"


def _write_csv(path: Path, columns: dict):
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for row in zip(*columns.values()):
            fh.write(",".join(_fmt(float(v)) for v in row) + "\n")


def _write_json(path: Path, obj):
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 16):
            digest.update(chunk)
    return digest.hexdigest()


def _listed(out: Path) -> dict:
    """The outputs that the directory's manifest lists ({} without one)."""
    try:
        listed = json.loads((out / "manifest.json").read_text())["outputs"]
    except (OSError, ValueError, KeyError, TypeError):
        return {}
    return listed if isinstance(listed, dict) else {}


# ---------------------------------------------------------------------------
# Runners: each solves its scenario and returns (files, residuals), where
# files maps an output name to its CSV columns ({header: values}, for a
# .csv name) or its JSON object; none of them touches the filesystem
# ---------------------------------------------------------------------------

def _run_op1(scn: Scenario):
    shapes = model1.solve_op1(scn.profile, scn.params, n_grid=scn.options["grid"])
    best = shapes[0]
    files = {"shape.csv": {"y": best.y, "theta": best.theta, "x": best.x,
                           "I": scn.profile.eval(best.y)},
             "summary.json": {"h": best.h, "lambda": best.lam, "payoff": best.payoff,
                              "length_error": best.length_error,
                              "candidates": [{"h": s.h, "payoff": s.payoff,
                                              "lambda": s.lam} for s in shapes]}}
    if scn.options["example34"]:
        nu = model1.find_nonuniqueness_epsilon(scn.params)
        files["nonuniqueness.json"] = {
            "eps_hat": nu.eps_hat, "eps_one": nu.eps_one,
            "payoff_low": nu.payoff_low, "payoff_high": nu.payoff_high,
            "h_low": nu.shape_low.h, "h_high": nu.shape_high.h,
        }
    return files, {"length_error": best.length_error}


def _run_eq1(scn: Scenario):
    res = equilibrium1.solve_equilibrium1(scn.params)
    return {"equilibrium.csv": {"y": res.y, "theta_star": res.theta_star,
                                "I_star": res.I_star.eval(res.y), "x": res.x},
            "summary.json": {
                "h_star": res.h_star, "rho_kappa": scn.params.rho * scn.params.kappa,
                "residual_refit": res.residual_refit, "residual_map": res.residual_map,
                "uniqueness_ok": res.uniqueness_ok,
                "uniqueness_margin": res.uniqueness_margin,
            }}, {"refit": res.residual_refit, "map": res.residual_map}


def _run_op2(scn: Scenario):
    opt = scn.options
    bracket = None if opt["h_lo"] is None else (opt["h_lo"], opt["h_hi"])
    cfg = Op2Config(h_bracket=bracket, scan_samples=opt["scan_samples"],
                    rtol=opt["tol"])
    st = model2.shoot_op2(scn.profile, scn.params, cfg)
    return {"stem.csv": {"y": st.y, "theta": st.theta, "u": st.u, "I": st.I,
                         "p": st.p, "q": st.q, "z": st.z, "x": st.x},
            "summary.json": {
                "h": st.h, "T": st.T, "payoff": st.payoff,
                "transport_cost": st.transport_cost,
                "hamiltonian_max_abs": st.hamiltonian_max_abs,
                "residual_q0": st.residual_q0,
                "h_candidates": st.h_candidates,
            }}, {"q0": st.residual_q0, "hamiltonian": st.hamiltonian_max_abs}


def _run_eq2(scn: Scenario):
    method = scn.options["method"]
    primary = error = None
    if method != "direct":
        try:
            primary = equilibrium2.solve_equilibrium_fixed_point(
                scn.params, damping=scn.options["damping"])
        except StemOptError as exc:
            if method == "fixed_point":
                raise
            error = exc   # raised after the direct solve, whose own error comes first
    if method != "fixed_point":
        # of the fixed point, keep only the profile and height that the method
        # gaps read: its stem is released before the direct solve, the output
        fixed, primary = primary and (primary.I_star, primary.h), None
        primary = equilibrium2.solve_equilibrium_direct(scn.params)
        if error is not None:
            raise error
    st = primary.stem
    summary = {
        "rho0": scn.params.rho0, "h": primary.h, "iterations": primary.iterations,
        "residual_map": primary.residual_map, "residual_refit": primary.residual_refit,
        "method": primary.method, "h_roots": primary.h_roots,
        "class_f_ok": primary.class_f_ok, "multiroot_flag": primary.multiroot_flag,
    }
    if method == "both":
        I_fixed, h_fixed = fixed
        summary["method_gap_I"] = equilibrium2.profile_gap(
            primary.I_star, I_fixed, max(primary.h, h_fixed))
        summary["method_gap_h"] = abs(primary.h - h_fixed)
    return {"equilibrium.csv": {"y": st.y, "theta": st.theta, "u": st.u,
                                "I_star": primary.I_star.eval(st.y),
                                "p": st.p, "q": st.q, "z": st.z},
            "summary.json": summary}, {"map": primary.residual_map,
                                       "refit": primary.residual_refit}


def _run_sweep(scn: Scenario):
    values = list(scn.options["values"])
    h, residual_map = [], []
    for v in values:
        res = equilibrium2.solve_equilibrium_direct(replace(scn.params, rho0=v),
                                                    verify=False)
        h.append(res.h)
        residual_map.append(res.residual_map)
    return {"sweep.csv": {"rho0": values, "h": h, "residual_map": residual_map},
            "summary.json": {"parameter": "rho0", "values": values, "h": h,
                             "residual_map": residual_map}}, \
        {"max_map": max(residual_map)}


def _run_op3(scn: Scenario):
    root = scn.options["root"]
    ell = scn.params.ell
    window = (root - 0.5 * ell, root + 1.5 * ell, 0.0, 1.2 * ell)
    fld = spatial.LightField2D.stratified(scn.profile, window, scn.options["nx"],
                                          scn.options["ny"])
    res = spatial.solve_op3_single(fld, root, scn.params)
    if not res.converged:
        raise NotConvergedError("forward-backward sweep did not converge")
    return {"stem.csv": {"s": res.s, "x": res.x, "y": res.y, "theta": res.theta},
            "summary.json": {
                "payoff": res.payoff,
                "stationarity_residual": res.stationarity_residual,
                "converged": res.converged, "sweeps": res.sweeps,
                "theta_left_range": res.theta_left_range,
            }}, {"stationarity": res.stationarity_residual}


def _run_halfline(scn: Scenario):
    res = spatial.halfline_relaxation(scn.params, **scn.options)
    fam, fld = res.family, res.report.field
    m, n = fam.x.shape
    X, Y = np.meshgrid(fld.x, fld.y)
    # non-convergence of the half-line conjecture is a reported outcome
    return {"family.csv": {"xi": np.repeat(fam.xi, n), "s": np.tile(fam.s, m),
                           "x": fam.x.ravel(), "y": fam.y.ravel(),
                           "theta": fam.theta.ravel()},
            "field.csv": {"x": X.ravel(), "y": Y.ravel(), "I": fld.I.ravel()},
            "summary.json": {
                "converged": res.converged, "iterations": len(res.changes),
                "changes": res.changes,
                "deposited_mass": res.report.deposited_mass,
                "capped_cells": res.report.capped_cells,
                "theta_root": [float(v) for v in fam.theta[:, 0]],
            }}, {"last_change": res.changes[-1] if res.changes else 0.0}


def _flag(text: str) -> bool:
    if text.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError("expected true, false, yes, no, 1 or 0")
    return text.lower() in ("true", "yes", "1")


def _numbers(text: str) -> tuple[float, ...]:
    if not text.split():
        raise ValueError("expected one or more numbers")
    return tuple(map(float, text.split()))


class _Range(namedtuple("_Range", "default interval")):
    """A number key's spec (its default, as below) and the interval its
    solver needs, written like "]0, 1]" or "[2, inf["."""

    def holds(self, value) -> bool:
        lo, hi = (float(end) for end in self.interval[1:-1].split(","))
        return ((lo < value if self.interval[0] == "]" else lo <= value)
                and (value < hi if self.interval[-1] == "[" else value <= hi))


# Per kind: its [params] keys, all required; whether it reads a [profile];
# its option sections, {section: {key: spec}}; its solver module, which the
# parse executes; and its runner.  A key's spec is its default, whose type is
# the key's type; a tuple of the accepted words, the first being the default;
# a type or parser, for a key that must be given; None, for a number that may
# be left out; or a _Range of one of these.
_Kind = namedtuple("_Kind", "params profile options module runner")
_KINDS = {
    "op1": _Kind(("theta0", "kappa", "ell"), True,
                 {"solver": {"grid": _Range(2048, "[1, inf["), "example34": False}},
                 model1, _run_op1),
    "eq1": _Kind(("theta0", "kappa", "ell", "rho"), False, {}, equilibrium1, _run_eq1),
    "op2": _Kind(("theta0", "alpha", "c"), True,
                 {"solver": {"tol": _Range(Op2Config.rtol, "]0, inf["),
                             "scan_samples": _Range(Op2Config.scan_samples, "[2, inf["),
                             "h_lo": _Range(None, "]0, inf["),
                             "h_hi": _Range(None, "]0, inf[")}}, model2, _run_op2),
    "eq2": _Kind(("theta0", "alpha", "c", "rho0"), False,
                 {"solver": {"method": ("direct", "fixed_point", "both"),
                             "damping": _Range(0.5, "]0, 1]")}}, equilibrium2, _run_eq2),
    "op3": _Kind(("theta0", "kappa", "ell"), True,
                 {"op3": {"root": 0.0, "nx": _Range(64, "[2, inf["),
                          "ny": _Range(2048, "[2, inf[")}}, spatial, _run_op3),
    "halfline": _Kind(("theta0", "kappa", "ell"), False,
                      {"halfline": {"rho_scale": _Range(0.01, "[0, inf["),
                                    "b": _Range(1.0, "]0, inf["),
                                    "n_stems": _Range(9, "[2, inf["),
                                    "iterations": _Range(10, "[0, inf["),
                                    "relax": _Range(0.3, "]0, 1]"),
                                    "grid": _Range(160, "[2, inf[")}},
                      spatial, _run_halfline),
    "sweep": _Kind(("theta0", "alpha", "c"), False,
                   {"sweep": {"parameter": ("rho0",), "values": _numbers}},
                   equilibrium2, _run_sweep),
}

# profile kind -> (the name in `lightfield` of its constructor, which takes the
# key values in order; keys).  Only a parse that reads a [profile] runs lightfield.
_PROFILES = {
    "constant": ("LightProfile.constant", {"level": 1.0}),
    "step": ("LightProfile.step", {"epsilon": float, "y_jump": 1.0}),
    "mollified-step": ("LightProfile.mollified_step",
                       {"epsilon": float, "y_jump": 1.0, "width": 0.05}),
    "tabulated": ("load_tabulated_csv", {"csv": Path}),
    "exponential-canopy": ("LightProfile.constant_rate_canopy",
                           {"rate": float, "height": float}),
}


def _typed(name: str, text: str | None, spec):
    """The value of key `name` (None when absent), typed by its spec."""
    if isinstance(spec, _Range):
        value = _typed(name, text, spec.default)
        if value is not None and not spec.holds(value):
            raise ValidationError(name, f"{value!r} is outside {spec.interval}")
        return value
    if isinstance(spec, tuple):
        if text is not None and text not in spec:
            raise ValidationError(name, f"{text!r} is not one of {', '.join(spec)}")
        return spec[0] if text is None else text
    if text is None:
        if callable(spec):
            raise ValidationError(name, "missing required value")
        return spec
    parse = spec if callable(spec) else type(spec)
    try:
        value = {bool: _flag, type(None): float}.get(parse, parse)(text)
    except ValueError as exc:
        raise ValidationError(name, f"malformed value {text!r}: {exc}") from None
    if isinstance(value, float) and not math.isfinite(value):
        raise ValidationError(name, f"not a finite number: {text!r}")
    return value


def _read(cp: configparser.ConfigParser, section: str, keys: dict) -> dict:
    """Typed values of a section's keys; a key not in `keys` is rejected."""
    given = cp[section] if cp.has_section(section) else {}
    for key in given:
        if key not in keys:
            raise ValidationError(f"{section}.{key}", "not read by this kind "
                                  f"(accepted: {', '.join(keys) or 'none'})")
    return {key: _typed(f"{section}.{key}", given.get(key), spec)
            for key, spec in keys.items()}


def parse_scenario(path) -> Scenario:
    """Read a scenario file and type every value against its kind's schema;
    a key the kind does not read, misses or cannot use raises ValidationError."""
    path = Path(path)
    cp = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, configparser.Error) as exc:
        raise ParseError(f"{path}: {exc}") from exc

    head = _read(cp, "scenario", {"schema_version": int, "kind": str})
    if head["schema_version"] != SCHEMA_VERSION:
        raise ValidationError("scenario.schema_version",
                              f"unsupported version {head['schema_version']}")
    kind, spec = head["kind"], _KINDS.get(head["kind"])
    if spec is None:
        raise ValidationError("scenario.kind", f"must be one of {', '.join(_KINDS)}")

    read, profile = ["scenario", "params", *spec.options], None
    if spec.profile:
        if "profile" not in cp:
            raise ValidationError("profile", f"required for kind={kind}")
        read.append("profile")
        name = _typed("profile.kind", cp["profile"].get("kind"), tuple(_PROFILES))
        build, keys = _PROFILES[name]
        given = _read(cp, "profile", {"kind": name, **keys})
        if name == "tabulated":
            given["csv"] = path.parent / given["csv"]
        try:
            profile = attrgetter(build)(lightfield)(*(given[key] for key in keys))
        except (ValueError, OSError) as exc:
            raise ValidationError(f"profile.{name}", str(exc)) from exc
        if kind == "op2" and name == "step":
            # the free-length shot sees no jump of the light, only its slope
            raise ValidationError("profile.kind", "op2 cannot solve a step light; "
                                  "use mollified-step")
    for section in cp.sections():
        if section not in read:
            _read(cp, section, {})   # rejects the section's first key

    values = _read(cp, "params", dict.fromkeys(spec.params, float))
    options = {}
    for section, keys in spec.options.items():
        options.update(_read(cp, section, keys))
    if kind == "op2" and (options["h_lo"] is None) != (options["h_hi"] is None):
        raise ValidationError("solver.h_lo" if options["h_hi"] is None else "solver.h_hi",
                              "the warm bracket needs both h_lo and h_hi")
    try:
        params = ModelParams(**values)
        for rho0 in options.get("values", ()):   # each swept density
            replace(params, rho0=rho0)
    except ValueError as exc:
        key = str(exc).split(" ", 1)[0]   # ModelParams names the field first
        raise ValidationError(f"params.{key}" if key in values else "sweep.values",
                              str(exc)) from exc
    vars(spec.module)   # runs the kind's lazily registered solver modules now
    return Scenario(kind=kind, params=params, profile=profile, options=options,
                    source_path=str(path))


def run(scenario: Scenario, out_dir, quiet: bool = False) -> int:
    """Execute a scenario; returns the process exit code.  The output
    directory is made and written only once the runner has returned, so a
    run that fails leaves the filesystem as it was.  A run that succeeds
    then removes what an earlier run left there and did not rewrite: the
    outputs its manifest listed, and plot data."""
    try:
        files, residuals = _KINDS[scenario.kind].runner(scenario)
    except NotConvergedError as exc:
        if not quiet:
            print(f"solver did not converge: {exc}", file=sys.stderr)
        return 2
    source = {"path": scenario.source_path,
              "sha256": _sha256(Path(scenario.source_path)), "kind": scenario.kind}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # plain file names only: a manifest cannot point the clean-up elsewhere
    stale = sorted({*_listed(out), "plotdata.csv"} - {*files, "manifest.json"})
    stale = [out / name for name in stale if Path(name).name == name]
    for name, content in files.items():
        (_write_csv if name.endswith(".csv") else _write_json)(out / name, content)
    _write_json(out / "manifest.json", {
        "schema_version": SCHEMA_VERSION, "tool": "stemopt",
        "tool_version": __version__, "scenario": source,
        "outputs": {name: _sha256(out / name) for name in files},
        "residuals": residuals,
    })
    if not quiet:
        for name in (*files, "manifest.json"):
            print(f"wrote {out / name}")
    for path in stale:
        if path.is_file():
            path.unlink()
            if not quiet:
                print(f"removed {path}")
    return 0


# ---------------------------------------------------------------------------
# Plot data
# ---------------------------------------------------------------------------

def emit_plotdata(out_dir) -> Path:
    """Collect the curve artifacts that the directory's manifest lists (an
    op1, op2, eq1, eq2 or op3 run's) into a tidy long-format CSV (series, x, y)."""
    out = Path(out_dir)
    curves = [name for name in ("shape.csv", "stem.csv", "equilibrium.csv")
              if name in _listed(out)]
    if not curves:
        raise NoArtifactsError(f"no curve artifacts listed in {out / 'manifest.json'}")
    rows: list[tuple[str, float, float]] = []
    for curve in curves:
        with open(out / curve) as fh:
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
        solver = _KINDS[scenario.kind].options.get("solver", {})
        for key, value in (("grid", args.grid), ("tol", args.tol)):
            if value is not None:
                if key not in solver:
                    raise ValidationError(f"--{key}", f"not read by kind={scenario.kind}")
                scenario.options[key] = _typed(f"--{key}", str(value), solver[key])
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        code = run(scenario, args.out, quiet=args.quiet)
        if code == 0 and args.plotdata:
            emit_plotdata(args.out)
    except StemOptError as exc:
        print(f"error: {exc}", *getattr(exc, "__notes__", ()), sep="\n", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
