"""Paired solve-cost benchmark of two checkouts of stemopt.

    python bench/bench.py --parent PARENT_ROOT --change CHANGE_ROOT \
        --runs 5 --out BENCH.json [--tier1]

A root is a checkout holding `src/stemopt` (and `tests/`, for `--tier1`).
Each run of a side is a fresh interpreter that imports stemopt from that
root, measures every entry below and prints one JSON object; the two sides
alternate, the parent first on even runs.  The JSON file records each run,
and per side the median and quartiles of every timing.

Kernel layer, microseconds per call (the best of 5 timeit repeats), on the
Python float heights and states that DP45 hands the light and costate:
- `eval` plus `derivative`, and `eval_and_slope` in `kernels.FLOATS`, for
  each profile kind;
- `model2._costate_rhs` on one state under a canopy;
- one DP45 shot under the canopy at its root height, per rhs evaluation;
- the DP45 loop alone on a trivial linear 3-state right side, per accepted
  step and per rhs evaluation;
- one Brent iteration of `numerics.find_root` on a cubic, per evaluation;
- building `LightProfile.exponential_canopy` on 4,642 knots, the size of
  the direct shade at rho0 = 0.05; the first run of each side also records
  the build's tracemalloc peak (`canopy_build.peak_mib`).

Solver layer, seconds of one call per run, among them `eq2.both`: the CLI's
eq2 runner with `method = both`, which solves and verifies the fixed point
and the direct method at one pinned rho0.  The first run of each side also
counts, for each solver entry, the rhs evaluations and accepted steps of
every `numerics.integrate` call, by wrapping the `OdeProblem` it is handed,
the calls and elements of the feedback inverse `phi_inverse`, and the calls
and summed sweeps of the planar solve `spatial.solve_op3_single`, and
records the counted call's tracemalloc peak above what was live before it,
in MiB (`peak_mib`; the call is warm, as the timed call has filled any
cache).  The counts and peaks are deterministic, so the timed runs run
unwrapped and untraced.  It also counts the accepted DP45 steps of one shot
at the direct solve's root height, under that solve's sampled shade
`I_star` and under the coupled shade, at rho0 = 0.01 and 0.05.

Set-up layer, per scenario kind, in a fresh interpreter that compiles
stemopt from source (an empty `PYTHONPYCACHEPREFIX` and
`PYTHONDONTWRITEBYTECODE=1`, as on a host that writes no bytecode), from
`import stemopt` through `cli.parse_scenario`, with numpy and the standard
library modules stemopt imports loaded first: the seconds of each run
(`setup.<kind>.s` in the timings) and, in the first run, the tracemalloc
peak in MiB (`setup.<kind>.peak_mib`).

`--tier1` also runs each side's test suite once and records its wall time.
Nothing here is a dependency of the package.
"""

from __future__ import annotations

import argparse
import ast
import dataclasses
import importlib.util
import json
import math
import os
import platform
import subprocess
import sys
import tempfile
import time
import timeit
import tracemalloc
from pathlib import Path

THETA0 = math.pi / 4
KNOTS = 2864   # knots of the sampled canopy and tabulated light
CANOPY_KNOTS = 4642   # knots of the direct solve's shade at rho0 = 0.05
# per kind: its [params] keys, whether it reads a [profile], and its options
SET_UP_KINDS = {
    "op1": ("theta0 kappa ell", True, ""),
    "eq1": ("theta0 kappa ell rho", False, ""),
    "op2": ("theta0 alpha c", True, ""),
    "eq2": ("theta0 alpha c rho0", False, ""),
    "op3": ("theta0 kappa ell", True, ""),
    "halfline": ("theta0 kappa ell", False, ""),
    "sweep": ("theta0 alpha c", False, "[sweep]\nvalues = 0.01 0.05\n"),
}
SET_UP_PARAMS = {"theta0": THETA0, "kappa": 1.0, "ell": 1.0, "rho": 0.05,
                 "alpha": 0.5, "c": 1.0, "rho0": 0.01}


def _per_call_us(fn, number):
    return min(timeit.repeat(fn, number=number, repeat=5)) / number * 1e6


def _peak_mib(fn):
    """The tracemalloc peak of one call above what was live before it, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def _profiles(LightProfile, np):
    y = np.linspace(0.0, 1.0, KNOTS)
    return {
        "constant": LightProfile.constant(0.8),
        "step": LightProfile.step(0.5, 0.9),
        "mollified-step": LightProfile.mollified_step(0.5, 0.2, 0.01),
        "tabulated": LightProfile.tabulated(y, 0.3 + 0.7 * y ** 2),
        "exponential-canopy": LightProfile.exponential_canopy(
            y, 2.0 * (1.0 - y) ** 2, 1.0),
    }


def _solver_entries(stemopt):
    from stemopt import cli, equilibrium1, equilibrium2, model1, model2, spatial
    LightProfile, ModelParams = stemopt.LightProfile, stemopt.ModelParams
    free = ModelParams(theta0=THETA0, alpha=0.5, c=1.0)
    both = cli.Scenario(kind="eq2", params=dataclasses.replace(free, rho0=0.01),
                        profile=None, options={"method": "both", "damping": 0.5},
                        source_path="")
    return {
        "shoot_op2.mollified_step": lambda: model2.shoot_op2(
            LightProfile.mollified_step(0.5, 0.2, 0.01), free),
        "shoot_op2.canopy": lambda: model2.shoot_op2(
            LightProfile.constant_rate_canopy(1.0, 1.0), free),
        "solve_equilibrium_direct.rho0_0.05": lambda: equilibrium2.solve_equilibrium_direct(
            dataclasses.replace(free, rho0=0.05)),
        "solve_equilibrium_fixed_point.rho0_0.01":
            lambda: equilibrium2.solve_equilibrium_fixed_point(
                dataclasses.replace(free, rho0=0.01)),
        "solve_equilibrium_fixed_point.rho0_0.001":
            lambda: equilibrium2.solve_equilibrium_fixed_point(
                dataclasses.replace(free, rho0=0.001)),
        # both verified solves and the method gaps, as `stemopt` runs them
        "eq2.both.rho0_0.01": lambda: cli._KINDS["eq2"].runner(both),
        "solve_equilibrium1.rho_0.05": lambda: equilibrium1.solve_equilibrium1(
            ModelParams(theta0=THETA0, kappa=1.0, ell=1.0, rho=0.05)),
        # the shape, profile and map residual alone: most of the verified
        # entry's time is the refit's solve_op1
        "solve_equilibrium1.rho_0.05.unverified": lambda: equilibrium1.solve_equilibrium1(
            ModelParams(theta0=THETA0, kappa=1.0, ell=1.0, rho=0.05), verify=False),
        "solve_op1.canopy": lambda: model1.solve_op1(
            LightProfile.constant_rate_canopy(1.0, 1.0),
            ModelParams(theta0=THETA0, kappa=1.0, ell=1.0)),
        # two continuity pieces above the jump, and a root on each side of it
        "solve_op1.step": lambda: model1.solve_op1(
            LightProfile.step(0.7, 1.0), ModelParams(theta0=THETA0, kappa=1.0, ell=1.2)),
        # kinks at the knots
        "solve_op1.tabulated": lambda: model1.solve_op1(
            LightProfile.tabulated([0.0, 0.5, 1.0], [0.2, 0.5, 1.0]),
            ModelParams(theta0=THETA0, kappa=1.0, ell=1.0)),
        "halfline_relaxation.3": lambda: spatial.halfline_relaxation(
            ModelParams(theta0=THETA0, kappa=1.0, ell=1.0), iterations=3),
    }


def _summary(result):
    """The outputs an entry is compared on, as plain floats."""
    if isinstance(result, tuple):   # a CLI runner's (files, residuals)
        summary = result[0]["summary.json"]
        return {name: float(summary[name]) for name in (
            "h", "residual_map", "residual_refit", "method_gap_I", "method_gap_h")}
    out = {}
    for name in ("h", "payoff", "residual_q0", "residual_map", "residual_refit",
                 "iterations"):
        if hasattr(result, name):
            out[name] = float(getattr(result, name))
    if isinstance(result, list):   # solve_op1: shapes, best first
        out["h"] = float(result[0].h)
        out["payoff"] = float(result[0].payoff)
    return out


class _Counter:
    """Wraps `numerics.integrate`, `model1.phi_inverse` and
    `spatial.solve_op3_single` where the solvers imported them, counting the
    rhs evaluations and accepted steps of each integration, the calls and
    elements of the feedback inverse, and the calls and summed sweeps of the
    planar solve."""

    def __init__(self, modules):
        self.shots: list[tuple[int, int]] = []   # (rhs evaluations, steps)
        self.phi = {"calls": 0, "elements": 0}
        self.op3 = {"calls": 0, "sweeps": 0}
        self._undo = []
        original = modules[0].integrate
        phi = next(m.phi_inverse for m in modules if hasattr(m, "phi_inverse"))
        op3 = next((m.solve_op3_single for m in modules if hasattr(m, "solve_op3_single")),
                   None)

        def integrate(problem, span, initial, **kwargs):
            evals = [0]
            rhs = problem.rhs

            def counted(t, y):
                evals[0] += 1
                return rhs(t, y)
            traj = original(dataclasses.replace(problem, rhs=counted), span, initial,
                            **kwargs)
            self.shots.append((evals[0], len(traj.t) - 1))
            return traj

        def phi_inverse(z, params):
            self.phi["calls"] += 1
            self.phi["elements"] += getattr(z, "size", 1)
            return phi(z, params)

        def solve_op3_single(*args, **kwargs):
            result = op3(*args, **kwargs)
            self.op3["calls"] += 1
            self.op3["sweeps"] += result.sweeps
            return result
        for mod in modules:
            for name, fn in (("integrate", integrate), ("phi_inverse", phi_inverse),
                             ("solve_op3_single", solve_op3_single)):
                if hasattr(mod, name):
                    self._undo.append((mod, name, getattr(mod, name)))
                    setattr(mod, name, fn)

    def close(self):
        for mod, name, fn in self._undo:
            setattr(mod, name, fn)


def measure_side(count: bool) -> dict:
    """Every entry, in this interpreter, on the stemopt it imports."""
    import numpy as np

    import stemopt
    from stemopt import equilibrium1, kernels, model1, model2, numerics, spatial
    from stemopt.params import Op2Config
    floats = kernels.FLOATS
    y = 0.3771   # DP45 hands the light a Python float height

    kernel = {}
    profiles = _profiles(stemopt.LightProfile, np)
    for kind, prof in profiles.items():
        kernel[kind] = {
            "eval_derivative_us": _per_call_us(
                lambda: (prof.eval(y), prof.derivative(y)), 2000),
            "eval_and_slope_us": _per_call_us(
                lambda: prof.eval_and_slope(y, floats), 2000)}
    free = stemopt.ModelParams(theta0=THETA0, alpha=0.5, c=1.0)
    canopy = stemopt.LightProfile.constant_rate_canopy(1.0, 1.0)
    state = [0.02, 0.4, 0.1]
    kernel["costate_rhs_floats_us"] = _per_call_us(
        lambda: model2._costate_rhs(y, state, canopy, free, floats), 2000)

    # the DP45 loop alone: a damped oscillator driving a unit-rate decay
    calls = [0]

    def linear(t, s):
        calls[0] += 1
        p, q, r = s
        return q, -p - 0.1 * q, p - r
    loop = lambda: numerics.integrate(  # noqa: E731
        numerics.OdeProblem(3, linear), (0.0, 50.0), [1.0, 0.0, 0.5], rtol=1e-12, atol=1e-12)
    loop_steps = len(loop().t) - 1
    loop_evals = calls[0]
    loop_s = min(timeit.repeat(loop, number=1, repeat=5))
    kernel["dp45_loop_us_per_step"] = loop_s / loop_steps * 1e6
    kernel["dp45_loop_us_per_rhs"] = loop_s / loop_evals * 1e6

    # one Brent iteration: each one evaluates the function once
    cubic = lambda x: (x * x - 2.0) * x - 5.0  # noqa: E731
    brk = numerics.bracket(cubic, 2.0, 3.0)
    iters = []
    numerics.find_root(lambda x: iters.append(x) or cubic(x), brk, tol=1e-15)
    kernel["brent_us_per_iter"] = _per_call_us(
        lambda: numerics.find_root(cubic, brk, tol=1e-15), 2000) / len(iters)

    knots = np.linspace(0.0, 1.0, CANOPY_KNOTS)
    rates = 2.0 * (1.0 - knots) ** 2
    canopy_build = lambda: stemopt.LightProfile.exponential_canopy(  # noqa: E731
        knots, rates, 1.0)
    kernel["canopy_build_us"] = _per_call_us(canopy_build, 200)

    solver, outputs = {}, {}
    for name, call in _solver_entries(stemopt).items():
        t0 = time.perf_counter()
        result = call()
        solver[name] = time.perf_counter() - t0
        outputs[name] = _summary(result)

    # one DP45 shot under the canopy at its root, timed and then counted
    cfg = Op2Config()
    h = outputs["shoot_op2.canopy"]["h"]
    shot = lambda: model2.shoot_residual(h, canopy, free, cfg, cfg.rtol)  # noqa: E731
    shot_s = min(timeit.repeat(shot, number=1, repeat=5))
    counter = _Counter([numerics, model1, model2, equilibrium1])
    try:
        shot()
    finally:
        counter.close()
    (evals, steps), = counter.shots
    kernel["canopy_shot_us_per_rhs"] = shot_s / evals * 1e6
    out = {"kernel_us": kernel, "solver_s": solver, "outputs": outputs,
           "canopy_shot": {"rhs_evals": evals, "steps": steps},
           "dp45_loop": {"rhs_evals": loop_evals, "steps": loop_steps},
           "brent_iters": len(iters)}

    if count:
        counts = {}
        for name, call in _solver_entries(stemopt).items():
            counter = _Counter([numerics, model1, model2, equilibrium1, spatial])
            try:
                peak = _peak_mib(call)
            finally:
                counter.close()
            counts[name] = {"peak_mib": peak,
                            "integrate_calls": len(counter.shots),
                            "rhs_evals": sum(e for e, _ in counter.shots),
                            "steps_accepted": sum(s for _, s in counter.shots),
                            "phi_inverse_calls": counter.phi["calls"],
                            "phi_inverse_elements": counter.phi["elements"]}
            if name == "shoot_op2.canopy":
                counts[name]["steps_per_shot"] = [s for _, s in counter.shots]
            if name == "halfline_relaxation.3":
                counts[name]["op3_calls"] = counter.op3["calls"]
                counts[name]["op3_sweeps"] = counter.op3["sweeps"]
        out["counts"] = counts
        out["canopy_build"] = {"knots": CANOPY_KNOTS, "peak_mib": _peak_mib(canopy_build)}
        out["root_shot_steps"] = _root_shot_steps(free)
    out["versions"] = {"python": platform.python_version(), "numpy": np.__version__}
    return out


def _root_shot_steps(free) -> dict:
    """Accepted DP45 steps of one shot at the direct solve's root height,
    under its sampled shade `I_star` and under the coupled shade."""
    from stemopt import equilibrium2, model2
    from stemopt.params import Op2Config
    cfg, out = Op2Config(), {}
    for rho0 in (0.01, 0.05):
        params = dataclasses.replace(free, rho0=rho0)
        direct = equilibrium2.solve_equilibrium_direct(params, verify=False)
        out[f"rho0_{rho0}"] = {
            light: len(model2._shoot_once(direct.h, profile, params, cfg, cfg.rtol).t) - 1
            for light, profile in (("I_star", direct.I_star), ("coupled", None))}
    return out


def _set_up_scenarios(directory: str) -> dict:
    """One scenario file of each kind in `directory`: {kind: path}."""
    paths = {}
    for kind, (keys, profile, options) in SET_UP_KINDS.items():
        text = (f"[scenario]\nschema_version = 1\nkind = {kind}\n[params]\n"
                + "".join(f"{key} = {SET_UP_PARAMS[key]!r}\n" for key in keys.split())
                + ("[profile]\nkind = constant\n" if profile else "") + options)
        paths[kind] = os.path.join(directory, f"{kind}.ini")
        Path(paths[kind]).write_text(text)
    return paths


def measure_set_up(path: str, traced: bool) -> float:
    """Seconds, or with `traced` the tracemalloc peak in MiB, from `import
    stemopt` through `cli.parse_scenario(path)` in this interpreter, after
    importing the modules outside the package that its modules import."""
    package = Path(importlib.util.find_spec("stemopt").submodule_search_locations[0])
    for module in package.glob("*.py"):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    importlib.import_module(alias.name)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                importlib.import_module(node.module)
    if traced:
        tracemalloc.start()
    t0 = time.perf_counter()
    import stemopt
    stemopt.cli.parse_scenario(path)
    seconds = time.perf_counter() - t0
    return tracemalloc.get_traced_memory()[1] / 2 ** 20 if traced else seconds


def _set_up_side(root: str, path: str, traced: bool) -> float:
    with tempfile.TemporaryDirectory() as cache:   # empty: no bytecode is read
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"),
                   PYTHONPYCACHEPREFIX=cache, PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, os.path.abspath(__file__), "--set-up", path]
        if traced:
            cmd.append("--count")
        done = subprocess.run(cmd, env=env, cwd=root, check=True, capture_output=True,
                              text=True)
    return json.loads(done.stdout)


def _run_side(root: str, count: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    cmd = [sys.executable, os.path.abspath(__file__), "--side"]
    if count:
        cmd.append("--count")
    done = subprocess.run(cmd, env=env, cwd=root, check=True, capture_output=True,
                          text=True)
    return json.loads(done.stdout)


TIMED = ("kernel_us", "solver_s", "setup")   # the result keys whose leaves are timings


def _quartiles(values):
    values = sorted(values)

    def at(q):
        pos = q * (len(values) - 1)
        lo = math.floor(pos)
        hi = min(lo + 1, len(values) - 1)
        return values[lo] + (values[hi] - values[lo]) * (pos - lo)
    return {"q1": at(0.25), "median": at(0.5), "q3": at(0.75)}


def _leaves(tree, prefix=""):
    for key, value in tree.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _tier1_seconds(root: str) -> float:
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"],
                   env=env, cwd=root, check=False, capture_output=True)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--side", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--count", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--set-up", help=argparse.SUPPRESS)
    ap.add_argument("--parent")
    ap.add_argument("--change")
    ap.add_argument("--runs", type=int, default=5)
    ap.add_argument("--out", default="BENCH.json")
    ap.add_argument("--tier1", action="store_true")
    args = ap.parse_args(argv)
    if args.side:
        json.dump(measure_side(args.count), sys.stdout)
        return 0
    if args.set_up:
        json.dump(measure_set_up(args.set_up, args.count), sys.stdout)
        return 0
    if not (args.parent and args.change):
        ap.error("--parent and --change are required")
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    with tempfile.TemporaryDirectory() as directory:
        scenarios = _set_up_scenarios(directory)
        for i in range(args.runs):
            for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
                result = _run_side(sides[side], count=i == 0)
                result["setup"] = {kind: {"s": _set_up_side(sides[side], path, False)}
                                   for kind, path in scenarios.items()}
                if i == 0:
                    result["setup_peak_mib"] = {
                        kind: _set_up_side(sides[side], path, True)
                        for kind, path in scenarios.items()}
                runs[side].append(result)
                print(f"run {i + 1}/{args.runs} {side} done", file=sys.stderr)
    report = {"versions": runs["parent"][0]["versions"], "cpus": os.cpu_count(),
              "runs": args.runs, "order": "alternating, parent first on even runs"}
    for side, results in runs.items():
        timed = {}
        for key, _ in _leaves({k: results[0][k] for k in TIMED}):
            values = [dict(_leaves({k: r[k] for k in TIMED}))[key] for r in results]
            timed[key] = {**_quartiles(values), "runs": values}
        counted = next(r["counts"] for r in results if "counts" in r)
        report[side] = {"timings": timed, "counts": counted,
                        "root_shot_steps": next(r["root_shot_steps"] for r in results
                                                if "root_shot_steps" in r),
                        "canopy_shot": results[0]["canopy_shot"],
                        "dp45_loop": results[0]["dp45_loop"],
                        "brent_iters": results[0]["brent_iters"],
                        "canopy_build": next(r["canopy_build"] for r in results
                                             if "canopy_build" in r),
                        "setup": {kind: {"peak_mib": peak} for kind, peak
                                  in results[0]["setup_peak_mib"].items()},
                        "outputs": results[0]["outputs"]}
    report["median_ratio"] = {
        key: report["change"]["timings"][key]["median"] / value["median"]
        for key, value in report["parent"]["timings"].items()
        if key in report["change"]["timings"]}
    if args.tier1:
        report["tier1_s"] = {side: _tier1_seconds(root) for side, root in sides.items()}
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
