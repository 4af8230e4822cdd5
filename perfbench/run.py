"""stemopt benchmark: seeded CLI scenarios, solved in-process and checked.

    python3 perfbench/run.py --workload eq1-box --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The benchmark generates the workload's
scenario files from the seed, then runs them through ``stemopt.cli.run`` in a
closed loop (one process, one client, BLAS/OpenMP threads pinned to 1).  A
run solves a batch of antithetic pairs of draws sized to take about
``--seconds`` seconds on the reference machine (``Workload.block_s``), so its
inputs depend on the seed alone and both sides of a comparison solve the same
scenarios.  Every solve is checked at the acceptance tolerances.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it patches
stemopt's public functions and reports per-layer counts and self times
instead, plus the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Per-solve records
(inputs, failures, output hashes, counters), the environment and the spans
go to ``.perfbench/results/``.  See perfbench/NOTES.md.
"""

import argparse
import functools
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path

THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_PINS)  # before numpy is imported

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 15
REPLAY_S = 10.0         # traced solve time replayed untraced to measure the overhead


DEADLINE = "deadline"


def hit_deadline(record) -> bool:
    return (record["reason"] or "").startswith(DEADLINE)


class Deadline(Exception):
    """The per-solve deadline expired."""


def _on_alarm(signum, frame):
    raise Deadline()


# ---------------------------------------------------------------------------
# Set-up: import stemopt, generate and parse the scenarios
# ---------------------------------------------------------------------------

def _stemopt_modules() -> dict:
    return {n: m for n, m in sys.modules.items()
            if n == "stemopt" or n.startswith("stemopt.")}


def set_up(wl, seed: int, blocks: int, scenario_dir: Path):
    """One timed set-up; returns (seconds, stemopt, cli, [(draw, scenario)]).

    stemopt is dropped from the module cache first, so each set-up pays the
    full import; collecting the previous copy keeps repeated set-ups from
    raising the peak memory of the run.
    """
    for name in _stemopt_modules():
        del sys.modules[name]
    gc.collect()
    t0 = time.perf_counter()
    stemopt = importlib.import_module("stemopt")
    cli = importlib.import_module("stemopt.cli")
    draws = workloads.generate(wl, seed, blocks, scenario_dir)
    scenarios = [(draw, cli.parse_scenario(path)) for draw, path in draws]
    return time.perf_counter() - t0, stemopt, cli, scenarios


def repeat_set_up(wl, seed: int, blocks: int, scenario_dir: Path) -> float:
    """A further timed set-up during the run.  The copy of stemopt it imports
    is dropped and collected afterwards, so the solves keep using the first
    copy and no solve pays for collecting it."""
    kept = _stemopt_modules()
    seconds = set_up(wl, seed, blocks, scenario_dir)[0]
    for name in _stemopt_modules():
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()
    return seconds


def setup_schedule(pairs: int, repeats: int) -> list[int]:
    """Set-ups to run before the first pair and after each pair: `repeats`
    spread evenly over the run, at least one before the first pair.  A set-up
    then sees the host in the same states as the solves do, not only in the
    second before the loop starts."""
    slots = pairs + 1
    counts = [(k + 1) * repeats // slots - k * repeats // slots for k in range(slots)]
    counts[0] = max(counts[0], 1)
    return counts


# ---------------------------------------------------------------------------
# Solving
# ---------------------------------------------------------------------------

class Capture:
    """Keeps the fixed-point result of an eq2 solve; the CLI writes only the
    primary (direct) residuals to summary.json."""

    def __init__(self, equilibrium2):
        self.last = None
        original = equilibrium2.solve_equilibrium_fixed_point

        @functools.wraps(original)  # keeps the name the tracer patches
        def capture(*args, **kwargs):
            res = original(*args, **kwargs)
            self.last = {"residual_refit": res.residual_refit,
                         "residual_map": res.residual_map,
                         "iterations": res.iterations, "h": res.h}
            return res
        equilibrium2.solve_equilibrium_fixed_point = capture


def solve_one(index, draw, scenario, wl, stemopt, cli, capture, out_root: Path):
    """Run one scenario under the deadline and check it; returns its record."""
    out = out_root / f"draw{index:04d}"
    capture.last = None
    record = {"index": index, "draw": draw, "passed": False, "reason": None,
              "invalid": False, "outputs": None, "bytes_written": 0}
    t0 = time.perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, wl.deadline_s)
        try:
            code = cli.run(scenario, out, quiet=True)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        if code != 0:
            record["reason"] = f"exit code {code}: solver did not converge"
    except Deadline:
        record["reason"] = f"{DEADLINE} of {wl.deadline_s:g} s"
    except stemopt.errors.StemOptError as exc:
        record["reason"] = f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a crash that is not a typed solver error
        record["reason"] = f"untyped {type(exc).__name__}: {exc}"
        record["invalid"] = True
        traceback.print_exc(file=sys.stderr)
    record["seconds"] = time.perf_counter() - t0

    if record["reason"] is None:
        try:
            record["outputs"] = checks.verify_manifest(out)
        except ValueError as exc:
            record["reason"] = f"artifact check: {exc}"
            record["invalid"] = True
        else:
            summary = json.loads((out / "summary.json").read_text())
            miss = checks.CHECKS[wl.kind](summary, draw, wl.fixed,
                                          {"out": out, "fixed_point": capture.last})
            record["reason"] = None if miss is None else f"tolerance: {miss}"
            record["passed"] = miss is None
            record["counters"] = _result_counters(wl.kind, summary, capture.last)
    if out.exists():
        record["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
        shutil.rmtree(out)
    return record


def _result_counters(kind: str, summary: dict, fixed_point) -> dict:
    """Deterministic counts the solve reports about itself."""
    if kind == "eq2":
        return {"direct_roots": len(summary["h_roots"]),
                "fixed_point_iterations": fixed_point["iterations"]}
    if kind == "halfline":
        return {"iterations": summary["iterations"]}
    return {}


def run_loop(wl, scenarios, stemopt, cli, capture, out_root, between,
             tracer=None):
    """Closed loop, one client, over the batch of antithetic pairs.

    `between(k)` runs after the k-th pair (counting from 1); its time is not
    part of the returned wall time.  With a tracer, each passing solve is
    also solved again untraced right after, until REPLAY_S seconds of traced
    solves have a replay; the pairs give the tracing overhead.  Returns
    (records, wall_s, replay pairs).
    """
    records, replays = [], []
    wall = 0.0
    for i in range(0, len(scenarios), 2):
        t0 = time.perf_counter()
        for j in (i, i + 1):
            draw, scenario = scenarios[j]
            if tracer is None:
                records.append(solve_one(j, draw, scenario, wl, stemopt, cli,
                                         capture, out_root))
                continue
            tracer.solve_id = j
            before = tracer.snapshot()
            rec = solve_one(j, draw, scenario, wl, stemopt, cli, capture, out_root)
            tracer.end_solve()
            delta = {k: v - before.get(k, 0)
                     for k, v in tracer.snapshot().items()
                     if v != before.get(k, 0)}
            rec["trace_counters"] = {k: v for k, v in delta.items()
                                     if not Tracer.is_time(k)}
            rec["trace_times"] = {k: v for k, v in delta.items() if Tracer.is_time(k)}
            records.append(rec)
            if rec["passed"] and sum(p[0] for p in replays) < REPLAY_S:
                tracer.uninstall()
                ref = solve_one(j, draw, scenario, wl, stemopt, cli, capture,
                                out_root)
                tracer.install(stemopt)
                if ref["passed"]:
                    replays.append((rec["seconds"], ref["seconds"]))
        wall += time.perf_counter() - t0
        between(i // 2 + 1)
    return records, wall, replays


def tracing_overhead(replays) -> dict:
    traced = sum(p[0] for p in replays)
    untraced = sum(p[1] for p in replays)
    return {"solves": len(replays), "traced_s": traced, "untraced_s": untraced,
            "per_solve_s": (traced - untraced) / max(1, len(replays)),
            "ratio": traced / untraced - 1.0 if untraced else 0.0}


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(records, wall, setup_times):
    """End-to-end metrics and a note per metric on how it was taken."""
    passed = sorted(r["seconds"] for r in records if r["passed"])
    if not passed:
        raise RuntimeError("no solve passed its check; nothing to time")
    n_failed = len(records) - len(passed)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "solves_per_s": len(passed) / wall,
        "solve_s.p50": statistics.median(passed),
        "failed_ratio": n_failed / len(records),
        "pass_ratio": len(passed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"(median of {len(setup_times)})",
        "solve_s.p50": f"(n={len(passed)})",
        "failed_ratio": f"({n_failed}/{len(records)})",
    }
    return metrics, notes


def per_layer(tr: Tracer, records, overhead):
    """Per-layer metrics per solve, over the solves that ran to their end.

    A solve stopped by the deadline is left out: its counts and times only
    measure how much work fits in the deadline window.  The time spent in
    such windows is reported on its own, as `deadline.solves` and
    `deadline.wall_s`.
    """
    done = [r for r in records if not hit_deadline(r)]
    if not done:
        raise RuntimeError("every solve hit the deadline; nothing to trace")
    n = len(done)
    totals = defaultdict(float)
    for r in done:
        for key, value in (*r["trace_counters"].items(), *r["trace_times"].items()):
            totals[key] += value
    S, C, K = defaultdict(float), defaultdict(float), totals
    for key, value in totals.items():
        group, _, name = key.partition(".")
        if group == "self":
            S[name] = value
        elif group == "calls":
            C[name] = value
    mod = {layer: 0.0 for layer in LAYERS}
    for name, secs in S.items():
        mod[name.split(".", 1)[0]] += secs
    total = sum(mod.values())
    kept = {r["index"] for r in done}

    def incl(name, parent=None):
        return sum(s[2] - s[1] for s in tr.spans if s[0] == name and s[4] in kept and (
            parent is None or (s[3] >= 0 and tr.spans[s[3]][0] in parent)))

    def ratio(a, b):
        return a / b if b else 0.0

    rhs = K["numerics.rhs_evals"]
    acc, rej = K["numerics.steps_accepted"], K["numerics.steps_rejected_derived"]
    m = {
        "cli.self_s": mod["cli"] / n,
        "cli.bytes_written": sum(r["bytes_written"] for r in records) / n,
        "equilibrium2.fixed_point.iterations":
            K["equilibrium2.fixed_point.iterations"] / n,
        "equilibrium2.fixed_point.self_s":
            S["equilibrium2.solve_equilibrium_fixed_point"] / n,
        "equilibrium2.direct.self_s": S["equilibrium2.solve_equilibrium_direct"] / n,
        "equilibrium2.verify_s": incl("equilibrium2.verify_equilibrium") / n,
        "equilibrium1.solve_bcp.self_s": S["equilibrium1.solve_bcp"] / n,
        "equilibrium1.solve_equilibrium1.self_s":
            S["equilibrium1.solve_equilibrium1"] / n,
        "equilibrium1.refit_s": incl("model1.solve_op1", (
            "equilibrium1.solve_equilibrium1", "equilibrium1.verify_fixed_point")) / n,
        "model2.shoot_op2.calls": C["model2.shoot_op2"] / n,
        "model2.shoot_op2.self_s": S["model2.shoot_op2"] / n,
        "model2.residual_batch.calls": C["model2.residual_batch"] / n,
        "model2.residual_batch.heights": K["model2.residual_batch.heights"] / n,
        "model2.residual_batch.self_s": S["model2.residual_batch"] / n,
        "model2.warm_bracket_hit_ratio": ratio(K["model2.warm_bracket_hits"],
                                               K["model2.warm_bracket_calls"]),
        "model1.solve_op1.calls": C["model1.solve_op1"] / n,
        "model1.solve_op1.self_s": S["model1.solve_op1"] / n,
        "model1.phi_inverse.calls": C["model1.phi_inverse"] / n,
        "model1.phi_inverse.elements": K["model1.phi_inverse.elements"] / n,
        "model1.phi_inverse.self_s": S["model1.phi_inverse"] / n,
        "spatial.op3.calls": C["spatial.solve_op3_single"] / n,
        "spatial.op3.sweeps": K["spatial.op3.sweeps"] / n,
        "spatial.op3.self_s": S["spatial.solve_op3_single"] / n,
        "spatial.light_from_family.calls": C["spatial.light_from_family"] / n,
        "spatial.light_from_family.self_s": S["spatial.light_from_family"] / n,
        "lightfield.scalar_calls": K["lightfield.scalar_calls"] / n,
        "lightfield.array_calls": K["lightfield.array_calls"] / n,
        "lightfield.self_s": mod["lightfield"] / n,
        "lightfield.us_per_scalar_call":
            1e6 * ratio(K["lightfield.scalar_s"], K["lightfield.scalar_calls"]),
        "lightfield.checks.self_s": (incl("lightfield.check_class_F")
                                     + incl("lightfield.check_uniqueness_condition")) / n,
        "numerics.integrate.calls": C["numerics.integrate"] / n,
        "numerics.rhs_evals": rhs / n,
        "numerics.steps_accepted": acc / n,
        "numerics.steps_rejected": rej / n,
        "numerics.step_accept_ratio": ratio(acc, acc + rej),
        "numerics.integrate.self_s": S["numerics.integrate"] / n,
        "numerics.us_per_rhs_eval": 1e6 * ratio(S["numerics.integrate"], rhs),
        "numerics.brent_calls": C["numerics.find_root"] / n,
        "numerics.brent_evals": K["numerics.brent_evals"] / n,
        "numerics.quad.calls": C["numerics.quad"] / n,
        "numerics.quad.self_s": S["numerics.quad"] / n,
    }
    for layer in LAYERS:
        m[f"{layer}.self_share"] = ratio(mod[layer], total)
    stopped = [r for r in records if hit_deadline(r)]
    m["deadline.solves"] = len(stopped)
    m["deadline.wall_s"] = sum(r["seconds"] for r in stopped)
    m["trace.overhead_s"] = overhead["per_solve_s"]
    m["trace.overhead_ratio"] = overhead["ratio"]
    return m


def layer_expectations(workload: str, shares: dict) -> list[str]:
    """The module-share expectation the benchmark was designed around; when
    it fails, the ranked shares show where the time went instead."""
    if workload != "halfline":
        return []
    both = shares["numerics"] + shares["lightfield"]
    held = both < 0.05
    lines = [f"expect numerics+lightfield near zero on halfline: "
             f"{both:.2%} -> {'holds' if held else 'DOES NOT HOLD'}"]
    if not held:
        ranked = sorted(shares.items(), key=lambda kv: -kv[1])
        lines.append("self-time shares: " + ", ".join(
            f"{layer} {share:.1%}" for layer, share in ranked if share > 0))
    return lines


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------

def environment(wl, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "workload": wl.name,
        "why": wl.why,
        "box": wl.box(),
        "deadline_s": wl.deadline_s,
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    wl = workloads.WORKLOADS[args.workload]

    if not (SRC / "stemopt" / "__init__.py").is_file():
        print(f"error: no stemopt sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)

    work = STATE / f"work-{os.getpid()}"
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    try:
        blocks = wl.blocks(args.seconds)
        dt, stemopt, cli, scenarios = set_up(wl, args.seed, blocks,
                                             work / "scenarios")
        setup_times = [dt]
        schedule = setup_schedule(len(scenarios) // 2, SETUP_REPEATS)
        schedule[0] -= 1

        def set_ups(slot):
            for _ in range(schedule[slot]):
                setup_times.append(repeat_set_up(wl, args.seed, blocks,
                                                 work / "scenarios"))
        set_ups(0)
        capture = Capture(stemopt.equilibrium2)
        tracer = None
        if args.trace:
            tracer = Tracer()
            tracer.install(stemopt)
        records, wall, replays = run_loop(wl, scenarios, stemopt, cli, capture,
                                          work / "out", set_ups, tracer)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(records)
    failed = sum(not r["passed"] for r in records)
    correct = not any(r["invalid"] for r in records)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    report = {"environment": environment(wl, args.seed), "wall_s": wall,
              "setup_times_s": setup_times, "solves": records}

    print(f"workload {wl.name}  seed {args.seed}  closed loop, 1 client, "
          f"{attempted} solves in {wall:.1f} s")
    for r in records:
        if not r["passed"]:
            print(f"  failed draw {r['index']}: {r['reason']}  inputs "
                  + json.dumps(r["draw"]))
    if tracer is None:
        metrics, notes = end_to_end(records, wall, setup_times)
        listed = "end_to_end"
    else:
        overhead = tracing_overhead(replays)
        metrics = per_layer(tracer, records, overhead)
        shares = {layer: metrics[f"{layer}.self_share"] for layer in LAYERS}
        notes = {}
        report["overhead"] = overhead
        with open(results / f"{stem}.spans.jsonl", "w") as fh:
            for name, start, end, parent, solve in tracer.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "solve": solve}) + "\n")
        listed = "per_layer"
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g} {unit_of(name)}"
        print(f"  {name:40s} {shown}  {notes.get(name, '')}".rstrip())
    if tracer is not None:
        for line in layer_expectations(wl.name, shares):
            print("  " + line)
    report["metrics"] = metrics
    (results / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[listed]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {m["name"]: {"value": metrics[m["name"]],
                                              "unit": m["unit"]} for m in spec}}))
    return 0


def unit_of(name: str) -> str:
    if name == "solves_per_s":
        return "1/s"
    if name.endswith("_s") or name.startswith("solve_s."):
        return "s"
    if name == "peak_rss_mb":
        return "MB"
    if ".us_" in name:
        return "us"
    if name.endswith(("_ratio", "_share")):
        return "1"
    if name == "cli.bytes_written":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
