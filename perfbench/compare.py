"""Check that two benchmark runs of the same workload and seed agree exactly.

    python3 perfbench/compare.py .perfbench/results/A.json .perfbench/results/B.json

Compares, solve by solve, the drawn inputs, the pass/fail outcome and kind of
failure, the manifest output hashes and the deterministic counters (the
solver's own counts and, when both runs were traced, the tracer's call and
evaluation counts).  Counters of solves stopped by the deadline are partial
and are skipped.  Exits 1 and lists the differences if there are any.
"""

from __future__ import annotations

import json
import sys


def _failure_kind(reason):
    return None if reason is None else reason.split(":", 1)[0]


def differences(a: dict, b: dict) -> list[str]:
    out = []
    sa, sb = a["solves"], b["solves"]
    if len(sa) != len(sb):
        out.append(f"solve count {len(sa)} != {len(sb)}")
    for ra, rb in zip(sa, sb):
        i = ra["index"]
        if ra["draw"] != rb["draw"]:
            out.append(f"draw {i}: inputs differ")
            continue
        if _failure_kind(ra["reason"]) != _failure_kind(rb["reason"]):
            out.append(f"draw {i}: outcome {ra['reason']!r} != {rb['reason']!r}")
            continue
        if ra["outputs"] != rb["outputs"]:
            out.append(f"draw {i}: output hashes differ")
        if ra["reason"] is not None and ra["reason"].startswith("deadline"):
            continue
        for key in ("counters", "trace_counters"):
            ca, cb = ra.get(key), rb.get(key)
            if ca is not None and cb is not None and ca != cb:
                changed = sorted(k for k in set(ca) | set(cb) if ca.get(k) != cb.get(k))
                out.append(f"draw {i}: {key} differ in {', '.join(changed[:5])}")
    return out


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    runs = [json.loads(open(path).read()) for path in argv]
    diffs = differences(*runs)
    for line in diffs:
        print(line)
    n = min(len(r["solves"]) for r in runs)
    print(f"{n} solves compared, {len(diffs)} differences")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
