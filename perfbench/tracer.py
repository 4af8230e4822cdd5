"""Spans and aggregate counters around calls into stemopt's public functions.

The tracer patches, from outside the package, every public function and
public method defined in the traced modules, including the copies that other
modules imported by value (``from .numerics import integrate``).  Solver entry
points record a span each (name, start, end, parent, solve id).  Everything
else is a kernel: called up to ~10^6 times per solve, so it is counted and
timed in aggregate instead.  Self time is a frame's duration minus its child
frames, spans and kernels alike, so the module totals add up to the traced
solve time.

ODE right-hand sides are closures inside the solvers.  They are counted by
handing ``integrate`` a copy of its ``OdeProblem`` whose rhs is wrapped, and
their time is charged to the module that defined the closure.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "equilibrium2", "equilibrium1", "model2", "model1",
          "spatial", "lightfield", "numerics")

# functions that get one span per call; every other public name is a kernel
SPANS = {
    "cli.run",
    "equilibrium2.solve_equilibrium_fixed_point",
    "equilibrium2.solve_equilibrium_direct",
    "equilibrium2.verify_equilibrium",
    "equilibrium2.shade_map",
    "equilibrium1.solve_equilibrium1",
    "equilibrium1.solve_bcp",
    "equilibrium1.verify_fixed_point",
    "model2.shoot_op2",
    "model2.residual_batch",
    "model2.shoot_residual",
    "model2.estimate_h0",
    "model1.solve_op1",
    "spatial.halfline_relaxation",
    "spatial.solve_op3_single",
    "spatial.light_from_family",
    "numerics.integrate",
    "numerics.find_root",
    "numerics.quad",
    "lightfield.check_class_F",
    "lightfield.check_uniqueness_condition",
}

_PROFILE_CALLS = ("lightfield.LightProfile.eval",
                  "lightfield.LightProfile.derivative")


class Tracer:
    """In-memory spans, per-name self time and named counters."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, solve]
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.solve_id = -1
        self._stack: list[list] = []     # [name, start, child_s, span, parent span]
        self._open_span = -1
        self._undo: list[tuple[object, str, object]] = []

    # -- frames -------------------------------------------------------------

    def _push(self, name: str, record: bool) -> list:
        span = -1
        if record:
            span = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._open_span, self.solve_id])
        frame = [name, 0.0, 0.0, span, self._open_span]
        self._stack.append(frame)
        if record:
            self._open_span = span
        self.calls[name] += 1
        frame[1] = time.perf_counter()
        return frame

    def _pop(self, frame: list) -> float:
        end = time.perf_counter()
        dur = end - frame[1]
        self._stack.pop()
        self.self_s[frame[0]] += dur - frame[2]
        if self._stack:
            self._stack[-1][2] += dur
        if frame[3] >= 0:
            rec = self.spans[frame[3]]
            rec[1], rec[2] = frame[1], end
            self._open_span = frame[4]
        return dur

    def end_solve(self) -> None:
        """Close frames left open when the deadline signal landed inside the
        tracer's own bookkeeping, so the next solve starts from an empty
        stack."""
        while self._stack:
            self._pop(self._stack[-1])
        self._open_span = -1

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        special = _SPECIAL.get(name)
        if special is not None:
            return special(self, name, fn)
        push, pop = self._push, self._pop
        record = name in SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = push(name, record)
            try:
                return fn(*args, **kwargs)
            finally:
                pop(frame)
        return traced

    def install(self, package) -> None:
        """Patch the traced modules of `package` (an imported stemopt)."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == package.__name__ or n.startswith(package.__name__ + ".")]
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package.__name__}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if meth.startswith("_") or not inspect.isfunction(fn):
                            continue
                        self._set(obj, meth, self._wrap(f"{layer}.{attr}.{meth}", fn))
        # rebind every module-level name that refers to a wrapped function,
        # including names imported by value into other modules
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    self._set(mod, attr, replaced[id(obj)])

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def snapshot(self) -> dict:
        """Calls, counters and self times (`self.<name>`) so far; `is_time`
        picks out the timed ones, which are not deterministic."""
        snap = {f"calls.{k}": v for k, v in self.calls.items()}
        snap.update(self.counts)
        snap.update({f"self.{k}": v for k, v in self.self_s.items()})
        return snap

    @staticmethod
    def is_time(key: str) -> bool:
        return key.startswith("self.") or key.endswith("_s")


# ---------------------------------------------------------------------------
# Wrappers with extra counters
# ---------------------------------------------------------------------------

def _integrate(tr: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(problem, span, initial, **kwargs):
        frame = tr._push(name, True)
        rhs = problem.rhs
        rhs_name = f"{rhs.__module__.rsplit('.', 1)[-1]}.rhs"
        evals = [0]

        def counted(t, y):
            evals[0] += 1
            inner = tr._push(rhs_name, False)
            try:
                return rhs(t, y)
            finally:
                tr._pop(inner)
        try:
            traj = fn(dataclasses.replace(problem, rhs=counted), span, initial,
                      **kwargs)
        finally:
            tr._pop(frame)
            tr.counts["numerics.rhs_evals"] += evals[0]
        # steps are known only for integrations that return; an integration
        # stopped by an error or the deadline adds evaluations but no steps
        accepted = len(traj.t) - 1
        tr.counts["numerics.steps_accepted"] += accepted
        if kwargs.get("n_steps") is None:
            # DP45: one start evaluation, six per attempted step (FSAL)
            tr.counts["numerics.steps_rejected_derived"] += \
                (evals[0] - 1) / 6.0 - accepted
        return traj
    return traced


def _find_root(tr: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(f, brk, *args, **kwargs):
        def counted(x):
            tr.counts["numerics.brent_evals"] += 1
            return f(x)
        frame = tr._push(name, True)
        try:
            return fn(counted, brk, *args, **kwargs)
        finally:
            tr._pop(frame)
    return traced


def _profile_kernel(tr: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(self, y):
        # calls a profile makes on itself (derivative -> eval) are timed as
        # lightfield work but not counted as calls into the layer
        outer = not (tr._stack and tr._stack[-1][0] in _PROFILE_CALLS)
        scalar = np.ndim(y) == 0
        frame = tr._push(name, False)
        try:
            return fn(self, y)
        finally:
            dur = tr._pop(frame)
            if outer and scalar:
                tr.counts["lightfield.scalar_calls"] += 1
                tr.counts["lightfield.scalar_s"] += dur
            elif outer:
                tr.counts["lightfield.array_calls"] += 1
    return traced


def _shoot_op2(tr: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        config = args[2] if len(args) > 2 else kwargs.get("config")
        warm = config is not None and config.h_bracket is not None
        before = tr.calls["model2.residual_batch"]
        frame = tr._push(name, True)
        try:
            return fn(*args, **kwargs)
        finally:
            tr._pop(frame)
            if warm:
                tr.counts["model2.warm_bracket_calls"] += 1
                if tr.calls["model2.residual_batch"] == before:
                    tr.counts["model2.warm_bracket_hits"] += 1
    return traced


def _counting(extra):
    """Span wrapper that also feeds `extra(tracer, args, kwargs, result)`."""
    def factory(tr: Tracer, name: str, fn):
        record = name in SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tr._push(name, record)
            try:
                out = fn(*args, **kwargs)
            finally:
                tr._pop(frame)
            extra(tr, args, kwargs, out)
            return out
        return traced
    return factory


def _heights(tr, args, kwargs, out):
    tr.counts["model2.residual_batch.heights"] += len(args[0])


def _elements(tr, args, kwargs, out):
    tr.counts["model1.phi_inverse.elements"] += int(np.size(args[0]))


def _sweeps(tr, args, kwargs, out):
    tr.counts["spatial.op3.sweeps"] += out.sweeps


def _iterations(tr, args, kwargs, out):
    tr.counts["equilibrium2.fixed_point.iterations"] += out.iterations


_SPECIAL = {
    "numerics.integrate": _integrate,
    "numerics.find_root": _find_root,
    "lightfield.LightProfile.eval": _profile_kernel,
    "lightfield.LightProfile.derivative": _profile_kernel,
    "model2.shoot_op2": _shoot_op2,
    "model2.residual_batch": _counting(_heights),
    "model1.phi_inverse": _counting(_elements),
    "spatial.solve_op3_single": _counting(_sweeps),
    "equilibrium2.solve_equilibrium_fixed_point": _counting(_iterations),
}
