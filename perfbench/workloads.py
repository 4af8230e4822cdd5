"""Seeded scenario generation for the benchmark workloads.

Every workload draws its parameters from a stated box.  The first one or two
inputs, the ones that set a solve's cost or decide whether it fails, are
stratified on a grid; one block of a run holds one draw in every grid cell.
The other inputs form a Latin hypercube over the run (each hits each of its
strata once).  Draws come in antithetic pairs, x and 1 - x, so a pair covers
a cell and its mirror cell.  The seed fixes the jitter inside the cells and
the hypercube, so the same seed gives the same scenario files.  The design
samples the whole box and keeps the share of slow or failing corners nearly
the same from one seed to the next.

The program sees only the generated scenario files.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from pathlib import Path


@dataclass(frozen=True)
class Dim:
    """One drawn input: its name, range, scale and where the range comes from."""

    name: str
    lo: float
    hi: float
    scale: str      # 'uniform' | 'log-uniform'
    source: str

    def at(self, x: float) -> float:
        if self.scale == "log-uniform":
            return math.exp(math.log(self.lo) + x * math.log(self.hi / self.lo))
        return self.lo + x * (self.hi - self.lo)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # CLI scenario kind
    dims: tuple[Dim, ...]
    fixed: dict              # inputs that every draw shares
    grid: tuple[int, ...]    # strata of the leading dims; the first is even
    block_s: float           # nominal cost of one block (every grid cell once)
    deadline_s: float        # per-solve deadline
    why: str

    def blocks(self, seconds: float) -> int:
        """Blocks in a run of about `seconds` on the reference machine."""
        return max(1, round(seconds / self.block_s))

    def box(self) -> dict:
        return {
            "drawn": {d.name: {"range": [d.lo, d.hi], "scale": d.scale,
                               "source": d.source} for d in self.dims},
            "fixed": self.fixed,
            "sampling": f"antithetic pairs; grid {self.grid} on the leading "
                        f"inputs, Latin hypercube on the rest",
        }


WORKLOADS = {w.name: w for w in (
    Workload(
        name="eq1-box", kind="eq1",
        dims=(Dim("theta0", 0.2, 1.35, "uniform", "acceptance criterion 01"),
              Dim("kappa", 0.3, 3.0, "uniform", "acceptance criterion 01"),
              Dim("ell", 0.5, 2.0, "uniform", "acceptance criterion 01"),
              Dim("rho", 0.01, 0.1, "log-uniform", "acceptance criterion 07")),
        fixed={},
        grid=(8, 3), block_s=35.0, deadline_s=3.0,
        why="fixed-length equilibrium: phi_inverse in the solve_op1 refit "
            "and in the 1-state solve_bcp DP45"),
    Workload(
        name="eq2-both", kind="eq2",
        dims=(Dim("rho0", 1e-3, 1e-2, "log-uniform", "acceptance criterion 08"),),
        fixed={"theta0": math.pi / 4, "alpha": 0.5, "c": 1.0,
               "method": "both", "source": "acceptance criterion 08"},
        grid=(2,), block_s=38.0, deadline_s=60.0,
        why="direct shooting against the damped fixed point, both verified"),
    Workload(
        name="halfline", kind="halfline",
        dims=(Dim("rho_scale", 0.003, 0.03, "log-uniform",
                  "acceptance criterion 11"),
              Dim("b", 0.5, 2.0, "uniform", "acceptance criterion 11")),
        fixed={"theta0": math.pi / 4, "kappa": 1.0, "ell": 1.0,
               "n_stems": 9, "iterations": 3,
               "source": "acceptance criterion 11"},
        grid=(2,), block_s=11.0, deadline_s=60.0,
        why="planar light field and per-root costate sweeps; bypasses the "
            "shooting path"),
)}


def unit_points(seed: int, grid: tuple[int, ...], blocks: int,
                dim: int) -> list[list[float]]:
    """Antithetic pairs of points in [0, 1)^dim, grid-stratified on the
    leading len(grid) coordinates and a Latin hypercube on the rest."""
    rng = random.Random(seed)
    base = [c for c in itertools.product(*(range(g) for g in grid))
            if c[0] < grid[0] // 2]   # the mirror cells complete the grid
    n = blocks * len(base)
    free = dim - len(grid)
    strata = [rng.sample(range(n), n) for _ in range(free)]
    pts = []
    for k in range(n):
        cell = base[k % len(base)]
        x = [(c + rng.random()) / g for c, g in zip(cell, grid)]
        x += [(strata[d][k] + rng.random()) / n for d in range(free)]
        pts.append(x)
        pts.append([1.0 - v for v in x])
    return pts


def _ini(sections: dict) -> str:
    lines = []
    for name, body in sections.items():
        lines.append(f"[{name}]")
        lines += [f"{k} = {v!r}" if isinstance(v, float) else f"{k} = {v}"
                  for k, v in body.items()]
    return "\n".join(lines) + "\n"


def scenario_text(wl: Workload, draw: dict) -> str:
    head = {"schema_version": 1, "kind": wl.kind}
    if wl.name == "eq1-box":
        return _ini({"scenario": head, "params": dict(draw)})
    if wl.name == "eq2-both":
        f = wl.fixed
        return _ini({
            "scenario": head,
            "params": {"theta0": f["theta0"], "alpha": f["alpha"], "c": f["c"],
                       "rho0": draw["rho0"]},
            "solver": {"method": f["method"]},
        })
    if wl.name == "halfline":
        f = wl.fixed
        return _ini({
            "scenario": head,
            "params": {"theta0": f["theta0"], "kappa": f["kappa"],
                       "ell": f["ell"]},
            "halfline": {"rho_scale": draw["rho_scale"], "b": draw["b"],
                         "n_stems": f["n_stems"],
                         "iterations": f["iterations"]},
        })
    raise ValueError(f"unknown workload {wl.name!r}")


def generate(wl: Workload, seed: int, blocks: int,
             directory: Path) -> list[tuple[dict, Path]]:
    """Write the run's scenario files; returns (draw, path) in run order."""
    directory.mkdir(parents=True, exist_ok=True)
    out = []
    for i, x in enumerate(unit_points(seed, wl.grid, blocks, len(wl.dims))):
        draw = {d.name: d.at(v) for d, v in zip(wl.dims, x)}
        path = directory / f"draw{i:04d}.ini"
        path.write_text(scenario_text(wl, draw))
        out.append((draw, path))
    return out
