"""Single stems in a two-dimensional light field, and fields cast by stem
families rooted on the half line.

The necessary conditions couple a planar costate to the stem curve through
the capture kernel; a forward-backward sweep with under-relaxation solves a
single stem, and alternating stem solves with a ray-marched light rebuild
gives the half-line relaxation experiment.  The half-line equilibrium itself
carries no convergence guarantee; non-convergence is a reported outcome.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np

from .kernels import _G_parts, capture_transverse, trapezoid_cumulative
from .params import ModelParams

if TYPE_CHECKING:
    from .lightfield import LightProfile

_DENSITY_CAP = 1e4   # deposited density where the stem map focuses is capped here
_SMOOTH_PASSES = 2   # binomial blur passes over the splatted density
_OP3_RELAX = 0.3     # sweep update: theta <- (1 - relax) theta + relax theta_new
_H_ROWS = 64         # arc-length nodes per block of the angle-grid Hamiltonian


# ---------------------------------------------------------------------------
# Field container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LightField2D:
    """Rectangular intensity samples with bilinear interpolation."""

    x: np.ndarray          # (nx,)
    y: np.ndarray          # (ny,)
    I: np.ndarray          # (ny, nx)

    def __post_init__(self):
        if self.I.shape != (len(self.y), len(self.x)):
            raise ValueError("intensity grid shape must be (ny, nx)")
        if self.I.min() < -1e-12 or self.I.max() > 1.0 + 1e-12:
            raise ValueError("intensity values must lie in [0, 1]")

    @staticmethod
    def stratified(profile: LightProfile, window, nx: int = 64,
                   ny: int = 2048) -> "LightField2D":
        """Vertically stratified field I(x, y) = profile(y)."""
        x0, x1, y0, y1 = window
        xs = np.linspace(x0, x1, nx)
        ys = np.linspace(y0, y1, ny)
        col = profile.eval(np.maximum(ys, 0.0))
        return LightField2D(xs, ys, np.tile(col[:, None], (1, nx)))

    def eval(self, xq, yq):
        return _bilinear(self.I, self.x, self.y, xq, yq)

    def grad(self, xq, yq):
        """Central-difference gradient of the interpolated field."""
        hx = 0.5 * (self.x[1] - self.x[0])
        hy = 0.5 * (self.y[1] - self.y[0])
        gx = (self.eval(xq + hx, yq) - self.eval(xq - hx, yq)) / (2 * hx)
        gy = (self.eval(xq, yq + hy) - self.eval(xq, yq - hy)) / (2 * hy)
        return gx, gy


def _cells(nodes, q):
    """The grid cell of each query, clamped into the grid: the index i of
    its lower node and its position in [0, 1] from node i to node i + 1."""
    q = np.clip(q, nodes[0], nodes[-1])
    i = np.clip(np.searchsorted(nodes, q) - 1, 0, len(nodes) - 2)
    return i, np.clip((q - nodes[i]) / (nodes[i + 1] - nodes[i]), 0.0, 1.0)


def _bilinear(grid, xs, ys, xq, yq):
    """Bilinear interpolation of grid (ny, nx) on the nodes xs, ys."""
    ix, tx = _cells(xs, xq)
    iy, ty = _cells(ys, yq)
    return (grid[iy, ix] * (1 - tx) * (1 - ty) + grid[iy, ix + 1] * tx * (1 - ty)
            + grid[iy + 1, ix] * (1 - tx) * ty + grid[iy + 1, ix + 1] * tx * ty)


# ---------------------------------------------------------------------------
# Extended capture kernel (full angle range)
# ---------------------------------------------------------------------------

def _capture_slopes(theta, params: ModelParams):
    """First and second derivatives (G', G'') of the transverse capture,
    valid on both sides of the perpendicular (reflection symmetry across
    theta0 + pi/2)."""
    th = np.asarray(theta, dtype=float)
    t0, k = params.theta0, params.kappa
    ahead = np.cos(th - t0) >= 0.0
    _, gp, gpp = _G_parts(np.where(ahead, th, 2.0 * t0 + math.pi - th), t0, k)
    return np.where(ahead, gp, -gp), gpp


# ---------------------------------------------------------------------------
# Single-stem solve (forward-backward sweep)
# ---------------------------------------------------------------------------

@dataclass
class Op3Result:
    """Stems in a planar light field, from the forward-backward sweep.  For a
    family of m stems every field but `s` leads with an axis of m (`p` is
    (m, n, 2), the scalars (m,) arrays); `sweeps` is their sum."""

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    p: np.ndarray               # (n, 2) costate
    payoff: float
    stationarity_residual: float
    converged: bool
    sweeps: int
    theta_left_range: bool      # optimum left [theta0, pi/2] somewhere


def solve_op3_single(fld: LightField2D, root_x, params: ModelParams,
                     n_s: int = 400, max_sweeps: int = 500, tol: float = 1e-9,
                     theta_init: np.ndarray | None = None) -> Op3Result:
    """Optimal fixed-length stem rooted at (root_x, 0) under a planar field,
    or the m stems of a family for an array of m roots, with `theta_init`
    of shape (m, n_s + 1).

    Sweeps: integrate the curve forward with the current angles, the costate
    backward from a free tip, re-maximize the pointwise Hamiltonian over the
    full angle range, and relax.  Stationarity of the capture-plus-costate
    expression is the convergence certificate.  A family's stems sweep
    together, each stopping at its own convergence and keeping its angles
    from then on, so each row has the bits of a lone call.
    """
    ell, t0 = params.ell, params.theta0
    roots = np.reshape(np.asarray(root_x, dtype=float), (-1, 1))
    s = np.linspace(0.0, ell, n_s + 1)
    theta = np.full((len(roots), n_s + 1), t0) if theta_init is None \
        else np.array(theta_init, dtype=float).reshape(len(roots), n_s + 1)
    th_grid = np.linspace(1e-3, math.pi, 721)
    cos_g, sin_g = np.cos(th_grid), np.sin(th_grid)
    G_g = capture_transverse(th_grid, params)
    # the Hamiltonian on (node, angle) is maximized in row blocks of all stems' nodes
    H = np.empty((min(_H_ROWS, theta.size), len(th_grid)))
    term = np.empty_like(H)
    best = np.empty(theta.size, dtype=np.intp)

    converged = np.zeros(len(roots), dtype=bool)
    sweeps = np.zeros(len(roots), dtype=int)
    for sweep in range(max_sweeps + 1):
        x, y = _curve(s, theta, roots)
        I_s = fld.eval(x, y)
        G_s = capture_transverse(theta, params)
        # p(s) = integral_s^ell grad(I) G ds, backward from p(ell) = 0
        total = trapezoid_cumulative(s, np.stack(fld.grad(x, y)) * G_s)
        p1, p2 = total[..., -1:] - total
        if converged.all() or sweep == max_sweeps:
            break

        sweeps += ~converged
        for a in range(0, theta.size, _H_ROWS):
            b = min(a + _H_ROWS, theta.size)
            h, w = H[:b - a], term[:b - a]
            np.multiply(p1.ravel()[a:b, None], cos_g, out=h)
            h += np.multiply(p2.ravel()[a:b, None], sin_g, out=w)
            h += np.multiply(I_s.ravel()[a:b, None], G_g, out=w)
            best[a:b] = np.argmax(h, axis=1)
        th_new = th_grid[best.reshape(theta.shape)]
        th_new = _polish(th_new, p1, p2, I_s, params)

        delta = np.max(np.abs(th_new - theta), axis=-1)
        theta = np.where(converged[:, None], theta,
                         (1.0 - _OP3_RELAX) * theta + _OP3_RELAX * th_new)
        converged |= delta <= tol

    station = I_s * _capture_slopes(theta, params)[0] \
        - p1 * np.sin(theta) + p2 * np.cos(theta)
    left = (theta < t0 - 1e-6) | (theta > math.pi / 2 + 1e-6)
    fields = dict(x=x, y=y, theta=theta, p=np.stack([p1, p2], axis=-1),
                  payoff=np.trapezoid(I_s * G_s, s), converged=converged,
                  stationarity_residual=np.max(np.abs(station), axis=-1),
                  theta_left_range=np.any(left, axis=-1))
    if np.ndim(root_x) == 0:   # a lone stem: its row, with Python scalars
        fields = {k: v[0] if v.ndim > 1 else v[0].item() for k, v in fields.items()}
    return Op3Result(s=s, sweeps=int(sweeps.sum()), **fields)


def _curve(s, theta, root_x):
    """The planar curve (x, y) of the angles theta (along the last axis) on
    the arc-length nodes s, rooted at (root_x, 0)."""
    return (root_x + trapezoid_cumulative(s, np.cos(theta)),
            trapezoid_cumulative(s, np.sin(theta)))


def _polish(th, p1, p2, I_s, params: ModelParams, iters: int = 4):
    """Newton steps on the stationarity equation, where the kernel is smooth."""
    th = th.copy()
    for _ in range(iters):
        c = np.cos(th - params.theta0)
        ok = np.abs(c) > 0.05
        gp, gpp = _capture_slopes(th, params)
        f = I_s * gp - p1 * np.sin(th) + p2 * np.cos(th)
        fp = I_s * gpp - p1 * np.cos(th) - p2 * np.sin(th)
        step = np.where(ok & (np.abs(fp) > 1e-14), f / np.where(fp == 0, 1, fp), 0.0)
        th = np.clip(th - np.clip(step, -0.05, 0.05), 1e-3, math.pi)
    return th


# ---------------------------------------------------------------------------
# Stem families and the light they cast
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StemFamily:
    """Stems gamma(s, xi) rooted along the x axis with density rho_bar(xi)."""

    xi: np.ndarray              # (m,) root positions
    rho_bar: np.ndarray         # (m,) stems per unit root length
    s: np.ndarray               # (n_s+1,) common arc-length grid
    theta: np.ndarray           # (m, n_s+1)
    kappa: float
    ell: float
    x: np.ndarray = field(init=False)   # (m, n_s+1), from the angle field
    y: np.ndarray = field(init=False)   # (m, n_s+1)

    def __post_init__(self):
        x, y = _curve(self.s, self.theta, self.xi[:, None])
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @staticmethod
    def uniform_angles(xi, rho_bar, params: ModelParams, n_s: int = 200) -> "StemFamily":
        xi = np.asarray(xi, dtype=float)
        s = np.linspace(0.0, params.ell, n_s + 1)
        th = np.full((len(xi), n_s + 1), params.theta0)
        return StemFamily(xi=xi, rho_bar=np.asarray(rho_bar, dtype=float), s=s,
                          theta=th, kappa=params.kappa, ell=params.ell)


def rho_bar_ramp(xi, b: float, scale: float = 1.0):
    """Root density rising linearly to a plateau: 0 below 0, xi/b on [0, b],
    1 beyond, times `scale`."""
    xi = np.asarray(xi, dtype=float)
    return scale * np.clip(xi / b, 0.0, 1.0) * (xi >= 0.0)


@dataclass
class FieldBuildReport:
    """Light field cast by a stem family, with the leaf density deposited on its grid."""

    field: LightField2D
    vegetation: np.ndarray      # (ny, nx) deposited density
    deposited_mass: float
    capped_cells: int


def light_from_family(family: StemFamily, window, nx: int = 256, ny: int = 256,
                      *, params: ModelParams) -> FieldBuildReport:
    """Ray-marched light field cast by a family of stems.

    Leaf mass kappa * rho_bar(xi) dxi ds is splatted bilinearly onto the
    grid (conservative by construction); cells where the stem map focuses
    (near-zero Jacobian) are capped at `_DENSITY_CAP` and counted.  A short
    binomial blur mollifies the splat so the downstream gradients do not
    jitter with cell alignment.  The intensity then follows from marching
    each grid node toward the sun and exponentiating the accumulated
    vegetation.
    """
    x0, x1, y0, y1 = window
    xs = np.linspace(x0, x1, nx)
    ys = np.linspace(y0, y1, ny)
    dx = xs[1] - xs[0]
    dy = ys[1] - ys[0]
    cell = dx * dy

    # midpoint masses per (xi, s) patch; trapezoid widths keep the total
    # deposited mass equal to kappa * ell * trapz(rho_bar)
    ds = family.s[1] - family.s[0]
    d_xi = np.gradient(family.xi)
    d_xi[0] *= 0.5
    d_xi[-1] *= 0.5
    mass = family.kappa * family.rho_bar * d_xi   # per stem row, per unit s
    px = 0.5 * (family.x[:, 1:] + family.x[:, :-1]).ravel()
    py = 0.5 * (family.y[:, 1:] + family.y[:, :-1]).ravel()
    pm = np.repeat(mass, family.x.shape[1] - 1) * ds

    rho = np.zeros((ny, nx))
    ix, tx = _cells(xs, px)   # the transpose of the bilinear sampler
    iy, ty = _cells(ys, py)
    for jy, wy in ((iy, 1 - ty), (iy + 1, ty)):
        for jx, wx in ((ix, 1 - tx), (ix + 1, tx)):
            np.add.at(rho, (jy, jx), pm * wx * wy)
    deposited = float(rho.sum())
    rho /= cell
    capped = int(np.sum(rho > _DENSITY_CAP))
    rho = np.minimum(rho, _DENSITY_CAP)
    for _ in range(_SMOOTH_PASSES):
        rho = _binomial_blur(rho)

    # march from every node toward the sun (vegetation is up-sun of a point)
    to_sun = (-math.sin(params.theta0), math.cos(params.theta0))
    step = 0.5 * min(dx, dy)
    span = math.hypot(x1 - x0, y1 - y0)
    n_steps = int(math.ceil(span / step)) + 2
    # a march point's x depends on the column only and its y on the row
    # only, so the in-window nodes form one block: a column range c by a
    # row range r
    expo = np.zeros((ny, nx))
    for k in range(n_steps):
        t = (k + 0.5) * step
        qx = xs + t * to_sun[0]
        qy = ys + t * to_sun[1]
        c = _in_range(qx, x0, x1)
        r = _in_range(qy, y0, y1)
        if c is None or r is None:
            break
        expo[r, c] += _bilinear(rho, xs, ys, qx[None, c], qy[r, None]) * step
    I = np.clip(np.exp(-expo), 0.0, 1.0)
    return FieldBuildReport(field=LightField2D(xs, ys, I), vegetation=rho,
                            deposited_mass=deposited, capped_cells=capped)


def _binomial_blur(grid: np.ndarray) -> np.ndarray:
    """Mass-preserving separable [1,2,1]/4 blur with reflecting edges."""
    pad = np.pad(grid, 1, mode="edge")
    horiz = 0.25 * (pad[1:-1, :-2] + 2.0 * pad[1:-1, 1:-1] + pad[1:-1, 2:])
    pad = np.pad(horiz, 1, mode="edge")
    return 0.25 * (pad[:-2, 1:-1] + 2.0 * pad[1:-1, 1:-1] + pad[2:, 1:-1])


def _in_range(q, lo, hi):
    """The slice of the monotone samples `q` that lie in [lo, hi], or None."""
    idx = np.flatnonzero((q >= lo) & (q <= hi))
    return slice(idx[0], idx[-1] + 1) if len(idx) else None


# ---------------------------------------------------------------------------
# Half-line relaxation experiment
# ---------------------------------------------------------------------------

@dataclass
class HalflineResult:
    """Last stem family and light field of the half-line relaxation, with its history."""

    family: StemFamily
    report: FieldBuildReport
    changes: list[float] = field(default_factory=list)
    converged: bool = False


def halfline_relaxation(params: ModelParams, rho_scale: float = 0.01,
                        b: float = 1.0, n_stems: int = 9, iterations: int = 10,
                        relax: float = 0.3, grid: int = 160,
                        n_s: int = 200) -> HalflineResult:
    """Alternate light rebuilds and family sweeps of the stems on the half line.

    This reproduces the conjectured boundary-layer picture: roots near the
    origin receive nearly full light and stay perpendicular to the rays,
    while far-field roots approach the one-dimensional equilibrium shape.
    No convergence guarantee exists; the change log is the result.
    """
    ell = params.ell
    xi_hi = 3.0 * b
    xi = np.linspace(0.0, xi_hi, n_stems)
    rho_bar = rho_bar_ramp(xi, b, rho_scale)
    family = StemFamily.uniform_angles(xi, rho_bar, params, n_s=n_s)
    window = (-0.5 * ell, xi_hi + 1.2 * ell, 0.0, 1.2 * ell)

    changes: list[float] = []
    converged = False
    report = light_from_family(family, window, grid, grid, params=params)
    for it in range(iterations):
        new_theta = solve_op3_single(report.field, xi, params, n_s=n_s, max_sweeps=120,
                                     tol=1e-8, theta_init=family.theta).theta
        delta = float(np.max(np.abs(new_theta - family.theta)))
        changes.append(delta)
        family = replace(family, theta=(1.0 - relax) * family.theta
                         + relax * new_theta)
        report = light_from_family(family, window, grid, grid, params=params)
        if delta <= 1e-4:
            converged = True
            break
    return HalflineResult(family=family, report=report, changes=changes,
                          converged=converged)
