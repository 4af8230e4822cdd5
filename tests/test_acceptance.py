"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured figure against its pinned tolerance."""

import math

import numpy as np
import pytest

from stemopt import LightProfile, ModelParams
from stemopt import equilibrium1 as e1
from stemopt import equilibrium2 as e2
from stemopt import model1 as m1
from stemopt import model2 as m2
from stemopt import oracles
from stemopt.kernels import trapezoid_cumulative

H0_EXACT = math.sqrt(2.0) / 4.0


def _report(num: int, label: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'}: {label} ({detail})")
    assert ok, f"criterion {num}: {label} [{detail}]"


@pytest.fixture(scope="module")
def eq2_cases(pair_001):
    # verification only fills the residual fields, which criteria 03 and 08
    # do not read, so the verified rho0 = 0.01 pair serves them too
    params = ModelParams(theta0=math.pi / 4, alpha=0.5, c=1.0, rho0=0.001)
    return {0.001: (e2.solve_equilibrium_direct(params, verify=False),
                    e2.solve_equilibrium_fixed_point(params),
                    params),
            0.01: pair_001}


def test_criterion_01_op1_flat_light_closed_form():
    rng = np.random.default_rng(2024)
    worst_th, worst_h = 0.0, 0.0
    for _ in range(5):
        params = ModelParams(theta0=rng.uniform(0.2, 1.35),
                             kappa=rng.uniform(0.3, 3.0),
                             ell=rng.uniform(0.5, 2.0))
        shape = m1.solve_op1(LightProfile.constant(1.0), params)[0]
        worst_th = max(worst_th, float(np.max(np.abs(shape.theta - params.theta0))))
        worst_h = max(worst_h, abs(shape.h - params.ell * math.sin(params.theta0)))
    _report(1, "flat-light fixed-length closed form",
            worst_th <= 1e-10 and worst_h <= 1e-10,
            f"sup|theta-theta0|={worst_th:.2e}, |h-ell sin|={worst_h:.2e}, tol 1e-10")


def test_criterion_02_op2_flat_light_closed_form(stem_flat, params2):
    dh = abs(stem_flat.h - H0_EXACT)
    ys = np.linspace(0.0, stem_flat.h * 0.98, 100)
    dq = float(np.max(np.abs(stem_flat.read(ys)["q"]
                             - oracles.closed_form_q(ys, stem_flat.h, params2))))
    dz = abs(stem_flat.z[0] - 1.0)
    _report(2, "flat-light free-length closed form",
            dh <= 1e-6 and dq <= 1e-6 and dz <= 1e-6,
            f"|h-sqrt2/4|={dh:.2e}, implicit-q={dq:.2e}, |z(0)-1|={dz:.2e}, tol 1e-6")


def test_criterion_03_hamiltonian_first_integral(stem_flat, stem_canopy, eq2_cases):
    worst = max(stem_flat.hamiltonian_max_abs, stem_canopy.hamiltonian_max_abs)
    for direct, fixed, _ in eq2_cases.values():
        worst = max(worst, direct.stem.hamiltonian_max_abs,
                    fixed.stem.hamiltonian_max_abs)
    _report(3, "Hamiltonian conserved on all converged trajectories",
            worst <= 1e-6, f"max|H|={worst:.2e}, tol 1e-6")


def test_criterion_04_oracle_equivalence_op1(params45, canopy_profile):
    solver = m1.solve_op1(canopy_profile, params45)[0]
    exhaustive = oracles.oracle_op1(canopy_profile, params45, 5, 9)
    descent = oracles.oracle_op1(canopy_profile, params45, 64, 33)
    gap = (solver.payoff - descent.payoff) / solver.payoff
    _report(4, "fixed-length solver dominates brute-force oracles",
            exhaustive.payoff <= solver.payoff + 1e-9 and 0.0 <= gap + 1e-9
            and gap <= 0.01,
            f"exhaustive gap={solver.payoff - exhaustive.payoff:.2e}, "
            f"descent gap={100 * gap:.3f}% (tol 1%)")


def test_criterion_05_oracle_equivalence_op2(params2, const_profile,
                                             canopy_profile, stem_flat,
                                             stem_canopy):
    closed = oracles.closed_form_payoff(params2)
    orc_flat = oracles.oracle_op2(const_profile, params2, 64, seed=0)
    orc_can = oracles.oracle_op2(canopy_profile, params2, 64, seed=1)
    rel = (closed - orc_flat.payoff) / closed
    dominated = (orc_flat.payoff <= stem_flat.payoff + 1e-9
                 and orc_can.payoff <= stem_canopy.payoff + 1e-9)
    _report(5, "free-length solver dominates direct transcription",
            rel <= 0.02 and dominated,
            f"flat-light oracle within {100 * rel:.3f}% of closed form (tol 2%), "
            f"solver-oracle gaps {stem_flat.payoff - orc_flat.payoff:.2e}, "
            f"{stem_canopy.payoff - orc_can.payoff:.2e}")


def test_criterion_06_nonuniqueness_reproduction():
    params = ModelParams(theta0=math.pi / 4, kappa=1.0, ell=1.2)
    nu = m1.find_nonuniqueness_epsilon(params)
    tie = abs(nu.payoff_low - nu.payoff_high)
    closed = abs(nu.payoff_low - 1.2 * (1.0 - math.exp(-1.0)) * nu.eps_hat)
    prof = LightProfile.step(nu.eps_hat, 1.0)
    feedback = 0.0
    for shape in (nu.shape_low, nu.shape_high):
        mask = np.abs(shape.y - 1.0) > 1e-6
        resid = m1.F_of(shape.theta[mask], params) \
            + shape.lam / prof.eval(shape.y[mask])
        feedback = max(feedback, float(np.max(np.abs(resid))))
    _report(6, "two-branch tie of the step-profile example",
            0.0 < nu.eps_hat < nu.eps_one and tie <= 1e-10
            and closed <= 1e-12 and feedback <= 1e-8,
            f"eps_hat={nu.eps_hat:.6f} in ]0,{nu.eps_one:.6f}[, "
            f"|payoff gap|={tie:.1e} (tol 1e-10), feedback={feedback:.1e} (tol 1e-8)")


def test_criterion_07_equilibrium1_fixed_point():
    worst_resid, worst_nc = 0.0, 0.0
    for rk in (0.01, 0.05, 0.1):
        params = ModelParams(theta0=math.pi / 4, kappa=1.0, ell=1.0, rho=rk)
        res = e1.solve_equilibrium1(params)
        worst_resid = max(worst_resid, res.residual_refit, res.residual_map)
        shade = trapezoid_cumulative(res.y, rk / np.sin(res.theta_star))
        z = (math.exp(-1.0) - 1.0) * np.exp(shade[-1] - shade)
        nc = float(np.max(np.abs(m1.phi_inverse(z, params) - res.theta_star)))
        worst_nc = max(worst_nc, nc)
    _report(7, "fixed-length equilibrium is a verified fixed point",
            worst_resid <= 1e-6 and worst_nc <= 1e-7,
            f"residuals={worst_resid:.2e} (tol 1e-6), "
            f"necessary condition={worst_nc:.2e} (tol 1e-7)")


def test_criterion_08_equilibrium2_consistency(eq2_cases):
    worst_h, worst_i = 0.0, 0.0
    roots_ok = True
    for rho0, (direct, fixed, _) in eq2_cases.items():
        worst_h = max(worst_h, abs(direct.h - fixed.h))
        ys = np.linspace(0.0, max(direct.h, fixed.h) * 1.05, 2001)
        worst_i = max(worst_i, float(np.max(np.abs(
            direct.I_star.eval(ys) - fixed.I_star.eval(ys)))))
        roots_ok = roots_ok and len(direct.h_roots) == 1
    h_small = eq2_cases[0.001][0].h
    drift = abs(h_small - H0_EXACT) / H0_EXACT
    _report(8, "free-length equilibrium: two methods agree",
            worst_h <= 1e-5 and worst_i <= 1e-5 and drift <= 0.05 and roots_ok,
            f"dh={worst_h:.2e}, dI={worst_i:.2e} (tol 1e-5), "
            f"h(0.001) within {100 * drift:.2f}% of flat-light height, "
            f"single residual root={roots_ok}")


def test_criterion_09_terminal_layer_exponents():
    detail = []
    ok = True
    canopy = LightProfile.constant_rate_canopy(0.1, 1.0)
    for alpha in (0.3, 0.5, 0.7):
        params = ModelParams(theta0=math.pi / 4, alpha=alpha, c=1.0)
        flat = m2.shoot_op2(LightProfile.constant(1.0), params)
        tau = flat.h - flat.y
        m = (tau > 2e-6 * flat.h) & (tau < 100e-6 * flat.h) \
            & (flat.q < flat.I)
        q_slope = np.polyfit(np.log(tau[m]),
                             np.log(1.0 - flat.q[m] / flat.I[m]), 1)[0]
        q_target = alpha / (2.0 - alpha)
        shaded = m2.shoot_op2(canopy, params)
        tau = shaded.h - shaded.y
        m = (tau > 20e-6 * shaded.h) & (tau < 1000e-6 * shaded.h) \
            & (shaded.p > 0)
        p_slope = np.polyfit(np.log(tau[m]), np.log(shaded.p[m]), 1)[0]
        p_target = 2.0 / (2.0 - alpha)
        ok = ok and abs(q_slope / q_target - 1.0) <= 0.10 \
            and abs(p_slope / p_target - 1.0) <= 0.10
        detail.append(f"a={alpha}: q {q_slope:.3f}/{q_target:.3f}, "
                      f"p {p_slope:.3f}/{p_target:.3f}")
    _report(9, "terminal-layer exponents within 10%", ok, "; ".join(detail))


def test_criterion_10_property_suites(params45, params2, stem_flat, stem_canopy):
    rng = np.random.default_rng(71)
    prof = LightProfile.tabulated([0.0, 0.4, 1.0], [0.55, 0.75, 1.0])
    failures = 0
    # rearrangement and fold never lower the payoff (100 cases each)
    for _ in range(100):
        theta = rng.uniform(params45.theta0, math.pi / 2, 64)
        re = oracles.rearrange_nonincreasing(theta)
        if oracles.payoff_heights(re, 0.8, prof, params45) \
                < oracles.payoff_heights(theta, 0.8, prof, params45) - 1e-13:
            failures += 1
        up = rng.uniform(1e-6, math.pi, 33)
        folded = oracles.fold_angles(up, params45)
        if oracles.payoff_op1(folded, prof, params45, refine=2048) \
                < oracles.payoff_op1(up, prof, params45, refine=2048) - 1e-11:
            failures += 1
    # feedback stationarity by finite differences (100 cases)
    worst_grad = 0.0
    for _ in range(100):
        I = rng.uniform(0.5, 1.0)
        q = rng.uniform(0.05, 0.95) * I
        p = rng.uniform(0.0, 0.4)
        th, u, _ = m2.feedback_TU(I, p, q, params2)
        d = 1e-5
        ham = lambda t, v: p * math.sin(t) - q * v + I * m2.G2(t, v, params2)
        g1 = abs(ham(th + d, u) - ham(th - d, u)) / (2 * d)
        g2 = abs(ham(th, u + d) - ham(th, u - d)) / (2 * d)
        worst_grad = max(worst_grad, g1, g2)
    if worst_grad > 1e-6:
        failures += 1
    # angle monotonicity of fixed-length solutions on random smooth canopies
    for _ in range(100):
        rate = rng.uniform(0.02, 0.25)
        top = rng.uniform(0.6, 1.2)
        shape = m1.solve_op1(LightProfile.constant_rate_canopy(rate, top),
                             params45, n_grid=256)[0]
        if not np.all(np.diff(shape.theta) <= 1e-10):
            failures += 1
    # costate ratio stays in ]0, 1] along free-length trajectories
    for stem in (stem_flat, stem_canopy):
        idx = rng.integers(1, len(stem.y), 100)
        ratio = stem.q[idx] / stem.I[idx]
        if not np.all((ratio > 0.0) & (ratio <= 1.0 + 1e-12)):
            failures += 1
    _report(10, "randomized property suites", failures == 0,
            f"failures={failures}, stationarity={worst_grad:.1e} (tol 1e-6)")


def test_criterion_11_spatial_reduction_and_halfline(params45, canopy_profile):
    from stemopt import spatial as sp
    fld = sp.LightField2D.stratified(canopy_profile, (-1.0, 2.0, 0.0, 1.5),
                                     32, 4096)
    res = sp.solve_op3_single(fld, 0.0, params45, n_s=800)
    ref = m1.solve_op1(canopy_profile, params45)[0]
    gap = float(np.max(np.abs(res.theta - np.interp(res.y, ref.y, ref.theta))))
    hl = sp.halfline_relaxation(params45, rho_scale=0.01, n_stems=7,
                                iterations=8, grid=128, n_s=160)
    th_root = hl.family.theta[:, 0]
    interior = th_root[:-2]
    monotone = bool(np.all(np.diff(interior) >= -5e-3))
    # non-convergence of the conjectured half-line equilibrium is reported,
    # not failed; the monotone boundary-layer shape is the qualitative gate
    _report(11, "planar reduction and half-line boundary layer",
            gap <= 1e-4 and res.stationarity_residual <= 1e-5 and monotone,
            f"stratified gap={gap:.2e} (tol 1e-4), "
            f"stationarity={res.stationarity_residual:.2e} (tol 1e-5), "
            f"theta(0,xi) monotone={monotone}, "
            f"halfline converged={hl.converged} (reported)")
