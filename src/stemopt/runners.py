"""The CLI's kind runners.  Each solves a parsed `cli.Scenario` and returns
(files, residuals), where files maps an output name to its CSV columns
({header: values}, for a .csv name) or its JSON object; none of them touches
the filesystem."""

from dataclasses import replace

import numpy as np

from . import equilibrium1, equilibrium2, model1, model2, numerics, spatial
from .errors import NotConvergedError, StemOptError
from .params import Op2Config


def op1(scn):
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


def eq1(scn):
    res = equilibrium1.solve_equilibrium1(scn.params)
    return {"equilibrium.csv": {"y": res.y, "theta_star": res.theta_star,
                                "I_star": res.I_star.eval(res.y), "x": res.x},
            "summary.json": {
                "h_star": res.h_star, "rho_kappa": scn.params.rho * scn.params.kappa,
                "residual_refit": res.residual_refit, "residual_map": res.residual_map,
                "uniqueness_ok": res.uniqueness_ok,
                "uniqueness_margin": res.uniqueness_margin,
            }}, {"refit": res.residual_refit, "map": res.residual_map}


def op2(scn):
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


def eq2(scn):
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
                                "I_star": numerics.map_blocks(primary.I_star.eval, st.y),
                                "p": st.p, "q": st.q, "z": st.z},
            "summary.json": summary}, {"map": primary.residual_map,
                                       "refit": primary.residual_refit}


def sweep(scn):
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


def op3(scn):
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


def halfline(scn):
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
