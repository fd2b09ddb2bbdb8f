"""Run orchestration: single runs, gamma sweeps, CSV/JSON persistence.

A single run realizes the configured force, builds a reproducible initial
condition (force shape at unit rms plus a small seeded divergence-free
perturbation), advances the solver with a fixed step, accumulates window
statistics after burn-in, and writes three artifacts into output_dir:

    timeseries.csv   one row per step: t, kinetic_energy, eps_nu,
                     eps_gamma, div_norm_sq, budget_residual
    summary.json     force scales, U_T, Re, R_gamma, <eps> and its split,
                     the dissipation bound and whether it held, and the
                     admissible gamma windows
    final.ckpt       restartable binary checkpoint of the end state

The state stays spectral through the whole run: the checkpoint stores the
solver's own coefficients, and the mean (k = 0) mode of a fresh run stays
exactly 0. Time is the step index i, reported as i * dt. All floats in the
CSV are printed with 17 significant digits, so a serial rerun (or a
checkpoint restart) reproduces rows bitwise. A restart must start on the
step grid and before t_end, and resumes the step index there; anything else
is refused before a file is written.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import criterion as crit
from .checkpoint import read_checkpoint, write_checkpoint
from .config import RunConfig, SweepConfig
from .forcing import check_divergence_free, force_stats, realize_force
from .grid import Field, dealias, mode_numbers, project_divergence_free, volume_norm_sq
from .solver import BlowUpError, step, step_index
from .stats import Diagnostics, RunningStats, diagnostics, finalize, update

PERTURBATION_RMS = 0.01
PERTURBATION_MAX_MODE = 4

CSV_HEADER = "t,kinetic_energy,eps_nu,eps_gamma,div_norm_sq,budget_residual"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _csv_row(t: float, d: Diagnostics, residual: float) -> str:
    values = (t, 0.5 * d.u_sq, d.eps_nu, d.eps_gamma, d.div_sq, residual)
    return ",".join(_fmt(v) for v in values) + "\n"


def json_safe(obj):
    """`obj` with numpy scalars as Python numbers and non-finite floats as strings."""
    if isinstance(obj, dict):
        return {k: json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [json_safe(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (float, np.floating)):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    return obj


def initial_condition(cfg: RunConfig, force: Field | None) -> Field:
    """Force shape at unit rms plus a seeded divergence-free perturbation.

    The perturbation lives on modes with |m_j| <= 4, has zero mean, and is
    scaled to rms PERTURBATION_RMS; the whole construction is a pure
    function of the seed, so runs are reproducible. For unforced runs the
    perturbation alone, scaled to unit rms, is the initial state.
    """
    grid = cfg.grid
    if force is not None:
        base = force.spec / np.sqrt(volume_norm_sq(force))
    else:
        base = np.zeros((grid.dim,) + grid.spectral_shape, dtype=complex)
    rng = np.random.default_rng(cfg.seed)
    s = Field.from_physical(grid, rng.standard_normal((grid.dim,) + grid.shape)).spec
    for m in mode_numbers(grid):
        s[:, np.abs(m) > PERTURBATION_MAX_MODE] = 0.0
    s[(slice(None),) + (0,) * grid.dim] = 0.0
    pert = project_divergence_free(Field.from_spectral(grid, s))
    prms = np.sqrt(volume_norm_sq(pert))
    target_rms = PERTURBATION_RMS if force is not None else 1.0
    scale = target_rms / prms if prms > 0 else 0.0
    # summed in spectral space, so the mean (k = 0) mode is exactly 0
    u0 = Field.from_spectral(grid, base + scale * pert.spec)
    # keep the state band-limited from the start
    return dealias(u0)


def run_single(cfg: RunConfig, restart_path=None) -> dict:
    """Execute one run; returns the summary dict (also written to summary.json)."""
    grid, params, stepper = cfg.grid, cfg.params, cfg.stepper
    if cfg.forcing.modes:
        force = realize_force(cfg.forcing)
        check_divergence_free(force)
        fstats = force_stats(force)
    else:
        force = None
        fstats = None
    f_field = force if force is not None else Field.zeros(grid)

    dt, n_steps = stepper.dt, stepper.n_steps

    if restart_path is not None:
        ck_grid, u, t0, ck_params = read_checkpoint(restart_path)
        if ck_grid != grid:
            raise ValueError("checkpoint grid does not match the configured grid")
        if ck_params != params:
            raise ValueError("checkpoint flow parameters do not match the configured flow")
        start_step = step_index(t0, dt, "checkpoint time t0")
        if start_step >= n_steps:
            raise ValueError(f"checkpoint time t0 = {t0} leaves no step of dt = {dt} "
                             f"before t_end = {stepper.t_end}")
    else:
        u = initial_condition(cfg, force)
        start_step = 0

    os.makedirs(cfg.output_dir, exist_ok=True)
    stats = RunningStats(burn_in=cfg.burn_in, step=start_step)
    d = diagnostics(u, params)
    csv_path = os.path.join(cfg.output_dir, "timeseries.csv")
    with open(csv_path, "w") as csv:
        csv.write(CSV_HEADER + "\n")
        if start_step == 0:
            csv.write(_csv_row(0.0, d, 0.0))
        for i in range(start_step, n_steps):
            t = i * dt
            try:
                u_next = step(u, params, f_field, stepper, t)
            except BlowUpError:
                write_checkpoint(os.path.join(cfg.output_dir, "blowup.ckpt"), u, t, params)
                raise
            d_next = diagnostics(u_next, params)
            update(stats, u, d, u_next, d_next, params, f_field, dt)
            csv.write(_csv_row((i + 1) * dt, d_next, stats.last_residual))
            u, d = u_next, d_next

    write_checkpoint(os.path.join(cfg.output_dir, "final.ckpt"), u, n_steps * dt, params)

    summary = _summarize(cfg, fstats, stats)
    with open(os.path.join(cfg.output_dir, "summary.json"), "w") as fh:
        json.dump(json_safe(summary), fh, indent=2)
    return summary


def _summarize(cfg: RunConfig, fstats, stats: RunningStats) -> dict:
    averages = finalize(stats, fstats)
    u_t = averages["U_T"]
    report = None
    if fstats is not None and u_t > 0:
        inp = crit.CriterionInput(
            U=u_t, L=fstats.L, nu=cfg.params.nu,
            kappa=max(fstats.kappa, 1.0), gamma=cfg.params.gamma, h=cfg.grid.spacing,
        )
        report = crit.build_report(inp, measured_eps_avg=averages["eps_avg"])
    return {
        "F": fstats.F if fstats else None,
        "L": fstats.L if fstats else None,
        "L_branch": fstats.L_branch if fstats else None,
        "kappa": fstats.kappa if fstats else None,
        "nu": cfg.params.nu,
        "gamma": cfg.params.gamma,
        "dt": cfg.stepper.dt,
        "t_end": cfg.stepper.t_end,
        "burn_in": cfg.burn_in,
        "window": averages["window"],
        "seed": cfg.seed,
        "U_T": u_t,
        "Re": report.Re if report else None,
        "R_gamma": report.R_gamma if report else None,
        "eps_avg": averages["eps_avg"],
        "eps_nu_avg": averages["eps_nu_avg"],
        "eps_gamma_avg": averages["eps_gamma_avg"],
        "eps_normalized": averages.get("eps_normalized"),
        "eps_bound": report.eps_bound if report else None,
        "eps_bound_viscous": report.eps_bound_viscous if report else None,
        "bound_satisfied": report.bound_satisfied if report else None,
        "div_norm_sq_avg": averages["div_norm_sq_avg"],
        "budget_residual_max": averages["budget_residual_max"],
        "gamma_lo": report.gamma_lo if report else None,
        "gamma_hi_mesh_independent": report.gamma_hi_mesh_independent if report else None,
        "gamma_hi_mesh_dependent": report.gamma_hi_mesh_dependent if report else None,
        "in_window_mesh_independent": report.in_window_mesh_independent if report else None,
        "in_window_mesh_dependent": report.in_window_mesh_dependent if report else None,
        "kolmogorov_eta": report.eta if report else None,
    }


def _run_for_sweep(args):
    cfg, gamma, index = args
    sub = dataclasses.replace(
        cfg,
        params=dataclasses.replace(cfg.params, gamma=gamma),
        output_dir=os.path.join(cfg.output_dir, f"gamma_{index:03d}"),
    )
    try:
        return index, run_single(sub), None
    except BlowUpError as e:
        return index, None, f"blow-up at t = {e.t}"


def run_sweep(sweep: SweepConfig) -> dict:
    """Run one solver instance per gamma; aggregate into sweep.csv and sweep.json.

    Per-gamma failures are recorded and the sweep continues; the returned
    dict has `failures` nonempty in that case.
    """
    base = sweep.base
    os.makedirs(base.output_dir, exist_ok=True)
    jobs = [(base, g, i) for i, g in enumerate(sweep.gamma_values)]
    if sweep.parallel_workers > 1:
        with ProcessPoolExecutor(max_workers=sweep.parallel_workers) as pool:
            results = list(pool.map(_run_for_sweep, jobs))
    else:
        results = [_run_for_sweep(j) for j in jobs]

    rows = []
    summaries = {}
    failures = {}
    for (index, summary, err), gamma in zip(results, sweep.gamma_values):
        if err is not None:
            failures[gamma] = err
            continue
        summaries[gamma] = summary
        rows.append([
            gamma, summary["eps_avg"], summary["eps_nu_avg"], summary["eps_gamma_avg"],
            summary["div_norm_sq_avg"], summary["U_T"], summary["eps_bound"],
            summary["in_window_mesh_independent"], summary["in_window_mesh_dependent"],
        ])

    csv_path = os.path.join(base.output_dir, "sweep.csv")
    with open(csv_path, "w") as fh:
        fh.write("gamma,eps_total,eps_nu,eps_gamma,div_norm_avg,U_T,bound,in_window_mi,in_window_md\n")
        for row in rows:
            fh.write(",".join(
                _fmt(v) if isinstance(v, float) else str(v) for v in row
            ) + "\n")

    out = {
        "gamma_values": list(sweep.gamma_values),
        "summaries": {str(g): s for g, s in summaries.items()},
        "failures": {str(g): e for g, e in failures.items()},
    }
    with open(os.path.join(base.output_dir, "sweep.json"), "w") as fh:
        json.dump(json_safe(out), fh, indent=2)
    return out
