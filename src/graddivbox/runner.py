"""Run orchestration: single runs, gamma sweeps, CSV/JSON persistence.

A single run realizes the configured force, builds a reproducible initial
condition (force shape at unit rms plus a small seeded divergence-free
perturbation), advances the solver with a fixed step, keeps one record per
state, averages the records after burn-in, and writes into output_dir:

    timeseries.csv   one row per step: t, kinetic_energy, eps_nu,
                     eps_gamma, div_norm_sq, budget_residual
    summary.json     force scales, U_T, Re, R_gamma, <eps> and its split,
                     the dissipation bound and whether it held, and the
                     admissible gamma windows
    final.ckpt       restartable binary checkpoint of the end state

The force, the initial or restart state, the state of every step and the
checkpoint payload are compact coefficients, on the modes the 2/3 rule
keeps (the layout of `grid`). The mean (k = 0) mode of a fresh run stays
exactly 0. Time is the step index i, reported as i * dt. All floats in the
CSV are printed with 17 significant digits, so a serial rerun (or a
checkpoint restart) reproduces rows bitwise. A restart must start on the
step grid in [0, t_end) and resumes the step index there; anything else
is refused before a file is written. A restart into an output_dir holding
a timeseries.csv keeps and averages its rows up to t0 (the t0 row holding
the restored state bitwise); into a fresh output_dir it averages from t0.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os

import numpy as np

from . import criterion as crit
from .checkpoint import read_checkpoint, write_checkpoint
from .config import RunConfig, SweepConfig
from .forcing import check_divergence_free, force_stats, realize_force
from .grid import Field, mode_numbers, parseval_sum, project_divergence_free, to_compact
from .solver import BlowUpError, SpectralOperator, imex_step, step_index
from .stats import Diagnostics, diagnostics, finalize, update

PERTURBATION_RMS = 0.01
PERTURBATION_MAX_MODE = 4

CSV_HEADER = "t,kinetic_energy,eps_nu,eps_gamma,div_norm_sq,budget_residual"


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _csv_row(t: float, d: Diagnostics, residual: float) -> str:
    values = (t, 0.5 * d.u_sq, d.eps_nu, d.eps_gamma, d.div_sq, residual)
    return ",".join(_fmt(v) for v in values) + "\n"


def _rows_up_to(csv_path: str, start_step: int, dt: float, d: Diagnostics) -> tuple[str, list]:
    """Header, rows and records of an earlier timeseries.csv up to start_step, whose row holds `d` bitwise."""
    with open(csv_path) as fh:
        lines = fh.readlines()
    t0 = start_step * dt
    state = _csv_row(t0, d, 0.0).rsplit(",", 1)[0] + ","  # t through div_norm_sq
    at = next((i for i, row in enumerate(lines) if row.startswith(state)), 0)  # the header is line 0
    if lines[:1] != [CSV_HEADER + "\n"] or not at:
        raise ValueError(f"{csv_path} has no row at the checkpoint time t0 = {t0} that holds the restored state")
    records = []
    for i, row in enumerate(lines[1:at + 1], start_step + 1 - at):
        try:
            t, kinetic_energy, eps_nu, eps_gamma, div_sq, residual = map(float, row.split(","))
            if i < 0 or t != i * dt:
                raise ValueError
        except ValueError:
            raise ValueError(f"{csv_path} row {row.strip()!r} is not six floats at t = {i} * dt") from None
        # kinetic_energy is u_sq / 2 printed round-trip, so doubling it is exact
        records.append((Diagnostics(2 * kinetic_energy, eps_nu, eps_gamma, div_sq), residual))
    return "".join(lines[:at + 1]), records


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


def initial_condition(cfg: RunConfig, force: Field | None) -> np.ndarray:
    """Compact coefficients of the force shape at unit rms plus a seeded divergence-free perturbation.

    The perturbation is the transform of seeded noise band-limited to
    |m_j| <= min(PERTURBATION_MAX_MODE, cutoff) = min(4, cutoff), with zero
    mean, projected divergence-free and scaled to rms PERTURBATION_RMS; the
    whole construction is a pure function of the seed, so runs are
    reproducible. For unforced runs the perturbation alone, scaled to unit
    rms, is the initial state.
    """
    grid = cfg.grid
    base = force.spec / np.sqrt(parseval_sum(grid, force.spec)) if force is not None else 0.0
    rng = np.random.default_rng(cfg.seed)
    s = to_compact(grid, rng.standard_normal((grid.dim,) + grid.shape))
    for m in mode_numbers(grid):
        s[:, np.abs(m) > min(PERTURBATION_MAX_MODE, grid.cutoff)] = 0.0
    s[(slice(None),) + (0,) * grid.dim] = 0.0
    pert = project_divergence_free(grid, s)
    prms = np.sqrt(parseval_sum(grid, pert))
    target_rms = PERTURBATION_RMS if force is not None else 1.0
    scale = target_rms / prms if prms > 0 else 0.0
    # summed in spectral space, so the mean (k = 0) mode is exactly 0
    return base + scale * pert


def run_single(cfg: RunConfig, restart_path=None) -> dict:
    """Execute one run; returns the summary dict (also written to summary.json)."""
    grid, params, stepper = cfg.grid, cfg.params, cfg.stepper
    if cfg.forcing.modes:
        force = realize_force(cfg.forcing)
        check_divergence_free(force)
        fstats = force_stats(force)
    else:
        force = fstats = None
    dt, n_steps = stepper.dt, stepper.n_steps
    op = SpectralOperator(grid, params, dt)
    f = force.spec if force is not None else np.zeros((grid.dim,) + grid.compact_shape, dtype=complex)

    if restart_path is not None:
        ck_grid, u_ck, t0, ck_params = read_checkpoint(restart_path)
        if ck_grid != grid:
            raise ValueError("checkpoint grid does not match the configured grid")
        if ck_params != params:
            raise ValueError("checkpoint flow parameters do not match the configured flow")
        start_step = step_index(t0, dt, "checkpoint time t0")
        if not 0 <= start_step < n_steps:
            raise ValueError(f"checkpoint time t0 = {t0} starts no step of the run, at or after t = 0 "
                             f"with dt = {dt} before t_end = {stepper.t_end}")
        u = u_ck.spec
    else:
        u = initial_condition(cfg, force)
        start_step = 0

    records = [(diagnostics(u, op), 0.0)]
    csv_path = os.path.join(cfg.output_dir, "timeseries.csv")
    head = CSV_HEADER + "\n" + (_csv_row(0.0, *records[0]) if start_step == 0 else "")
    if restart_path is not None and os.path.exists(csv_path):
        head, records = _rows_up_to(csv_path, start_step, dt, records[0][0])
    os.makedirs(cfg.output_dir, exist_ok=True)
    with open(csv_path, "w") as csv:
        csv.write(head)
        for i in range(start_step, n_steps):
            t = i * dt
            try:
                u_next = imex_step(u, t, op, f, f)
            except BlowUpError:
                write_checkpoint(os.path.join(cfg.output_dir, "blowup.ckpt"), Field(grid, u), t, params)
                raise
            update(records, u, u_next, diagnostics(u_next, op), op, f)
            csv.write(_csv_row((i + 1) * dt, *records[-1]))
            u = u_next

    write_checkpoint(os.path.join(cfg.output_dir, "final.ckpt"), Field(grid, u), n_steps * dt, params)

    summary = _summarize(cfg, fstats, records)
    with open(os.path.join(cfg.output_dir, "summary.json"), "w") as fh:
        json.dump(json_safe(summary), fh, indent=2)
    return summary


def _summarize(cfg: RunConfig, fstats, records: list) -> dict:
    # the records are of consecutive states, the last at step n_steps
    averages = finalize(cfg.stepper.n_steps + 1 - len(records), records, cfg.stepper.dt, cfg.burn_in, fstats)
    u_t = averages["U_T"]
    report = None
    if fstats is not None and u_t > 0:
        inp = crit.CriterionInput(
            U=u_t, L=fstats.L, nu=cfg.params.nu,
            kappa=max(fstats.kappa, 1.0), gamma=cfg.params.gamma, h=cfg.grid.spacing,
        )
        report = crit.build_report(inp, measured_eps_avg=averages["eps_avg"])

    def pick(obj, *names):  # obj's attributes, or None for each when obj is None
        return {name: getattr(obj, name, None) for name in names}

    return {
        **pick(fstats, "F", "L", "L_branch", "kappa"),
        "nu": cfg.params.nu,
        "gamma": cfg.params.gamma,
        "dt": cfg.stepper.dt,
        "t_end": cfg.stepper.t_end,
        "burn_in": cfg.burn_in,
        "window": averages["window"],
        "seed": cfg.seed,
        "U_T": u_t,
        **pick(report, "Re", "R_gamma"),
        "eps_avg": averages["eps_avg"],
        "eps_nu_avg": averages["eps_nu_avg"],
        "eps_gamma_avg": averages["eps_gamma_avg"],
        "eps_normalized": averages.get("eps_normalized"),
        **pick(report, "eps_bound", "eps_bound_viscous", "bound_satisfied"),
        "div_norm_sq_avg": averages["div_norm_sq_avg"],
        "budget_residual_max": averages["budget_residual_max"],
        **pick(report, "gamma_lo", "gamma_hi_mesh_independent", "gamma_hi_mesh_dependent",
               "in_window_mesh_independent", "in_window_mesh_dependent"),
        "kolmogorov_eta": getattr(report, "eta", None),
    }


def _run_for_sweep(args):
    cfg, gamma, index = args
    sub = dataclasses.replace(
        cfg,
        params=dataclasses.replace(cfg.params, gamma=gamma),
        output_dir=os.path.join(cfg.output_dir, f"gamma_{index:03d}"),
    )
    try:
        return run_single(sub), None
    except BlowUpError as e:
        return None, f"blow-up at t = {e.t}"


def run_sweep(sweep: SweepConfig) -> dict:
    """Run one solver instance per gamma; aggregate into sweep.csv and sweep.json.

    Per-gamma failures are recorded and the sweep continues; the returned
    dict has `failures` nonempty in that case.
    """
    base = sweep.base
    os.makedirs(base.output_dir, exist_ok=True)
    jobs = [(base, g, i) for i, g in enumerate(sweep.gamma_values)]
    if sweep.parallel_workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # about 2 MB RSS, so only when a pool runs
        with ProcessPoolExecutor(max_workers=sweep.parallel_workers) as pool:
            results = list(pool.map(_run_for_sweep, jobs))
    else:
        results = [_run_for_sweep(j) for j in jobs]

    rows = []
    summaries = {}
    failures = {}
    for (summary, err), gamma in zip(results, sweep.gamma_values):
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
