"""Acceptance gate: nine end-to-end checks at pinned tolerances.

Each test prints one "[acceptance] criterion N <name>: PASS/FAIL" line
(bypassing pytest capture) and then asserts, so the gate is readable from
the raw test log. Expensive fixtures are shared across criteria.
"""

import dataclasses
import json
import math
import os
import sys

import numpy as np
import pytest

from graddivbox.config import RunConfig, SweepConfig
from graddivbox.criterion import CriterionInput, build_report
from graddivbox.forcing import ForcingSpec, force_stats, realize_force
from graddivbox.grid import GridSpec, parseval_sum
from graddivbox.runner import run_single, run_sweep
from graddivbox.solver import (
    FlowParams,
    StepperConfig,
    divergent_mms_target,
    imex_step,
    nonlinear_term,
    run_mms,
)

import conftest

TWO_PI = 2.0 * math.pi

# Taylor-Green-type force f = (sin x cos y, -cos x sin y) on the 2pi box
TG_MODES = (((1, 1), (-0.25j, 0.25j)), ((1, -1), (-0.25j, -0.25j)))


def _report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[acceptance] criterion {num} {name}: {verdict}"
    if detail:
        line += f"  ({detail})"
    print(line, file=sys.__stdout__, flush=True)
    conftest.ACCEPTANCE_LINES.append(line)
    assert ok, line


def _bound_check_config(output_dir):
    # 3d forced run targeting Re ~ 50 and R_gamma ~ 1 with a kappa = sqrt(2)
    # shear force f = cos(y) e_x; burn-in ~ 6 and window ~ 25 eddy turnovers
    grid = GridSpec(dim=3, n=32, box_length=TWO_PI)
    return RunConfig(
        grid=grid,
        params=FlowParams(nu=0.045, gamma=2.3),
        forcing=ForcingSpec(grid=grid, modes=(((0, 1, 0), (0.5, 0.0, 0.0)),)),
        stepper=StepperConfig(dt=5e-3, t_end=6.5),
        burn_in=1.25,
        window=5.25,
        seed=7,
        output_dir=str(output_dir),
    )


@pytest.fixture(scope="module")
def bound_check_run(tmp_path_factory):
    base = tmp_path_factory.mktemp("bound_check")
    cfg = _bound_check_config(base / "primary")
    summary = run_single(cfg)
    return cfg, summary


def test_criterion_1_skew_symmetry():
    grid = GridSpec(dim=3, n=32, box_length=TWO_PI)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(100):
        u = conftest.zero_mean(conftest.from_samples(
            grid, rng.standard_normal((3,) + grid.shape)))
        n = nonlinear_term(u, conftest.operator(grid))
        rel = abs(conftest.inner(grid, n, u)) / math.sqrt(
            parseval_sum(grid, n) * parseval_sum(grid, u))
        worst = max(worst, rel)
    _report(1, "skew-symmetry", worst <= 1e-10, f"worst rel = {worst:.2e}")


def test_criterion_2_mms_temporal_order():
    grid = GridSpec(dim=2, n=32, box_length=TWO_PI)
    target = divergent_mms_target(grid)
    params = FlowParams(nu=0.05, gamma=1.0)
    errs = [run_mms(target, params, StepperConfig(dt=dt, t_end=0.4))["max_l2_error"]
            for dt in (4e-3, 2e-3, 1e-3)]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
    _report(2, "mms-temporal-order", min(orders) >= 1.9,
            "orders = " + ", ".join(f"{o:.3f}" for o in orders))


def test_criterion_3_shear_decay():
    grid = GridSpec(dim=3, n=16, box_length=TWO_PI)
    nu, dt = 0.1, 1e-3
    xs = np.meshgrid(*[np.arange(grid.n) * grid.spacing] * 3, indexing="ij")
    u0 = np.stack([np.sin(xs[1]), np.zeros(grid.shape), np.zeros(grid.shape)])
    worst = 0.0
    for gamma in (0.0, 1.0, 1e3):
        u = conftest.from_samples(grid, u0)
        op = conftest.operator(grid, FlowParams(nu=nu, gamma=gamma), dt)
        f = conftest.zeros(grid)
        for i in range(1000):
            u = imex_step(u, i * dt, op, f, f)
        err = math.sqrt(parseval_sum(grid, conftest.from_samples(
            grid, conftest.samples(grid, u) - math.exp(-nu) * u0)))
        worst = max(worst, err)
    _report(3, "shear-decay", worst <= 1e-6, f"worst L2 error = {worst:.2e}")


def test_criterion_4_energy_budget_residual(tmp_path):
    grid = GridSpec(dim=2, n=64, box_length=TWO_PI)
    dts = (4e-3, 2e-3)
    res = []
    for dt in dts:
        cfg = RunConfig(
            grid=grid, params=FlowParams(nu=0.01, gamma=0.7),
            forcing=ForcingSpec(grid=grid, modes=TG_MODES),
            stepper=StepperConfig(dt=dt, t_end=2.0),
            burn_in=0.0, window=2.0, seed=5,
            output_dir=str(tmp_path / f"dt_{dt}"),
        )
        summary = run_single(cfg)
        data = json.load(open(os.path.join(cfg.output_dir, "summary.json")))
        assert "budget_residual_max" in data
        res.append(summary["budget_residual_max"])
    # calibrate C = r(dt)/dt^2 at the coarse step; the halved step must obey it
    c = res[0] / dts[0] ** 2
    bound = max(c * dts[1] ** 2, 1e-12)
    _report(4, "energy-budget-residual", res[1] <= bound,
            f"r({dts[1]}) = {res[1]:.2e} <= C dt^2 = {bound:.2e}")


def test_criterion_5_dissipation_bound(bound_check_run):
    _, summary = bound_check_run
    measured = summary["eps_normalized"]
    bound = 6.0 + 1.0 / summary["Re"] + 0.25 * summary["kappa"] ** 2 * summary["R_gamma"]
    ok = (measured is not None and measured <= bound
          and summary["bound_satisfied"] is True)
    ratio = measured / bound
    _report(5, "dissipation-bound", ok,
            f"<eps> L/U^3 = {measured:.4f} vs bound {bound:.3f}, ratio {ratio:.4f}, "
            f"Re = {summary['Re']:.1f}, R_gamma = {summary['R_gamma']:.3f}")


def test_criterion_6_criterion_algebra():
    inp = CriterionInput(U=1.0, L=1.0, nu=0.01, kappa=math.sqrt(2), gamma=1.0, h=1.0 / 16.0)
    r = build_report(inp)
    checks = []
    checks.append(r.Re == pytest.approx(100.0) and r.R_gamma == pytest.approx(1.0))
    checks.append(r.eps_bound == pytest.approx(6.51))
    lo, hi = r.gamma_lo, r.gamma_hi_mesh_independent
    checks.append(lo == pytest.approx(1.0 / 12.0) and hi == pytest.approx(50.0))
    hi_d = r.gamma_hi_mesh_dependent
    checks.append(lo == pytest.approx(1.0 / 12.0)
                  and hi_d == pytest.approx(0.5 * 16.0 ** (4.0 / 3.0)))
    # eta = Re^(-3/4) L at Re = 1e4
    checks.append(build_report(CriterionInput(U=1.0, L=1.0, nu=1e-4, kappa=1.0)).eta == pytest.approx(1e-3))
    # setting h to the Kolmogorov scale makes the two windows coincide
    at_eta = CriterionInput(U=1.0, L=1.0, nu=0.01, kappa=math.sqrt(2), h=r.eta)
    checks.append(build_report(at_eta).gamma_hi_mesh_dependent == pytest.approx(hi, rel=1e-12))
    _report(6, "criterion-algebra", all(checks),
            f"{sum(bool(c) for c in checks)}/6 identities hold")


def test_criterion_7_divergence_penalty_sweep(tmp_path):
    grid = GridSpec(dim=2, n=64, box_length=TWO_PI)
    base = RunConfig(
        grid=grid, params=FlowParams(nu=0.042, gamma=0.0),
        forcing=ForcingSpec(grid=grid, modes=TG_MODES),
        stepper=StepperConfig(dt=2e-3, t_end=4.0),
        burn_in=1.0, window=3.0, seed=3,
        output_dir=str(tmp_path / "sweep"),
    )
    out = run_sweep(SweepConfig(base=base, gamma_values=(0.0, 0.1, 1.0, 10.0)))
    divs = [out["summaries"][g]["div_norm_sq_avg"] for g in ("0.0", "0.1", "1.0", "10.0")]
    ratio = divs[0] / divs[-1]
    ok = not out["failures"] and divs[0] > divs[-1] and ratio >= 10.0
    _report(7, "divergence-penalty-sweep", ok,
            "div_norm_sq_avg = " + ", ".join(f"{d:.3g}" for d in divs)
            + f"; reduction {ratio:.0f}x")


def test_criterion_8_force_statistics():
    grid = GridSpec(dim=3, n=32, box_length=TWO_PI)
    shear = force_stats(realize_force(ForcingSpec(
        grid=grid, modes=(((0, 1, 0), (-0.5j, 0.0, 0.0)),))))
    grid2 = GridSpec(dim=2, n=32, box_length=TWO_PI)
    tg = force_stats(realize_force(ForcingSpec(grid=grid2, modes=TG_MODES)))
    checks = [
        # f = sin(y) e_x: F = 1/sqrt(2), L = min{2pi, 1/sqrt(2), 1}, kappa = sqrt(2)
        abs(shear.F - 1 / math.sqrt(2)) <= 1e-10,
        abs(shear.L - 1 / math.sqrt(2)) <= 1e-10,
        shear.L_branch == "sup_gradient",
        abs(shear.kappa - math.sqrt(2)) <= 1e-10,
        # Taylor-Green: F = 1/sqrt(2), L = min{2pi, 1/2, 1/sqrt(2)}, kappa = sqrt(2)
        abs(tg.F - 1 / math.sqrt(2)) <= 1e-10,
        abs(tg.L - 0.5) <= 1e-10,
        tg.L_branch == "sup_gradient",
        abs(tg.kappa - math.sqrt(2)) <= 1e-10,
    ]
    _report(8, "force-statistics", all(checks),
            f"{sum(checks)}/8 oracle values matched at 1e-10")


def test_criterion_9_determinism(bound_check_run, tmp_path):
    cfg, _ = bound_check_run
    primary_csv = open(os.path.join(cfg.output_dir, "timeseries.csv")).read()

    rerun = dataclasses.replace(cfg, output_dir=str(tmp_path / "rerun"))
    run_single(rerun)
    rerun_csv = open(os.path.join(rerun.output_dir, "timeseries.csv")).read()
    bitwise_rerun = rerun_csv == primary_csv

    half = dataclasses.replace(
        cfg, stepper=dataclasses.replace(cfg.stepper, t_end=3.25),
        window=2.0, output_dir=str(tmp_path / "half"))
    run_single(half)
    resumed = dataclasses.replace(cfg, output_dir=str(tmp_path / "resumed"))
    run_single(resumed, restart_path=os.path.join(half.output_dir, "final.ckpt"))
    tail = open(os.path.join(resumed.output_dir, "timeseries.csv")).read().splitlines()[1:]
    bitwise_tail = primary_csv.splitlines()[-len(tail):] == tail

    # resumed in place, the half run's directory holds the primary run's whole file
    run_single(dataclasses.replace(cfg, output_dir=half.output_dir),
               restart_path=os.path.join(half.output_dir, "final.ckpt"))
    in_place_csv = open(os.path.join(half.output_dir, "timeseries.csv")).read()
    bitwise_file = in_place_csv == primary_csv

    _report(9, "determinism", bitwise_rerun and bitwise_tail and bitwise_file,
            f"rerun bitwise = {bitwise_rerun}, restart tail bitwise = {bitwise_tail}, "
            f"in-place restart file bitwise = {bitwise_file}")
