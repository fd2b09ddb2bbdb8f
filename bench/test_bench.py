"""Tests of the benchmark itself: output checks, failure counting and tracing.

    PYTHONPATH=src python3 -m pytest -q bench
"""

import json
import math

import numpy as np
import pytest
import yaml

import graddivbox
from graddivbox import grid as gd
from graddivbox import solver, stats

import run
import workloads as wl
from tracer import Analysis, Tracer, _fft_work


FAKE_CTX = wl.Context(wl.FORCED3D, cfg=None)


def _setup(tmp_path, workload, seed=0):
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(wl.config_dict(workload, seed)))
    ctx, stages = wl.setup(workload, seed, str(cfg_path))
    return ctx, stages


def _fake_calls(monkeypatch, outputs):
    """Make wl.call return the given (steps, output) pairs in turn."""
    it = iter(outputs)

    def fake(ctx, out_dir, workers=None):
        item = next(it)
        if isinstance(item, Exception):
            raise item
        return item

    monkeypatch.setattr(wl, "call", fake)


def _forced3d_output(csv=b"t\n0\n"):
    ref = wl.load_reference(wl.FORCED3D, 0)
    summary = {"bound_satisfied": True, "budget_residual_max": 0.0, **ref}
    return 100, {"summary": summary, "csv": csv}


def test_every_pool_input_has_a_reference():
    for workload in (wl.FORCED3D, wl.MMS2D):
        for seed in range(wl.POOL_SIZE):
            assert wl.load_reference(workload, seed) is not None
    assert wl.load_reference(wl.MMS2D, 3) == wl.load_reference(wl.MMS2D, 3 + wl.POOL_SIZE)


def test_matching_forced3d_outputs_pass(monkeypatch, tmp_path):
    _fake_calls(monkeypatch, [_forced3d_output(), _forced3d_output()])
    calls = wl.repeat(FAKE_CTX, wl.Checker(wl.FORCED3D, 0), str(tmp_path), "c", seconds=0)
    assert [c.problems for c in calls] == [[], []]


@pytest.mark.parametrize("corrupt", [
    lambda s: s.update(eps_avg=s["eps_avg"] * (1 + 1e-7)),
    lambda s: s.update(U_T=s["U_T"] * (1 - 1e-7)),
    lambda s: s.update(div_norm_sq_avg=s["div_norm_sq_avg"] * 1.01),
    lambda s: s.update(bound_satisfied=False),
    lambda s: s.update(budget_residual_max=float("nan")),
    lambda s: s.update(budget_residual_max=1e-3),
])
def test_corrupted_forced3d_summary_counts_as_failure(monkeypatch, tmp_path, corrupt):
    good, bad = _forced3d_output(), _forced3d_output()
    corrupt(bad[1]["summary"])
    _fake_calls(monkeypatch, [good, bad])
    calls = wl.repeat(FAKE_CTX, wl.Checker(wl.FORCED3D, 0), str(tmp_path), "c", seconds=0)
    assert [bool(c.problems) for c in calls] == [False, True]


def test_changed_timeseries_counts_as_failure(monkeypatch, tmp_path):
    _fake_calls(monkeypatch, [_forced3d_output(csv=b"a"), _forced3d_output(csv=b"b")])
    calls = wl.repeat(FAKE_CTX, wl.Checker(wl.FORCED3D, 0), str(tmp_path), "c", seconds=0)
    assert [bool(c.problems) for c in calls] == [False, True]


def test_raising_call_counts_as_failure(monkeypatch, tmp_path):
    _fake_calls(monkeypatch, [RuntimeError("boom"), _forced3d_output()])
    calls = wl.repeat(FAKE_CTX, wl.Checker(wl.FORCED3D, 0), str(tmp_path), "c", seconds=0)
    assert [bool(c.problems) for c in calls] == [True, False]
    assert wl.ms_per_step(calls) == calls[1].ms_per_step


def _sweep_out(divs, failures=None):
    return {"failures": failures or {},
            "summaries": {str(g): {"div_norm_sq_avg": d} for g, d in zip(wl.SWEEP_GAMMAS, divs)}}


def test_sweep_checks():
    assert wl.check_sweep2d(_sweep_out([10.0, 3.0, 0.3, 0.01])) == []
    assert wl.check_sweep2d(_sweep_out([10.0, 3.0, 3.0, 0.01]))  # not strictly decreasing
    assert wl.check_sweep2d(_sweep_out([10.0, 5.0, 3.0, 2.0]))  # reduction below 10x
    assert wl.check_sweep2d(_sweep_out([10.0, 3.0, 0.3, 0.01], {"10.0": "blow-up"}))


def test_real_mms_study_passes_and_a_corrupted_one_fails(monkeypatch, tmp_path):
    ctx, _ = _setup(tmp_path, wl.MMS2D, seed=5)
    calls = wl.repeat(ctx, wl.Checker(wl.MMS2D, 5), str(tmp_path), "ok", seconds=0)
    assert [c.problems for c in calls] == [[], []] and calls[0].steps == 700

    real = solver.run_mms

    def perturbed(*args, **kwargs):
        rep = real(*args, **kwargs)
        return {**rep, "max_l2_error": rep["max_l2_error"] * (1 + 1e-6)}

    monkeypatch.setattr(solver, "run_mms", perturbed)
    calls = wl.repeat(ctx, wl.Checker(wl.MMS2D, 5), str(tmp_path), "bad", seconds=0)
    assert [len(c.problems) for c in calls] == [3, 3]


def test_mms_order_check():
    ref = wl.load_reference(wl.MMS2D, 0)
    assert wl.check_mms2d({"errors": ref["errors"]}, ref) == []
    first_order = [ref["errors"][0], ref["errors"][0] / 3.0, ref["errors"][0] / 12.0]
    problems = wl.check_mms2d({"errors": first_order}, {"errors": first_order})
    assert problems and "orders" in problems[0]


def test_fft_work_counts_components_and_bytes():
    a = np.zeros((3, 8, 8, 8))
    out = np.fft.rfftn(a, axes=(1, 2, 3))
    assert _fft_work((a,), {"axes": (1, 2, 3)}, out) == (3, a.nbytes + out.nbytes)
    assert _fft_work((a[0],), {"axes": (0, 1, 2)}, out[0])[0] == 1
    assert _fft_work((a[0],), {}, out[0])[0] == 1
    assert _fft_work((out, (8, 8, 8), (-3, -2, -1)), {}, a)[0] == 3


def test_self_time_excludes_children(tmp_path):
    tracer = Tracer()
    inner = tracer._wrap("stats.inner", lambda: sum(range(20000)))

    def outer_fn():
        inner()
        inner()
        return sum(range(20000))

    outer = tracer._wrap("solver.outer", outer_fn)
    with tracer.operation("x") as op:
        outer()
    path = tmp_path / "spans.npz"
    tracer.dump(path)
    a = Analysis(path)
    assert a.count([op], "stats.inner") == 2
    inner_total = a.total([op], "stats.inner")
    outer_total = a.total([op], "solver.outer")
    assert a.self_total([op], "solver.outer") == pytest.approx(outer_total - inner_total)
    assert a.layer_self([op], "stats") == pytest.approx(inner_total)
    assert a.counts(op) == {"op.x": 1, "solver.outer": 1, "stats.inner": 2,
                            "fft_components": 0, "fft_bytes": 0}


def test_install_wraps_every_binding_and_uninstall_restores(tmp_path):
    g = gd.GridSpec(dim=2, n=16, box_length=2 * math.pi)
    u = gd.Field.from_physical(g, np.random.default_rng(0).standard_normal((2, 16, 16)))
    params = solver.FlowParams(nu=0.1, gamma=1.0)
    solver.imex_step(u.spec, 0.0, 1e-3, params, g, np.zeros_like(u.spec))  # fill the grid caches
    original = gd.volume_norm_sq
    originals = {a: vars(gd.Field)[a] for a in ("phys", "spec", "from_spectral")}
    tracer = Tracer()
    tracer.install()
    try:
        assert stats.volume_norm_sq is gd.volume_norm_sq is graddivbox.volume_norm_sq
        assert gd.volume_norm_sq is not original
        ops = []
        for _ in range(2):
            with tracer.operation("step") as op:
                solver.imex_step(u.spec, 0.0, 1e-3, params, g, np.zeros_like(u.spec))
            ops.append(op)
    finally:
        tracer.uninstall()
    assert gd.volume_norm_sq is original and stats.volume_norm_sq is original
    assert {a: vars(gd.Field)[a] for a in originals} == originals
    path = tmp_path / "spans.npz"
    tracer.dump(path)
    a = Analysis(path)
    first, second = a.counts(ops[0]), a.counts(ops[1])
    assert first == second
    assert first["solver.nonlinear_term"] == 2 and first["solver._solve_shifted"] == 2
    # each nonlinear_term: 2 + 1 inverse transforms, 3 + 2 forward ones in 2d
    assert first["fft_components"] == 16
    assert first["grid.Field.from_spectral"] > 0 and first["grid.Field.phys"] > 0


def test_view_span_only_when_the_view_is_computed(tmp_path):
    g = gd.GridSpec(dim=2, n=16, box_length=2 * math.pi)
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.operation("views") as op:
            u = gd.Field.from_physical(g, np.ones((2, 16, 16)))
            u.phys, u.spec, u.spec
            v = gd.Field.from_spectral(g, u.spec)
            v.phys, v.phys
    finally:
        tracer.uninstall()
    path = tmp_path / "spans.npz"
    tracer.dump(path)
    a = Analysis(path)
    counts = a.counts(op)
    assert counts["grid.Field.from_physical"] == counts["grid.Field.from_spectral"] == 1
    assert counts["grid.Field.spec"] == counts["grid.Field.phys"] == 1
    assert counts["fft_components"] == 4
    # the FFTs are children of the view spans, all inside the grid layer
    assert a.layer_self([op], "grid") == pytest.approx(a.total([op], *[n for n in a.names if n.startswith("grid.")]))


@pytest.mark.parametrize("trace", [0, 1])
def test_no_passing_call_still_prints_a_result(monkeypatch, capsys, trace):
    probe = {"setup_s": 0.3, "stages": {}, "forcing.fft_transforms": 3}
    result = {"setup_s": 0.3, "setup_kernel_s": 0.3, "ms_per_step": None, "ms_per_step_samples": 0,
              "peak_rss_mb": 50.0, "layers": {}, "attempted": 2, "failed": 2}
    monkeypatch.setattr(run.os, "environ", dict(run.os.environ))  # main() pins thread variables
    monkeypatch.setattr(run, "child", lambda mode, *a, **k: probe if mode == "setup" else result)
    argv = ["--workload", wl.MMS2D, "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    assert run.main(argv) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert line["correct"] is False and line["failed"] == line["attempted"] == 2
    if trace:
        assert line["metrics"]["solver.imex_step_ms_p50"]["value"] is None
    else:
        assert line["metrics"]["pass_ratio"]["value"] == 0.0
        assert line["metrics"]["ms_per_step"]["value"] is None


def test_count_problems_flags_differing_traced_calls(tmp_path):
    tracer = Tracer()
    f = tracer._wrap("grid.f", lambda: None)
    calls = []
    for n in (1, 1, 2):
        with tracer.operation("x") as op:
            for _ in range(n):
                f()
        calls.append(wl.Call(1.0, 1, [], "", op))
    path = tmp_path / "spans.npz"
    tracer.dump(path)
    wl.count_problems(Analysis(path), calls)
    assert [bool(c.problems) for c in calls] == [False, False, True]


def test_setup_stages(tmp_path):
    ctx, stages = _setup(tmp_path, wl.FORCED3D, seed=9)
    assert ctx.cfg.seed == 9 % wl.POOL_SIZE
    assert set(stages) == {"setup.import_s", "config.load", "forcing.realize",
                           "forcing.force_stats", "runner.initial_condition"}
    assert all(v >= 0 for v in stages.values())


def test_sweep_pool_call_is_checked_but_not_timed(monkeypatch, tmp_path):
    divs = [1.0, 0.5, 0.1, 0.01]
    out = {"failures": {}, "summaries": {str(g): {"div_norm_sq_avg": d} for g, d in zip(wl.SWEEP_GAMMAS, divs)}}
    seen = []

    def fake(ctx, out_dir, workers=None):
        seen.append(workers)
        return 2000, out

    monkeypatch.setattr(wl, "call", fake)
    monkeypatch.setattr(wl, "setup", lambda *a, **k: (wl.Context(wl.SWEEP2D, cfg=None), {}))
    args = type("Args", (), {"workload": wl.SWEEP2D, "seed": 0, "config": "", "tmp": str(tmp_path),
                             "seconds": 0, "trace": False})
    result = wl.main_run(args)
    assert seen == [None, 1, 1]  # the config's pool once, then the timed calls with one worker
    assert result["attempted"] == 3 and result["failed"] == 0
    assert result["ms_per_step_samples"] == 2


def test_kernel_interpreter_times_and_ends():
    with wl.Kernel() as kernel:
        times = [kernel(), kernel()]
    assert all(t > 0 for t in times)
    assert kernel.proc.returncode == 0
    assert wl.scaled(2.0, 2 * wl.REFERENCE_KERNEL_S) == pytest.approx(1.0)
