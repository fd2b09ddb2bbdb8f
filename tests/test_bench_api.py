"""The benchmark's calls into the package, run as `bench/workloads.py` makes them.

For each workload at one seed: the cold set-up, one public call with one
worker, the benchmark's own output check (against `bench/reference.json`
at its 1e-9 relative tolerance), the end state and the checkpoint round
trip of the traced run. A package change that breaks a call site in
`bench/` or moves a checked output fails here, in about 4 s.
"""

import importlib.util
import os
import sys

import pytest
import yaml

BENCH = os.path.join(os.path.dirname(__file__), os.pardir, "bench")


@pytest.fixture(scope="module")
def wl():
    spec = importlib.util.spec_from_file_location("bench_workloads", os.path.join(BENCH, "workloads.py"))
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["forced3d-n32", "sweep2d-n64", "mms2d-n32"])
def test_workload_calls_pass_their_checks(wl, tmp_path, workload):
    seed = 3
    assert workload in wl.WORKLOADS
    cfg_path = tmp_path / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(wl.config_dict(workload, seed)))
    ctx, stages = wl.setup(workload, seed, str(cfg_path))
    assert all(s >= 0 for s in stages.values())

    out_dir = str(tmp_path / "call")
    steps, out = wl.call(ctx, out_dir, workers=1)
    assert steps > 0
    assert wl.Checker(workload, seed)(out) == []

    u, t, params = wl.final_state(ctx, out_dir)
    write_ms, read_ms, size = wl.checkpoint_timings(u, t, params, str(tmp_path))
    assert write_ms > 0 and read_ms > 0 and size > 0
