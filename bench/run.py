"""graddivbox benchmark: one workload, one JSON result line.

    python3 bench/run.py --workload forced3d-n32 --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is used from `src/` and need
not be installed. The workload's set-up is timed in SETUP_PROBES fresh
interpreters, then one more fresh interpreter repeats the workload's public
call for `--seconds` seconds and checks every output. With `--trace 0` the
last line holds the end-to-end metrics; with `--trace 1` it holds the
per-layer metrics of a traced run. Run outputs go to a temporary directory
inside the checkout that is removed at exit. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib import metadata

import yaml

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

sys.path.insert(0, HERE)
import workloads  # noqa: E402

SETUP_PROBES = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END_UNITS = {"ms_per_step": "ms", "setup_s": "s", "peak_rss_mb": "MB", "pass_ratio": "1"}
STAGE_METRICS = {  # setup stage -> (per-layer metric, scale to its unit)
    "setup.import_s": ("setup.import_s", 1.0),
    "config.load": ("config.load_ms", 1e3),
    "forcing.realize": ("forcing.realize_ms", 1e3),
    "forcing.force_stats": ("forcing.force_stats_ms", 1e3),
    "runner.initial_condition": ("runner.initial_condition_ms", 1e3),
}


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_record(seed: int) -> dict:
    """What ran, so a result can be compared with another."""
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    src_lines = 0
    for dirpath, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    src_lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "pyyaml": version("PyYAML"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "git_commit": git_commit(),
        "seed": seed,
        "src_lines": src_lines,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def git_commit():
    """HEAD of the checkout, or None outside a git checkout or without git."""
    try:
        # the ceiling keeps git from reporting a repository that encloses the checkout
        env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def child(mode: str, args, cfg_path: str, tmp: str, timeout: float, extra=()) -> dict:
    """Run workloads.py in a fresh interpreter; returns its last stdout line as JSON."""
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--config", cfg_path, "--tmp", tmp, *extra]
    if args.trace:
        cmd.append("--trace")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups, result) -> dict:
    """`setups` are the (set-up seconds, kernel seconds) of each fresh interpreter."""
    attempted, failed = result["attempted"], result["failed"]
    raw_ms = result.get("raw_ms_per_step")
    print(f"# ms_per_step: median of {result['ms_per_step_samples']} calls; "
          f"setup_s: median of {len(setups)} fresh interpreters; "
          f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4g}")
    print(f"# times scaled to a kernel time of {workloads.REFERENCE_KERNEL_S} s; unscaled: "
          f"ms_per_step = {'n/a' if raw_ms is None else f'{raw_ms:.6g}'} ms, "
          f"setup_s = {statistics.median(s for s, _ in setups):.6g} s; "
          f"kernel median {result.get('kernel_s') or float('nan'):.4g} s")
    return {
        "ms_per_step": result["ms_per_step"],
        "setup_s": statistics.median(workloads.scaled(s, k) for s, k in setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "pass_ratio": (attempted - failed) / attempted,
    }


def per_layer(probes, result, workload: str) -> dict:
    values = dict(result["layers"])
    for stage, (name, scale) in STAGE_METRICS.items():
        samples = [p["stages"][stage] for p in probes if stage in p["stages"]]
        values[name] = scale * statistics.median(samples) if samples else 0.0
    counts = {p["forcing.fft_transforms"] for p in probes}
    if len(counts) != 1:
        raise RuntimeError(f"forcing.fft_transforms differs between set-up probes: {counts}")
    values["forcing.fft_transforms"] = counts.pop()
    imex_samples = values.pop("solver.imex_step_samples", 0)
    print(f"# solver.imex_step percentiles over {imex_samples} traced steps; "
          f"trace.overhead_ratio base: untraced ms_per_step of this invocation"
          + ("; runner.sweep_speedup base: parallel_workers=1 wall over parallel_workers=2 wall"
             if workload == workloads.SWEEP2D else ""))
    return values


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "graddivbox", "__init__.py")):
        print(f"error: no graddivbox package under {SRC}", file=sys.stderr)
        return 2

    nproc = os.cpu_count() or 1
    for var in THREAD_VARS:
        os.environ[var] = str(min(int(os.environ.get(var, "1") or 1), nproc))
    os.environ["PYTHONPATH"] = SRC
    os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
    record = run_record(args.seed)

    tmp = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        cfg_path = os.path.join(tmp, "config.yaml")
        with open(cfg_path, "w") as fh:
            yaml.safe_dump(workloads.config_dict(args.workload, args.seed), fh)
        with workloads.Kernel() as kernel:  # timed right after each set-up
            probes = [{**child("setup", args, cfg_path, tmp, timeout=60), "setup_kernel_s": kernel()}
                      for _ in range(SETUP_PROBES)]
        result = child("run", args, cfg_path, tmp, timeout=args.seconds + 120,
                       extra=["--seconds", str(args.seconds)])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    print("# run record: " + json.dumps(record))
    if args.trace:
        values = per_layer(probes, result, args.workload)
        units = per_layer_units()
    else:
        values = end_to_end([(p["setup_s"], p["setup_kernel_s"]) for p in probes + [result]], result)
        units = END_TO_END_UNITS
    for name, value in values.items():
        print(f"# {name} = {'n/a' if value is None else f'{value:.6g}'} {units.get(name, '')}")
    # a metric that no passing call measured reads null, and then `correct` is false
    metrics = {name: {"value": values.get(name), "unit": unit} for name, unit in units.items()}
    print(json.dumps({
        "correct": result["failed"] == 0 and all(m["value"] is not None for m in metrics.values()),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
