"""Compare two commits with the benchmark: alternating pairs, then one traced run per side.

    python3 tools/bench_pairs.py --parent REV --change REV --out BENCH_x.json [--pairs 10]

Each commit is exported with `git archive` into a fresh directory under
`--work` (a temporary directory by default), so both sides run the
committed files only. For every workload of BENCHMARK.json it runs

    python3 bench/run.py --workload W --seed S --seconds SECONDS --trace 0

`--pairs` times on each side, pair i with seed i, the parent first in even
pairs and the change first in odd ones. Then it runs `--trace 1` once per
side, times the tier-1 suite once per side and writes one JSON record:
both commits, their `src/` line counts and tier-1 wall times, and per
workload and end-to-end metric each side's runs, median and quartiles,
the number of pairs the change won (ties count for neither side) and
`claim_met`: whether the change won at least 9 in 10 of the pairs and its
median is better than the parent's by more than the parent's interquartile
range.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]


def export(rev: str, dest: str) -> str:
    """Write the files of `rev` into `dest`; returns the full commit hash."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, capture_output=True, text=True,
                            check=True).stdout.strip()
    os.makedirs(dest)
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)
    return commit


def src_lines(checkout: str) -> int:
    total = 0
    for dirpath, _, files in os.walk(os.path.join(checkout, "src")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def bench(checkout: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The `metrics` values of one bench/run.py invocation, with `correct`/`attempted`/`failed`."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    line = json.loads(lines[-1])
    out = {"correct": line["correct"], "attempted": line["attempted"], "failed": line["failed"],
           **{name: m["value"] for name, m in line["metrics"].items()}}
    # the unscaled median and the host-speed kernel's median, from the "# times scaled" line
    scale = next((ln for ln in lines if ln.startswith("# times scaled")), "")
    raw = re.search(r"unscaled: ms_per_step = ([\d.]+) ms", scale)
    kernel = re.search(r"kernel median ([\d.]+) s", scale)
    out["raw_ms_per_step"] = float(raw.group(1)) if raw else None
    out["kernel_s"] = float(kernel.group(1)) if kernel else None
    return out


def tier1(checkout: str) -> dict:
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=checkout, env=env, capture_output=True, text=True)
    lines = [ln for ln in proc.stdout.splitlines() if " passed" in ln or " failed" in ln]
    return {"wall_s": round(time.perf_counter() - t0, 1), "summary": lines[-1].strip("= ") if lines else None}


def summarize(runs: dict, better: str) -> dict:
    """Each side's median and quartiles, the pairs the change won and whether that meets a claimed gain."""
    out = {}
    for side in SIDES:
        values = runs[side]
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        out[side] = {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}
    sign = 1 if better == "lower" else -1
    out["change_wins"] = sum(1 for p, c in zip(runs["parent"], runs["change"]) if sign * (p - c) > 0)
    out["pairs"] = len(runs["parent"])
    out["median_change"] = out["change"]["median"] - out["parent"]["median"]
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    out["claim_met"] = 10 * out["change_wins"] >= 9 * out["pairs"] and -sign * out["median_change"] > out["parent_iqr"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, help="git revision of the parent")
    p.add_argument("--change", required=True, help="git revision of the change")
    p.add_argument("--out", required=True, help="JSON file to write")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--work", help="directory for the two exported checkouts (default: a temporary one)")
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    work = args.work or tempfile.mkdtemp(prefix="bench-pairs-")
    dirs = {side: os.path.join(work, side) for side in SIDES}
    record = {"commits": {side: export(getattr(args, side), dirs[side]) for side in SIDES},
              "src_lines": {side: src_lines(dirs[side]) for side in SIDES},
              "settings": {"pairs": args.pairs, "seconds": seconds, "seeds": list(range(args.pairs)),
                           "order": "parent first in even pairs, change first in odd pairs"},
              "workloads": {}}
    for w in spec["workloads"]:
        workload = w["name"]
        results = {side: [] for side in SIDES}
        for i in range(args.pairs):
            for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                results[side].append(bench(dirs[side], workload, i, seconds, 0))
                print(f"{workload} pair {i} {side}: {results[side][-1]}", file=sys.stderr, flush=True)
        entry = {"end_to_end": {}, "failed_calls": {s: sum(r["failed"] for r in results[s]) for s in SIDES},
                 "attempted_calls": {s: sum(r["attempted"] for r in results[s]) for s in SIDES},
                 "all_correct": {s: all(r["correct"] for r in results[s]) for s in SIDES}}
        for metric in spec["end_to_end"]:
            runs = {s: [r[metric["name"]] for r in results[s]] for s in SIDES}
            entry["end_to_end"][metric["name"]] = summarize(runs, metric["better"])
        entry["unscaled"] = {s: {k: [r[k] for r in results[s]] for k in ("raw_ms_per_step", "kernel_s")}
                             for s in SIDES}
        entry["trace"] = {s: bench(dirs[s], workload, 0, seconds, 1) for s in SIDES}
        record["workloads"][workload] = entry
    record["tier1"] = {side: tier1(dirs[side]) for side in SIDES}
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
