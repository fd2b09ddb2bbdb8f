"""Write the outputs of the benchmark configs, and compare two such output trees.

    python3 tools/output_identity.py OUT_DIR [--root CHECKOUT] [--seeds 0 3]
    python3 tools/output_identity.py --compare OUT_PARENT OUT_CHANGE

For each seed it writes, under OUT_DIR/seed_<n>/:

    forced3d-n32/   timeseries.csv, summary.json, final.ckpt of `runner.run_single`
    sweep2d-n64/    sweep.csv, sweep.json and one directory per gamma of
                    `runner.run_sweep`, run with one worker
    mms2d-n32.txt   the `solver.run_mms` error of each dt level, as float.hex
    criterion.json  `criterion.build_report` of fixed and of seeded random
                    scales, at gamma = None, 0, 1, inf and a seeded value,
                    h = None, 0.0625 and a seeded value, each without and
                    with a seeded measured <eps>

The configs and calls are those of `bench/workloads.py`, imported from
CHECKOUT (default: the checkout holding this script) together with its
`src/`. Run it once per commit, then

    diff -r OUT_PARENT OUT_CHANGE

prints nothing when the two commits write byte-identical outputs. Where
they differ, `--compare` lists every file as byte-equal or not and gives,
for the files that differ, the largest relative and absolute difference
per CSV column, per float of a JSON file (keyed by its
path, list indices dropped) and per MMS error. A JSON file whose two
copies load to equal objects differs in key order only, and says so. A
last line gives the number of files that differ and the largest relative
difference over all of them, with its file and key. It exits 0 when every
file is byte-equal and 1 when a file differs or exists in one tree only.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import random
import sys

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))

# (U, L, nu, kappa) of the criterion reports; the second has Re < 1/6, an empty mesh-independent window
CRITERION_SCALES = ((1.0, 1.0, 0.01, math.sqrt(2)), (0.37, 0.29, 0.9, 1.7), (3.1, 2.0, 1e-4, 1.0))
CRITERION_RANDOM = 20


def _criterion_reports(seed: int) -> list:
    """The criterion reports of the fixed and the seeded scales, as JSON-ready dicts."""
    from graddivbox.criterion import CriterionInput, build_report
    from graddivbox.runner import json_safe

    rng = random.Random(seed)
    scales = list(CRITERION_SCALES) + [
        tuple(10 ** rng.uniform(-3, 3) for _ in range(3)) + (1 + 10 * rng.random(),) for _ in range(CRITERION_RANDOM)]
    reports = []
    for U, L, nu, kappa in scales:
        for gamma in (None, 0.0, 1.0, math.inf, 10 ** rng.uniform(-3, 3)):
            for h in (None, 0.0625, 10 ** rng.uniform(-3, 1)):
                inp = CriterionInput(U=U, L=L, nu=nu, kappa=kappa, gamma=gamma, h=h)
                for measured in (None, 10 ** rng.uniform(-3, 3)):
                    reports.append(json_safe(dataclasses.asdict(build_report(inp, measured_eps_avg=measured))))
    return reports


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _floats(path: str) -> dict:
    """{key: [floats]} of one output file: CSV columns, JSON floats by key path, MMS errors."""
    out = {}
    if path.endswith(".csv"):
        with open(path) as fh:
            header = fh.readline().strip().split(",")
            for line in fh:
                for name, cell in zip(header, line.strip().split(",")):
                    try:
                        out.setdefault(name, []).append(float(cell))
                    except ValueError:
                        pass
    elif path.endswith(".json"):
        def walk(obj, key):
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(v, f"{key}.{k}" if key else k)
            elif isinstance(obj, list):
                for v in obj:
                    walk(v, key)
            elif isinstance(obj, float):
                out.setdefault(key, []).append(obj)
        walk(_load(path), "")
    elif path.endswith(".txt"):
        with open(path) as fh:
            out["error"] = [float.fromhex(line) for line in fh]
    return out


def compare(a_dir: str, b_dir: str) -> int:
    """Print, per file, whether it is byte-equal, and the largest float differences where not; then a summary.

    Returns 0 when the trees hold the same files, each byte-equal, and 1 otherwise.
    """
    def files(root):
        return {os.path.relpath(os.path.join(d, f), root) for d, _, fs in os.walk(root) for f in fs}

    names_a, names_b = files(a_dir), files(b_dir)
    unequal = names_a ^ names_b
    worst = []  # (max rel, file, key) of each float key that differs
    for name in sorted(names_a | names_b):
        if name in unequal:
            print(f"{name}: only in {a_dir if name in names_a else b_dir}")
            continue
        with open(os.path.join(a_dir, name), "rb") as fa, open(os.path.join(b_dir, name), "rb") as fb:
            if fa.read() == fb.read():
                print(f"{name}: byte-equal")
                continue
        unequal.add(name)
        if name.endswith(".json") and _load(os.path.join(a_dir, name)) == _load(os.path.join(b_dir, name)):
            print(f"{name}: differs in key order only")
            continue
        print(f"{name}: differs")
        fa, fb = _floats(os.path.join(a_dir, name)), _floats(os.path.join(b_dir, name))
        for key in sorted(set(fa) | set(fb)):
            xs, ys = fa.get(key, []), fb.get(key, [])
            if len(xs) != len(ys):
                print(f"  {key}: {len(xs)} values against {len(ys)}")
                continue
            pairs = [(x, y) for x, y in zip(xs, ys) if x != y and not (math.isnan(x) and math.isnan(y))]
            if pairs:
                rel = max(abs(x - y) / max(abs(x), abs(y)) for x, y in pairs)
                absolute = max(abs(x - y) for x, y in pairs)
                print(f"  {key}: max rel {rel:.3g}, max abs {absolute:.3g} ({len(pairs)} of {len(xs)} differ)")
                worst.append((rel, name, key))
    summary = f"{len(unequal)} of {len(names_a | names_b)} files differ"
    if worst:
        rel, name, key = max(worst)
        summary += f"; largest relative difference {rel:.3g}, in {name} at {key}"
    print(summary)
    return 1 if unequal else 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out_dir", nargs="?")
    p.add_argument("--root", default=os.path.dirname(HERE), help="checkout whose src/ and bench/ are used")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    p.add_argument("--compare", nargs=2, metavar=("OUT_A", "OUT_B"), help="compare two output trees")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.out_dir is None:
        p.error("OUT_DIR is required unless --compare is given")

    root = os.path.abspath(args.root)
    sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout's bench/
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
    import workloads as wl

    for seed in args.seeds:
        seed_dir = os.path.join(os.path.abspath(args.out_dir), f"seed_{seed}")
        os.makedirs(seed_dir, exist_ok=True)
        for workload in wl.WORKLOADS:
            cfg_path = os.path.join(seed_dir, f"{workload}.yaml")
            with open(cfg_path, "w") as fh:
                yaml.safe_dump(wl.config_dict(workload, seed), fh)
            ctx, _ = wl.setup(workload, seed, cfg_path)
            os.remove(cfg_path)
            _, out = wl.call(ctx, os.path.join(seed_dir, workload), workers=1)
            if workload == wl.MMS2D:
                with open(os.path.join(seed_dir, f"{workload}.txt"), "w") as fh:
                    fh.writelines(float(e).hex() + "\n" for e in out["errors"])
            print(f"seed {seed}: {workload} written", file=sys.stderr)
        with open(os.path.join(seed_dir, "criterion.json"), "w") as fh:
            json.dump(_criterion_reports(seed), fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
