"""Write the outputs of the benchmark configs, so two commits compare with one `diff -r`.

    python3 tools/output_identity.py OUT_DIR [--root CHECKOUT] [--seeds 0 3]

For each seed it writes, under OUT_DIR/seed_<n>/:

    forced3d-n32/   timeseries.csv, summary.json, final.ckpt of `runner.run_single`
    sweep2d-n64/    sweep.csv, sweep.json and one directory per gamma of
                    `runner.run_sweep`, run with one worker
    mms2d-n32.txt   the `solver.run_mms` error of each dt level, as float.hex

The configs and calls are those of `bench/workloads.py`, imported from
CHECKOUT (default: the checkout holding this script) together with its
`src/`. Run it once per commit, then

    diff -r OUT_PARENT OUT_CHANGE

prints nothing when the two commits write byte-identical outputs.
"""

from __future__ import annotations

import argparse
import os
import sys

import yaml

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out_dir")
    p.add_argument("--root", default=os.path.dirname(HERE), help="checkout whose src/ and bench/ are used")
    p.add_argument("--seeds", type=int, nargs="+", default=[0, 3])
    args = p.parse_args(argv)

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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
