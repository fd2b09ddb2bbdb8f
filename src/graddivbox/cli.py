"""Command-line interface.

Subcommands:

    run <config> [--restart CKPT] [--output-dir DIR]
    sweep <config> [--output-dir DIR] [--workers N]
    criterion --U --L --nu --kappa [--h H] [--gamma G]
    mms <config> [--levels N]

Exit codes: 0 success, 2 configuration error, 3 solution blow-up,
4 partial sweep failure, 5 a valid config refused at run time.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

from . import criterion as crit
from .config import ConfigError, load_run_config, load_sweep_config
from .runner import json_safe, run_single, run_sweep
from .solver import BlowUpError, StepperConfig, divergent_mms_target, run_mms

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BLOWUP = 3
EXIT_PARTIAL_SWEEP = 4
EXIT_REFUSED = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graddivbox",
        description="Periodic-box solver for grad-div penalized incompressible flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a single run from a config file")
    p_run.add_argument("config")
    p_run.add_argument("--restart", help="checkpoint file to continue from")
    p_run.add_argument("--output-dir", help="override output_dir from the config")

    p_sweep = sub.add_parser("sweep", help="run a gamma sweep from a config file")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--output-dir", help="override output_dir from the config")
    p_sweep.add_argument("--workers", type=int, help="override sweep.parallel_workers")

    p_crit = sub.add_parser("criterion", help="pure gamma-criterion query (no simulation)")
    p_crit.add_argument("--U", type=float, required=True, help="velocity scale")
    p_crit.add_argument("--L", type=float, required=True, help="length scale")
    p_crit.add_argument("--nu", type=float, required=True, help="viscosity")
    p_crit.add_argument("--kappa", type=float, required=True, help="force signal-to-noise ratio")
    p_crit.add_argument("--h", type=float, help="mesh width for the mesh-dependent window")
    p_crit.add_argument("--gamma", type=float, help="gamma value to test against the windows")

    p_mms = sub.add_parser("mms", help="manufactured-solution temporal convergence study")
    p_mms.add_argument("config")
    p_mms.add_argument("--levels", type=int, default=3, help="number of dt halvings (default 3)")
    return parser


def _with_output_dir(cfg, output_dir):
    return dataclasses.replace(cfg, output_dir=output_dir) if output_dir else cfg


def _cmd_run(args) -> int:
    cfg = _with_output_dir(load_run_config(args.config), args.output_dir)
    try:
        summary = run_single(cfg, restart_path=args.restart)
    except BlowUpError as e:
        print(f"error: {e}; last finite state checkpointed in {cfg.output_dir}", file=sys.stderr)
        return EXIT_BLOWUP
    print(json.dumps(json_safe(summary), indent=2))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    sweep = load_sweep_config(args.config)
    if args.workers is not None and args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    sweep = dataclasses.replace(
        sweep, base=_with_output_dir(sweep.base, args.output_dir),
        parallel_workers=args.workers or sweep.parallel_workers,
    )
    result = run_sweep(sweep)
    print(json.dumps(json_safe(result), indent=2))
    return EXIT_PARTIAL_SWEEP if result["failures"] else EXIT_OK


def _cmd_criterion(args) -> int:
    try:
        inp = crit.CriterionInput(U=args.U, L=args.L, nu=args.nu, kappa=args.kappa,
                                  gamma=args.gamma, h=args.h)
    except ValueError as e:
        raise ConfigError(f"criterion: {e}") from e
    report = crit.build_report(inp)
    print(json.dumps(json_safe(dataclasses.asdict(report)), indent=2))
    return EXIT_OK


def _cmd_mms(args) -> int:
    cfg = load_run_config(args.config)
    if args.levels < 1:
        raise ConfigError(f"--levels must be >= 1, got {args.levels}")
    target = divergent_mms_target(cfg.grid)
    reports = []
    for level in range(args.levels):
        dt = cfg.stepper.dt / 2 ** level
        try:
            reports.append(run_mms(target, cfg.params, StepperConfig(dt=dt, t_end=cfg.stepper.t_end)))
        except BlowUpError as e:
            print(f"error: {e} with dt = {dt}", file=sys.stderr)
            return EXIT_BLOWUP
    errs = [r["max_l2_error"] for r in reports]
    orders = [math.log2(a / b) for a, b in zip(errs, errs[1:]) if b > 0]
    print(json.dumps(json_safe({"levels": reports, "observed_orders": orders}), indent=2))
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "criterion": _cmd_criterion,
        "mms": _cmd_mms,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, FileNotFoundError, IsADirectoryError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_REFUSED
