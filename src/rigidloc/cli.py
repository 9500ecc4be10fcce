"""Command line entry point.

Subcommands:

    rigidloc run <scenario.yaml> [--out results.csv] [options]
        Run the Monte Carlo sweep described by the scenario file and
        write the results CSV.
    rigidloc crlb <scenario.yaml> [--out bounds.csv]
        Evaluate only the Cramer-Rao bound curves on the scenario's
        deterministic reference scene. They go to --out, or to stdout;
        never to the scenario's experiment.output, which is the sweep's.
    rigidloc demo
        Run a reduced default-scenario sweep and print the results.

`--zeta-deg X` replaces the scenario's rho with zeta_to_rho of X degrees.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import numpy as np

from .crlb import compute_fim
from .errors import ConfigurationError
from .harness import (ExperimentConfig, format_results, reference_scene, run_experiment,
                      write_results)
from .measurements import NoiseConfig, zeta_to_rho
from .scenario import load_scenario
from .solvers import METHODS


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("scenario", help="scenario YAML file")
    parser.add_argument("--out", metavar="PATH", help="output CSV path")
    parser.add_argument("--sigma-grid", metavar="LIST",
                        help="comma-separated sigma values in meters")
    parser.add_argument("--zeta-deg", type=float, metavar="X",
                        help="bearing 90th-percentile half-width in degrees")


def _parse_args(argv):
    parser = argparse.ArgumentParser(
        prog="rigidloc",
        description="Rigid body localization benchmarks from range and bearing data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a Monte Carlo sweep")
    _add_common(p_run)
    p_run.add_argument("--seed", type=int, metavar="N", help="master seed")
    p_run.add_argument("--trials", type=int, metavar="K", help="trials per grid point")
    p_run.add_argument("--methods", metavar="LIST",
                       help=f"comma-separated subset of {','.join(METHODS)}")
    p_run.add_argument("--workers", type=int, metavar="W",
                       help="parallel worker processes")
    p_run.add_argument("--fixed-pose", action="store_true", default=None,
                       help="reuse one body pose for every trial")

    p_crlb = sub.add_parser("crlb", help="emit bound curves only")
    _add_common(p_crlb)

    sub.add_parser("demo", help="run a small default-scenario sweep")
    return parser.parse_args(argv)


def _apply_overrides(config: ExperimentConfig, args) -> ExperimentConfig:
    changes = {}
    if args.sigma_grid is not None:
        changes["sigma_grid"] = tuple(float(s) for s in args.sigma_grid.split(","))
    if args.zeta_deg is not None:
        changes["rho"] = zeta_to_rho(np.deg2rad(args.zeta_deg))
    if getattr(args, "seed", None) is not None:
        changes["master_seed"] = args.seed
    if getattr(args, "trials", None) is not None:
        changes["trials"] = args.trials
    if getattr(args, "methods", None) is not None:
        changes["methods"] = tuple(args.methods.split(","))
    if getattr(args, "workers", None) is not None:
        changes["workers"] = args.workers
    if getattr(args, "fixed_pose", None) is not None:
        changes["fixed_pose"] = args.fixed_pose
    if args.out is not None:
        changes["output_path"] = args.out
    return replace(config, **changes) if changes else config


def _cmd_run(args) -> int:
    config = _apply_overrides(load_scenario(args.scenario), args)
    rows = run_experiment(config)
    if config.output_path:
        write_results(rows, config.output_path)
        print(f"wrote {len(rows)} rows to {config.output_path}")
    else:
        print(format_results(rows), end="")
    return 0


def _cmd_crlb(args) -> int:
    config = _apply_overrides(load_scenario(args.scenario), args)
    fim = compute_fim(reference_scene(config),
                      NoiseConfig(sigma=config.sigma_grid, rho=config.rho))
    lines = ["sigma,crlb_t,crlb_alpha,crlb_Q"]
    for row in zip(config.sigma_grid, fim.crlb_t, fim.crlb_alpha, fim.crlb_q):
        lines.append(",".join(f"{x:.9g}" for x in row))
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", encoding="ascii", newline="") as fh:
            fh.write(text)
        print(f"wrote {len(config.sigma_grid)} rows to {args.out}")
    else:
        print(text, end="")
    return 0


def _cmd_demo() -> int:
    config = ExperimentConfig(sigma_grid=(0.1, 0.25, 0.5, 1.0), trials=200)
    print("default scene: 10m x 10m room, 8 perimeter anchors, "
          "8-point polygon body, 200 trials per point")
    rows = run_experiment(config)
    print(format_results(rows), end="")
    return 0


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "crlb":
            return _cmd_crlb(args)
        return _cmd_demo()
    except (ConfigurationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
