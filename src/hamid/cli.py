"""Command-line experiment runner.

    hamid run <config.json> [--out DIR] [--seed N] [--nd N] [--steps N] [--tol X]
    hamid sweep [--etas ...] [--n-seeds N] [--k-max N] [--workers N] ...
    hamid demo singularity [--steps N] [--out DIR]

Config files are JSON documents with a "kind" field; see the README for the
schema and the available experiment kinds.
"""
from __future__ import annotations

import argparse
import json
import sys

from .experiments import ExperimentConfig, SweepSpec, run_experiment
from .reporting import format_float


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", help="output directory (overrides the config)")
    parser.add_argument(
        "--seed",
        type=int,
        help="RNG seed of the newton kinds, eta-sweep, cn-order-check and cpu-scaling; "
        "the other kinds refuse it",
    )
    parser.add_argument("--steps", type=int, help="number of time steps")
    parser.add_argument("--tol", type=float, help="Newton stopping tolerance")
    parser.add_argument("--nd", type=int, help="Hilbert-space size (double-well levels)")


def _apply_overrides(config, args: argparse.Namespace):
    """``config`` with the command-line overrides written into it, before it
    is checked, so an override replaces a value the check would refuse.  A
    config or block that is not an object is left for
    ``ExperimentConfig.from_dict`` to refuse."""
    if not isinstance(config, dict):
        return config
    for key, value in (("out_dir", args.out or None), ("seed", args.seed), ("n_steps", args.steps)):
        if value is not None:
            config[key] = value
    for block, key, value in (("newton", "tol", args.tol), ("model", "n_levels", args.nd)):
        if value is not None and isinstance(config.setdefault(block, {}), dict):
            config[block][key] = value
    return config


def _print_summary(result) -> None:
    print(f"wrote {len(result.files)} files to {result.out_dir}")
    for key, value in result.summary.items():
        if isinstance(value, float):
            value = format_float(value)
        print(f"  {key}: {value}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="hamid", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment described by a JSON config")
    run_p.add_argument("config", help="path to the experiment config JSON")
    _add_common(run_p)

    sweep_p = sub.add_parser("sweep", help="perturbation-magnitude sweep on the two-level benchmark")
    sweep_p.add_argument("--etas", help="comma-separated perturbation magnitudes")
    sweep_p.add_argument("--n-seeds", type=int, default=SweepSpec.n_seeds)
    sweep_p.add_argument("--k-max", type=int, default=SweepSpec.k_max)
    sweep_p.add_argument("--workers", type=int, default=SweepSpec.workers)
    _add_common(sweep_p)

    demo_p = sub.add_parser("demo", help="built-in demonstrations")
    demo_p.add_argument("name", choices=["singularity"], help="demo name")
    _add_common(demo_p)

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            with open(args.config) as fh:
                config = json.load(fh)
        elif args.command == "sweep":
            sweep = {"n_seeds": args.n_seeds, "k_max": args.k_max, "workers": args.workers}
            if args.etas is not None:  # "" is refused, not read as the default etas
                try:
                    sweep["etas"] = [float(x) for x in args.etas.split(",")]
                except ValueError as err:  # float's message quotes the entry
                    raise ValueError(f"--etas: {err}") from None
            config = {"kind": "eta-sweep", "sweep": sweep}
        else:
            config = {"kind": "singularity-demo"}
        result = run_experiment(ExperimentConfig.from_dict(_apply_overrides(config, args)))
    except (ValueError, OSError, json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    _print_summary(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
