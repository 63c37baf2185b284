#!/usr/bin/env python3
"""Sweep one radius or size parameter and tabulate cost and failure fraction.

Thin front end over `swarmcover.cli.sweep`, the body of the `swarmcover sweep`
subcommand: builds the sweep spec from flags, runs it, and leaves runs.csv /
summary.csv in --out.  The defaults reproduce the communication-radius
sensitivity experiment (200 assets, 50 robots, 10 trials per value).
"""

import argparse
from pathlib import Path

from swarmcover.cli import sweep


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parameter", choices=("r_comm", "r_max", "n", "m"), default="r_comm")
    ap.add_argument(
        "--values",
        type=float,
        nargs="+",
        default=[10.0, 15.0, 25.0, 40.0, 55.0, 70.0],
    )
    ap.add_argument("--trials", type=int, default=10)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="sweep_out")
    args = ap.parse_args()

    values = args.values
    if args.parameter in ("n", "m"):
        if not all(v.is_integer() for v in values):
            ap.error(f"--values for {args.parameter} must be integers")
        values = [int(v) for v in values]
    spec = {"parameter": args.parameter, "values": values, "trials": args.trials}
    sweep(spec, args.seed, Path(args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
