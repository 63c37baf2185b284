#!/usr/bin/env python3
"""Measure the distributed algorithm's optimality gap on desk-scale instances.

Generates small random instances the exact solver can still handle, runs both
sides, and prints the per-instance and median gap.  The gap is
(distributed - exact) / exact in percent; the distributed cost can never sit
below the exact optimum, so negative gaps indicate a bug.
"""

import argparse
import statistics

from swarmcover.instances import Instance, Workspace, generate_uniform
from swarmcover.metrics import optimality_gap
from swarmcover.oracle import solve_exact
from swarmcover.protocol import RunStatus, run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--cases", type=int, default=12)
    ap.add_argument("--n", type=int, default=8, help="assets per instance (max 12)")
    ap.add_argument("--m", type=int, default=3, help="robots (max 5)")
    ap.add_argument("--side", type=float, default=60.0, help="square workspace edge")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ws = Workspace(0.0, args.side, 0.0, args.side)
    # Communication spanning the diagonal keeps the tiny swarm coordinated,
    # so every case is feasible and the gap isolates solution quality.
    r_comm = 2.0 * args.side
    r_max = 0.75 * args.side

    gaps = []
    for case in range(args.cases):
        assets = generate_uniform(args.n, ws, (1, 2), seed=args.seed + case)
        inst = Instance(ws, tuple(assets), args.m, r_comm, r_max)
        result = run(inst)
        exact = solve_exact(assets, args.m, r_max)
        if result.status is not RunStatus.FEASIBLE or not exact.feasible:
            print(f"case {case:2d}: skipped ({result.status.value})")
            continue
        dist_cost = result.trace[-1].total_cost
        gap = optimality_gap(dist_cost, exact.total_cost)
        gaps.append(gap)
        print(
            f"case {case:2d}: distributed {dist_cost:10.3f}  "
            f"exact {exact.total_cost:10.3f}  gap {gap:7.2f}%"
        )
    if gaps:
        print(f"median gap {statistics.median(gaps):.2f}% over {len(gaps)} cases")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
