#!/usr/bin/env python3
"""Run one benchmark mission and emit its per-round convergence data.

Writes trace.csv into --out and prints a phase-by-phase digest: rounds spent
per phase, cost at each phase boundary, and the wall-clock milestones.
"""

import argparse
from pathlib import Path

from swarmcover.instances import preset
from swarmcover.metrics import write_trace
from swarmcover.protocol import run


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--family", choices=("uni_sm", "uni_fix_n"), default="uni_sm")
    ap.add_argument("--param", type=int, default=60, help="n for uni_sm, m for uni_fix_n")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default="convergence_out")
    args = ap.parse_args()

    inst = preset(args.family, args.param, seed=args.seed)
    result = run(inst)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trace(out / "trace.csv", result.trace)

    print(f"{args.family}({args.param}) seed={args.seed}: {result.status.value}")
    for phase in ("explore", "optimize", "refine"):
        rows = [rm for rm in result.trace if rm.phase == phase]
        if not rows:
            continue
        print(
            f"  {phase:8s} rounds {rows[0].round:3d}-{rows[-1].round:3d}  "
            f"cost {rows[-1].total_cost:12.3f}  under {rows[-1].undercovered_count:3d}  "
            f"over {rows[-1].overcovered_count:3d}"
        )
    t = result.timings
    if t.time_to_feasibility is not None:
        print(f"  time to feasibility {t.time_to_feasibility:.3f}s")
    print(f"  total {t.total_seconds:.3f}s, {len(result.swaps)} swaps")
    print(f"  trace written to {out / 'trace.csv'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
