#!/usr/bin/env python3
"""Replay the glyph mission: cover "ANTS", then adapt when "2026" appears.

Runs scenarios/dynamic_ants_2026.json through the library and reports how the
swarm absorbed the mid-mission arrivals: who moved, how long recovery took,
and what it cost.  The trace and adaptation.json, a list with one record per
event in event order, each measured from the event to the mission's end,
land in --out.
"""

import argparse
import json
from pathlib import Path

from swarmcover.cli import changed_robots, load_scenario
from swarmcover.metrics import summarize, write_trace
from swarmcover.protocol import run

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "dynamic_ants_2026.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--scenario", default=str(SCENARIO))
    ap.add_argument(
        "--seed",
        type=int,
        default=None,
        help="override the scenario seed; only an instance generator without its own seed reads it, "
        "so it changes nothing for a scenario whose assets come from a file, as the glyph mission's do",
    )
    ap.add_argument("--out", default="glyph_out")
    args = ap.parse_args()

    sc = load_scenario(Path(args.scenario), cli_seed=args.seed)
    result = run(sc.instance, sc.config, sc.events)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_trace(out / "trace.csv", result.trace)

    print(f"{Path(args.scenario).name}: {result.status.value}, {result.snapshot.round} rounds")
    sm = result.trace[-1]
    records = []
    for at_round, pre in result.pre_event_snapshots:
        changed = changed_robots(pre, result.snapshot)
        pre_cost = summarize(pre).total_cost
        print(f"  event at round {at_round}: {len(changed)}/{len(pre.robots)} robots changed")
        print(f"    cost {pre_cost:.1f} -> {sm.total_cost:.1f}, "
              f"recovery took {result.snapshot.round - at_round} rounds")
        records.append(
            {
                "event_round": at_round,
                "changed_robots": changed,
                "new_assets": len(result.snapshot.assets) - len(pre.assets),
                "pre_cost": pre_cost,
                "post_cost": sm.total_cost,
            }
        )
    with open(out / "adaptation.json", "w") as fh:
        json.dump(records, fh, indent=2)
    print(f"  final: under={sm.undercovered_count} over={sm.overcovered_count} "
          f"undiscovered={sm.undiscovered_count}")
    return 0 if result.status.value == "feasible" else 2


if __name__ == "__main__":
    raise SystemExit(main())
