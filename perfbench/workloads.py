"""Benchmark workloads: how each one builds its mission inputs from a seed.

Nothing here imports swarmcover at module level, so that timing `build`
in a fresh interpreter measures the package import together with the
instance or scenario construction (the `setup_s` metric).

Run as a script, it performs exactly that timed set-up once and prints the
elapsed seconds:

    python3 perfbench/workloads.py <workload> <seed>
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GLYPH_SCENARIO = ROOT / "scenarios" / "dynamic_ants_2026.json"


@dataclass(frozen=True)
class Ladder:
    """Uniform assets, kappa drawn from {1, 2, 3}, on a side x side square."""

    n: int
    m: int
    side: float


LADDERS = {
    "ladder-1000": Ladder(1000, 200, 200.0),
    "ladder-2250": Ladder(2250, 450, 300.0),
    # The 250/50 rung: only the harness self-check uses it.
    "smoke": Ladder(250, 50, 100.0),
}
WORKLOADS = (*LADDERS, "glyph-dynamic")
# The seed each workload's inputs are built from unless overridden; the
# glyph scenario's seed of 7 is the one its config declares.
DEFAULT_INPUT_SEED = {**{name: 0 for name in LADDERS}, "glyph-dynamic": 7}


@dataclass(frozen=True)
class Mission:
    """Everything one `protocol.run` call receives."""

    instance: Any
    config: Any
    events: tuple
    seed: int


def build(workload: str, seed: int) -> Mission:
    """Import swarmcover and build the workload's mission from an input
    seed, which plays the part of the CLI's ``--seed``: it seeds the asset
    generator of a ladder and the protocol run of every workload."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from swarmcover import Config, Instance, Workspace, generate_uniform

    if workload == "glyph-dynamic":
        from swarmcover.cli import load_scenario

        sc = load_scenario(GLYPH_SCENARIO, seed)
        return Mission(sc.instance, sc.config, sc.events, sc.seed)
    spec = LADDERS[workload]
    ws = Workspace(0.0, spec.side, 0.0, spec.side)
    assets = tuple(generate_uniform(spec.n, ws, (1, 2, 3), seed))
    inst = Instance(ws, assets, spec.m, 55.0, 40.0)
    return Mission(inst, Config(), (), seed)


if __name__ == "__main__":
    t0 = time.perf_counter()
    build(sys.argv[1], int(sys.argv[2]))
    print(repr(time.perf_counter() - t0))
