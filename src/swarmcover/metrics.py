"""Omniscient evaluation of world snapshots: coverage counts, cost, and the
per-round trace CSV.

Everything here is measured geometrically against robot disks, independent of
the assignment bookkeeping the robots themselves maintain, so it doubles as
the ground-truth check on the distributed state.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable

from .geometry import CONTAINMENT_TOL, CellGrid

if TYPE_CHECKING:  # pragma: no cover
    from .engine import WorldSnapshot

TRACE_HEADER = ("round", "phase", "undercovered", "overcovered", "total_cost", "max_displacement", "undiscovered")

# Sentinel for a gap against a zero-cost optimum (division by zero).
GAP_UNDEFINED = math.inf


@dataclass(frozen=True)
class RoundMetrics:
    round: int
    phase: str
    undercovered_count: int
    overcovered_count: int
    total_cost: float
    max_displacement: float
    undiscovered_count: int


def total_cost(snapshot: "WorldSnapshot") -> float:
    """pi * sum of squared radii over alive robots."""
    return math.pi * sum(r.radius * r.radius for r in snapshot.robots if r.alive)


def summarize(snapshot: "WorldSnapshot", max_displacement: float = 0.0) -> RoundMetrics:
    """Recompute all round metrics for a snapshot.

    undercovered/overcovered compare the geometric cover count against each
    asset's kappa; undiscovered counts assets that appear in no robot's
    assigned set.
    """
    alive = [r for r in snapshot.robots if r.alive]
    # Cells as wide as the widest closed disk; at round 0 every radius is 0
    # and the cells shrink to the containment slack.
    reach = max((r.radius for r in alive), default=0.0) + CONTAINMENT_TOL
    grid = CellGrid(reach, ((r.pos, (r.pos.x, r.pos.y, (r.radius + CONTAINMENT_TOL) ** 2)) for r in alive))
    under = 0
    over = 0
    for a in snapshot.assets:
        ax, ay = a.pos.x, a.pos.y
        c = 0
        for rx, ry, thr2 in grid.near(a.pos):
            dx = rx - ax
            dy = ry - ay
            if dx * dx + dy * dy <= thr2:
                c += 1
        if c < a.kappa:
            under += 1
        elif c > a.kappa:
            over += 1
    assigned: set[int] = set()
    for r in alive:
        assigned.update(r.assigned)
    undiscovered = sum(1 for a in snapshot.assets if a.id not in assigned)
    return RoundMetrics(
        round=snapshot.round,
        phase=snapshot.phase.value,
        undercovered_count=under,
        overcovered_count=over,
        total_cost=total_cost(snapshot),
        max_displacement=max_displacement,
        undiscovered_count=undiscovered,
    )


def optimality_gap(dist_cost: float, opt_cost: float) -> float:
    """Percent excess of the distributed cost over the optimum.

    Both zero gives 0.0; a zero optimum against positive cost has no finite
    gap and returns GAP_UNDEFINED.
    """
    if opt_cost == 0.0:
        return 0.0 if dist_cost == 0.0 else GAP_UNDEFINED
    return 100.0 * (dist_cost - opt_cost) / opt_cost


def write_trace(path: str | Path, rows: Iterable[RoundMetrics]) -> None:
    """Write the per-round trace CSV (floats fixed to 6 decimals, LF line
    endings, so identical runs produce byte-identical files)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(TRACE_HEADER)
        for rm in rows:
            w.writerow(
                [
                    rm.round,
                    rm.phase,
                    rm.undercovered_count,
                    rm.overcovered_count,
                    f"{rm.total_cost:.6f}",
                    f"{rm.max_displacement:.6f}",
                    rm.undiscovered_count,
                ]
            )
