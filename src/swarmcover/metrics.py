"""Omniscient evaluation of world snapshots: coverage counts, cost, and the
per-round trace CSV.

Everything here is measured geometrically against robot disks, independent of
the assignment bookkeeping the robots themselves maintain, so it doubles as
the ground-truth check on the distributed state.  A run carries the counts
from round to round in one `CoverTally`, which recounts only what changed
since the last round; the counts are those a recount of the snapshot from
scratch gives.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

from .geometry import CONTAINMENT_TOL, ordered_sum, sq_dist_blocks

if TYPE_CHECKING:  # pragma: no cover
    from .engine import RobotState, WorldSnapshot
    from .instances import Asset

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
    return math.pi * ordered_sum(r.radius * r.radius for r in snapshot.robots if r.alive)


class CoverTally:
    """Per-asset cover and holder counts, carried from snapshot to snapshot.

    The tally holds, for the snapshot it was last advanced to, each asset's
    geometric cover count (alive robots whose closed disk contains it) and
    each asset's holder count (alive robots whose assigned set lists it).
    `advance` diffs a snapshot's robots against the previous ones by
    identity: a robot whose disk or liveness changed has its previous state
    counted off and its new state counted on, and a changed assigned set
    moves holder counts only.  When more than half of the disks changed, as
    in Lloyd rounds, the cover counts are counted afresh instead.  A new
    assets tuple or a different robot count rebuilds the tally.  A fresh
    tally advanced to a snapshot gives the same counts, so a carried one may
    be advanced to any snapshot.

    The disks are matched against every asset with the squared distances
    of `geometry.sq_dist_blocks` and the test `d2 <= t * t`, where
    t = r + CONTAINMENT_TOL.  Each operation is an elementwise IEEE double
    operation, rounded once as in a scalar loop, whichever disks share a
    block, so the counts are exact for any radius and a state counted off
    takes back what it counted on.  The square is a product, as in the
    scalar recount: `t ** 2` goes through the C library's `pow`, which may
    be an ulp off it.
    """

    def __init__(self) -> None:
        self.assets: tuple[Asset, ...] | None = None  # the first advance builds
        self.robots: tuple[RobotState, ...] = ()

    def advance(self, snapshot: "WorldSnapshot") -> None:
        """Carry the counts to `snapshot`."""
        if snapshot.assets is not self.assets or len(snapshot.robots) != len(self.robots):
            self._build(snapshot)
            return
        prev = self.robots
        self.robots = snapshot.robots
        before, after = [], []
        for r, old in zip(snapshot.robots, prev):
            if r is old:
                continue
            if r.pos != old.pos or r.radius != old.radius or r.alive != old.alive:
                before.append(old)
                after.append(r)
            if r.assigned != old.assigned or r.alive != old.alive:
                was, now = _held(old), _held(r)
                self._count_held(was - now, -1)
                self._count_held(now - was, 1)
        if 2 * len(after) > len(prev):
            self.cover[:] = 0
            self._count_disks(self.robots, 1)
        elif after:
            self._count_disks(before, -1)
            self._count_disks(after, 1)

    def _build(self, snapshot: "WorldSnapshot") -> None:
        assets, robots = snapshot.assets, snapshot.robots
        self.assets = assets
        self.robots = robots
        self._xs = np.array([a.pos.x for a in assets], dtype=np.float64)
        self._ys = np.array([a.pos.y for a in assets], dtype=np.float64)
        self.kappa = np.array([a.kappa for a in assets], dtype=np.int64)
        self.cover = np.zeros(len(assets), dtype=np.int64)
        self.holders = [0] * len(assets)
        self._count_disks(robots, 1)
        for r in robots:
            self._count_held(_held(r), 1)

    def _count_disks(self, robots: Sequence[RobotState], sign: int) -> None:
        """Add `sign` to the cover count of every asset each of `robots`'
        disks contains, a block of robots at a time."""
        rx = np.array([r.pos.x for r in robots], dtype=np.float64)
        ry = np.array([r.pos.y for r in robots], dtype=np.float64)
        # A dead robot covers nothing: no squared distance is negative.
        thr = np.array([r.radius for r in robots], dtype=np.float64) + CONTAINMENT_TOL
        thr2 = np.where(np.array([r.alive for r in robots], dtype=bool), thr * thr, -1.0)
        for start, d2 in sq_dist_blocks(rx, ry, self._xs, self._ys):
            self.cover += sign * np.count_nonzero(d2 <= thr2[start : start + len(d2), None], axis=0)

    def _count_held(self, ids: frozenset[int], sign: int) -> None:
        holders = self.holders
        n = len(holders)
        for a in ids:
            if 0 <= a < n:  # an id that names no asset counts for nothing
                holders[a] += sign


def _held(robot: RobotState) -> frozenset[int]:
    return robot.assigned if robot.alive else frozenset()


def summarize(
    snapshot: "WorldSnapshot", max_displacement: float = 0.0, tally: Optional[CoverTally] = None
) -> RoundMetrics:
    """All round metrics of a snapshot.

    undercovered/overcovered compare each asset's geometric cover count, the
    alive robots whose disk contains it whatever they hold, against its
    kappa; undiscovered counts assets that appear in no alive robot's
    assigned set.  A carried `tally` is advanced to the snapshot and its
    counts are read; without one a fresh tally counts the snapshot from
    scratch, with the same result.
    """
    if tally is None:
        tally = CoverTally()
    tally.advance(snapshot)
    return RoundMetrics(
        round=snapshot.round,
        phase=snapshot.phase.value,
        undercovered_count=int(np.count_nonzero(tally.cover < tally.kappa)),
        overcovered_count=int(np.count_nonzero(tally.cover > tally.kappa)),
        total_cost=total_cost(snapshot),
        max_displacement=max_displacement,
        undiscovered_count=tally.holders.count(0),
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
