"""Omniscient evaluation of world snapshots: coverage counts, cost, and the
per-round trace CSV.

Coverage here is measured geometrically against robot disks, independent of
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
    """Per-asset cover counts, carried from snapshot to snapshot.

    The tally holds, for the snapshot it was last advanced to, each asset's
    geometric cover count: the alive robots whose closed disk contains it.
    `advance` diffs a snapshot's robots against the previous ones by
    identity: a robot whose disk or liveness changed has its previous disk
    counted off and its new disk counted on; a changed assigned set alone
    moves nothing.  When more than half of the disks changed, as in Lloyd
    rounds, the counts are counted afresh instead.  A new assets tuple or a
    different robot count rebuilds the tally.  A fresh tally advanced to a
    snapshot gives the same counts, so a carried one may be advanced to any
    snapshot.

    The disks are matched against the assets with the squared distances
    of `geometry.sq_dist_blocks` and the test `d2 <= t * t`, where
    t = r + CONTAINMENT_TOL.  The assets are sorted by x once per assets
    tuple and the disks by x on each count, and each block of disks is
    matched only against the x-window of assets its reach t spans: an asset
    outside it fails the test in the same arithmetic (see
    `sq_dist_blocks`).  One advance adds its counts in x order and maps
    them back to asset ids once.  Each operation is an elementwise IEEE
    double operation, rounded once as in a scalar loop, whichever disks
    share a block, so the counts are exact for any radius and a state
    counted off takes back what it counted on.  The square is a product, as
    in the scalar recount: `t ** 2` goes through the C library's `pow`,
    which may be an ulp off it.
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
            if r is not old and (r.pos != old.pos or r.radius != old.radius or r.alive != old.alive):
                before.append(old)
                after.append(r)
        if 2 * len(after) > len(prev):
            self.cover[self._order] = self._disk_counts((self.robots, 1))
        elif after:
            self.cover[self._order] += self._disk_counts((before, -1), (after, 1))

    def _build(self, snapshot: "WorldSnapshot") -> None:
        assets, robots = snapshot.assets, snapshot.robots
        self.assets = assets
        self.robots = robots
        xs = np.array([a.pos.x for a in assets], dtype=np.float64)
        ys = np.array([a.pos.y for a in assets], dtype=np.float64)
        self._order = np.argsort(xs, kind="stable")  # asset ids by x
        self._xs, self._ys = xs[self._order], ys[self._order]
        self.kappa = np.array([a.kappa for a in assets], dtype=np.int64)
        self.cover = np.zeros(len(assets), dtype=np.int64)
        self.cover[self._order] = self._disk_counts((robots, 1))

    def _disk_counts(self, *groups: tuple[Sequence[RobotState], int]) -> np.ndarray:
        """For each (robots, sign) group, `sign` times the number of the
        robots' disks that contain each asset, summed, in the assets' x
        order.  The robots are sorted by x, and each block of them is
        matched only against the x-window of assets within its reach."""
        counts = np.zeros(len(self._xs), dtype=np.int64)
        for robots, sign in groups:
            alive = [r for r in robots if r.alive]  # a dead robot covers nothing
            rx = np.array([r.pos.x for r in alive], dtype=np.float64)
            order = np.argsort(rx, kind="stable")
            rx = rx[order]
            ry = np.array([r.pos.y for r in alive], dtype=np.float64)[order]
            thr = np.array([r.radius for r in alive], dtype=np.float64)[order] + CONTAINMENT_TOL
            thr2 = thr * thr
            for start, lo, d2 in sq_dist_blocks(rx, ry, self._xs, self._ys, thr):
                inside = d2 <= thr2[start : start + len(d2), None]
                counts[lo : lo + d2.shape[1]] += sign * np.count_nonzero(inside, axis=0)
        return counts


def summarize(
    snapshot: "WorldSnapshot", max_displacement: float = 0.0, tally: Optional[CoverTally] = None
) -> RoundMetrics:
    """All round metrics of a snapshot.

    undercovered/overcovered compare each asset's geometric cover count, the
    alive robots whose disk contains it whatever they hold, against its
    kappa: a carried `tally` is advanced to the snapshot and read, and
    without one a fresh tally counts the snapshot with the same result.
    undiscovered counts, off the snapshot, the assets whose id is in no
    alive robot's assigned set; an id that names no asset counts for nothing.
    """
    if tally is None:
        tally = CoverTally()
    tally.advance(snapshot)
    n = len(snapshot.assets)
    held = set().union(*[r.assigned for r in snapshot.robots if r.alive])
    return RoundMetrics(
        round=snapshot.round,
        phase=snapshot.phase.value,
        undercovered_count=int(np.count_nonzero(tally.cover < tally.kappa)),
        overcovered_count=int(np.count_nonzero(tally.cover > tally.kappa)),
        total_cost=total_cost(snapshot),
        max_displacement=max_displacement,
        undiscovered_count=n - len(held.intersection(range(n))),
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
