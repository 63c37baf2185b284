"""The three-phase coverage protocol and its synchronous run loop.

Phase 1 (explore) spreads robots with a grid-seeded Lloyd iteration over the
assets each robot senses, then locks in the minimum enclosing disk of what it
kept.  Phase 2 (optimize) closes coverage deficits through neighborhood
auctions on marginal disk-area cost, and falls back to a capacity-based
direct assignment when the auctions stall.  Phase 3 (refine) shaves cost with
sweeps of pairwise boundary-asset transfers, alternated with guarded removals
of overcovered assets that must strictly shrink the remover's disk.

Every decision is a pure function of the published snapshot and the config,
so runs are deterministic end to end.  Nothing in the protocol is random:
each enclosing disk is a function of the sequence of points it is solved
over (see `geometry`), and that sequence comes from the snapshot alone.

The robots' local knowledge lives in one `_View`, which `run` creates once
and carries from round to round (see `_View.update`).  It keeps what each
robot senses, holds and counts as robot x asset NumPy matrices, the counts
in the smallest unsigned dtype that holds m + 1, and derives knowledge and
deficits from them.  Each phase function takes it as its last argument and
carries it to the snapshot it decides on.  A new view is an empty one
carried to its snapshot the same way, so the carried view always equals a
fresh `_View(snapshot)`, and the decisions are those of a view made for
that snapshot alone.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain, combinations
from typing import Collection, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from .engine import (
    Event,
    Params,
    Phase,
    Proposal,
    RobotState,
    WorldSnapshot,
    apply_events,
    check_events,
    neighbor_map,
    step,
)
from .geometry import (
    CONTAINMENT_TOL,
    Disk,
    Point,
    dist,
    dist2,
    enclose_with_anchor,
    min_enclosing_disk,
    ordered_sum,
    sq_dist_blocks,
)
from .instances import DEFAULT_GRID_LAMBDA, Asset, Instance, _integer, _number, grid_partition, initial_positions
from .metrics import CoverTally, RoundMetrics, summarize

INFEASIBLE = math.inf

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1
# _FNV_PRIME**k mod 2**64: the FNV-1a steps of k zero bytes in one product.
_ZERO_RUNS = tuple(pow(_FNV_PRIME, k, 1 << 64) for k in range(9))


def h64(iteration: int, asset_id: int, robot_id: int) -> int:
    """64-bit FNV-1a over (iteration, asset_id, robot_id), each encoded as
    8 little-endian bytes.  Used for symmetry breaking in auctions and
    removal conflicts.

    Only each field's bytes up to its highest nonzero one are hashed a byte
    at a time.  XOR with a zero byte changes nothing, so the k zero bytes
    above them fold into one multiplication by _FNV_PRIME**k mod 2**64
    (`_ZERO_RUNS`), with the bits of the byte loop.  `to_bytes` raises
    OverflowError for a field below 0 or at 2**64 and above."""
    h = _FNV_OFFSET
    for v in (iteration, asset_id, robot_id):
        low = v.to_bytes(8, "little").rstrip(b"\0")
        for b in low:
            h = ((h ^ b) * _FNV_PRIME) & _U64
        h = (h * _ZERO_RUNS[8 - len(low)]) & _U64
    return h


@dataclass(frozen=True)
class Config:
    """Algorithm knobs; defaults follow the benchmark setup."""

    lam: float = DEFAULT_GRID_LAMBDA  # grid aspect penalty
    tol: float = 0.01               # Lloyd convergence threshold (m)
    eps: float = 0.01               # relative tie window for auction bids
    tau: float = 0.005              # minimum fractional area gain per swap
    boundary_factor: float = 0.9    # how close to the rim a swapped asset must be
    max_iters_phase1: int = 200
    max_iters_phase2: Optional[int] = None  # None means 10 * m
    max_swap_sweeps: int = 50
    max_iters_phase3: int = 100

    def __post_init__(self) -> None:
        # Values may come straight from a JSON config, so check types too: a
        # string or a bool must fail here, not deep inside the run.
        for name in ("lam", "tol", "eps", "tau", "boundary_factor"):
            _number(getattr(self, name), name, positive=True)
        for name in ("max_iters_phase1", "max_iters_phase2", "max_swap_sweeps", "max_iters_phase3"):
            value = getattr(self, name)
            if value is not None or name != "max_iters_phase2":  # None means 10 * m
                _integer(value, name, least=1)

    def phase2_cap(self, m: int) -> int:
        return self.max_iters_phase2 if self.max_iters_phase2 is not None else 10 * m


@dataclass(frozen=True)
class SwapDecision:
    reduction: float
    donor_pos: Point
    donor_radius: float
    receiver_pos: Point
    receiver_radius: float


@dataclass(frozen=True)
class SwapRecord:
    """One executed transfer, for monotonicity audits."""

    round: int
    donor: int
    receiver: int
    asset_id: int
    pair_area_before: float
    pair_area_after: float


class RunStatus(Enum):
    FEASIBLE = "feasible"
    INFEASIBLE = "infeasible"
    ITERATION_CAP = "iteration_cap"


@dataclass(frozen=True)
class Timings:
    time_to_feasibility: Optional[float]
    total_seconds: float


@dataclass(frozen=True)
class RunResult:
    status: RunStatus
    snapshot: WorldSnapshot
    trace: tuple[RoundMetrics, ...]
    timings: Timings
    swaps: tuple[SwapRecord, ...]
    pre_event_snapshots: tuple[tuple[int, WorldSnapshot], ...]


class _View:
    """Every alive robot's local knowledge, carried by `run` from round to
    round.

    This is the one place local knowledge is computed, all for `snapshot`,
    and the run's completion tests read it too (`coverage_satisfied`,
    `holders_certified`): the alive robots, the neighbor map, and three
    robot x asset matrices, one row per robot id (a dead robot's rows are
    empty) and one column per asset id:

    * `sensed`, bool: the assets within r_max, each row straight from the
      test of `geometry.sq_dist_blocks`;
    * `held`, bool: each robot's assigned set;
    * `cover`, unsigned: the holders of the asset among the robot and its
      neighbors, in the smallest unsigned dtype that holds m + 1 (`_count_dtype`).

    `need` is each asset's kappa capped at m + 1 in that dtype: a count is
    at most m, so `cover < need` is the test `cover < kappa`, and it makes
    no wider temporary.  A robot knows an asset when it senses it or counts
    a holder of it (`known`).  The asset coordinates are two float64 arrays
    indexed by asset id (`asset_x`, `asset_y`) for the auction's bid
    bounds.  Filled on demand, and kept per robot:

    * `donor_disk`: a donor's enclosing disk without one of its assets, per
      asset, and `donor_bound`, a lower bound on that disk's radius;
    * `grown_disk`: a receiver's disk grown by one asset, per asset;
    * `work`: the neighbor pairs, as (lower id, higher id), that a swap
      sweep visits; the other neighbor pairs are clean (see `swap_round`);
    * `candidates`: a donor's swap candidates under the config in
      `clean_for`, as (asset, distance to the donor's center) pairs (see
      `_swap_candidates`).

    `update` carries the view in place to another snapshot of the same run.
    A robot knows only what it senses and hears from its neighbors, and
    `engine.step` keeps the `RobotState` object of every robot without a
    plan entry, so the work is confined to the robots whose object changed
    and their neighbors:

    * the rows of the robots that moved are re-sensed, and the neighbor map
      is rebuilt (`engine.neighbor_map`) when one moved;
    * cover counts are patched by deltas (`_patch`): +1 or -1 at a
      robot's assets gained or lost, in the rows of the robot and of each
      neighbor it kept, and a whole assigned set in the rows of the
      neighbors that came into or went out of its range;
    * a changed robot loses its memo entries;
    * a robot is swap-dirty when its `RobotState` changed or its cover
      count of an asset it holds did (a count of an asset it does not hold
      is read by neither, see `swap_round`): it loses its swap candidates,
      and every pair of it is work.  Only such a robot's pairs can come or
      go, since a pair that did has a robot that moved.

    This is the only path to a snapshot.  A new view, or an event (new
    assets, a robot killed), first empties the view (`_reset`): every robot
    is dead, holds nothing and stands nowhere, so each alive one moves and
    gains its whole assigned set, and every neighbor pair is work.
    So the view always equals a fresh `_View(snapshot)`, and decisions that
    consult it stay pure functions of the snapshot.
    """

    def __init__(self, snapshot: WorldSnapshot):
        self.snapshot: Optional[WorldSnapshot] = None
        self.update(snapshot)

    def _reset(self, snapshot: WorldSnapshot) -> None:
        # Empty the view for snapshot's assets, params and alive robots,
        # with no work; `update` goes on to carry it to snapshot.
        self.params = snapshot.params
        self.assets = snapshot.assets
        self.asset_x = np.array([a.pos.x for a in self.assets], dtype=np.float64)
        self.asset_y = np.array([a.pos.y for a in self.assets], dtype=np.float64)
        nobody = RobotState(-1, None, 0.0, frozenset(), False)  # type: ignore[arg-type]
        self.robot = (nobody,) * len(snapshot.robots)  # robot ids are dense
        self.alive_ids = [r.id for r in snapshot.robots if r.alive]
        self.nbrs: dict[int, tuple[int, ...]] = {}
        shape = (len(self.robot), len(self.assets))
        self.need = np.minimum([a.kappa for a in self.assets], shape[0] + 1).astype(_count_dtype(shape[0]))
        self.held = np.zeros(shape, dtype=bool)
        self.sensed = np.zeros(shape, dtype=bool)
        self.cover = np.zeros(shape, dtype=self.need.dtype)
        self._donor_disks: dict[int, dict[int, Disk]] = {}
        self._donor_bounds: dict[int, dict[int, float]] = {}
        self._grown_disks: dict[int, dict[int, Disk]] = {}
        self.work: set[tuple[int, int]] = set()
        self.clean_for: Optional[Config] = None
        self.candidates: dict[int, list[tuple[int, float]]] = {}

    def _sense(self, rids: Sequence[int]) -> None:
        # Re-sense the rows of the robots in rids, a block of rows at a time.
        rows = np.array(rids, dtype=np.intp)
        qx = np.array([self.robot[rid].pos.x for rid in rids], dtype=np.float64)
        qy = np.array([self.robot[rid].pos.y for rid in rids], dtype=np.float64)
        r_max2 = self.params.r_max ** 2
        for start, _, d2 in sq_dist_blocks(qx, qy, self.asset_x, self.asset_y):
            self.sensed[rows[start : start + len(d2)]] = d2 <= r_max2

    def _hold(self, robots: Sequence[RobotState]) -> None:
        # Rewrite the held rows of these robots (`held` is C-contiguous, so
        # its flat reshape is a view).
        self.held[_ids(r.id for r in robots)] = False
        cells = _cells([(r.id,) for r in robots], [r.assigned for r in robots], len(self.assets))
        self.held.reshape(-1)[cells] = True

    def update(self, snapshot: WorldSnapshot) -> None:
        """Carry the view to `snapshot` (see the class docstring)."""
        if snapshot is self.snapshot:
            return
        if (
            self.snapshot is None
            or snapshot.assets is not self.assets
            or snapshot.params != self.params
            or any(r.alive != old.alive for r, old in zip(snapshot.robots, self.robot) if r is not old)
        ):
            self._reset(snapshot)
        self.snapshot = snapshot
        prev, self.robot = self.robot, snapshot.robots
        changed = [r for r, old in zip(snapshot.robots, prev) if r is not old and r.alive]
        old_nbrs = self.nbrs
        moved = [r.id for r in changed if r.pos != prev[r.id].pos]
        # (rows, gained, lost) blocks of cover count changes.  The neighbor
        # relation is symmetric, so the robots that came into (went out of)
        # j's range are those that gain (lose) j's whole assigned set.
        patches: list[tuple[Collection[int], Collection[int], Collection[int]]] = []
        if moved:
            self._sense(moved)
            self.nbrs = neighbor_map(snapshot)
            for j in self.alive_ids:
                if self.nbrs[j] != old_nbrs.get(j, ()):
                    was, now = set(old_nbrs.get(j, ())), set(self.nbrs[j])
                    patches.append((now - was, self.robot[j].assigned, ()))
                    patches.append((was - now, (), prev[j].assigned))
        reassigned = [r for r in changed if r.assigned != prev[r.id].assigned]
        for r in reassigned:
            old = prev[r.id].assigned
            kept = set(old_nbrs.get(r.id, ())).intersection(self.nbrs[r.id])
            kept.add(r.id)
            patches.append((kept, r.assigned - old, old - r.assigned))
        self._hold(reassigned)
        swap_dirty = {r.id for r in changed}  # candidates to drop, pairs to sweep
        if patches:
            self._patch(patches, swap_dirty)
        for r in changed:
            self._donor_disks.pop(r.id, None)
            self._donor_bounds.pop(r.id, None)
            self._grown_disks.pop(r.id, None)
        # Every pair of a swap-dirty robot is work.  A robot whose neighbors
        # changed first drops its old pairs: a pair that ceased to be
        # neighbors has such a robot, and a kept pair is added back at once.
        for k in swap_dirty:
            self.candidates.pop(k, None)
            if old_nbrs.get(k, ()) != self.nbrs[k]:
                self.work.difference_update((k, j) if k < j else (j, k) for j in old_nbrs.get(k, ()))
            self.work.update((k, j) if k < j else (j, k) for j in self.nbrs[k])

    def _patch(self, patches: Sequence[tuple[Collection[int], ...]], swap_dirty: set[int]) -> None:
        # Add 1 at every cell of each block rows x gained of the cover
        # counts and take 1 at every cell of each block rows x lost, and add
        # to swap_dirty the robots not in it whose count of an asset they
        # hold moved.  Blocks may share a cell, so the sums go through
        # `np.add.at`; the gains go first, so no count dips below zero.
        flat = self.cover.reshape(-1)
        n = self.cover.shape[1]
        gained = _cells([p[0] for p in patches], [p[1] for p in patches], n)
        lost = _cells([p[0] for p in patches], [p[2] for p in patches], n)
        dirty = np.zeros(len(self.robot), dtype=bool)
        dirty[_ids(swap_dirty)] = True
        check = np.concatenate((gained, lost))
        check = check[~dirty[check // n] & self.held.reshape(-1)[check]]
        before = flat[check]
        one = self.cover.dtype.type(1)
        np.add.at(flat, gained, one)
        np.subtract.at(flat, lost, one)
        swap_dirty.update((check[before != flat[check]] // n).tolist())

    def local_coverage(self, rid: int, asset_id: int) -> int:
        return self.cover.item(rid, asset_id)

    def known(self, rids: int | slice | np.ndarray) -> np.ndarray:
        """The assets the robots rids know, as fresh bool rows indexed by
        asset id (one row for one id): those it senses and those it or a
        neighbor holds (a cover count above zero)."""
        got = self.cover[rids] > 0
        got |= self.sensed[rids]
        return got

    def deficit_mask(self, rids: int | slice | np.ndarray) -> np.ndarray:
        """The deficits (`deficits`) of the robots rids, as fresh bool rows
        indexed by asset id (one row for one id)."""
        got = self.known(rids)
        got &= ~self.held[rids]
        got &= self.cover[rids] < self.need
        return got

    def deficits(self, rid: int) -> list[int]:
        """Assets robot rid may claim, in ascending id: known, not held by
        rid, and counted below kappa in its neighborhood."""
        return np.flatnonzero(self.deficit_mask(rid)).tolist()

    def positions(self, assigned: Sequence[int]) -> list[Point]:
        return [self.assets[a].pos for a in assigned]

    def farthest_first(self, rid: int) -> list[int]:
        """Robot rid's assets, farthest from its center first, ties by id."""
        robot = self.robot[rid]
        return sorted(robot.assigned, key=lambda a: (-dist2(robot.pos, self.assets[a].pos), a))

    def releasable(self, rid: int) -> list[int]:
        """Robot rid's held assets, farthest first (`farthest_first`), whose
        cover count exceeds their need: rid may let one go and its
        neighborhood still counts kappa holders."""
        return [a for a in self.farthest_first(rid) if self.cover.item(rid, a) > self.need.item(a)]

    def donor_disk(self, donor: int, asset_id: int) -> Disk:
        """Enclosing disk of the donor's assets other than asset_id."""
        memo = self._donor_disks.setdefault(donor, {})
        got = memo.get(asset_id)
        if got is None:
            robot = self.robot[donor]
            got = memo[asset_id] = consolidate(robot.pos, robot.assigned - {asset_id}, self.assets)
        return got

    def donor_bound(self, donor: int, asset_id: int) -> float:
        """A lower bound on `donor_disk(donor, asset_id).radius` that solves
        no disk (see `_donor_bound`)."""
        memo = self._donor_bounds.setdefault(donor, {})
        got = memo.get(asset_id)
        if got is None:
            got = memo[asset_id] = _donor_bound(self, donor, asset_id)
        return got

    def grown_disk(self, receiver: int, asset_id: int) -> Disk:
        """The receiver's disk after adding asset_id (see _grow_disk)."""
        memo = self._grown_disks.setdefault(receiver, {})
        got = memo.get(asset_id)
        if got is None:
            got = memo[asset_id] = _grow_disk(self, self.robot[receiver], asset_id)
        return got

    def bound_xy(self, rid: int) -> tuple[np.ndarray, np.ndarray]:
        """Robot rid's held assets as x and y arrays in ascending id (see
        `_bid_bounds`)."""
        ids = np.array(sorted(self.robot[rid].assigned), dtype=np.intp)
        return self.asset_x[ids], self.asset_y[ids]


def _count_dtype(m: int) -> np.dtype:
    """The dtype of a view's cover counts for m robots: the smallest
    unsigned one that holds m + 1, so that a count (at most m) and a kappa
    capped at m + 1 share it."""
    return np.min_scalar_type(m + 1)


def _ids(ids: Iterable[int]) -> np.ndarray:
    # Ids as an index array.
    return np.fromiter(ids, dtype=np.intp)


def _cells(rows: Sequence[Collection[int]], cols: Sequence[Collection[int]], n: int) -> np.ndarray:
    """The flat indices (row * n + col) of every cell of the blocks
    rows[i] x cols[i] of a matrix n wide, block after block."""
    r = np.array([len(x) for x in rows], dtype=np.intp)
    c = np.array([len(x) for x in cols], dtype=np.intp)
    row_ids = _ids(chain.from_iterable(rows))
    col_ids = _ids(chain.from_iterable(cols))
    size = r * c
    block = np.repeat(np.arange(len(size)), size)
    k = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)  # a cell's place in its block
    width = c[block]
    row = row_ids[(np.cumsum(r) - r)[block] + k // width]
    col = col_ids[(np.cumsum(c) - c)[block] + k % width]
    return row * n + col


def _finalize_radius(radius: float, r_max: float) -> float:
    # Consolidated disks may exceed r_max by a rounding ulp when support
    # points sit exactly at the cap; clamp within the containment slack.
    if radius > r_max + CONTAINMENT_TOL:
        raise RuntimeError(f"consolidated radius {radius} exceeds r_max {r_max}")
    return min(radius, r_max)


# ---------------------------------------------------------------------------
# Phase 1: exploration


def lloyd_round(snapshot: WorldSnapshot) -> dict[int, Proposal]:
    """One Lloyd iteration: assets are claimed by the nearest sensing robot,
    robots move to the centroid of their cell, radius capped at r_max.

    The nearest robot minimizes (squared distance, id) among the robots
    within r_max.  The assets and the alive robots are sorted by x, and
    each block of assets is scanned only against the window of robots
    that can lie within r_max (`geometry.sq_dist_blocks`): a robot outside
    it fails the r_max test in the scan's own arithmetic, so it could not
    have been picked.  The window's columns are in x order, not id order,
    so among equal minima the lowest id wins.  Each cell's centroid and
    radius are summed over its assets in ascending id.
    """
    alive = [r for r in snapshot.robots if r.alive]
    r_max = snapshot.params.r_max
    lim2 = r_max * r_max
    ax = [a.pos.x for a in snapshot.assets]
    ay = [a.pos.y for a in snapshot.assets]
    qx = np.array(ax, dtype=np.float64)
    by_x = np.argsort(qx, kind="stable")
    qx, qy = qx[by_x], np.array(ay, dtype=np.float64)[by_x]
    rx = np.array([r.pos.x for r in alive], dtype=np.float64)
    order = np.argsort(rx, kind="stable")
    rx, ry = rx[order], np.array([r.pos.y for r in alive], dtype=np.float64)[order]
    ids = np.array([r.id for r in alive], dtype=np.intp)[order]
    owner = np.full(len(ax), -1, dtype=np.intp)  # by asset id
    for start, lo, d2 in sq_dist_blocks(qx, qy, rx, ry, r_max):
        cols = ids[lo : lo + d2.shape[1]]
        first = d2.argmin(axis=1)
        best = d2[np.arange(len(d2)), first]
        win = cols[first]
        # A row whose last minimum is not its first has tied minima.
        tied = np.flatnonzero(first != d2.shape[1] - 1 - d2[:, ::-1].argmin(axis=1))
        if len(tied):
            win[tied] = np.where(d2[tied] == best[tied, None], cols, len(snapshot.robots)).min(axis=1)
        within = best <= lim2
        owner[by_x[start : start + len(d2)][within]] = win[within]
    cells: dict[int, list[int]] = {}
    claimed = np.flatnonzero(owner >= 0)
    for a, k in zip(claimed.tolist(), owner[claimed].tolist()):
        cells.setdefault(k, []).append(a)
    proposals: dict[int, Proposal] = {}
    for r in alive:
        cell = cells.get(r.id)
        if not cell:
            proposals[r.id] = Proposal(r.pos, 0.0, frozenset())
            continue
        cx = ordered_sum([ax[a] for a in cell]) / len(cell)
        cy = ordered_sum([ay[a] for a in cell]) / len(cell)
        maxd = max([math.hypot(cx - ax[a], cy - ay[a]) for a in cell])
        proposals[r.id] = Proposal(Point(cx, cy), min(maxd, r_max), frozenset(cell))
    return proposals


def phase1_converged(prev: WorldSnapshot, nxt: WorldSnapshot, tol: float) -> bool:
    """True when the largest displacement of a robot alive in both rounds is
    strictly below tol."""
    worst = 0.0
    for old in prev.robots:
        if not old.alive:
            continue
        new = nxt.robots[old.id]
        if not new.alive:
            continue
        worst = max(worst, dist(old.pos, new.pos))
    return worst < tol


def consolidate(pos: Point, held: Iterable[int], assets: Sequence[Asset]) -> Disk:
    """Minimum enclosing disk of the held assets, taken in ascending id; an
    empty set keeps `pos` with radius zero.  Callers are responsible for
    keeping the result within r_max."""
    pts = [assets[a].pos for a in sorted(held)]
    return min_enclosing_disk(pts) if pts else Disk(pos, 0.0)


def _transition_plan(snapshot: WorldSnapshot) -> dict[int, Proposal]:
    # Explore -> Optimize: drop assigned assets the capped Lloyd radius never
    # actually covered, then consolidate onto the minimum enclosing disk.
    r_max = snapshot.params.r_max
    proposals: dict[int, Proposal] = {}
    for r in snapshot.robots:
        if not r.alive:
            continue
        kept = frozenset(
            a for a in r.assigned if dist(r.pos, snapshot.assets[a].pos) <= r.radius + CONTAINMENT_TOL
        )
        d = consolidate(r.pos, kept, snapshot.assets)
        proposals[r.id] = Proposal(d.center, _finalize_radius(d.radius, r_max), kept)
    return proposals


# ---------------------------------------------------------------------------
# Phase 2: optimization (auctions, fallback, swaps)


def _grow_disk(view: _View, robot: RobotState, asset_id: int) -> Disk:
    # Disk after adding one asset: unchanged if the asset already sits inside,
    # otherwise grown with the asset pinned to the boundary.
    ppos = view.assets[asset_id].pos
    if not robot.assigned:
        return Disk(ppos, 0.0)
    if dist(robot.pos, ppos) <= robot.radius + CONTAINMENT_TOL:
        return Disk(robot.pos, robot.radius)
    pts = view.positions(sorted(robot.assigned))
    return enclose_with_anchor(pts, ppos)


def _bid(view: _View, robot: RobotState, asset_id: int) -> tuple[float, Disk]:
    """The robot's bid for the asset, the disk area it adds (INFEASIBLE
    past r_max), and the grown disk it priced (see `_grow_disk`)."""
    d = _grow_disk(view, robot, asset_id)
    if d.radius > view.params.r_max:
        return INFEASIBLE, d
    return max(0.0, math.pi * (d.radius * d.radius - robot.radius * robot.radius)), d


def _bid_bounds(view: _View, robots: np.ndarray, assets: np.ndarray) -> np.ndarray:
    """A lower bound on the bid (`_bid`) of robot robots[i] for asset
    assets[i], for every i, that solves no disk.

    The bound is 0 for a robot that holds nothing or whose disk already
    holds the asset: the exact bid is 0 there too.  Otherwise a disk holding
    the asset and the held asset `far` from it has radius at least far/2.
    The solver accepts points up to CONTAINMENT_TOL outside its disk, so its
    radius can fall up to about that much below far/2: an absolute slack of
    2 CONTAINMENT_TOL covers that, and a relative shrink covers the rounding
    of the area formula.  The far/2 argument needs the grown disk to hold
    the robot's assets, which `enclose_with_anchor` guarantees.

    The pass takes each run of pairs of one robot in one block; the round's
    listing (`_auction_candidates`) gives each robot's pairs in one run.
    For a run of k pairs it first finds the assets the robot's disk does
    not hold, where `dist(robot.pos, asset.pos)` exceeds radius +
    CONTAINMENT_TOL.  The squared distance `dx*dx + dy*dy` is within a few
    ulps of the square of that `math.hypot`, which is off by under an ulp,
    so outside a relative band of 1e-12 around the squared reach the two
    tests agree; the few pairs inside the band take the hypot test.  It
    then measures the k assets against the robot's h `bound_xy` points in
    one k x h array (h = 0 for a robot that holds nothing, so far = 0),
    takes the row max and applies the formula elementwise.  These are the
    IEEE operations of the scalar loop in tests/reference.py, in the same
    order (`dx*dx + dy*dy`, an exact max, a correctly rounded sqrt), so
    every bound has its bits.
    """
    robots, assets = np.asarray(robots), np.asarray(assets)
    n = len(robots)
    cap = view.params.r_max + 2.0 * CONTAINMENT_TOL
    got = np.zeros(n)
    starts = np.flatnonzero(np.diff(robots, prepend=-1)).tolist()
    for s, e in zip(starts, [*starts[1:], n]):
        robot = view.robot[int(robots[s])]
        ids = assets[s:e]
        ax, ay = view.asset_x[ids], view.asset_y[ids]
        dx = robot.pos.x - ax
        dy = robot.pos.y - ay
        d2 = dx * dx + dy * dy
        reach = robot.radius + CONTAINMENT_TOL
        reach2 = reach * reach
        far = d2 > reach2
        for i in np.flatnonzero(np.abs(d2 - reach2) <= 1e-12 * reach2).tolist():
            far[i] = dist(robot.pos, view.assets[ids[i]].pos) > reach
        bx, by = view.bound_xy(robot.id)
        dx = ax[:, None] - bx
        dy = ay[:, None] - by
        half = np.sqrt((dx * dx + dy * dy).max(axis=1, initial=0.0)) / 2.0 - 2.0 * CONTAINMENT_TOL
        r = robot.radius
        area = math.pi * (half * half - r * r) * (1.0 - 1e-9)
        area = np.where(half > cap, INFEASIBLE, np.where(half <= r, 0.0, area))
        got[s:e] = np.where(far, area, 0.0)
    return got


def _tie_cut(best: float, eps: float) -> float:
    # Bids up to this value tie with the best bid.
    return best * (1.0 + eps) + 1e-12


def select_winner(
    asset_id: int,
    bids: Mapping[int, float],
    iteration: int,
    eps: float,
    keys: Optional[dict[int, tuple[int, int]]] = None,
) -> Optional[int]:
    """Lowest-cost bidder; bids within a relative eps of the best tie and the
    tie is broken by the key (h64(iteration, asset_id, j), j), lowest first.
    Returns None when no bid is feasible.

    `keys` memoizes the tie keys by robot id j and is filled as keys are
    hashed.  A dict holds the keys of one (iteration, asset_id) only, so a
    caller shares one across the auctioneers of one asset in one round and
    drops it after; without one, a local dict serves this call alone."""
    feasible = {j: d for j, d in bids.items() if d != INFEASIBLE}
    if not feasible:
        return None
    cut = _tie_cut(min(feasible.values()), eps)
    tie = [j for j, d in feasible.items() if d <= cut]
    if len(tie) == 1:
        return tie[0]  # nothing to break: skip the hash
    if keys is None:
        keys = {}
    for j in tie:
        if j not in keys:
            keys[j] = (h64(iteration, asset_id, j), j)
    return min(tie, key=keys.__getitem__)


# Cells of one robot x asset block of the auction listing: each of its
# temporaries stays near 64 KB, and the packed rows it gathers near
# (degree + 1) / 8 of that.
_LIST_CELLS = 1 << 16


def _row_blocks(m: int, n: int) -> Iterator[slice]:
    # Slices of the robot ids 0..m-1, each of at most _LIST_CELLS cells of
    # an m x n matrix (at least one row).
    rows = max(1, _LIST_CELLS // max(1, n))
    for start in range(0, m, rows):
        yield slice(start, min(m, start + rows))


def _auction_candidates(view: _View) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The round's auctions, as two pairs of id arrays:

    * the auctioneers, (asset, robot) for every deficit of every robot (see
      `_View.deficits`), in ascending asset and then robot id;
    * the candidates, (robot, asset) for every robot in some auctioneer's
      group (the auctioneer and its neighbors) that knows the asset and
      does not hold it, in ascending robot and then asset id.

    Since the neighbor relation is symmetric, a robot is in the group of
    an auctioneer of an asset exactly when its closed neighborhood (itself
    and its neighbors) holds one: when the OR of the deficit rows
    (`_View.deficit_mask`) over its closed neighborhood has the asset.  The
    deficit rows are packed eight assets to a byte, and one
    `np.bitwise_or.reduceat` takes the ORs of a block of robots.  The
    blocks of deficit rows and of candidate rows are `_row_blocks`, so the
    listing holds the packed rows and no robot x asset matrix.  Every
    auctioneer is one of its own candidates."""
    m, n = view.held.shape
    packed = np.zeros((m, (n + 7) // 8), dtype=np.uint8)
    robots: list[np.ndarray] = [np.zeros(0, dtype=np.int32)]
    assets: list[np.ndarray] = [np.zeros(0, dtype=np.int32)]
    for rows in _row_blocks(m, n):
        deficit = view.deficit_mask(rows)
        packed[rows] = np.packbits(deficit, axis=1)
        robot, asset = np.nonzero(deficit)
        robots.append((robot + rows.start).astype(np.int32))
        assets.append(asset.astype(np.int32))
    robot, asset = np.concatenate(robots), np.concatenate(assets)
    order = np.argsort(asset, kind="stable")
    auctioneers = (asset[order], robot[order])
    if not len(order):
        return auctioneers, (robot, asset)
    ids = view.alive_ids
    robots, assets = [], []
    for rows in _row_blocks(len(ids), n):
        closed = [(j, *view.nbrs[j]) for j in ids[rows]]
        offsets = np.cumsum([0, *map(len, closed[:-1])])
        near = np.bitwise_or.reduceat(packed[list(chain.from_iterable(closed))], offsets, axis=0)
        got = np.unpackbits(near, axis=1, count=n).view(bool)
        block = np.array(ids[rows], dtype=np.int32)
        got &= view.known(block)
        got &= ~view.held[block]
        robot, asset = np.nonzero(got)
        robots.append(block[robot])
        assets.append(asset.astype(np.int32))
    return auctioneers, (np.concatenate(robots), np.concatenate(assets))


def phase2_round(snapshot: WorldSnapshot, cfg: Config, view: _View) -> tuple[dict[int, Proposal], bool]:
    """One auction round.

    Every robot auctions each of its deficits (see `_View.deficits`) among
    itself and its neighbors and claims the asset when it wins its own
    auction.  The bidders of an auction are the robots of its group (the
    auctioneer and its neighbors) that know the asset and do not hold it.

    The auctions are decided asset by asset, in ascending id, and a bid is
    priced exactly (`_bid`, memoized per asset) only when it could still be
    its group's best or fall in the tie window.  The round runs in three
    stages:

    1. the auctioneers and candidates are listed from the view's matrices
       (`_auction_candidates`): the deficits, in ascending asset and then
       robot id, and the bidders in some auctioneer's group as (robot,
       asset) pairs grouped by robot;
    2. every candidate pair gets a lower bound on its bid that solves no
       disk, all in one pass over the round grouped by robot
       (`_bid_bounds`);
    3. each asset's candidates are sorted once by (bound, id), and each of
       its auctioneers finds its group's best bid:

       * a walk prices bids in bound order until the next bound exceeds
         the best exact bid, which is then the best, since no later bid
         can undercut it; an infeasible best means no winner;
       * the list is first walked over every candidate, which gives the
         asset's best and a robot that bid it: a group that holds that
         robot has that best, and only the other groups walk the list
         over their own members;
       * an auctioneer loses at once if its own bound, or its own exact
         bid, is above the tie cut of its group's best (`_tie_cut`);
       * otherwise the group's exact bids up to the cut, priced among the
         entries whose bound is up to the cut, are exactly the bids
         `select_winner` would keep from the group's full bid dict, and
         only those reach it.

    So `select_winner` stays the one winner rule, sees the same best bid,
    cut and tie set as with every bid priced, and names the same winner.
    The first walk prices the candidates whose bound is at most the
    asset's best.  Each of them is in some auctioneer's group, whose best
    is no lower, so that group's own walk would price it too: the bids
    priced are those of one walk per group (tests/reference.py).

    The auctioneers of one asset share one dict of tie keys, robot id to
    (h64, id), which `select_winner` fills: each key is hashed at most once
    per round.  The dict lives for its asset's walks only, so no key
    outlives this call.

    A robot's wins are grown into its disk one at a time, in ascending asset
    id (see `_grow_disk`); a win is skipped if stacking it onto the earlier
    wins would push the disk past r_max (it stays undercovered and is
    re-auctioned next round).  A win carries the disk its winning bid
    priced, and the fold takes that disk while the robot is still as the
    bid priced it: only the wins after a robot's first kept win are solved
    again.
    """
    view.update(snapshot)
    r_max = snapshot.params.r_max
    iteration = snapshot.round
    (auct_asset, auct_robot), (pair_robot, pair_asset) = _auction_candidates(view)
    groups: dict[int, set[int]] = {}

    wins: dict[int, list[tuple[int, Disk]]] = {}
    bounds = _bid_bounds(view, pair_robot, pair_asset)
    # The pairs asset by asset, each asset's robots in ascending id.  The
    # auctioned assets are those with a candidate, since every auctioneer
    # is one of its own candidates.
    order = np.argsort(pair_asset, kind="stable")
    pair_robot, bounds = pair_robot[order], bounds[order]
    n_cands = np.bincount(pair_asset, minlength=len(view.assets))
    auctioned = np.flatnonzero(n_cands)
    cand_at = [0, *np.cumsum(n_cands[auctioned]).tolist()]
    auct_at = [0, *np.cumsum(np.bincount(auct_asset, minlength=len(view.assets))[auctioned]).tolist()]
    for i, asset_id in enumerate(auctioned.tolist()):
        c0, c1 = cand_at[i], cand_at[i + 1]
        bound = dict(zip(pair_robot[c0:c1].tolist(), bounds[c0:c1].tolist()))
        # An infeasible bound means an infeasible bid, which never wins.
        ranked = sorted((b, j) for j, b in bound.items() if b != INFEASIBLE)
        priced: dict[int, tuple[float, Disk]] = {}
        keys: dict[int, tuple[int, int]] = {}  # this asset's tie keys

        def exact(j: int) -> float:
            got = priced.get(j)
            if got is None:
                got = priced[j] = _bid(view, view.robot[j], asset_id)
            return got[0]

        top, top_j = INFEASIBLE, -1  # the best bid over every candidate, and its bidder
        for b, j in ranked:
            if b > top:
                break
            got = exact(j)
            if got < top:
                top, top_j = got, j
        if top == INFEASIBLE:
            continue  # so is every group's best
        top_cut = _tie_cut(top, cfg.eps)

        for rid in auct_robot[auct_at[i] : auct_at[i + 1]].tolist():
            group = groups.get(rid)
            if group is None:
                group = groups[rid] = {rid, *view.nbrs[rid]}
            if top_j in group:
                cut = top_cut
            else:
                best = INFEASIBLE
                for b, j in ranked:
                    if b > best:
                        break
                    if j in group:
                        best = min(best, exact(j))
                if best == INFEASIBLE:
                    continue
                cut = _tie_cut(best, cfg.eps)
            if bound[rid] > cut or exact(rid) > cut:
                continue
            tie: dict[int, float] = {}
            for b, j in ranked:
                if b > cut:
                    break
                if j in group:
                    got = exact(j)
                    if got <= cut:
                        tie[j] = got
            if select_winner(asset_id, tie, iteration, cfg.eps, keys) == rid:
                wins.setdefault(rid, []).append((asset_id, priced[rid][1]))

    proposals: dict[int, Proposal] = {}
    for rid in sorted(wins):
        robot = cur = view.robot[rid]
        for asset_id, d in wins[rid]:
            if cur is not robot:  # the priced disk grew the robot as it was
                d = _grow_disk(view, cur, asset_id)
            if d.radius <= r_max:
                cur = replace(cur, pos=d.center, radius=d.radius, assigned=cur.assigned | {asset_id})
        if cur is not robot:
            proposals[rid] = Proposal(cur.pos, _finalize_radius(cur.radius, r_max), cur.assigned)
    return proposals, bool(proposals)


def has_undercovered_views(snapshot: WorldSnapshot) -> bool:
    """Does any robot see a deficit it could act on?  Deficits on assets a
    robot itself holds do not count: only additions close deficits, and a
    holder cannot add its own asset (a neighbor who could will see the same
    deficit through the holder's published list).  Diagnostic: views lag the
    true state, so this can stay true forever on assets whose covers sit
    outside the observer's communication range.  No program code calls it:
    `perfbench/spans.py` times it before every phase call (ROADMAP item 3)."""
    view = _View(snapshot)
    return any(view.deficit_mask(rows).any() for rows in _row_blocks(*view.held.shape))


def coverage_satisfied(snapshot: WorldSnapshot, view: _View) -> bool:
    """Phase-2 completion test: every discovered asset has at least kappa
    distinct holders.

    Holders keep their assets inside their disks, and the swap and removal
    guards are holder-count based, so once this holds the geometric coverage
    requirement holds too and survives the later phases.  The test is
    evaluated omnisciently by the run scheduler: robots cannot detect global
    completion from local state, and their views keep flagging covered
    assets whose holders sit outside communication range.  Assets no robot
    senses or holds are undiscovered and do not block completion.  The
    trace's `undiscovered` metric is a wider count: every asset that no
    alive robot holds, sensed ones included.

    It reads the view: each asset's holders, counted down its column of
    `_View.held`, against `_View.need`, and the rows of `_View.sensed`.
    """
    view.update(snapshot)
    holders = view.held.sum(axis=0)
    short = holders < view.need
    short &= (holders > 0) | view.sensed.any(axis=0)
    return not short.any()


def holders_certified(snapshot: WorldSnapshot, view: _View) -> bool:
    """Distributed completion certificate: no robot holds an asset whose
    coverage requirement it cannot verify within its own neighborhood.

    A custodian of p that counts fewer than kappa(p) holders among itself
    and its communication neighbors can never confirm the requirement is
    met, and it has no action left: it cannot add p again and nobody in
    range will.  Quiescing in that state is a coordination failure (too
    little communication relative to sensing reach), distinct from the
    benign case where only non-holding observers are blind to remote
    holders.  With adequate communication the bidding and fallback grind
    saturates every custodian's neighborhood before it goes quiet, so the
    certificate holds exactly when coordination sufficed.

    It reads the view's matrices: the count (`_View.cover`) at every cell
    a robot holds (`_View.held`) against the asset's kappa, capped at m + 1
    in the counts' dtype (`_View.need`).
    """
    view.update(snapshot)
    robots, assets = np.nonzero(view.held)
    return bool((view.cover[robots, assets] >= view.need[assets]).all())


def fallback_assign(snapshot: WorldSnapshot, cfg: Config, view: _View) -> tuple[dict[int, Proposal], bool]:
    """Direct assignment when the auctions stall.

    In every connected component of the communication graph, the robot with
    the largest spare capacity (r_max - r_i) among those that still have a
    deficit (see `_View.deficits`) takes its nearest one; if the grown
    disk would exceed r_max it first releases its own locally overcovered
    assets farthest-first (`_View.releasable`), one at a time, retrying
    after each.
    """
    view.update(snapshot)
    r_max = snapshot.params.r_max
    proposals: dict[int, Proposal] = {}
    seen: set[int] = set()
    for start in view.alive_ids:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        idx = 0
        while idx < len(comp):
            for j in view.nbrs[comp[idx]]:
                if j not in seen:
                    seen.add(j)
                    comp.append(j)
            idx += 1
        actors = [rid for rid in comp if view.deficits(rid)]
        if not actors:
            continue
        actor = min(actors, key=lambda rid: (-(r_max - view.robot[rid].radius), rid))
        robot = view.robot[actor]
        target = min(view.deficits(actor), key=lambda a: (dist2(robot.pos, view.assets[a].pos), a))
        tpos = view.assets[target].pos
        keep = sorted(robot.assigned)
        for release in (None, *view.releasable(actor)):  # if none fits, the component is stuck for now
            if release is not None:
                keep.remove(release)
            d = min_enclosing_disk(view.positions(keep) + [tpos])
            if d.radius <= r_max:
                assigned = frozenset(keep) | {target}
                proposals[actor] = Proposal(d.center, _finalize_radius(d.radius, r_max), assigned)
                break
    return proposals, bool(proposals)


# A rim point of `_donor_bound` lies at least (1 - _RIM_BAND) times the
# donor's radius from its center; the bound takes at most _RIM_POINTS.
_RIM_BAND = 1e-6
_RIM_POINTS = 6


def _donor_bound(view: _View, donor: int, asset_id: int) -> float:
    """A lower bound on the radius of the donor's disk without asset_id
    (`_View.donor_disk`) that solves no disk.

    It is the larger of two spreads of the remaining assets, each a lower
    bound on the radius r* of their smallest enclosing disk:

    * Two points: any disk holding two points has radius at least half
      their distance (Welzl 1991).  It takes x, the remaining asset
      farthest from the donor's center (any one would do; a far one tends
      to give a tight bound), and q, the remaining asset farthest from x:
      hypot(x - q)/2.
    * The rim (`_rim_spread`): for any weights w >= 0 summing to 1 over a
      set S of points, with m = sum w s, the weighted variance
      sum w |s - m|^2 is at most sum w |s - c*|^2 (m minimizes it over all
      points) and so at most r*(S)^2, where c* is the center of S's
      smallest enclosing disk; and r*(S) <= r* for S among the remaining
      assets.  S is the remaining assets on the donor's rim, and w the
      barycentric coordinates of the donor's center in a triangle of them.
      When the removed asset is not a support point of the donor's disk,
      such a triangle tends to exist and the variance is about the squared
      radius: the bound is then tight.

    The bound returns (spread - 2 CONTAINMENT_TOL) shrunk by a relative
    1e-9, or 0 when that is negative or nothing remains (`consolidate` then
    keeps a zero radius).  `min_enclosing_disk` leaves every point within
    its radius plus CONTAINMENT_TOL, in a hypot test off by a few ulps, so
    its radius is at least r* less CONTAINMENT_TOL, less those ulps: one
    CONTAINMENT_TOL of the slack covers that and the error of the rim
    points' translation to the donor's center (under an ulp of a
    coordinate each), and the relative shrink covers the rounding of the
    hypot, of the variance and of the bound's own arithmetic.  So the
    bound stays below the radius by CONTAINMENT_TOL and by a relative
    ~4e-10: every two remaining points lie within 2 hypot(x - q) of each
    other, so by Jung's theorem the radius is at most 2/sqrt(3)
    hypot(x - q).  That gap is far above the rounding of `**`, so the
    bound's square is at most the radius's square.  Sums, the product with
    pi and the subtraction are monotone, so when `_evaluate_swap`'s tau
    test rejects with the bound in place of the radius, it rejects with the
    radius too.
    """
    robot = view.robot[donor]
    rest = [view.assets[a].pos for a in robot.assigned if a != asset_id]
    if not rest:
        return 0.0
    x = max(rest, key=lambda p: dist2(robot.pos, p))
    spread = max(dist(x, q) for q in rest) / 2.0
    cx, cy = robot.pos.x, robot.pos.y
    band = (robot.radius * (1.0 - _RIM_BAND)) ** 2
    rim: list[tuple[float, float]] = []
    for p in rest:
        dx = p.x - cx
        dy = p.y - cy
        if dx * dx + dy * dy >= band:
            rim.append((dx, dy))
            if len(rim) == _RIM_POINTS:
                break
    spread = max(spread, _rim_spread(rim))
    return max(0.0, (spread - 2.0 * CONTAINMENT_TOL) * (1.0 - 1e-9))


def _rim_spread(rim: Sequence[tuple[float, float]]) -> float:
    """The weighted standard deviation of three of the points, with the
    origin's barycentric coordinates in their triangle as weights, for the
    first triangle (in `combinations` order) that holds the origin; 0 when
    none does.

    The coordinates are the triangle's three signed sub-areas u opposite
    each point, normalized by their sum: a triangle whose u differ in sign
    from their sum, or sum to 0, does not hold the origin and is skipped.
    The argument of `_donor_bound` holds for any nonnegative weights, so
    whatever bits the u have, only the few flops of their sum, the mean
    and the variance round: a relative few ulps of the variance.  The
    points are given relative to the donor's center, so those errors scale
    with the donor's radius, not with the coordinates.
    """
    for (ax, ay), (bx, by), (ex, ey) in combinations(rim, 3):
        ua = bx * ey - by * ex
        ub = ex * ay - ey * ax
        ue = ax * by - ay * bx
        tot = ua + ub + ue
        if tot < 0.0:
            ua, ub, ue, tot = -ua, -ub, -ue, -tot
        if not tot > 0.0 or ua < 0.0 or ub < 0.0 or ue < 0.0:
            continue
        mx = (ua * ax + ub * bx + ue * ex) / tot
        my = (ua * ay + ub * by + ue * ey) / tot
        var = ua * ((ax - mx) ** 2 + (ay - my) ** 2) + ub * ((bx - mx) ** 2 + (by - my) ** 2)
        var = (var + ue * ((ex - mx) ** 2 + (ey - my) ** 2)) / tot
        return math.sqrt(var)
    return 0.0


def _receiver_bound(view: _View, robot: RobotState, asset_id: int) -> float:
    """A lower bound on the radius of the robot's disk grown by asset_id
    (`_grow_disk`) that solves no disk, for a robot that holds assets and
    whose disk does not hold asset_id.

    The argument and slack are those of `_bid_bounds`: the grown disk holds
    the asset and the held asset `far` from it (`enclose_with_anchor`
    guarantees it holds every point), so its radius is at least far/2 less
    about CONTAINMENT_TOL.  The bound is far/2 - 2 CONTAINMENT_TOL, shrunk
    by a relative 1e-9 for the rounding of the one square root and of the
    squares the tau test takes, or 0 when that is negative.
    """
    ppos = view.assets[asset_id].pos
    far2 = max(dist2(ppos, view.assets[a].pos) for a in robot.assigned)
    return max(0.0, (math.sqrt(far2) / 2.0 - 2.0 * CONTAINMENT_TOL) * (1.0 - 1e-9))


def _evaluate_swap(view: _View, donor: int, receiver: int, asset_id: int, cfg: Config) -> Optional[SwapDecision]:
    """Would handing the asset from donor to receiver pay off?

    Accepts when the receiver is closer, the asset sits near the donor's rim,
    the donor's local view keeps the asset covered after the transfer, the
    receiver's grown disk stays within r_max, and the pairwise area drops by
    more than the tau fraction.  Returns the accepted decision, or None for a
    rejection.  The donor must hold the asset and the receiver must be its
    neighbor.

    The tests run cheapest first, and each disk is solved only when the
    tests before it pass with lower bounds in place of the radii it would
    give; a rejection under a lower bound is a rejection under the radius
    (the tau test grows with both radii), so every verdict is that of the
    solved disks:

    1. the closer, rim and coverage tests;
    2. when the receiver's disk must grow to take the asset: the r_max
       test with the receiver's bound (`_receiver_bound`), then the tau
       test with the donor's bound (`_donor_bound`) and the receiver's;
    3. the receiver's grown disk (`_View.grown_disk`) and its r_max test;
    4. the tau test with the donor's bound and the receiver's radius;
    5. the donor's disk (`_View.donor_disk`) and the tau test.
    """
    di = view.robot[donor]
    dj = view.robot[receiver]
    ppos = view.assets[asset_id].pos
    to_donor = dist(ppos, di.pos)
    to_receiver = dist(ppos, dj.pos)
    if not to_receiver < to_donor:
        return None
    if not to_donor > cfg.boundary_factor * di.radius:
        return None
    held_by_receiver = asset_id in dj.assigned
    if view.local_coverage(donor, asset_id) - (1 if held_by_receiver else 0) < view.assets[asset_id].kappa:
        return None
    r_max = view.params.r_max
    before = math.pi * (di.radius ** 2 + dj.radius ** 2)
    if held_by_receiver:
        recv_after = Disk(dj.pos, dj.radius)
    else:
        if dj.assigned and to_receiver > dj.radius + CONTAINMENT_TOL:
            grown = _receiver_bound(view, dj, asset_id)
            if grown > r_max:
                return None
            if before - math.pi * (view.donor_bound(donor, asset_id) ** 2 + grown ** 2) <= cfg.tau * before:
                return None
        recv_after = view.grown_disk(receiver, asset_id)
        if recv_after.radius > r_max:
            return None
    low = view.donor_bound(donor, asset_id)
    if before - math.pi * (low ** 2 + recv_after.radius ** 2) <= cfg.tau * before:
        return None
    donor_after = view.donor_disk(donor, asset_id)
    after = math.pi * (donor_after.radius ** 2 + recv_after.radius ** 2)
    if before - after <= cfg.tau * before:
        return None
    return SwapDecision(
        before - after,
        donor_after.center,
        _finalize_radius(donor_after.radius, r_max),
        recv_after.center,
        _finalize_radius(recv_after.radius, r_max),
    )


# Margin of the swap sweep's gap bound, relative and in meters (see
# `_gap_prunes`).
_GAP_SLACK = 1e-9


def _gap_prunes(gap: float, t: float) -> bool:
    """Does a donor asset at distance t from the donor's center certainly
    fail `_evaluate_swap`'s closer test, for a receiver whose center is
    `gap` from the donor's?

    By the triangle inequality the receiver is at least gap - t from the
    asset, which is at least t when gap >= 2t.  The three distances are
    rounded hypots of rounded coordinate differences, each within a few
    ulps of the true distance between the stored points, so with a
    relative margin far above that the receiver's computed distance is
    still at least the donor's.  The margin also covers the farthest-first
    order: it compares squared distances, which can put a t a few ulps
    larger (or, below ~1e-154 m where squares underflow, ~1e-161 m larger)
    after a smaller one; the absolute term covers the latter.  So once one
    candidate is pruned, every later one fails the closer test too.
    """
    return gap >= 2.0 * t * (1.0 + _GAP_SLACK) + _GAP_SLACK


def _swap_candidates(view: _View, rid: int, cfg: Config) -> list[tuple[int, float]]:
    # Robot rid's assets as a donor, in scan order, each with its distance t
    # to rid's center, less those no receiver can take: the rim test and
    # the donor's own cover >= kappa test depend on the (donor, asset) pair
    # alone, so dropping the assets that fail them cannot change which
    # transfer is accepted first.  Memoized in view.candidates for the
    # config in view.clean_for.
    got = view.candidates.get(rid)
    if got is None:
        dr = view.robot[rid]
        rim = cfg.boundary_factor * dr.radius
        got = []
        for a in view.farthest_first(rid):
            t = dist(view.assets[a].pos, dr.pos)
            if t > rim and view.local_coverage(rid, a) >= view.assets[a].kappa:
                got.append((a, t))
        view.candidates[rid] = got
    return got


def swap_round(
    snapshot: WorldSnapshot, cfg: Config, view: _View
) -> tuple[dict[int, Proposal], bool, tuple[SwapRecord, ...]]:
    """One sweep over neighbor pairs in (min id, max id) order.

    Per pair both orientations are scanned (donor assets farthest from the
    donor's center first) and the first acceptable transfer of each
    orientation competes on area reduction.  A robot participates in at most
    one transfer per sweep and an asset moves at most once per sweep, which
    keeps the concurrently applied transfers coverage-safe.

    A scan stops at the first candidate the gap bound prunes
    (`_gap_prunes`): the receiver is then no closer to it than the donor,
    nor to any later candidate, so `_evaluate_swap` would reject them all.
    A pruned candidate counts as rejected, even one already moved this
    sweep.

    The sweep visits only the pairs in `_View.work`, in sorted order, and
    drops from it each pair that becomes clean; a new config refills it
    with every neighbor pair.  A clean pair, a neighbor pair not in `work`,
    is one whose last sweep rejected every candidate in both orientations
    and skipped none as already moved, and since then neither robot has
    changed and neither robot's cover count of an asset it holds has
    changed.  A robot's cover count is read only for a candidate it donates
    (the candidate list's kappa test and `_evaluate_swap`'s coverage test),
    and it holds every such candidate; the other inputs of `_evaluate_swap`
    and of the candidate lists are the two robots, the assets (an event
    rebuilds the view) and the config.  So the pair would be rejected
    again, with no side effect: no robot or asset marked used and no record
    made, and skipping it changes nothing.  The prune reads only the two
    centers and the candidates' distances, so it repeats too; a candidate
    skipped as moved inside the pruned tail would fail the closer test when
    not moved, so it does not keep a pair from becoming clean.
    """
    view.update(snapshot)
    if view.clean_for != cfg:
        view.clean_for = cfg
        view.work = {(i, j) for i, nbrs in view.nbrs.items() for j in nbrs if i < j}
        view.candidates.clear()

    used_robots: set[int] = set()
    used_assets: set[int] = set()
    proposals: dict[int, Proposal] = {}
    records: list[SwapRecord] = []
    for i, j in sorted(view.work):
        if i in used_robots or j in used_robots:
            continue
        best: tuple[float, int, int, int, SwapDecision] | None = None
        skipped = False
        gap = dist(view.robot[i].pos, view.robot[j].pos)
        for donor, receiver in ((i, j), (j, i)):
            for asset_id, t in _swap_candidates(view, donor, cfg):
                if _gap_prunes(gap, t):
                    break
                if asset_id in used_assets:
                    skipped = True
                    continue
                dec = _evaluate_swap(view, donor, receiver, asset_id, cfg)
                if dec is not None:
                    if best is None or dec.reduction > best[0]:
                        best = (dec.reduction, donor, receiver, asset_id, dec)
                    break
        if best is None:
            if not skipped:
                view.work.remove((i, j))
            continue
        _, donor, receiver, asset_id, dec = best
        dr = view.robot[donor]
        rr = view.robot[receiver]
        proposals[donor] = Proposal(dec.donor_pos, dec.donor_radius, dr.assigned - {asset_id})
        proposals[receiver] = Proposal(dec.receiver_pos, dec.receiver_radius, rr.assigned | {asset_id})
        used_robots.update((donor, receiver))
        used_assets.add(asset_id)
        before = math.pi * (dr.radius ** 2 + rr.radius ** 2)
        records.append(
            SwapRecord(snapshot.round, donor, receiver, asset_id, before, before - dec.reduction)
        )
    return proposals, bool(proposals), tuple(records)


# ---------------------------------------------------------------------------
# Phase 3: refinement


def phase3_round(snapshot: WorldSnapshot, cfg: Config, view: _View) -> tuple[dict[int, Proposal], bool]:
    """One guarded removal round.

    Each robot builds a removal intent set greedily (farthest asset first,
    only removals that strictly shrink its disk, only assets its local view
    shows overcovered: `_View.releasable`).  An intent executes unless the
    surviving cover count, discounted by intending neighbors with lower h64
    priority, would fall below kappa; the hash ordering lets exactly the
    right subset proceed when neighbors contend for the same slack.
    """
    view.update(snapshot)
    r_max = snapshot.params.r_max
    rnd = snapshot.round
    intents: dict[int, list[int]] = {}
    for rid in view.alive_ids:
        robot = view.robot[rid]
        keep = set(robot.assigned)
        r_cur = robot.radius
        intent: list[int] = []
        for asset_id in view.releasable(rid):
            trial = consolidate(robot.pos, keep - {asset_id}, view.assets)
            if trial.radius < r_cur:
                intent.append(asset_id)
                keep.remove(asset_id)
                r_cur = trial.radius
        if intent:
            intents[rid] = intent

    proposals: dict[int, Proposal] = {}
    for rid in sorted(intents):
        robot = view.robot[rid]
        my_keys = {a: (h64(rnd, a, rid), rid) for a in intents[rid]}
        removed: list[int] = []
        for asset_id in intents[rid]:
            contenders = sum(
                1
                for j in view.nbrs[rid]
                if asset_id in intents.get(j, ()) and (h64(rnd, asset_id, j), j) < my_keys[asset_id]
            )
            if view.local_coverage(rid, asset_id) - 1 - contenders >= view.assets[asset_id].kappa:
                removed.append(asset_id)
        if not removed:
            continue
        assigned = robot.assigned - frozenset(removed)
        d = consolidate(robot.pos, assigned, view.assets)
        proposals[rid] = Proposal(d.center, _finalize_radius(d.radius, r_max), assigned)
    return proposals, bool(proposals)


# ---------------------------------------------------------------------------
# Full run loop


def run(
    instance: Instance,
    config: Optional[Config] = None,
    events: Sequence[Event] = (),
    seed: int = 0,
) -> RunResult:
    """Execute the full mission on an instance.

    Phases advance globally on quiescence.  Events fire at their absolute
    round number; events that land after refinement has settled pull the
    swarm back into the optimization phase, which is how dynamic scenarios
    adapt.  Returns the final snapshot, the per-round trace, executed swap
    records, and wall-clock milestones.  An event that cannot apply to the
    instance raises ValueError (see `engine.check_events`).

    `seed` is a no-op: the protocol has no randomness, and every enclosing
    disk is a function of the sequence of points it is solved over (see
    `geometry.min_enclosing_disk`).  It is kept because `perfbench/run.py`
    passes it by position (ROADMAP item 3).
    """
    cfg = config if config is not None else Config()
    check_events(events, instance)
    t0 = time.perf_counter()
    params = Params.from_instance(instance)
    shape = grid_partition(params.m, cfg.lam)
    starts = initial_positions(params.m, params.workspace, shape)
    robots = tuple(RobotState(i, starts[i], 0.0, frozenset(), True) for i in range(params.m))
    pending = list(events)
    snapshot = WorldSnapshot(0, Phase.EXPLORE, robots, instance.assets, params)
    pre_event: list[tuple[int, WorldSnapshot]] = []

    def take_due(rnd: int) -> list[Event]:
        # Take the events due at round rnd off pending, noting the snapshot.
        nonlocal pending
        due = [e for e in pending if e.at_round == rnd]
        if due:
            pre_event.append((rnd, snapshot))
            pending = [e for e in pending if e.at_round != rnd]
        return due

    if due := take_due(0):
        snapshot = apply_events(snapshot, due)
    # The round metrics are carried like the view (see `metrics.CoverTally`).
    tally = CoverTally()
    trace: list[RoundMetrics] = [summarize(snapshot, tally=tally)]
    swaps: list[SwapRecord] = []

    def advance(plan: dict[int, Proposal], phase: Phase) -> None:
        nonlocal snapshot
        snapshot, rm = step(snapshot, plan, take_due(snapshot.round + 1), next_phase=phase, tally=tally)
        trace.append(rm)

    # Phase 1: Lloyd iterations until displacements settle, then lock disks.
    for _ in range(cfg.max_iters_phase1):
        prev = snapshot
        advance(lloyd_round(snapshot), Phase.EXPLORE)
        if phase1_converged(prev, snapshot, cfg.tol):
            break
    advance(_transition_plan(snapshot), Phase.OPTIMIZE)
    # The one view of the run: each phase function carries it to the
    # snapshot it decides on.  It is passed by position, because wrappers
    # of the phase functions (spans, test probes) may take no keywords.
    view = _View(snapshot)

    status = RunStatus.FEASIBLE
    feas_time: Optional[float] = None
    bid_budget = cfg.phase2_cap(params.m)

    def coast_to_next_event() -> None:
        target = min(e.at_round for e in pending)
        while snapshot.round < target:
            advance({}, snapshot.phase)

    while True:
        # Phase 2 bidding.  The scheduler classifies the swarm every round:
        # bidding is over once every discovered asset has enough holders and
        # every custodian can certify its own assets within its neighborhood.
        # Residual non-holder deficit flags are view artifacts (the flagged
        # asset is covered, its holders just sit outside the observer's
        # communication range); acting on them only piles up redundancy, and
        # the capacity fallback can even ping-pong an asset between release
        # and re-claim forever, so artifact churn does not keep the phase
        # open.  Quiescence without the classification is a stall: real
        # deficits nobody can serve, or custodians that cannot reach enough
        # peers to confirm coverage.
        while True:
            if coverage_satisfied(snapshot, view) and holders_certified(snapshot, view):
                break
            plan, progress = phase2_round(snapshot, cfg, view)
            if not progress:
                plan, progress = fallback_assign(snapshot, cfg, view)
            if progress:
                if bid_budget <= 0:
                    status = RunStatus.ITERATION_CAP
                    break
                advance(plan, Phase.OPTIMIZE)
                bid_budget -= 1
                continue
            if pending:
                # A scheduled event may unblock the swarm.
                coast_to_next_event()
                continue
            status = RunStatus.INFEASIBLE
            break
        if status is not RunStatus.FEASIBLE:
            break
        if feas_time is None:
            feas_time = time.perf_counter() - t0

        # Refinement descent: pairwise transfers and guarded removals,
        # alternated to a joint fixed point.  Removals re-center disks and
        # can expose fresh beneficial transfers, so a single
        # sweep-then-remove pass would leave work behind.  Both stages
        # preserve membership coverage; it only reopens through events.
        sweep_budget = cfg.max_swap_sweeps
        removal_budget = cfg.max_iters_phase3
        while coverage_satisfied(snapshot, view):
            acted = False
            while sweep_budget > 0:
                plan, progress, records = swap_round(snapshot, cfg, view)
                if not progress:
                    break
                swaps.extend(records)
                advance(plan, Phase.REFINE)
                sweep_budget -= 1
                acted = True
            if not coverage_satisfied(snapshot, view):
                break
            while removal_budget > 0:
                plan, progress = phase3_round(snapshot, cfg, view)
                if not progress:
                    break
                advance(plan, Phase.REFINE)
                removal_budget -= 1
                acted = True
            if not acted:
                break

        # Re-optimize when an event during the later stages reopened coverage,
        # or after idling forward to the next scheduled event.
        if coverage_satisfied(snapshot, view):
            if not pending:
                break
            coast_to_next_event()
        bid_budget = cfg.phase2_cap(params.m)

    total = time.perf_counter() - t0
    return RunResult(
        status=status,
        snapshot=snapshot,
        trace=tuple(trace),
        timings=Timings(feas_time, total),
        swaps=tuple(swaps),
        pre_event_snapshots=tuple(pre_event),
    )
