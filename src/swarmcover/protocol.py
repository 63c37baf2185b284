"""The three-phase coverage protocol and its synchronous run loop.

Phase 1 (explore) spreads robots with a grid-seeded Lloyd iteration over the
assets each robot senses, then locks in the minimum enclosing disk of what it
kept.  Phase 2 (optimize) closes coverage deficits through neighborhood
auctions on marginal disk-area cost, and falls back to a capacity-based
direct assignment when the auctions stall.  Phase 3 (refine) shaves cost with
sweeps of pairwise boundary-asset transfers, alternated with guarded removals
of overcovered assets that must strictly shrink the remover's disk.

Every decision is a pure function of the published snapshot, the config and
the run seed, so runs are deterministic end to end.  The seed only orders the
shuffle inside each enclosing-disk solve.  On near-degenerate input that
order can change a disk's bits (see `geometry`), so the seed can in principle
change a decision; the benchmark missions and `tests/test_golden.py` show no
such dependence.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

from .engine import (
    Event,
    Params,
    Phase,
    Proposal,
    RobotState,
    WorldSnapshot,
    apply_events,
    neighbor_map,
    step,
)
from .geometry import (
    CONTAINMENT_TOL,
    CellGrid,
    Disk,
    Point,
    dist,
    dist2,
    enclose_with_anchor,
    min_enclosing_disk,
    min_enclosing_disk_or,
)
from .instances import DEFAULT_GRID_LAMBDA, Asset, Instance, grid_partition, initial_positions
from .metrics import RoundMetrics, summarize

INFEASIBLE = math.inf

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_U64 = (1 << 64) - 1


def h64(iteration: int, asset_id: int, robot_id: int) -> int:
    """64-bit FNV-1a over (iteration, asset_id, robot_id), each encoded as
    8 little-endian bytes.  Used for symmetry breaking in auctions and
    removal conflicts."""
    h = _FNV_OFFSET
    for b in (
        iteration.to_bytes(8, "little")
        + asset_id.to_bytes(8, "little")
        + robot_id.to_bytes(8, "little")
    ):
        h ^= b
        h = (h * _FNV_PRIME) & _U64
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
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(f"{name} must be a number, got {value!r}")
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        for name in ("max_iters_phase1", "max_iters_phase2", "max_swap_sweeps", "max_iters_phase3"):
            value = getattr(self, name)
            if name == "max_iters_phase2" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")

    def phase2_cap(self, m: int) -> int:
        return self.max_iters_phase2 if self.max_iters_phase2 is not None else 10 * m


@dataclass(frozen=True)
class SwapDecision:
    accepted: bool
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
    """Caches shared by the decision rules within one round.

    Everything here is derived from the snapshot alone, so per-robot decisions
    that consult the view stay pure and order-independent.  This is the one
    place local knowledge is computed.  Built up front: the alive robots, the
    neighbor map, each robot's sensed assets (through a cell grid of side
    r_max), its membership cover counts (see `_cover_counts`) and its
    knowledge set (sensed, held, and held by a neighbor).  Filled on demand:

    * `deficits`: the assets a robot may claim, per robot;
    * `donor_disk`: a donor's enclosing disk without one of its assets, per
      (donor, asset, seed);
    * `grown_disk`: a receiver's disk grown by one asset, per
      (receiver, asset);
    * `held_xy`: a robot's held assets as (x, y) float pairs, in ascending
      id, for the auction's bid bound (see `_bid_bound`).
    """

    def __init__(self, snapshot: WorldSnapshot):
        self.snapshot = snapshot
        self.params = snapshot.params
        self.assets = snapshot.assets
        self.robot = snapshot.robots  # robot ids are dense
        self.alive = [r for r in snapshot.robots if r.alive]
        self.alive_ids = [r.id for r in self.alive]
        self.nbrs = neighbor_map(snapshot)
        r_max = self.params.r_max
        r_max2 = r_max ** 2
        grid = CellGrid(r_max, ((a.pos, a) for a in self.assets))
        self.sensed: dict[int, set[int]] = {}
        for r in self.alive:
            px, py = r.pos.x, r.pos.y
            got = set()
            for a in grid.near(r.pos):
                dx = a.pos.x - px
                dy = a.pos.y - py
                if dx * dx + dy * dy <= r_max2:
                    got.add(a.id)
            self.sensed[r.id] = got
        self.cover = _cover_counts(snapshot, self.nbrs)
        # The counted assets are exactly those held by the robot or a neighbor.
        self.knowledge = {rid: self.sensed[rid].union(self.cover[rid]) for rid in self.alive_ids}
        self._deficits: dict[int, list[int]] = {}
        self._donor_disks: dict[tuple[int, int, int], Disk] = {}
        self._grown_disks: dict[tuple[int, int], Disk] = {}
        self._held_xy: dict[int, list[tuple[float, float]]] = {}

    def local_coverage(self, rid: int, asset_id: int) -> int:
        return self.cover[rid].get(asset_id, 0)

    def deficits(self, rid: int) -> list[int]:
        """Assets robot rid may claim, in ascending id: known, not held by
        rid, and counted below kappa in its neighborhood."""
        got = self._deficits.get(rid)
        if got is None:
            held = self.robot[rid].assigned
            counts = self.cover[rid]
            got = sorted(
                a for a in self.knowledge[rid] if a not in held and counts.get(a, 0) < self.assets[a].kappa
            )
            self._deficits[rid] = got
        return got

    def positions(self, assigned: Sequence[int]) -> list[Point]:
        return [self.assets[a].pos for a in assigned]

    def farthest_first(self, rid: int) -> list[int]:
        """Robot rid's assets, farthest from its center first, ties by id."""
        robot = self.robot[rid]
        return sorted(robot.assigned, key=lambda a: (-dist2(robot.pos, self.assets[a].pos), a))

    def donor_disk(self, donor: int, asset_id: int, seed: int) -> Disk:
        """Enclosing disk of the donor's assets other than asset_id."""
        key = (donor, asset_id, seed)
        got = self._donor_disks.get(key)
        if got is None:
            robot = self.robot[donor]
            got = consolidate(robot.pos, robot.assigned - {asset_id}, self.assets, seed)
            self._donor_disks[key] = got
        return got

    def grown_disk(self, receiver: int, asset_id: int) -> Disk:
        """The receiver's disk after adding asset_id (see _grow_disk)."""
        key = (receiver, asset_id)
        got = self._grown_disks.get(key)
        if got is None:
            got = _grow_disk(self, self.robot[receiver], asset_id)
            self._grown_disks[key] = got
        return got

    def held_xy(self, rid: int) -> list[tuple[float, float]]:
        got = self._held_xy.get(rid)
        if got is None:
            got = [(p.x, p.y) for p in self.positions(sorted(self.robot[rid].assigned))]
            self._held_xy[rid] = got
        return got


def _cover_counts(
    snapshot: WorldSnapshot, nbrs: Mapping[int, Sequence[int]]
) -> dict[int, dict[int, int]]:
    """Per alive robot, the membership cover count of every asset it or a
    neighbor holds: the number of holders among itself and its neighbors."""
    robots = snapshot.robots
    cover: dict[int, dict[int, int]] = {}
    for rid, near in nbrs.items():
        counts = dict.fromkeys(robots[rid].assigned, 1)
        for j in near:
            for p in robots[j].assigned:
                counts[p] = counts.get(p, 0) + 1
        cover[rid] = counts
    return cover


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
    robots move to the centroid of their cell, radius capped at r_max."""
    alive = [r for r in snapshot.robots if r.alive]
    r_max = snapshot.params.r_max
    grid = CellGrid(r_max, ((r.pos, r) for r in alive))
    cells: dict[int, list[int]] = {}
    for a in snapshot.assets:
        best: tuple[float, int] | None = None
        for r in grid.near(a.pos):
            d2 = dist2(r.pos, a.pos)
            if d2 <= r_max * r_max and (best is None or (d2, r.id) < best):
                best = (d2, r.id)
        if best is not None:
            cells.setdefault(best[1], []).append(a.id)
    proposals: dict[int, Proposal] = {}
    for r in alive:
        cell = cells.get(r.id)
        if not cell:
            proposals[r.id] = Proposal(r.pos, 0.0, frozenset())
            continue
        xs = sum(snapshot.assets[a].pos.x for a in cell)
        ys = sum(snapshot.assets[a].pos.y for a in cell)
        centroid = Point(xs / len(cell), ys / len(cell))
        maxd = max(dist(centroid, snapshot.assets[a].pos) for a in cell)
        proposals[r.id] = Proposal(centroid, min(maxd, r_max), frozenset(cell))
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


def consolidate(pos: Point, held: Iterable[int], assets: Sequence[Asset], seed: int = 0) -> Disk:
    """Minimum enclosing disk of the held assets, taken in ascending id; an
    empty set keeps `pos` with radius zero.  Callers are responsible for
    keeping the result within r_max."""
    return min_enclosing_disk_or([assets[a].pos for a in sorted(held)], pos, seed)


def _transition_plan(snapshot: WorldSnapshot, seed: int) -> dict[int, Proposal]:
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
        d = consolidate(r.pos, kept, snapshot.assets, seed)
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


def marginal_cost(snapshot: WorldSnapshot, rid: int, asset_id: int) -> float:
    """Extra disk area robot rid would pay to absorb the asset; INFEASIBLE
    (infinite) when the grown disk would exceed r_max."""
    view = _View(snapshot)
    robot = snapshot.robot(rid)
    if asset_id in robot.assigned:
        raise ValueError(f"asset {asset_id} is already assigned to robot {rid}")
    return _bid(view, robot, asset_id)


def _bid(view: _View, robot: RobotState, asset_id: int) -> float:
    d = _grow_disk(view, robot, asset_id)
    if d.radius > view.params.r_max:
        return INFEASIBLE
    return max(0.0, math.pi * (d.radius * d.radius - robot.radius * robot.radius))


def _bid_bound(view: _View, robot: RobotState, asset_id: int) -> float:
    # A lower bound on _bid(view, robot, asset_id) that solves no disk; robot
    # must be view.robot[robot.id].  A disk holding the asset and the held
    # asset `far` from it has radius at least far/2.  The solver accepts
    # points up to CONTAINMENT_TOL outside its disk, so its radius can fall
    # up to about that much below far/2 (tests/test_protocol.py has a
    # case): the absolute slack covers it, and the relative shrink covers
    # the rounding of the area formula.
    ppos = view.assets[asset_id].pos
    if not robot.assigned or dist(robot.pos, ppos) <= robot.radius + CONTAINMENT_TOL:
        return 0.0  # the exact bid is 0 here too
    ax, ay = ppos.x, ppos.y
    far2 = 0.0
    for x, y in view.held_xy(robot.id):
        dx = ax - x
        dy = ay - y
        d2 = dx * dx + dy * dy
        if d2 > far2:
            far2 = d2
    half = math.sqrt(far2) / 2.0 - 2.0 * CONTAINMENT_TOL
    if half > view.params.r_max + 2.0 * CONTAINMENT_TOL:
        return INFEASIBLE
    r = robot.radius
    if half <= r:
        return 0.0
    return math.pi * (half * half - r * r) * (1.0 - 1e-9)


def _tie_cut(best: float, eps: float) -> float:
    # Bids up to this value tie with the best bid.
    return best * (1.0 + eps) + 1e-12


def select_winner(asset_id: int, bids: Mapping[int, float], iteration: int, eps: float) -> Optional[int]:
    """Lowest-cost bidder; bids within a relative eps of the best tie and the
    tie is broken by the h64 hash.  Returns None when no bid is feasible."""
    feasible = {j: d for j, d in bids.items() if d != INFEASIBLE}
    if not feasible:
        return None
    cut = _tie_cut(min(feasible.values()), eps)
    tie = [j for j, d in feasible.items() if d <= cut]
    if len(tie) == 1:
        return tie[0]  # nothing to break: skip the hash
    return min(tie, key=lambda j: (h64(iteration, asset_id, j), j))


def phase2_round(snapshot: WorldSnapshot, cfg: Config) -> tuple[dict[int, Proposal], bool]:
    """One auction round.

    Every robot auctions each of its deficits (see `_View.deficits`) among
    itself and its neighbors and claims the asset when it wins its own
    auction.  The bidders of an auction are the robots of its group (the
    auctioneer and its neighbors) that know the asset and do not hold it.

    The auctions are decided asset by asset, in ascending id, and a bid is
    priced exactly (`_bid`, memoized per asset) only when it could still be
    its group's best or fall in the tie window.  Every candidate (a bidder
    in some auctioneer's group) gets a lower bound that solves no disk
    (`_bid_bound`), and the candidates are sorted once by (bound, id).  Each
    auctioneer walks that list over its group:

    * it prices bids in bound order until the next bound exceeds the best
      exact bid, which is then the group's best, since no later bid can
      undercut it; an infeasible best means no winner;
    * it loses at once if its own bound, or its own exact bid, is above the
      tie cut of the best (`_tie_cut`);
    * otherwise the group's exact bids up to the cut, priced among the
      entries whose bound is up to the cut, are exactly the bids
      `select_winner` would keep from the group's full bid dict, and only
      those reach it.

    So `select_winner` stays the one winner rule, sees the same best bid,
    cut and tie set as with every bid priced, and names the same winner.

    A robot's wins are grown into its disk one at a time, in ascending asset
    id (see `_grow_disk`); a win is skipped if stacking it onto the earlier
    wins would push the disk past r_max (it stays undercovered and is
    re-auctioned next round).
    """
    view = _View(snapshot)
    r_max = snapshot.params.r_max
    iteration = snapshot.round
    auctioneers: dict[int, list[int]] = {}
    for rid in view.alive_ids:
        for asset_id in view.deficits(rid):
            auctioneers.setdefault(asset_id, []).append(rid)
    groups: dict[int, set[int]] = {}

    wins: dict[int, list[int]] = {}
    for asset_id in sorted(auctioneers):
        # The candidates: every bidder in some auctioneer's group, the
        # auctioneers among them.
        near = set(auctioneers[asset_id]).union(*(view.nbrs[rid] for rid in auctioneers[asset_id]))
        bound = {
            j: _bid_bound(view, view.robot[j], asset_id)
            for j in near
            if asset_id in view.knowledge[j] and asset_id not in view.robot[j].assigned
        }
        # An infeasible bound means an infeasible bid, which never wins.
        ranked = sorted((b, j) for j, b in bound.items() if b != INFEASIBLE)
        price: dict[int, float] = {}

        def exact(j: int) -> float:
            got = price.get(j)
            if got is None:
                got = price[j] = _bid(view, view.robot[j], asset_id)
            return got

        for rid in auctioneers[asset_id]:
            group = groups.get(rid)
            if group is None:
                group = groups[rid] = {rid, *view.nbrs[rid]}
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
            if select_winner(asset_id, tie, iteration, cfg.eps) == rid:
                wins.setdefault(rid, []).append(asset_id)

    proposals: dict[int, Proposal] = {}
    for rid in sorted(wins):
        cur = view.robot[rid]
        for asset_id in wins[rid]:
            d = _grow_disk(view, cur, asset_id)
            if d.radius <= r_max:
                cur = replace(cur, pos=d.center, radius=d.radius, assigned=cur.assigned | {asset_id})
        if cur is not view.robot[rid]:
            proposals[rid] = Proposal(cur.pos, _finalize_radius(cur.radius, r_max), cur.assigned)
    return proposals, bool(proposals)


def has_undercovered_views(snapshot: WorldSnapshot) -> bool:
    """Does any robot see a deficit it could act on?  Deficits on assets a
    robot itself holds do not count: only additions close deficits, and a
    holder cannot add its own asset (a neighbor who could will see the same
    deficit through the holder's published list).  Diagnostic: views lag the
    true state, so this can stay true forever on assets whose covers sit
    outside the observer's communication range."""
    view = _View(snapshot)
    return any(view.deficits(rid) for rid in view.alive_ids)


def coverage_satisfied(snapshot: WorldSnapshot) -> bool:
    """Phase-2 completion test: every discovered asset has at least kappa
    distinct holders.

    Holders keep their assets inside their disks, and the swap and removal
    guards are holder-count based, so once this holds the geometric coverage
    requirement holds too and survives the later phases.  The test is
    evaluated omnisciently by the run scheduler: robots cannot detect global
    completion from local state, and their views keep flagging covered
    assets whose holders sit outside communication range.  Assets no robot
    senses or holds are undiscovered; they do not block completion and are
    surfaced through the metrics instead.
    """
    alive = [r for r in snapshot.robots if r.alive]
    holders = Counter()
    for r in alive:
        holders.update(r.assigned)
    r_max2 = snapshot.params.r_max ** 2
    for a in snapshot.assets:
        got = holders[a.id]
        if got >= a.kappa:
            continue
        if got > 0:
            return False
        if any(dist2(r.pos, a.pos) <= r_max2 for r in alive):
            return False
    return True


def holders_certified(snapshot: WorldSnapshot) -> bool:
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
    """
    cover = _cover_counts(snapshot, neighbor_map(snapshot))
    assets = snapshot.assets
    return all(
        counts[a] >= assets[a].kappa for rid, counts in cover.items() for a in snapshot.robots[rid].assigned
    )


def fallback_assign(snapshot: WorldSnapshot, cfg: Config, seed: int = 0) -> tuple[dict[int, Proposal], bool]:
    """Direct assignment when the auctions stall.

    In every connected component of the communication graph, the robot with
    the largest spare capacity (r_max - r_i) among those that still have a
    deficit (see `_View.deficits`) takes its nearest one; if the grown
    disk would exceed r_max it first releases its own locally overcovered
    assets farthest-first, one at a time, retrying after each.
    """
    view = _View(snapshot)
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
        counts = view.cover[actor]
        keep = sorted(robot.assigned)
        releasable = [q for q in view.farthest_first(actor) if counts.get(q, 0) - 1 >= view.assets[q].kappa]
        rel_idx = 0
        while True:
            d = min_enclosing_disk(view.positions(keep) + [tpos], seed)
            if d.radius <= r_max:
                assigned = frozenset(keep) | {target}
                proposals[actor] = Proposal(d.center, _finalize_radius(d.radius, r_max), assigned)
                break
            if rel_idx >= len(releasable):
                break  # this component is stuck for now
            keep.remove(releasable[rel_idx])
            rel_idx += 1
    return proposals, bool(proposals)


def evaluate_swap(
    snapshot: WorldSnapshot, donor: int, receiver: int, asset_id: int, cfg: Config, seed: int = 0
) -> SwapDecision:
    """Would handing the asset from donor to receiver pay off?

    Accepts when the receiver is closer, the asset sits near the donor's rim,
    the donor's local view keeps the asset covered after the transfer, the
    receiver's grown disk stays within r_max, and the pairwise area drops by
    more than the tau fraction.
    """
    view = _View(snapshot)
    di = view.robot[donor]
    dj = view.robot[receiver]
    if asset_id not in di.assigned:
        raise ValueError(f"asset {asset_id} is not assigned to robot {donor}")
    if receiver not in view.nbrs.get(donor, ()):
        raise ValueError(f"robots {donor} and {receiver} are not neighbors")
    dec = _evaluate_swap(view, donor, receiver, asset_id, cfg, seed)
    return dec if dec is not None else SwapDecision(False, 0.0, di.pos, di.radius, dj.pos, dj.radius)


def _evaluate_swap(
    view: _View, donor: int, receiver: int, asset_id: int, cfg: Config, seed: int
) -> Optional[SwapDecision]:
    # The accepted decision, or None for a rejection; the donor must hold the
    # asset and the receiver must be its neighbor.
    di = view.robot[donor]
    dj = view.robot[receiver]
    ppos = view.assets[asset_id].pos
    to_donor = dist(ppos, di.pos)
    if not dist(ppos, dj.pos) < to_donor:
        return None
    if not to_donor > cfg.boundary_factor * di.radius:
        return None
    held_by_receiver = asset_id in dj.assigned
    if view.local_coverage(donor, asset_id) - (1 if held_by_receiver else 0) < view.assets[asset_id].kappa:
        return None
    donor_after = view.donor_disk(donor, asset_id, seed)
    if held_by_receiver:
        recv_after = Disk(dj.pos, dj.radius)
    else:
        recv_after = view.grown_disk(receiver, asset_id)
        if recv_after.radius > view.params.r_max:
            return None
    before = math.pi * (di.radius ** 2 + dj.radius ** 2)
    after = math.pi * (donor_after.radius ** 2 + recv_after.radius ** 2)
    if before - after <= cfg.tau * before:
        return None
    return SwapDecision(
        True,
        before - after,
        donor_after.center,
        _finalize_radius(donor_after.radius, view.params.r_max),
        recv_after.center,
        _finalize_radius(recv_after.radius, view.params.r_max),
    )


def swap_round(
    snapshot: WorldSnapshot, cfg: Config, seed: int = 0
) -> tuple[dict[int, Proposal], bool, tuple[SwapRecord, ...]]:
    """One sweep over neighbor pairs in (min id, max id) order.

    Per pair both orientations are scanned (donor assets farthest from the
    donor's center first) and the first acceptable transfer of each
    orientation competes on area reduction.  A robot participates in at most
    one transfer per sweep and an asset moves at most once per sweep, which
    keeps the concurrently applied transfers coverage-safe.
    """
    view = _View(snapshot)
    pairs = sorted(
        {(min(i, j), max(i, j)) for i in view.alive_ids for j in view.nbrs[i]}
    )
    # Each donor's assets in scan order, less those no receiver can take:
    # the rim test and the donor's own cover >= kappa test depend on the
    # (donor, asset) pair alone, so dropping the assets that fail them
    # cannot change which transfer is accepted first.
    candidates: dict[int, list[int]] = {}
    for rid in view.alive_ids:
        dr = view.robot[rid]
        rim = cfg.boundary_factor * dr.radius
        candidates[rid] = [
            a
            for a in view.farthest_first(rid)
            if dist(view.assets[a].pos, dr.pos) > rim and view.local_coverage(rid, a) >= view.assets[a].kappa
        ]

    used_robots: set[int] = set()
    used_assets: set[int] = set()
    proposals: dict[int, Proposal] = {}
    records: list[SwapRecord] = []
    for i, j in pairs:
        if i in used_robots or j in used_robots:
            continue
        best: tuple[float, int, int, int, SwapDecision] | None = None
        for donor, receiver in ((i, j), (j, i)):
            for asset_id in candidates[donor]:
                if asset_id in used_assets:
                    continue
                dec = _evaluate_swap(view, donor, receiver, asset_id, cfg, seed)
                if dec is not None:
                    if best is None or dec.reduction > best[0]:
                        best = (dec.reduction, donor, receiver, asset_id, dec)
                    break
        if best is None:
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


def phase3_round(
    snapshot: WorldSnapshot, cfg: Config, seed: int = 0
) -> tuple[dict[int, Proposal], bool]:
    """One guarded removal round.

    Each robot builds a removal intent set greedily (farthest asset first,
    only removals that strictly shrink its disk, only assets its local view
    shows overcovered).  An intent executes unless the surviving cover count,
    discounted by intending neighbors with lower h64 priority, would fall
    below kappa; the hash ordering lets exactly the right subset proceed when
    neighbors contend for the same slack.
    """
    view = _View(snapshot)
    r_max = snapshot.params.r_max
    rnd = snapshot.round
    intents: dict[int, list[int]] = {}
    for rid in view.alive_ids:
        robot = view.robot[rid]
        if not robot.assigned:
            continue
        counts = view.cover[rid]
        keep = set(robot.assigned)
        r_cur = robot.radius
        intent: list[int] = []
        for asset_id in view.farthest_first(rid):
            if counts.get(asset_id, 0) - 1 < view.assets[asset_id].kappa:
                continue
            trial = consolidate(robot.pos, keep - {asset_id}, view.assets, seed)
            if trial.radius < r_cur:
                intent.append(asset_id)
                keep.remove(asset_id)
                r_cur = trial.radius
        if intent:
            intents[rid] = intent

    proposals: dict[int, Proposal] = {}
    for rid in sorted(intents):
        robot = view.robot[rid]
        counts = view.cover[rid]
        my_keys = {a: (h64(rnd, a, rid), rid) for a in intents[rid]}
        removed: list[int] = []
        for asset_id in intents[rid]:
            contenders = sum(
                1
                for j in view.nbrs[rid]
                if asset_id in intents.get(j, ()) and (h64(rnd, asset_id, j), j) < my_keys[asset_id]
            )
            if counts.get(asset_id, 0) - 1 - contenders >= view.assets[asset_id].kappa:
                removed.append(asset_id)
        if not removed:
            continue
        assigned = robot.assigned - frozenset(removed)
        d = consolidate(robot.pos, assigned, view.assets, seed)
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
    records, and wall-clock milestones.

    `seed` orders the point shuffle of every enclosing-disk solve.  On
    near-degenerate input that order can change a disk's bits (see
    `geometry.min_enclosing_disk`), so the seed can change the output; on
    the benchmark missions and the golden tests it moves only the running
    time.
    """
    cfg = config if config is not None else Config()
    t0 = time.perf_counter()
    params = Params.from_instance(instance)
    shape = grid_partition(params.m, cfg.lam)
    starts = initial_positions(params.m, params.workspace, shape)
    robots = tuple(RobotState(i, starts[i], 0.0, frozenset(), True) for i in range(params.m))
    pending = sorted(events, key=lambda e: e.at_round)
    snapshot = WorldSnapshot(0, Phase.EXPLORE, robots, instance.assets, params)
    pre_event: list[tuple[int, WorldSnapshot]] = []
    due0 = [e for e in pending if e.at_round == 0]
    if due0:
        pre_event.append((0, snapshot))
        snapshot = apply_events(snapshot, due0)
        pending = [e for e in pending if e.at_round > 0]
    trace: list[RoundMetrics] = [summarize(snapshot)]
    swaps: list[SwapRecord] = []

    def advance(plan: dict[int, Proposal], phase: Phase) -> None:
        nonlocal snapshot, pending
        due = [e for e in pending if e.at_round == snapshot.round + 1]
        if due:
            pre_event.append((snapshot.round + 1, snapshot))
            pending = [e for e in pending if e.at_round != snapshot.round + 1]
        new_snapshot, rm = step(snapshot, plan, due, next_phase=phase)
        snapshot = new_snapshot
        trace.append(rm)

    # Phase 1: Lloyd iterations until displacements settle, then lock disks.
    for _ in range(cfg.max_iters_phase1):
        prev = snapshot
        advance(lloyd_round(snapshot), Phase.EXPLORE)
        if phase1_converged(prev, snapshot, cfg.tol):
            break
    advance(_transition_plan(snapshot, seed), Phase.OPTIMIZE)

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
            if coverage_satisfied(snapshot) and holders_certified(snapshot):
                break
            plan, progress = phase2_round(snapshot, cfg)
            if not progress:
                plan, progress = fallback_assign(snapshot, cfg, seed)
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
        while coverage_satisfied(snapshot):
            acted = False
            while sweep_budget > 0:
                plan, progress, records = swap_round(snapshot, cfg, seed)
                if not progress:
                    break
                swaps.extend(records)
                advance(plan, Phase.REFINE)
                sweep_budget -= 1
                acted = True
            if not coverage_satisfied(snapshot):
                break
            while removal_budget > 0:
                plan, progress = phase3_round(snapshot, cfg, seed)
                if not progress:
                    break
                advance(plan, Phase.REFINE)
                removal_budget -= 1
                acted = True
            if not acted:
                break

        # Re-optimize when an event during the later stages reopened coverage,
        # or after idling forward to the next scheduled event.
        if coverage_satisfied(snapshot):
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
