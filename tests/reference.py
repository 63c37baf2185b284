"""Brute-force references the tests compare the program against.

Each one answers a question the program answers through a blocked NumPy
distance scan, the round's carried view, the carried cover tally or a
vectorized pass, but from its definition: a scalar loop over every pair,
a fresh `_View` built for a single query, or a recount of a whole
snapshot.  No program code calls them.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Mapping, Optional, Sequence

import numpy as np

from swarmcover.engine import RobotState, WorldSnapshot
from swarmcover.geometry import CONTAINMENT_TOL, Disk, Point, dist, dist2
from swarmcover.instances import Asset
from swarmcover.metrics import RoundMetrics, total_cost
from swarmcover.protocol import (
    INFEASIBLE,
    Config,
    SwapDecision,
    _bid,
    _count_dtype,
    _finalize_radius,
    _grow_disk,
    _ids,
    _View,
    consolidate,
)


def sense(robot: RobotState, assets: Sequence[Asset], r_max: float) -> set[int]:
    """Ids of assets within the closed sensing ball of radius r_max."""
    thr2 = r_max * r_max
    px, py = robot.pos.x, robot.pos.y
    out = set()
    for a in assets:
        dx = a.pos.x - px
        dy = a.pos.y - py
        if dx * dx + dy * dy <= thr2:
            out.add(a.id)
    return out


def neighbors(snapshot: WorldSnapshot, rid: int) -> set[int]:
    """Alive robots within r_comm of alive robot rid (excluding itself)."""
    me = snapshot.robot(rid)
    if not me.alive:
        raise ValueError(f"robot {rid} is not alive")
    thr2 = snapshot.params.r_comm ** 2
    out = set()
    for r in snapshot.robots:
        if r.id == rid or not r.alive:
            continue
        dx = r.pos.x - me.pos.x
        dy = r.pos.y - me.pos.y
        if dx * dx + dy * dy <= thr2:
            out.add(r.id)
    return out


def coverage_count(snapshot: WorldSnapshot, p: Point) -> int:
    """Number of alive robots whose disk contains p (closed, with the
    standard containment slack)."""
    n = 0
    for r in snapshot.robots:
        if not r.alive:
            continue
        thr = r.radius + CONTAINMENT_TOL
        dx = r.pos.x - p.x
        dy = r.pos.y - p.y
        if dx * dx + dy * dy <= thr * thr:
            n += 1
    return n


def summarize(snapshot: WorldSnapshot, max_displacement: float = 0.0) -> RoundMetrics:
    """The round metrics of a snapshot recounted from scratch: every
    asset's cover count by `coverage_count`, and the union of the alive
    robots' assigned sets; what `metrics.summarize` reads from its carried
    tally."""
    alive = [r for r in snapshot.robots if r.alive]
    counts = [(coverage_count(snapshot, a.pos), a.kappa) for a in snapshot.assets]
    under = sum(1 for c, k in counts if c < k)
    over = sum(1 for c, k in counts if c > k)
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


def coverage_satisfied(snapshot: WorldSnapshot) -> bool:
    """Every discovered asset has at least kappa distinct holders, from the
    snapshot alone: the holders counted over the alive robots' assigned
    sets, and each asset none of them holds sensed by scanning every alive
    robot; what `protocol.coverage_satisfied` reads from the view."""
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


def cover_counts(snapshot: WorldSnapshot, nbrs: Mapping[int, Sequence[int]]) -> np.ndarray:
    """The membership cover counts, a row per robot id and a column per
    asset id: the number of holders of the asset among the robot and its
    neighbors (0 in a dead robot's row).  Since the neighbor relation is
    symmetric, each alive robot adds 1 at the rows of itself and its
    neighbors and the columns of its assets, in one `np.ix_` block; what
    `_View.update` patches by deltas."""
    robots = snapshot.robots
    cover = np.zeros((len(robots), len(snapshot.assets)), dtype=_count_dtype(len(robots)))
    for rid, near in nbrs.items():
        held = robots[rid].assigned
        if held:
            cover[np.ix_([rid, *near], _ids(held))] += 1
    return cover


def releasable(view: _View, rid: int) -> list[int]:
    """Robot rid's held assets, farthest first, that its cover counts still
    show at kappa without it: the filter that `_View.releasable` reads
    against `_View.need`."""
    return [q for q in view.farthest_first(rid) if view.local_coverage(rid, q) - 1 >= view.assets[q].kappa]


def marginal_cost(snapshot: WorldSnapshot, rid: int, asset_id: int) -> float:
    """Extra disk area robot rid would pay to absorb the asset, its auction
    bid; INFEASIBLE (infinite) when the grown disk would exceed r_max."""
    view = _View(snapshot)
    robot = snapshot.robot(rid)
    if asset_id in robot.assigned:
        raise ValueError(f"asset {asset_id} is already assigned to robot {rid}")
    return _bid(view, robot, asset_id)[0]


def auction_candidates(snapshot: WorldSnapshot) -> tuple[dict[int, list[int]], dict[int, set[int]]]:
    """The round's auctions listed asset by asset, on a fresh view: each
    asset's auctioneers, the robots that count it a deficit, in ascending
    id, and its candidates, every robot in an auctioneer's group (the
    auctioneer and its neighbors) that knows the asset and does not hold
    it; the listing that `protocol._auction_candidates` makes robot by
    robot.  The candidates are keyed by asset in ascending id."""
    view = _View(snapshot)
    auctioneers: dict[int, list[int]] = {}
    for rid in view.alive_ids:
        for asset_id in view.deficits(rid):
            auctioneers.setdefault(asset_id, []).append(rid)
    candidates: dict[int, set[int]] = {}
    for asset_id in sorted(auctioneers):
        near = set(auctioneers[asset_id]).union(*(view.nbrs[rid] for rid in auctioneers[asset_id]))
        candidates[asset_id] = {
            j for j in near if view.known(j)[asset_id] and asset_id not in view.robot[j].assigned
        }
    return auctioneers, candidates


def bid_bound(view: _View, robot: RobotState, asset_id: int) -> float:
    """The auction's lower bound on one bid, one pair at a time: the scalar
    loop that `protocol._bid_bounds` computes for a whole round at once."""
    # A lower bound on _bid(view, robot, asset_id) that solves no disk; robot
    # must be view.robot[robot.id].  A disk holding the asset and the held
    # asset `far` from it has radius at least far/2.  The solver accepts
    # points up to CONTAINMENT_TOL outside its disk, so its radius can fall
    # up to about that much below far/2 (tests/test_protocol.py has a
    # case): the absolute slack covers it, and the relative shrink covers
    # the rounding of the area formula.  The far/2 argument needs the grown
    # disk to hold the robot's assets, which `enclose_with_anchor`
    # guarantees.
    ppos = view.assets[asset_id].pos
    if not robot.assigned or dist(robot.pos, ppos) <= robot.radius + CONTAINMENT_TOL:
        return 0.0  # the exact bid is 0 here too
    ax, ay = ppos.x, ppos.y
    far2 = 0.0
    xs, ys = view.bound_xy(robot.id)
    for x, y in zip(xs.tolist(), ys.tolist()):
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


def evaluate_swap(
    snapshot: WorldSnapshot, donor: int, receiver: int, asset_id: int, cfg: Config
) -> Optional[SwapDecision]:
    """The swap sweep's verdict on handing the asset from donor to receiver,
    judged on a fresh view with both disks always solved: the closer, rim
    and coverage tests, then the receiver's grown disk and its r_max test,
    then the tau test on the two solved radii.  `protocol._evaluate_swap`
    tries lower bounds on both radii before it solves either disk (see its
    docstring), which must leave every verdict as this one.  The accepted
    decision, or None for a rejection."""
    view = _View(snapshot)
    if asset_id not in view.robot[donor].assigned:
        raise ValueError(f"asset {asset_id} is not assigned to robot {donor}")
    if receiver not in view.nbrs.get(donor, ()):
        raise ValueError(f"robots {donor} and {receiver} are not neighbors")
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
    donor_after = consolidate(di.pos, di.assigned - {asset_id}, view.assets)
    if held_by_receiver:
        recv_after = Disk(dj.pos, dj.radius)
    else:
        recv_after = _grow_disk(view, dj, asset_id)
        if recv_after.radius > view.params.r_max:
            return None
    before = math.pi * (di.radius ** 2 + dj.radius ** 2)
    after = math.pi * (donor_after.radius ** 2 + recv_after.radius ** 2)
    if before - after <= cfg.tau * before:
        return None
    return SwapDecision(
        before - after,
        donor_after.center,
        _finalize_radius(donor_after.radius, view.params.r_max),
        recv_after.center,
        _finalize_radius(recv_after.radius, view.params.r_max),
    )
