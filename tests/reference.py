"""Brute-force references the tests compare the program against.

Each one answers a question the program answers through a cell grid or the
round's carried view, but from its definition: an all-pairs scan, or a
fresh `_View` built for a single query.  No program code calls them.
"""

from __future__ import annotations

from typing import Sequence

from swarmcover.engine import RobotState, WorldSnapshot
from swarmcover.geometry import CONTAINMENT_TOL, Point
from swarmcover.instances import Asset
from swarmcover.protocol import Config, SwapDecision, _bid, _evaluate_swap, _View


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


def marginal_cost(snapshot: WorldSnapshot, rid: int, asset_id: int) -> float:
    """Extra disk area robot rid would pay to absorb the asset, its auction
    bid; INFEASIBLE (infinite) when the grown disk would exceed r_max."""
    view = _View(snapshot)
    robot = snapshot.robot(rid)
    if asset_id in robot.assigned:
        raise ValueError(f"asset {asset_id} is already assigned to robot {rid}")
    return _bid(view, robot, asset_id)


def evaluate_swap(snapshot: WorldSnapshot, donor: int, receiver: int, asset_id: int, cfg: Config) -> SwapDecision:
    """The swap sweep's verdict on handing the asset from donor to receiver
    (see `protocol._evaluate_swap`), judged on a fresh view; a rejection
    leaves both robots as they are."""
    view = _View(snapshot)
    di = view.robot[donor]
    dj = view.robot[receiver]
    if asset_id not in di.assigned:
        raise ValueError(f"asset {asset_id} is not assigned to robot {donor}")
    if receiver not in view.nbrs.get(donor, ()):
        raise ValueError(f"robots {donor} and {receiver} are not neighbors")
    dec = _evaluate_swap(view, donor, receiver, asset_id, cfg)
    return dec if dec is not None else SwapDecision(False, 0.0, di.pos, di.radius, dj.pos, dj.radius)
