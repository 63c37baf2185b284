"""Synchronous round engine: immutable world snapshots, the communication
neighbor map, event injection, and the deterministic step cycle.

A round takes one plan: the proposals of the alive robots that act, all
decided against the same frozen snapshot.  The engine merges them in
ascending robot id, applies the events due at the new round number, and
publishes the next snapshot together with its metrics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .geometry import Point, dist, sq_dist_blocks
from .instances import Asset, Instance, Workspace, _integer
from .metrics import CoverTally, RoundMetrics, summarize


class Phase(Enum):
    EXPLORE = "explore"
    OPTIMIZE = "optimize"
    REFINE = "refine"


@dataclass(frozen=True)
class Params:
    """Instance parameters carried along with every snapshot."""

    workspace: Workspace
    m: int
    r_comm: float
    r_max: float

    @classmethod
    def from_instance(cls, instance: Instance) -> "Params":
        return cls(instance.workspace, instance.m, instance.r_comm, instance.r_max)


@dataclass(frozen=True)
class RobotState:
    id: int
    pos: Point
    radius: float
    assigned: frozenset[int]
    alive: bool


@dataclass(frozen=True)
class AssetSpec:
    """An asset waiting to be injected; its id is assigned on application."""

    pos: Point
    kappa: int

    def __post_init__(self) -> None:
        _integer(self.kappa, "kappa", least=1)


@dataclass(frozen=True)
class AddAssets:
    assets: tuple[AssetSpec, ...]


@dataclass(frozen=True)
class KillRobot:
    robot_id: int

    def __post_init__(self) -> None:
        _integer(self.robot_id, "robot id", least=0)


@dataclass(frozen=True)
class Event:
    at_round: int
    action: AddAssets | KillRobot

    def __post_init__(self) -> None:
        # A round that is no integer never comes up, and the run would wait
        # for it forever.
        _integer(self.at_round, "event round", least=0)


@dataclass(frozen=True)
class Proposal:
    """A robot's requested next state: new disk plus new assigned set."""

    pos: Point
    radius: float
    assigned: frozenset[int]


@dataclass(frozen=True)
class WorldSnapshot:
    """Immutable world state at the start of a round.

    Robots are ordered by id; asset ids are dense, so assets[i].id == i.
    """

    round: int
    phase: Phase
    robots: tuple[RobotState, ...]
    assets: tuple[Asset, ...]
    params: Params

    def robot(self, rid: int) -> RobotState:
        r = self.robots[rid]
        if r.id != rid:
            raise KeyError(f"no robot with id {rid}")
        return r


def neighbor_map(snapshot: WorldSnapshot) -> dict[int, tuple[int, ...]]:
    """Neighbor ids (sorted) for every alive robot: the other alive robots
    within r_comm, by the squared-distance test of `sq_dist_blocks`."""
    alive = [r for r in snapshot.robots if r.alive]
    ids = [r.id for r in alive]
    xs = np.array([r.pos.x for r in alive], dtype=np.float64)
    ys = np.array([r.pos.y for r in alive], dtype=np.float64)
    thr2 = snapshot.params.r_comm ** 2
    nbrs: dict[int, tuple[int, ...]] = {}
    for start, _, d2 in sq_dist_blocks(xs, ys, xs, ys):
        for i, row in enumerate(d2 <= thr2, start):
            nbrs[ids[i]] = tuple([ids[j] for j in np.flatnonzero(row).tolist() if j != i])
    return nbrs


def check_events(events: Iterable[Event], instance: Instance) -> None:
    """Raise ValueError for an event that cannot apply to `instance`: a
    killed robot id outside 0..m-1 or a new asset outside the workspace.
    Events are named by their position in `events`."""
    for i, ev in enumerate(events):
        if isinstance(ev.action, KillRobot):
            rid = ev.action.robot_id
            if rid >= instance.m:
                raise ValueError(f"event {i}: robot_id {rid} is not in 0..{instance.m - 1}")
            continue
        for k, spec in enumerate(ev.action.assets):
            if not instance.workspace.contains(spec.pos):
                raise ValueError(f"event {i} asset {k} at ({spec.pos.x}, {spec.pos.y}) lies outside the workspace")


def apply_events(snapshot: WorldSnapshot, events: Iterable[Event]) -> WorldSnapshot:
    """Apply events to a snapshot without advancing the round counter.

    New assets receive the next dense ids in payload order; killing a robot
    marks it dead and empties its assignment."""
    robots = list(snapshot.robots)
    assets = snapshot.assets
    for ev in events:
        if isinstance(ev.action, AddAssets):
            base = len(assets)
            assets = assets + tuple(
                Asset(base + k, spec.pos, spec.kappa) for k, spec in enumerate(ev.action.assets)
            )
        else:
            rid = ev.action.robot_id
            if 0 <= rid < len(robots) and robots[rid].alive:
                robots[rid] = replace(robots[rid], alive=False, radius=0.0, assigned=frozenset())
    if robots == list(snapshot.robots) and assets is snapshot.assets:
        return snapshot
    return replace(snapshot, robots=tuple(robots), assets=assets)


def step(
    snapshot: WorldSnapshot,
    plan: Mapping[int, Proposal],
    events: Sequence[Event] = (),
    *,
    next_phase: Optional[Phase] = None,
    tally: Optional[CoverTally] = None,
) -> tuple[WorldSnapshot, RoundMetrics]:
    """Advance the world by one round.

    `plan` maps alive robot ids to their proposals, all decided against
    `snapshot`; robots without an entry stand pat.  Proposals are merged in
    ascending robot id, due events are applied, and the new snapshot is
    published with its metrics (see `metrics.summarize`).  A carried
    `tally` is advanced to the new snapshot; without one the metrics are
    counted from scratch, with the same result.  An entry for a dead or
    unknown robot, with a radius that is negative or not finite, or with
    an asset id outside 0..n-1 raises ValueError.
    """
    robots = list(snapshot.robots)
    n = len(snapshot.assets)
    max_disp = 0.0
    for rid in sorted(plan):
        if not (0 <= rid < len(robots) and robots[rid].alive):
            raise ValueError(f"plan has an entry for robot {rid}, which is not alive")
        prop = plan[rid]
        if not 0.0 <= prop.radius < math.inf:
            raise ValueError(f"plan gives robot {rid} radius {prop.radius}, which is not a finite radius >= 0")
        if prop.assigned:
            lo, hi = min(prop.assigned), max(prop.assigned)
            if lo < 0 or hi >= n:
                raise ValueError(f"plan assigns robot {rid} asset {lo if lo < 0 else hi}, which is not in 0..{n - 1}")
        old = robots[rid]
        max_disp = max(max_disp, dist(old.pos, prop.pos))
        robots[rid] = RobotState(old.id, prop.pos, prop.radius, prop.assigned, old.alive)
    merged = replace(
        snapshot,
        round=snapshot.round + 1,
        phase=next_phase if next_phase is not None else snapshot.phase,
        robots=tuple(robots),
    )
    merged = apply_events(merged, events)
    return merged, summarize(merged, max_displacement=max_disp, tally=tally)
