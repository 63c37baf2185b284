"""Shared builders for hand-constructed world states."""

from __future__ import annotations

from typing import Iterable, Sequence

import pytest
from hypothesis import settings

from swarmcover.engine import Params, Phase, RobotState, WorldSnapshot
from swarmcover.geometry import Point
from swarmcover.instances import Asset, Instance, Workspace

# CI keeps no example database (`.hypothesis/`) between runs, so a failure
# prints the blob that `@reproduce_failure` replays: the one record of a
# counterexample that a random run found.
settings.register_profile("print-blob", print_blob=True)
settings.load_profile("print-blob")


def P(x: float, y: float) -> Point:
    return Point(float(x), float(y))


def mkassets(rows: Sequence[tuple[float, float, int]]) -> tuple[Asset, ...]:
    """rows of (x, y, kappa); ids are assigned densely in order."""
    return tuple(Asset(i, P(x, y), k) for i, (x, y, k) in enumerate(rows))


def mkrobot(
    rid: int,
    x: float,
    y: float,
    assigned: Iterable[int] = (),
    radius: float = 0.0,
    alive: bool = True,
) -> RobotState:
    return RobotState(rid, P(x, y), float(radius), frozenset(assigned), alive)


def mksnapshot(
    robots: Sequence[RobotState],
    assets: Sequence[Asset],
    r_comm: float = 55.0,
    r_max: float = 40.0,
    workspace: Workspace | None = None,
    round_: int = 0,
    phase: Phase = Phase.OPTIMIZE,
) -> WorldSnapshot:
    ws = workspace or Workspace(0.0, 100.0, 0.0, 100.0)
    params = Params(ws, len(robots), float(r_comm), float(r_max))
    return WorldSnapshot(round_, phase, tuple(robots), tuple(assets), params)


@pytest.fixture
def square_workspace() -> Workspace:
    return Workspace(0.0, 100.0, 0.0, 100.0)


def small_instance(
    rows: Sequence[tuple[float, float, int]],
    m: int,
    r_comm: float = 55.0,
    r_max: float = 40.0,
    side: float = 100.0,
) -> Instance:
    ws = Workspace(0.0, side, 0.0, side)
    return Instance(ws, mkassets(rows), m, float(r_comm), float(r_max))
