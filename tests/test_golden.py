"""Golden outputs: two small missions must reproduce recorded fingerprints.

The fingerprint is the sha256 of the bytes `metrics.write_trace` writes,
followed by the JSON of the final robot states (id, position, radius,
sorted assigned ids, alive), the same digest the mission benchmark
computes.  A change that moves either value changes the simulator's
behaviour, not just its speed.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from swarmcover.engine import AddAssets, AssetSpec, Event, KillRobot
from swarmcover.geometry import Point
from swarmcover.instances import Instance, Workspace, generate_uniform
from swarmcover.metrics import write_trace
from swarmcover.protocol import Config, RunStatus, run

# The 250-asset / 50-robot rung of the benchmark ladder at seed 0.
LADDER_250_FINGERPRINT = "56f18d46d6ae13d0644fbcb2e81cd7ad4c3a6548eb9d99dd2f3d4ed09da59715"
# The event mission of test_run.py::test_dynamic_events_add_and_kill.
EVENT_MISSION_FINGERPRINT = "51f8d3697bfc9c11e2248bcbb832d07f62b6b61425b77286669d8a8e2a430c7a"


def fingerprint(result, tmp_path) -> str:
    path = tmp_path / "trace.csv"
    write_trace(path, result.trace)
    h = hashlib.sha256(path.read_bytes())
    state = [(r.id, r.pos.x, r.pos.y, r.radius, sorted(r.assigned), r.alive) for r in result.snapshot.robots]
    h.update(json.dumps(state).encode())
    return h.hexdigest()


def ladder_250() -> Instance:
    ws = Workspace(0.0, 100.0, 0.0, 100.0)
    return Instance(ws, tuple(generate_uniform(250, ws, (1, 2, 3), 0)), 50, 55.0, 40.0)


def test_ladder_250_fingerprint(tmp_path):
    res = run(ladder_250(), Config(), (), 0)
    assert res.status is RunStatus.FEASIBLE
    assert fingerprint(res, tmp_path) == LADDER_250_FINGERPRINT


@pytest.mark.parametrize("seed", [1, 7])
def test_run_seed_changes_no_output(seed, tmp_path):
    # The run seed only orders the shuffle inside the enclosing-disk solver,
    # whose disk does not depend on that order.
    res = run(ladder_250(), Config(), (), seed)
    assert fingerprint(res, tmp_path) == LADDER_250_FINGERPRINT


def test_event_mission_fingerprint(tmp_path):
    ws = Workspace(0.0, 60.0, 0.0, 60.0)
    inst = Instance(ws, tuple(generate_uniform(12, ws, (1, 2), 5)), 6, 55.0, 40.0)
    events = (
        Event(40, AddAssets((AssetSpec(Point(5.0, 5.0), 1), AssetSpec(Point(6.0, 4.0), 2)))),
        Event(60, KillRobot(0)),
    )
    res = run(inst, events=events, seed=1)
    assert res.status is RunStatus.FEASIBLE
    assert fingerprint(res, tmp_path) == EVENT_MISSION_FINGERPRINT
