"""Synchronous world engine: sensing, neighborhoods, events, round stepping.

Sensing is checked through the round's view, and both it and the neighbor
map against the brute-force references in `reference.py`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcover.engine import (
    AddAssets,
    AssetSpec,
    Event,
    KillRobot,
    Phase,
    Proposal,
    apply_events,
    neighbor_map,
    step,
)
from swarmcover.geometry import Point, dist
from swarmcover.instances import Asset
from swarmcover.protocol import _View

from conftest import P, mkassets, mkrobot, mksnapshot
from reference import neighbors, sense


def test_sense_closed_ball():
    assets = mkassets([(10, 0, 1), (10.0001, 0, 1), (0, -10, 1), (3, 4, 1)])
    r = mkrobot(0, 0, 0)
    assert sense(r, assets, 10.0) == {0, 2, 3}
    sensed = _View(mksnapshot([r], assets, r_max=10.0)).sensed
    assert (sensed.shape, sensed.dtype) == ((1, 4), bool)
    assert sensed.tolist() == [[True, False, True, True]]


def test_neighbors_closed_ball_excludes_self_and_dead():
    snap = mksnapshot(
        [
            mkrobot(0, 0, 0),
            mkrobot(1, 30, 0),
            mkrobot(2, 30.0001, 0),
            mkrobot(3, 15, 0, alive=False),
        ],
        mkassets([(1, 1, 1)]),
        r_comm=30.0,
    )
    assert neighbors(snap, 0) == {1}
    assert neighbors(snap, 1) == {0, 2}
    assert neighbor_map(snap) == {0: (1,), 1: (0, 2), 2: (1,)}
    with pytest.raises(ValueError):
        neighbors(snap, 3)


@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.floats(min_value=0, max_value=100, allow_nan=False),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
    st.floats(min_value=1.0, max_value=120.0, allow_nan=False),
)
@settings(max_examples=120, deadline=None)
def test_neighbor_map_symmetric_and_matches_pairwise(layout, r_comm):
    robots = [mkrobot(i, x, y, alive=alive) for i, (x, y, alive) in enumerate(layout)]
    snap = mksnapshot(robots, mkassets([(1, 1, 1)]), r_comm=r_comm)
    nm = neighbor_map(snap)
    assert set(nm) == {r.id for r in robots if r.alive}
    for rid, nbrs in nm.items():
        assert set(nbrs) == neighbors(snap, rid)
        for j in nbrs:
            assert rid in nm[j]
            assert dist(robots[rid].pos, robots[j].pos) <= r_comm


def test_knowledge_set_matches_naive_union():
    snap = mksnapshot(
        [
            mkrobot(0, 0, 0, assigned={5}),
            mkrobot(1, 20, 0, assigned={6}),
            mkrobot(2, 90, 90, assigned={7}),  # out of comm range of robot 0
        ],
        mkassets([(3, 0, 1), (50, 0, 1), (89, 89, 1), (0, 0, 1), (21, 0, 1), (60, 60, 1), (61, 60, 1), (62, 60, 1)]),
        r_comm=25.0,
        r_max=10.0,
    )
    # the round's view is the one place knowledge is computed
    view = _View(snap)
    expected = sense(snap.robots[0], snap.assets, 10.0) | {5} | {6}
    assert set(np.flatnonzero(view.known(0)).tolist()) == expected
    assert not view.known(0)[7]
    assert view.known(2)[7]


def test_event_rounds_and_robot_ids_must_be_integers():
    # A round that is no integer never comes up, so a run would wait for it
    # forever: only the constructors are tried here, never a run.
    for at_round in (40.5, 7.0, True, "3", -1):
        with pytest.raises(ValueError):
            Event(at_round, KillRobot(0))
    for rid in (True, 1.0, "0", -1):
        with pytest.raises(ValueError):
            KillRobot(rid)


def test_asset_spec_kappa_must_be_an_integer():
    for kappa in (1.5, 2.0, True, "2", 0):
        with pytest.raises(ValueError, match="kappa must be"):
            AssetSpec(P(1, 1), kappa)
    assert AssetSpec(P(1, 1), 2).kappa == 2


def test_apply_events_add_assets_dense_ids():
    snap = mksnapshot([mkrobot(0, 0, 0)], mkassets([(1, 1, 1), (2, 2, 2)]))
    ev = Event(0, AddAssets((AssetSpec(P(9, 9), 3), AssetSpec(P(8, 8), 1))))
    nxt = apply_events(snap, [ev])
    assert [a.id for a in nxt.assets] == [0, 1, 2, 3]
    assert nxt.assets[2] == Asset(2, P(9, 9), 3)
    assert nxt.assets[3] == Asset(3, P(8, 8), 1)
    assert nxt.round == snap.round


def test_apply_events_kill_robot():
    snap = mksnapshot([mkrobot(0, 0, 0, assigned={0}, radius=4.0), mkrobot(1, 5, 5)], mkassets([(1, 1, 1)]))
    nxt = apply_events(snap, [Event(0, KillRobot(0))])
    dead = nxt.robots[0]
    assert not dead.alive
    assert dead.assigned == frozenset()
    assert dead.radius == 0.0
    # killing again (or killing an unknown id) is a no-op
    again = apply_events(nxt, [Event(0, KillRobot(0)), Event(0, KillRobot(99))])
    assert again == nxt


def test_apply_events_empty_is_identity():
    snap = mksnapshot([mkrobot(0, 0, 0)], mkassets([(1, 1, 1)]))
    assert apply_events(snap, []) is snap


def test_step_merges_in_id_order_and_reports_displacement():
    snap = mksnapshot([mkrobot(0, 0, 0), mkrobot(1, 10, 0)], mkassets([(1, 1, 1)]))
    # robot 1 has no entry and stands pat
    nxt, rm = step(snap, {0: Proposal(P(3, 4), 1.0, frozenset({0}))})
    assert nxt.round == snap.round + 1
    assert nxt.robots[0].pos == P(3, 4)
    assert nxt.robots[0].assigned == frozenset({0})
    assert nxt.robots[1] == snap.robots[1]
    assert rm.max_displacement == pytest.approx(5.0)
    assert rm.round == nxt.round


def test_step_rejects_plan_for_dead_or_unknown_robot():
    snap = mksnapshot([mkrobot(0, 0, 0), mkrobot(1, 1, 1, alive=False)], mkassets([(1, 1, 1)]))
    for rid in (1, 2, -1):  # dead, past the last id, negative
        with pytest.raises(ValueError, match="not alive"):
            step(snap, {rid: Proposal(P(5, 5), 0.0, frozenset())})


@pytest.mark.parametrize("radius", [-1.0, -0.0 - 1e-300, float("nan"), float("inf"), float("-inf")])
def test_step_rejects_a_radius_that_is_negative_or_not_finite(radius):
    # A negative radius r would count an asset within |r| + tol as covered,
    # since the tally squares r + tol.
    snap = mksnapshot([mkrobot(0, 0, 0), mkrobot(1, 1, 1)], mkassets([(1, 1, 1), (0.5, 0, 1)]))
    with pytest.raises(ValueError, match=f"robot 1 radius {radius}"):
        step(snap, {1: Proposal(P(0, 0), radius, frozenset())})


@pytest.mark.parametrize("asset_id", [2, 7, -1])
def test_step_rejects_an_assigned_id_outside_the_assets(asset_id):
    # Id 2 of 2 assets would land in the next robot's row of a view's
    # robot x asset matrices, and -1 in the last column.
    snap = mksnapshot([mkrobot(0, 0, 0), mkrobot(1, 1, 1)], mkassets([(1, 1, 1), (2, 2, 1)]))
    with pytest.raises(ValueError, match=rf"robot 0 asset {asset_id}, which is not in 0\.\.1"):
        step(snap, {0: Proposal(P(0, 0), 0.0, frozenset({0, asset_id}))})
    step(snap, {0: Proposal(P(0, 0), 0.0, frozenset({0, 1}))})


def test_step_applies_events_after_merge():
    """An asset arriving this round is part of the published snapshot and its
    metrics, but robots decided without seeing it."""
    snap = mksnapshot([mkrobot(0, 50, 50)], mkassets([(50, 50, 1)]), r_max=40.0)
    ev = Event(1, AddAssets((AssetSpec(P(55, 50), 1),)))
    nxt, rm = step(snap, {0: Proposal(P(50, 50), 0.0, frozenset({0}))}, events=[ev], next_phase=Phase.OPTIMIZE)
    assert len(snap.assets) == 1
    assert len(nxt.assets) == 2
    assert rm.undercovered_count == 1  # the newcomer
    assert rm.undiscovered_count == 1  # nobody has assigned it yet
    assert nxt.phase is Phase.OPTIMIZE


def test_step_phase_defaults_to_previous():
    snap = mksnapshot([mkrobot(0, 0, 0)], mkassets([(1, 1, 1)]), phase=Phase.EXPLORE)
    nxt, _ = step(snap, {})
    assert nxt.phase is Phase.EXPLORE
