"""End-to-end mission runs: statuses, traces, dynamics, and invariants."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmcover import protocol
from swarmcover.engine import AddAssets, AssetSpec, Event, KillRobot, Phase
from swarmcover.geometry import CONTAINMENT_TOL, Point, dist
from swarmcover.instances import Asset, Instance, Workspace, generate_uniform, preset
from swarmcover.metrics import summarize, write_trace
from swarmcover.oracle import solve_exact
from swarmcover.protocol import Config, RunStatus, run

import reference
from reference import sense

WS60 = Workspace(0.0, 60.0, 0.0, 60.0)
WS100 = Workspace(0.0, 100.0, 0.0, 100.0)


def uniform_instance(n, m, seed, kappa=(1, 2, 3), ws=WS60, r_comm=55.0, r_max=40.0):
    return Instance(ws, tuple(generate_uniform(n, ws, kappa, seed)), m, r_comm, r_max)


def membership_holders(snapshot):
    holders: dict[int, int] = {}
    for r in snapshot.robots:
        if r.alive:
            for a in r.assigned:
                holders[a] = holders.get(a, 0) + 1
    return holders


def assert_run_invariants(res, instance):
    """Safety conditions every finished run must satisfy, feasible or not."""
    snap = res.snapshot
    r_max = instance.r_max
    for r in snap.robots:
        if not r.alive:
            assert r.assigned == frozenset() and r.radius == 0.0
            continue
        assert r.radius <= r_max + CONTAINMENT_TOL
        for a in r.assigned:
            assert dist(r.pos, snap.assets[a].pos) <= r.radius + CONTAINMENT_TOL
    assert [rm.round for rm in res.trace] == list(range(len(res.trace)))
    assert res.trace[0].phase == "explore"
    for rec in res.swaps:
        assert rec.pair_area_after < rec.pair_area_before
    assert res.timings.total_seconds >= 0.0


def test_single_asset_single_robot():
    inst = Instance(WS60, (Asset(0, Point(30.0, 30.0), 1),), 1, 55.0, 40.0)
    res = run(inst)
    assert res.status is RunStatus.FEASIBLE
    assert res.snapshot.robots[0].assigned == frozenset({0})
    assert res.trace[-1].total_cost == 0.0
    assert res.trace[-1].undercovered_count == 0
    assert_run_invariants(res, inst)


def test_pigeonhole_infeasible():
    # kappa exceeds the robot count: the run must stop and say so, quickly
    inst = Instance(WS60, (Asset(0, Point(30.0, 30.0), 2),), 1, 55.0, 40.0)
    res = run(inst)
    assert res.status is RunStatus.INFEASIBLE
    assert len(res.trace) < 10
    assert res.timings.time_to_feasibility is None


def test_small_uniform_mission_feasible():
    inst = uniform_instance(20, 5, seed=0)
    res = run(inst)
    assert res.status is RunStatus.FEASIBLE
    final = res.trace[-1]
    assert final.undercovered_count == 0
    holders = membership_holders(res.snapshot)
    for a in res.snapshot.assets:
        assert holders.get(a.id, 0) >= a.kappa
    assert_run_invariants(res, inst)


def test_phase_progression_in_trace():
    inst = uniform_instance(20, 5, seed=0)
    res = run(inst)
    phases = [rm.phase for rm in res.trace]
    # explore rounds first, then optimization, refinement last
    assert phases[0] == "explore"
    assert "optimize" in phases
    first_opt = phases.index("optimize")
    assert all(p == "explore" for p in phases[:first_opt])
    if "refine" in phases:
        first_ref = phases.index("refine")
        assert all(p != "explore" for p in phases[first_opt:])
        assert all(p == "refine" for p in phases[first_ref:])


def test_refinement_never_reopens_coverage():
    inst = uniform_instance(30, 8, seed=3)
    res = run(inst)
    assert res.status is RunStatus.FEASIBLE
    for rm in res.trace:
        if rm.phase == "refine":
            assert rm.undercovered_count == 0


def test_iteration_cap_status():
    inst = preset("uni_sm", 30, seed=2)
    res = run(inst, config=Config(max_iters_phase2=1))
    assert res.status is RunStatus.ITERATION_CAP


def test_run_deterministic_same_seed(tmp_path):
    inst = preset("uni_sm", 25, seed=6)
    a = run(inst, seed=11)
    b = run(inst, seed=11)
    assert a.status == b.status
    assert a.trace == b.trace
    assert a.swaps == b.swaps
    assert [(r.pos, r.radius, r.assigned) for r in a.snapshot.robots] == [
        (r.pos, r.radius, r.assigned) for r in b.snapshot.robots
    ]
    fa, fb = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(fa, a.trace)
    write_trace(fb, b.trace)
    assert fa.read_bytes() == fb.read_bytes()


def test_unreachable_assets_stay_undiscovered():
    # one robot, both corners out of sensing reach from anywhere it goes
    inst = Instance(
        WS100,
        (Asset(0, Point(1.0, 1.0), 1), Asset(1, Point(99.0, 99.0), 1)),
        1,
        55.0,
        30.0,
    )
    res = run(inst)
    assert res.status is RunStatus.FEASIBLE
    assert res.trace[-1].undiscovered_count == 2


def test_low_communication_is_reported_infeasible():
    """Holders that cannot verify their own assets' coverage must not be
    declared done: starved communication ends in an infeasible verdict."""
    inst = uniform_instance(40, 12, seed=1, ws=WS100, r_comm=10.0, r_max=40.0)
    res = run(inst)
    assert res.status is RunStatus.INFEASIBLE


def test_dynamic_events_add_and_kill():
    inst = uniform_instance(12, 6, seed=5, kappa=(1, 2))
    events = (
        Event(40, AddAssets((AssetSpec(Point(5.0, 5.0), 1), AssetSpec(Point(6.0, 4.0), 2)))),
        Event(60, KillRobot(0)),
    )
    res = run(inst, events=events, seed=1)
    assert res.status is RunStatus.FEASIBLE
    snap = res.snapshot
    assert len(snap.assets) == 14
    assert not snap.robots[0].alive
    holders = membership_holders(snap)
    for a in snap.assets:
        assert holders.get(a.id, 0) >= a.kappa
    # the states the scheduler banked just before each event fired
    assert [rnd for rnd, _ in res.pre_event_snapshots] == [40, 60]
    for rnd, pre in res.pre_event_snapshots:
        assert pre.round == rnd - 1 or pre.round < rnd
    assert_run_invariants(res, inst)


def test_dynamic_event_after_quiescence_reopens():
    """Events scheduled past the natural finish still fire: the run idles
    forward, absorbs them, and re-optimizes."""
    inst = uniform_instance(10, 5, seed=2, kappa=(1,))
    base = run(inst)
    settle = len(base.trace) - 1
    later = settle + 25
    events = (Event(later, AddAssets((AssetSpec(Point(50.0, 50.0), 1),))),)
    res = run(inst, events=events)
    assert res.status is RunStatus.FEASIBLE
    assert len(res.trace) - 1 >= later
    holders = membership_holders(res.snapshot)
    assert holders.get(len(inst.assets), 0) >= 1  # the newcomer is covered


def test_run_rejects_a_kill_of_an_unknown_robot():
    inst = uniform_instance(12, 6, seed=5)
    with pytest.raises(ValueError, match=r"event 1: robot_id 99 is not in 0\.\.5"):
        run(inst, events=(Event(3, KillRobot(0)), Event(9, KillRobot(99))))


def test_run_rejects_an_asset_outside_the_workspace():
    inst = uniform_instance(12, 6, seed=5)
    newcomers = AddAssets((AssetSpec(Point(5.0, 5.0), 1), AssetSpec(Point(500.0, 5.0), 1)))
    with pytest.raises(ValueError, match=r"event 0 asset 1 at \(500.0, 5.0\) lies outside the workspace"):
        run(inst, events=(Event(40, newcomers),))


@pytest.mark.parametrize("mission", ["plain", "events"])
def test_trace_ends_with_the_final_metrics(mission):
    inst = uniform_instance(12, 6, seed=5, kappa=(1, 2))
    events = ()
    if mission == "events":
        events = (
            Event(0, KillRobot(5)),
            Event(40, AddAssets((AssetSpec(Point(5.0, 5.0), 1), AssetSpec(Point(6.0, 4.0), 2)))),
            Event(60, KillRobot(0)),
        )
    res = run(inst, events=events)
    assert res.trace[-1].round == res.snapshot.round
    assert replace(res.trace[-1], max_displacement=0.0) == summarize(res.snapshot)


def test_every_round_metrics_match_a_recount(monkeypatch):
    # The metrics of each round come from the tally the run carries; each
    # must equal a recount of that round's snapshot, through an arrival and
    # a kill.
    inst = uniform_instance(12, 6, seed=5, kappa=(1, 2))
    events = (
        Event(40, AddAssets((AssetSpec(Point(5.0, 5.0), 1), AssetSpec(Point(6.0, 4.0), 2)))),
        Event(60, KillRobot(0)),
    )
    rounds = []
    step = protocol.step

    def recorded_step(snapshot, plan, *args, **kwargs):
        new_snapshot, rm = step(snapshot, plan, *args, **kwargs)
        disp = max((dist(snapshot.robots[rid].pos, p.pos) for rid, p in plan.items()), default=0.0)
        rounds.append((snapshot, new_snapshot, rm, disp))
        return new_snapshot, rm

    monkeypatch.setattr(protocol, "step", recorded_step)
    res = run(inst, events=events)
    assert res.trace[0] == reference.summarize(rounds[0][0])
    assert list(res.trace[1:]) == [rm for _, _, rm, _ in rounds]
    for _, snapshot, rm, disp in rounds:
        assert rm == reference.summarize(snapshot, disp)
    final = rounds[-1][1]
    assert res.snapshot is final
    assert len(final.assets) == 14 and not final.robots[0].alive


def test_kill_all_robots_ends_vacuously():
    """With nobody left to sense anything, every asset is undiscovered, and
    undiscovered assets never block completion: the run ends feasible but the
    metrics expose the emptiness."""
    inst = uniform_instance(6, 2, seed=7, kappa=(1,))
    events = (Event(3, KillRobot(0)), Event(3, KillRobot(1)))
    res = run(inst, events=events)
    assert res.status is RunStatus.FEASIBLE
    assert res.trace[-1].undiscovered_count == 6
    assert res.trace[-1].total_cost == 0.0
    assert all(not r.alive for r in res.snapshot.robots)


@given(st.integers(min_value=1, max_value=10), st.integers(min_value=2, max_value=4), st.integers(min_value=0, max_value=10**6))
@example(1, 3, 5208)  # the lone asset sits beyond every robot's sensing reach
@settings(max_examples=15, deadline=None)
def test_full_connectivity_missions_feasible(n, m, seed):
    """With the communication graph complete (r_comm 85 m spans the 60 m
    square's diagonal), every kappa<=m mission must finish feasible and
    respect the safety invariants.  r_max 45 m does not reach the far corner
    from everywhere, so an asset no robot ever senses can stay undiscovered;
    that does not block completion (see protocol.coverage_satisfied, which
    reads the run's carried view).  Every asset some alive robot senses or
    holds must have kappa holders, and the rest must show up as
    undiscovered."""
    inst = uniform_instance(n, m, seed, kappa=(1, 2), r_comm=85.0, r_max=45.0)
    res = run(inst)
    assert res.status is RunStatus.FEASIBLE
    snap = res.snapshot
    holders = membership_holders(snap)
    sensed = set().union(*(sense(r, snap.assets, inst.r_max) for r in snap.robots if r.alive))
    undiscovered = 0
    for a in snap.assets:
        if a.id in sensed or a.id in holders:
            assert holders.get(a.id, 0) >= a.kappa
        else:
            undiscovered += 1
    assert res.trace[-1].undiscovered_count == undiscovered
    assert_run_invariants(res, inst)


def test_liveness_in_generous_regime():
    ws = WS100
    for seed in range(3):
        inst = Instance(ws, tuple(generate_uniform(40, ws, (1, 2, 3), seed)), 6, 160.0, 75.0)
        res = run(inst, seed=seed)
        assert res.status is RunStatus.FEASIBLE
        assert res.trace[-1].undercovered_count == 0


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=3), st.integers(min_value=0, max_value=10**6))
@example(2, 3, 1469)  # asset 1 sits beyond every robot's sensing reach
@settings(max_examples=10, deadline=None)
def test_distributed_cost_dominates_exact_optimum(n, m, seed):
    """The run's cost is at least the exact optimum over the assets it had
    to cover: those some alive robot senses or holds (the premise of
    test_full_connectivity_missions_feasible).  An asset nobody ever senses
    stays undiscovered and does not block completion, so the run pays
    nothing for it; the rest must show up as undiscovered."""
    inst = uniform_instance(n, m, seed, kappa=(1, 2), r_comm=85.0, r_max=45.0)
    res = run(inst)
    assert res.status is RunStatus.FEASIBLE
    snap = res.snapshot
    holders = membership_holders(snap)
    sensed = set().union(*(sense(r, snap.assets, inst.r_max) for r in snap.robots if r.alive))
    found = [a for a in inst.assets if a.id in sensed or a.id in holders]
    assert res.trace[-1].undiscovered_count == inst.n - len(found)
    opt = solve_exact(found, m, inst.r_max)
    assert opt.feasible
    assert res.trace[-1].total_cost >= opt.total_cost - 1e-6


def test_total_cost_matches_final_disks():
    inst = uniform_instance(15, 5, seed=4)
    res = run(inst)
    direct = sum(math.pi * r.radius**2 for r in res.snapshot.robots if r.alive)
    assert res.trace[-1].total_cost == pytest.approx(direct)
