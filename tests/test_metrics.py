"""Round metrics, cost accounting, gap arithmetic, trace files."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcover.engine import Event, KillRobot, Phase, step
from swarmcover.geometry import CONTAINMENT_TOL, dist
from swarmcover.metrics import (
    GAP_UNDEFINED,
    CoverTally,
    RoundMetrics,
    optimality_gap,
    summarize,
    total_cost,
    write_trace,
)

from conftest import P, mkassets, mkrobot, mksnapshot
from reference import coverage_count

coord = st.floats(min_value=0.0, max_value=100.0, allow_nan=False)


@given(
    st.lists(st.tuples(coord, coord, st.floats(min_value=0.0, max_value=30.0), st.booleans()), min_size=1, max_size=10),
    st.tuples(coord, coord),
)
@settings(max_examples=150, deadline=None)
def test_coverage_count_matches_naive_scan(layout, q):
    robots = [mkrobot(i, x, y, radius=rad, alive=alive) for i, (x, y, rad, alive) in enumerate(layout)]
    snap = mksnapshot(robots, mkassets([(1, 1, 1)]))
    p = P(*q)
    naive = sum(1 for r in robots if r.alive and dist(r.pos, p) <= r.radius + 1e-9)
    assert coverage_count(snap, p) == naive


def test_total_cost_sums_disk_areas():
    snap = mksnapshot(
        [mkrobot(0, 0, 0, radius=2.0), mkrobot(1, 5, 5, radius=3.0), mkrobot(2, 9, 9, radius=7.0, alive=False)],
        mkassets([(1, 1, 1)]),
    )
    assert total_cost(snap) == pytest.approx(math.pi * (4 + 9))


def test_total_cost_sums_left_to_right():
    # 1 + 1e-16 rounds back to 1 at each step of a plain sum; the
    # compensated float sum() of Python 3.12 and later gives 1 + 2**-52.
    snap = mksnapshot(
        [mkrobot(0, 0, 0, radius=1.0), mkrobot(1, 5, 5, radius=1e-8), mkrobot(2, 9, 9, radius=1e-8)],
        mkassets([(1, 1, 1)]),
    )
    assert total_cost(snap) == math.pi


def test_summarize_counts():
    # asset 0: kappa=1 covered twice -> overcovered; asset 1: kappa=2 covered
    # zero times -> undercovered; asset 2: assigned nowhere -> undiscovered
    snap = mksnapshot(
        [
            mkrobot(0, 0, 0, radius=1.0, assigned={0}),
            mkrobot(1, 0.5, 0, radius=1.0, assigned={0, 1}),
        ],
        mkassets([(0, 0, 1), (2, 0, 2), (70, 70, 1)]),
        round_=3,
        phase=Phase.REFINE,
    )
    rm = summarize(snap, max_displacement=0.25)
    assert rm == RoundMetrics(3, "refine", 2, 1, pytest.approx(2 * math.pi), 0.25, 1)


def test_summarize_counts_an_asset_at_the_threshold():
    # Asset 0 sits where the squared distance equals the squared reach,
    # asset 1 one ulp beyond it.
    reach = 3.0 + CONTAINMENT_TOL
    snap = mksnapshot(
        [mkrobot(0, 0, 0, radius=3.0)],
        mkassets([(reach, 0, 1), (math.nextafter(reach, math.inf), 0, 1)]),
    )
    assert [coverage_count(snap, a.pos) for a in snap.assets] == [1, 0]
    assert summarize(snap).undercovered_count == 1
    tally = CoverTally()
    summarize(replace(snap, robots=(mkrobot(0, 9, 9),)), tally=tally)
    assert summarize(snap, tally=tally).undercovered_count == 1


def test_carried_tally_drops_a_killed_robot_with_a_zero_disk():
    # Robot 1's zero disk covers the asset it sits on; a kill changes
    # neither its position nor its radius.
    snap = mksnapshot([mkrobot(0, 0, 0, radius=1.0), mkrobot(1, 5, 5, assigned={1})], mkassets([(0, 0, 1), (5, 5, 1)]))
    tally = CoverTally()
    assert summarize(snap, tally=tally).undercovered_count == 0
    killed, rm = step(snap, {}, [Event(1, KillRobot(1))], tally=tally)
    assert not killed.robots[1].alive and killed.robots[1].radius == 0.0
    assert (rm.undercovered_count, rm.undiscovered_count) == (1, 2)
    assert tally.cover.tolist() == [1, 0] and tally.holders == [0, 0]


def test_geometric_cover_dominates_membership():
    """Holding an asset inside a consistent disk implies geometric cover, so
    the geometric count can only exceed the holder count."""
    snap = mksnapshot(
        [
            mkrobot(0, 0, 0, radius=5.0, assigned={0}),
            mkrobot(1, 8, 0, radius=8.0, assigned=set()),  # covers without holding
        ],
        mkassets([(3, 0, 1)]),
    )
    holders = sum(1 for r in snap.robots if 0 in r.assigned)
    assert coverage_count(snap, snap.assets[0].pos) == 2 >= holders


@pytest.mark.parametrize(
    "dist_cost,opt_cost,expected",
    [
        (150.0, 100.0, 50.0),
        (100.0, 100.0, 0.0),
        (0.0, 0.0, 0.0),
        (99.0, 100.0, -1.0),
    ],
)
def test_optimality_gap_percent(dist_cost, opt_cost, expected):
    assert optimality_gap(dist_cost, opt_cost) == pytest.approx(expected)


def test_optimality_gap_zero_optimum():
    assert optimality_gap(5.0, 0.0) is GAP_UNDEFINED
    assert optimality_gap(0.0, 0.0) == 0.0


def test_write_trace_format(tmp_path):
    rows = [
        RoundMetrics(0, "explore", 12, 0, 1234.5, 3.25, 4),
        RoundMetrics(1, "optimize", 3, 1, 1000.0 / 3.0, 0.0, 0),
    ]
    path = tmp_path / "trace.csv"
    write_trace(path, rows)
    raw = path.read_bytes()
    assert b"\r" not in raw
    lines = raw.decode().splitlines()
    assert lines[0] == "round,phase,undercovered,overcovered,total_cost,max_displacement,undiscovered"
    assert lines[1] == "0,explore,12,0,1234.500000,3.250000,4"
    assert lines[2] == "1,optimize,3,1,333.333333,0.000000,0"


def test_write_trace_byte_deterministic(tmp_path):
    rows = [RoundMetrics(i, "optimize", i, 0, i * math.pi, i / 7.0, 0) for i in range(20)]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace(a, rows)
    write_trace(b, list(rows))
    assert a.read_bytes() == b.read_bytes()
