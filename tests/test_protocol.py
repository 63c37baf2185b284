"""Decision-rule unit tests: hashing, Lloyd, auctions, fallback, swaps,
removals, and the completion predicates.

Constructs are laid out on the x-axis where possible so every disk and
distance can be checked by eye.  Snapshots here are hand-built and do not
always satisfy the run loop's invariants; the rules must still behave.
"""

from __future__ import annotations

import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmcover.engine import Params, Phase, WorldSnapshot
from swarmcover.geometry import CONTAINMENT_TOL, Disk, Point, dist, dist2, min_enclosing_disk
from swarmcover.instances import Workspace
from swarmcover.protocol import (
    INFEASIBLE,
    Config,
    coverage_satisfied,
    consolidate,
    fallback_assign,
    h64,
    holders_certified,
    lloyd_round,
    phase1_converged,
    phase2_round,
    phase3_round,
    select_winner,
    swap_round,
    _bid,
    _bid_bounds,
    _evaluate_swap,
    _gap_prunes,
    _grow_disk,
    _receiver_bound,
    _View,
)

from conftest import P, mkassets, mkrobot, mksnapshot
from reference import evaluate_swap, marginal_cost

WIDE = Workspace(-200.0, 200.0, -200.0, 200.0)


def wide_snap(robots, assets, r_comm=55.0, r_max=40.0, rnd=0):
    return mksnapshot(robots, assets, r_comm=r_comm, r_max=r_max, workspace=WIDE, round_=rnd)


# -- symmetry-breaking hash ------------------------------------------------


def fnv1a_reference(iteration: int, asset_id: int, robot_id: int) -> int:
    h = 0xCBF29CE484222325
    for b in (
        iteration.to_bytes(8, "little")
        + asset_id.to_bytes(8, "little")
        + robot_id.to_bytes(8, "little")
    ):
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h


def test_h64_pinned_values():
    assert h64(0, 0, 0) == 0x81D23FD7003C2305
    assert h64(3, 7, 2) == 0x5B790A3C741B2863


U64 = st.integers(0, 2**64 - 1)


# h64 hashes each field's bytes up to its highest nonzero one and folds the
# zero bytes above: the examples put zero bytes inside and above a field.
@given(U64, U64, U64)
@example(0x0100, 1 << 56, 2**64 - 1)
@example(2**64 - 1, 0, 0x0100)
@example(1 << 56, 0x0100, 0)
@settings(max_examples=300, deadline=None)
def test_h64_matches_reference(it, aid, rid):
    assert h64(it, aid, rid) == fnv1a_reference(it, aid, rid)


@pytest.mark.parametrize("bad", [-1, 2**64])
@pytest.mark.parametrize("field", range(3))
def test_h64_rejects_fields_outside_u64(bad, field):
    args = [0, 0, 0]
    args[field] = bad
    for fn in (h64, fnv1a_reference):
        with pytest.raises(OverflowError):
            fn(*args)


def test_h64_argument_order_matters():
    assert h64(1, 2, 3) != h64(3, 2, 1)
    assert h64(0, 0, 1) != h64(0, 1, 0)


# -- config ------------------------------------------------------------------


def test_config_defaults_and_cap():
    cfg = Config()
    assert cfg.phase2_cap(50) == 500
    assert Config(max_iters_phase2=7).phase2_cap(50) == 7


@pytest.mark.parametrize(
    "kwargs",
    [
        {"lam": 0.0},
        {"tol": -1.0},
        {"eps": 0.0},
        {"tau": 0.0},
        {"boundary_factor": 0.0},
        {"max_iters_phase1": 0},
        {"max_iters_phase2": 0},
        {"max_swap_sweeps": 0},
        {"max_iters_phase3": -1},
    ],
)
def test_config_rejects_nonpositive(kwargs):
    with pytest.raises(ValueError):
        Config(**kwargs)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tau": "0.1"},
        {"lam": None},
        {"eps": True},
        {"tol": float("nan")},
        {"boundary_factor": float("inf")},
        {"max_iters_phase1": 10.0},
        {"max_iters_phase2": "5"},
        {"max_swap_sweeps": True},
        {"max_iters_phase3": 2.5},
    ],
)
def test_config_rejects_wrong_types(kwargs):
    with pytest.raises(ValueError):
        Config(**kwargs)


def test_config_accepts_integers_for_float_knobs():
    assert Config(lam=2, tau=1).tau == 1


# -- exploration -------------------------------------------------------------


def test_lloyd_round_centroid_and_radius():
    snap = wide_snap(
        [mkrobot(0, 0, 0), mkrobot(1, 10, 0)],
        mkassets([(1, 0, 1), (3, 0, 1), (7, 0, 1)]),
        r_max=40.0,
    )
    plan = lloyd_round(snap)
    # assets 0,1 go to robot 0, asset 2 to robot 1 (nearest sensing robot)
    assert plan[0].assigned == frozenset({0, 1})
    assert plan[0].pos == P(2, 0)
    assert plan[0].radius == pytest.approx(1.0)
    assert plan[1].assigned == frozenset({2})
    assert plan[1].pos == P(7, 0)
    assert plan[1].radius == 0.0


def test_lloyd_round_equidistant_asset_goes_to_lower_id():
    snap = wide_snap([mkrobot(0, 0, 0), mkrobot(1, 10, 0)], mkassets([(5, 0, 1)]))
    plan = lloyd_round(snap)
    assert plan[0].assigned == frozenset({0})
    assert plan[1].assigned == frozenset()


def test_lloyd_round_ignores_out_of_reach_assets():
    snap = wide_snap([mkrobot(0, 0, 0)], mkassets([(1, 0, 1), (80, 0, 1)]), r_max=10.0)
    plan = lloyd_round(snap)
    assert plan[0].assigned == frozenset({0})


def test_lloyd_round_sums_the_cell_left_to_right():
    # Ten 0.1s add to 0.9999999999999999 left to right and to 1.0 under the
    # compensated float sum() of Python 3.12 and later.
    snap = wide_snap([mkrobot(0, 0, 0)], mkassets([(0.1, 0.1, 1)] * 10))
    plain = 0.0
    for _ in range(10):
        plain += 0.1
    assert plain == 0.9999999999999999
    plan = lloyd_round(snap)
    assert plan[0].pos == P(plain / 10, plain / 10)


def test_lloyd_round_caps_radius_at_r_max():
    # everything is sensed from (0,0), but the centroid drifts right, putting
    # the leftmost asset 6.6 away: the proposed disk is capped at r_max
    snap = wide_snap([mkrobot(0, 0, 0)], mkassets([(5, 0, 1), (4.8, 1, 1), (-5, 0, 1)]), r_max=5.0)
    plan = lloyd_round(snap)
    assert plan[0].assigned == frozenset({0, 1, 2})
    assert plan[0].pos.x == pytest.approx(1.6)
    assert plan[0].pos.y == pytest.approx(1 / 3)
    assert plan[0].radius == 5.0


def test_phase1_converged_strict_threshold():
    before = wide_snap([mkrobot(0, 0, 0)], mkassets([(1, 1, 1)]))
    at_tol = wide_snap([mkrobot(0, 0.01, 0)], mkassets([(1, 1, 1)]))
    below = wide_snap([mkrobot(0, 0.0099, 0)], mkassets([(1, 1, 1)]))
    assert not phase1_converged(before, at_tol, tol=0.01)
    assert phase1_converged(before, below, tol=0.01)


def test_phase1_converged_skips_dead():
    before = wide_snap([mkrobot(0, 0, 0), mkrobot(1, 0, 0)], mkassets([(1, 1, 1)]))
    after = wide_snap([mkrobot(0, 0, 0), mkrobot(1, 50, 50, alive=False)], mkassets([(1, 1, 1)]))
    assert phase1_converged(before, after, tol=0.01)


def test_consolidate():
    assets = mkassets([(0, 0, 1), (4, 0, 1)])
    d = consolidate(P(9, 9), {1, 0}, assets)
    assert d.center == P(2, 0)
    assert d.radius == pytest.approx(2.0)
    assert consolidate(P(9, 9), (), assets) == Disk(P(9, 9), 0.0)
    assert consolidate(P(9, 9), {1}, assets) == Disk(P(4, 0), 0.0)


# -- local views -------------------------------------------------------------


def test_local_coverage_misses_out_of_range_holder():
    """A holder outside communication range is invisible, so the local count
    understates the truth; observers in range of both see it all."""
    assets = mkassets([(0, 0, 2)])
    snap = wide_snap(
        [
            mkrobot(0, 0, 0),            # observer, holds nothing
            mkrobot(1, 0, 20, {0}),
            mkrobot(2, 0, -20, {0}),
        ],
        assets,
        r_comm=25.0,
    )
    view = _View(snap)
    assert view.local_coverage(0, 0) == 2
    assert view.local_coverage(1, 0) == 1  # cannot see robot 2, 40 away
    assert view.local_coverage(2, 0) == 1


def test_local_coverage_counts_self():
    snap = wide_snap([mkrobot(0, 0, 0, {0})], mkassets([(0, 0, 1)]))
    assert _View(snap).local_coverage(0, 0) == 1


def test_local_coverage_ignores_dead_holders():
    snap = wide_snap(
        [mkrobot(0, 0, 0), mkrobot(1, 1, 0, {0}, alive=False)],
        mkassets([(0, 0, 1)]),
    )
    assert _View(snap).local_coverage(0, 0) == 0


# -- marginal cost and auctions ----------------------------------------------


def test_marginal_cost_growth():
    # distance-6 asset pins the new disk to a diametral pair: area 9*pi
    assets = mkassets([(0, 0, 1), (6, 0, 1)])
    snap = wide_snap([mkrobot(0, 0, 0, {0}, radius=0.0)], assets)
    assert marginal_cost(snap, 0, 1) == pytest.approx(9 * math.pi)


def test_marginal_cost_interior_is_free():
    assets = mkassets([(1, 0, 1), (0.5, 0, 1)])
    snap = wide_snap([mkrobot(0, 0, 0, {0}, radius=1.0)], assets)
    assert marginal_cost(snap, 0, 1) == 0.0


def test_marginal_cost_empty_robot_teleports_free():
    assets = mkassets([(6, 0, 1)])
    snap = wide_snap([mkrobot(0, 0, 0)], assets)
    assert marginal_cost(snap, 0, 0) == 0.0


def test_marginal_cost_infeasible_beyond_r_max():
    assets = mkassets([(0, 0, 1), (6, 0, 1)])
    snap = wide_snap([mkrobot(0, 0, 0, {0}, radius=0.0)], assets, r_max=2.0)
    assert marginal_cost(snap, 0, 1) == INFEASIBLE


def test_marginal_cost_rejects_held_asset():
    snap = wide_snap([mkrobot(0, 0, 0, {0})], mkassets([(0, 0, 1)]))
    with pytest.raises(ValueError):
        marginal_cost(snap, 0, 0)


# A robot holding `held` (global (x, y) pairs) with disk (center, radius),
# an asset at `asset`, and the run's r_max.
BoundCase = tuple[list[tuple[float, float]], tuple[float, float], tuple[float, float], float, float]

_WOBBLE = st.sampled_from([0.0, 1e-12, 5e-10, -5e-10, 9e-10, 1e-9, -1e-9, 2e-9, 3e-9])
_LOCAL = st.floats(-30.0, 30.0)


def _nudge(x: float, ulps: int) -> float:
    step = math.inf if ulps > 0 else -math.inf
    for _ in range(abs(ulps)):
        x = math.nextafter(x, step)
    return x


@st.composite
def bound_cases(draw) -> BoundCase:
    """Held sets with duplicate points and near-collinear triples, far from
    or near the origin, and an asset whose far/2 can sit within a few ulps
    of the robot's radius or of r_max (or of the bound's INFEASIBLE edge)."""
    pts: list[tuple[float, float]] = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["free", "duplicate", "collinear"]))
        if kind == "duplicate" and pts:
            pts.append(draw(st.sampled_from(pts)))
        elif kind == "collinear" and len(pts) >= 2:
            # On the line through the last two points, nudged off it.
            (ax, ay), (bx, by) = pts[-2], pts[-1]
            t, w = draw(st.floats(-2.0, 3.0)), draw(_WOBBLE)
            norm = math.hypot(bx - ax, by - ay) or 1.0
            pts.append((ax + t * (bx - ax) - w * (by - ay) / norm, ay + t * (by - ay) + w * (bx - ax) / norm))
        else:
            pts.append((draw(_LOCAL), draw(_LOCAL)))
    if draw(st.booleans()):
        asset = (draw(st.floats(-60.0, 60.0)), draw(st.floats(-60.0, 60.0)))
    else:  # just off a held point
        hx, hy = draw(st.sampled_from(pts))
        asset = (hx + draw(_WOBBLE), hy + draw(_WOBBLE))
    ox, oy = draw(st.sampled_from([0.0, 1e6, -1e6])), draw(st.sampled_from([0.0, 1e6, -1e6]))
    held = [(x + ox, y + oy) for x, y in pts]
    asset = (asset[0] + ox, asset[1] + oy)
    far = max(math.hypot(asset[0] - x, asset[1] - y) for x, y in held)
    mec = min_enclosing_disk([Point(x, y) for x, y in held])
    center, radius = (mec.center.x, mec.center.y), mec.radius
    mode = draw(st.sampled_from(["mec", "rim", "free"]))
    if mode == "rim":
        radius = _nudge(far / 2.0 + draw(st.sampled_from([0.0, -1e-9, -2e-9])), draw(st.integers(-4, 4)))
    elif mode == "free":
        center = (center[0] + draw(_LOCAL), center[1] + draw(_LOCAL))
        radius = draw(st.floats(0.0, 40.0))
    # Some disks miss an asset.  Runs never make one, but the bound holds
    # without that: the grown disk always holds every asset (see
    # `geometry.enclose_with_anchor`).
    reach = max(math.hypot(center[0] - x, center[1] - y) for x, y in held)
    radius = max(radius, draw(st.sampled_from([0.0, reach])))
    r_max = draw(st.sampled_from([40.0, far / 2.0, far / 2.0 - 4 * CONTAINMENT_TOL]))
    r_max = _nudge(r_max, draw(st.integers(-4, 4)))
    return held, asset, center, radius, r_max if r_max > 1e-6 else 40.0


# The solver accepts the held point (1 + 9e-10, 0) within CONTAINMENT_TOL of
# the disk it grows to, so its radius ends ~4.5e-10 below far/2, while far/2
# sits above the robot's radius (and, in the second case, above r_max): only
# the bound's absolute slack keeps it at or below the exact bid.
_SLACK_CASE = ([(0.0, 0.0), (1.0, 0.0), (1.0 + 9e-10, 0.0)], (-2e-9, 0.0), (0.50000000045, 0.0), 0.50000000045)


def bound_case_snapshot(case: BoundCase) -> WorldSnapshot:
    """Robot 0 holds the case's points on the case's disk; robot 1 sits on
    the same disk and holds nothing."""
    held, asset, center, radius, r_max = case
    assets = mkassets([(x, y, 1) for x, y in held] + [(*asset, 1)])
    robots = [
        mkrobot(0, *center, range(len(held)), radius=radius),
        mkrobot(1, *center, radius=radius),
    ]
    return wide_snap(robots, assets, r_max=r_max)


# Robot 0's disk, radius 0 at the origin, misses its asset at (0, 3); the
# asset at (0, 1) lies inside the enclosing disk of the two it holds.
_LOOSE_CASE = ([(0.0, 3.0), (0.0, 0.0)], (0.0, 1.0), (0.0, 0.0), 0.0, 40.0)


@given(bound_cases())
@example((*_SLACK_CASE, 40.0))
@example((*_SLACK_CASE, 0.5000000012))
@example(_LOOSE_CASE)
@settings(max_examples=400, deadline=None)
def test_bid_bound_never_exceeds_exact_bid(case):
    view = _View(bound_case_snapshot(case))
    robots = [r.id for _ in view.assets for r in view.robot]
    assets = [a.id for a in view.assets for _ in view.robot]
    bounds = iter(_bid_bounds(view, robots, assets).tolist())
    for a in view.assets:
        for robot in view.robot:
            lo, (bid, _) = next(bounds), _bid(view, robot, a.id)
            assert lo <= bid, (robot.id, a.id, lo, bid)
            if lo == INFEASIBLE:
                assert bid == INFEASIBLE


def test_select_winner_lowest_bid():
    assert select_winner(0, {1: 5.0, 2: 3.0, 3: 9.0}, iteration=0, eps=0.01) == 2


def test_select_winner_tie_breaks_by_hash():
    bids = {1: 10.0, 2: 10.05}
    want = min(bids, key=lambda j: (h64(4, 9, j), j))
    assert select_winner(9, bids, iteration=4, eps=0.01) == want
    # outside the eps window the cheap bid wins outright
    assert select_winner(9, {1: 10.0, 2: 10.2}, iteration=4, eps=0.01) == 1


@given(
    st.integers(0, 500),
    st.integers(0, 3000),
    st.lists(
        st.dictionaries(st.integers(0, 40), st.sampled_from([0.0, 0.0, 1.0, 1.005, 2.0, INFEASIBLE]), max_size=8),
        min_size=1,
        max_size=6,
    ),
)
@settings(max_examples=200, deadline=None)
def test_select_winner_shared_keys_change_no_winner(iteration, asset_id, auctions):
    # One key dict serves every auction of the asset in the round, as in
    # phase2_round: each call names the winner it names on its own.
    keys: dict[int, tuple[int, int]] = {}
    for bids in auctions:
        want = select_winner(asset_id, bids, iteration, 0.01)
        assert select_winner(asset_id, bids, iteration, 0.01, keys) == want
    assert keys == {j: (h64(iteration, asset_id, j), j) for j in keys}


def test_select_winner_all_infeasible_or_empty():
    assert select_winner(0, {}, 0, 0.01) is None
    assert select_winner(0, {1: INFEASIBLE, 2: INFEASIBLE}, 0, 0.01) is None


def test_select_winner_deterministic_in_iteration():
    bids = {1: 1.0, 2: 1.0}
    winners = {select_winner(5, bids, iteration=it, eps=0.01) for it in range(40)}
    assert winners == {1, 2}  # the hash reshuffles ties across iterations


def test_phase2_round_exactly_one_new_holder():
    """Two equal bidders on a kappa-2 deficit: the shared hash picks the same
    winner in both local auctions, so one robot claims it."""
    assets = mkassets([(0, 0, 2)])
    snap = wide_snap(
        [mkrobot(0, 0, 0, {0}), mkrobot(1, 3, 0), mkrobot(2, 4, 0)],
        assets,
        rnd=5,
    )
    plan, progress = phase2_round(snap, Config(), _View(snap))
    assert progress
    want = min((1, 2), key=lambda j: (h64(5, 0, j), j))
    assert sorted(plan) == [want]
    assert plan[want].assigned == frozenset({0})


def test_phase2_round_quiet_when_covered():
    assets = mkassets([(0, 0, 1)])
    snap = wide_snap([mkrobot(0, 0, 0, {0}), mkrobot(1, 3, 0)], assets)
    plan, progress = phase2_round(snap, Config(), _View(snap))
    assert not progress and plan == {}


def test_phase2_round_folds_wins_within_r_max():
    """A robot that wins two deficits it only knows through neighbors must
    fold them one by one: the second win here would stretch its disk past
    r_max and is left open for a later round."""
    assets = mkassets([(3.5, 0, 2), (-3.5, 0, 2)])
    snap = wide_snap(
        [mkrobot(0, 0, 0), mkrobot(1, 3.5, 0, {0}), mkrobot(2, -3.5, 0, {1})],
        assets,
        r_comm=100.0,
        r_max=3.0,
    )
    plan, progress = phase2_round(snap, Config(), _View(snap))
    assert progress
    # robot 0 is the only feasible bidder on both (the cross disks are 3.5)
    assert sorted(plan) == [0]
    assert plan[0].assigned == frozenset({0})
    assert plan[0].radius == 0.0


def test_fallback_assigns_nearest_to_biggest_capacity():
    assets = mkassets([(0, 0, 1), (30, 0, 1)])
    snap = wide_snap([mkrobot(0, 2, 0), mkrobot(1, 20, 0, {1}, radius=3.0)], assets, r_comm=30.0, r_max=10.0)
    plan, progress = fallback_assign(snap, Config(), _View(snap))
    assert progress
    # robot 0 has the larger spare capacity and takes its nearest deficit
    assert sorted(plan) == [0]
    assert plan[0].assigned == frozenset({0})


def test_fallback_releases_spare_to_reach_deficit():
    """The capacity actor frees a redundantly held asset (farthest first)
    when its grown disk would otherwise blow past r_max."""
    assets = mkassets([(13, 0, 1), (-5, 0, 1), (-12, 0, 2)])
    snap = wide_snap(
        [
            mkrobot(0, 4, 0, {0, 1}, radius=9.0),
            mkrobot(1, 13, 0, {0}),    # spare copy of asset 0, max capacity
            mkrobot(2, -12, 0, {2}),   # lone holder of the kappa-2 asset
        ],
        assets,
        r_comm=30.0,
        r_max=10.0,
    )
    plan, progress = fallback_assign(snap, Config(), _View(snap))
    assert progress
    assert sorted(plan) == [1]
    assert plan[1].assigned == frozenset({2})
    assert plan[1].pos == P(-12, 0)
    assert plan[1].radius == 0.0


def test_fallback_stalls_without_releasable_spares():
    # the only holder cannot abandon its asset, and the deficit is out of reach
    assets = mkassets([(0, 0, 1), (30, 0, 1)])
    snap = wide_snap([mkrobot(0, 0, 0, {0})], assets, r_comm=10.0, r_max=5.0)
    plan, progress = fallback_assign(snap, Config(), _View(snap))
    assert not progress and plan == {}


# -- pairwise transfers -------------------------------------------------------


def swap_fixture(rnd: int = 0):
    assets = mkassets([(0, 0, 1), (10, 0, 1), (12, 0, 1)])
    donor = mkrobot(0, 5, 0, {0, 1}, radius=5.0)
    recv = mkrobot(1, 12, 0, {2}, radius=0.0)
    return wide_snap([donor, recv], assets, rnd=rnd)


def verdict(snap, donor, receiver, asset_id, cfg):
    """The solve-always verdict of tests/reference.py, checked against the
    program's, which rejects by lower bounds on both disks before solving."""
    dec = evaluate_swap(snap, donor, receiver, asset_id, cfg)
    assert _evaluate_swap(_View(snap), donor, receiver, asset_id, cfg) == dec
    return dec


def test_evaluate_swap_accepts_boundary_transfer():
    dec = verdict(swap_fixture(), 0, 1, 1, Config())
    assert dec is not None
    assert dec.reduction == pytest.approx(24 * math.pi)
    assert (dec.donor_pos, dec.donor_radius) == (P(0, 0), 0.0)
    assert dec.receiver_pos == P(11, 0)
    assert dec.receiver_radius == pytest.approx(1.0)


def test_evaluate_swap_rejects_farther_receiver():
    snap = swap_fixture()
    # receiver sits farther from the asset than the donor: no transfer
    dec = verdict(snap, 1, 0, 2, Config())
    assert dec is None


def test_evaluate_swap_rejects_interior_asset():
    assets = mkassets([(0, 0, 1), (10, 0, 1), (9, 0, 1), (10.5, 0, 1)])
    donor = mkrobot(0, 5, 0, {0, 1, 2}, radius=5.0)
    recv = mkrobot(1, 10.5, 0, {3}, radius=0.0)
    snap = wide_snap([donor, recv], assets)
    # asset 2 is 4.0 from the donor center, under 0.9 * 5.0
    dec = verdict(snap, 0, 1, 2, Config())
    assert dec is None


def test_evaluate_swap_rejects_when_coverage_would_break():
    assets = mkassets([(0, 0, 1), (10, 0, 2), (12, 0, 1)])
    donor = mkrobot(0, 5, 0, {0, 1}, radius=5.0)
    recv = mkrobot(1, 12, 0, {2}, radius=0.0)
    snap = wide_snap([donor, recv], assets)
    # kappa=2 with a single visible holder: moving it can orphan the asset
    dec = verdict(snap, 0, 1, 1, Config())
    assert dec is None


def test_evaluate_swap_rejects_below_tau():
    # the donor disk is pinned by two other support assets, so handing the
    # rim asset to an empty receiver saves nothing
    assets = mkassets([(0, 0, 1), (10, 0, 1), (9.8, 1, 1)])
    donor = mkrobot(0, 5, 0, {0, 1, 2}, radius=5.0)
    recv = mkrobot(1, 9.8, 1.5, (), radius=0.0)
    snap = wide_snap([donor, recv], assets)
    dec = verdict(snap, 0, 1, 2, Config())
    assert dec is None


def test_donor_bound_rejects_without_solving():
    # Without asset 2 the donor still holds (0, 0) and (10, 0), so its disk
    # keeps a radius of at least 5 and the empty receiver saves nothing:
    # the bound rejects before the donor's disk is solved.
    assets = mkassets([(0, 0, 1), (10, 0, 1), (9.8, 1, 1)])
    donor = mkrobot(0, 5, 0, {0, 1, 2}, radius=5.0)
    recv = mkrobot(1, 9.8, 1.5, (), radius=0.0)
    view = _View(wide_snap([donor, recv], assets))
    assert 5.0 - 1e-8 < view.donor_bound(0, 2) < 5.0
    with mock.patch("swarmcover.protocol.min_enclosing_disk", side_effect=AssertionError("solved")):
        assert _evaluate_swap(view, 0, 1, 2, Config()) is None
    assert 2 not in view._donor_disks.get(0, {})


def unsolvable():
    """Patches both disk solvers to fail the test when called."""
    return mock.patch.multiple(
        "swarmcover.protocol",
        min_enclosing_disk=mock.Mock(side_effect=AssertionError("donor disk solved")),
        enclose_with_anchor=mock.Mock(side_effect=AssertionError("receiver disk solved")),
    )


def test_receiver_bound_rejects_on_tau_without_solving():
    # Without asset 2 the donor keeps (0, 0) and (9.8, 0), so it shrinks
    # from radius 5 to no less than 4.9: alone, that saves more than tau.
    # The receiver's disk must grow to hold asset 2 and (15.5, 0), 5.5 from
    # it, so to a radius of at least 2.75: the pair then grows, and the
    # bounds reject before either disk is solved.
    assets = mkassets([(0, 0, 1), (9.8, 0, 1), (10, 0, 1), (13.5, 0, 1), (15.5, 0, 1)])
    donor = mkrobot(0, 5, 0, {0, 1, 2}, radius=5.0)
    recv = mkrobot(1, 14.5, 0, {3, 4}, radius=1.0)
    snap = wide_snap([donor, recv], assets)
    assert verdict(snap, 0, 1, 2, Config()) is None
    view = _View(snap)
    assert 4.9 - 1e-8 < view.donor_bound(0, 2) < 4.9
    assert 2.75 - 1e-8 < _receiver_bound(view, view.robot[1], 2) < 2.75
    with unsolvable():
        assert _evaluate_swap(view, 0, 1, 2, Config()) is None
    assert 2 not in view._grown_disks.get(1, {})


def test_receiver_bound_rejects_on_r_max_without_solving():
    # The receiver would grow to hold (30, 0) and (20, 0), a disk of
    # radius at least 5, past r_max = 4.
    assets = mkassets([(30, 0, 1), (20, 0, 1)])
    snap = wide_snap([mkrobot(0, 0, 0, {0}), mkrobot(1, 20, 0, {1})], assets, r_max=4.0)
    assert verdict(snap, 0, 1, 0, Config()) is None
    view = _View(snap)
    assert 5.0 - 1e-8 < _receiver_bound(view, view.robot[1], 0) < 5.0
    with unsolvable():
        assert _evaluate_swap(view, 0, 1, 0, Config()) is None


def test_rim_bound_rejects_an_interior_asset_without_solving():
    # The donor's disk rests on an equilateral triangle of radius 10, and
    # asset 3 lies inside it, 9.5 from its center (past the 0.9 rim test):
    # without it the donor keeps its disk.  Two of the triangle's points
    # bound that radius by only 10 sqrt(3)/2 = 8.66; the rim bound, from
    # the donor's center in the triangle, by ~10.
    s = 10.0 * math.sqrt(3.0) / 2.0
    assets = mkassets([(0, 10, 1), (-s, -5, 1), (s, -5, 1), (9.5, 0, 1), (14, 0, 1)])
    disk = consolidate(P(0, 0), {0, 1, 2, 3}, assets)
    donor = mkrobot(0, disk.center.x, disk.center.y, {0, 1, 2, 3}, radius=disk.radius)
    snap = wide_snap([donor, mkrobot(1, 14, 0, {4})], assets)
    assert verdict(snap, 0, 1, 3, Config()) is None
    view = _View(snap)
    assert 10.0 - 2e-8 < view.donor_bound(0, 3) <= view.donor_disk(0, 3).radius
    view = _View(snap)
    with unsolvable():
        assert _evaluate_swap(view, 0, 1, 3, Config()) is None


@given(bound_cases())
@example((*_SLACK_CASE, 40.0))
@example(_LOOSE_CASE)
@settings(max_examples=400, deadline=None)
def test_receiver_bound_never_exceeds_the_grown_radius(case):
    # The receiver is robot 0 and the asset the case's own, which it does
    # not hold; the bound is taken only where its disk must grow.  The tau
    # test squares the radius, so the bound must stay below it after
    # squaring too.
    view = _View(bound_case_snapshot(case))
    robot, asset_id = view.robot[0], len(view.assets) - 1
    if dist(robot.pos, view.assets[asset_id].pos) <= robot.radius + CONTAINMENT_TOL:
        return
    bound, radius = _receiver_bound(view, robot, asset_id), _grow_disk(view, robot, asset_id).radius
    assert 0.0 <= bound <= radius
    assert bound ** 2 <= radius ** 2


def test_evaluate_swap_rejects_infeasible_receiver_growth():
    # inconsistent donor state (asset far outside its disk) exercises the
    # receiver-side r_max guard
    assets = mkassets([(30, 0, 1), (20, 0, 1)])
    snap = wide_snap([mkrobot(0, 0, 0, {0}), mkrobot(1, 20, 0, {1})], assets, r_max=4.0)
    dec = verdict(snap, 0, 1, 0, Config())
    assert dec is None


def test_evaluate_swap_validates_arguments():
    snap = swap_fixture()
    with pytest.raises(ValueError):
        evaluate_swap(snap, 0, 1, 2, Config())  # donor does not hold asset 2
    far = wide_snap(
        [mkrobot(0, 0, 0, {0}), mkrobot(1, 190, 0, {1})],
        mkassets([(0, 0, 1), (190, 0, 1)]),
        r_comm=20.0,
    )
    with pytest.raises(ValueError):
        evaluate_swap(far, 0, 1, 0, Config())


@st.composite
def gap_cases(draw):
    """A donor center, a receiver center and two donor assets, near the gap
    bound's edge: the receiver sits about 2t from the donor along the ray
    through the first asset (t its distance), a few ulps either way, or
    anywhere; the second asset sits about as far from the donor.  Near the
    origin or offset by 1e6."""
    ox, oy = draw(st.sampled_from([0.0, 1e6, -1e6])), draw(st.sampled_from([0.0, 1e6, -1e6]))
    dx, dy = ox + draw(_LOCAL), oy + draw(_LOCAL)
    angle = draw(st.floats(0.0, 2.0 * math.pi))
    t = draw(st.sampled_from([1e-6, 1.0, 10.0]) | st.floats(1e-3, 40.0))
    px, py = dx + t * math.cos(angle), dy + t * math.sin(angle)
    if draw(st.booleans()):
        rx = _nudge(2.0 * px - dx, draw(st.integers(-4, 4)))
        ry = _nudge(2.0 * py - dy, draw(st.integers(-4, 4)))
    else:
        rx, ry = ox + draw(_LOCAL), oy + draw(_LOCAL)
    turn = angle + draw(st.sampled_from([0.0, 1e-9, math.pi / 2.0]) | st.floats(0.0, 2.0 * math.pi))
    t2 = t * draw(st.sampled_from([1.0, 1.0 - 1e-15, 1.0 + 1e-15]) | st.floats(0.0, 1.0))
    qx, qy = _nudge(dx + t2 * math.cos(turn), draw(st.integers(-2, 2))), dy + t2 * math.sin(turn)
    return Point(dx, dy), Point(rx, ry), Point(px, py), Point(qx, qy)


# The receiver is the donor reflected through the asset, rounded: the gap
# reads exactly 2t, yet the receiver reads 1.8e-15 closer than the donor.
_GAP_EDGE = (
    Point(4.393532425740304, -27.843227643737972),
    Point(17.46684809862024, -42.97889470261687),
    Point(10.930190262180272, -35.41106117317742),
    Point(10.930190262180272, -35.41106117317742),
)


@given(gap_cases())
@example(_GAP_EDGE)
@settings(max_examples=600, deadline=None)
def test_gap_bound_prunes_only_what_the_closer_test_rejects(case):
    # Both assets are scanned farthest first, as the sweep orders them.  If
    # the first is pruned, the receiver must be no closer than the donor to
    # either one: the closer test of _evaluate_swap rejects both.
    donor, receiver, *assets = case
    first, second = sorted(assets, key=lambda p: -dist2(donor, p))
    gap = dist(donor, receiver)
    if _gap_prunes(gap, dist(first, donor)):
        for p in (first, second):
            assert not dist(p, receiver) < dist(p, donor)


def test_swap_round_executes_and_records():
    snap = swap_fixture(rnd=9)
    plan, progress, records = swap_round(snap, Config(), _View(snap))
    assert progress
    assert sorted(plan) == [0, 1]
    assert plan[0].assigned == frozenset({0})
    assert plan[1].assigned == frozenset({1, 2})
    (rec,) = records
    assert (rec.round, rec.donor, rec.receiver, rec.asset_id) == (9, 0, 1, 1)
    assert rec.pair_area_before == pytest.approx(25 * math.pi)
    assert rec.pair_area_after == pytest.approx(math.pi)


def test_swap_round_one_transfer_per_robot():
    """With three collinear robots the middle one is wanted by both sides,
    but a robot may participate in only one transfer per sweep."""
    assets = mkassets([(0, 0, 1), (10, 0, 1), (12, 0, 1), (22, 0, 1), (24, 0, 1)])
    snap = wide_snap(
        [
            mkrobot(0, 5, 0, {0, 1}, radius=5.0),
            mkrobot(1, 12, 0, {2}, radius=0.0),
            mkrobot(2, 23, 0, {3, 4}, radius=1.0),
        ],
        assets,
        r_comm=15.0,
    )
    plan, progress, records = swap_round(snap, Config(), _View(snap))
    assert progress
    assert len(records) == 1  # pair (0,1) moves first; robot 1 is then used
    touched = {records[0].donor, records[0].receiver}
    assert touched == {0, 1}


def test_swap_round_quiet_state():
    assets = mkassets([(0, 0, 1), (30, 0, 1)])
    snap = wide_snap([mkrobot(0, 0, 0, {0}), mkrobot(1, 30, 0, {1})], assets)
    plan, progress, records = swap_round(snap, Config(), _View(snap))
    assert not progress and plan == {} and records == ()


# -- guarded removals ---------------------------------------------------------


def test_phase3_removes_redundant_boundary_asset():
    assets = mkassets([(0, 0, 1), (4, 0, 1)])
    snap = wide_snap(
        [mkrobot(0, 2, 0, {0, 1}, radius=2.0), mkrobot(1, 4, 0, {1}, radius=0.0)],
        assets,
    )
    plan, progress = phase3_round(snap, Config(), _View(snap))
    assert progress
    assert sorted(plan) == [0]
    assert plan[0].assigned == frozenset({0})
    assert plan[0].radius == 0.0
    assert plan[0].pos == P(0, 0)


def test_phase3_contention_resolved_by_hash():
    """Two holders of a kappa-1 asset both want to drop it; the discount by
    lower-hash intents lets exactly one proceed."""
    assets = mkassets([(0, 0, 1), (5, 0, 1), (-5, 0, 1)])
    snap = wide_snap(
        [mkrobot(0, 2.5, 0, {0, 1}, radius=2.5), mkrobot(1, -2.5, 0, {0, 2}, radius=2.5)],
        assets,
        rnd=7,
    )
    plan, progress = phase3_round(snap, Config(), _View(snap))
    assert progress
    winner = min((0, 1), key=lambda j: (h64(7, 0, j), j))
    assert sorted(plan) == [winner]
    assert 0 not in plan[winner].assigned


def test_phase3_skips_interior_assets():
    # dropping the interior asset would not shrink the disk, so nothing moves
    assets = mkassets([(0, 0, 1), (4, 0, 1), (2, 1, 1)])
    snap = wide_snap(
        [mkrobot(0, 2, 0, {0, 1, 2}, radius=2.0), mkrobot(1, 2, 1, {2}, radius=0.0)],
        assets,
    )
    plan, progress = phase3_round(snap, Config(), _View(snap))
    assert not progress and plan == {}


def test_phase3_respects_kappa():
    assets = mkassets([(0, 0, 2), (4, 0, 1)])
    snap = wide_snap(
        [mkrobot(0, 2, 0, {0, 1}, radius=2.0), mkrobot(1, 0, 0, {0}, radius=0.0)],
        assets,
    )
    plan, progress = phase3_round(snap, Config(), _View(snap))
    # both holders are needed for the kappa-2 asset; nothing is removable
    assert not progress


# -- completion predicates ----------------------------------------------------


def test_coverage_satisfied_cases():
    assets = mkassets([(0, 0, 2)])
    two = wide_snap([mkrobot(0, 0, 0, {0}), mkrobot(1, 1, 0, {0})], assets)
    one = wide_snap([mkrobot(0, 0, 0, {0}), mkrobot(1, 1, 0)], assets)
    assert coverage_satisfied(two, _View(two))
    assert not coverage_satisfied(one, _View(one))


def test_coverage_satisfied_ignores_undiscovered():
    # nobody holds or senses the far asset: it does not block completion
    assets = mkassets([(0, 0, 1), (150, 0, 1)])
    snap = wide_snap([mkrobot(0, 0, 0, {0})], assets, r_max=40.0)
    assert coverage_satisfied(snap, _View(snap))
    # a robot that could sense it makes the deficit real
    near = wide_snap([mkrobot(0, 0, 0, {0}), mkrobot(1, 140, 0)], assets, r_max=40.0)
    assert not coverage_satisfied(near, _View(near))


def test_holders_certified_detects_blind_custodian():
    assets = mkassets([(0, 0, 2)])
    split = wide_snap([mkrobot(0, 0, 0, {0}), mkrobot(1, 100, 0, {0})], assets, r_comm=55.0)
    assert coverage_satisfied(split, _View(split))  # omnisciently fine
    assert not holders_certified(split, _View(split))  # neither holder can verify it
    joined = wide_snap([mkrobot(0, 0, 0, {0}), mkrobot(1, 50, 0, {0})], assets, r_comm=55.0)
    assert holders_certified(joined, _View(joined))


def test_holders_certified_ignores_non_holding_observers():
    # the far observer cannot verify the asset, but it holds nothing, so the
    # certificate only consults the custodian
    assets = mkassets([(0, 0, 1)])
    snap = wide_snap([mkrobot(0, 0, 0, {0}), mkrobot(1, 150, 0)], assets, r_comm=55.0)
    assert holders_certified(snap, _View(snap))
