"""Equivalence of the locality-bounded queries with their brute-force
references.

Sensing, the neighbor map, Lloyd's nearest-robot search and the cover
counts of `summarize` scan squared distances in the blocks of
`geometry.sq_dist_blocks`, at any block size; those cover counts are
carried from round to round in a `metrics.CoverTally`; each robot's
knowledge, cover counts and deficits come from the round's view alone, as
robot x asset matrices whose count dtype must not wrap; the completion
test (`coverage_satisfied`, against the holder `Counter` and sensing scan
of `reference.coverage_satisfied`) and certificate read those matrices,
and each robot's releasable assets its counts against kappa; the swap
sweep reads memoized disks and candidate lists from that view, and the
auctions list their auctioneers and candidates from its matrices and
decide every auctioneer's deficit from one sorted list of bids per asset,
ranked by bounds that one vectorized pass computes for the whole round,
pricing the bids that one walk per auctioneer's group prices.
Each must give exactly what the all-pairs or scalar definition gives,
including at exactly the threshold distance, at negative coordinates, with
zero radii, dead robots, no alive robot or no asset, with ties, and when
r_comm equals r_max.
The view `run` carries from round to round must equal a fresh view of each
round, memos and neighbor map included, split the neighbor pairs into clean
ones and the sweep's work, and classify completion as the reference does.
A fresh view comes out of the same update, so the carried view's alive
robots, neighbor map and cover counts are also checked against the
snapshot's own: `engine.neighbor_map` and `reference.cover_counts`.
The carried tally must give the counts of a recount of each round.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmcover.engine import (
    AddAssets,
    AssetSpec,
    Event,
    KillRobot,
    Params,
    Phase,
    Proposal,
    RobotState,
    WorldSnapshot,
    neighbor_map,
    step,
)
from swarmcover import geometry
from swarmcover.geometry import CONTAINMENT_TOL, Point, dist, dist2
from swarmcover.instances import Asset, Workspace
from swarmcover.metrics import CoverTally, summarize
from swarmcover.protocol import (
    Config,
    RunStatus,
    SwapRecord,
    _auction_candidates,
    _bid,
    _bid_bounds,
    _donor_bound,
    _evaluate_swap,
    _grow_disk,
    _swap_candidates,
    _View,
    consolidate,
    coverage_satisfied,
    has_undercovered_views,
    holders_certified,
    lloyd_round,
    phase2_round,
    run,
    select_winner,
    swap_round,
)
import reference
from reference import bid_bound, coverage_count, evaluate_swap, neighbors, sense
from test_golden import event_mission, ladder_250
from test_protocol import _SLACK_CASE, bound_case_snapshot, bound_cases

WS = Workspace(-120.0, 120.0, -120.0, 120.0)

radii = st.sampled_from([2.5, 10.0, 40.0]) | st.floats(0.5, 60.0)


def coords(*steps: float):
    """Plain coordinates, plus exact multiples of each step given: with a
    radius as the step, pairs land at exactly that distance."""
    plain = st.floats(-120.0, 120.0, allow_nan=False, allow_infinity=False)
    multiples = [st.integers(-6, 6).map(lambda k, c=c: k * c) for c in steps]
    return st.one_of(plain, *multiples)


@st.composite
def worlds(draw, max_robots: int = 12, max_assets: int = 30) -> WorldSnapshot:
    """A snapshot with arbitrary positions, zero and nonzero radii, dead
    robots, and r_comm sometimes equal to r_max."""
    r_max = draw(radii)
    r_comm = draw(st.just(r_max) | radii)
    coord = coords(r_max, r_comm)
    n_assets = draw(st.integers(0, max_assets))
    assets = tuple(Asset(i, Point(draw(coord), draw(coord)), draw(st.integers(1, 3))) for i in range(n_assets))
    zero_radii = draw(st.booleans())  # the all-zero radii of round 0
    robots = []
    for i in range(draw(st.integers(0, max_robots))):
        pos = Point(draw(coord), draw(coord))
        if not draw(st.integers(0, 4)):
            robots.append(RobotState(i, pos, 0.0, frozenset(), False))
            continue
        radius = 0.0 if zero_radii else draw(st.just(0.0) | st.floats(0.0, r_max))
        held = draw(st.frozensets(st.integers(0, n_assets - 1), max_size=5)) if n_assets else frozenset()
        robots.append(RobotState(i, pos, radius, held, True))
    return WorldSnapshot(0, Phase.EXPLORE, tuple(robots), assets, Params(WS, len(robots), r_comm, r_max))


# Distances per kernel block: the default, and sizes that split every scan
# of these small worlds into one row, or a few rows, per block.
blocks = st.sampled_from([geometry._BLOCK, 1, 7])

# A world whose robots are all dead, and one with no assets.
NO_ALIVE = WorldSnapshot(
    0,
    Phase.EXPLORE,
    (RobotState(0, Point(0.0, 0.0), 0.0, frozenset(), False), RobotState(1, Point(5.0, 0.0), 0.0, frozenset(), False)),
    (Asset(0, Point(1.0, 0.0), 1), Asset(1, Point(-3.0, 4.0), 2)),
    Params(WS, 2, 55.0, 40.0),
)
NO_ASSETS = WorldSnapshot(
    0,
    Phase.EXPLORE,
    (RobotState(0, Point(0.0, 0.0), 3.0, frozenset(), True), RobotState(1, Point(40.0, 0.0), 0.0, frozenset(), True)),
    (),
    Params(WS, 2, 40.0, 40.0),
)


@given(worlds(), blocks)
@example(NO_ALIVE, 1)
@example(NO_ASSETS, 7)
@settings(max_examples=150, deadline=None)
def test_neighbor_map_matches_pairwise_neighbors(snap, block):
    with mock.patch.object(geometry, "_BLOCK", block):
        nm = neighbor_map(snap)
    assert sorted(nm) == [r.id for r in snap.robots if r.alive]
    for rid, ids in nm.items():
        assert list(ids) == sorted(neighbors(snap, rid))


@given(worlds(), blocks)
@example(NO_ALIVE, 1)
@example(NO_ASSETS, 7)
@settings(max_examples=150, deadline=None)
def test_view_sensing_matches_sense(snap, block):
    with mock.patch.object(geometry, "_BLOCK", block):
        view = _View(snap)
    want = np.zeros((len(snap.robots), len(snap.assets)), dtype=bool)
    for r in snap.robots:
        if r.alive:
            want[r.id, sorted(sense(r, snap.assets, snap.params.r_max))] = True
    assert_same_array(view.sensed, want)


def assert_same_array(got: np.ndarray, want: np.ndarray) -> None:
    """Same shape, same dtype, same values."""
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert np.array_equal(got, want)


def matrix_reference(snapshot: WorldSnapshot, cell, dtype) -> np.ndarray:
    """cell(rid, asset_id) at every alive robot's row and every asset's
    column, and zero in the rows of dead robots."""
    got = np.zeros((len(snapshot.robots), len(snapshot.assets)), dtype=dtype)
    for r in snapshot.robots:
        if r.alive:
            got[r.id] = [cell(r.id, a.id) for a in snapshot.assets]
    return got


def knowledge_reference(snapshot: WorldSnapshot, rid: int) -> set[int]:
    """Everything robot rid can reason about: the assets it senses, its own
    assignment, and the assignment lists its neighbors share."""
    me = snapshot.robots[rid]
    out = sense(me, snapshot.assets, snapshot.params.r_max)
    out.update(me.assigned)
    for j in neighbors(snapshot, rid):
        out.update(snapshot.robots[j].assigned)
    return out


def local_coverage_reference(snapshot: WorldSnapshot, rid: int, asset_id: int) -> int:
    """Membership cover count as robot rid sees it: itself plus every alive
    robot within r_comm whose assignment list contains the asset."""
    me = snapshot.robots[rid]
    count = 1 if asset_id in me.assigned else 0
    thr2 = snapshot.params.r_comm ** 2
    for r in snapshot.robots:
        if r.id == rid or not r.alive:
            continue
        if asset_id in r.assigned and dist2(r.pos, me.pos) <= thr2:
            count += 1
    return count


def deficits_reference(snapshot: WorldSnapshot, rid: int) -> list[int]:
    """Known, not held by rid, and counted below kappa by rid."""
    held = snapshot.robots[rid].assigned
    return [
        a.id
        for a in snapshot.assets
        if a.id in knowledge_reference(snapshot, rid)
        and a.id not in held
        and local_coverage_reference(snapshot, rid, a.id) < a.kappa
    ]


@given(worlds())
@settings(max_examples=150, deadline=None)
def test_view_knowledge_matches_brute_force(snap):
    view = _View(snap)
    for rid in view.alive_ids:
        known = view.known(rid)
        want = [a.id in knowledge_reference(snap, rid) for a in snap.assets]
        assert_same_array(known, np.array(want, dtype=bool))
        known[:] = ~known  # a fresh row: the view keeps its own
        assert view.known(rid).tolist() == want


@given(worlds())
@settings(max_examples=150, deadline=None)
def test_view_cover_matches_brute_force(snap):
    view = _View(snap)
    # The smallest unsigned dtype that holds m + 1.
    dtype = np.min_scalar_type(len(snap.robots) + 1)
    want = matrix_reference(snap, lambda rid, a: local_coverage_reference(snap, rid, a), dtype)
    assert_same_array(view.cover, want)
    assert_same_array(view.held, matrix_reference(snap, lambda rid, a: a in snap.robots[rid].assigned, bool))
    for rid in view.alive_ids:
        assert all(view.local_coverage(rid, a.id) == want[rid, a.id] for a in snap.assets)


@given(worlds())
@settings(max_examples=150, deadline=None)
def test_view_deficits_match_brute_force(snap):
    view = _View(snap)
    alive = [r.id for r in snap.robots if r.alive]
    want = {rid: deficits_reference(snap, rid) for rid in alive}
    for rid in alive:
        assert view.deficits(rid) == want[rid]
    everyone = slice(None)
    known = matrix_reference(snap, lambda rid, a: a in knowledge_reference(snap, rid), bool)
    assert_same_array(view.known(everyone), known)
    assert_same_array(view.deficit_mask(everyone), matrix_reference(snap, lambda rid, a: a in want[rid], bool))
    assert has_undercovered_views(snap) == any(want.values())


@pytest.mark.parametrize("m", [255, 256, 300])
@pytest.mark.parametrize("shift", [-1, 0, 1])
def test_view_counts_more_holders_than_a_byte_holds(m, shift):
    # m robots at one point: all hold asset 0 and all but robot 0 hold
    # asset 1, with kappas around those counts.  A count of 256 wraps to 0
    # in a byte, and a kappa of 256 capped at 255 would pass a count of 255.
    assets = (Asset(0, Point(0.0, 0.0), m + shift), Asset(1, Point(0.5, 0.0), m - 1 + shift))
    robots = tuple(RobotState(i, Point(0.0, 0.0), 0.5, frozenset({0, 1} if i else {0}), True) for i in range(m))
    snap = WorldSnapshot(0, Phase.OPTIMIZE, robots, assets, Params(WS, m, 55.0, 40.0))
    view = _View(snap)
    assert view.cover.dtype == np.min_scalar_type(m + 1)
    for rid in (0, 1, m - 1):
        assert [view.local_coverage(rid, a) for a in (0, 1)] == [local_coverage_reference(snap, rid, a) for a in (0, 1)]
        assert view.deficits(rid) == deficits_reference(snap, rid)
    assert holders_certified(snap, view) == certificate_reference(snap)


@given(worlds(), blocks)
@example(NO_ALIVE, 1)
@example(NO_ASSETS, 7)
@settings(max_examples=150, deadline=None)
def test_summarize_counts_match_coverage_count(snap, block):
    with mock.patch.object(geometry, "_BLOCK", block):
        rm = summarize(snap)
    counts = [(coverage_count(snap, a.pos), a.kappa) for a in snap.assets]
    assert rm.undercovered_count == sum(1 for c, k in counts if c < k)
    assert rm.overcovered_count == sum(1 for c, k in counts if c > k)


def test_summarize_counts_assets_on_the_rim_at_every_offset():
    # Rows of one robot each, far apart; every robot's disk passes exactly
    # through its asset, as the robot slides along x in small steps.
    radius = 10.0
    robots, assets = [], []
    for i in range(600):
        x = -12.0 + 0.041 * i
        robots.append(RobotState(i, Point(x, 100.0 * i), radius, frozenset({i}), True))
        assets.append(Asset(i, Point(x + radius, 100.0 * i), 1))
    snap = WorldSnapshot(3, Phase.OPTIMIZE, tuple(robots), tuple(assets), Params(WS, len(robots), 55.0, 40.0))
    assert all(coverage_count(snap, a.pos) == 1 for a in assets)
    rm = summarize(snap)
    assert (rm.undercovered_count, rm.overcovered_count) == (0, 0)


def lloyd_reference(snapshot: WorldSnapshot) -> dict[int, Proposal]:
    """Lloyd's iteration with the nearest sensing robot found by scanning
    every alive robot for every asset."""
    alive = [r for r in snapshot.robots if r.alive]
    r_max = snapshot.params.r_max
    cells: dict[int, list[int]] = {}
    for a in snapshot.assets:
        best = None
        for r in alive:
            d2 = dist2(r.pos, a.pos)
            if d2 <= r_max * r_max and (best is None or (d2, r.id) < best):
                best = (d2, r.id)
        if best is not None:
            cells.setdefault(best[1], []).append(a.id)
    out = {}
    for r in alive:
        cell = cells.get(r.id)
        if not cell:
            out[r.id] = Proposal(r.pos, 0.0, frozenset())
            continue
        xs = ys = 0.0
        for a in cell:  # left to right: the builtin sum() compensates from Python 3.12
            xs += snapshot.assets[a].pos.x
            ys += snapshot.assets[a].pos.y
        centroid = Point(xs / len(cell), ys / len(cell))
        maxd = max(dist(centroid, snapshot.assets[a].pos) for a in cell)
        out[r.id] = Proposal(centroid, min(maxd, r_max), frozenset(cell))
    return out


@st.composite
def tied_worlds(draw) -> WorldSnapshot:
    """A world of `worlds()` plus an asset at integer coordinates and two
    alive robots exactly as far from it, at integer offsets (u, v) and
    (-v, u) or (v, -u); (24, 32) puts both at exactly r_max when it is 40."""
    snap = draw(worlds())
    ax, ay = draw(st.integers(-100, 100)), draw(st.integers(-100, 100))
    u, v = draw(st.tuples(st.integers(-45, 45), st.integers(-45, 45)) | st.just((24, 32)))
    other = draw(st.sampled_from([(-v, u), (v, -u)]))
    assets = (*snap.assets, Asset(len(snap.assets), Point(float(ax), float(ay)), 1))
    n = len(snap.robots)
    twins = [
        RobotState(n + k, Point(float(ax + du), float(ay + dv)), 0.0, frozenset(), True)
        for k, (du, dv) in enumerate(draw(st.permutations([(u, v), other])))
    ]
    robots = (*snap.robots, *twins)
    return replace(snap, robots=robots, assets=assets, params=replace(snap.params, m=len(robots)))


@given(worlds() | tied_worlds(), blocks)
@example(NO_ALIVE, 1)
@example(NO_ASSETS, 7)
@settings(max_examples=300, deadline=None)
def test_lloyd_round_matches_brute_force_reference(snap, block):
    with mock.patch.object(geometry, "_BLOCK", block):
        got = lloyd_round(snap)
    assert got == lloyd_reference(snap)


# -- swap sweep ---------------------------------------------------------------


def sweep_reference(snapshot: WorldSnapshot, cfg: Config):
    """The swap sweep with every candidate judged by the public
    evaluate_swap, which builds a fresh view on each call: no memo, no
    candidate pre-filter."""
    nm = neighbor_map(snapshot)
    pairs = sorted({(min(i, j), max(i, j)) for i in nm for j in nm[i]})
    used_robots: set[int] = set()
    used_assets: set[int] = set()
    proposals: dict[int, Proposal] = {}
    records = []
    for i, j in pairs:
        if i in used_robots or j in used_robots:
            continue
        best = None
        for donor, receiver in ((i, j), (j, i)):
            dr = snapshot.robots[donor]
            for asset_id in sorted(dr.assigned, key=lambda a: (-dist2(dr.pos, snapshot.assets[a].pos), a)):
                if asset_id in used_assets:
                    continue
                dec = evaluate_swap(snapshot, donor, receiver, asset_id, cfg)
                if dec is not None:
                    if best is None or dec.reduction > best[0]:
                        best = (dec.reduction, donor, receiver, asset_id, dec)
                    break
        if best is None:
            continue
        _, donor, receiver, asset_id, dec = best
        dr, rr = snapshot.robots[donor], snapshot.robots[receiver]
        proposals[donor] = Proposal(dec.donor_pos, dec.donor_radius, dr.assigned - {asset_id})
        proposals[receiver] = Proposal(dec.receiver_pos, dec.receiver_radius, rr.assigned | {asset_id})
        used_robots.update((donor, receiver))
        used_assets.add(asset_id)
        before = math.pi * (dr.radius**2 + rr.radius**2)
        records.append(SwapRecord(snapshot.round, donor, receiver, asset_id, before, before - dec.reduction))
    return proposals, bool(proposals), tuple(records)


def holding_snapshot(asset_rows, holdings, r_comm, r_max, dead=()):
    """Robots sit on the enclosing disk of what they hold, as after
    consolidation; a robot holding nothing sits at its given point."""
    assets = tuple(Asset(i, Point(x, y), k) for i, (x, y, k) in enumerate(asset_rows))
    robots = []
    for rid, (anchor, held) in enumerate(holdings):
        if rid in dead:
            robots.append(RobotState(rid, anchor, 0.0, frozenset(), False))
            continue
        d = consolidate(anchor, held, assets)
        robots.append(RobotState(rid, d.center, min(d.radius, r_max), frozenset(held), True))
    return WorldSnapshot(5, Phase.REFINE, tuple(robots), assets, Params(WS, len(robots), r_comm, r_max))


# Robot 0 holds a wide spread that its three neighbors sit next to; each
# of them can take a rim asset off it.
SHARED_DONOR = holding_snapshot(
    [(0.0, 0.0, 1), (18.0, 0.0, 1), (-18.0, 0.0, 1), (0.0, 18.0, 1), (22.0, 2.0, 1), (-22.0, 2.0, 1), (2.0, 22.0, 1)],
    [
        (Point(0.0, 0.0), {0, 1, 2, 3}),
        (Point(22.0, 2.0), {4}),
        (Point(-22.0, 2.0), {5}),
        (Point(2.0, 22.0), {6}),
    ],
    r_comm=55.0,
    r_max=40.0,
)


@st.composite
def holding_worlds(draw) -> WorldSnapshot:
    n_assets = draw(st.integers(1, 14))
    coord = st.floats(-30.0, 30.0, allow_nan=False) | st.integers(-3, 3).map(lambda k: 10.0 * k)
    rows = [(draw(coord), draw(coord), draw(st.integers(1, 2))) for _ in range(n_assets)]
    m = draw(st.integers(2, 6))
    holdings = [
        (Point(draw(coord), draw(coord)), draw(st.frozensets(st.integers(0, n_assets - 1), max_size=6)))
        for _ in range(m)
    ]
    r_comm = draw(st.sampled_from([20.0, 40.0, 90.0]))
    dead = draw(st.frozensets(st.integers(0, m - 1), max_size=1))
    return holding_snapshot(rows, holdings, r_comm, 60.0, dead)


def test_shared_donor_fixture_transfers():
    plan, progress, records = swap_round(SHARED_DONOR, Config(), _View(SHARED_DONOR))
    assert progress
    assert len(neighbor_map(SHARED_DONOR)[0]) == 3
    assert [r.donor for r in records] == [0]


@given(holding_worlds(), st.sampled_from([0.005, 0.05]))
@example(SHARED_DONOR, 0.005)
@settings(max_examples=120, deadline=None)
def test_swap_round_matches_fresh_view_evaluations(snap, tau):
    cfg = Config(tau=tau)
    got = swap_round(snap, cfg, _View(snap))
    assert got == sweep_reference(snap, cfg)
    plan, _, records = got
    for rec in records:
        dec = evaluate_swap(snap, rec.donor, rec.receiver, rec.asset_id, cfg)
        assert dec is not None
        assert (plan[rec.donor].pos, plan[rec.donor].radius) == (dec.donor_pos, dec.donor_radius)
        assert (plan[rec.receiver].pos, plan[rec.receiver].radius) == (dec.receiver_pos, dec.receiver_radius)


def test_clean_pairs_hold_for_one_config_and_seed():
    # No transfer pays off by 1000%, so the first sweep leaves every pair
    # clean; a sweep with another config must not skip them.
    view = _View(SHARED_DONOR)
    assert swap_round(SHARED_DONOR, Config(tau=10.0), view) == ({}, False, ())
    assert clean_pairs(view)
    assert swap_round(SHARED_DONOR, Config(), view) == swap_round(SHARED_DONOR, Config(), _View(SHARED_DONOR))
    # The candidate lists hang on the rim test's boundary factor: a rim
    # beyond every asset leaves robot 0 with none.
    rimless = Config(boundary_factor=1.5)
    assert swap_round(SHARED_DONOR, rimless, view) == ({}, False, ())
    assert view.candidates[0] == []
    assert_view_is_fresh(view)


@given(holding_worlds(), st.sampled_from([0.005, 0.05, 0.3, 2.0]), st.sampled_from([0.1, 0.5, 0.9]))
@example(SHARED_DONOR, 0.005, 0.9)
@settings(max_examples=150, deadline=None)
def test_evaluate_swap_matches_the_solve_always_rule(snap, tau, boundary_factor):
    # Every transfer of every neighbor pair, on one view whose memos fill
    # as the verdicts are taken, against the reference that solves the
    # donor's disk each time.
    cfg = Config(tau=tau, boundary_factor=boundary_factor)
    view = _View(snap)
    for donor in view.alive_ids:
        for receiver in view.nbrs[donor]:
            for asset_id in sorted(view.robot[donor].assigned):
                got = outcome(lambda: _evaluate_swap(view, donor, receiver, asset_id, cfg))
                assert got == outcome(lambda: evaluate_swap(snap, donor, receiver, asset_id, cfg))


@st.composite
def tight_held_sets(draw):
    """A robot's held points where the donor bound sits closest to the
    solved radius: on a circle (a regular polygon, with antipodal pairs
    when its order is even, or random angles), each point's distance from
    the circle's center off by up to a relative 1e-6, the width of the rim
    bound's band, and sometimes one more point inside the ring; or
    near-coincident.  Each point is jittered by ~1e-10 m, near the origin
    or offset by 1e6 m.  The robot sits on the solved center, on the
    circle's center or off both: the bound must hold for any center."""
    ox, oy = draw(st.sampled_from([0.0, 1e6, -1e6])), draw(st.sampled_from([0.0, 1e6]))
    n = draw(st.integers(1, 9))
    jitter = st.sampled_from([0.0, 1e-10, -1e-10]) | st.floats(-1e-10, 1e-10)
    if draw(st.booleans()):
        radius = draw(st.sampled_from([1e-9, 2e-9, 1e-6, 1.0, 39.99, 40.0]) | st.floats(1e-9, 40.0))
        if draw(st.booleans()):
            turn = draw(st.floats(0.0, 2.0 * math.pi))
            angles = [turn + 2.0 * math.pi * k / n for k in range(n)]
        else:
            angles = [draw(st.floats(0.0, 2.0 * math.pi)) for _ in range(n)]
        spread = st.sampled_from([0.0, 1e-7, -1e-7, -1e-6]) | st.floats(-1e-6, 1e-6)
        radii = [radius * (1.0 + draw(spread)) for _ in angles]
        if draw(st.booleans()):
            angles.append(draw(st.floats(0.0, 2.0 * math.pi)))
            radii.append(radius * draw(st.sampled_from([0.0, 0.9, 1.0 - 1e-5]) | st.floats(0.0, 0.99)))
    else:
        radius, angles, radii = 0.0, [0.0] * n, [0.0] * n
    pts = [
        Point(ox + r * math.cos(a) + draw(jitter), oy + r * math.sin(a) + draw(jitter))
        for a, r in zip(angles, radii)
    ]
    off = st.sampled_from([1e-10, -1e-9, 1e-3]) | st.floats(-1.0, 1.0)
    scale = max(radius, 1e-9)
    center = draw(
        st.sampled_from([None, Point(ox, oy)])
        | st.builds(lambda dx, dy: Point(ox + dx * scale, oy + dy * scale), off, off)
    )
    return pts, center


@given(tight_held_sets())
@settings(max_examples=400, deadline=None)
def test_donor_bound_is_below_the_solved_radius(case):
    # The tau test squares the radius, so the bound must stay below it
    # after squaring too.
    pts, center = case
    assets = tuple(Asset(i, p, 1) for i, p in enumerate(pts))
    held = frozenset(range(len(pts)))
    disk = consolidate(pts[0], held, assets)
    pos = disk.center if center is None else center
    robot = RobotState(0, pos, disk.radius, held, True)
    snap = WorldSnapshot(5, Phase.REFINE, (robot,), assets, Params(WS, 1, 55.0, 60.0))
    view = _View(snap)
    for asset_id in held:
        bound = view.donor_bound(0, asset_id)
        radius = view.donor_disk(0, asset_id).radius
        assert 0.0 <= bound <= radius
        assert bound ** 2 <= radius ** 2


@pytest.mark.parametrize("enters", [True, False])
@pytest.mark.parametrize("shares", [True, False])
def test_clean_pair_is_voided_by_a_neighbor_only_over_held_assets(enters, shares):
    # Robot 2 comes into or goes out of range of the clean pair (0, 1).  It
    # changes robot 0's cover count of asset 0, which robot 0 holds, only
    # when it holds asset 0 too; otherwise the pair's verdict reads nothing
    # that changed, and the pair stays clean.
    held = {0, 2} if shares else {2}
    snap = holding_snapshot(
        [(0.0, 0.0, 1), (10.0, 0.0, 1), (60.0, 0.0, 1)],
        [(Point(0.0, 0.0), {0}), (Point(10.0, 0.0), {1}), (Point(60.0, 0.0), held)],
        r_comm=15.0,
        r_max=40.0,
    )
    near, far = Point(5.0, 5.0), Point(60.0, 30.0)
    first, then = (far, near) if enters else (near, far)
    snap = replace(snap, robots=(*snap.robots[:2], replace(snap.robots[2], pos=first)))
    cfg = Config(tau=10.0)  # no transfer pays off by 1000%
    view = _View(snap)
    assert swap_round(snap, cfg, view) == ({}, False, ())
    assert (0, 1) in clean_pairs(view)
    snap = replace(snap, robots=(*snap.robots[:2], replace(snap.robots[2], pos=then)))
    view.update(snap)
    assert ((0, 1) in clean_pairs(view)) is not shares
    assert (0 in view.candidates) is not shares
    assert_view_is_fresh(view)
    assert swap_round(snap, cfg, view) == swap_round(snap, cfg, _View(snap))


def test_view_memoizes_swap_disks():
    view = _View(SHARED_DONOR)
    first = view.donor_disk(0, 1)
    assert view.donor_disk(0, 1) is first
    assert first == consolidate(SHARED_DONOR.robots[0].pos, {0, 2, 3}, SHARED_DONOR.assets)
    grown = view.grown_disk(1, 1)
    assert view.grown_disk(1, 1) is grown


def certificate_reference(snapshot: WorldSnapshot) -> bool:
    """Every alive holder counts at least kappa holders of each of its
    assets among itself and the robots within r_comm."""
    return all(
        local_coverage_reference(snapshot, r.id, a) >= snapshot.assets[a].kappa
        for r in snapshot.robots
        if r.alive
        for a in r.assigned
    )


@given(st.one_of(worlds(), holding_worlds()))
@settings(max_examples=200, deadline=None)
def test_holders_certified_matches_brute_force(snap):
    assert holders_certified(snap, _View(snap)) == certificate_reference(snap)


def completion_case(robots, assets) -> WorldSnapshot:
    return WorldSnapshot(3, Phase.OPTIMIZE, tuple(robots), tuple(assets), Params(WS, len(robots), 55.0, 40.0))


# Robot 0 holds asset 0 and is the only observer of asset 1, which nobody
# holds, at exactly r_max (24^2 + 32^2 = 40^2, exact in binary).
RIM_OBSERVER = completion_case(
    [RobotState(0, Point(0.0, 0.0), 0.0, frozenset({0}), True)],
    [Asset(0, Point(0.0, 0.0), 1), Asset(1, Point(-24.0, 32.0), 1)],
)
# Two holders of an asset whose kappa, 4, is above m + 1; both also hold
# a kappa-1 asset, which either could release.
KAPPA_ABOVE_M = completion_case(
    [RobotState(i, Point(float(i), 0.0), 1.0, frozenset({0, 1}), True) for i in range(2)],
    [Asset(0, Point(0.0, 0.0), 4), Asset(1, Point(1.0, 0.0), 1)],
)
# A dead robot sits on asset 0; the one alive robot is beyond r_max of it.
DEAD_OBSERVER = completion_case(
    [RobotState(0, Point(0.0, 0.0), 0.0, frozenset(), False), RobotState(1, Point(100.0, 0.0), 0.0, frozenset({1}), True)],
    [Asset(0, Point(0.0, 0.0), 1), Asset(1, Point(100.0, 0.0), 1)],
)


def test_completion_fixtures():
    assert [reference.coverage_satisfied(s) for s in (RIM_OBSERVER, KAPPA_ABOVE_M, DEAD_OBSERVER)] == [False, False, True]
    assert reference.releasable(_View(KAPPA_ABOVE_M), 0) == [1]


@given(st.one_of(worlds(), holding_worlds()))
@example(RIM_OBSERVER)
@example(KAPPA_ABOVE_M)
@example(DEAD_OBSERVER)
@example(NO_ALIVE)
@example(NO_ASSETS)
@settings(max_examples=200, deadline=None)
def test_completion_and_release_read_the_view(snap):
    view = _View(snap)
    assert coverage_satisfied(snap, view) == reference.coverage_satisfied(snap)
    for rid in view.alive_ids:
        assert view.releasable(rid) == reference.releasable(view, rid)


# -- auctions -----------------------------------------------------------------


def auction_reference(snapshot: WorldSnapshot, cfg: Config):
    """The auction round robot by robot: every auctioneer prices its whole
    group for each of its deficits and asks select_winner; wins are grown
    in the order each robot collected them."""
    view = _View(snapshot)
    r_max = snapshot.params.r_max
    wins: dict[int, list[int]] = {}
    for rid in view.alive_ids:
        group = sorted((rid, *view.nbrs[rid]))
        for asset_id in view.deficits(rid):
            bids = {
                j: _bid(view, view.robot[j], asset_id)[0]
                for j in group
                if asset_id not in view.robot[j].assigned and view.known(j)[asset_id]
            }
            if select_winner(asset_id, bids, snapshot.round, cfg.eps) == rid:
                wins.setdefault(rid, []).append(asset_id)
    proposals = {}
    for rid in sorted(wins):
        cur = view.robot[rid]
        for asset_id in wins[rid]:
            d = _grow_disk(view, cur, asset_id)
            if d.radius <= r_max:
                cur = replace(cur, pos=d.center, radius=d.radius, assigned=cur.assigned | {asset_id})
        if cur is not view.robot[rid]:
            proposals[rid] = Proposal(cur.pos, cur.radius, cur.assigned)
    return proposals, bool(proposals)


# Two empty robots price the asset between them at 0.0 each: the h64 hash
# decides, and at round 0 it picks robot 1.
TIED_BIDDERS = holding_snapshot([(0.0, 0.0, 1)], [(Point(-5.0, 0.0), set()), (Point(5.0, 0.0), set())], 55.0, 40.0)

# Robot 0 alone sees asset 0 uncovered.  Robot 1 knows it through robot 2,
# its holder, and would bid 0.0, the best bid, but it is nobody's neighbor
# who auctions the asset: robot 0 must still win its own auction.
HIDDEN_BIDDER = holding_snapshot(
    [(0.0, 0.0, 1), (-50.0, 0.0, 1), (-30.0, 0.0, 1), (60.0, 0.0, 1)],
    [(Point(-40.0, 0.0), {1, 2}), (Point(80.0, 0.0), set()), (Point(30.0, 0.0), {0, 3})],
    55.0,
    40.0,
)

# Robot 0 auctions asset 0.  Its neighbor, robot 1, sees robot 2 hold it,
# so robot 1 auctions nothing, but it underbids robot 0 and wins robot 0's
# auction: nobody claims the asset.
NEIGHBOR_UNDERBIDS = holding_snapshot(
    [(0.0, 0.0, 1), (-50.0, 0.0, 1), (-30.0, 0.0, 1), (60.0, 0.0, 1)],
    [(Point(-40.0, 0.0), {1, 2}), (Point(5.0, 0.0), set()), (Point(30.0, 0.0), {0, 3})],
    55.0,
    40.0,
)

# Robots 0 and 2 both auction asset 0, and are not neighbors.  Robot 2's
# bid of 0.0 is the best of all, but only robot 1 sees it; robot 0 must win
# its own auction, with the highest bid of the three.
RIVAL_GROUPS = holding_snapshot(
    [(0.0, 0.0, 1), (-50.0, 0.0, 1), (-30.0, 0.0, 1), (30.0, 0.0, 1), (46.0, 0.0, 1)],
    [(Point(-40.0, 0.0), {1, 2}), (Point(38.0, 0.0), {3, 4}), (Point(20.0, 30.0), set())],
    55.0,
    40.0,
)

# Robots 0, 1 and 2 on a line all auction asset 0, which nobody holds.
# Robot 1 bids best, but only robots 1 and 2 are neighbors: robot 0 must
# still win its own auction, and robot 2 loses to robot 1 by its bound.
BEST_OUTSIDE_A_GROUP = holding_snapshot(
    [(0.0, 0.0, 2), (-10.0, 0.0, 1), (5.0, 0.0, 1), (18.0, 0.0, 1)],
    [(Point(-10.0, 0.0), {1}), (Point(5.0, 0.0), {2}), (Point(18.0, 0.0), {3})],
    14.0,
    40.0,
)

# Robot 0 wins both assets 1 and 2, which it knows through their holders;
# either fits alone but not both, so the fold keeps the lower id.
STACKED_WINS = holding_snapshot(
    [(0.0, 0.0, 1), (-20.0, 0.0, 2), (20.0, 0.0, 2)],
    [(Point(0.0, 0.0), {0}), (Point(-20.0, 0.0), {1}), (Point(20.0, 0.0), {2})],
    55.0,
    15.0,
)


# Robot 0's disk, radius 0 at the origin, does not hold its asset 0 at
# (0, 3).  Asset 2 then lies inside the enclosing disk of robot 0's assets,
# outside `geometry.enclose_with_anchor`'s precondition, where its
# one-boundary-point solve would return a disk of radius 0.5 that misses
# asset 0.  The solver falls back to the full solve, so the grown disk holds
# all three assets, the bid stays above the far/2 bound, and robot 0 must
# still win its own auction.
LOOSE_DISK = WorldSnapshot(
    0,
    Phase.OPTIMIZE,
    (RobotState(0, Point(0.0, 0.0), 0.0, frozenset({0, 1}), True),),
    (Asset(0, Point(0.0, 3.0), 1), Asset(1, Point(0.0, 0.0), 1), Asset(2, Point(0.0, 1.0), 1)),
    Params(WS, 1, 2.5, 2.5),
)


def test_auction_fixtures():
    cfg = Config()
    tied = replace(TIED_BIDDERS, round=0)
    assert phase2_round(tied, cfg, _View(tied))[0].keys() == {1}
    assert neighbor_map(HIDDEN_BIDDER) == {0: (), 1: (2,), 2: (1,)}
    plan, _ = phase2_round(HIDDEN_BIDDER, cfg, _View(HIDDEN_BIDDER))
    assert plan.keys() == {0}
    assert plan[0].assigned == {0, 1, 2}
    assert neighbor_map(NEIGHBOR_UNDERBIDS) == {0: (1,), 1: (0, 2), 2: (1,)}
    assert phase2_round(NEIGHBOR_UNDERBIDS, cfg, _View(NEIGHBOR_UNDERBIDS)) == ({}, False)
    assert neighbor_map(RIVAL_GROUPS) == {0: (), 1: (2,), 2: (1,)}
    plan, _ = phase2_round(RIVAL_GROUPS, cfg, _View(RIVAL_GROUPS))
    assert plan.keys() == {0, 2}
    assert (plan[0].assigned, plan[2].assigned) == ({0, 1, 2}, {0})
    assert neighbor_map(BEST_OUTSIDE_A_GROUP) == {0: (), 1: (2,), 2: (1,)}
    plan, _ = phase2_round(BEST_OUTSIDE_A_GROUP, cfg, _View(BEST_OUTSIDE_A_GROUP))
    assert {rid for rid, prop in plan.items() if 0 in prop.assigned} == {0, 1}
    plan, _ = phase2_round(STACKED_WINS, cfg, _View(STACKED_WINS))
    assert plan.keys() == {0}
    assert (plan[0].pos, plan[0].radius, plan[0].assigned) == (Point(-10.0, 0.0), 10.0, {0, 1})


@given(st.one_of(worlds(), holding_worlds()))
@example(HIDDEN_BIDDER)
@example(NEIGHBOR_UNDERBIDS)
@settings(max_examples=200, deadline=None)
def test_auction_candidates_match_per_asset_listing(snap):
    auctioneers, candidates = _auction_candidates(_View(snap))
    want_auctioneers, want = reference.auction_candidates(snap)
    # The auctioneers in ascending asset and then robot id; the candidates
    # grouped by robot, in ascending robot and then asset id.
    assert [a.dtype.kind for a in (*auctioneers, *candidates)] == ["i"] * 4
    assert list(zip(*(a.tolist() for a in auctioneers))) == [
        (a, rid) for a, rids in sorted(want_auctioneers.items()) for rid in rids
    ]
    assert list(zip(*(a.tolist() for a in candidates))) == sorted((j, a) for a, js in want.items() for j in js)


@given(st.one_of(worlds(), holding_worlds()), st.sampled_from([0.01, 0.5, 5.0]), st.integers(0, 60))
@example(TIED_BIDDERS, 0.01, 0)
@example(HIDDEN_BIDDER, 0.01, 0)
@example(NEIGHBOR_UNDERBIDS, 0.01, 0)
@example(RIVAL_GROUPS, 0.01, 0)
@example(STACKED_WINS, 0.01, 0)
@example(LOOSE_DISK, 0.01, 0)
@settings(max_examples=250, deadline=None)
def test_phase2_round_matches_per_auction_reference(snap, eps, rnd):
    snap = replace(snap, round=rnd)
    cfg = Config(eps=eps)
    assert phase2_round(snap, cfg, _View(snap)) == auction_reference(snap, cfg)


@given(st.one_of(worlds(), holding_worlds()), st.sampled_from([0.01, 0.5, 5.0]), st.integers(0, 60))
@example(TIED_BIDDERS, 0.01, 0)
@example(RIVAL_GROUPS, 0.01, 0)
@example(BEST_OUTSIDE_A_GROUP, 0.01, 0)
@settings(max_examples=250, deadline=None)
def test_phase2_round_prices_the_bids_of_one_walk_per_group(snap, eps, rnd):
    # The round's first walk over every candidate settles the groups that
    # hold the asset's best bidder; the reference walks every group.  Both
    # name the same winners, and price each bid of the same set once.
    snap = replace(snap, round=rnd)
    cfg = Config(eps=eps)
    priced = []

    def counted(view, robot, asset_id):
        priced[-1][robot.id, asset_id] += 1
        return _bid(view, robot, asset_id)

    with mock.patch("swarmcover.protocol._bid", counted), mock.patch.object(reference, "_bid", counted):
        priced.append(Counter())
        got = outcome(lambda: phase2_round(snap, cfg, _View(snap)))
        priced.append(Counter())
        want = outcome(lambda: reference.auction_walks(snap, cfg))
    assert got == want
    assert priced[0] == priced[1]
    assert set(priced[0].values()) <= {1}


def assert_bounds_are_the_scalar_loop(view: _View, robots, assets) -> None:
    """The round pass gives every (robot, asset) pair the bits of the
    scalar reference."""
    got = _bid_bounds(view, robots, assets)
    want = np.array([bid_bound(view, view.robot[j], a) for j, a in zip(robots, assets)])
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.uint64), want.astype(np.float64).view(np.uint64))


# Robot 0's disk, of radius ~1.7e7, holds asset 0 on its rim, and asset 1
# sits on the opposite rim: inside the disk by the hypot test of
# `geometry.dist`, outside it by the squared distance.  Only the hypot test
# gives the bound 0 of the scalar loop; the far/2 formula gives ~0.196.
_CENTER = Point(2.821882811161622, -4.1672640852553124)
RIM_BAND = WorldSnapshot(
    0,
    Phase.OPTIMIZE,
    (
        RobotState(0, _CENTER, 16754803.245397445, frozenset({0}), True),
        RobotState(1, _CENTER, 0.0, frozenset(), True),
    ),
    (
        Asset(0, Point(16157124.7457103, 4435178.233782556), 1),
        Asset(1, Point(-16157119.101944681, -4435186.568310726), 1),
    ),
    Params(WS, 2, 55.0, 1e9),
)


@given(st.one_of(worlds(), holding_worlds(), bound_cases().map(bound_case_snapshot)), st.booleans())
@example(LOOSE_DISK, False)
@example(RIM_BAND, False)
@example(bound_case_snapshot((*_SLACK_CASE, 40.0)), False)
@example(bound_case_snapshot((*_SLACK_CASE, 0.5000000012)), False)
@settings(max_examples=300, deadline=None)
def test_round_bounds_are_the_scalar_loop(snap, hold_nothing):
    if hold_nothing:
        snap = replace(snap, robots=tuple(replace(r, assigned=frozenset()) for r in snap.robots))
    view = _View(snap)
    rounds = []

    def recording(v, robots, assets):
        rounds.append((robots.tolist(), assets.tolist()))
        return _bid_bounds(v, robots, assets)

    # Every candidate of every auctioned asset, as the auction round lists
    # them (grouped by robot), then every alive robot on every asset, held
    # ones included, asset after asset.
    with mock.patch("swarmcover.protocol._bid_bounds", recording):
        outcome(lambda: phase2_round(snap, Config(), view))
    assert len(rounds) == 1
    assert_bounds_are_the_scalar_loop(view, *rounds[0])
    every = [(j, a.id) for a in snap.assets for j in view.alive_ids]
    assert_bounds_are_the_scalar_loop(view, [j for j, _ in every], [a for _, a in every])


# -- the carried view ---------------------------------------------------------


def assert_view_is_fresh(view: _View) -> None:
    """The carried view equals a fresh view of its snapshot, and every memo
    entry it carries equals a fresh solve.  A fresh view comes out of the
    same `_View.update`, so its alive robots, neighbor map and cover counts
    are also checked against references made from the snapshot alone."""
    snap = view.snapshot
    fresh = _View(snap)
    nbrs = neighbor_map(snap)
    assert view.alive_ids == fresh.alive_ids == [r.id for r in snap.robots if r.alive]
    assert view.nbrs == fresh.nbrs == nbrs
    assert_same_array(view.cover, reference.cover_counts(snap, nbrs))
    for name in ("sensed", "held", "cover", "need"):
        assert_same_array(getattr(view, name), getattr(fresh, name))
    for donor, memo in view._donor_disks.items():
        robot = snap.robots[donor]
        for asset_id, disk in memo.items():
            assert disk == consolidate(robot.pos, robot.assigned - {asset_id}, snap.assets)
    for donor, memo in view._donor_bounds.items():
        for asset_id, bound in memo.items():
            assert bound == _donor_bound(fresh, donor, asset_id)
    for receiver, memo in view._grown_disks.items():
        for asset_id, disk in memo.items():
            assert disk == _grow_disk(fresh, snap.robots[receiver], asset_id)
    for rid, cands in view.candidates.items():
        assert cands == _swap_candidates(fresh, rid, view.clean_for)
    for rid in fresh.alive_ids:
        assert view.deficits(rid) == fresh.deficits(rid)


def outcome(call):
    """What a phase function returns, or the type of what it raises: on
    arbitrary worlds a consolidated disk can exceed r_max."""
    try:
        return call()
    except RuntimeError as exc:
        return type(exc)


@st.composite
def next_round(draw, snap: WorldSnapshot):
    """A plan for one round of snap (moves, radius changes, assignment adds
    and removes, transfers between robots, and entries that change nothing)
    and the events due with it (a kill, new assets)."""
    alive = [r.id for r in snap.robots if r.alive]
    coord = coords(snap.params.r_max, snap.params.r_comm)
    state = {}

    def entry(rid):  # [pos, radius, held] of rid's proposal
        r = snap.robots[rid]
        return state.setdefault(rid, [r.pos, r.radius, set(r.assigned)])

    for _ in range(draw(st.integers(0, 5)) if alive else 0):
        got = entry(draw(st.sampled_from(alive)))
        held = got[2]
        kind = draw(st.sampled_from(["keep", "move", "resize", "add", "remove", "transfer"]))
        if kind == "move":
            got[0] = Point(draw(coord), draw(coord))
        elif kind == "resize":
            got[1] = draw(st.floats(0.0, snap.params.r_max))
        elif kind == "add" and snap.assets:
            held.add(draw(st.integers(0, len(snap.assets) - 1)))
        elif kind in ("remove", "transfer") and held:
            asset_id = draw(st.sampled_from(sorted(held)))
            held.discard(asset_id)
            if kind == "transfer":
                entry(draw(st.sampled_from(alive)))[2].add(asset_id)
    plan = {rid: Proposal(pos, radius, frozenset(held)) for rid, (pos, radius, held) in state.items()}
    events = []
    if draw(st.integers(0, 5)) == 0:
        events.append(Event(snap.round + 1, KillRobot(draw(st.integers(0, len(snap.robots))))))
    if draw(st.integers(0, 5)) == 0:
        spec = st.builds(AssetSpec, st.builds(Point, coord, coord), st.integers(1, 3))
        specs = draw(st.lists(spec, min_size=1, max_size=3))
        events.append(Event(snap.round + 1, AddAssets(tuple(specs))))
    return plan, events


def pair_inputs(view: _View, pair: tuple[int, int]):
    """What a swap sweep's verdict on a pair reads, by value: both robots,
    and each robot's cover counts of the assets it holds.  A robot's cover
    count is read only for a candidate it donates (`_swap_candidates`'s
    kappa test, `_evaluate_swap`'s coverage test), which it holds; counts
    of assets it does not hold may change while the pair stays clean."""
    return [
        (view.robot[rid], {a: view.local_coverage(rid, a) for a in view.robot[rid].assigned})
        for rid in pair
    ]


@given(st.one_of(worlds(), holding_worlds()), st.data())
@settings(max_examples=200, deadline=None)
def test_carried_view_matches_fresh_view(snap, data):
    cfg = Config()
    view = _View(snap)
    clean_inputs = {}
    for _ in range(data.draw(st.integers(1, 6))):
        # Decide on the carried view as run does, which fills its memos and
        # its clean pairs, and compare with decisions on a fresh view.
        swaps = outcome(lambda: swap_round(snap, cfg, view))
        assert swaps == outcome(lambda: swap_round(snap, cfg, _View(snap)))
        assert outcome(lambda: phase2_round(snap, cfg, view)) == outcome(lambda: phase2_round(snap, cfg, _View(snap)))
        assert holders_certified(snap, view) == holders_certified(snap, _View(snap))
        assert coverage_satisfied(snap, view) == reference.coverage_satisfied(snap)
        for rid in view.alive_ids:
            for asset_id in view.robot[rid].assigned:
                view.donor_disk(rid, asset_id)
                view.donor_bound(rid, asset_id)
            for asset_id in view.deficits(rid):
                view.grown_disk(rid, asset_id)
        for pair in clean_pairs(view):
            clean_inputs.setdefault(pair, pair_inputs(view, pair))
        plan, events = data.draw(next_round(snap))
        if isinstance(swaps, tuple) and data.draw(st.booleans()):
            plan = {**swaps[0], **plan}
        snap, _ = step(snap, plan, events)
        view.update(snap)
        assert_view_is_fresh(view)
        # A pair stays clean only while nothing the sweep reads about it
        # has changed.
        clean_inputs = {pair: clean_inputs[pair] for pair in clean_pairs(view)}
        for pair, inputs in clean_inputs.items():
            assert pair_inputs(view, pair) == inputs


def neighbor_pairs(view: _View) -> set[tuple[int, int]]:
    """The view's neighbor pairs, each as (lower id, higher id)."""
    return {(i, j) for i in view.alive_ids for j in view.nbrs[i] if i < j}


def clean_pairs(view: _View) -> set[tuple[int, int]]:
    """The pairs a swap sweep skips: the neighbor pairs not in its work."""
    return neighbor_pairs(view) - view.work


def assert_pairs_are_split(view: _View) -> None:
    """The sweep's work is a set of neighbor pairs; the rest are clean."""
    assert view.work <= neighbor_pairs(view)


@given(st.one_of(worlds(), holding_worlds()), st.data())
@settings(max_examples=200, deadline=None)
def test_carried_view_splits_pairs_into_work_and_clean(snap, data):
    # Sweeps under two configs, the second of which leaves every pair
    # clean, on a view carried through random rounds and events.
    configs = [Config(), Config(tau=10.0)]
    view = _View(snap)
    assert_pairs_are_split(view)
    for _ in range(data.draw(st.integers(1, 6))):
        for _ in range(data.draw(st.integers(0, 2))):
            cfg = data.draw(st.sampled_from(configs))
            outcome(lambda: swap_round(snap, cfg, view))
            assert_pairs_are_split(view)
        plan, events = data.draw(next_round(snap))
        snap, _ = step(snap, plan, events)
        view.update(snap)
        assert_pairs_are_split(view)


@pytest.mark.parametrize("mission", ["ladder-250", "event-mission"])
def test_run_carries_a_fresh_view_through_every_round(monkeypatch, mission):
    reset, update = _View._reset, _View.update
    resets, carried, checked = [], set(), set()

    def counted_reset(self, snapshot):
        resets.append((self, snapshot.round))
        reset(self, snapshot)

    def checked_update(self, snapshot):
        if self.snapshot is None:  # the view's own construction
            update(self, snapshot)
            return
        carried.add(self)
        update(self, snapshot)
        if snapshot.round not in checked:
            checked.add(snapshot.round)
            assert_view_is_fresh(self)
            # This updates the view again, which returns at once: the view
            # is at snapshot and its round is checked.
            assert coverage_satisfied(snapshot, self) == reference.coverage_satisfied(snapshot)

    monkeypatch.setattr(_View, "_reset", counted_reset)
    monkeypatch.setattr(_View, "update", checked_update)
    if mission == "ladder-250":
        res = run(ladder_250(), Config(), (), 0)
        reset_at = []
    else:
        inst, events = event_mission()
        res = run(inst, events=events, seed=1)
        reset_at = [40, 60]  # the new assets, then the kill
    assert res.status is RunStatus.FEASIBLE
    assert len(carried) == 1
    assert [rnd for view, rnd in resets if view in carried][1:] == reset_at
    assert len(checked) > 5


@st.composite
def tally_round(draw, snap: WorldSnapshot):
    """A round of snap as `next_round` draws it, with some disks then set to
    radius 0, grown past r_max, or put through an asset on their rim; a rim
    asset may also arrive with the round, at any robot's new rim."""
    plan, events = draw(next_round(snap))
    alive = [r.id for r in snap.robots if r.alive]
    r_max = snap.params.r_max
    for rid in draw(st.lists(st.sampled_from(alive), max_size=3)) if alive else ():
        r = snap.robots[rid]
        prop = plan.get(rid, Proposal(r.pos, r.radius, r.assigned))
        kind = draw(st.sampled_from(["zero", "past", "rim", "rim_asset"]))
        if kind == "zero":
            prop = replace(prop, radius=0.0)
        elif kind == "past":
            prop = replace(prop, radius=draw(st.sampled_from([4.0 * r_max, 1e4]) | st.floats(r_max, 3.0 * r_max)))
        elif kind == "rim" and snap.assets:
            a = snap.assets[draw(st.integers(0, len(snap.assets) - 1))]
            radius = draw(radii)
            prop = replace(prop, pos=Point(a.pos.x - radius, a.pos.y), radius=radius)
        elif kind == "rim_asset":
            # At x = 0 the asset's squared distance equals the threshold.
            reach = prop.radius + CONTAINMENT_TOL
            spec = AssetSpec(Point(prop.pos.x + reach, prop.pos.y), draw(st.integers(1, 3)))
            events.append(Event(snap.round + 1, AddAssets((spec,))))
        plan[rid] = prop
    return plan, events


def holder_counts(snap: WorldSnapshot) -> list[int]:
    return [sum(1 for r in snap.robots if r.alive and a.id in r.assigned) for a in snap.assets]


@st.composite
def tally_missions(draw):
    """A world and one to six rounds of it, each drawn by `tally_round` for
    the snapshot that the rounds before it lead to."""
    snap = first = draw(st.one_of(worlds(), holding_worlds()))
    rounds = []
    for _ in range(draw(st.integers(1, 6))):
        plan, events = draw(tally_round(snap))
        rounds.append((plan, events))
        snap, _ = step(snap, plan, events)
    return first, rounds


# Four robots on a line, each with its own asset on its rim.  The tally
# counts the cover afresh when more than half of the disks change, as when
# every robot moves, and otherwise takes back the old disks of those that
# changed, as when one robot moves onto its neighbour's asset.
LINE = WorldSnapshot(
    0,
    Phase.OPTIMIZE,
    tuple(RobotState(i, Point(10.0 * i, 0.0), 3.0, frozenset({i}), True) for i in range(4)),
    tuple(Asset(i, Point(10.0 * i + 3.0, 0.0), 2) for i in range(4)),
    Params(WS, 4, 55.0, 40.0),
)
EVERY_ROBOT_MOVES = [({r.id: Proposal(Point(r.pos.x + 1.0, 0.0), 2.0, r.assigned) for r in LINE.robots}, [])]
ONE_ROBOT_MOVES = [({2: Proposal(Point(28.0, 0.0), 5.0, frozenset({2, 3}))}, [])]

# Robot 2 keeps its disk of radius 20 at (0, 10) while robot 0 dies and two
# assets arrive, the second at 20 + 1e-9 from robot 2's center: on its rim
# by the recount's threshold, t * t with t = 20 + 1e-9, but outside the
# rounded `t ** 2`, which is an ulp lower.
RIM_AT_REBUILD = WorldSnapshot(
    5,
    Phase.OPTIMIZE,
    (
        RobotState(0, Point(0.0, 25.0), 5.0, frozenset({0}), True),
        RobotState(1, Point(0.0, -20.0), 20.0, frozenset({1}), True),
        RobotState(2, Point(0.0, 10.0), 20.0, frozenset({0}), True),
    ),
    (Asset(0, Point(0.0, 25.0), 1), Asset(1, Point(0.0, -25.0), 1)),
    Params(WS, 3, 55.0, 40.0),
)
KILL_AND_RIM_ASSET = [
    (
        {},
        [
            Event(6, KillRobot(0)),
            Event(6, AddAssets((AssetSpec(Point(0.0, 0.0), 1), AssetSpec(Point(20.000000001, 10.0), 1)))),
        ],
    )
]


@given(tally_missions(), blocks)
@example((LINE, EVERY_ROBOT_MOVES), 1)
@example((LINE, ONE_ROBOT_MOVES), 1)
@example((RIM_AT_REBUILD, KILL_AND_RIM_ASSET), geometry._BLOCK)
@settings(max_examples=200, deadline=None)
def test_carried_tally_matches_a_recount(mission, block):
    snap, rounds = mission
    tally = CoverTally()
    with (
        mock.patch.object(geometry, "_BLOCK", block),
        mock.patch.object(CoverTally, "_build", autospec=True, side_effect=CoverTally._build) as build,
    ):
        assert summarize(snap, tally=tally) == reference.summarize(snap)
        builds = 1
        for plan, events in rounds:
            prev = snap
            snap, rm = step(snap, plan, events, tally=tally)
            assert rm == reference.summarize(snap, rm.max_displacement)
            assert tally.cover.tolist() == [coverage_count(snap, a.pos) for a in snap.assets]
            assert tally.holders == holder_counts(snap)
            # Only new assets rebuild the tally; every other round patches it.
            builds += snap.assets is not prev.assets
            assert build.call_count == builds
