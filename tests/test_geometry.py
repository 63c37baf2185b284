"""Exact-geometry unit tests.

The enclosing-disk routines back every coverage argument in the package, so
they get both hand-derived fixed cases and property checks against a brute
force over the finite candidate family (point / pair / triple disks).
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmcover import geometry
from swarmcover.geometry import (
    CONTAINMENT_TOL,
    DEGENERACY_TOL,
    SOLVE_ORDER_SEED,
    Disk,
    Point,
    circumcircle,
    diametral_disk,
    disk_contains,
    dist,
    dist2,
    enclose_with_anchor,
    min_enclosing_disk,
)

coords = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


def brute_force_med(pts: list[Point]) -> Disk:
    """Reference optimum: best disk among all 1/2/3-point candidates.

    The smallest enclosing disk is determined by at most three points of the
    input, so scanning every candidate and keeping the smallest feasible one
    is exact (and hopeless beyond a handful of points, which is fine here).
    """
    best: Disk | None = None
    cands: list[Disk] = [Disk(p, 0.0) for p in pts]
    for a, b in itertools.combinations(pts, 2):
        cands.append(diametral_disk(a, b))
    for a, b, c in itertools.combinations(pts, 3):
        d = circumcircle(a, b, c)
        if d is not None:
            cands.append(d)
    for d in cands:
        if all(disk_contains(d, p) for p in pts):
            if best is None or d.radius < best.radius:
                best = d
    assert best is not None
    return best


def test_dist_345_triangle():
    assert dist(Point(0, 0), Point(3, 4)) == 5.0
    assert dist2(Point(0, 0), Point(3, 4)) == 25.0


def test_disk_contains_boundary_inclusive():
    d = Disk(Point(0, 0), 1.0)
    assert disk_contains(d, Point(1, 0))
    assert disk_contains(d, Point(0, -1))
    assert not disk_contains(d, Point(1.001, 0))


def test_diametral_disk():
    d = diametral_disk(Point(0, 0), Point(4, 0))
    assert d.center == Point(2, 0)
    assert d.radius == 2.0


def test_diametral_disk_degenerate_pair():
    d = diametral_disk(Point(3, 3), Point(3, 3))
    assert d.center == Point(3, 3)
    assert d.radius == 0.0


def test_circumcircle_right_isoceles():
    # (0,0), (2,0), (1,1) lie on the circle centered at (1,0) with radius 1
    d = circumcircle(Point(0, 0), Point(2, 0), Point(1, 1))
    assert d is not None
    assert d.center.x == pytest.approx(1.0, abs=1e-12)
    assert d.center.y == pytest.approx(0.0, abs=1e-12)
    assert d.radius == pytest.approx(1.0, abs=1e-12)


def test_circumcircle_collinear_is_none():
    assert circumcircle(Point(0, 0), Point(1, 0), Point(2, 0)) is None
    assert circumcircle(Point(1, 1), Point(1, 1), Point(2, 2)) is None


def test_circumcircle_equilateral():
    s = 2.0
    tri = [Point(0, 0), Point(s, 0), Point(s / 2, s * math.sqrt(3) / 2)]
    d = circumcircle(*tri)
    assert d is not None
    assert d.radius == pytest.approx(s / math.sqrt(3), rel=1e-12)
    for p in tri:
        assert dist(d.center, p) == pytest.approx(d.radius, rel=1e-12)


def test_med_rejects_empty():
    with pytest.raises(ValueError):
        min_enclosing_disk([])


def test_med_single_point():
    d = min_enclosing_disk([Point(7, -3)])
    assert d == Disk(Point(7, -3), 0.0)


def test_med_obtuse_triple_uses_diametral_pair():
    # (5,1) is inside the diametral disk of the extreme pair, so the raw
    # circumcircle (radius 13) is not the answer; the pair disk (radius 5) is.
    d = min_enclosing_disk([Point(0, 0), Point(10, 0), Point(5, 1)])
    assert d.center.x == pytest.approx(5.0, abs=1e-9)
    assert d.center.y == pytest.approx(0.0, abs=1e-9)
    assert d.radius == pytest.approx(5.0, abs=1e-9)


def test_med_acute_triple_is_circumcircle():
    tri = [Point(0, 0), Point(2, 0), Point(1, 1.5)]
    d = min_enclosing_disk(tri)
    cc = circumcircle(*tri)
    assert cc is not None
    assert d.radius == pytest.approx(cc.radius, rel=1e-12)


def test_enclose_with_anchor_grows_by_outside_point():
    base = [Point(0, 0), Point(2, 0)]
    d = enclose_with_anchor(base, Point(6, 0))
    # anchor must land on the boundary and everything stays inside
    assert dist(d.center, Point(6, 0)) == pytest.approx(d.radius, rel=1e-12)
    for p in base:
        assert disk_contains(d, p)
    assert d.radius == pytest.approx(3.0, abs=1e-12)


@given(st.lists(points, min_size=1, max_size=12))
@settings(max_examples=200, deadline=None)
def test_med_contains_all_points(pts):
    d = min_enclosing_disk(pts)
    for p in pts:
        assert disk_contains(d, p)


def test_med_contains_near_coincident_points():
    # Six points within ~7e-9 m of each other.  The construction's last disk
    # leaves three of them outside, the worst by 4.0e-9 m, so the solver
    # widens it to the farthest point.
    pts = [
        Point(-1.882103735671114, -1.4526964677585243),
        Point(-1.8821037328929835, -1.452696465851377),
        Point(-1.8821037361903317, -1.452696470389516),
        Point(-1.882103731206211, -1.4526964659370263),
        Point(-1.8821037348504899, -1.4526964679072145),
        Point(-1.8821037353471468, -1.4526964633577972),
    ]
    d = min_enclosing_disk(pts)
    assert all(disk_contains(d, p) for p in pts)
    assert max(dist(d.center, p) for p in pts) == d.radius
    assert d.radius < 1e-8


@given(st.lists(points, min_size=1, max_size=7))
@settings(max_examples=120, deadline=None)
def test_med_matches_candidate_brute_force(pts):
    d = min_enclosing_disk(pts)
    ref = brute_force_med(pts)
    assert d.radius <= ref.radius * (1 + 1e-9) + 1e-9


@given(st.lists(points, min_size=2, max_size=9), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=120, deadline=None)
def test_med_is_order_invariant(pts, seed):
    """The optimum disk is unique, so every input order must agree on it."""
    base = min_enclosing_disk(pts)
    perm = pts[:]
    random.Random(seed).shuffle(perm)
    other = min_enclosing_disk(perm)
    assert other.radius == pytest.approx(base.radius, rel=1e-9, abs=1e-9)
    assert dist(other.center, base.center) <= 1e-7 * max(1.0, base.radius)


@given(st.lists(points, min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_med_boundary_support(pts):
    # a strictly smaller disk would have to drop a boundary point: at least
    # one input point sits (numerically) on the boundary
    d = min_enclosing_disk(pts)
    if d.radius == 0.0:
        assert any(p == d.center for p in pts)
        return
    slack = min(d.radius - dist(d.center, p) for p in pts)
    assert slack <= 1e-7 * d.radius


# -- the float kernel against the Point/Disk solver it replaced ---------------
#
# The solver's core runs on (x, y) float pairs.  These references are the
# same construction on Point and Disk objects, operation for operation, so
# every disk must agree to the bit.


def _ref_canon(points):
    return sorted(points, key=lambda p: (p.x, p.y))


def _ref_contains(d: Disk, p: Point) -> bool:
    return math.hypot(d.center.x - p.x, d.center.y - p.y) <= d.radius + CONTAINMENT_TOL


def _ref_diametral(a: Point, b: Point) -> Disk:
    a, b = _ref_canon((a, b))
    cx = (a.x + b.x) / 2.0
    cy = (a.y + b.y) / 2.0
    return Disk(Point(cx, cy), max(math.hypot(a.x - cx, a.y - cy), math.hypot(b.x - cx, b.y - cy)))


def _ref_circumcircle(a: Point, b: Point, c: Point) -> Disk | None:
    a, b, c = _ref_canon((a, b, c))
    ox = (min(a.x, b.x, c.x) + max(a.x, b.x, c.x)) / 2.0
    oy = (min(a.y, b.y, c.y) + max(a.y, b.y, c.y)) / 2.0
    ax, ay = a.x - ox, a.y - oy
    bx, by = b.x - ox, b.y - oy
    cx, cy = c.x - ox, c.y - oy
    cross = ax * (by - cy) + bx * (cy - ay) + cx * (ay - by)
    if abs(cross) < DEGENERACY_TOL:
        return None
    d = 2.0 * cross
    ux = ox + ((ax * ax + ay * ay) * (by - cy) + (bx * bx + by * by) * (cy - ay) + (cx * cx + cy * cy) * (ay - by)) / d
    uy = oy + ((ax * ax + ay * ay) * (cx - bx) + (bx * bx + by * by) * (ax - cx) + (cx * cx + cy * cy) * (bx - ax)) / d
    center = Point(ux, uy)
    return Disk(center, max(dist(center, a), dist(center, b), dist(center, c)))


def _ref_cross(o: Point, a: Point, b: Point) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def _ref_mec_one_point(points: list[Point], p: Point) -> Disk:
    d = Disk(p, 0.0)
    for i, q in enumerate(points):
        if not _ref_contains(d, q):
            if d.radius == 0.0:
                d = _ref_diametral(p, q)
            else:
                d = _ref_mec_two_points(points[: i + 1], p, q)
    return d


def _ref_mec_two_points(points: list[Point], p: Point, q: Point) -> Disk:
    circ = _ref_diametral(p, q)
    left: Disk | None = None
    right: Disk | None = None
    for r in points:
        if _ref_contains(circ, r):
            continue
        cross = _ref_cross(p, q, r)
        c = _ref_circumcircle(p, q, r)
        if c is None:
            continue
        d = _ref_cross(p, q, c.center)
        if cross > 0.0 and (left is None or d > _ref_cross(p, q, left.center)):
            left = c
        elif cross < 0.0 and (right is None or d < _ref_cross(p, q, right.center)):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def _ref_min_enclosing_disk(points: list[Point]) -> Disk:
    pts = list(points)
    if len(pts) > 1:
        random.Random(SOLVE_ORDER_SEED).shuffle(pts)
    d = Disk(pts[0], 0.0)
    for i, p in enumerate(pts):
        if not _ref_contains(d, p):
            d = _ref_mec_one_point(pts[: i + 1], p)
    far = max(dist(d.center, p) for p in pts)
    return Disk(d.center, far) if far > d.radius + CONTAINMENT_TOL else d


def _ref_enclose_with_anchor(points: list[Point], anchor: Point) -> Disk:
    pts = points + [anchor]
    d = _ref_mec_one_point(pts, anchor)
    if max(dist(d.center, p) for p in pts) > d.radius + CONTAINMENT_TOL:
        return _ref_min_enclosing_disk(pts)
    return d


def _same_bits(got: Disk | None, want: Disk | None) -> bool:
    if got is None or want is None:
        return got is want
    return (got.center.x, got.center.y, got.radius) == (want.center.x, want.center.y, want.radius)


# -- the solve order ----------------------------------------------------------
#
# The solver takes its points in one fixed pseudo-random permutation of the
# input.  On an outward spiral every point lies outside the disk of the
# points before it, so taken in input order each one restarts the
# construction (199 restarts); the fixed shuffle makes 9.

SPIRAL = [Point(k * math.cos(2.4 * k), k * math.sin(2.4 * k)) for k in range(1, 201)]


def _restarts(monkeypatch) -> list[tuple[float, float]]:
    # The boundary point of every restart, in processing order.
    got: list[tuple[float, float]] = []
    solve = geometry._mec_one_point

    def counted(pts, px, py):
        got.append((px, py))
        return solve(pts, px, py)

    monkeypatch.setattr(geometry, "_mec_one_point", counted)
    return got


def test_med_shuffles_sorted_input(monkeypatch):
    restarts = _restarts(monkeypatch)
    d = min_enclosing_disk(SPIRAL)
    assert all(disk_contains(d, p) for p in SPIRAL)
    assert len(restarts) < 40


def test_med_solve_order_is_fixed_per_call(monkeypatch):
    # The order depends on the input's length alone: unrelated solves, and
    # draws from the global generator, leave the next solve of the same
    # sequence unchanged.
    restarts = _restarts(monkeypatch)
    first = min_enclosing_disk(SPIRAL)
    order = list(restarts)
    rng = random.Random(5)
    for _ in range(20):
        min_enclosing_disk([Point(rng.uniform(-9.0, 9.0), rng.uniform(-9.0, 9.0)) for _ in range(rng.randint(1, 30))])
    random.seed(11)
    random.random()
    restarts.clear()
    assert _same_bits(min_enclosing_disk(SPIRAL), first)
    assert restarts == order


def test_med_solve_order_is_the_seeded_shuffle():
    # Each length's permutation, drawn once and kept, is the one a fresh
    # generator seeded with SOLVE_ORDER_SEED shuffles any n items into.
    for n in range(1, 200):
        want = list(range(n))
        random.Random(SOLVE_ORDER_SEED).shuffle(want)
        assert geometry._solve_order(n) == tuple(want)
        assert geometry._solve_order(n) is geometry._solve_order(n)


@st.composite
def hard_point_sets(draw) -> list[Point]:
    """Points with repeats, triples whose doubled area sits at
    DEGENERACY_TOL, and coordinates far from the origin."""
    offset = draw(st.sampled_from([0.0, 1e6, -1e6]))
    base = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=9))
    rows = list(base)
    rows += draw(st.lists(st.sampled_from(base), max_size=3))  # duplicates
    for _ in range(draw(st.integers(0, 2))):
        # a, a + (s, 0), a + (2s, h): twice the area is s * h
        x0, y0 = draw(st.sampled_from(base))
        s = draw(st.sampled_from([1.0, 10.0]))
        h = draw(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0])) * DEGENERACY_TOL / s
        rows += [(x0 + s, y0), (x0 + 2.0 * s, y0 + h)]
    rows = draw(st.permutations(rows))
    return [Point(x + offset, y + offset) for x, y in rows]


@given(st.tuples(points, points), st.tuples(points, points, points))
@settings(max_examples=200, deadline=None)
def test_support_disks_match_point_reference(pair, triple):
    assert _same_bits(diametral_disk(*pair), _ref_diametral(*pair))
    assert _same_bits(diametral_disk(*reversed(pair)), _ref_diametral(*pair))
    assert _same_bits(circumcircle(*triple), _ref_circumcircle(*triple))


@given(hard_point_sets())
@example([Point(1e6, 1e6), Point(1e6 + 1.0, 1e6), Point(1e6 + 2.0, 1e6 + 1e-9), Point(1e6, 1e6)])
@settings(max_examples=300, deadline=None)
def test_min_enclosing_disk_matches_point_reference(pts):
    assert _same_bits(min_enclosing_disk(pts), _ref_min_enclosing_disk(pts))


@given(hard_point_sets(), st.data())
@settings(max_examples=300, deadline=None)
def test_enclose_with_anchor_matches_point_reference(pts, data):
    anchor = data.draw(st.sampled_from(pts) | points, label="anchor")
    assert _same_bits(enclose_with_anchor(pts, anchor), _ref_enclose_with_anchor(pts, anchor))


# The anchor lies inside the disk of the points, within ~1e-9 m of (-1, 0):
# every circumcircle through it and (-1, 0) is degenerate, so the
# one-boundary-point solve alone returns radius 5.1e-10 and misses (0, 2)
# by 2.24 m.
OUTSIDE_PRECONDITION = ([Point(0, 0), Point(0, 2), Point(-1, 0)], Point(-0.9999999995, 9e-10))


@given(hard_point_sets().flatmap(lambda pts: st.tuples(st.just(pts), st.sampled_from(pts) | points)))
@example(OUTSIDE_PRECONDITION)
@settings(max_examples=300, deadline=None)
def test_enclose_with_anchor_holds_every_point(case):
    pts, anchor = case
    d = enclose_with_anchor(pts, anchor)
    assert all(disk_contains(d, p) for p in [*pts, anchor])
