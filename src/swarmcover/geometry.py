"""Planar geometry: points, disks, circumcircles, smallest enclosing disks,
and a cell-list index for fixed-radius and nearest-item queries.

The enclosing-disk code is the randomized incremental construction of
Welzl (1991) in its iterative form, with two choices that matter for
reproducibility:

* the points are taken in one fixed pseudo-random permutation of the input
  sequence (see `SOLVE_ORDER_SEED`), never one drawn from the wall clock;
* the support-point constructors do not depend on their argument order (the
  circumcircle sorts its points, the diametral disk is symmetric), so a
  given support set always yields the same bits.

So the disk is a function of the input sequence.  On near-degenerate input
its bits can still depend on that sequence's order, because the tolerances
let different processing orders settle on different support sets:
`min_enclosing_disk` of (0,0), (1,0), (2,0), (1,0) and (2, 5e-10) returns a
center.y of 0 for some orders of those points and 2.5e-10 for others.

The solver itself runs on plain floats; see `_mec_one_point`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import repeat
from typing import Generic, Iterable, Optional, Sequence, TypeVar

# Absolute containment slack in meters.  Keeps boundary points from flapping
# in and out of a disk during the incremental construction.
CONTAINMENT_TOL = 1e-9

# Collinearity threshold on twice the signed triangle area, in m^2.
DEGENERACY_TOL = 1e-9

# Relative widening of a CellGrid's reach.  A caller's squared-distance test
# can pass a pair up to a few ulps beyond its radius; this margin is far
# wider than that rounding, so the grid never drops such a pair.  The same
# margin covers the rounding of `CellGrid.nearest`'s stopping bound.
_REACH_SLACK = 1e-9

# Seed of the fixed shuffle in `min_enclosing_disk`.  Taken in input order,
# points that arrive in a spatial sweep (an outward spiral, a glyph's stroke
# order) restart the incremental construction at nearly every point; in a
# random order the i-th point restarts it with probability at most 3/i, so
# the expected work is linear on any input.  Fixed, the shuffle keeps the
# disk a function of the input sequence.
SOLVE_ORDER_SEED = 0

T = TypeVar("T")


@dataclass(frozen=True)
class Point:
    """A point in the plane, coordinates in meters."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"point coordinates must be finite, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class Disk:
    """A closed disk given by center and radius, in meters."""

    center: Point
    radius: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.radius) or self.radius < 0.0:
            raise ValueError(f"disk radius must be finite and nonnegative, got {self.radius}")

    @property
    def area(self) -> float:
        return math.pi * self.radius * self.radius


class CellGrid(Generic[T]):
    """Cell-list index of points in the plane (Bentley, 1975).

    Items are bucketed by the square cell, of side `reach`, that their point
    falls in.  Two queries:

    * `near(p)` returns the items of the block of cells overlapping the box
      of half-width `reach` around p (3x3 cells), which includes every item
      within distance `reach` of p.  It only pre-filters: callers keep their
      own exact distance test, so their results do not change.  Queries that
      land on the same block share one list, which callers must not modify.
    * `nearest(p, limit)` returns the item closest to p within `limit`,
      searching rings of cells outward from p's cell; `limit` may exceed
      `reach`.
    """

    def __init__(self, reach: float, items: Iterable[tuple[Point, T]]):
        if not reach > 0.0:
            raise ValueError(f"cell grid reach must be positive, got {reach}")
        self._reach = reach * (1.0 + _REACH_SLACK)
        self._inv = 1.0 / self._reach
        self._cells: dict[tuple[int, int], list[tuple[float, float, T]]] = {}
        self._blocks: dict[tuple[int, int, int, int], list[T]] = {}
        for p, item in items:
            key = (math.floor(p.x * self._inv), math.floor(p.y * self._inv))
            bucket = self._cells.get(key)
            if bucket is None:
                self._cells[key] = [(p.x, p.y, item)]
            else:
                bucket.append((p.x, p.y, item))

    def near(self, p: Point) -> list[T]:
        # The block's corners come from p -/+ reach through the same rounding
        # as the bucket keys; rounding is monotone, so an item within reach
        # of p cannot fall outside the block.
        inv, reach = self._inv, self._reach
        block = (
            math.floor((p.x - reach) * inv),
            math.floor((p.x + reach) * inv),
            math.floor((p.y - reach) * inv),
            math.floor((p.y + reach) * inv),
        )
        out = self._blocks.get(block)
        if out is None:
            x0, x1, y0, y1 = block
            out = []
            for cx in range(x0, x1 + 1):
                for cy in range(y0, y1 + 1):
                    bucket = self._cells.get((cx, cy))
                    if bucket is not None:
                        out.extend([item for _, _, item in bucket])
            self._blocks[block] = out
        return out

    def nearest(self, p: Point, limit: float) -> Optional[T]:
        """The item minimizing (squared distance to p, item) among those
        whose squared distance is at most limit * limit, or None.

        Squared distances are computed as dx * dx + dy * dy with dx = x - p.x
        and dy = y - p.y, the bits of `dist2`, so a scan of every item with
        the same test finds the same item.  Ties go to the smallest item, so
        items must be orderable (robot ids, say).
        """
        inv, reach = self._inv, self._reach
        px, py = p.x, p.y
        qx, qy = math.floor(px * inv), math.floor(py * inv)
        lim2 = limit * limit
        # After rings 0..k, every item left lies more than k * reach from p,
        # less the rounding of the bucket keys: each key floors a product
        # within an ulp of |x * inv|, so the bound is off by a few ulps of
        # k * reach and of |p.x| + |p.y| + limit (a farther item cannot win
        # anyway).  The margins below are far wider than that, and keep
        # `outside` squared a normal float before it decides, so an item
        # left is strictly farther than `outside` in computed d2 too, and
        # farther than limit once `outside` exceeds it.
        slack = _REACH_SLACK * (abs(px) + abs(py) + limit)
        best: Optional[T] = None
        best_d2 = math.inf
        k = 0
        while True:
            for key in _ring(qx, qy, k):
                bucket = self._cells.get(key)
                if bucket is None:
                    continue
                for x, y, item in bucket:
                    dx = x - px
                    dy = y - py
                    d2 = dx * dx + dy * dy
                    if d2 <= lim2 and (d2 < best_d2 or (d2 == best_d2 and item < best)):  # type: ignore[operator]
                        best, best_d2 = item, d2
            outside = k * reach * (1.0 - _REACH_SLACK) - slack
            if outside > limit:
                return best
            if outside > 1e-150 and best_d2 < outside * outside * (1.0 - _REACH_SLACK):
                return best
            k += 1


def _ring(qx: int, qy: int, k: int) -> Iterable[tuple[int, int]]:
    # The cells at Chebyshev distance k from cell (qx, qy).
    if k == 0:
        yield qx, qy
        return
    for cx in range(qx - k, qx + k + 1):
        yield cx, qy - k
        yield cx, qy + k
    for cy in range(qy - k + 1, qy + k):
        yield qx - k, cy
        yield qx + k, cy


def dist(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def dist2(a: Point, b: Point) -> float:
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def disk_contains(d: Disk, p: Point) -> bool:
    """Closed containment test with CONTAINMENT_TOL of absolute slack."""
    return dist(d.center, p) <= d.radius + CONTAINMENT_TOL


def diametral_disk(a: Point, b: Point) -> Disk:
    """Smallest disk containing two points: they span a diameter."""
    cx, cy, r = _diametral(a.x, a.y, b.x, b.y)
    return Disk(Point(cx, cy), r)


def circumcircle(a: Point, b: Point, c: Point) -> Optional[Disk]:
    """Unique circle through three points, or None when they are collinear.

    Collinearity is declared when twice the signed triangle area falls below
    DEGENERACY_TOL.  The radius is taken as the largest distance from the
    computed center to the three points, which keeps all of them inside the
    closed disk despite rounding.
    """
    got = _circumcircle(a.x, a.y, b.x, b.y, c.x, c.y)
    return None if got is None else Disk(Point(got[0], got[1]), got[2])


def min_enclosing_disk(points: Sequence[Point] | Iterable[Point]) -> Disk:
    """Smallest disk containing every input point; raises ValueError on
    empty input.

    The points are processed in the fixed permutation `SOLVE_ORDER_SEED`
    draws, so the disk is a function of the input sequence.  On
    near-degenerate input (near-collinear or near-coincident points, ties
    within the tolerances) its bits can depend on that sequence's order;
    see the module docstring.
    """
    pts = list(points)
    if not pts:
        raise ValueError("min_enclosing_disk requires at least one point")
    if len(pts) > 1:
        random.Random(SOLVE_ORDER_SEED).shuffle(pts)
    xy = [(p.x, p.y) for p in pts]
    cx, cy = xy[0]
    r = 0.0
    for i, (px, py) in enumerate(xy):
        if math.hypot(cx - px, cy - py) > r + CONTAINMENT_TOL:
            cx, cy, r = _mec_one_point(xy[: i + 1], px, py)
    # Each point was tested against the disk of its time, and on
    # near-coincident input rounding can leave an early one a few times
    # CONTAINMENT_TOL outside the last disk: widen it to the farthest point
    # then.  math.dist has the bits of the hypot above.
    far = max(map(math.dist, repeat((cx, cy), len(xy)), xy))
    if far > r + CONTAINMENT_TOL:
        r = far
    return Disk(Point(cx, cy), r)


def enclose_with_anchor(points: Sequence[Point], anchor: Point) -> Disk:
    """Smallest disk containing `points` and `anchor`, given that `anchor`
    is not interior to the enclosing disk of `points` alone.

    This is the single-boundary-point subproblem of the incremental
    construction; it lets callers grow a known disk by one outside point
    without a full restart.  Outside that precondition the solve can miss a
    point by meters; the result is then `min_enclosing_disk` of every point
    and the anchor, so it always holds them all.
    """
    xy = [(p.x, p.y) for p in points]
    xy.append((anchor.x, anchor.y))
    cx, cy, r = _mec_one_point(xy, anchor.x, anchor.y)
    if max(map(math.dist, repeat((cx, cy), len(xy)), xy)) > r + CONTAINMENT_TOL:
        return min_enclosing_disk([*points, anchor])
    return Disk(Point(cx, cy), r)


# The solver's core works on plain floats: points are (x, y) pairs and disks
# (cx, cy, r) triples, and a Point or Disk is built only for a result.  A
# point q lies in a disk when hypot(cx - qx, cy - qy) <= r + CONTAINMENT_TOL,
# the test of disk_contains.


def _mec_one_point(pts: Sequence[tuple[float, float]], px: float, py: float) -> tuple[float, float, float]:
    # Smallest enclosing disk of `pts` constrained to have p on the boundary.
    cx, cy, r = px, py, 0.0
    for i, (qx, qy) in enumerate(pts):
        if math.hypot(cx - qx, cy - qy) > r + CONTAINMENT_TOL:
            if r == 0.0:
                cx, cy, r = _diametral(px, py, qx, qy)
            else:
                cx, cy, r = _mec_two_points(pts[: i + 1], px, py, qx, qy)
    return cx, cy, r


def _mec_two_points(
    pts: Sequence[tuple[float, float]], px: float, py: float, qx: float, qy: float
) -> tuple[float, float, float]:
    # Smallest enclosing disk with both p and q on the boundary.  `left_d`
    # and `right_d` hold the cross product of each side's chosen center.
    circ = _diametral(px, py, qx, qy)
    ccx, ccy, cr = circ
    left: Optional[tuple[float, float, float]] = None
    right: Optional[tuple[float, float, float]] = None
    left_d = right_d = 0.0
    for rx, ry in pts:
        if math.hypot(ccx - rx, ccy - ry) <= cr + CONTAINMENT_TOL:
            continue
        cross = _cross(px, py, qx, qy, rx, ry)
        c = _circumcircle(px, py, qx, qy, rx, ry)
        if c is None:
            continue
        d = _cross(px, py, qx, qy, c[0], c[1])
        if cross > 0.0 and (left is None or d > left_d):
            left, left_d = c, d
        elif cross < 0.0 and (right is None or d < right_d):
            right, right_d = c, d
    if left is None and right is None:
        return circ
    if left is None:
        return right  # type: ignore[return-value]
    if right is None:
        return left
    return left if left[2] <= right[2] else right


def _diametral(ax: float, ay: float, bx: float, by: float) -> tuple[float, float, float]:
    # Needs no canonical order: the sums commute and the radius is the larger
    # of the two end distances, so swapping a and b gives the same bits.
    cx = (ax + bx) / 2.0
    cy = (ay + by) / 2.0
    return cx, cy, max(math.hypot(ax - cx, ay - cy), math.hypot(bx - cx, by - cy))


def _circumcircle(
    ax: float, ay: float, bx: float, by: float, cx: float, cy: float
) -> Optional[tuple[float, float, float]]:
    # Canonical order, by x then y, so the disk does not depend on the order
    # the caller passed the points in.
    (ax, ay), (bx, by), (cx, cy) = sorted(((ax, ay), (bx, by), (cx, cy)))
    # Translate to the bounding-box midpoint before solving; this conditions
    # the linear system much better for far-from-origin inputs.
    ox = (min(ax, bx, cx) + max(ax, bx, cx)) / 2.0
    oy = (min(ay, by, cy) + max(ay, by, cy)) / 2.0
    tax, tay = ax - ox, ay - oy
    tbx, tby = bx - ox, by - oy
    tcx, tcy = cx - ox, cy - oy
    cross = tax * (tby - tcy) + tbx * (tcy - tay) + tcx * (tay - tby)
    if abs(cross) < DEGENERACY_TOL:
        return None
    d = 2.0 * cross
    sa = tax * tax + tay * tay
    sb = tbx * tbx + tby * tby
    sc = tcx * tcx + tcy * tcy
    ux = ox + (sa * (tby - tcy) + sb * (tcy - tay) + sc * (tay - tby)) / d
    uy = oy + (sa * (tcx - tbx) + sb * (tax - tcx) + sc * (tbx - tax)) / d
    r = max(math.hypot(ux - ax, uy - ay), math.hypot(ux - bx, uy - by), math.hypot(ux - cx, uy - cy))
    return ux, uy, r


def _cross(ox: float, oy: float, ax: float, ay: float, bx: float, by: float) -> float:
    return (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
