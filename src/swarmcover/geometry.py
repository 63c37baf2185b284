"""Planar geometry: points, disks, circumcircles, smallest enclosing disks,
and the blocked squared-distance kernel behind every fixed-radius query
(`sq_dist_blocks`).

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

import functools
import math
import random
from dataclasses import dataclass
from itertools import repeat
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

# Absolute containment slack in meters.  Keeps boundary points from flapping
# in and out of a disk during the incremental construction.
CONTAINMENT_TOL = 1e-9

# Collinearity threshold on twice the signed triangle area, in m^2.
DEGENERACY_TOL = 1e-9

# Distances a block of `sq_dist_blocks` holds at once: each temporary stays
# near 128 KB, so a scan of every pair adds nothing measurable to a run's
# peak memory.
_BLOCK = 1 << 14

# Seed of the fixed shuffle in `min_enclosing_disk`.  Taken in input order,
# points that arrive in a spatial sweep (an outward spiral, a glyph's stroke
# order) restart the incremental construction at nearly every point; in a
# random order the i-th point restarts it with probability at most 3/i, so
# the expected work is linear on any input.  Fixed, the shuffle keeps the
# disk a function of the input sequence.
SOLVE_ORDER_SEED = 0


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


def sq_dist_blocks(
    qx: np.ndarray, qy: np.ndarray, xs: np.ndarray, ys: np.ndarray
) -> Iterator[tuple[int, np.ndarray]]:
    """Squared distances from query points to item points, a block of query
    rows at a time.

    Yields (start, d2) in row order, where d2[i, j] is
    (xs[j] - qx[start + i])**2 + (ys[j] - qy[start + i])**2 for the next
    rows of queries.  Every element is one IEEE subtraction, square and add
    in that order, the bits of the scalar loop; and since (-x)**2 == x**2,
    those of `dist2` with its arguments either way round.  A block holds
    at most `_BLOCK` distances (at least one row), so a scan of every pair
    keeps its temporaries small however many pairs there are.
    """
    rows = max(1, _BLOCK // max(1, len(xs)))
    for start in range(0, len(qx), rows):
        dx = xs - qx[start : start + rows, None]
        dy = ys - qy[start : start + rows, None]
        dx *= dx
        dy *= dy
        dx += dy
        yield start, dx


def ordered_sum(values: Iterable[float]) -> float:
    """The floats added left to right from 0.0.  From Python 3.12 the
    builtin `sum()` compensates the rounding of a float sum (Neumaier), so
    its last bits differ between interpreters; this has the bits of
    `sum()` on 3.10 and 3.11, on every version."""
    total = 0.0
    for v in values:
        total += v
    return total


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
    xy = [(pts[i].x, pts[i].y) for i in _solve_order(len(pts))]
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


@functools.cache
def _solve_order(n: int) -> tuple[int, ...]:
    # The permutation `random.Random(SOLVE_ORDER_SEED).shuffle` makes of any
    # n items, as indices.  It depends only on n, so each length's is drawn
    # once, on first use, and indexes every later input of that length.
    perm = list(range(n))
    random.Random(SOLVE_ORDER_SEED).shuffle(perm)
    return tuple(perm)


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
