"""Planar geometry: points, disks, circumcircles, smallest enclosing disks,
and the blocked squared-distance kernel behind every fixed-radius query
(`sq_dist_blocks`), which scans every pair or, for points sorted by x, only
the pairs within an x-window of each query's reach.

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

# Relative margin of a `sq_dist_blocks` window over the reach: far above
# the rounding of the squared test.
_WINDOW_SLACK = 2.0**-40

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
    qx: np.ndarray, qy: np.ndarray, xs: np.ndarray, ys: np.ndarray, reach: Optional[np.ndarray | float] = None
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Squared distances from query points to item points, a block of query
    rows at a time: against every item or, given `reach`, against only the
    items that can lie within each query's reach.

    Yields (start, lo, d2) in row order, where d2[i, j] is
    (xs[lo + j] - qx[start + i])**2 + (ys[lo + j] - qy[start + i])**2 for
    the next rows of queries and a contiguous slice of the items.  Every
    element is one IEEE subtraction, square and add in that order, the bits
    of the scalar loop; and since (-x)**2 == x**2, those of `dist2` with its
    arguments either way round.  A block holds at most `_BLOCK` distances
    (at least one row), so a scan of every pair keeps its temporaries small
    however many pairs there are.  Without `reach`, lo is 0 and each row
    spans every item.

    With `reach` (one value t >= 0 per query, or one for all), the queries
    and the items must both be sorted by x.  Row i's window is the items
    whose x lies within w = t (1 + s) + 2**-500 of qx[i], with
    s = `_WINDOW_SLACK` = 2**-40 (all of them when t * t overflows), and a
    block spans the union of its rows' windows; a block whose window holds
    no item is skipped.  An item
    outside row i's window fails that row's test d2 <= t * t (the product
    rounded once, as the callers compute it) in the arithmetic of the scan
    with every item, so the windowed scan passes exactly the pairs the
    full one does:

    * the window's bounds are qx[i] + w and qx[i] - w rounded to nearest,
      and a float x beyond a rounded bound is beyond the exact one: the
      next float past the rounded value lies past the exact value.  So an
      outside item is more than w from qx[i] exactly, and since rounding
      is monotone its rounded difference dx has |dx| >= w.  This holds at
      any coordinates: at |x| = 1e7 a bound's rounding (~1e-9 m) is 2.5e-11
      of a 40 m reach, which no slack relative to t could absorb, but it
      cannot bring an outside item nearer than w;
    * the rounded dx*dx is then at least the rounded w*w, which with w's
      own roundings is at least t * t (1 + s)**2 (1 - 2**-53)**3: above
      t * t (1 + 2**-53), the most the rounded t * t can be.  The absolute
      2**-500 keeps a tiny t from a tie of two squares that underflow:
      w*w is then at least 2**-1000;
    * the rounded dx*dx + dy*dy is at least dx*dx, since dy*dy >= 0 and
      rounding is monotone; a square that overflows is inf and fails the
      test unless t * t overflows too, when every item is in the window.

    The block shape comes from the windows: each block takes as many rows
    as keep rows x (its window's width) within `_BLOCK`, so when every
    window spans every item the blocks are those of the scan without
    `reach`.  A scan whose every pair fits in one block is taken whole,
    without windows: they could not save a block, and finding them costs
    more than the distances they would skip.
    """
    nq, n = len(qx), len(xs)
    if nq * n <= _BLOCK:
        reach = None  # one block holds the whole scan: no window can help
    if reach is not None:
        w = np.where(reach * reach < np.inf, reach * (1.0 + _WINDOW_SLACK) + 2.0**-500, np.inf)
        lo = np.searchsorted(xs, qx - w, side="left")
        hi = np.searchsorted(xs, qx + w, side="right")
    # No window is wider than n, so every row count up to this one fits.
    rows = max(1, _BLOCK // max(1, n))
    a, b = 0, n
    start = 0
    while start < nq:
        if reach is not None:
            rows, a, b = _block_rows(lo, hi, start, 2 * rows)
        if b > a:
            dx = xs[a:b] - qx[start : start + rows, None]
            dy = ys[a:b] - qy[start : start + rows, None]
            dx *= dx
            dy *= dy
            dx += dy
            yield start, a, dx
        start += rows


def _block_rows(lo: np.ndarray, hi: np.ndarray, start: int, k: int) -> tuple[int, int, int]:
    # The most rows from `start` (at least one) whose union of windows
    # [lo, hi), counted at least 1 wide, times the rows stays within
    # `_BLOCK`, and that union.  The product grows with each row, so the
    # rows that fit are a prefix: the first k rows are tested, and k
    # doubles while they all fit.
    nq = len(lo)
    while True:
        k = min(k, nq - start)
        a = np.minimum.accumulate(lo[start : start + k])
        b = np.maximum.accumulate(hi[start : start + k])
        fit = int(np.count_nonzero(np.arange(1, k + 1) * np.maximum(b - a, 1) <= _BLOCK))
        if fit < k or start + k == nq:
            rows = max(1, fit)
            return rows, int(a[rows - 1]), int(b[rows - 1])
        k *= 2


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
