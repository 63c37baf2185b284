"""Planar geometry: points, disks, circumcircles, smallest enclosing disks,
and a cell-list index for fixed-radius queries.

The enclosing-disk code is the classic randomized incremental construction
(Welzl, move-to-front variant) with two choices that matter for
reproducibility:

* the point shuffle is driven by an explicit seed, never the wall clock;
* the support-point constructors canonicalize their argument order, so the
  returned disk is a function of the support set alone and does not pick up
  floating-point noise from the traversal order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Generic, Iterable, Optional, Sequence, TypeVar

# Absolute containment slack in meters.  Keeps boundary points from flapping
# in and out of a disk during the incremental construction.
CONTAINMENT_TOL = 1e-9

# Collinearity threshold on twice the signed triangle area, in m^2.
DEGENERACY_TOL = 1e-9

# Relative widening of a CellGrid's reach.  A caller's squared-distance test
# can pass a pair up to a few ulps beyond its radius; this margin is far
# wider than that rounding, so the grid never drops such a pair.
_REACH_SLACK = 1e-9

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
    """Fixed-radius near-neighbour cell list (Bentley, 1975).

    Items are bucketed by the square cell, of side `reach`, that their point
    falls in.  `near(p)` returns the items of the block of cells overlapping
    the box of half-width `reach` around p (3x3 cells), which includes every
    item within distance `reach` of p.  The grid only pre-filters: callers
    keep their own exact distance test, so their results do not change.
    Queries that land on the same block share one list, which callers must
    not modify.
    """

    def __init__(self, reach: float, items: Iterable[tuple[Point, T]]):
        if not reach > 0.0:
            raise ValueError(f"cell grid reach must be positive, got {reach}")
        self._reach = reach * (1.0 + _REACH_SLACK)
        self._inv = 1.0 / self._reach
        self._cells: dict[tuple[int, int], list[T]] = {}
        self._blocks: dict[tuple[int, int, int, int], list[T]] = {}
        for p, item in items:
            key = (math.floor(p.x * self._inv), math.floor(p.y * self._inv))
            bucket = self._cells.get(key)
            if bucket is None:
                self._cells[key] = [item]
            else:
                bucket.append(item)

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
                        out.extend(bucket)
            self._blocks[block] = out
        return out


def dist(a: Point, b: Point) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def dist2(a: Point, b: Point) -> float:
    dx = a.x - b.x
    dy = a.y - b.y
    return dx * dx + dy * dy


def disk_contains(d: Disk, p: Point) -> bool:
    """Closed containment test with CONTAINMENT_TOL of absolute slack."""
    return dist(d.center, p) <= d.radius + CONTAINMENT_TOL


def _canon(points: Iterable[Point]) -> list[Point]:
    # Canonical processing order for support points; makes the constructed
    # disk independent of how the caller happened to order them.
    return sorted(points, key=lambda p: (p.x, p.y))


def diametral_disk(a: Point, b: Point) -> Disk:
    """Smallest disk containing two points: they span a diameter."""
    a, b = _canon((a, b))
    cx = (a.x + b.x) / 2.0
    cy = (a.y + b.y) / 2.0
    r = max(math.hypot(a.x - cx, a.y - cy), math.hypot(b.x - cx, b.y - cy))
    return Disk(Point(cx, cy), r)


def circumcircle(a: Point, b: Point, c: Point) -> Optional[Disk]:
    """Unique circle through three points, or None when they are collinear.

    Collinearity is declared when twice the signed triangle area falls below
    DEGENERACY_TOL.  The radius is taken as the largest distance from the
    computed center to the three points, which keeps all of them inside the
    closed disk despite rounding.
    """
    a, b, c = _canon((a, b, c))
    # Translate to the bounding-box midpoint before solving; this conditions
    # the linear system much better for far-from-origin inputs.
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
    r = max(dist(center, a), dist(center, b), dist(center, c))
    return Disk(center, r)


def min_enclosing_disk(points: Sequence[Point] | Iterable[Point], seed: int = 0) -> Disk:
    """Smallest disk containing every input point.

    Raises ValueError on empty input; use min_enclosing_disk_or when the
    point set may be empty.  The randomized processing order is drawn from
    `seed`, so identical input order and seed give a bit-identical disk.
    """
    pts = list(points)
    if not pts:
        raise ValueError("min_enclosing_disk requires at least one point (see min_enclosing_disk_or)")
    if len(pts) > 1:
        random.Random(seed).shuffle(pts)
    d = Disk(pts[0], 0.0)
    for i, p in enumerate(pts):
        if not disk_contains(d, p):
            d = _mec_one_point(pts[: i + 1], p)
    return d


def min_enclosing_disk_or(points: Sequence[Point] | Iterable[Point], anchor: Point, seed: int = 0) -> Disk:
    """Like min_enclosing_disk, but empty input collapses to (anchor, 0)."""
    pts = list(points)
    if not pts:
        return Disk(anchor, 0.0)
    return min_enclosing_disk(pts, seed)


def enclose_with_anchor(points: Sequence[Point], anchor: Point) -> Disk:
    """Smallest disk containing `points` and `anchor`, given that `anchor`
    is not interior to the enclosing disk of `points` alone.

    This is the single-boundary-point subproblem of the incremental
    construction; it lets callers grow a known disk by one outside point
    without a full restart.
    """
    return _mec_one_point(list(points) + [anchor], anchor)


def _mec_one_point(points: Sequence[Point], p: Point) -> Disk:
    # Smallest enclosing disk of `points` constrained to have p on the boundary.
    d = Disk(p, 0.0)
    for i, q in enumerate(points):
        if not disk_contains(d, q):
            if d.radius == 0.0:
                d = diametral_disk(p, q)
            else:
                d = _mec_two_points(points[: i + 1], p, q)
    return d


def _mec_two_points(points: Sequence[Point], p: Point, q: Point) -> Disk:
    # Smallest enclosing disk with both p and q on the boundary.
    circ = diametral_disk(p, q)
    left: Optional[Disk] = None
    right: Optional[Disk] = None
    for r in points:
        if disk_contains(circ, r):
            continue
        cross = _cross(p, q, r)
        c = circumcircle(p, q, r)
        if c is None:
            continue
        d = _cross(p, q, c.center)
        if cross > 0.0 and (left is None or d > _cross(p, q, left.center)):
            left = c
        elif cross < 0.0 and (right is None or d < _cross(p, q, right.center)):
            right = c
    if left is None and right is None:
        return circ
    if left is None:
        return right  # type: ignore[return-value]
    if right is None:
        return left
    return left if left.radius <= right.radius else right


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)
