"""Exact centralized baselines for small instances.

Two independent routes to an optimal disk cover:

* :func:`solve_exact` searches candidate disks derived from 1/2/3-point
  supports with branch and bound; exact for desk-scale inputs.
* :func:`brute_force_optimum` discretizes centers on a lattice and
  exhaustively enumerates multisets, returning the lattice optimum plus an
  additive bound on its distance from the continuous optimum.

Both are for cross-checking the distributed protocol, not for scale: they
enforce small soft limits and raise beyond them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .geometry import (
    CONTAINMENT_TOL,
    Disk,
    Point,
    diametral_disk,
    dist,
    min_enclosing_disk,
    ordered_sum,
)
from .instances import Asset

SOLVE_MAX_ASSETS = 12
SOLVE_MAX_ROBOTS = 5
BRUTE_MAX_ASSETS = 6
BRUTE_MAX_ROBOTS = 3

_QUANT = 1e-9


@dataclass(frozen=True)
class CandidateDisk:
    disk: Disk
    covers: frozenset[int]  # asset ids within the disk

    @property
    def area(self) -> float:
        return self.disk.area


@dataclass(frozen=True)
class Placement:
    """An exact solution: disks plus the cost they add up to."""

    disks: tuple[Disk, ...]
    total_cost: float
    feasible: bool


@dataclass(frozen=True)
class BruteForceResult:
    disks: tuple[Disk, ...]
    total_cost: float
    feasible: bool
    gap_bound: float  # lattice cost is within this of the continuous optimum


def _covers(d: Disk, assets: Sequence[Asset]) -> frozenset[int]:
    thr = d.radius + CONTAINMENT_TOL
    thr2 = thr * thr
    got = set()
    for a in assets:
        dx = a.pos.x - d.center.x
        dy = a.pos.y - d.center.y
        if dx * dx + dy * dy <= thr2:
            got.add(a.id)
    return frozenset(got)


def enumerate_candidates(assets: Sequence[Asset], r_max: float) -> list[CandidateDisk]:
    """Minimum enclosing disks of every 1-, 2-, and 3-point subset, deduped
    and restricted to radius <= r_max.

    An optimal cover only needs disks that are minimal for the asset set they
    cover, and any such disk is determined by at most three support points,
    so this family always contains an optimal solution's disks.
    """
    pts = [a.pos for a in assets]
    disks: list[Disk] = [Disk(p, 0.0) for p in pts]
    for i, j in itertools.combinations(range(len(pts)), 2):
        disks.append(diametral_disk(pts[i], pts[j]))
    for i, j, k in itertools.combinations(range(len(pts)), 3):
        # Min enclosing disk, not the raw circumcircle: for obtuse or
        # degenerate triples the minimal cover is a pair's diametral disk
        # (already generated above, so dedup collapses it).
        disks.append(min_enclosing_disk([pts[i], pts[j], pts[k]]))
    seen: set[tuple[int, int, int]] = set()
    out: list[CandidateDisk] = []
    for d in disks:
        if d.radius > r_max + CONTAINMENT_TOL:
            continue
        key = (round(d.center.x / _QUANT), round(d.center.y / _QUANT), round(d.radius / _QUANT))
        if key in seen:
            continue
        seen.add(key)
        out.append(CandidateDisk(d, _covers(d, assets)))
    out.sort(key=lambda c: (c.area, -len(c.covers), c.disk.center.x, c.disk.center.y))
    return out


def solve_exact(assets: Sequence[Asset], m: int, r_max: float) -> Placement:
    """Minimum total-area placement of at most m disks of radius <= r_max so
    every asset p lies inside at least kappa(p) distinct disks.

    Branch and bound over the candidate family: branch on the asset with the
    largest remaining deficit, try candidates covering it in ascending area,
    prune on the incumbent.  Exponential; guarded by soft size limits.
    """
    if len(assets) > SOLVE_MAX_ASSETS or m > SOLVE_MAX_ROBOTS:
        raise ValueError(
            f"solve_exact is limited to {SOLVE_MAX_ASSETS} assets and {SOLVE_MAX_ROBOTS} robots"
        )
    if not assets:
        return Placement((), 0.0, True)
    if max(a.kappa for a in assets) > m:
        return Placement((), 0.0, False)
    cands = enumerate_candidates(assets, r_max)
    by_asset: dict[int, list[CandidateDisk]] = {a.id: [] for a in assets}
    for c in cands:
        for aid in c.covers:
            by_asset[aid].append(c)
    kappa = {a.id: a.kappa for a in assets}
    best_cost = math.inf
    best: Optional[tuple[Disk, ...]] = None

    def recurse(chosen: list[CandidateDisk], cost: float, deficit: dict[int, int]) -> None:
        nonlocal best_cost, best
        worst = max(deficit.items(), key=lambda kv: (kv[1], -kv[0]))
        if worst[1] <= 0:
            if cost < best_cost:
                best_cost = cost
                best = tuple(c.disk for c in chosen)
            return
        if len(chosen) >= m:
            return
        for c in by_asset[worst[0]]:
            new_cost = cost + c.area
            if new_cost >= best_cost:
                break  # candidates are area-sorted
            chosen.append(c)
            nd = dict(deficit)
            for aid in c.covers:
                nd[aid] -= 1
            recurse(chosen, new_cost, nd)
            chosen.pop()

    recurse([], 0.0, dict(kappa))
    if best is None:
        return Placement((), 0.0, False)
    return Placement(best, best_cost, True)


def brute_force_optimum(
    assets: Sequence[Asset], m: int, r_max: float, grid_step: float
) -> BruteForceResult:
    """Independent check on :func:`solve_exact` via lattice discretization.

    Centers range over a grid_step lattice covering the assets' bounding box
    padded by r_max; per center the useful radii are the distances to the
    assets (capped at r_max).  All multisets of up to m candidate disks are
    enumerated outright.  The reported bound accounts for the worst-case
    penalty of snapping the optimal centers to the lattice: moving a center
    by delta = grid_step * sqrt(2) / 2 inflates each disk's area by at most
    pi * (2 * r_max * delta + delta**2).
    """
    if len(assets) > BRUTE_MAX_ASSETS or m > BRUTE_MAX_ROBOTS:
        raise ValueError(
            f"brute_force_optimum is limited to {BRUTE_MAX_ASSETS} assets and {BRUTE_MAX_ROBOTS} robots"
        )
    if grid_step <= 0:
        raise ValueError("grid_step must be positive")
    delta = grid_step * math.sqrt(2.0) / 2.0
    gap = math.pi * m * (2.0 * r_max * delta + delta * delta)
    if not assets:
        return BruteForceResult((), 0.0, True, gap)
    if max(a.kappa for a in assets) > m:
        return BruteForceResult((), 0.0, False, gap)

    xs = [a.pos.x for a in assets]
    ys = [a.pos.y for a in assets]
    x_lo, x_hi = min(xs) - r_max, max(xs) + r_max
    y_lo, y_hi = min(ys) - r_max, max(ys) + r_max
    nx = int(math.floor((x_hi - x_lo) / grid_step)) + 1
    ny = int(math.floor((y_hi - y_lo) / grid_step)) + 1

    # Candidate disks: per lattice center, one disk per distinct asset
    # distance <= r_max, keeping only the cheapest disk per covered set.
    best_per_set: dict[frozenset[int], Disk] = {}
    for ix in range(nx):
        cx = x_lo + ix * grid_step
        for iy in range(ny):
            cy = y_lo + iy * grid_step
            center = Point(cx, cy)
            dists = sorted((dist(center, a.pos), a.id) for a in assets)
            covered: set[int] = set()
            idx = 0
            while idx < len(dists):
                r = dists[idx][0]
                if r > r_max:
                    break
                while idx < len(dists) and dists[idx][0] <= r + CONTAINMENT_TOL:
                    covered.add(dists[idx][1])
                    idx += 1
                key = frozenset(covered)
                cur = best_per_set.get(key)
                if cur is None or r < cur.radius:
                    best_per_set[key] = Disk(center, r)
    cands = sorted(
        ((d, cover) for cover, d in best_per_set.items()),
        key=lambda dc: (dc[0].radius, dc[0].center.x, dc[0].center.y),
    )
    kappa = {a.id: a.kappa for a in assets}

    best_cost = math.inf
    best: Optional[tuple[Disk, ...]] = None
    for size in range(0, m + 1):
        for combo in itertools.combinations_with_replacement(cands, size):
            cost = ordered_sum(d.area for d, _ in combo)
            if cost >= best_cost:
                continue
            counts = {aid: 0 for aid in kappa}
            for _, cover in combo:
                for aid in cover:
                    counts[aid] += 1
            if all(counts[aid] >= kappa[aid] for aid in kappa):
                best_cost = cost
                best = tuple(d for d, _ in combo)
    if best is None:
        return BruteForceResult((), 0.0, False, gap)
    return BruteForceResult(tuple(best), best_cost, True, gap)
