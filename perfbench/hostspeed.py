"""Host-speed probe: a fixed piece of pure-Python work, timed again and again
while a mission runs, to scale the mission's time to a reference host speed.

The benchmark runs on virtual cores that share their host with other
tenants, and the host's speed moves from second to second: within minutes
the same glyph mission took anywhere from 2.5 s to 4.9 s, and its
0.3 s time to feasibility from 0.2 s to 0.35 s, while CPU time stayed equal
to wall time.  Medians over a run do not remove that, because the drift
outlasts a run.

So while a timed mission runs, a ``SIGALRM`` timer interrupts it every
`EVERY_S` seconds to time `work()`, and the probe is also timed just before
and just after it.  `Probe.scaled` takes the probes' own time out of an
interval and multiplies what is left by ``REFERENCE_S / mean probe time``
over that interval: it reads as seconds on a host that runs the probe in
`REFERENCE_S`.  On the glyph mission this cut the spread of ten 40 s run
medians from 0.20 to 0.03 of their median.

The probe never imports swarmcover, so no change to the program moves it,
and it is only armed around untraced missions.  It resembles the program's
hot loops (frozen dataclass points, `math.hypot`, a seeded shuffle and
Welzl's smallest enclosing disk), so contention slows it about as much as
it slows a mission.  It uses its own `random.Random`, so the program's
output is unchanged, which the fingerprint check confirms.

    python3 perfbench/hostspeed.py      # prints a few probe times
"""

from __future__ import annotations

import math
import random
import signal
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

# Probe time, in seconds, on the host the baseline was recorded on at its
# quietest (about its fastest probe); the scale of every scaled time.
REFERENCE_S = 0.008
# Wall-time interval between probes inside a mission.  A probe takes
# 8-14 ms, so missions run about 4% longer with the probe armed.
EVERY_S = 0.25

_SETS = 20
_POINTS = 120


@dataclass(frozen=True)
class _P:
    x: float
    y: float


def _dist(a: _P, b: _P) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def _circle2(a: _P, b: _P) -> tuple[_P, float]:
    c = _P((a.x + b.x) / 2.0, (a.y + b.y) / 2.0)
    return c, _dist(a, c)


def _circle3(a: _P, b: _P, c: _P) -> tuple[_P, float]:
    d = 2.0 * (a.x * (b.y - c.y) + b.x * (c.y - a.y) + c.x * (a.y - b.y))
    if abs(d) < 1e-12:
        return max((_circle2(a, b), _circle2(a, c), _circle2(b, c)), key=lambda cr: cr[1])
    a2, b2, c2 = a.x * a.x + a.y * a.y, b.x * b.x + b.y * b.y, c.x * c.x + c.y * c.y
    ux = (a2 * (b.y - c.y) + b2 * (c.y - a.y) + c2 * (a.y - b.y)) / d
    uy = (a2 * (c.x - b.x) + b2 * (a.x - c.x) + c2 * (b.x - a.x)) / d
    center = _P(ux, uy)
    return center, _dist(center, a)


def _mec(points: list[_P]) -> float:
    c, r = points[0], 0.0
    for i, p in enumerate(points):
        if _dist(c, p) <= r + 1e-9:
            continue
        c, r = p, 0.0
        for j in range(i):
            q = points[j]
            if _dist(c, q) <= r + 1e-9:
                continue
            c, r = _circle2(p, q)
            for k in range(j):
                s = points[k]
                if _dist(c, s) > r + 1e-9:
                    c, r = _circle3(p, q, s)
    return r


def work() -> float:
    """The fixed work: smallest enclosing disks of seeded point sets."""
    rng = random.Random(2026)
    total = 0.0
    for _ in range(_SETS):
        pts = [_P(rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0)) for _ in range(_POINTS)]
        rng.shuffle(pts)
        total += _mec(pts)
    return total


class Probe:
    """Probe samples, as (start, seconds) on the `time.perf_counter` clock."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # an alarm that arrives during a probe is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        work()
        self.samples.append((t0, time.perf_counter() - t0))
        self._busy = False

    @contextmanager
    def armed(self) -> Iterator[None]:
        """Probe every `EVERY_S` seconds of wall time inside the block."""
        old = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, old)

    def mean_s(self) -> float:
        return sum(d for _, d in self.samples) / len(self.samples)

    def busy_s(self, start: float, seconds: float) -> float:
        """Probe time inside the wall interval [start, start + seconds]."""
        end = start + seconds
        return sum(max(0.0, min(s + d, end) - max(s, start)) for s, d in self.samples)

    def scaled(self, start: float, seconds: float) -> float:
        """The wall interval [start, start + seconds] without the probe time
        inside it, scaled by REFERENCE_S over the mean of the probes that
        began before it ended and of the first that began after."""
        end = start + seconds
        near = [d for s, d in self.samples if s < end]
        near += [d for s, d in self.samples if s >= end][:1]
        return (seconds - self.busy_s(start, seconds)) * REFERENCE_S / (sum(near) / len(near))


if __name__ == "__main__":
    probe = Probe()
    for _ in range(20):
        probe.sample()
    print(" ".join(f"{d:.4f}" for _, d in probe.samples))
