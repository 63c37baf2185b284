"""Layer spans recorded from outside the program.

`traced()` replaces the public functions of `protocol`, `engine`,
`geometry` and `metrics` with timing wrappers for the length of a `with`
block, everywhere a swarmcover module binds them (``protocol`` imports
``step``, ``summarize``, ``neighbor_map`` and the geometry solvers by name),
and puts every original back on exit.

A span's self time is its duration minus the durations of the spans it
directly encloses.  The whole traced call is itself the root span, whose
self time is reported as ``other``, so the self times of all layers plus
``other`` add up to the traced mission time.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

ROOT_SPAN = "other"

# Enclosing-disk solves are also split by the phase span that caused them.
# Each solver is listed only with the phases that call it.
_GEOMETRY_PARENTS = {
    "geometry.min_enclosing_disk": ("swap_round", "phase3_round", "fallback_assign"),
    "geometry.enclose_with_anchor": ("swap_round", "phase2_round"),
}

# Phase functions get the out-of-span estimate of the per-round view build.
_PHASES = ("lloyd_round", "phase2_round", "fallback_assign", "swap_round", "phase3_round")


class Tracer:
    """Span stack, per-span totals and counters for one traced call.

    `clock` is injectable so the self-check can drive it by hand.  Time
    spent in `excluded()` blocks is removed from every span it falls in.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._excluded = 0.0
        self.paused = False
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        # (parent, child) -> summed duration of child spans under that parent.
        self.child_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list[Any]] = []  # [name, start, child time]

    def now(self) -> float:
        return self._clock() - self._excluded

    def enter(self, name: str) -> None:
        self._stack.append([name, self.now(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        dur = self.now() - start
        self.calls[name] += 1
        self.self_s[name] += dur - child
        self.total_s[name] += dur
        if self._stack:
            parent = self._stack[-1]
            parent[2] += dur
            self.child_s[(parent[0], name)] += dur
            phase = parent[0].rpartition(".")[2]
            if phase in _GEOMETRY_PARENTS.get(name, ()):
                split = f"{name}.in_{phase}"
                self.calls[split] += 1
                self.self_s[split] += dur - child

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    @contextmanager
    def excluded(self) -> Iterator[None]:
        """Run untraced work whose time no span may see."""
        t0 = self._clock()
        self.paused = True
        try:
            yield
        finally:
            self.paused = False
            self._excluded += self._clock() - t0

    def layer_names(self) -> list[str]:
        """Span names that partition time: no per-parent splits."""
        return [n for n in self.calls if ".in_" not in n]


# ---------------------------------------------------------------------------
# Counters read from a phase function's arguments and return value.


def _claims(tr: Tracer, args: tuple, result: Any) -> None:
    plan, progress = result
    snap = args[0]
    tr.counts["protocol.phase2_round.productive"] += bool(progress)
    tr.counts["protocol.phase2_round.claims"] += sum(
        len(p.assigned - snap.robots[rid].assigned) for rid, p in plan.items()
    )


def _fired(tr: Tracer, args: tuple, result: Any) -> None:
    tr.counts["protocol.fallback_assign.fired"] += bool(result[1])


def _accepted(tr: Tracer, args: tuple, result: Any) -> None:
    tr.counts["protocol.swap_round.accepted"] += len(result[2])


def _removals(tr: Tracer, args: tuple, result: Any) -> None:
    plan, _ = result
    snap = args[0]
    tr.counts["protocol.phase3_round.removals"] += sum(
        len(snap.robots[rid].assigned - p.assigned) for rid, p in plan.items()
    )


def _targets(sc: Any) -> list[tuple[Any, str, str, Optional[Callable]]]:
    """(home module, function name, span name, counter) for every span."""
    p, e, g, m = sc.protocol, sc.engine, sc.geometry, sc.metrics
    return [
        (p, "lloyd_round", "protocol.lloyd_round", None),
        (p, "phase2_round", "protocol.phase2_round", _claims),
        (p, "fallback_assign", "protocol.fallback_assign", _fired),
        (p, "swap_round", "protocol.swap_round", _accepted),
        (p, "phase3_round", "protocol.phase3_round", _removals),
        (p, "coverage_satisfied", "protocol.completion", None),
        (p, "holders_certified", "protocol.completion", None),
        (e, "step", "engine.step", None),
        (e, "apply_events", "engine.apply_events", None),
        (e, "neighbor_map", "engine.neighbor_map", None),
        (m, "summarize", "metrics.summarize", None),
        (g, "min_enclosing_disk", "geometry.min_enclosing_disk", None),
        (g, "enclose_with_anchor", "geometry.enclose_with_anchor", None),
    ]


def _wrap(tr: Tracer, fn: Callable, name: str, count: Optional[Callable], view_probe: Optional[Callable]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if tr.paused:
            return fn(*args, **kwargs)
        if view_probe is not None:
            # Estimate of the private per-round view build: time the public
            # diagnostic that builds the same view, outside every span.
            with tr.excluded():
                t0 = time.perf_counter()
                view_probe(args[0])
                tr.counts["protocol.view_build_s"] += time.perf_counter() - t0
        tr.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tr.exit()
        if count is not None:
            count(tr, args, result)
        return result

    wrapper.__perfbench_span__ = name  # type: ignore[attr-defined]
    return wrapper


def _swarmcover_modules() -> list[Any]:
    return [mod for name, mod in sorted(sys.modules.items()) if name == "swarmcover" or name.startswith("swarmcover.")]


@contextmanager
def traced(tr: Tracer) -> Iterator[None]:
    """Install span wrappers for the duration of the block.

    On exit every patched attribute is restored and checked to be the
    original function again, so no wrapper outlives the traced run.
    """
    import swarmcover as sc

    probe = sc.protocol.has_undercovered_views
    patched: list[tuple[Any, str, Callable]] = []
    try:
        for home, attr, name, count in _targets(sc):
            original = getattr(home, attr)
            wrapper = _wrap(tr, original, name, count, probe if attr in _PHASES else None)
            for mod in _swarmcover_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, original))
        yield
    finally:
        for mod, key, original in reversed(patched):
            setattr(mod, key, original)
    leaked = [(mod.__name__, key) for mod, key, original in patched if getattr(mod, key) is not original]
    leaked += [
        (mod.__name__, key)
        for mod in _swarmcover_modules()
        for key, value in vars(mod).items()
        if hasattr(value, "__perfbench_span__")
    ]
    if leaked:
        raise RuntimeError(f"span wrappers left installed: {leaked}")
