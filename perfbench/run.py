"""Mission benchmark for swarmcover.

    python3 perfbench/run.py --workload ladder-1000 --seed 0 --seconds 40 --trace 0

A closed loop with one client: `protocol.run` missions one after another in
this process, no threads, until `--seconds` is spent (at least one mission).
Mission times are scaled to a reference host speed by a probe timed while
each mission runs (hostspeed.py says why and how).
Every mission is checked from outside (feasible, nothing undercovered, radii
within r_max, every holder's disk contains its assets), must reproduce the
run's first fingerprint and, where `reference.json` has one for its inputs,
the recorded fingerprint.

With `--trace 0` the last stdout line carries the end-to-end metrics of the
untraced missions; with `--trace 1` it carries per-layer spans and counters
from one extra traced mission (see spans.py).  Each workload is one fixed
mission, so `--seed` is accepted but does not alter the inputs (README.md
says why); `--input-seed` replaces the workload's own input seed, which is
how a held-out input is checked.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import DEFAULT_INPUT_SEED, ROOT, WORKLOADS, Mission, build  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 7
BUILD_REPEATS = 5

END_TO_END_UNITS = {
    "mission_s": "s",
    "time_to_feasible_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "final_cost_m2": "m2",
    "mission_rounds": "count",
}

# Spans reported with calls and self time.  Each opens on every workload,
# so no reported time is a structural zero.
_TIMED_SPANS = [
    "protocol.swap_round",
    "protocol.phase2_round",
    "protocol.lloyd_round",
    "protocol.phase3_round",
    "protocol.completion",
    "engine.step",
    "engine.apply_events",
    "engine.neighbor_map",
    "metrics.summarize",
    "geometry.min_enclosing_disk",
    "geometry.min_enclosing_disk.in_swap_round",
    "geometry.enclose_with_anchor",
    "geometry.enclose_with_anchor.in_swap_round",
    "geometry.enclose_with_anchor.in_phase2_round",
]
# Spans reported by call count only: the capacity fallback never fires on
# these missions and removals solve no disk at 2250/450, so their self
# time would read 0.0 on every run.
_COUNTED_SPANS = [
    "protocol.fallback_assign",
    "geometry.min_enclosing_disk.in_phase3_round",
    "geometry.min_enclosing_disk.in_fallback_assign",
]
_COUNTERS = [
    "protocol.swap_round.accepted",
    "protocol.phase2_round.productive",
    "protocol.phase2_round.claims",
    "protocol.fallback_assign.fired",
    "protocol.phase3_round.removals",
]
PER_LAYER_UNITS = {
    **{f"{name}.{kind}": unit for name in _TIMED_SPANS for kind, unit in (("calls", "count"), ("self_s", "s"))},
    **{f"{name}.calls": "count" for name in _COUNTED_SPANS},
    **{name: "count" for name in _COUNTERS},
    "protocol.swap_round.accepted_per_sweep": "count/call",
    "protocol.view_build_s": "s",
    f"{spans.ROOT_SPAN}.self_s": "s",
    "trace.mission_s": "s",
    "trace_overhead_frac": "frac",
    "instances.build_s": "s",
    "host.mission_wall_s": "s",
    "host.probe_s": "s",
}


class Sample(NamedTuple):
    seconds: float  # wall time of the call, probes included
    wall_s: float  # the same without the probes' own time
    scaled_s: Optional[float]  # wall_s at the reference host speed
    feasible_s: Optional[float]  # time to feasibility at the reference speed
    probe_s: Optional[float]  # mean probe time around and inside the mission
    cost_m2: float
    rounds: int


class MissionError(Exception):
    """A mission's output failed a check."""


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def load_references() -> dict[str, dict[str, str]]:
    return json.loads((HERE / "reference.json").read_text())["fingerprints"]


def fingerprint(result: Any, scratch: Path) -> str:
    """sha256 over the bytes `metrics.write_trace` writes, then the final
    robot states (id, pos, radius, sorted assigned, alive)."""
    from swarmcover.metrics import write_trace

    path = scratch / "trace.csv"
    write_trace(path, result.trace)
    h = hashlib.sha256(path.read_bytes())
    state = [(r.id, r.pos.x, r.pos.y, r.radius, sorted(r.assigned), r.alive) for r in result.snapshot.robots]
    h.update(json.dumps(state).encode())
    return h.hexdigest()


def check_final(result: Any) -> None:
    """The final snapshot must be a feasible cover, checked geometrically."""
    from swarmcover import RunStatus
    from swarmcover.geometry import Disk, disk_contains
    from swarmcover.metrics import summarize

    final = result.snapshot
    if result.status is not RunStatus.FEASIBLE:
        raise MissionError(f"status {result.status.value}")
    under = summarize(final).undercovered_count
    if under:
        raise MissionError(f"{under} assets undercovered")
    r_max = final.params.r_max
    for r in final.robots:
        if not r.alive:
            continue
        if r.radius > r_max:
            raise MissionError(f"robot {r.id} radius {r.radius} exceeds r_max {r_max}")
        disk = Disk(r.pos, r.radius)
        for a in r.assigned:
            if not disk_contains(disk, final.assets[a].pos):
                raise MissionError(f"robot {r.id} does not contain its asset {a}")


class Runner:
    """Runs one workload's missions and checks every output."""

    def __init__(self, workload: str, mission: Mission, scratch: Path) -> None:
        from swarmcover import run

        self._run = run
        self.mission = mission
        self.scratch = scratch
        self.reference = load_references().get(workload, {}).get(str(mission.seed))
        self.first: Optional[str] = None
        self.attempted = 0
        self.failed = 0

    def call(self) -> Any:
        m = self.mission
        return self._run(m.instance, m.config, m.events, m.seed)

    def checked(self, result: Any) -> bool:
        try:
            check_final(result)
            fp = fingerprint(result, self.scratch)
            if self.first is None:
                self.first = fp
                log(f"fingerprint for input seed {self.mission.seed}: {fp}")
            if fp != self.first:
                raise MissionError(f"fingerprint {fp} differs from this run's first {self.first}")
            if self.reference is not None and fp != self.reference:
                raise MissionError(f"fingerprint {fp} differs from reference {self.reference}")
        except MissionError as exc:
            log(f"mission failed: {exc}")
            return False
        return True

    def timed(self, call: Callable[[], Any], probed: bool = True) -> Optional[Sample]:
        """One attempted mission; None if it raised.  A mission that returns
        but fails a check still yields its sample.  Only the sample is kept,
        so no earlier result adds to the next mission's memory.  Unless
        `probed` is false, the host-speed probe runs just before, inside and
        just after the mission, and the sample carries scaled times."""
        from swarmcover.metrics import total_cost

        self.attempted += 1
        # Free the previous mission's garbage now, not inside this sample.
        gc.collect()
        probe = hostspeed.Probe()
        if probed:
            probe.sample()
        t0 = time.perf_counter()
        try:
            if probed:
                with probe.armed():
                    result = call()
            else:
                result = call()
        except Exception as exc:  # a raising mission is a failed one
            log(f"mission raised: {exc!r}")
            self.failed += 1
            return None
        elapsed = time.perf_counter() - t0
        if not self.checked(result):
            self.failed += 1
        final = result.snapshot
        feasible = result.timings.time_to_feasibility
        if not probed:
            return Sample(elapsed, elapsed, None, None, None, total_cost(final), final.round)
        probe.sample()
        return Sample(
            elapsed,
            elapsed - probe.busy_s(t0, elapsed),
            probe.scaled(t0, elapsed),
            None if feasible is None else probe.scaled(t0, feasible),
            probe.mean_s(),
            total_cost(final),
            final.round,
        )

    def repeat(self, seconds: float, reserve: float = 0.0) -> list[Sample]:
        """Missions until the next one would overrun `seconds`, keeping
        `reserve` missions' worth of time back; always at least one."""
        done: list[Sample] = []
        start = time.perf_counter()
        while True:
            got = self.timed(self.call)
            if got is not None:
                done.append(got)
            typical = statistics.median(d.seconds for d in done) if done else 0.0
            if time.perf_counter() - start + (1.0 + reserve) * typical > seconds:
                return done


def setup_seconds(workload: str, input_seed: int) -> float:
    """Median time to import swarmcover and build the inputs, each sample
    in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), workload, str(input_seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def end_to_end(runner: Runner, workload: str, input_seed: int, seconds: float) -> dict[str, float]:
    setup = setup_seconds(workload, input_seed)
    done = runner.repeat(seconds)
    feasible = [d.feasible_s for d in done if d.feasible_s is not None]
    if not feasible:
        raise SystemExit("error: no mission reached feasibility")
    return {
        "mission_s": statistics.median(d.scaled_s for d in done),
        "time_to_feasible_s": statistics.median(feasible),
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_cost_m2": done[0].cost_m2,
        "mission_rounds": done[0].rounds,
    }


def per_layer(runner: Runner, workload: str, input_seed: int, seconds: float) -> dict[str, float]:
    builds = []
    for _ in range(BUILD_REPEATS):
        t0 = time.perf_counter()
        build(workload, input_seed)
        builds.append(time.perf_counter() - t0)
    # Leave room for the traced mission, which runs slower.
    done = runner.repeat(seconds, reserve=2.0)
    if not done:
        raise SystemExit("error: every untraced mission raised")
    untraced = statistics.median(d.wall_s for d in done)

    tr = spans.Tracer()

    def traced_call() -> Any:
        with spans.traced(tr), tr.span(spans.ROOT_SPAN):
            return runner.call()

    if runner.timed(traced_call, probed=False) is None:
        raise SystemExit("error: the traced mission raised")
    total = tr.total_s[spans.ROOT_SPAN]
    accounted = sum(tr.self_s[name] for name in tr.layer_names())
    if abs(accounted - total) > 1e-6 * total:
        raise SystemExit(f"error: layer self times sum to {accounted}, traced mission took {total}")

    out: dict[str, float] = {}
    for name in _TIMED_SPANS + _COUNTED_SPANS:
        out[f"{name}.calls"] = tr.calls[name]
    for name in _TIMED_SPANS:
        out[f"{name}.self_s"] = tr.self_s[name]
    for name in _COUNTERS:
        out[name] = tr.counts[name]
    sweeps = tr.calls["protocol.swap_round"]
    out["protocol.swap_round.accepted_per_sweep"] = tr.counts["protocol.swap_round.accepted"] / sweeps if sweeps else 0.0
    out["protocol.view_build_s"] = tr.counts["protocol.view_build_s"]
    out[f"{spans.ROOT_SPAN}.self_s"] = tr.self_s[spans.ROOT_SPAN]
    out["trace.mission_s"] = total
    out["trace_overhead_frac"] = total / untraced - 1.0
    out["instances.build_s"] = statistics.median(builds)
    out["host.mission_wall_s"] = untraced
    out["host.probe_s"] = statistics.median(d.probe_s for d in done)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--input-seed", type=int, default=None, help="override the workload's own input seed")
    args = ap.parse_args(argv)

    input_seed = DEFAULT_INPUT_SEED[args.workload] if args.input_seed is None else args.input_seed
    mission = build(args.workload, input_seed)
    scratch_root = ROOT / ".bench_build"
    scratch_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
        runner = Runner(args.workload, mission, Path(scratch))
        if args.trace:
            values = per_layer(runner, args.workload, input_seed, args.seconds)
            units = PER_LAYER_UNITS
        else:
            values = end_to_end(runner, args.workload, input_seed, args.seconds)
            units = END_TO_END_UNITS
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
