"""Self-check of the benchmark harness; takes a few seconds.

    python3 perfbench/selfcheck.py

1. Smoke: `run.py` on the 250/50 rung, untraced and traced, must print
   exactly the metrics `BENCHMARK.json` names, each with its unit, and pass
   its output checks, on the default and the held-out input seed.
2. Nesting: a span's self time excludes its children, shown on a hand-driven
   clock and on the enclosing-disk spans inside a real `swap_round`.
3. Accounting: layer self times plus `other` add up to the traced mission.
4. Hygiene: wrappers are bound everywhere during tracing and gone after.
5. Host-speed probe: scaling takes the probes' own time out and divides by
   their mean; the timer and its handler are gone after a probed block.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostspeed  # noqa: E402
import spans  # noqa: E402
from workloads import ROOT, build  # noqa: E402

HERE = Path(__file__).resolve().parent


class CheckFailed(Exception):
    pass


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def check_smoke() -> None:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # The last run checks the held-out reference fingerprint.
    for trace, section, extra in ((0, "end_to_end", []), (1, "per_layer", []), (0, "end_to_end", ["--input-seed", "1"])):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "smoke", "--seed", "0", "--seconds", "1", "--trace", str(trace), *extra],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=170,
        )
        require(out.returncode == 0, f"--trace {trace} exited {out.returncode}: {out.stderr[-400:]}")
        result = json.loads(out.stdout.strip().splitlines()[-1])
        require(set(result) == {"correct", "attempted", "failed", "metrics"}, f"result keys {sorted(result)}")
        require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"smoke run failed: {result}")
        want = {m["name"]: m["unit"] for m in bench[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        require(got == want, f"--trace {trace} printed {got}, BENCHMARK.json names {want}")
        for name, m in result["metrics"].items():
            require(isinstance(m["value"], (int, float)), f"{name} value {m['value']!r} is not a number")


def check_manual_clock() -> None:
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tr = spans.Tracer(clock=lambda: next(ticks))
    with tr.span("protocol.swap_round"):             # enters at 0, leaves at 10
        with tr.span("geometry.min_enclosing_disk"):  # 1 .. 3
            pass
        with tr.span("geometry.enclose_with_anchor"):  # 4 .. 4.5
            pass
    require(tr.total_s["protocol.swap_round"] == 10.0, "parent duration")
    require(tr.self_s["protocol.swap_round"] == 7.5, f"parent self {tr.self_s['protocol.swap_round']} != 10 - 2 - 0.5")
    require(tr.self_s["geometry.min_enclosing_disk.in_swap_round"] == 2.0, "split by parent")
    require(tr.calls["geometry.enclose_with_anchor.in_swap_round"] == 1, "split call count")


def check_traced_mission() -> None:
    mission = build("smoke", 0)
    import swarmcover
    from swarmcover import protocol

    tr = spans.Tracer()
    with spans.traced(tr):
        require(hasattr(protocol.step, "__perfbench_span__"), "protocol's own binding of step is not wrapped")
        require(protocol.summarize is swarmcover.metrics.summarize, "summarize bindings differ while traced")
        with tr.span(spans.ROOT_SPAN):
            protocol.run(mission.instance, mission.config, mission.events, mission.seed)
    for mod in (swarmcover, protocol, swarmcover.engine, swarmcover.geometry, swarmcover.metrics):
        for key, value in vars(mod).items():
            require(not hasattr(value, "__perfbench_span__"), f"{mod.__name__}.{key} still wrapped")

    for name in tr.layer_names():
        children = sum(d for (parent, _), d in tr.child_s.items() if parent == name)
        require(
            abs(tr.total_s[name] - tr.self_s[name] - children) <= 1e-9 * max(1.0, tr.total_s[name]),
            f"{name}: duration != self + children",
        )
        require(tr.self_s[name] >= 0.0, f"{name}: negative self time")
    geo = sum(d for (parent, child), d in tr.child_s.items() if parent == "protocol.swap_round" and child.startswith("geometry."))
    require(geo > 0.0, "no enclosing-disk spans inside swap_round")
    require(
        tr.self_s["protocol.swap_round"] < tr.total_s["protocol.swap_round"] - geo * 0.999,
        "swap_round self time does not exclude its geometry spans",
    )
    total = tr.total_s[spans.ROOT_SPAN]
    accounted = sum(tr.self_s[name] for name in tr.layer_names())
    require(abs(accounted - total) <= 1e-6 * total, f"self times sum to {accounted}, mission took {total}")


def check_probe() -> None:
    probe = hostspeed.Probe()
    # A probe before, one inside and one after the interval [10, 12].
    probe.samples = [(9.9, 0.02), (11.0, 0.01), (12.5, 0.03)]
    require(abs(probe.busy_s(10.0, 2.0) - 0.01) < 1e-12, "probe time inside the interval")
    want = (2.0 - 0.01) * hostspeed.REFERENCE_S / 0.02
    require(abs(probe.scaled(10.0, 2.0) - want) < 1e-12, f"scaled {probe.scaled(10.0, 2.0)} != {want}")
    # [10, 10.5] has only the first probe before its end, and the one after.
    want = 0.5 * hostspeed.REFERENCE_S / 0.015
    require(abs(probe.scaled(10.0, 0.5) - want) < 1e-12, "scaled over a prefix")

    probe = hostspeed.Probe()
    handler = signal.getsignal(signal.SIGALRM)
    with probe.armed():
        time.sleep(0.6)
    require(len(probe.samples) >= 1, "no probe ran inside the armed block")
    require(signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0), "timer still armed")
    require(signal.getsignal(signal.SIGALRM) == handler, "SIGALRM handler not restored")


def main() -> int:
    for check in (check_manual_clock, check_probe, check_traced_mission, check_smoke):
        check()
        print(f"ok {check.__name__}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except CheckFailed as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        sys.exit(1)
