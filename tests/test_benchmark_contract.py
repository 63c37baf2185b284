"""The benchmark harness in perfbench/ still fits the program.

The harness wraps named protocol, engine, geometry and metrics functions in
place, calls `protocol.run(instance, config, events, seed)` positionally and
checks recorded smoke fingerprints.  Its self-check fails when any of these
moves, so renaming a span target, changing `run`'s signature or changing a
smoke mission's output fails here rather than only in a benchmark run.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
