"""Smoke tests of the runnable experiments in scripts/.

Each script runs in a fresh interpreter with tiny arguments, the package on
PYTHONPATH, its outputs under tmp_path and TMPDIR pointed at an empty
directory, which must still be empty afterwards.
"""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(tmp_path: Path, name: str, *args: str) -> str:
    scratch = tmp_path / "tmpdir"
    scratch.mkdir()
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(scratch))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert list(scratch.iterdir()) == []
    return proc.stdout


def test_compare_oracle(tmp_path):
    out = run_script(tmp_path, "compare_oracle.py", "--cases", "2", "--n", "5", "--m", "2")
    assert out.count("gap") == 3  # two cases and the median
    assert "median gap" in out


def test_convergence_trace(tmp_path):
    out_dir = tmp_path / "conv"
    out = run_script(tmp_path, "convergence_trace.py", "--param", "10", "--out", str(out_dir))
    assert "uni_sm(10) seed=0: feasible" in out
    assert (out_dir / "trace.csv").read_text().startswith("round,phase,")


def test_dynamic_glyphs(tmp_path):
    out_dir = tmp_path / "glyph"
    out = run_script(tmp_path, "dynamic_glyphs.py", "--out", str(out_dir))
    assert "event at round 80" in out
    assert (out_dir / "trace.csv").exists()
    (adaptation,) = json.loads((out_dir / "adaptation.json").read_text())
    assert adaptation["event_round"] == 80
    assert adaptation["new_assets"] == 60
    assert adaptation["changed_robots"] == sorted(adaptation["changed_robots"])


def test_dynamic_glyphs_keeps_every_event(tmp_path):
    # Two events: each gets its record, in event order, measured from its
    # own round to the end of the mission.
    add = {"at_round": 1, "kind": "add_assets", "payload": [{"x": 30.0, "y": 30.0, "kappa": 1}]}
    kill = {"at_round": 30, "kind": "kill_robot", "payload": {"robot_id": 2}}
    scenario = tmp_path / "two_events.json"
    instance = {
        "workspace": {"x_min": 0.0, "x_max": 60.0, "y_min": 0.0, "y_max": 60.0},
        "m": 3,
        "r_comm": 85.0,
        "r_max": 45.0,
        "generator": {"name": "uniform", "n": 4, "kappa_choices": [1], "seed": 2},
    }
    scenario.write_text(json.dumps({"instance": instance, "events": [kill, add]}))
    out_dir = tmp_path / "glyph"
    out = run_script(tmp_path, "dynamic_glyphs.py", "--scenario", str(scenario), "--out", str(out_dir))
    assert "event at round 1:" in out and "event at round 30:" in out
    records = json.loads((out_dir / "adaptation.json").read_text())
    assert [r["event_round"] for r in records] == [1, 30]
    assert [r["new_assets"] for r in records] == [1, 0]


def test_sensitivity_sweep(tmp_path):
    out_dir = tmp_path / "sweep"
    out = run_script(tmp_path, "sensitivity_sweep.py", "--values", "55", "--trials", "1", "--out", str(out_dir))
    assert "r_comm=55.0: failure fraction" in out
    with open(out_dir / "runs.csv") as fh:
        runs = list(csv.DictReader(fh))
    assert len(runs) == 1
    assert (out_dir / "summary.csv").read_text().count("\n") == 2
