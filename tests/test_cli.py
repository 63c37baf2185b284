"""Harness-level tests: argument handling, file outputs, exit codes.

Everything drives cli.main() in-process with tmp_path fixtures; exit code
conventions are 0 feasible, 2 infeasible/cap, 1 usage or I/O errors.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from swarmcover.cli import load_scenario, main
from swarmcover.geometry import Point
from swarmcover.instances import Asset, load_instance, save_assets
from swarmcover.oracle import solve_exact


SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def write_json(path, obj):
    path.write_text(json.dumps(obj, indent=2) + "\n")
    return path


@pytest.fixture
def tiny_scenario(tmp_path):
    """Four kappa-1 assets, two robots, full connectivity: trivially feasible."""
    return write_json(
        tmp_path / "tiny.json",
        {
            "instance": {
                "workspace": {"x_min": 0.0, "x_max": 30.0, "y_min": 0.0, "y_max": 30.0},
                "m": 2,
                "r_comm": 85.0,
                "r_max": 45.0,
                "generator": {"name": "uniform", "n": 4, "kappa_choices": [1], "seed": 3},
            }
        },
    )


@pytest.fixture
def pigeonhole_scenario(tmp_path):
    save_assets(tmp_path / "one.csv", [Asset(0, Point(15.0, 15.0), 2)])
    return write_json(
        tmp_path / "pigeon.json",
        {
            "instance": {
                "workspace": {"x_min": 0.0, "x_max": 30.0, "y_min": 0.0, "y_max": 30.0},
                "m": 1,
                "r_comm": 85.0,
                "r_max": 45.0,
                "assets_file": "one.csv",
            }
        },
    )


# -- generate -----------------------------------------------------------------


def test_generate_preset(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(["generate", "--preset", "uni_sm", "--param", "40", "--seed", "9", "--out", str(out)]) == 0
    inst = load_instance(out / "instance.json")
    assert (inst.n, inst.m) == (40, 20)
    assert (out / "assets.csv").exists()
    assert "n=40 m=20" in capsys.readouterr().out


def test_generate_uniform_args(tmp_path):
    out = tmp_path / "u"
    rc = main(
        [
            "generate", "--n", "10", "--m", "4", "--kappa", "1,2",
            "--workspace", "0,50,0,50", "--r-comm", "60", "--r-max", "35",
            "--out", str(out),
        ]
    )
    assert rc == 0
    inst = load_instance(out / "instance.json")
    assert (inst.n, inst.m, inst.r_comm, inst.r_max) == (10, 4, 60.0, 35.0)
    assert all(a.kappa in (1, 2) for a in inst.assets)


def test_generate_requires_shape(tmp_path, capsys):
    assert main(["generate", "--out", str(tmp_path)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--kappa", "x"],
        ["generate", "--workspace", "1,2,3"],
        ["generate", "--seed", "1.5"],
        ["--seed", "1.5", "run", "s.json"],
        ["run"],
        ["run", "s.json", "extra"],
        ["teleport"],
        [],
    ],
)
def test_parse_errors_exit_1(argv, capsys):
    """A bad flag is a validation error, reported on an `error:` line with
    exit code 1; argparse's own code 2 is the code of an infeasible run."""
    assert main(argv) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["generate", "--help"], ["dynamic", "-h"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: swarmcover" in capsys.readouterr().out


# -- run ----------------------------------------------------------------------


def test_run_writes_outputs(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "run1"
    assert main(["run", str(tiny_scenario), "--out", str(out)]) == 0
    result = json.loads((out / "result.json").read_text())
    assert result["status"] == "feasible"
    assert result["undercovered"] == 0
    assert result["rounds"] >= 1
    trace = (out / "trace.csv").read_text().splitlines()
    assert trace[0].startswith("round,phase,")
    assert len(trace) == result["rounds"] + 2  # header + round 0
    snap = json.loads((out / "final_snapshot.json").read_text())
    assert len(snap["robots"]) == 2
    assert "status=feasible" in capsys.readouterr().out


def test_run_is_deterministic(tiny_scenario, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(tiny_scenario), "--seed", "4", "--out", str(out1)]) == 0
    assert main(["run", str(tiny_scenario), "--seed", "4", "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()
    assert (out1 / "final_snapshot.json").read_bytes() == (out2 / "final_snapshot.json").read_bytes()


def test_global_flags_position_independent(tiny_scenario, tmp_path):
    out1, out2 = tmp_path / "pre", tmp_path / "post"
    assert main(["--seed", "7", "--out", str(out1), "run", str(tiny_scenario)]) == 0
    assert main(["run", str(tiny_scenario), "--seed", "7", "--out", str(out2)]) == 0
    assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()


def test_seed_precedence(tmp_path):
    """--seed beats the scenario config seed, which beats the default 0."""
    scenario = write_json(
        tmp_path / "seeded.json",
        {
            "instance": {
                "workspace": {"x_min": 0.0, "x_max": 30.0, "y_min": 0.0, "y_max": 30.0},
                "m": 2,
                "r_comm": 85.0,
                "r_max": 45.0,
                "generator": {"name": "uniform", "n": 4, "kappa_choices": [1]},
            },
            "config": {"seed": 5},
        },
    )
    assert load_scenario(scenario).seed == 5
    assert load_scenario(scenario, cli_seed=9).seed == 9
    explicit5 = tmp_path / "e5"
    implied5 = tmp_path / "i5"
    assert main(["run", str(scenario), "--seed", "5", "--out", str(explicit5)]) == 0
    assert main(["run", str(scenario), "--out", str(implied5)]) == 0
    assert (explicit5 / "trace.csv").read_bytes() == (implied5 / "trace.csv").read_bytes()


def test_run_accepts_bare_instance_json(tmp_path):
    scenario = write_json(
        tmp_path / "bare.json",
        {
            "workspace": {"x_min": 0.0, "x_max": 30.0, "y_min": 0.0, "y_max": 30.0},
            "m": 2,
            "r_comm": 85.0,
            "r_max": 45.0,
            "generator": {"name": "uniform", "n": 3, "kappa_choices": [1], "seed": 1},
        },
    )
    assert main(["run", str(scenario), "--out", str(tmp_path / "out")]) == 0


def test_bare_instance_json_takes_events_and_config(tmp_path):
    bare = {
        "workspace": {"x_min": 0.0, "x_max": 30.0, "y_min": 0.0, "y_max": 30.0},
        "m": 2,
        "r_comm": 85.0,
        "r_max": 45.0,
        "generator": {"name": "uniform", "n": 3, "kappa_choices": [1], "seed": 1},
        "events": [kill_robot(1)],
        "config": {"tau": 0.05},
    }
    sc = load_scenario(write_json(tmp_path / "bare.json", bare))
    assert (sc.instance.n, sc.config.tau, sc.events[0].action.robot_id) == (3, 0.05, 1)


# The shipped sweep specs are run by test_shipped_sweep_spec_runs.
@pytest.mark.parametrize("name", sorted(p.name for p in SCENARIOS.glob("*.json") if not p.name.startswith("sweep_")))
def test_shipped_scenarios_run(tmp_path, name):
    assert main(["run", str(SCENARIOS / name), "--out", str(tmp_path / "out")]) == 0


def test_run_infeasible_exit_code(pigeonhole_scenario, tmp_path):
    assert main(["run", str(pigeonhole_scenario), "--out", str(tmp_path / "out")]) == 2


def test_run_missing_scenario_file(tmp_path, capsys):
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_run_config_override_file(tiny_scenario, tmp_path):
    cfg = write_json(tmp_path / "cfg.json", {"max_iters_phase1": 1, "tau": 0.5})
    out = tmp_path / "out"
    assert main(["run", str(tiny_scenario), "--config", str(cfg), "--out", str(out)]) in (0, 2)
    assert (out / "result.json").exists()


def test_unknown_config_key_is_an_error(tiny_scenario, tmp_path, capsys):
    cfg = write_json(tmp_path / "cfg.json", {"not_a_knob": 1})
    assert main(["run", str(tiny_scenario), "--config", str(cfg)]) == 1
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("knob", [{"tau": "0.1"}, {"max_iters_phase1": 2.5}, {"max_swap_sweeps": True}])
def test_config_type_error_is_an_error(tiny_scenario, tmp_path, capsys, knob):
    cfg = write_json(tmp_path / "cfg.json", knob)
    assert main(["run", str(tiny_scenario), "--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert next(iter(knob)) in err


def test_runtime_error_is_reported(tiny_scenario, monkeypatch, capsys):
    import swarmcover.cli as cli

    def broken_run(*args, **kwargs):
        raise RuntimeError("consolidated radius 45.1 exceeds r_max 45.0")

    monkeypatch.setattr(cli, "run", broken_run)
    assert main(["run", str(tiny_scenario)]) == 1
    assert capsys.readouterr().err == "error: consolidated radius 45.1 exceeds r_max 45.0\n"


def test_unknown_event_kind_is_an_error(tmp_path, capsys):
    scenario = write_json(
        tmp_path / "bad.json",
        {
            "instance": {
                "workspace": {"x_min": 0.0, "x_max": 30.0, "y_min": 0.0, "y_max": 30.0},
                "m": 1,
                "r_comm": 85.0,
                "r_max": 45.0,
                "generator": {"name": "uniform", "n": 2, "kappa_choices": [1], "seed": 0},
            },
            "events": [{"at_round": 5, "kind": "teleport", "payload": {}}],
        },
    )
    assert main(["run", str(scenario)]) == 1
    assert "unknown event kind" in capsys.readouterr().err


# -- sweep ----------------------------------------------------------------------


def test_sweep_outputs(tmp_path, capsys):
    sweep = write_json(
        tmp_path / "sweep.json",
        {
            "parameter": "r_comm",
            "values": [85.0],
            "trials": 2,
            "base": {
                "n": 6,
                "m": 3,
                "r_max": 45.0,
                "workspace": [0.0, 30.0, 0.0, 30.0],
                "kappa_choices": [1],
            },
        },
    )
    out = tmp_path / "sw"
    assert main(["sweep", str(sweep), "--seed", "1", "--out", str(out)]) == 0
    runs = (out / "runs.csv").read_text().splitlines()
    assert len(runs) == 3  # header + 2 trials
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 2
    row = summary[1].split(",")
    assert row[0] == "r_comm" and row[3] == "0.0000"
    assert "failure fraction 0.00" in capsys.readouterr().out


def test_shipped_sweep_spec_runs(tmp_path, capsys):
    """The communication-radius sweep spec runs; one value and one trial
    here.  Its values are floats, so rows read r_comm=55.0."""
    spec = json.loads((SCENARIOS / "sweep_r_comm.json").read_text())
    assert (spec["parameter"], spec["trials"], spec["base"]) == ("r_comm", 10, {"n": 200, "m": 50})
    assert 55.0 in spec["values"]
    sweep = write_json(tmp_path / "one.json", {**spec, "values": [55.0], "trials": 1})
    out = tmp_path / "sw"
    assert main(["sweep", str(sweep), "--out", str(out)]) == 0
    assert "r_comm=55.0: failure fraction" in capsys.readouterr().out
    runs = (out / "runs.csv").read_text().splitlines()
    assert len(runs) == 2 and runs[1].startswith("r_comm,55.0,0,0,")
    assert len((out / "summary.csv").read_text().splitlines()) == 2


def test_sweep_rejects_bad_parameter(tmp_path):
    sweep = write_json(tmp_path / "s.json", {"parameter": "gravity", "values": [1]})
    assert main(["sweep", str(sweep)]) == 1


@pytest.mark.parametrize(
    "spec, needle",
    [
        ({"parameter": "n", "values": [5.7]}, "sweep n value must be an integer, got 5.7"),
        ({"parameter": "m", "values": [True]}, "sweep m value must be an integer"),
        ({"parameter": "r_max", "values": ["40"]}, "sweep r_max value must be a number"),
        # The id keeps the case's name from before the message named the field.
        pytest.param(
            {"parameter": "m", "values": [2, 0], "base": {"n": 3}},
            "m must be >= 1, got 0",
            id="spec3-need at least one robot, got m=0",
        ),
        ({"parameter": "n", "values": []}, "sweep values must be a nonempty list"),
        ({"parameter": "n", "values": [4], "trials": 1.9}, "sweep trials must be an integer, got 1.9"),
        ({"parameter": "n", "values": [4], "trials": 0}, "sweep trials must be >= 1, got 0"),
        ({"parameter": "n", "values": [4], "seeds": [1.5]}, "sweep seeds entry must be an integer"),
        ({"parameter": "n", "values": [4], "seeds": 3}, "sweep seeds must be a list of integers"),
        ({"parameter": "n", "values": [4], "base": {"m": 2.5}}, "sweep base m must be an integer, got 2.5"),
        ({"parameter": "n", "values": [4], "base": {"r_comm": None}}, "sweep base r_comm must be a number"),
        ({"parameter": "n", "values": [4], "base": {"kappa_choices": [1.5]}}, "sweep base kappa_choices entry must be an integer"),
        ({"parameter": "n", "values": [4], "base": {"workspace": [0, 1]}}, "sweep base workspace must be"),
        ({"parameter": "n", "values": [4], "base": []}, "sweep base must be a JSON object"),
        ([], "sweep spec must be a JSON object"),
        ({"parameter": "n", "values": [4], "trial": 3}, "sweep spec: unknown keys ['trial']"),
        ({"parameter": "n", "values": [4], "base": {"kappa": [2]}}, "sweep base: unknown keys ['kappa']"),
        ({"parameter": "n", "values": [4], "config": [1]}, "sweep config must be a JSON object"),
    ],
)
def test_sweep_spec_types_are_errors(tmp_path, capsys, spec, needle):
    sweep = write_json(tmp_path / "s.json", spec)
    assert main(["sweep", str(sweep), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert not (tmp_path / "o").exists()


# -- compare / oracle -----------------------------------------------------------


def test_compare_reports_gap(tiny_scenario, capsys):
    assert main(["compare", str(tiny_scenario)]) == 0
    out = capsys.readouterr().out
    assert "distributed: status=feasible" in out
    assert "exact:       feasible=True" in out
    assert "gap:" in out


def test_generate_then_compare_reports_gap(tmp_path, capsys):
    """The README's oracle-gap loop: small instances from `generate`, each
    run by `compare`."""
    for seed in ("0", "1"):
        out = tmp_path / f"case{seed}"
        argv = ["generate", "--n", "5", "--m", "2", "--workspace", "0,60,0,60", "--kappa", "1,2",
                "--r-comm", "120", "--r-max", "45", "--seed", seed, "--out", str(out)]
        assert main(argv) == 0
        assert main(["compare", str(out / "instance.json")]) == 0
    assert capsys.readouterr().out.count("gap:") == 2


def test_compare_prints_zero_gap_for_equal_placements(tmp_path, capsys):
    """Seed 10 of the README's gap loop: the distributed placement has the
    optimum's three radii, so the gap is 0, not -0.00% from costs summed in
    different orders."""
    out = tmp_path / "case10"
    argv = ["generate", "--n", "8", "--m", "3", "--workspace", "0,60,0,60", "--kappa", "1,2",
            "--r-comm", "120", "--r-max", "45", "--seed", "10", "--out", str(out)]
    assert main(argv) == 0
    assert main(["compare", str(out / "instance.json")]) == 0
    assert "\ngap:         0.00%\n" in capsys.readouterr().out


def test_compare_refuses_oversized(tmp_path, capsys):
    big = write_json(
        tmp_path / "big.json",
        {
            "instance": {
                "workspace": {"x_min": 0.0, "x_max": 100.0, "y_min": 0.0, "y_max": 100.0},
                "m": 20,
                "r_comm": 55.0,
                "r_max": 40.0,
                "generator": {"name": "uniform", "n": 60, "kappa_choices": [1], "seed": 0},
            }
        },
    )
    assert main(["compare", str(big)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: refusing: exact solver is limited to")


def test_compare_infeasible_exit(pigeonhole_scenario, capsys):
    assert main(["compare", str(pigeonhole_scenario)]) == 2


def test_oracle_placement(tiny_scenario, tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["oracle", str(tiny_scenario), "--out", str(out)]) == 0
    payload = json.loads((out / "placement.json").read_text())
    assert payload["feasible"] is True
    inst = load_scenario(tiny_scenario).instance
    expect = solve_exact(inst.assets, inst.m, inst.r_max)
    assert payload["total_cost"] == pytest.approx(expect.total_cost)
    assert len(payload["disks"]) == len(expect.disks)
    assert json.loads(capsys.readouterr().out)["feasible"] is True


def test_oracle_infeasible_exit(pigeonhole_scenario):
    assert main(["oracle", str(pigeonhole_scenario)]) == 2


@pytest.mark.parametrize("command", ["compare", "oracle"])
def test_exact_solver_refuses_events(tiny_scenario, capsys, command):
    """The exact solver sees only the initial assets, so a scenario with
    events gets an error, not the gap or placement of another instance."""
    data = json.loads(tiny_scenario.read_text())
    data["events"] = [add_assets(at_round=2, x=10.0, y=20.0, kappa=2)]
    assert main([command, str(write_json(tiny_scenario, data))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {command} takes no events")


# -- dynamic ----------------------------------------------------------------------


def test_dynamic_requires_events(tiny_scenario, tmp_path, capsys):
    assert main(["dynamic", str(tiny_scenario), "--out", str(tmp_path / "d")]) == 1
    assert "at least one event" in capsys.readouterr().err


def test_dynamic_interior_addition_changes_nothing(tmp_path, capsys):
    """An asset dropped exactly on an existing zero-radius disk is claimed
    without anyone moving or growing: the adaptation report shows zero
    changed robots."""
    save_assets(tmp_path / "a.csv", [Asset(0, Point(30.0, 30.0), 1)])
    scenario = write_json(
        tmp_path / "dyn.json",
        {
            "instance": {
                "workspace": {"x_min": 0.0, "x_max": 60.0, "y_min": 0.0, "y_max": 60.0},
                "m": 1,
                "r_comm": 55.0,
                "r_max": 40.0,
                "assets_file": "a.csv",
            },
            "events": [
                {"at_round": 30, "kind": "add_assets", "payload": [{"x": 30.0, "y": 30.0, "kappa": 1}]}
            ],
        },
    )
    out = tmp_path / "d"
    assert main(["dynamic", str(scenario), "--out", str(out)]) == 0
    summary = json.loads((out / "dynamic_summary.json").read_text())
    assert summary["status"] == "feasible"
    (record,) = summary["adaptation"]
    assert (record["event_round"], record["changed_robots"], record["new_assets"]) == (30, [], 1)
    assert record["pre_cost"] == record["post_cost"] == 0.0
    (pre,) = json.loads((out / "pre_event_snapshot.json").read_text())
    assert pre["round"] == 29
    assert "event at round 30: 0/1 robots changed" in capsys.readouterr().out


def test_dynamic_kill_is_reported(tmp_path):
    scenario = write_json(
        tmp_path / "kill.json",
        {
            "instance": {
                "workspace": {"x_min": 0.0, "x_max": 60.0, "y_min": 0.0, "y_max": 60.0},
                "m": 3,
                "r_comm": 85.0,
                "r_max": 45.0,
                "generator": {"name": "uniform", "n": 8, "kappa_choices": [1], "seed": 2},
            },
            "events": [{"at_round": 40, "kind": "kill_robot", "payload": {"robot_id": 1}}],
        },
    )
    out = tmp_path / "d"
    assert main(["dynamic", str(scenario), "--out", str(out)]) == 0
    (record,) = json.loads((out / "dynamic_summary.json").read_text())["adaptation"]
    assert record["event_round"] == 40 and record["new_assets"] == 0
    assert 1 in record["changed_robots"]  # the victim flips to dead


def test_dynamic_keeps_every_event(tmp_path, capsys):
    """Two events at different rounds: each gets its record, in firing
    order whatever the scenario's order, measured from its own round to the
    end of the mission."""
    add = {"at_round": 1, "kind": "add_assets", "payload": [{"x": 30.0, "y": 30.0, "kappa": 1}]}
    kill = {"at_round": 30, "kind": "kill_robot", "payload": {"robot_id": 2}}
    scenario = event_scenario(tmp_path, [kill, add])
    out = tmp_path / "d"
    assert main(["dynamic", str(scenario), "--out", str(out)]) == 0
    summary = json.loads((out / "dynamic_summary.json").read_text())
    assert summary["events"] == 2
    records = summary["adaptation"]
    assert [r["event_round"] for r in records] == [1, 30]
    assert [r["new_assets"] for r in records] == [1, 0]
    assert all(r["post_cost"] == records[0]["post_cost"] for r in records)
    pre = json.loads((out / "pre_event_snapshot.json").read_text())
    assert [(p["round"], len(p["robots"])) for p in pre] == [(0, 3), (29, 3)]
    stdout = capsys.readouterr().out
    assert "event at round 1: " in stdout and "event at round 30: " in stdout


@pytest.fixture(scope="module")
def glyph_outputs(tmp_path_factory):
    """`run` and `dynamic` on the glyph mission, each into its own directory."""
    outs = {}
    for command in ("run", "dynamic"):
        outs[command] = tmp_path_factory.mktemp(command)
        assert main([command, str(SCENARIOS / "dynamic_ants_2026.json"), "--out", str(outs[command])]) == 0
    return outs


def test_dynamic_glyph_mission(glyph_outputs):
    """The "2026" arrival at round 80 is one record: 60 new assets, 16 of
    the 24 robots changed, the cost from before the arrival to the end."""
    summary = json.loads((glyph_outputs["dynamic"] / "dynamic_summary.json").read_text())
    (record,) = summary["adaptation"]
    assert (record["event_round"], record["new_assets"]) == (80, 60)
    assert record["changed_robots"] == [0, 1, 2, 3, 4, 5, 6, 8, 10, 11, 13, 14, 16, 17, 18, 19]
    assert round(record["pre_cost"], 1) == 6494.4 and round(record["post_cost"], 1) == 14651.5
    (pre,) = json.loads((glyph_outputs["dynamic"] / "pre_event_snapshot.json").read_text())
    assert (pre["round"], pre["metrics"]["total_cost"]) == (79, record["pre_cost"])


def test_run_and_dynamic_write_the_same_outputs(glyph_outputs):
    for name in ("trace.csv", "final_snapshot.json"):
        assert (glyph_outputs["run"] / name).read_bytes() == (glyph_outputs["dynamic"] / name).read_bytes()


def test_result_phases_are_contiguous_stretches(glyph_outputs):
    """The glyph mission re-enters optimize after the round-80 arrival, so
    each phase stretch is its own entry, with its last row's metrics."""
    result = json.loads((glyph_outputs["run"] / "result.json").read_text())
    phases = result["phases"]
    assert [(p["phase"], p["first_round"], p["last_round"]) for p in phases] == [
        ("explore", 0, 10),
        ("optimize", 11, 13),
        ("refine", 14, 80),
        ("optimize", 81, 83),
        ("refine", 84, 109),
    ]
    last = phases[-1]
    assert (last["total_cost"], last["undercovered"]) == (result["total_cost"], 0)
    assert last["overcovered"] == result["overcovered"]
    # The arrival lands in round 80's row, the last of the first refine stretch.
    row = (glyph_outputs["run"] / "trace.csv").read_text().splitlines()[81].split(",")
    refine = phases[2]
    assert row[:5] == ["80", "refine", "60", str(refine["overcovered"]), f"{refine['total_cost']:.6f}"]
    assert refine["undercovered"] == 60


def test_generate_preset_then_run_digests_phases(tmp_path):
    """`generate --preset` then `run`: the trace and the phase digest."""
    inst = tmp_path / "inst"
    assert main(["generate", "--preset", "uni_sm", "--param", "10", "--out", str(inst)]) == 0
    assert main(["run", str(inst / "instance.json"), "--out", str(tmp_path / "run")]) == 0
    assert (tmp_path / "run" / "trace.csv").read_text().startswith("round,phase,")
    result = json.loads((tmp_path / "run" / "result.json").read_text())
    phases = result["phases"]
    assert phases[0]["first_round"] == 0 and phases[-1]["last_round"] == result["rounds"]
    assert all(b["first_round"] == a["last_round"] + 1 for a, b in zip(phases, phases[1:]))


# -- scenario validation ----------------------------------------------------------


def event_scenario(tmp_path, events, config=None):
    """Three robots on a 60 m square with the given events and config."""
    data = {
        "instance": {
            "workspace": {"x_min": 0.0, "x_max": 60.0, "y_min": 0.0, "y_max": 60.0},
            "m": 3,
            "r_comm": 85.0,
            "r_max": 45.0,
            "generator": {"name": "uniform", "n": 4, "kappa_choices": [1], "seed": 2},
        },
        "events": events,
    }
    if config is not None:
        data["config"] = config
    return write_json(tmp_path / "events.json", data)


def add_assets(at_round=5, **asset):
    return {"at_round": at_round, "kind": "add_assets", "payload": [{"x": 30.0, "y": 30.0, "kappa": 1, **asset}]}


def kill_robot(robot_id, at_round=5):
    return {"at_round": at_round, "kind": "kill_robot", "payload": {"robot_id": robot_id}}


def test_valid_events_load(tmp_path):
    sc = load_scenario(event_scenario(tmp_path, [add_assets(x=60.0, y=0.0), kill_robot(2, at_round=0)]))
    assert [e.at_round for e in sc.events] == [5, 0]
    assert sc.events[1].action.robot_id == 2


@pytest.mark.parametrize(
    "events, config, needle",
    [
        ([], {"seed": 2.9}, "config seed must be an integer"),
        ([], {"seed": True}, "config seed must be an integer"),
        ([], {"seed": "7"}, "config seed must be an integer"),
        ([add_assets(at_round=7.8)], None, "event 0 at_round must be an integer"),
        ([add_assets(at_round=False)], None, "event 0 at_round must be an integer"),
        ([kill_robot(True)], None, "event 0 robot_id must be an integer"),
        ([kill_robot(1.0)], None, "event 0 robot_id must be an integer"),
        ([kill_robot("1")], None, "event 0 robot_id must be an integer"),
        ([add_assets(), add_assets(kappa=2.7)], None, "event 1 asset 0 kappa must be an integer"),
        ([add_assets(kappa=True)], None, "event 0 asset 0 kappa must be an integer"),
        ([add_assets(x="30")], None, "event 0 asset 0 x must be a number"),
        ({"at_round": 5}, None, "scenario events must be a list"),
        ([], [1], "scenario config must be a JSON object"),
    ],
)
def test_non_integer_scenario_fields_are_errors(tmp_path, capsys, events, config, needle):
    assert main(["run", str(event_scenario(tmp_path, events, config)), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert not (tmp_path / "o").exists()


WS = {"x_min": 0.0, "x_max": 60.0, "y_min": 0.0, "y_max": 60.0}
GEN = {"name": "uniform", "n": 4, "kappa_choices": [1], "seed": 2}


@pytest.mark.parametrize(
    "change, needle",
    [
        ({"m": 3.9}, "instance m must be an integer, got 3.9"),
        ({"m": "3"}, "instance m must be an integer"),
        ({"r_comm": True}, "instance r_comm must be a number, got True"),
        # The ids keep the cases' names from before each radius had its own message.
        pytest.param(
            {"r_max": float("nan")},
            "r_max must be positive and finite, got nan",
            id="change3-r_comm and r_max must be positive and finite",
        ),
        pytest.param(
            {"r_max": float("inf")},
            "r_max must be positive and finite, got inf",
            id="change4-r_comm and r_max must be positive and finite",
        ),
        ({"workspace": {**WS, "x_min": "0"}}, "instance workspace x_min must be a number"),
        ({"workspace": {**WS, "z_min": 0.0}}, "instance workspace: unknown keys ['z_min']"),
        ({"workspace": [0.0, 60.0, 0.0, 60.0]}, "instance workspace must be a JSON object"),
        ({"workspace": {**WS, "y_max": float("inf")}}, "workspace bounds must be finite"),
        ({"generator": {**GEN, "n": 5.5}}, "generator n must be an integer, got 5.5"),
        ({"generator": {**GEN, "seed": 2.2}}, "generator seed must be an integer, got 2.2"),
        ({"generator": {**GEN, "kappa_choices": [1.5]}}, "generator kappa_choices entry must be an integer, got 1.5"),
        ({"generator": {**GEN, "kappa_choices": 2}}, "generator kappa_choices must be a list of integers"),
        ({"generator": [GEN]}, "instance generator must be a JSON object"),
    ],
)
def test_instance_field_types_are_errors(tmp_path, capsys, change, needle):
    data = {"instance": {"workspace": WS, "m": 3, "r_comm": 85.0, "r_max": 45.0, "generator": GEN, **change}}
    scenario = write_json(tmp_path / "inst.json", data)
    assert main(["run", str(scenario), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert not (tmp_path / "o").exists()


def test_instance_file_is_loaded_or_rejected(tmp_path, capsys):
    # The referenced instance loads as `load_instance` would load it.
    unseeded = {k: v for k, v in GEN.items() if k != "seed"}
    inst = {"workspace": WS, "m": 3, "r_comm": 85.0, "r_max": 45.0, "generator": unseeded}
    write_json(tmp_path / "inst.json", inst)
    scenario = write_json(tmp_path / "ok.json", {"instance_file": "inst.json", "config": {"seed": 4}})
    assert load_scenario(scenario).instance == load_instance(tmp_path / "inst.json", default_seed=4)
    # A path that is not a string is an error line, not a traceback.
    bad = write_json(tmp_path / "bad.json", {"instance_file": 5})
    assert main(["run", str(bad), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "instance_file must be a path string, got 5" in err
    assert not (tmp_path / "o").exists()


def test_instance_with_two_asset_sources_is_rejected(tmp_path, capsys):
    # The file exists and would load: neither source is silently dropped.
    save_assets(tmp_path / "assets.csv", [Asset(0, Point(5.0, 5.0), 1)])
    inst = {"workspace": WS, "m": 3, "r_comm": 85.0, "r_max": 45.0, "assets_file": "assets.csv", "generator": GEN}
    scenario = write_json(tmp_path / "both.json", {"instance": inst})
    assert main(["run", str(scenario), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "give exactly one of them" in err
    assert "'assets_file' and 'generator'" in err
    assert not (tmp_path / "o").exists()


def test_scenario_with_two_instance_sources_is_rejected(tmp_path, capsys):
    # The inline instance is valid, and the file it shadowed does not exist.
    inst = {"workspace": WS, "m": 3, "r_comm": 85.0, "r_max": 45.0, "generator": GEN}
    scenario = write_json(tmp_path / "both.json", {"instance": inst, "instance_file": "missing.json"})
    assert main(["run", str(scenario), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "give exactly one of them" in err
    assert "'instance' and 'instance_file'" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "event, needle",
    [
        ({"kind": "kill_robot", "payload": {"robot_id": 1}}, "event 1: missing key 'at_round'"),
        ({"at_round": 5, "payload": {"robot_id": 1}}, "event 1: missing key 'kind'"),
        ({"at_round": 5, "kind": "kill_robot", "payload": {}}, "event 1: missing key 'robot_id'"),
        ({"at_round": 5, "kind": "add_assets", "payload": [{"x": 1.0}]}, "event 1 asset 0: missing key 'y'"),
    ],
)
def test_missing_event_keys_are_named(tmp_path, capsys, event, needle):
    assert main(["run", str(event_scenario(tmp_path, [kill_robot(0), event]))]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err


@pytest.mark.parametrize(
    "scenario, needle",
    [
        ({"instance": [1]}, "instance must be a JSON object, got [1]"),
        ({"instance_file": "inst.json"}, "instance must be a JSON object, got [1, 2]"),
        ([kill_robot(0), "kill_robot"], "event 1 must be a JSON object, got 'kill_robot'"),
        ([kill_robot(0), {**add_assets(), "payload": [7]}], "event 1 asset 0 must be a JSON object, got 7"),
    ],
    ids=["instance", "instance_file", "event", "event_asset"],
)
def test_non_object_json_is_named(tmp_path, capsys, scenario, needle):
    # A list stands for the events of the three-robot scenario.
    write_json(tmp_path / "inst.json", [1, 2])
    if isinstance(scenario, list):
        path = event_scenario(tmp_path, scenario)
    else:
        path = write_json(tmp_path / "scenario.json", scenario)
    assert main(["run", str(path), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "edit, needle",
    [
        (lambda d: d.update(confg={"tau": 0.5}), "scenario: unknown keys ['confg']"),
        (lambda d: d["instance"].update(r_sense=40.0), "instance: unknown keys ['r_sense']"),
        (lambda d: d["instance"]["generator"].update(sed=4), "instance generator: unknown keys ['sed']"),
        (lambda d: d["events"][0].update(round=9), "event 0: unknown keys ['round']"),
        (lambda d: d["events"][1]["payload"][0].update(kapa=3), "event 1 asset 0: unknown keys ['kapa']"),
        (lambda d: d["events"][0]["payload"].update(robot=2), "event 0 payload: unknown keys ['robot']"),
    ],
    ids=["scenario", "instance", "generator", "event", "event_asset", "kill_robot_payload"],
)
def test_unknown_json_keys_are_errors(tmp_path, capsys, edit, needle):
    # A misspelt key would leave its field at the default: "kapa" gives kappa 1.
    data = json.loads(event_scenario(tmp_path, [kill_robot(0), add_assets()]).read_text())
    edit(data)
    assert main(["run", str(write_json(tmp_path / "typo.json", data)), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "event, needle",
    [
        (add_assets(x=500.0, y=500.0), "event 0 asset 0 at (500.0, 500.0) lies outside the workspace"),
        (add_assets(x=-0.5), "lies outside the workspace"),
        (kill_robot(99), "event 0: robot_id 99 is not in 0..2"),
        (kill_robot(3), "event 0: robot_id 3 is not in 0..2"),
        (kill_robot(-1), "event 0: robot_id -1 is not in 0..2"),
    ],
)
def test_out_of_bounds_events_are_errors(tmp_path, capsys, event, needle):
    assert main(["run", str(event_scenario(tmp_path, [event])), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and needle in err
    assert not (tmp_path / "o").exists()
