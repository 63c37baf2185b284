"""Command-line benchmark harness.

Subcommands:

* ``generate``  — build an instance (preset or uniform) and save it
* ``run``       — execute a scenario, write trace + snapshots + result,
  whose ``phases`` list digests each contiguous stretch of one phase
* ``sweep``     — sensitivity sweep over one parameter, emit summary CSV
* ``compare``   — distributed cost vs the exact solver, tiny instance, no events
* ``dynamic``   — ``run``, plus one adaptation record per round at which
  events fired: the robots changed and the cost from there to the end
* ``oracle``    — exact solver only, no events, emit the placement as JSON

Exit codes: 0 feasible, 2 infeasible (or iteration cap), 1 I/O or
validation error, a bad command-line argument or a flag the subcommand
does not read included (README lists the flags each one reads).  The
seed drives only the instance generators (the protocol itself has no
randomness): ``--seed`` wins, else the scenario config seed, else 0.  Of
a scenario, only a generator without its own ``seed`` reads it, so for
assets from an ``assets_file`` or a seeded generator the seed is
accepted and changes nothing.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import statistics
import sys
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, NoReturn, Optional, Sequence

from .engine import AddAssets, AssetSpec, Event, KillRobot, WorldSnapshot, check_events
from .geometry import Point, ordered_sum
from .instances import (
    DEFAULT_R_COMM,
    DEFAULT_R_MAX,
    KAPPA_DEFAULT_CHOICES,
    Instance,
    Workspace,
    _field,
    _int_list,
    _integer,
    _known_keys,
    _number,
    _object,
    _read_json,
    generate_uniform,
    instance_from_dict,
    load_instance,
    preset,
    save_instance,
)
from .metrics import RoundMetrics, optimality_gap, summarize, total_cost, write_trace
from .oracle import SOLVE_MAX_ASSETS, SOLVE_MAX_ROBOTS, solve_exact
from .protocol import Config, RunResult, RunStatus, run

_CONFIG_KEYS = {"lambda": "lam", "seed": "seed", **{f.name: f.name for f in fields(Config)}}


class ScenarioError(ValueError):
    pass


@dataclass(frozen=True)
class Scenario:
    instance: Instance
    events: tuple[Event, ...]
    config: Config
    seed: int


def _parse_config(data: Any, what: str, config_path: Optional[Path]) -> tuple[Config, Optional[int]]:
    """The config object `data`, with the overrides of the `--config` file
    at config_path, if any, on top, and its seed.  Two keys of one object
    that set one field ('lambda' sets lam) are an error: one would be
    ignored."""
    layers = [(data, what)]
    if config_path is not None:
        layers.append((_read_json(config_path), f"{config_path}: config"))
    values: dict[str, Any] = {}
    for layer, where in layers:
        keys: dict[str, str] = {}
        for key, value in _object(layer, where).items():
            name = _CONFIG_KEYS.get(key)
            if name is None:
                raise ScenarioError(f"unknown config key: {key!r}")
            if name in keys:
                raise ScenarioError(f"{where}: keys {keys[name]!r} and {key!r} both set {name}")
            keys[name] = key
            values[name] = value
    seed = _integer(values.pop("seed"), "config seed") if "seed" in values else None
    return Config(**values), seed


def _parse_events(items: Any, instance: Instance) -> tuple[Event, ...]:
    """Events of a scenario; `load_scenario` checks them against its
    instance (see `engine.check_events`)."""
    if not isinstance(items, list):
        raise ScenarioError(f"scenario events must be a list, got {items!r}")
    events = []
    for i, item in enumerate(items):
        where = f"event {i}"
        _known_keys(_object(item, where), ("at_round", "kind", "payload"), where)
        at_round = _integer(_field(item, "at_round", where), f"{where} at_round")
        kind = _field(item, "kind", where)
        payload = item.get("payload")
        if kind == "add_assets":
            if not isinstance(payload, list):
                raise ScenarioError(f"{where}: add_assets payload must be a list of {{x, y, kappa}}")
            specs = []
            for k, a in enumerate(payload):
                what = f"{where} asset {k}"
                _known_keys(_object(a, what), ("x", "y", "kappa"), what)
                pos = Point(_number(_field(a, "x", what), f"{what} x"), _number(_field(a, "y", what), f"{what} y"))
                specs.append(AssetSpec(pos, _integer(a.get("kappa", 1), f"{what} kappa")))
            events.append(Event(at_round, AddAssets(tuple(specs))))
        elif kind == "kill_robot":
            if isinstance(payload, dict):
                _known_keys(payload, ("robot_id",), f"{where} payload")
                payload = _field(payload, "robot_id", where)
            rid = _integer(payload, f"{where} robot_id")
            if rid < 0:  # KillRobot rejects it too, but without the instance's range
                raise ScenarioError(f"{where}: robot_id {rid} is not in 0..{instance.m - 1}")
            events.append(Event(at_round, KillRobot(rid)))
        else:
            raise ScenarioError(f"{where}: unknown event kind: {kind!r}")
    return tuple(events)


def load_scenario(
    path: Path, cli_seed: Optional[int] = None, config_path: Optional[Path] = None
) -> Scenario:
    """Parse a scenario JSON file into an instance, events, and config.

    The instance comes from exactly one of an `instance` object and an
    `instance_file` path.  A bare instance JSON (with a workspace field and
    no instance reference) is accepted as a scenario; beside the instance's
    keys it may hold events and config.  Any other key is an error.
    """
    data = _read_json(path)
    inline = {k: v for k, v in _object(data, f"{path}: scenario").items() if k not in ("events", "config")}
    if "instance" in data or "instance_file" in data:
        _known_keys(inline, ("instance", "instance_file"), f"{path}: scenario")
    if "instance" in data and "instance_file" in data:
        raise ScenarioError(f"{path}: scenario has both 'instance' and 'instance_file': give exactly one of them")

    config, cfg_seed = _parse_config(data.get("config", {}), "scenario config", config_path)
    seed = cli_seed if cli_seed is not None else (cfg_seed if cfg_seed is not None else 0)

    base_dir = path.parent
    if "instance" in data:
        inst = instance_from_dict(data["instance"], base_dir, default_seed=seed)
    elif "instance_file" in data:
        name = data["instance_file"]
        if not isinstance(name, str):
            raise ScenarioError(f"{path}: scenario instance_file must be a path string, got {name!r}")
        inst = load_instance(base_dir / name, default_seed=seed)
    elif "workspace" in data:
        inst = instance_from_dict(inline, base_dir, default_seed=seed)
    else:
        raise ScenarioError(f"{path}: scenario needs an instance, instance_file, or inline instance")

    events = _parse_events(data.get("events", []), inst)
    check_events(events, inst)
    return Scenario(inst, events, config, seed)


def _snapshot_dict(snapshot: WorldSnapshot, sm: RoundMetrics) -> dict[str, Any]:
    return {
        "round": snapshot.round,
        "phase": snapshot.phase.value,
        "robots": [
            {
                "id": r.id,
                "x": r.pos.x,
                "y": r.pos.y,
                "radius": r.radius,
                "alive": r.alive,
                "assigned": sorted(r.assigned),
            }
            for r in snapshot.robots
        ],
        "metrics": {
            "undercovered": sm.undercovered_count,
            "overcovered": sm.overcovered_count,
            "total_cost": sm.total_cost,
            "undiscovered": sm.undiscovered_count,
        },
    }


_EXIT_BY_STATUS = {
    RunStatus.FEASIBLE: 0,
    RunStatus.INFEASIBLE: 2,
    RunStatus.ITERATION_CAP: 2,
}


def _phases(trace: Sequence[RoundMetrics]) -> list[dict[str, Any]]:
    """One entry per contiguous stretch of one phase in the trace: its first
    and last round and the metrics of its last row."""
    stretches: list[list[RoundMetrics]] = []
    for rm in trace:
        if stretches and stretches[-1][0].phase == rm.phase:
            stretches[-1][1] = rm
        else:
            stretches.append([rm, rm])
    return [
        {
            "phase": first.phase,
            "first_round": first.round,
            "last_round": last.round,
            "total_cost": last.total_cost,
            "undercovered": last.undercovered_count,
            "overcovered": last.overcovered_count,
        }
        for first, last in stretches
    ]


def _run_and_write(scenario: Scenario, out: Path) -> RunResult:
    """Run a scenario, write its trace, final snapshot and result into `out`
    and print its status line: the one path of `run` and `dynamic`, so the
    two write the same files."""
    result = run(scenario.instance, scenario.config, scenario.events)
    out.mkdir(parents=True, exist_ok=True)
    write_trace(out / "trace.csv", result.trace)
    with open(out / "final_snapshot.json", "w") as fh:
        json.dump(_snapshot_dict(result.snapshot, result.trace[-1]), fh, indent=2)
        fh.write("\n")
    sm = result.trace[-1]
    payload = {
        "status": result.status.value,
        "rounds": result.snapshot.round,
        "total_cost": sm.total_cost,
        "undercovered": sm.undercovered_count,
        "overcovered": sm.overcovered_count,
        "undiscovered": sm.undiscovered_count,
        "swaps": len(result.swaps),
        "time_to_feasibility": result.timings.time_to_feasibility,
        "total_seconds": result.timings.total_seconds,
        "phases": _phases(result.trace),
    }
    with open(out / "result.json", "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(
        f"status={result.status.value} rounds={result.snapshot.round} "
        f"cost={sm.total_cost:.2f} undercovered={sm.undercovered_count}"
    )
    return result


def cmd_generate(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    shape = {"--n": args.n, "--m": args.m, "--r-comm": args.r_comm, "--r-max": args.r_max,
             "--kappa": args.kappa, "--workspace": args.workspace}
    if args.preset:
        if args.param is None:
            raise ScenarioError("--param is required with --preset")
        given = [flag for flag, value in shape.items() if value is not None]
        if given:
            raise ScenarioError(f"--preset {args.preset} sets the whole instance, so it takes no {', '.join(given)}")
        inst = preset(args.preset, args.param, seed)
    else:
        if args.param is not None:
            raise ScenarioError("--param is read only with --preset")
        if args.n is None or args.m is None:
            raise ScenarioError("either --preset/--param or --n/--m must be given")
        ws = Workspace(*(args.workspace or (0.0, 100.0, 0.0, 100.0)))
        assets = generate_uniform(args.n, ws, tuple(args.kappa or KAPPA_DEFAULT_CHOICES), seed)
        r_comm = DEFAULT_R_COMM if args.r_comm is None else args.r_comm
        r_max = DEFAULT_R_MAX if args.r_max is None else args.r_max
        inst = Instance(ws, assets, args.m, r_comm, r_max)
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    save_instance(out / "instance.json", inst)
    print(f"instance with n={inst.n} m={inst.m} written to {out / 'instance.json'}")
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(Path(args.scenario), args.seed, _opt_path(args.config))
    result = _run_and_write(scenario, Path(args.out or "."))
    return _EXIT_BY_STATUS[result.status]


# The swept instance fields, each with the reader that checks its type.
_SWEEP_PARAMS = {"r_comm": _number, "r_max": _number, "n": _integer, "m": _integer}
_SWEEP_KEYS = {"parameter", "values", "trials", "seeds", "base", "config"}
_SWEEP_BASE_KEYS = {*_SWEEP_PARAMS, "workspace", "kappa_choices"}


def sweep(spec: dict[str, Any], seed: int, out: Path, config_path: Optional[Path] = None) -> None:
    """Run a sensitivity sweep spec (see README) and write runs.csv and
    summary.csv into `out`.  Trial t uses seed + t unless the spec lists
    its own seeds.  The overrides of a `--config` file at config_path go on
    top of the spec's config, which takes no seed."""
    _known_keys(_object(spec, "sweep spec"), _SWEEP_KEYS, "sweep spec")
    parameter = spec.get("parameter")
    if parameter not in _SWEEP_PARAMS:
        raise ScenarioError(f"sweep parameter must be one of {tuple(_SWEEP_PARAMS)}")
    values = spec.get("values")
    if not isinstance(values, list) or not values:
        raise ScenarioError("sweep values must be a nonempty list")
    seeds = spec.get("seeds")
    if seeds is not None:
        seeds = _int_list(seeds, "sweep seeds")
    trials = _integer(spec.get("trials", len(seeds or ()) or 1), "sweep trials", least=1)
    if seeds is None:
        seeds = [seed + t for t in range(trials)]
    if len(seeds) != trials:
        raise ScenarioError("sweep needs exactly one seed per trial")
    base = _object(spec.get("base", {}), "sweep base")
    _known_keys(base, _SWEEP_BASE_KEYS, "sweep base")
    base = {"n": 200, "m": 50, "r_comm": DEFAULT_R_COMM, "r_max": DEFAULT_R_MAX, **base}
    fixed = {k: check(base[k], f"sweep base {k}") for k, check in _SWEEP_PARAMS.items()}
    ws_vals = base.get("workspace", [0.0, 100.0, 0.0, 100.0])
    if not isinstance(ws_vals, list) or len(ws_vals) != 4:
        raise ScenarioError("sweep base workspace must be [x_min, x_max, y_min, y_max]")
    ws = Workspace(*(_number(v, "sweep base workspace bound") for v in ws_vals))
    kappa = _int_list(base.get("kappa_choices", list(KAPPA_DEFAULT_CHOICES)), "sweep base kappa_choices")
    config, cfg_seed = _parse_config(spec.get("config", {}), "sweep config", config_path)
    if cfg_seed is not None:
        raise ScenarioError("sweep config takes no seed: give --seed or the spec's seeds")

    # Every instance is built before the first run, so a bad value fails
    # the sweep up front instead of after the runs before it.
    cases = []
    checked: list[float] = []
    for value in values:
        p = {**fixed, parameter: _SWEEP_PARAMS[parameter](value, f"sweep {parameter} value")}
        if p[parameter] in checked:
            raise ScenarioError(f"sweep values repeat {parameter} = {value!r}: each value is one summary row")
        checked.append(p[parameter])
        for trial, trial_seed in enumerate(seeds):
            assets = generate_uniform(p["n"], ws, kappa, trial_seed)
            cases.append((value, trial, trial_seed, Instance(ws, tuple(assets), p["m"], p["r_comm"], p["r_max"])))

    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for value, trial, trial_seed, inst in cases:
        result = run(inst, config)
        sm = result.trace[-1]
        ok = result.status is RunStatus.FEASIBLE and sm.undercovered_count == 0
        rows.append(
            {
                "parameter": parameter,
                "value": value,
                "trial": trial,
                "seed": trial_seed,
                "status": result.status.value,
                "feasible": int(ok),
                "total_cost": sm.total_cost,
                "undercovered": sm.undercovered_count,
                "time_to_feasibility": result.timings.time_to_feasibility,
                "total_seconds": result.timings.total_seconds,
            }
        )

    with open(out / "runs.csv", "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()), lineterminator="\n")
        w.writeheader()
        w.writerows(rows)

    with open(out / "summary.csv", "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(
            [
                "parameter",
                "value",
                "trials",
                "failure_fraction",
                "median_cost",
                "min_cost",
                "max_cost",
                "median_seconds",
                "min_seconds",
                "max_seconds",
            ]
        )
        for value in values:
            grp = [r for r in rows if r["value"] == value]
            ok = [r for r in grp if r["feasible"]]
            fail = 1.0 - len(ok) / len(grp)
            costs = [r["total_cost"] for r in ok]
            secs = [r["total_seconds"] for r in grp]
            w.writerow(
                [
                    parameter,
                    value,
                    len(grp),
                    f"{fail:.4f}",
                    f"{statistics.median(costs):.6f}" if costs else "",
                    f"{min(costs):.6f}" if costs else "",
                    f"{max(costs):.6f}" if costs else "",
                    f"{statistics.median(secs):.6f}",
                    f"{min(secs):.6f}",
                    f"{max(secs):.6f}",
                ]
            )
            print(f"{parameter}={value}: failure fraction {fail:.2f} over {len(grp)} trials")


def cmd_sweep(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else 0
    sweep(_read_json(args.sweep), seed, Path(args.out or "."), _opt_path(args.config))
    return 0


def _load_static(args: argparse.Namespace) -> Scenario:
    scenario = load_scenario(Path(args.scenario), args.seed, _opt_path(args.config))
    if scenario.events:
        raise ScenarioError(f"{args.command} takes no events: the exact solver sees only the initial assets")
    return scenario


def cmd_compare(args: argparse.Namespace) -> int:
    scenario = _load_static(args)
    inst = scenario.instance
    if inst.n > SOLVE_MAX_ASSETS or inst.m > SOLVE_MAX_ROBOTS:
        raise ScenarioError(
            f"refusing: exact solver is limited to {SOLVE_MAX_ASSETS} assets "
            f"and {SOLVE_MAX_ROBOTS} robots (got n={inst.n}, m={inst.m})"
        )
    result = run(inst, scenario.config)
    sm = result.trace[-1]
    placement = solve_exact(inst.assets, inst.m, inst.r_max)
    dist_ok = result.status is RunStatus.FEASIBLE and sm.undercovered_count == 0
    print(f"distributed: status={result.status.value} cost={sm.total_cost:.6f}")
    print(f"exact:       feasible={placement.feasible} cost={placement.total_cost:.6f}")
    if not (dist_ok and placement.feasible):
        return 2
    # Both costs as pi times the squared radii added in ascending order, so
    # that equal placements give equal costs and a gap of exactly 0.
    dist_cost, opt_cost = (
        math.pi * ordered_sum(sorted(r * r for r in radii))
        for radii in ([r.radius for r in result.snapshot.robots if r.alive], [d.radius for d in placement.disks])
    )
    gap = optimality_gap(dist_cost, opt_cost)
    if math.isfinite(gap):
        print(f"gap:         {gap:.2f}%")
    else:
        print("gap:         undefined (zero-cost optimum)")
    return 0


def cmd_dynamic(args: argparse.Namespace) -> int:
    scenario = load_scenario(Path(args.scenario), args.seed, _opt_path(args.config))
    if not scenario.events:
        raise ScenarioError("dynamic scenarios must declare at least one event")
    out = Path(args.out or ".")
    result = _run_and_write(scenario, out)
    # One record per round at which events fired, in firing order, each
    # measured from the snapshot before those events to the mission's end.
    final, post_cost = result.snapshot, result.trace[-1].total_cost
    adaptation = []
    for event_round, pre in result.pre_event_snapshots:
        changed = [
            r.id
            for r, f in zip(pre.robots, final.robots)
            if (r.pos, r.radius, r.alive) != (f.pos, f.radius, f.alive)
        ]
        adaptation.append(
            {
                "event_round": event_round,
                "changed_robots": changed,
                "new_assets": len(final.assets) - len(pre.assets),
                "pre_cost": total_cost(pre),
                "post_cost": post_cost,
            }
        )
        print(f"event at round {event_round}: {len(changed)}/{len(pre.robots)} robots changed")
    summary = {"events": len(scenario.events), "status": result.status.value, "adaptation": adaptation}
    with open(out / "dynamic_summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    with open(out / "pre_event_snapshot.json", "w") as fh:
        json.dump([_snapshot_dict(pre, summarize(pre)) for _, pre in result.pre_event_snapshots], fh, indent=2)
        fh.write("\n")
    return _EXIT_BY_STATUS[result.status]


def cmd_oracle(args: argparse.Namespace) -> int:
    scenario = _load_static(args)
    inst = scenario.instance
    placement = solve_exact(inst.assets, inst.m, inst.r_max)
    payload = {
        "feasible": placement.feasible,
        "total_cost": placement.total_cost,
        "disks": [
            {"x": d.center.x, "y": d.center.y, "radius": d.radius} for d in placement.disks
        ],
    }
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "placement.json", "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    print(json.dumps(payload))
    return 0 if placement.feasible else 2


def _opt_path(value: Optional[str]) -> Optional[Path]:
    return Path(value) if value else None


def _workspace_arg(text: str) -> tuple[float, float, float, float]:
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 4:
        raise argparse.ArgumentTypeError("workspace must be x_min,x_max,y_min,y_max")
    return parts[0], parts[1], parts[2], parts[3]


def _kappa_arg(text: str) -> list[int]:
    return [int(v) for v in text.split(",")]


class _Parser(argparse.ArgumentParser):
    """An argument parser whose parse errors `main` reports like any other
    validation error, with exit code 1: argparse's own exit code 2 is the
    code of an infeasible run.  Subparsers are built with the same class."""

    def error(self, message: str) -> NoReturn:
        self.print_usage(sys.stderr)
        raise ScenarioError(message)


# The flags every subcommand shares.  SUPPRESS keeps an unused flag from
# writing into the namespace, so a value parsed before the subcommand
# survives the subparser pass.
_SHARED_FLAGS = {
    "--seed": {"type": int, "help": "master seed (overrides scenario config)"},
    "--out": {"help": "output directory (default: cwd)"},
    "--config": {"help": "JSON file with config overrides"},
}

# The shared flag a subcommand does not read, and the error that names it.
# Its parser lacks the flag, so its --help does not list it; before the
# subcommand the root parser takes every shared flag, so `main` refuses it
# in either position.
_UNREAD_FLAG = {
    "generate": ("--config", "generate takes no --config: an instance has no protocol config"),
    "compare": ("--out", "compare writes no files, so it takes no --out"),
}


def _add_shared_flags(parser: argparse.ArgumentParser, command: Optional[str] = None) -> None:
    unread = _UNREAD_FLAG.get(command, ("",))[0]
    for flag, kwargs in _SHARED_FLAGS.items():
        if flag != unread:
            parser.add_argument(flag, default=argparse.SUPPRESS, **kwargs)


def build_parser() -> argparse.ArgumentParser:
    # The root and each subcommand take the shared flags, so they work in
    # either position; each parser has its own copies, since set_defaults on
    # the root would otherwise reach the subparsers and make them clobber
    # root-parsed values.
    parser = _Parser(prog="swarmcover", description=__doc__.split("\n")[0])
    _add_shared_flags(parser)
    parser.set_defaults(seed=None, out=None, config=None)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(command, help=help)
        _add_shared_flags(p, command)
        return p

    g = add("generate", "build and save an instance")
    g.add_argument("--preset", choices=["uni_sm", "uni_fix_n"], default=None)
    g.add_argument("--param", type=int, default=None, help="preset parameter (n or m)")
    g.add_argument("--n", type=int, default=None)
    g.add_argument("--m", type=int, default=None)
    # The uniform instance's shape; a preset sets all of it.  The defaults
    # are filled in by cmd_generate, so that a given flag can be told apart.
    g.add_argument("--r-comm", type=float, default=None, help=f"default {DEFAULT_R_COMM}")
    g.add_argument("--r-max", type=float, default=None, help=f"default {DEFAULT_R_MAX}")
    g.add_argument("--kappa", type=_kappa_arg, default=None, help=f"default {KAPPA_DEFAULT_CHOICES}")
    g.add_argument("--workspace", type=_workspace_arg, default=None, help="x_min,x_max,y_min,y_max, default 0,100,0,100")
    g.set_defaults(func=cmd_generate)

    r = add("run", "execute a scenario")
    r.add_argument("scenario")
    r.set_defaults(func=cmd_run)

    s = add("sweep", "sensitivity sweep")
    s.add_argument("sweep")
    s.set_defaults(func=cmd_sweep)

    c = add("compare", "distributed vs exact solver")
    c.add_argument("scenario")
    c.set_defaults(func=cmd_compare)

    d = add("dynamic", "scenario with events, adaptation report")
    d.add_argument("scenario")
    d.set_defaults(func=cmd_dynamic)

    o = add("oracle", "exact solver only")
    o.add_argument("scenario")
    o.set_defaults(func=cmd_oracle)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = build_parser()
        args, extra = parser.parse_known_args(argv)
        flag, message = _UNREAD_FLAG.get(args.command, ("", ""))
        if flag and (getattr(args, flag[2:]) is not None or any(a == flag or a.startswith(flag + "=") for a in extra)):
            raise ScenarioError(message)
        if extra:
            parser.error(f"unrecognized arguments: {' '.join(extra)}")
        return args.func(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
