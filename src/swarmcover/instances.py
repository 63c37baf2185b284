"""Problem instances: assets with coverage demands, workspaces, benchmark
generators, grid seeding for the exploration phase, and file I/O."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

import numpy as np

from .geometry import Point

KAPPA_DEFAULT_CHOICES = (1, 2, 3)
DEFAULT_R_COMM = 55.0
DEFAULT_R_MAX = 40.0
DEFAULT_GRID_LAMBDA = 2.0

ASSET_CSV_HEADER = ("id", "x", "y", "kappa")


class AssetCsvError(ValueError):
    """Malformed asset CSV content; the message carries the line number."""


@dataclass(frozen=True)
class Asset:
    """A point of interest that must be covered by kappa distinct robots."""

    id: int
    pos: Point
    kappa: int

    def __post_init__(self) -> None:
        # A float id indexes nothing, and a float or bool kappa would compare
        # against integer holder counts without complaint: kappa 1.5 is met
        # by 2 holders.
        _integer(self.id, "asset id", least=0)
        _integer(self.kappa, "kappa", least=1)


@dataclass(frozen=True)
class Workspace:
    """Axis-aligned rectangular mission area (closed bounds, meters)."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.x_min, self.x_max, self.y_min, self.y_max))):
            raise ValueError("workspace bounds must be finite")
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise ValueError(f"workspace bounds must be ordered, got {self}")

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    @property
    def height(self) -> float:
        return self.y_max - self.y_min

    def contains(self, p: Point) -> bool:
        return self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max


@dataclass(frozen=True)
class GridShape:
    """Rows x columns of the seeding grid, canonical n_r <= n_c."""

    n_r: int
    n_c: int

    def __post_init__(self) -> None:
        if self.n_r < 1 or self.n_c < 1:
            raise ValueError(f"grid shape must be positive, got {self}")
        if self.n_r > self.n_c:
            raise ValueError(f"grid shape must satisfy n_r <= n_c, got {self}")


@dataclass(frozen=True)
class Instance:
    """One coverage problem: assets, robot budget, and the two radii."""

    workspace: Workspace
    assets: tuple[Asset, ...]
    m: int
    r_comm: float
    r_max: float

    def __post_init__(self) -> None:
        # True would pass as one robot, and a float m fails deep in the run.
        _integer(self.m, "m", least=1)
        _number(self.r_comm, "r_comm", positive=True)
        _number(self.r_max, "r_max", positive=True)
        for i, a in enumerate(self.assets):
            if a.id != i:
                raise ValueError(f"asset ids must be dense 0..n-1, got id {a.id} at index {i}")
            if not self.workspace.contains(a.pos):
                raise ValueError(f"asset {a.id} at ({a.pos.x}, {a.pos.y}) lies outside the workspace")

    @property
    def n(self) -> int:
        return len(self.assets)


def generate_uniform(n: int, workspace: Workspace, kappa_choices: Sequence[int], seed: int) -> list[Asset]:
    """n assets placed i.i.d. uniformly in the workspace, kappa drawn
    uniformly from kappa_choices.  Same seed, same output."""
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if len(kappa_choices) == 0:
        raise ValueError("kappa_choices must be nonempty")
    for k in kappa_choices:
        # A float or bool would pass through int() silently as another kappa.
        if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
            raise ValueError(f"kappa_choices must hold integers, got {k!r}")
        if k < 1:
            raise ValueError(f"kappa_choices must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    xs = rng.uniform(workspace.x_min, workspace.x_max, size=n)
    ys = rng.uniform(workspace.y_min, workspace.y_max, size=n)
    idx = rng.integers(0, len(kappa_choices), size=n)
    return [
        Asset(i, Point(float(xs[i]), float(ys[i])), int(kappa_choices[int(idx[i])]))
        for i in range(n)
    ]


def preset(name: str, param: int, seed: int) -> Instance:
    """Benchmark families on the 100 m x 100 m workspace.

    uni_sm fixes m=20 robots and scales the asset count (n=param);
    uni_fix_n fixes n=250 assets and scales the robot count (m=param).
    """
    ws = Workspace(0.0, 100.0, 0.0, 100.0)
    if name == "uni_sm":
        n, m = param, 20
    elif name == "uni_fix_n":
        n, m = 250, param
    else:
        raise ValueError(f"unknown preset {name!r}; expected 'uni_sm' or 'uni_fix_n'")
    assets = generate_uniform(n, ws, KAPPA_DEFAULT_CHOICES, seed)
    return Instance(ws, tuple(assets), m, DEFAULT_R_COMM, DEFAULT_R_MAX)


def grid_partition(m: int, lam: float = DEFAULT_GRID_LAMBDA) -> GridShape:
    """Grid shape minimizing (n_r*n_c - m) + lam*|n_r - n_c| over n_r*n_c >= m.

    Ties break toward smaller n_c, then smaller n_r.  For a fixed n_r the
    objective is increasing in n_c, so only n_c = max(n_r, ceil(m/n_r))
    needs to be examined.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    best: tuple[float, int, int] | None = None
    for n_r in range(1, m + 1):
        n_c = max(n_r, -(-m // n_r))
        obj = (n_r * n_c - m) + lam * (n_c - n_r)
        key = (obj, n_c, n_r)
        if best is None or key < best:
            best = key
    assert best is not None
    return GridShape(best[2], best[1])


def initial_positions(m: int, workspace: Workspace, shape: GridShape) -> list[Point]:
    """Robot i starts at the center of grid cell (i // n_c, i mod n_c)."""
    if shape.n_r * shape.n_c < m:
        raise ValueError(f"grid {shape} has fewer cells than robots (m={m})")
    dx = workspace.width / shape.n_c
    dy = workspace.height / shape.n_r
    out = []
    for i in range(m):
        r, c = divmod(i, shape.n_c)
        out.append(Point(workspace.x_min + (c + 0.5) * dx, workspace.y_min + (r + 0.5) * dy))
    return out


def save_assets(path: str | Path, assets: Iterable[Asset]) -> None:
    """Write the asset table as CSV with header id,x,y,kappa.

    Coordinates are written with repr, Python's shortest representation that
    round-trips the double exactly.
    """
    lines = [",".join(ASSET_CSV_HEADER)]
    for a in assets:
        lines.append(f"{a.id},{a.pos.x!r},{a.pos.y!r},{a.kappa}")
    Path(path).write_text("\n".join(lines) + "\n")


def load_assets(path: str | Path) -> list[Asset]:
    """Read an asset CSV; malformed content raises AssetCsvError with the
    offending line number."""
    path = Path(path)
    text = path.read_text()
    lines = text.splitlines()
    if not lines or tuple(f.strip() for f in lines[0].split(",")) != ASSET_CSV_HEADER:
        raise AssetCsvError(f"{path}:1: expected header {','.join(ASSET_CSV_HEADER)}")
    out = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise AssetCsvError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
        try:
            aid = int(fields[0])
            x = float(fields[1])
            y = float(fields[2])
            kappa = int(fields[3])
            out.append(Asset(aid, Point(x, y), kappa))
        except ValueError as exc:
            raise AssetCsvError(f"{path}:{lineno}: {exc}") from exc
    return out


# Strict readers: the one input policy that the constructors here, in
# `engine` and in `protocol.Config`, and the CLI's JSON readers share.
# int() and float() would quietly accept 2.9, True or "7", so a wrong type
# or a value out of range is an error that names the field.


def _integer(value: Any, what: str, *, least: int | None = None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")
    return value


def _number(value: Any, what: str, *, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{what} must be a number, got {value!r}")
    if positive and not 0 < value < math.inf:
        raise ValueError(f"{what} must be positive and finite, got {value!r}")
    return float(value)


def _int_list(value: Any, what: str) -> list[int]:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a list of integers, got {value!r}")
    return [_integer(v, f"{what} entry") for v in value]


def _object(value: Any, what: str) -> dict[str, Any]:
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object, got {value!r}")
    return value


def _known_keys(obj: dict[str, Any], known: Iterable[str], what: str) -> None:
    unknown = sorted(set(obj).difference(known))
    if unknown:
        raise ValueError(f"{what}: unknown keys {unknown}")


def _field(obj: Any, key: str, what: str) -> Any:
    if key not in _object(obj, what):
        raise ValueError(f"{what}: missing key {key!r}")
    return obj[key]


_WORKSPACE_KEYS = ("x_min", "x_max", "y_min", "y_max")
_INSTANCE_KEYS = ("workspace", "m", "r_comm", "r_max", "assets_file", "generator")
_GENERATOR_KEYS = ("name", "n", "kappa_choices", "seed")


def instance_from_dict(data: dict, base_dir: str | Path = ".", default_seed: int = 0) -> Instance:
    """Build an Instance from its JSON dict form.

    Assets come either from an `assets_file` CSV (path relative to base_dir)
    or from a `generator` object {name, n, kappa_choices, seed}, never from
    both.  A generator without an explicit seed uses default_seed.  A
    missing field or a value of the wrong type raises ValueError naming the
    field, and so does a key that names no field.
    """
    _known_keys(_object(data, "instance"), _INSTANCE_KEYS, "instance")
    if "assets_file" in data and "generator" in data:
        raise ValueError("instance has both 'assets_file' and 'generator': give exactly one of them")
    ws_data = _object(_field(data, "workspace", "instance"), "instance workspace")
    _known_keys(ws_data, _WORKSPACE_KEYS, "instance workspace")
    ws = Workspace(
        *(_number(_field(ws_data, k, "instance workspace"), f"instance workspace {k}") for k in _WORKSPACE_KEYS)
    )
    m = _integer(_field(data, "m", "instance"), "instance m")
    r_comm = _number(_field(data, "r_comm", "instance"), "instance r_comm")
    r_max = _number(_field(data, "r_max", "instance"), "instance r_max")
    if "assets_file" in data:
        name = data["assets_file"]
        if not isinstance(name, str):
            raise ValueError(f"instance assets_file must be a path string, got {name!r}")
        assets = load_assets(Path(base_dir) / name)
    elif "generator" in data:
        gen = _object(data["generator"], "instance generator")
        _known_keys(gen, _GENERATOR_KEYS, "instance generator")
        if gen.get("name", "uniform") != "uniform":
            raise ValueError(f"unknown generator {gen.get('name')!r}")
        n = _integer(_field(gen, "n", "instance generator"), "generator n")
        seed = _integer(gen.get("seed", default_seed), "generator seed")
        kappas = _int_list(_field(gen, "kappa_choices", "instance generator"), "generator kappa_choices")
        assets = generate_uniform(n, ws, kappas, seed)
    else:
        raise ValueError("instance JSON needs either 'assets_file' or 'generator'")
    return Instance(ws, tuple(assets), m, r_comm, r_max)


def load_instance(path: str | Path, default_seed: int = 0) -> Instance:
    path = Path(path)
    data = json.loads(path.read_text())
    return instance_from_dict(data, base_dir=path.parent, default_seed=default_seed)


def save_instance(path: str | Path, instance: Instance, assets_file: str = "assets.csv") -> None:
    """Write instance JSON plus the referenced asset CSV next to it."""
    path = Path(path)
    save_assets(path.parent / assets_file, instance.assets)
    data = {
        "workspace": {
            "x_min": instance.workspace.x_min,
            "x_max": instance.workspace.x_max,
            "y_min": instance.workspace.y_min,
            "y_max": instance.workspace.y_max,
        },
        "m": instance.m,
        "r_comm": instance.r_comm,
        "r_max": instance.r_max,
        "assets_file": assets_file,
    }
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
