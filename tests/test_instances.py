"""Instance construction, generators, grid seeding, and file round-trips."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmcover.engine import AssetSpec, Event, KillRobot
from swarmcover.geometry import Point
from swarmcover.instances import (
    KAPPA_DEFAULT_CHOICES,
    Asset,
    AssetCsvError,
    GridShape,
    Instance,
    Workspace,
    generate_uniform,
    grid_partition,
    initial_positions,
    instance_from_dict,
    load_assets,
    load_instance,
    preset,
    save_assets,
    save_instance,
)
from swarmcover.protocol import Config

WS = Workspace(0.0, 100.0, 0.0, 100.0)


def reference_grid(m: int, lam: float) -> GridShape:
    """Independent exhaustive search over all wide shapes with enough cells."""
    best = None
    for n_r in range(1, m + 1):
        for n_c in range(n_r, m + 1):
            if n_r * n_c < m:
                continue
            obj = (n_r * n_c - m) + lam * (n_c - n_r)
            key = (obj, n_c, n_r)
            if best is None or key < best:
                best = key
    assert best is not None
    return GridShape(best[2], best[1])


def test_workspace_validation():
    with pytest.raises(ValueError):
        Workspace(0.0, 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        Workspace(0.0, math.inf, 0.0, 1.0)
    assert WS.contains(Point(0, 0))
    assert WS.contains(Point(100, 100))
    assert not WS.contains(Point(100.0001, 50))


def test_asset_validation():
    with pytest.raises(ValueError):
        Asset(0, Point(1, 1), 0)
    with pytest.raises(ValueError):
        Asset(-1, Point(1, 1), 1)


def test_asset_kappa_must_be_an_integer():
    # A float kappa is met by a whole number of holders above it, and True
    # reads as 1: neither may pass as a coverage requirement.
    for kappa in (1.5, 2.0, True, "2", np.int64(2)):
        with pytest.raises(ValueError, match="kappa must be an integer"):
            Asset(0, Point(1, 1), kappa)


@pytest.mark.parametrize(
    "build, message",
    [
        # Instance's dense-id test reads 1.0 == 1, and a float id then fails
        # as an index deep inside the run.
        (lambda: Asset(1.0, Point(1, 1), 1), "asset id must be an integer, got 1.0"),
        (lambda: Asset(True, Point(1, 1), 1), "asset id must be an integer, got True"),
        (lambda: Asset(-1, Point(1, 1), 1), "asset id must be >= 0, got -1"),
        (lambda: Asset(0, Point(1, 1), 0), "kappa must be >= 1, got 0"),
        (lambda: Instance(WS, (), 0, 55.0, 40.0), "m must be >= 1, got 0"),
        (lambda: Instance(WS, (), 2.0, 55.0, 40.0), "m must be an integer, got 2.0"),
        (lambda: Instance(WS, (), 2, 0.0, 40.0), "r_comm must be positive and finite, got 0.0"),
        (lambda: Instance(WS, (), 2, 55.0, math.nan), "r_max must be positive and finite, got nan"),
        (lambda: AssetSpec(Point(1, 1), 1.5), "kappa must be an integer, got 1.5"),
        (lambda: KillRobot(-1), "robot id must be >= 0, got -1"),
        (lambda: KillRobot(2.0), "robot id must be an integer, got 2.0"),
        (lambda: Event(-1, KillRobot(0)), "event round must be >= 0, got -1"),
        (lambda: Event(True, KillRobot(0)), "event round must be an integer, got True"),
        (lambda: Config(tau=0.0), "tau must be positive and finite, got 0.0"),
        (lambda: Config(eps="0.1"), "eps must be a number, got '0.1'"),
        (lambda: Config(max_iters_phase2=0), "max_iters_phase2 must be >= 1, got 0"),
        (lambda: Config(max_swap_sweeps=2.0), "max_swap_sweeps must be an integer, got 2.0"),
    ],
)
def test_constructors_word_their_checks_as_the_strict_readers_do(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_asset_builders_pass_plain_integer_kappas(tmp_path):
    # The generator draws from NumPy integers here, and the CSV reader parses
    # text: both must hand Asset a plain int.
    assets = generate_uniform(20, WS, tuple(np.arange(1, 4)), 4)
    assert {type(a.kappa) for a in assets} == {int}
    save_assets(tmp_path / "a.csv", assets)
    assert load_assets(tmp_path / "a.csv") == assets
    (tmp_path / "bad.csv").write_text("id,x,y,kappa\n0,1.0,1.0,1.5\n")
    with pytest.raises(AssetCsvError, match=":2:"):
        load_assets(tmp_path / "bad.csv")


def test_instance_rejects_sparse_ids_and_outside_assets():
    with pytest.raises(ValueError):
        Instance(WS, (Asset(1, Point(1, 1), 1),), 2, 55.0, 40.0)
    with pytest.raises(ValueError):
        Instance(WS, (Asset(0, Point(-1, 1), 1),), 2, 55.0, 40.0)
    with pytest.raises(ValueError):
        Instance(WS, (), 0, 55.0, 40.0)


def test_instance_m_must_be_an_integer():
    # True reads as one robot, and a float m dies inside the run.
    for m in (True, 2.5, 2.0, "2", np.int64(2)):
        with pytest.raises(ValueError, match="m must be an integer"):
            Instance(WS, (), m, 55.0, 40.0)


def test_instance_radii_must_be_numbers():
    for r_comm, r_max, needle in (
        (True, 40.0, "r_comm must be a number, got True"),
        (55.0, True, "r_max must be a number, got True"),
        (False, 40.0, "r_comm must be a number, got False"),
        ("55", 40.0, "r_comm must be a number, got '55'"),
    ):
        with pytest.raises(ValueError, match=needle):
            Instance(WS, (), 2, r_comm, r_max)
    assert Instance(WS, (), 2, 55, 40).r_comm == 55


def test_grid_partition_hand_cases():
    assert grid_partition(1) == GridShape(1, 1)
    assert grid_partition(2) == GridShape(1, 2)
    assert grid_partition(12) == GridShape(3, 4)
    assert grid_partition(20) == GridShape(4, 5)
    assert grid_partition(16) == GridShape(4, 4)
    assert grid_partition(50) == GridShape(7, 8)


@pytest.mark.parametrize("lam", [0.5, 1.0, 2.0])
def test_grid_partition_matches_exhaustive(lam):
    for m in range(1, 61):
        got = grid_partition(m, lam)
        assert got.n_r * got.n_c >= m
        assert got == reference_grid(m, lam)


def test_grid_partition_rejects_bad_args():
    with pytest.raises(ValueError):
        grid_partition(0)
    with pytest.raises(ValueError):
        grid_partition(5, lam=0.0)


def test_initial_positions_cell_centers():
    pos = initial_positions(4, WS, GridShape(2, 2))
    assert pos == [Point(25, 25), Point(75, 25), Point(25, 75), Point(75, 75)]


def test_initial_positions_partial_last_row():
    shape = grid_partition(5)  # 2 x 3
    pos = initial_positions(5, WS, shape)
    assert len(pos) == 5
    assert all(WS.contains(p) for p in pos)
    assert len(set(pos)) == 5
    with pytest.raises(ValueError):
        initial_positions(5, WS, GridShape(2, 2))


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=60, deadline=None)
def test_generate_uniform_in_workspace_and_deterministic(n, seed):
    a = generate_uniform(n, WS, KAPPA_DEFAULT_CHOICES, seed)
    b = generate_uniform(n, WS, KAPPA_DEFAULT_CHOICES, seed)
    assert a == b
    assert [x.id for x in a] == list(range(n))
    assert all(WS.contains(x.pos) for x in a)
    assert all(x.kappa in KAPPA_DEFAULT_CHOICES for x in a)


@pytest.mark.parametrize(
    "choices, needle",
    [
        ((1, 2, 3), None),
        ([np.int64(2), np.int32(3)], None),
        (np.array([1, 2, 3]), None),
        ((), "kappa_choices must be nonempty"),
        (np.array([], dtype=np.int64), "kappa_choices must be nonempty"),
        ((1.5,), "kappa_choices must hold integers, got 1.5"),
        ((2.0,), "kappa_choices must hold integers, got 2.0"),
        ((True,), "kappa_choices must hold integers, got True"),
        (("2",), "kappa_choices must hold integers"),
        ((1, 0), "kappa_choices must be >= 1, got 0"),
    ],
)
def test_generate_uniform_checks_kappa_choices(choices, needle):
    if needle is None:
        got = generate_uniform(20, WS, choices, 4)
        assert {type(a.kappa) for a in got} == {int}
        assert {a.kappa for a in got} <= {int(k) for k in choices}
    else:
        with pytest.raises(ValueError, match=needle):
            generate_uniform(20, WS, choices, 4)


def test_generate_uniform_seed_sensitivity():
    assert generate_uniform(30, WS, (1, 2, 3), 1) != generate_uniform(30, WS, (1, 2, 3), 2)


def test_generate_uniform_kappa_frequencies():
    # multinomial 3-sigma band around n/3 per class
    n = 9999
    assets = generate_uniform(n, WS, (1, 2, 3), seed=123)
    counts = {k: 0 for k in (1, 2, 3)}
    for a in assets:
        counts[a.kappa] += 1
    sigma = math.sqrt(n * (1 / 3) * (2 / 3))
    for k in (1, 2, 3):
        assert abs(counts[k] - n / 3) < 3 * sigma + 1


def test_preset_shapes():
    sm = preset("uni_sm", 60, seed=4)
    assert (sm.n, sm.m, sm.r_comm, sm.r_max) == (60, 20, 55.0, 40.0)
    fx = preset("uni_fix_n", 50, seed=4)
    assert (fx.n, fx.m) == (250, 50)
    with pytest.raises(ValueError):
        preset("clustered", 10, seed=0)


def test_asset_csv_round_trip_bit_exact(tmp_path):
    """Positions survive the text format exactly, digits and all."""
    awkward = [
        Asset(0, Point(0.1 + 0.2, 1 / 3), 1),
        Asset(1, Point(math.pi, math.e), 2),
        Asset(2, Point(99.99999999999999, 1e-7), 3),
    ]
    path = tmp_path / "assets.csv"
    save_assets(path, awkward)
    back = load_assets(path)
    assert back == awkward
    header = path.read_text().splitlines()[0]
    assert header == "id,x,y,kappa"


def test_load_assets_rejects_garbage(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,x,y,kappa\n0,1.0,oops,1\n")
    with pytest.raises(AssetCsvError):
        load_assets(path)
    path.write_text("wrong,header\n")
    with pytest.raises(AssetCsvError):
        load_assets(path)


def test_instance_json_round_trip(tmp_path):
    inst = preset("uni_sm", 25, seed=9)
    save_instance(tmp_path / "instance.json", inst)
    again = load_instance(tmp_path / "instance.json")
    assert again == inst
    data = json.loads((tmp_path / "instance.json").read_text())
    assert set(data) >= {"workspace", "m", "r_comm", "r_max", "assets_file"}


def test_instance_from_dict_generator_form():
    data = {
        "workspace": {"x_min": 0.0, "x_max": 50.0, "y_min": 0.0, "y_max": 50.0},
        "m": 6,
        "r_comm": 55.0,
        "r_max": 40.0,
        "generator": {"name": "uniform", "n": 12, "kappa_choices": [1, 2], "seed": 77},
    }
    inst = instance_from_dict(data)
    expected = generate_uniform(12, Workspace(0.0, 50.0, 0.0, 50.0), [1, 2], 77)
    assert list(inst.assets) == expected
    assert inst.m == 6


def test_instance_from_dict_default_seed_applies():
    data = {
        "workspace": {"x_min": 0.0, "x_max": 50.0, "y_min": 0.0, "y_max": 50.0},
        "m": 3,
        "r_comm": 55.0,
        "r_max": 40.0,
        "generator": {"name": "uniform", "n": 5, "kappa_choices": [1]},
    }
    a = instance_from_dict(data, default_seed=11)
    b = instance_from_dict(data, default_seed=12)
    assert a != b


def test_instance_from_dict_errors():
    base = {
        "workspace": {"x_min": 0.0, "x_max": 1.0, "y_min": 0.0, "y_max": 1.0},
        "m": 1,
        "r_comm": 1.0,
        "r_max": 1.0,
    }
    with pytest.raises(ValueError):
        instance_from_dict(dict(base))  # neither assets_file nor generator
    with pytest.raises(ValueError):
        instance_from_dict({**base, "generator": {"name": "poisson", "n": 3, "kappa_choices": [1]}})
    missing = {k: v for k, v in base.items() if k != "r_comm"}
    missing["generator"] = {"name": "uniform", "n": 3, "kappa_choices": [1]}
    with pytest.raises(ValueError, match="r_comm"):
        instance_from_dict(missing)
