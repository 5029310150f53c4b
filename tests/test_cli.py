import json
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import arbitrage_lp
from flexbat import aggregation, projection
from flexbat.aggregation import AggregateConfig
from flexbat.cli import (arbitrage, baseline_immediate, demo_price_curve,
                         load_prices, main, read_profile, run_pipeline,
                         write_profile)
from flexbat.errors import (EmptyBattery, LengthMismatch, ParseError,
                            TargetOutOfRange, ValidationError)
from flexbat.fleet import (ChargingTask, Fleet, generate_fleet, load_fleet, save_fleet,
                           save_schedule)
from flexbat.geometry import VirtualBattery
from flexbat.cli import PriceSeries
from flexbat.oracle import adequacy_lp
from flexbat.sampling import sample_battery


def write_prices(path, values):
    with open(path, "w") as fh:
        fh.write("slot,price\n")
        for t, v in enumerate(values, start=1):
            fh.write(f"{t},{v}\n")


# ------------------------------------------------------------------- prices

def test_load_prices_mwh_conversion(tmp_path):
    path = tmp_path / "lmp.csv"
    write_prices(path, [30.0] * 24)
    series = load_prices(path, unit="mwh", m=24)
    np.testing.assert_allclose(series.prices, 0.03)


def test_load_prices_length_mismatch(tmp_path):
    path = tmp_path / "lmp.csv"
    write_prices(path, [30.0] * 23)
    with pytest.raises(LengthMismatch):
        load_prices(path, m=24)


def test_load_prices_negative_ok(tmp_path):
    path = tmp_path / "lmp.csv"
    write_prices(path, [10.0, -5.0, 3.0])
    series = load_prices(path, unit="kwh")
    assert series.prices[1] == -5.0


def test_load_prices_bad_header(tmp_path):
    path = tmp_path / "lmp.csv"
    path.write_text("hour,dollars\n1,3\n")
    with pytest.raises(ParseError):
        load_prices(path)


# ---------------------------------------------------------------- arbitrage

def test_arbitrage_constant_price_pins_energy_floor():
    b = VirtualBattery([0.0] * 3, [2.0] * 3, 1.5, 4.0)
    series = PriceSeries(np.full(3, 0.05))
    res = arbitrage(b, series)
    assert res.z.sum() == pytest.approx(b.e_low, abs=1e-7)
    assert res.cost == pytest.approx(0.05 * b.e_low, abs=1e-9)


def test_arbitrage_moves_energy_to_cheap_slot():
    b = VirtualBattery([0.0, 0.0], [1.0, 1.0], 1.0, 1.0)
    res = arbitrage(b, PriceSeries(np.array([2.0, 1.0])))
    np.testing.assert_allclose(res.z, [0.0, 1.0], atol=1e-8)
    assert res.cost == pytest.approx(1.0, abs=1e-9)


def test_arbitrage_length_check():
    b = VirtualBattery([0.0], [1.0], 0.0, 1.0)
    with pytest.raises(LengthMismatch):
        arbitrage(b, PriceSeries(np.array([1.0, 2.0])))


def test_arbitrage_rides_the_bounds():
    """With distinct prices the optimum sits at a bound in all but one slot."""
    rng = np.random.default_rng(12)
    b = VirtualBattery(rng.uniform(0, 1, 6), rng.uniform(2, 4, 6), 9.0, 12.0)
    series = PriceSeries(rng.permutation(np.linspace(0.01, 0.09, 6)))
    res = arbitrage(b, series)
    at_bound = (np.abs(res.z - b.p_low) < 1e-8) | (np.abs(res.z - b.p_high) < 1e-8)
    assert at_bound.sum() >= b.m - 1
    # every slot cheaper than a slot at p_low must itself be saturated
    order = np.argsort(series.prices)
    seen_interior = False
    for t in order:
        if not at_bound[t] or abs(res.z[t] - b.p_low[t]) < 1e-8:
            seen_interior = True
        else:
            assert not seen_interior, "cheap slot left unsaturated"


def test_arbitrage_tied_prices_fill_in_slot_order():
    b = VirtualBattery([0.0] * 3, [1.0] * 3, 1.5, 3.0)
    res = arbitrage(b, PriceSeries(np.full(3, 0.05)))
    np.testing.assert_array_equal(res.z, [1.0, 0.5, 0.0])


def test_arbitrage_rejects_bad_slot_length():
    b = VirtualBattery([0.0], [1.0], 0.0, 1.0)
    for delta in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValidationError):
            arbitrage(b, PriceSeries(np.array([1.0])), delta)


def test_arbitrage_unreachable_energy_raises_empty_battery():
    """Energy reach is checked at the slot length arbitrage is given. The
    first two batteries are consistent at one-hour slots, but at 15 minutes
    the power bounds cannot deliver the energy floor (or, at two hours,
    stay under the ceiling). The third is the other way round: its power
    floor overshoots its energy ceiling at one-hour slots only."""
    prices = PriceSeries(np.array([1.0, 2.0]))
    with pytest.raises(EmptyBattery):
        arbitrage(VirtualBattery([0.0, 0.0], [1.0, 1.0], 1.0, 2.0), prices, 0.25)
    with pytest.raises(EmptyBattery):
        arbitrage(VirtualBattery([1.0, 1.0], [2.0, 2.0], 2.0, 3.0), prices, 2.0)
    battery = VirtualBattery([4.0], [8.0], 1.0, 1.5)
    res = arbitrage(battery, PriceSeries(np.array([1.0])), 0.25)
    np.testing.assert_allclose(res.z, [4.0])
    with pytest.raises(EmptyBattery):
        arbitrage(battery, PriceSeries(np.array([1.0])), 1.0)


_LEVELS = st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0])   # ties and zero prices


@st.composite
def arbitrage_cases(draw):
    """A battery, a price series and a slot length, with negative, zero and
    tied prices, pinned slots, energy intervals that bind or not and
    zero-width energy intervals."""
    m = draw(st.integers(1, 8))
    delta = draw(st.sampled_from([0.25, 0.5, 1.0]))
    floats = st.floats(-2.0, 2.0, allow_subnormal=False)
    prices = draw(st.lists(st.one_of(_LEVELS, floats), min_size=m, max_size=m))
    lo = np.array(draw(st.lists(floats, min_size=m, max_size=m)))
    width = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
                          min_size=m, max_size=m))
    hi = lo + np.array(width)
    e_min, e_max = delta * lo.sum(), delta * hi.sum()
    t_low = draw(st.floats(-0.2, 1.2))
    t_high = t_low if draw(st.booleans()) else draw(st.floats(t_low, 1.4))
    e_low = min(e_min + t_low * (e_max - e_min), e_max)
    e_high = max(e_min + t_high * (e_max - e_min), e_min, e_low)
    battery = VirtualBattery(lo, hi, e_low, e_high)
    return battery, PriceSeries(np.array(prices)), delta


@settings(max_examples=300, deadline=None)
@given(arbitrage_cases())
def test_arbitrage_matches_lp_reference(case):
    battery, prices, delta = case
    res = arbitrage(battery, prices, delta)
    ref = arbitrage_lp(battery, prices, delta)
    assert abs(res.cost - ref.cost) <= 1e-9 * max(1.0, abs(ref.cost))
    assert np.all(res.z >= battery.p_low - 1e-9)
    assert np.all(res.z <= battery.p_high + 1e-9)
    energy = delta * res.z.sum()
    assert battery.e_low - 1e-9 <= energy <= battery.e_high + 1e-9


# ----------------------------------------------------------------- baseline

def test_baseline_theta_zero_charges_minimum():
    fleet = Fleet(m=6, tasks=(ChargingTask("a", 1, 4, 2.0, 3.0, 5.0),
                              ChargingTask("b", 2, 5, 1.0, 2.0, 3.0)))
    profile = baseline_immediate(fleet, 5.0)   # = sum of e_low
    assert profile.sum() == pytest.approx(5.0, abs=1e-9)


def test_baseline_single_task_shape():
    fleet = Fleet(m=4, tasks=(ChargingTask("a", 1, 3, 2.0, 3.0, 3.0),))
    profile = baseline_immediate(fleet, 3.0)
    np.testing.assert_allclose(profile, [2.0, 1.0, 0.0, 0.0], atol=1e-9)


def test_baseline_energy_matches_target():
    fleet = generate_fleet(25, 24, seed=13)
    lo, hi = fleet.total_energy_interval()
    target = 0.4 * lo + 0.6 * hi
    profile = baseline_immediate(fleet, target)
    assert profile.sum() * fleet.delta == pytest.approx(target, abs=1e-6)


def test_baseline_target_out_of_range():
    fleet = generate_fleet(5, 24, seed=13)
    lo, hi = fleet.total_energy_interval()
    with pytest.raises(TargetOutOfRange):
        baseline_immediate(fleet, hi + 1.0)


# ----------------------------------------------------------------- pipeline

@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("pipe")
    fleet = generate_fleet(12, 24, seed=3)
    prices = demo_price_curve(24)
    report = run_pipeline(fleet, prices, AggregateConfig(group_size=4, fanout=3),
                          str(outdir))
    return fleet, prices, outdir, report


def test_pipeline_writes_bundle(small_pipeline):
    _, _, outdir, report = small_pipeline
    for name in ("battery.json", "tree.json", "profile.csv", "schedule.csv",
                 "bounds.csv", "profile_vs_price.csv", "report.json"):
        assert (outdir / name).exists(), name
    assert report["verification"]["green"]
    assert report["verification"]["schedule_valid"]
    assert report["verification"]["adequate"]


def test_pipeline_savings_positive(small_pipeline):
    _, _, _, report = small_pipeline
    assert report["arbitrage"]["savings_fraction"] > 0
    assert report["arbitrage"]["cost_usd"] < report["arbitrage"]["baseline_cost_usd"]


def test_pipeline_optimum_beats_equal_energy_profiles(small_pipeline):
    fleet, prices, outdir, report = small_pipeline
    battery = VirtualBattery.from_dict(json.loads((outdir / "battery.json").read_text()))
    z = read_profile(outdir / "profile.csv", m=fleet.m)
    cost = float(prices.prices @ z)
    for z2 in sample_battery(battery, 50, seed=8, total_energy=float(z.sum())):
        assert cost <= float(prices.prices @ z2) + 1e-7


def test_pipeline_bundle_identical_at_any_width(tmp_path):
    """Every bundle file, tree.json and report.json included, is the same
    byte for byte at one and at two workers."""
    fleet = generate_fleet(12, 24, seed=3)
    prices = demo_price_curve(24)
    dirs = []
    for workers in (1, 2):
        outdir = tmp_path / f"w{workers}"
        run_pipeline(fleet, prices, AggregateConfig(group_size=4, fanout=3,
                                                    workers=workers), str(outdir))
        dirs.append(outdir)
    names = sorted(p.name for p in dirs[0].iterdir())
    assert names == sorted(p.name for p in dirs[1].iterdir())
    assert "tree.json" in names and "report.json" in names
    for name in names:
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes(), name


def test_profile_csv_roundtrip(tmp_path):
    path = tmp_path / "p.csv"
    profile = np.array([0.0, 1.5, 2.25])
    write_profile(profile, path)
    np.testing.assert_allclose(read_profile(path, m=3), profile, atol=1e-6)


# ---------------------------------------------------------------------- CLI

def test_cli_end_to_end(tmp_path):
    fleet_path = tmp_path / "fleet.json"
    tree_path = tmp_path / "tree.json"
    batt_path = tmp_path / "battery.json"
    prices_path = tmp_path / "lmp.csv"
    profile_path = tmp_path / "profile.csv"
    sched_path = tmp_path / "schedule.csv"

    assert main(["gen-fleet", "--n", "8", "--m", "24", "--seed", "4",
                 "--out", str(fleet_path)]) == 0
    assert main(["aggregate", "--fleet", str(fleet_path), "--out", str(tree_path),
                 "--battery", str(batt_path), "--group-size", "4",
                 "--fanout", "3"]) == 0
    write_prices(prices_path, list(np.linspace(40, 20, 24)))
    assert main(["arbitrage", "--battery", str(batt_path), "--prices",
                 str(prices_path), "--out-profile", str(profile_path)]) == 0
    assert main(["dispatch", "--tree", str(tree_path), "--profile",
                 str(profile_path), "--out", str(sched_path)]) == 0
    # CSV cells round-trip, so verify holds at its default tolerance
    assert main(["verify", "--fleet", str(fleet_path), "--schedule",
                 str(sched_path), "--profile", str(profile_path)]) == 0
    assert main(["oracle", "--fleet", str(fleet_path), "--profile",
                 str(profile_path), "--method", "lp"]) == 0


def test_cli_oracle_thm1_small_fleet(tmp_path, capsys):
    fleet = Fleet(m=4, tasks=(ChargingTask("a", 1, 3, 1.0, 0.5, 1.5),
                              ChargingTask("b", 2, 4, 2.0, 1.0, 2.0)))
    fleet_path = tmp_path / "fleet.json"
    save_fleet(fleet, fleet_path)
    profile_path = tmp_path / "u.csv"
    write_profile(np.array([0.5, 1.0, 1.0, 0.4]), profile_path)
    assert main(["oracle", "--fleet", str(fleet_path), "--profile",
                 str(profile_path), "--method", "thm1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["method"] == "thm1" and out["adequate"] is True


def test_cli_oracle_thm1_budget_guard(tmp_path):
    """Large fleets must be routed to the LP method; enumeration refuses."""
    fleet_path = tmp_path / "fleet.json"
    save_fleet(generate_fleet(8, 24, seed=4), fleet_path)
    profile_path = tmp_path / "u.csv"
    write_profile(np.zeros(24), profile_path)
    assert main(["oracle", "--fleet", str(fleet_path), "--profile",
                 str(profile_path), "--method", "thm1"]) == 2


def test_cli_verify_flags_corruption(tmp_path, capsys):
    fleet_path = tmp_path / "fleet.json"
    fleet = generate_fleet(3, 24, seed=7)
    save_fleet(fleet, fleet_path)
    # schedule that overdraws the first task's rate
    sched_path = tmp_path / "bad.csv"
    m = fleet.m
    with open(sched_path, "w") as fh:
        fh.write("task_id," + ",".join(f"t{t}" for t in range(1, m + 1)) + "\n")
        for k, task in enumerate(fleet.tasks):
            row = np.zeros(m)
            row[task.a - 1] = task.p + (1.0 if k == 0 else 0.0)
            fh.write(task.id + "," + ",".join(f"{v:.6f}" for v in row) + "\n")
    profile_path = tmp_path / "u.csv"
    write_profile(np.zeros(m), profile_path)
    code = main(["verify", "--fleet", str(fleet_path), "--schedule",
                 str(sched_path), "--profile", str(profile_path)])
    assert code == 2
    out = json.loads(capsys.readouterr().out)
    assert out["ok"] is False
    kinds = {v["kind"] for v in out["violations"]}
    assert "rate_high" in kinds and "column_sum" in kinds


def test_cli_missing_file_exit_4(capsys):
    assert main(["oracle", "--fleet", "/no/such/file.json",
                 "--profile", "/no/such/u.csv"]) == 4


@pytest.fixture(scope="module")
def small_tree_json(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("tree")
    fleet_path = outdir / "fleet.json"
    save_fleet(generate_fleet(6, 12, seed=3), fleet_path)
    assert main(["aggregate", "--fleet", str(fleet_path),
                 "--out", str(outdir / "tree.json"),
                 "--battery", str(outdir / "battery.json"),
                 "--group-size", "3", "--fanout", "2"]) == 0
    write_profile(np.zeros(12), outdir / "zero.csv")
    return outdir


def _dispatch_exit(tree_path, outdir):
    return main(["dispatch", "--tree", str(tree_path), "--profile",
                 str(outdir / "zero.csv"), "--out", str(outdir / "sched.csv")])


def test_cli_dispatch_truncated_tree_exit_4(small_tree_json, tmp_path, capsys):
    text = (small_tree_json / "tree.json").read_text()
    broken = tmp_path / "tree.json"
    broken.write_text(text[:len(text) // 2])
    assert _dispatch_exit(broken, small_tree_json) == 4
    assert f"{broken}: line" in capsys.readouterr().err


def test_cli_dispatch_tree_missing_field_exit_4(small_tree_json, tmp_path, capsys):
    data = json.loads((small_tree_json / "tree.json").read_text())
    del data["delta_h"]
    broken = tmp_path / "tree.json"
    broken.write_text(json.dumps(data))
    assert _dispatch_exit(broken, small_tree_json) == 4
    assert "missing field 'delta_h'" in capsys.readouterr().err


def test_cli_arbitrage_inverted_power_bounds_exit_4(tmp_path, capsys):
    batt_path = tmp_path / "battery.json"
    data = VirtualBattery([0.0, 0.0], [1.0, 1.0], 0.5, 1.5).to_dict()
    data["p_low"] = [2.0, 0.0]
    batt_path.write_text(json.dumps(data))
    prices_path = tmp_path / "lmp.csv"
    write_prices(prices_path, [30.0, 20.0])
    assert main(["arbitrage", "--battery", str(batt_path), "--prices",
                 str(prices_path), "--out-profile", str(tmp_path / "p.csv")]) == 4
    assert "p_low exceeds p_high" in capsys.readouterr().err


def test_cli_arbitrage_battery_m_mismatch_exit_4(tmp_path, capsys):
    """A battery file whose `m` disagrees with its bound vectors is a parse
    error that names the file."""
    batt_path = tmp_path / "battery.json"
    data = VirtualBattery(np.zeros(24), np.ones(24), 2.0, 10.0).to_dict()
    data["m"] = 23
    batt_path.write_text(json.dumps(data))
    prices_path = tmp_path / "lmp.csv"
    write_prices(prices_path, np.linspace(20.0, 40.0, 24))
    assert main(["arbitrage", "--battery", str(batt_path), "--prices",
                 str(prices_path), "--out-profile", str(tmp_path / "p.csv")]) == 4
    assert f"{batt_path}: battery 'm' disagrees" in capsys.readouterr().err


def test_cli_dispatch_tree_battery_m_mismatch_exit_4(small_tree_json, tmp_path, capsys):
    data = json.loads((small_tree_json / "tree.json").read_text())
    data["battery"]["m"] = 11
    broken = tmp_path / "tree.json"
    broken.write_text(json.dumps(data))
    assert _dispatch_exit(broken, small_tree_json) == 4
    assert f"{broken}: battery 'm' disagrees" in capsys.readouterr().err


def test_cli_arbitrage_battery_short_p_low_exit_4(tmp_path, capsys):
    """A battery file with one `p_low` entry cut off is a parse error that
    names the file."""
    batt_path = tmp_path / "battery.json"
    data = VirtualBattery(np.zeros(24), np.ones(24), 2.0, 10.0).to_dict()
    data["p_low"] = data["p_low"][:-1]
    batt_path.write_text(json.dumps(data))
    prices_path = tmp_path / "lmp.csv"
    write_prices(prices_path, np.linspace(20.0, 40.0, 24))
    assert main(["arbitrage", "--battery", str(batt_path), "--prices",
                 str(prices_path), "--out-profile", str(tmp_path / "p.csv")]) == 4
    assert f"{batt_path}: p_low and p_high lengths differ" in capsys.readouterr().err


def test_cli_dispatch_tree_short_unit_bounds_exit_4(small_tree_json, tmp_path, capsys):
    """A tree file with one unit's `lo` cut short is a parse error that
    names the file."""
    data = json.loads((small_tree_json / "tree.json").read_text())
    node = data["root"]
    while "units" not in node:
        node = node["children"][0]
    unit = node["units"][0]
    unit["lo"] = unit["lo"][:-1]
    broken = tmp_path / "tree.json"
    broken.write_text(json.dumps(data))
    assert _dispatch_exit(broken, small_tree_json) == 4
    assert (f"{broken}: unit {unit['origin']}: bounds vs active slots"
            in capsys.readouterr().err)


def test_cli_arbitrage_battery_nan_p_low_exit_4(tmp_path, capsys):
    """A NaN power bound in a battery file is a parse error that names the
    file, not a NaN profile."""
    batt_path = tmp_path / "battery.json"
    data = VirtualBattery(np.zeros(24), np.ones(24), 2.0, 10.0).to_dict()
    data["p_low"][5] = float("nan")
    batt_path.write_text(json.dumps(data))
    prices_path = tmp_path / "lmp.csv"
    write_prices(prices_path, np.linspace(20.0, 40.0, 24))
    profile_path = tmp_path / "p.csv"
    assert main(["arbitrage", "--battery", str(batt_path), "--prices",
                 str(prices_path), "--out-profile", str(profile_path)]) == 4
    assert (f"{batt_path}: battery bounds and energies must be finite"
            in capsys.readouterr().err)
    assert not profile_path.exists()


def test_cli_dispatch_tree_nan_unit_bound_exit_4(small_tree_json, tmp_path, capsys):
    """A NaN in one unit's bounds is a parse error that names the file."""
    data = json.loads((small_tree_json / "tree.json").read_text())
    node = data["root"]
    while "units" not in node:
        node = node["children"][0]
    unit = node["units"][0]
    unit["hi"][0] = float("nan")
    broken = tmp_path / "tree.json"
    broken.write_text(json.dumps(data))
    assert _dispatch_exit(broken, small_tree_json) == 4
    assert (f"{broken}: unit {unit['origin']}: bounds and energies must be finite"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command, cell", [
    ("oracle", "nan"), ("dispatch", "inf"), ("arbitrage", "nan"), ("verify", "-inf")])
def test_cli_non_finite_csv_cell_exit_4(small_tree_json, tmp_path, capsys, command, cell):
    """A nan or inf cell in a profile, price or schedule CSV is a parse
    error that names the file and line; it never reaches an LP or dispatch."""
    d = small_tree_json
    bad = tmp_path / "bad.csv"
    out = tmp_path / "out.csv"
    if command == "verify":
        fleet = load_fleet(d / "fleet.json")
        save_schedule([t.id for t in fleet.tasks], np.zeros((fleet.n, fleet.m)), bad)
    elif command == "arbitrage":
        write_prices(bad, np.linspace(20.0, 40.0, 12))
    else:
        write_profile(np.zeros(12), bad)
    lines = bad.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] + "," + cell
    bad.write_text("\n".join(lines) + "\n")
    argv = {
        "oracle": ["--fleet", d / "fleet.json", "--profile", bad],
        "dispatch": ["--tree", d / "tree.json", "--profile", bad, "--out", out],
        "arbitrage": ["--battery", d / "battery.json", "--prices", bad,
                      "--out-profile", out],
        "verify": ["--fleet", d / "fleet.json", "--schedule", bad,
                   "--profile", d / "zero.csv"],
    }[command]
    assert main([command, *map(str, argv)]) == 4
    err = capsys.readouterr().err
    assert f"{bad}: line 3: " in err and "must be finite" in err
    assert not out.exists()


def _tree_nodes(node):
    yield node
    for child in node.get("children", ()):
        yield from _tree_nodes(child)


@pytest.mark.parametrize("field, value", [
    ("W", float("nan")), ("V", float("nan")), ("r", float("nan")), ("s", float("nan")),
    ("s", 0.0), ("task_id", None), ("task_id", 7)])
def test_cli_dispatch_tree_bad_app_or_leaf_exit_4(small_tree_json, tmp_path, capsys,
                                                  field, value):
    """A NaN in a node's s, r, W or V, an s of 0 (a division by zero in
    dispatch), or a leaf id that is not a string, is a parse error that
    names the file; no schedule is written."""
    data = json.loads((small_tree_json / "tree.json").read_text())
    if field == "task_id":
        leaf = next(nd for nd in _tree_nodes(data["root"]) if nd["kind"] == "leaf")
        leaf["task_id"] = value
        message = "task id must be a string"
    else:
        app = next(nd["app"] for nd in _tree_nodes(data["root"])
                   if nd["kind"] == "app" and nd["app"]["V"])
        if field == "s":
            app["s"] = value
        else:
            row = app[field][0] if field == "W" else app[field]
            row[0] = value
        message = "s, r, W and V must be finite, and s positive"
    broken = tmp_path / "tree.json"
    broken.write_text(json.dumps(data))
    out = tmp_path / "sched.csv"
    assert main(["dispatch", "--tree", str(broken), "--profile",
                 str(small_tree_json / "zero.csv"), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"{broken}: " in err and message in err
    assert not out.exists()


def _drop_child(node):
    node["children"].pop()


def _shrink_unit_active(node):
    node["elim"]["unit_active"][0].pop()


def _move_elim_coord(node):
    node["elim"]["coords"][-1] += 100


def _drop_r(node):
    node["app"]["r"].pop()
    for row in node["app"]["W"]:
        row.pop()


def _drop_v(node):
    node["app"]["V"].pop()
    node["app"]["W"].pop()


@pytest.mark.parametrize("mutate", [_drop_child, _shrink_unit_active, _move_elim_coord,
                                    _drop_r, _drop_v])
def test_cli_dispatch_tree_fields_disagree_exit_4(small_tree_json, tmp_path, capsys, mutate):
    """An app node whose fields disagree is a parse error naming the file,
    and no schedule is written: a child count that is not the unit count,
    an elimination map over other unit slots or other coords than the
    node's, or an r or V (W cut to match) of the wrong length."""
    data = json.loads((small_tree_json / "tree.json").read_text())
    mutate(next(nd for nd in _tree_nodes(data["root"])
                if nd["kind"] == "app" and nd["app"]["V"] and len(nd["children"]) > 1))
    broken = tmp_path / "tree.json"
    broken.write_text(json.dumps(data))
    out = tmp_path / "sched.csv"
    assert main(["dispatch", "--tree", str(broken), "--profile",
                 str(small_tree_json / "zero.csv"), "--out", str(out)]) == 4
    err = capsys.readouterr().err
    assert f"{broken}: " in err and "disagree in count or slots" in err
    assert not out.exists()


def test_cli_aggregate_dump_lp(tmp_path, monkeypatch):
    """`--dump-lp DIR` writes one `lifted_*.txt` and one `app_*.lp` per APP
    solve: the lifted system row by row, and the LP solved, folded on the
    orbits of interchangeable slots, with Minimize, Subject To, Bounds and
    End, one constraint line per folded row and one bound line per folded
    column. Dumping stops when the command returns, whether it succeeded or
    failed: a later LP in the process writes no file."""
    solves = []
    real = aggregation.solve_app

    def counted(lifted, battery):
        solves.append((lifted, battery))
        return real(lifted, battery)

    monkeypatch.setattr(aggregation, "solve_app", counted)
    fleet_path = tmp_path / "fleet.json"
    save_fleet(generate_fleet(6, 12, seed=3), fleet_path)
    dump = tmp_path / "lp"
    dump.mkdir()
    assert main(["aggregate", "--fleet", str(fleet_path), "--out", str(tmp_path / "tree.json"),
                 "--battery", str(tmp_path / "battery.json"), "--group-size", "3",
                 "--fanout", "2", "--dump-lp", str(dump)]) == 0
    lifted_files = sorted(dump.glob("lifted_*.txt"))
    lp_files = sorted(dump.glob("app_*.lp"))
    assert len(lifted_files) == len(lp_files) == len(solves) > 1
    assert len(list(dump.iterdir())) == 2 * len(solves)
    folded = []
    for (lifted, battery), lifted_path, lp_path in zip(solves, lifted_files, lp_files):
        n, m, mt = lifted.n_rows, lifted.m, lifted.m_tilde
        header, *rows = lifted_path.read_text().splitlines()
        assert header == f"m={m} m_tilde={mt} delta={lifted.delta}" and len(rows) == n
        text = lp_path.read_text().splitlines()
        assert text[1] == "Minimize" and text[-1] == "End"
        subject_to, bounds = text.index("Subject To"), text.index("Bounds")
        kept, _, reps = projection.app_orbits(lifted, battery)
        assert bounds - subject_to - 1 == kept.sum() <= n + n * m
        assert len(text) - bounds - 2 == reps.size <= 1 + n * (m + 2) + m + mt * m + mt
        folded.append(kept.sum() < n + n * m)
    assert any(folded)

    failed = tmp_path / "lp_failed"
    failed.mkdir()
    assert main(["aggregate", "--fleet", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "t.json"), "--battery", str(tmp_path / "b.json"),
                 "--dump-lp", str(failed)]) == 4
    adequacy_lp(load_fleet(fleet_path), np.zeros(12))      # solves one LP
    assert len(list(dump.iterdir())) == 2 * len(solves)
    assert not any(failed.iterdir())


def test_cli_demo_subprocess(tmp_path):
    """The installed console entry point runs the tiny demo end to end."""
    outdir = tmp_path / "demo"
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys; from flexbat.cli import main; sys.exit(main(sys.argv[1:]))",
         "demo", "--seed", "1", "--n", "6", "--outdir", str(outdir),
         "--group-size", "3", "--fanout", "2"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    report = json.loads((outdir / "report.json").read_text())
    assert report["verification"]["green"]


def test_python_m_flexbat_runs_cli_quietly():
    """`python -m flexbat` reaches the CLI without the RuntimeWarning that
    running the already-imported `flexbat.cli` module as a script prints."""
    proc = subprocess.run([sys.executable, "-m", "flexbat", "--help"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert "dispatch" in proc.stdout


def test_cli_arbitrage_zero_delta_exits_2(tmp_path, capsys):
    batt_path = tmp_path / "battery.json"
    batt_path.write_text(json.dumps(
        VirtualBattery([0.0, 0.0], [1.0, 1.0], 0.5, 1.5).to_dict()))
    prices_path = tmp_path / "lmp.csv"
    write_prices(prices_path, [30.0, 20.0])
    assert main(["arbitrage", "--battery", str(batt_path), "--prices",
                 str(prices_path), "--delta", "0",
                 "--out-profile", str(tmp_path / "profile.csv")]) == 2
    assert "slot length" in capsys.readouterr().err
    assert not (tmp_path / "profile.csv").exists()


@pytest.mark.parametrize("value", ["abc", "0"])
def test_cli_rejects_bad_flex_workers(tmp_path, monkeypatch, capsys, value):
    fleet_path = tmp_path / "fleet.json"
    save_fleet(generate_fleet(4, 24, seed=1), fleet_path)
    monkeypatch.setenv("FLEX_WORKERS", value)
    assert main(["aggregate", "--fleet", str(fleet_path),
                 "--out", str(tmp_path / "tree.json"),
                 "--battery", str(tmp_path / "battery.json")]) == 2
    assert "FLEX_WORKERS" in capsys.readouterr().err
    assert not (tmp_path / "tree.json").exists()
