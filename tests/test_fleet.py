import json

import numpy as np
import pytest

from _helpers import (InfeasibleTask, admissible_polytope, contains_point,
                      is_deferrable)
from flexbat import lp
from flexbat.cli import main
from flexbat.errors import BadProfile, ParseError, ValidationError
from flexbat.fleet import (ChargingTask, Fleet, GenProfile, generate_fleet,
                           load_fleet, load_schedule, read_slots, save_fleet,
                           save_schedule, write_slots)


def test_admissible_polytope_two_slot_fixed_energy():
    task = ChargingTask("t", a=1, d=2, p=1.0, e_low=1.0, e_high=1.0)
    poly = admissible_polytope(task, m=2)
    assert poly.coords == (1, 2)
    assert poly.n_rows == 6           # four rate rows, two energy rows
    assert contains_point(poly, [0.5, 0.5])
    assert not contains_point(poly, [1.0, 1.0])
    assert not contains_point(poly, [0.2, 0.2])


def test_admissible_polytope_active_coordinates():
    task = ChargingTask("t", a=2, d=3, p=2.0, e_low=1.0, e_high=3.0)
    poly = admissible_polytope(task, m=4)
    assert poly.coords == (2, 3)
    assert poly.n_rows == 6
    # membership of (0, 0.5, 0.5, 0): restrict to the active coordinates
    assert contains_point(poly, [0.5, 0.5])


def test_admissible_polytope_infeasible_task():
    task = ChargingTask("t", a=1, d=2, p=1.0, e_low=5.0, e_high=6.0)
    with pytest.raises(InfeasibleTask):
        admissible_polytope(task, m=4)


def test_task_invariants():
    with pytest.raises(ValidationError):
        ChargingTask("t", a=3, d=3, p=1.0, e_low=0.0, e_high=1.0)
    with pytest.raises(ValidationError):
        ChargingTask("t", a=1, d=2, p=-1.0, e_low=0.0, e_high=1.0)
    with pytest.raises(ValidationError):
        ChargingTask("t", a=1, d=2, p=1.0, e_low=2.0, e_high=1.0)


def test_deferrable_uses_open_window_formula():
    # window has 3 slots but the test compares against (d - a) * p = 2
    assert is_deferrable(ChargingTask("t", 1, 3, 1.0, 0.5, 1.9))
    assert not is_deferrable(ChargingTask("t", 1, 3, 1.0, 0.5, 2.1))
    assert ChargingTask("t", 1, 3, 1.0, 0.5, 2.1).window_length == 3


def test_generate_fleet_deterministic_bytes(tmp_path):
    f1 = generate_fleet(1000, 24, seed=42)
    f2 = generate_fleet(1000, 24, seed=42)
    assert f1.n == 1000
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_fleet(f1, p1)
    save_fleet(f2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_generate_fleet_invariants():
    fleet = generate_fleet(10, 24, seed=7)
    for t in fleet.tasks:
        assert t.a < t.d <= fleet.m
        assert t.e_low <= t.window_length * t.p + 1e-9


def test_generated_tasks_are_feasible_sets():
    fleet = generate_fleet(15, 24, seed=3)
    for t in fleet.tasks:
        poly = admissible_polytope(t, fleet.m)
        prob = lp.LpProblem(objective=np.zeros(poly.dim), a_in=poly.a, b_in=poly.c)
        assert lp.check_feasible(prob).feasible


def test_generate_fleet_arrival_concentration():
    """Most arrivals land in the first half of the noon-anchored horizon."""
    early = total = 0
    for seed in range(30):
        fleet = generate_fleet(40, 24, seed=seed)
        early += sum(1 for t in fleet.tasks if t.a <= 12)
        total += fleet.n
    assert early / total >= 0.70


def test_generate_fleet_mostly_deferrable():
    count = total = 0
    for seed in range(10):
        fleet = generate_fleet(100, 24, seed=seed)
        count += sum(1 for t in fleet.tasks if is_deferrable(t))
        total += fleet.n
    assert count / total >= 0.90


def test_bad_profile_rejected():
    with pytest.raises(BadProfile):
        generate_fleet(5, 24, seed=0, profile=GenProfile(rate_weights=(1.0,)))
    with pytest.raises(BadProfile):
        generate_fleet(0, 24, seed=0)
    with pytest.raises(BadProfile):
        generate_fleet(5, 4, seed=0)  # minimum stay cannot fit


def test_fleet_json_roundtrip(tmp_path):
    fleet = generate_fleet(20, 24, seed=1)
    path = tmp_path / "fleet.json"
    save_fleet(fleet, path)
    back = load_fleet(path)
    assert back == fleet


def test_fleet_missing_field_named(tmp_path):
    fleet = generate_fleet(3, 24, seed=1)
    data = fleet.to_dict()
    del data["tasks"][1]["p_kw"]
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match="p_kw"):
        load_fleet(path)


@pytest.mark.parametrize("task_id", [None, 7])
def test_fleet_task_id_must_be_a_string(tmp_path, capsys, task_id):
    """A task id that is not a JSON string is a parse error naming the
    file, not the id `str` makes of it ("None", "7")."""
    data = generate_fleet(3, 24, seed=1).to_dict()
    data["tasks"][1]["id"] = task_id
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ParseError, match=f"{path}: task id must be a string"):
        load_fleet(path)
    assert main(["aggregate", "--fleet", str(path), "--out", str(tmp_path / "tree.json"),
                 "--battery", str(tmp_path / "battery.json")]) == 4
    assert "task id must be a string" in capsys.readouterr().err


def test_fleet_horizon_mismatch(tmp_path):
    data = {"m": 4, "delta_h": 1.0, "tasks": [
        {"id": "t0", "a": 1, "d": 6, "p_kw": 1.0, "e_low_kwh": 1.0, "e_high_kwh": 2.0}]}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError):
        load_fleet(path)


def test_duplicate_ids_rejected():
    t = ChargingTask("same", 1, 3, 1.0, 0.5, 1.0)
    with pytest.raises(ValidationError):
        Fleet(m=4, tasks=(t, t))


def test_schedule_csv_roundtrip(tmp_path):
    ids = ["a", "b"]
    sched = np.array([[0.0, 1.25, 0.5], [2.0, 0.0, 0.0]])
    path = tmp_path / "sched.csv"
    save_schedule(ids, sched, path)
    back_ids, back = load_schedule(path)
    assert back_ids == ids
    np.testing.assert_allclose(back, sched, atol=1e-6)
    header = path.read_text().splitlines()[0]
    assert header == "task_id,t1,t2,t3"


def test_csv_cells_round_trip_bit_equal(tmp_path):
    """Slot and schedule CSVs hold every float exactly: reading back what
    `write_slots` and `save_schedule` wrote gives the same bits, for values
    that six decimals would round (a profile 2e-6 kWh below a battery's
    e_low is not inside it)."""
    rng = np.random.default_rng(7)
    x = np.concatenate([rng.normal(size=20) * 10.0 ** rng.integers(-9, 6, size=20),
                        [1 / 3, -2.5e-7, 1e-300, -0.0, 0.0, 123456.7890123]])
    path = tmp_path / "u.csv"
    write_slots(path, {"u_kw": x, "price": x[::-1]})
    assert read_slots(path, m=x.size, column="u_kw").tobytes() == x.tobytes()
    save_schedule(["a", "b"], np.vstack([x, x[::-1]]), tmp_path / "s.csv")
    ids, back = load_schedule(tmp_path / "s.csv")
    assert ids == ["a", "b"] and back.tobytes() == np.vstack([x, x[::-1]]).tobytes()
