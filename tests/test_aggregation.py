import numpy as np
import pytest

from _helpers import fleet_order_schedule
from flexbat.aggregation import (AggregateConfig, AppNode, CohortNode,
                                 aggregate, bounds_report, dispatch,
                                 load_tree, nominal_for_group,
                                 partition_fleet, save_tree,
                                 synthesize_battery, tree_from_dict,
                                 tree_to_dict)
from flexbat.errors import EmptyOrDegenerate, NotInBattery, ValidationError
from flexbat.fleet import ChargingTask, Fleet, generate_fleet
from flexbat.geometry import VirtualBattery
from flexbat.oracle import adequacy_lp, validate_schedule
from flexbat.projection import solve_app
from flexbat.sampling import battery_interior_point, sample_battery


def identical_fleet(n, m=4, a=1, d=4, p=1.0, e_low=1.2, e_high=2.4):
    return Fleet(m=m, tasks=tuple(
        ChargingTask(f"t{i}", a, d, p, e_low, e_high) for i in range(n)))


# ---------------------------------------------------------------- partition

def test_partition_sizes():
    fleet = generate_fleet(1000, 24, seed=0)
    groups = partition_fleet(fleet, 10, policy="random", seed=1)
    assert len(groups) == 100
    assert all(len(g) == 10 for g in groups)
    ids = [t.id for g in groups for t in g]
    assert sorted(ids) == sorted(t.id for t in fleet.tasks)


def test_partition_remainder():
    fleet = generate_fleet(7, 24, seed=0)
    sizes = sorted(len(g) for g in partition_fleet(fleet, 3))
    assert sizes == [1, 3, 3]


def test_partition_window_sorted_clusters_windows():
    tasks = [ChargingTask("a1", 1, 4, 1.0, 0.5, 1.0),
             ChargingTask("a2", 1, 4, 1.0, 0.5, 1.0),
             ChargingTask("b1", 5, 8, 1.0, 0.5, 1.0),
             ChargingTask("b2", 5, 8, 1.0, 0.5, 1.0)]
    fleet = Fleet(m=8, tasks=tuple(tasks))
    groups = partition_fleet(fleet, 2, policy="window-sorted")
    spans = {(min(t.a for t in g), max(t.d for t in g)) for g in groups}
    assert spans == {(1, 4), (5, 8)}


# ------------------------------------------------------------------ nominal

def test_nominal_single_task_is_own_battery():
    task = ChargingTask("t", 2, 5, 2.0, 1.0, 3.0)
    b = nominal_for_group([task])
    np.testing.assert_allclose(b.p_high, [2.0] * 4)
    np.testing.assert_allclose(b.p_low, 0.0)
    assert (b.e_low, b.e_high) == (1.0, 3.0)


def test_nominal_two_identical_tasks():
    task = ChargingTask("t", 1, 3, 1.5, 1.0, 2.0)
    twin = ChargingTask("u", 1, 3, 1.5, 1.0, 2.0)
    b = nominal_for_group([task, twin])
    np.testing.assert_allclose(b.p_high, [1.5] * 3)
    assert (b.e_low, b.e_high) == (1.0, 2.0)


def test_nominal_column_averages_of_max_matrix():
    """Windows {1,2} and {2,3} at p = 2 average to (1, 2, 1)."""
    g = [ChargingTask("a", 1, 2, 2.0, 1.0, 2.0),
         ChargingTask("b", 2, 3, 2.0, 1.0, 2.0)]
    b = nominal_for_group(g)
    np.testing.assert_allclose(b.p_high, [1.0, 2.0, 1.0])


# ---------------------------------------------------------------- aggregate

def test_aggregate_single_task_identity():
    fleet = identical_fleet(1)
    tree = aggregate(fleet, AggregateConfig(group_size=10, fanout=2))
    assert isinstance(tree.root, AppNode)
    assert tree.root.app.s == pytest.approx(1.0, abs=1e-6)
    task = fleet.tasks[0]
    np.testing.assert_allclose(tree.battery.p_high, [task.p] * fleet.m, atol=1e-6)
    np.testing.assert_allclose(tree.battery.p_low, 0.0, atol=1e-6)
    assert tree.battery.e_low == pytest.approx(task.e_low, abs=1e-6)
    assert tree.battery.e_high == pytest.approx(task.e_high, abs=1e-6)


def test_aggregate_five_identical_scale_five():
    fleet = identical_fleet(5)
    tree = aggregate(fleet, AggregateConfig(group_size=5, fanout=2))
    assert isinstance(tree.root, AppNode)
    lam = tree.root.lam
    assert 5.0 - 1e-4 <= lam <= 5.0 + 1e-7


def test_aggregate_cohort_merge_identical_groups():
    """Three same-span groups share a nominal and fold by scale addition."""
    fleet = identical_fleet(9, m=6, a=2, d=5)
    tree = aggregate(fleet, AggregateConfig(group_size=3, fanout=4))
    assert isinstance(tree.root, CohortNode)
    assert len(tree.root.children) == 3
    assert tree.root.lam == pytest.approx(9.0, abs=1e-5)
    assert tree.n_stages == 1


def test_aggregate_energy_nesting():
    fleet = generate_fleet(40, 24, seed=11)
    tree = aggregate(fleet, AggregateConfig(group_size=10, fanout=11))
    lo, hi = fleet.total_energy_interval()
    assert lo - 1e-6 <= tree.battery.e_low <= tree.battery.e_high <= hi + 1e-6
    # power nesting: the battery never promises more than the fleet can draw
    for t in range(1, fleet.m + 1):
        cap = sum(task.p for task in fleet.tasks if task.a <= t <= task.d)
        assert tree.battery.p_high[t - 1] <= cap + 1e-6
        assert tree.battery.p_low[t - 1] >= -1e-6


def test_aggregate_stage_count_balanced():
    """Nine distinct-window groups at fanout 3 need 1 + log3(9) stages."""
    tasks = []
    for g in range(9):
        a = 1 + g
        for k in range(3):
            tasks.append(ChargingTask(f"g{g}k{k}", a, a + 3, 1.0, 0.8, 1.6))
    fleet = Fleet(m=13, tasks=tuple(tasks))
    tree = aggregate(fleet, AggregateConfig(group_size=3, fanout=3))
    assert tree.stage1_groups == 9
    assert tree.n_stages == 3


def test_aggregate_degenerate_group_retries():
    """A group not covering its cohort span falls back to a member nominal."""
    tasks = [
        # group A: same span (1, 6) as group B but slots 3-4 uncovered
        ChargingTask("a1", 1, 2, 1.0, 0.5, 1.0),
        ChargingTask("a2", 5, 6, 1.0, 0.5, 1.0),
        # group B: full coverage of (1, 6)
        ChargingTask("b1", 1, 6, 1.0, 2.0, 3.0),
        ChargingTask("b2", 1, 6, 1.0, 2.0, 3.0),
    ]
    fleet = Fleet(m=6, tasks=tuple(tasks))
    tree = aggregate(fleet, AggregateConfig(group_size=2, fanout=2,
                                            policy="window-sorted"))
    # pipeline must terminate with a sufficient battery despite the retry
    u = battery_interior_point(tree.battery)
    assert adequacy_lp(fleet, u).adequate
    result = dispatch(tree, u)
    ordered = fleet_order_schedule(fleet, result.task_ids, result.schedule)
    assert validate_schedule(fleet, ordered, u).ok


def test_aggregate_raises_when_a_stage_cannot_merge(monkeypatch):
    """If every multi-unit solve fails, each stage falls to singletons and
    the level never shrinks; aggregate must raise instead of looping."""
    calls = []

    def solo_only(lifted, nominal):
        calls.append(lifted.elim.n_units)
        if len(calls) > 200:
            raise RuntimeError("aggregate keeps solving without progress")
        if lifted.elim.n_units > 1:
            raise EmptyOrDegenerate("forced failure")
        return solve_app(lifted, nominal)

    monkeypatch.setattr("flexbat.aggregation.solve_app", solo_only)
    fleet = generate_fleet(6, 12, seed=2)
    with pytest.raises(EmptyOrDegenerate, match="stage 2"):
        aggregate(fleet, AggregateConfig(group_size=3, fanout=2))


def test_aggregate_empty_fleet_rejected():
    with pytest.raises(ValidationError):
        aggregate(Fleet(m=4, tasks=()), AggregateConfig())


def test_aggregate_config_validation():
    with pytest.raises(ValidationError):
        AggregateConfig(fanout=1)
    with pytest.raises(ValidationError):
        AggregateConfig(group_size=0)
    with pytest.raises(ValidationError):
        AggregateConfig(policy="zigzag")


# --------------------------------------------------------------- synthesize

def test_synthesize_identity_homothet():
    fleet = identical_fleet(1, m=6, a=2, d=5)
    tree = aggregate(fleet, AggregateConfig(group_size=1, fanout=2))
    full = synthesize_battery(tree.root, fleet.m)
    np.testing.assert_allclose(full.p_high[:1], 0.0)   # outside the window
    np.testing.assert_allclose(full.p_high[1:5], 1.0, atol=1e-6)
    assert full.e_high == pytest.approx(2.4, abs=1e-6)


def test_synthesize_cohort_children_add():
    fleet = identical_fleet(4, m=5, a=1, d=4)
    tree = aggregate(fleet, AggregateConfig(group_size=2, fanout=3))
    root = tree.root
    assert isinstance(root, CohortNode)
    lam = sum(c.lam for c in root.children)
    mu = np.sum([c.mu for c in root.children], axis=0)
    assert root.lam == pytest.approx(lam)
    base = root.base
    np.testing.assert_allclose(
        tree.battery.p_high[:4], lam * base.p_high + mu, atol=1e-9)
    assert tree.battery.e_high == pytest.approx(lam * base.e_high + mu.sum(), abs=1e-9)


def test_synthesize_example1_shaped_scale():
    """s = 0.15, r = -0.5 on a one-slot battery recovers bounds [0, 10]."""
    from flexbat.geometry import Homothet, homothet_apply_battery
    nominal = VirtualBattery([-0.5], [1.0], -0.5, 1.0)
    h = Homothet(1.0 / 0.15, np.array([-(-0.5) / 0.15]))
    scaled = homothet_apply_battery(h, nominal)
    assert scaled.p_low[0] == pytest.approx(0.0)
    assert scaled.p_high[0] == pytest.approx(10.0)


# ----------------------------------------------------------------- dispatch

def test_dispatch_identical_tasks_uniform_split():
    fleet = identical_fleet(4)
    tree = aggregate(fleet, AggregateConfig(group_size=4, fanout=2))
    single = np.array([0.5, 0.5, 0.4, 0.4])
    u = 4 * single
    assert tree.battery.contains(u)
    result = dispatch(tree, u)
    ordered = fleet_order_schedule(fleet, result.task_ids, result.schedule)
    report = validate_schedule(fleet, ordered, u)
    assert report.ok, report.violations


def test_dispatch_single_task_identity():
    fleet = identical_fleet(1)
    tree = aggregate(fleet, AggregateConfig(group_size=1, fanout=2))
    u = np.array([0.9, 0.3, 0.4, 0.5])
    result = dispatch(tree, u)
    np.testing.assert_allclose(result.schedule[0], u, atol=1e-9)


def test_dispatch_energy_floor_profile():
    fleet = generate_fleet(20, 24, seed=5)
    tree = aggregate(fleet, AggregateConfig(group_size=5, fanout=4))
    from flexbat.sampling import greedy_profile
    u = greedy_profile(tree.battery, tree.battery.e_low, order="late")
    result = dispatch(tree, u)
    ordered = fleet_order_schedule(fleet, result.task_ids, result.schedule)
    report = validate_schedule(fleet, ordered, u)
    assert report.ok, report.violations[:3]


def test_dispatch_is_affine():
    fleet = generate_fleet(12, 24, seed=9)
    tree = aggregate(fleet, AggregateConfig(group_size=4, fanout=3))
    u1, u2 = sample_battery(tree.battery, 2, seed=1)
    alpha = 0.3
    mix = dispatch(tree, alpha * u1 + (1 - alpha) * u2).schedule
    s1 = dispatch(tree, u1).schedule
    s2 = dispatch(tree, u2).schedule
    np.testing.assert_allclose(mix, alpha * s1 + (1 - alpha) * s2, atol=1e-8)


def test_dispatch_rejects_outsiders():
    fleet = identical_fleet(3)
    tree = aggregate(fleet, AggregateConfig(group_size=3, fanout=2))
    with pytest.raises(NotInBattery):
        dispatch(tree, np.full(fleet.m, 100.0))
    with pytest.raises(NotInBattery):
        dispatch(tree, np.zeros(fleet.m + 1))


def test_dispatch_group_profiles_sum_to_input():
    fleet = identical_fleet(6, m=5, a=1, d=4)
    tree = aggregate(fleet, AggregateConfig(group_size=3, fanout=2))
    u = sample_battery(tree.battery, 1, seed=2)[0]
    result = dispatch(tree, u)
    np.testing.assert_allclose(result.schedule.sum(axis=0), u, atol=1e-8)
    root_label = tree.root.label
    np.testing.assert_allclose(result.group_profiles[root_label], u, atol=1e-12)


# -------------------------------------------------------------------- trees

def test_tree_json_roundtrip_dispatch(tmp_path):
    fleet = generate_fleet(15, 24, seed=21)
    tree = aggregate(fleet, AggregateConfig(group_size=5, fanout=3))
    path = tmp_path / "tree.json"
    save_tree(tree, path)
    back = load_tree(path)
    assert back.m == tree.m and back.n_stages == tree.n_stages
    u = sample_battery(tree.battery, 1, seed=3)[0]
    a = dispatch(tree, u)
    b = dispatch(back, u)
    assert a.task_ids == b.task_ids
    np.testing.assert_allclose(a.schedule, b.schedule, atol=1e-12)


def test_aggregate_zero_width_energy_intervals():
    """Rigid tasks (e_low == e_high) drop full dimensionality but stay valid."""
    tasks = [ChargingTask(f"r{i}", 1 + i % 2, 5 + i % 2, 2.0, 6.0, 6.0)
             for i in range(4)]
    fleet = Fleet(m=7, tasks=tuple(tasks))
    tree = aggregate(fleet, AggregateConfig(group_size=2, fanout=2))
    assert tree.battery.e_high - tree.battery.e_low <= 1e-9
    for u in sample_battery(tree.battery, 5, seed=1):
        assert adequacy_lp(fleet, u).adequate
        result = dispatch(tree, u)
        ordered = fleet_order_schedule(fleet, result.task_ids, result.schedule)
        assert validate_schedule(fleet, ordered, u).ok


def test_parallel_workers_identical_results():
    """Per-chunk solves are independent; the pool width never changes bytes."""
    fleet = generate_fleet(20, 24, seed=31)
    serial = aggregate(fleet, AggregateConfig(group_size=5, fanout=3, workers=1))
    pooled = aggregate(fleet, AggregateConfig(group_size=5, fanout=3, workers=4))
    np.testing.assert_array_equal(serial.battery.p_high, pooled.battery.p_high)
    np.testing.assert_array_equal(serial.battery.p_low, pooled.battery.p_low)
    assert serial.battery.e_low == pooled.battery.e_low
    assert serial.battery.e_high == pooled.battery.e_high


def test_tree_version_guard():
    fleet = identical_fleet(2)
    tree = aggregate(fleet, AggregateConfig(group_size=2, fanout=2))
    d = tree_to_dict(tree)
    d["version"] = 99
    with pytest.raises(ValidationError):
        tree_from_dict(d)


def test_bounds_report_columns():
    b = VirtualBattery([0.0, 0.5], [1.0, 2.0], 0.5, 2.0)
    rows = bounds_report(b)
    np.testing.assert_allclose(rows[:, 0], [1, 2])
    np.testing.assert_allclose(rows[:, 1], b.p_low)
    np.testing.assert_allclose(rows[:, 2], b.p_high)
