import dataclasses
import json
import sys
import time
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from _helpers import (bounds_report, dispatch_reference, fleet_order_schedule,
                      n_units, nominal_for_group)
from flexbat import aggregation
from flexbat.aggregation import (AggregateConfig, AggregationTree, AppNode,
                                 CohortNode, Leaf, aggregate, dispatch,
                                 load_tree,
                                 partition_fleet, save_tree,
                                 synthesize_battery, tree_from_dict,
                                 tree_to_dict)
from flexbat.cli import (PriceSeries, arbitrage, demo_price_curve, main,
                         save_battery)
from flexbat.errors import (DispatchInfeasible, EmptyOrDegenerate, FlexError,
                            NotInBattery, ValidationError)
from flexbat.fleet import ChargingTask, Fleet, GenProfile, generate_fleet, load_fleet
from flexbat.geometry import VirtualBattery
from flexbat.oracle import adequacy_lp, validate_schedule
from flexbat.projection import solve_app
from flexbat.sampling import (battery_interior_point, greedy_profile,
                              sample_battery)


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
        calls.append(n_units(lifted.elim))
        if len(calls) > 200:
            raise RuntimeError("aggregate keeps solving without progress")
        if n_units(lifted.elim) > 1:
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


def _nodes(node):
    if not isinstance(node, Leaf):
        yield node
        for child in node.children:
            yield from _nodes(child)


def _dispatch_outcome(fn, tree, u, tol):
    """Everything a dispatch returns as bytes, or the error it raises."""
    try:
        res = fn(tree, u, tol=tol)
    except FlexError as exc:
        return type(exc), str(exc)
    return (res.task_ids, res.schedule.tobytes(), res.clamped,
            [(label, p.tobytes()) for label, p in res.group_profiles.items()])


@st.composite
def _mixed_fleets(draw):
    """A fleet whose tree has a cohort, a later-stage node, singleton nodes
    and a battery unit that drops a zero-pinned slot of its node's span.

    Window-sorted groups of `g`, in this order: the group arriving at slot 1
    is the one forced to singletons; two groups of identical tasks over
    (2, m) share a span and a nominal, so they merge into a cohort; zero or
    one group of random tasks; last, a group that leaves slot m - 2 of its
    span uncovered, so its battery is pinned to zero there."""
    m = draw(st.integers(8, 10))
    g = draw(st.integers(2, 3))
    rate = st.floats(0.5, 3.0)
    frac = st.floats(0.1, 0.9)

    def task(tid, a, d, p=None):
        p = draw(rate) if p is None else p
        lo, hi = sorted((draw(frac), draw(frac)))
        cap = (d - a + 1) * p
        return ChargingTask(tid, a, d, p, lo * cap, hi * cap)

    tasks = [task(f"a{k}", 1, draw(st.integers(2, 3))) for k in range(g)]
    twin = task("b", 2, m)
    tasks += [dataclasses.replace(twin, id=f"b{k}") for k in range(2 * g)]
    for k in range(g * draw(st.integers(0, 1))):
        a = draw(st.integers(3, m - 5))
        tasks.append(task(f"c{k}", a, draw(st.integers(a + 1, m))))
    tasks += [task(f"d{k}", m - 4, m - 3) for k in range(g - 1)]
    tasks.append(task("e", m - 1, m))
    return Fleet(m=m, tasks=tuple(tasks)), g


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_mixed_fleets(), st.integers(2, 3), st.integers(0, 2**16))
def test_dispatch_matches_reference_walk(fleet_and_g, fanout, seed):
    """The compiled plan gives the reference walk's bytes: schedule, task
    order, every group profile, and the clamp log in order; and the same
    error, message included, when nothing may be clamped (tol = 0)."""
    fleet, g = fleet_and_g
    failed = []

    def first_group_fails(lifted, nominal):
        # the first two multi-unit solves are group s1g000's shared nominal
        # and its fallback nominal, so that group splits into singletons
        if n_units(lifted.elim) > 1 and len(failed) < 2:
            failed.append(nominal)
            raise EmptyOrDegenerate("forced")
        return solve_app(lifted, nominal)

    with mock.patch.object(aggregation, "solve_app", first_group_fails):
        tree = aggregate(fleet, AggregateConfig(group_size=g, fanout=fanout))
    nodes = list(_nodes(tree.root))
    assert any(isinstance(nd, CohortNode) for nd in nodes)
    assert any(isinstance(nd, AppNode) and not nd.label.startswith("s1")
               for nd in nodes)
    assert any(".solo" in nd.label for nd in nodes)
    assert any(set(child.coords) - set(unit.active)
               for nd in nodes if isinstance(nd, AppNode)
               for child, unit in zip(nd.children, nd.units)
               if not isinstance(child, Leaf))

    batt = tree.battery
    rng = np.random.default_rng(seed)
    prices = demo_price_curve(fleet.m).prices
    noisy = PriceSeries(prices * (1 + 0.3 * rng.standard_normal(fleet.m)))
    profiles = [*sample_battery(batt, 4, seed=seed),
                greedy_profile(batt, batt.e_low, order="late"),
                greedy_profile(batt, batt.e_high, order="early"),
                arbitrage(batt, noisy).z]
    for u in profiles:
        for tol in (1e-6, 0.0):
            assert (_dispatch_outcome(dispatch, tree, u, tol)
                    == _dispatch_outcome(dispatch_reference, tree, u, tol))


def _saturated_leaf(tree, fleet, u):
    """A task the dispatch of `u` drives to its full rate, with its row."""
    res = dispatch(tree, u)
    rates = {t.id: t.p for t in fleet.tasks}
    for tid, row in zip(res.task_ids, res.schedule):
        if np.any(np.abs(row - rates[tid]) <= 1e-9):
            return tid, row
    raise AssertionError("no task reaches its full rate")


def test_dispatch_infeasible_names_unit_and_slot(tmp_path, capsys):
    """A leaf unit narrowed by 1e-3 in a saved tree cannot take the power
    the certificates route to it: dispatch raises and names unit and slot."""
    fleet = generate_fleet(8, 12, seed=4)
    tree = aggregate(fleet, AggregateConfig(group_size=4, fanout=3))
    u = greedy_profile(tree.battery, tree.battery.e_high, order="early")
    tid, row = _saturated_leaf(tree, fleet, u)

    d = tree_to_dict(tree)
    unit = next(un for node in _dicts(d["root"]) if node["kind"] == "app"
                for un in node["units"] if un["origin"] == tid)
    unit["hi"] = [v - 1e-3 for v in unit["hi"]]
    slot = next(t for t in unit["active"] if row[t - 1] > unit["hi"][0] + 1e-6)
    edited = tree_from_dict(d)
    with pytest.raises(DispatchInfeasible, match=f"^{tid}: slot {slot} violates"):
        dispatch(edited, u)

    tree_path = tmp_path / "tree.json"
    save_tree(edited, tree_path)
    profile_path = tmp_path / "profile.csv"
    # full precision: write_profile rounds to 1e-6 kW, which can carry a
    # profile on the battery's energy ceiling outside it
    profile_path.write_text("slot,power_kw\n" + "".join(
        f"{t},{v!r}\n" for t, v in enumerate(u.tolist(), start=1)))
    assert main(["dispatch", "--tree", str(tree_path), "--profile",
                 str(profile_path), "--out", str(tmp_path / "s.csv")]) == 2
    assert f"{tid}: slot {slot} violates" in capsys.readouterr().err


def _dicts(node):
    yield node
    for child in node.get("children", []):
        yield from _dicts(child)


def _leaf_depths(node, depth=0):
    if isinstance(node, Leaf):
        yield depth
    else:
        for child in node.children:
            yield from _leaf_depths(child, depth + 1)


@pytest.mark.parametrize("shape", ["cohort_root", "uneven_depths"])
def test_dispatch_matches_reference_on_tree_shapes(shape):
    """Shapes a by-depth plan groups differently from the walk: a cohort
    root (a common-window fleet in one stage), and leaves at unequal depths
    below four or more levels of nodes. Every output byte, the clamp log
    and any error match the reference walk, at tol = 1e-6 and 0."""
    if shape == "cohort_root":
        common = GenProfile(arrival_mean=2, arrival_sigma=0.01, stay_min=4, stay_max=4)
        fleet = generate_fleet(12, 8, seed=1, profile=common)
        tree = aggregate(fleet, AggregateConfig(group_size=4, fanout=3))
        assert isinstance(tree.root, CohortNode) and len(tree.root.children) == 3
    else:
        fleet = generate_fleet(16, 12, seed=0)
        tree = aggregate(fleet, AggregateConfig(group_size=2, fanout=2))
        depths = set(_leaf_depths(tree.root))
        assert len(depths) > 1 and min(depths) >= 4
    batt = tree.battery
    rng = np.random.default_rng(6)
    prices = demo_price_curve(fleet.m).prices
    profiles = [*sample_battery(batt, 6, seed=5),
                greedy_profile(batt, batt.e_low, order="late"),
                greedy_profile(batt, batt.e_high, order="early"),
                *(arbitrage(batt, PriceSeries(prices * (1 + 0.3 * rng.standard_normal(fleet.m)))).z
                  for _ in range(4))]
    for u in profiles:
        for tol in (1e-6, 0.0):
            assert (_dispatch_outcome(dispatch, tree, u, tol)
                    == _dispatch_outcome(dispatch_reference, tree, u, tol))


def test_dispatch_error_order_across_levels():
    """Two units in a saved tree narrowed below what a profile routes to
    them: a deep leaf that comes first in walk order, and the root's last
    unit, which is shallower and comes later but sits on the level a
    by-depth plan clamps first. Dispatch names the unit and slot the
    reference walk names: the deep one when both are narrowed."""
    fleet = generate_fleet(16, 12, seed=0)
    tree = aggregate(fleet, AggregateConfig(group_size=2, fanout=2))
    u = sample_battery(tree.battery, 1, seed=1)[0]
    res = dispatch(tree, u)
    d = tree_to_dict(tree)
    root = d["root"]
    assert root["kind"] == "app" and len(root["children"]) > 1
    shallow = root["units"][-1]
    shallow_z = res.group_profiles[root["children"][-1]["label"]]
    deep_tid = res.task_ids[0]
    deep = next(un for node in _dicts(root) if node["kind"] == "app"
                for un in node["units"] if un["origin"] == deep_tid)
    assert next(_leaf_depths(tree.root)) >= 4      # deep_tid's depth

    def narrow(unit, values):
        """hi cut to 1e-3 below the routed power, in the slot nearest hi."""
        gap = [h - v if v > lo + 2e-3 else np.inf
               for v, lo, h in zip(values, unit["lo"], unit["hi"])]
        k = int(np.argmin(gap))
        unit["hi"][k] = values[k] - 1e-3
        return unit["active"][k]

    shallow_slot = narrow(shallow, [shallow_z[t - 1] for t in shallow["active"]])
    with pytest.raises(DispatchInfeasible,
                       match=f"^{shallow['origin']}: slot {shallow_slot} violates"):
        dispatch(tree_from_dict(d), u)
    deep_slot = narrow(deep, [res.schedule[0][t - 1] for t in deep["active"]])
    edited = tree_from_dict(d)
    with pytest.raises(DispatchInfeasible, match=f"^{deep_tid}: slot {deep_slot} violates"):
        dispatch(edited, u)
    assert (_dispatch_outcome(dispatch, edited, u, 1e-6)
            == _dispatch_outcome(dispatch_reference, edited, u, 1e-6))


def test_dispatch_plan_stays_out_of_saved_files(tmp_path):
    """The plan is cached on the tree object only: saved files, equality
    and a reloaded copy are the same whether or not it was built."""
    fleet = generate_fleet(10, 12, seed=8)
    tree = aggregate(fleet, AggregateConfig(group_size=4, fanout=3))
    twin = dataclasses.replace(tree)

    def save_all(outdir):
        outdir.mkdir()
        save_tree(tree, outdir / "tree.json")
        save_battery(tree.battery, outdir / "battery.json")
        return {p.name: p.read_bytes() for p in outdir.iterdir()}

    before = save_all(tmp_path / "before")
    u = sample_battery(tree.battery, 1, seed=2)[0]
    result = dispatch(tree, u)
    assert "_dispatch_plan" in vars(tree) and "_dispatch_plan" not in vars(twin)
    assert save_all(tmp_path / "after") == before
    assert tree == twin
    assert [f.name for f in dataclasses.fields(AggregationTree)] == [
        "root", "m", "delta", "n_stages", "stage1_groups", "stage1_cohorts", "config"]

    copy = load_tree(tmp_path / "after" / "tree.json")
    again = dispatch(copy, u)
    assert again.task_ids == result.task_ids
    assert again.schedule.tobytes() == result.schedule.tobytes()
    assert again.clamped == result.clamped


# -------------------------------------------------------------------- trees

@pytest.mark.parametrize("delta", [1.0, 0.5, 0.25])
def test_aggregate_dispatch_validate_at_slot_length(delta):
    """At one-hour and shorter slots, sampled and greedy-extreme profiles of
    the root battery dispatch to admissible schedules and pass the LP
    adequacy oracle."""
    fleet = generate_fleet(24, 24, seed=42, delta=delta)
    tree = aggregate(fleet, AggregateConfig(group_size=6, fanout=3))
    b = tree.battery
    profiles = list(sample_battery(b, 4, seed=1, delta=delta))
    profiles += [greedy_profile(b, e, delta, order)
                 for e in (b.e_low, b.e_high) for order in ("early", "late")]
    for u in profiles:
        result = dispatch(tree, u)
        ordered = fleet_order_schedule(fleet, result.task_ids, result.schedule)
        report = validate_schedule(fleet, ordered, u)
        assert report.ok, report.violations[:3]
        assert adequacy_lp(fleet, u).adequate


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


#: (fleet, group size, fanout) whose stages run 1, 2 and many chunks
_SCHEDULER_FLEETS = (
    (generate_fleet(4, 12, seed=1), 5, 3),
    (generate_fleet(8, 12, seed=4), 4, 3),
    (generate_fleet(20, 24, seed=31), 5, 3),
)


def test_parallel_workers_identical_results(monkeypatch):
    """Per-chunk solves are independent; the pool width never changes
    bytes, whether a stage has one chunk (which the caller solves alone),
    two, or more chunks than threads."""
    counts = []                                  # chunks per stage
    real = aggregation._run_chunks

    def counted(solve, n, workers):
        counts.append(n)
        return real(solve, n, workers)

    monkeypatch.setattr(aggregation, "_run_chunks", counted)
    for fleet, group_size, fanout in _SCHEDULER_FLEETS:
        config = AggregateConfig(group_size=group_size, fanout=fanout)
        serial = tree_to_dict(aggregate(fleet, config))
        for workers in (2, 3, 4, 8):
            pooled = aggregate(fleet, dataclasses.replace(config, workers=workers))
            assert tree_to_dict(pooled) == serial, workers
    assert {1, 2} <= set(counts) and max(counts) > 3


def test_parallel_chunk_failure_is_the_serial_one(monkeypatch):
    """When chunks raise, every width raises the lowest-index failure, as a
    serial run does, even when a later chunk fails first; the pool is
    left intact for the next `aggregate`."""
    fleet, group_size, fanout = _SCHEDULER_FLEETS[2]
    real = aggregation._solve_chunk
    errors = {"s1g001": 0.2, "s1g003": 0.0}      # label -> delay before raising

    def failing(label, *args):
        if label in errors:
            time.sleep(errors[label])
            raise RuntimeError(f"forced failure in {label}")
        return real(label, *args)

    config = AggregateConfig(group_size=group_size, fanout=fanout)
    with monkeypatch.context() as patch:
        patch.setattr(aggregation, "_solve_chunk", failing)
        for workers in (1, 2, 3, 8):
            with pytest.raises(RuntimeError, match="s1g001"):
                aggregate(fleet, dataclasses.replace(config, workers=workers))
    serial = tree_to_dict(aggregate(fleet, config))
    for workers in (2, 3, 8):
        pooled = aggregate(fleet, dataclasses.replace(config, workers=workers))
        assert tree_to_dict(pooled) == serial


def test_run_chunks_takes_every_index_once():
    """Under frequent thread switches and more threads than cores, each
    index is solved exactly once and its result lands in its own place."""
    calls = []

    def solve(k):
        calls.append(k)
        time.sleep(0)
        return k * k

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for workers in (1, 3, 8):
            calls.clear()
            assert aggregation._run_chunks(solve, 300, workers) == [k * k for k in range(300)]
            assert sorted(calls) == list(range(300))
    finally:
        sys.setswitchinterval(interval)


def test_tree_equality_compares_values():
    """A tree equals its reloaded copy, and differs from a copy with one
    number nudged, be it a unit bound, a nominal bound or an entry of the
    affine rule."""
    fleet = generate_fleet(6, 8, seed=1)
    tree = aggregate(fleet, AggregateConfig(group_size=3, fanout=2))
    d = tree_to_dict(tree)
    assert tree_from_dict(d) == tree

    app = next(node for node in _dicts(d["root"]) if node["kind"] == "app")
    fields = (app["units"][0]["hi"], app["nominal"]["p_high"], app["app"]["r"])
    for values in fields:
        values[0] = np.nextafter(values[0], np.inf)
        assert tree_from_dict(d) != tree
        values[0] = np.nextafter(values[0], -np.inf)
    assert tree_from_dict(d) == tree
    app["app"]["G"] = [[0.0, 1.0]]       # as files saved with multipliers hold
    assert tree_from_dict(d) == tree


@pytest.mark.parametrize("task_id", [None, 7, float("nan")])
def test_leaf_task_id_must_be_a_string(task_id):
    with pytest.raises(TypeError, match="task id must be a string"):
        Leaf(task_id)


def test_tree_version_guard():
    fleet = identical_fleet(2)
    tree = aggregate(fleet, AggregateConfig(group_size=2, fanout=2))
    d = tree_to_dict(tree)
    d["version"] = 99
    with pytest.raises(ValidationError):
        tree_from_dict(d)


DATA = Path(__file__).parent / "data"
#: keys format 1 stored and format 2 derives instead
_DERIVED_KEYS = {"elim", "lam", "mu", "group_ids", "battery"}


def _app_nodes(node):
    if isinstance(node, AppNode):
        yield node
    for child in getattr(node, "children", ()):
        yield from _app_nodes(child)


def test_tree_format_1_loads_and_dispatches_as_its_resave(tmp_path):
    """A format-1 file, which also stored each node's elimination map, the
    root battery and each app's lam, mu and group ids, loads: every derived
    map and the derived root battery equal the stored ones, and it
    dispatches, clamps and errors included, exactly as its format-2
    re-save does, to schedules its fleet admits."""
    stored = json.loads((DATA / "tree_v1.json").read_text())
    assert stored["version"] == 1
    tree = load_tree(DATA / "tree_v1.json")
    assert tree.battery == VirtualBattery.from_dict(stored["battery"])
    maps = {d["label"]: d["elim"] for d in _dicts(stored["root"]) if d["kind"] == "app"}
    assert len(maps) == 4
    for node in _app_nodes(tree.root):
        elim, saved = node.elim, maps.pop(node.label)
        assert [list(elim.coords), [list(v) for v in elim.n_t], list(elim.j_t),
                [list(v) for v in elim.utilde], [list(v) for v in elim.unit_active]] == [
            saved["coords"], saved["n_t"], saved["j_t"], saved["utilde"], saved["unit_active"]]
        assert saved["s_i"] == [[t for t in active if elim.j_t[elim.coord_index[t]] == i]
                                for i, active in enumerate(elim.unit_active)]
    assert not maps

    save_tree(tree, tmp_path / "tree.json")
    resaved = load_tree(tmp_path / "tree.json")
    fleet = load_fleet(DATA / "fleet_v1.json")
    b = tree.battery
    profiles = [*sample_battery(b, 4, seed=1),
                *(greedy_profile(b, e, order=order)
                  for e in (b.e_low, b.e_high) for order in ("early", "late"))]
    for u in profiles:
        for tol in (1e-6, 0.0):
            assert (_dispatch_outcome(dispatch, tree, u, tol)
                    == _dispatch_outcome(dispatch, resaved, u, tol))
        result = dispatch(resaved, u)
        ordered = fleet_order_schedule(fleet, result.task_ids, result.schedule)
        assert validate_schedule(fleet, ordered, u).ok


def test_tree_format_2_saves_no_derived_keys_and_same_bytes(tmp_path):
    """A format-2 file holds none of the keys format 1 stored for derived
    values, and save -> load -> save gives the same bytes."""
    fleet = load_fleet(DATA / "fleet_v1.json")
    save_tree(aggregate(fleet, AggregateConfig(group_size=2, fanout=2)), tmp_path / "a.json")
    save_tree(load_tree(tmp_path / "a.json"), tmp_path / "b.json")
    text = (tmp_path / "a.json").read_text()
    assert (tmp_path / "b.json").read_text() == text
    data = json.loads(text)
    assert data["version"] == 2
    keys = set()
    for node in _dicts(data["root"]):
        keys |= node.keys() | node.get("app", {}).keys()
    assert {"cohort", "app", "leaf"} == {node["kind"] for node in _dicts(data["root"])}
    assert not (keys | data.keys()) & _DERIVED_KEYS


def test_aggregate_reproduces_the_saved_tree_bit_for_bit():
    """Aggregating the fleet that `tree_v1.json` was written from, with the
    settings it was written with, gives that tree node for node, with every
    s, r, W and V the same to the bit: a change to the APP LP or its solve
    that moves an optimum, even in the last bit, fails here."""
    tree = aggregate(load_fleet(DATA / "fleet_v1.json"), AggregateConfig(group_size=2, fanout=2))
    saved = load_tree(DATA / "tree_v1.json")
    assert tree == saved
    assert tree_to_dict(tree) == tree_to_dict(saved)
    pairs = list(zip(_app_nodes(tree.root), _app_nodes(saved.root), strict=True))
    assert len(pairs) == 4
    for new, old in pairs:
        assert new.label == old.label
        for name in ("s", "r", "w", "v"):
            assert (np.asarray(getattr(new.app, name)).tobytes()
                    == np.asarray(getattr(old.app, name)).tobytes()), (new.label, name)


def _cohort(d):
    return next(node for node in _dicts(d["root"]) if node["kind"] == "cohort")


def _repeat_leaf(d):
    first, second = [node for node in _dicts(d["root"]) if node["kind"] == "leaf"][:2]
    second["task_id"] = first["task_id"]


def _repeat_label(d):
    d["root"]["children"][0]["label"] = d["root"]["label"]


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("edit, message", [
    (lambda d: _cohort(d)["coords"].pop(), "children must be app nodes over its coords"),
    (lambda d: _cohort(d).update(label=[7]), "node label must be a string"),
    (lambda d: d.update(m=7), "root coords outside slots 1..7"),
    (lambda d: d["root"]["app"].update(s=5e-324), "battery bounds and energies must be finite"),
    (_repeat_leaf, "has two leaves"),
    (_repeat_label, "is used twice"),
], ids=["cohort_coords", "label", "horizon", "tiny_root_s", "two_leaves", "duplicate_label"])
def test_tree_file_inconsistencies_raise(tmp_path, edit, message):
    """Fields of a tree file that dispatch relies on to agree, and that no
    single node's derivation checks: a cohort over other coords than its
    children's, a node label that is not a string, root coords beyond the
    horizon and a root s so small that its battery is not finite are parse
    errors; two leaves for one task, and two nodes of one label (which key
    dispatch's group profiles), fail dispatch."""
    tree = load_tree(DATA / "tree_v1.json")
    u = greedy_profile(tree.battery, tree.battery.e_high, order="early")
    data = json.loads((DATA / "tree_v1.json").read_text())
    dispatch(tree, u)
    edit(data)
    (tmp_path / "tree.json").write_text(json.dumps(data))
    with pytest.raises(FlexError, match=message):
        edited = load_tree(tmp_path / "tree.json")
        dispatch(edited, u[:edited.m])


def test_bounds_report_columns():
    b = VirtualBattery([0.0, 0.5], [1.0, 2.0], 0.5, 2.0)
    rows = bounds_report(b)
    np.testing.assert_allclose(rows[:, 0], [1, 2])
    np.testing.assert_allclose(rows[:, 1], b.p_low)
    np.testing.assert_allclose(rows[:, 2], b.p_high)
