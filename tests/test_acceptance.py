"""Acceptance suite: seven exit criteria, one test and one printed line each.

Run with `pytest -s tests/test_acceptance.py` to see the PASS/FAIL lines
as they complete. Budgets are wall-clock upper bounds; every numeric
tolerance is pinned here, not configurable.
"""

import filecmp
import time

import numpy as np
import pytest

from _helpers import (contains_point, contains_polytope, fleet_order_schedule,
                      fm_eliminate_one, homothet_apply, lemma1_sum,
                      random_admissible_schedule, random_box_polytope,
                      random_small_fleet, rejection_samples, solve_opp3,
                      support_function)
from flexbat.aggregation import AggregateConfig, aggregate, dispatch
from flexbat.cli import arbitrage, baseline_immediate, demo_price_curve, main
from flexbat.fleet import ChargingTask, Fleet, generate_fleet
from flexbat.geometry import Homothet, VirtualBattery, homothet_apply_battery
from flexbat.oracle import adequacy_lp, adequacy_thm1, validate_schedule
from flexbat.projection import LiftedPolytope, solve_app
from flexbat.sampling import greedy_profile, sample_battery


def _finish(num: int, ok: bool, text: str) -> None:
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def seeded_run():
    """Criterion 4/5 share one seeded aggregation (n=100, m=24, seed=42)."""
    fleet = generate_fleet(100, 24, seed=42)
    tree = aggregate(fleet, AggregateConfig(group_size=10, fanout=11))
    return fleet, tree


def test_criterion_1_example_golden():
    """Worked-example golden values, sign-corrected third row, under 1 s."""
    t0 = time.perf_counter()
    lifted = LiftedPolytope(
        b=np.array([[-0.5, -1.0], [0.6, 1.0], [-1.0, -1.0]]),
        c=np.array([-9.0, 10.0, -10.0]), m=1, m_tilde=1)
    nominal = VirtualBattery([-0.5], [1.0], -0.5, 1.0)

    opp3 = solve_opp3(lifted, nominal)
    app = solve_app(lifted, nominal)
    recovered = homothet_apply_battery(app.homothet, nominal)
    elapsed = time.perf_counter() - t0

    ok = (abs(opp3.s - 1.125) <= 1e-6
          and abs(opp3.r[0] - (-2.75)) <= 1e-6
          and abs(opp3.v[0] - 9.0) <= 1e-6
          and abs(app.s - 0.15) <= 1e-6
          and abs(app.r[0] - (-0.5)) <= 1e-6
          and abs(recovered.p_low[0] - 0.0) <= 1e-6
          and abs(recovered.p_high[0] - 10.0) <= 1e-6
          and elapsed < 1.0)
    _finish(1, ok, f"OPP3 (s={opp3.s:.6f}, r={opp3.r[0]:.4f}, u0={opp3.v[0]:.4f}), "
                   f"APP (s={app.s:.6f}, r={app.r[0]:.4f}), interval "
                   f"[{recovered.p_low[0]:.2e}, {recovered.p_high[0]:.6f}], "
                   f"{elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    """Enumeration vs LP adequacy on 50 fleets x 200 profiles, within 2 min."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(4242)
    disagreements = 0
    total = 0
    for _ in range(50):
        fleet = random_small_fleet(rng, n=3, m=4)
        p_hi = sum(t.p for t in fleet.tasks)
        for k in range(200):
            if k % 2 == 0:
                witness = random_admissible_schedule(fleet, rng).sum(axis=0)
                u = witness + rng.normal(0.0, 0.25 * p_hi / 3, fleet.m)
            else:
                u = rng.uniform(0.0, 1.1 * p_hi, fleet.m)
            a = adequacy_thm1(fleet, u).adequate
            b = adequacy_lp(fleet, u).adequate
            disagreements += a != b
            total += 1
    elapsed = time.perf_counter() - t0
    ok = disagreements == 0 and total == 10_000 and elapsed < 120.0
    _finish(2, ok, f"{total} profiles, {disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_3_homogeneous_tightness():
    """Five identical tasks aggregate to five copies of the common set."""
    t0 = time.perf_counter()
    fleet = Fleet(m=6, tasks=tuple(
        ChargingTask(f"t{i}", 1, 5, 1.0, 1.5, 3.0) for i in range(5)))
    tree = aggregate(fleet, AggregateConfig(group_size=5, fanout=2))
    lam = tree.root.lam
    clean = 0
    for u in sample_battery(tree.battery, 100, seed=99):
        result = dispatch(tree, u)
        ordered = fleet_order_schedule(fleet, result.task_ids, result.schedule)
        clean += validate_schedule(fleet, ordered, u, tol=1e-6).ok
    elapsed = time.perf_counter() - t0
    ok = (5.0 - 1e-4 <= lam <= 5.0 + 1e-7) and clean == 100 and elapsed < 30.0
    _finish(3, ok, f"lambda = {lam:.8f}, {clean}/100 dispatches clean, {elapsed:.1f}s")


def test_criterion_4_sufficiency_suite(seeded_run):
    """1000 battery samples: all adequate and dispatchable; energy nesting."""
    fleet, tree = seeded_run
    t0 = time.perf_counter()
    battery = tree.battery
    samples = sample_battery(battery, 1000, seed=2024)
    extremes = [greedy_profile(battery, battery.e_high, order="early"),
                greedy_profile(battery, battery.e_low, order="late")]
    adequate = 0
    dispatched = 0
    for u in list(samples) + extremes:
        if adequacy_lp(fleet, u).adequate:
            adequate += 1
        result = dispatch(tree, u, tol=1e-6)
        ordered = fleet_order_schedule(fleet, result.task_ids, result.schedule)
        if validate_schedule(fleet, ordered, u, tol=1e-6).ok:
            dispatched += 1
    lo, hi = fleet.total_energy_interval()
    nesting = lo - 1e-9 <= battery.e_low <= battery.e_high <= hi + 1e-9
    # qualitative shape: flexibility is widest in the late evening
    widest = int(np.argmax(battery.p_high - battery.p_low)) + 1
    elapsed = time.perf_counter() - t0
    ok = (adequate == 1002 and dispatched == 1002 and nesting
          and 8 <= widest <= 14 and elapsed < 600.0)
    _finish(4, ok, f"{adequate}/1002 adequate, {dispatched}/1002 dispatch clean "
                   f"(1000 sampled + 2 extreme), battery "
                   f"[{battery.e_low:.2f}, {battery.e_high:.2f}] kWh inside fleet "
                   f"[{lo:.2f}, {hi:.2f}] kWh, widest gap at slot {widest}, "
                   f"{elapsed:.1f}s")


def test_criterion_5_arbitrage(seeded_run):
    """Optimal cost beats every equal-energy feasible profile and the baseline."""
    fleet, tree = seeded_run
    t0 = time.perf_counter()
    battery = tree.battery
    prices = demo_price_curve(fleet.m)
    arb = arbitrage(battery, prices, fleet.delta)
    target = float(arb.z.sum() * fleet.delta)
    spot_ok = 0
    for z2 in sample_battery(battery, 100, seed=7, total_energy=target):
        if arb.cost <= float(prices.prices @ z2 * fleet.delta) + 1e-7:
            spot_ok += 1
    baseline = baseline_immediate(fleet, target)
    baseline_cost = float(prices.prices @ baseline * fleet.delta)
    savings = baseline_cost - arb.cost
    # shiftable energy (above the battery floors) piles into the price valley
    free = arb.z - battery.p_low
    cheapest = np.argsort(prices.prices)[:fleet.m // 3]
    valley_frac = float(free[cheapest].sum() / free.sum())
    elapsed = time.perf_counter() - t0
    ok = spot_ok == 100 and savings > 0 and valley_frac >= 0.95 and elapsed < 60.0
    _finish(5, ok, f"cost {arb.cost:.2f}$ <= all {spot_ok}/100 equal-energy samples, "
                   f"baseline {baseline_cost:.2f}$ (savings {savings:.2f}$), "
                   f"{100 * valley_frac:.0f}% of shiftable energy in the cheapest "
                   f"third, {elapsed:.1f}s")


def test_criterion_6_geometry_property_suites():
    """Farkas soundness, scaled-sum support additivity, elimination vs support."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    failures = 0

    # Farkas containment soundness: 50 instances
    for k in range(50):
        dim = int(rng.integers(1, 4))
        outer = random_box_polytope(rng, dim)
        center = rejection_samples(outer, 1, rng)[0]
        lam = rng.uniform(0.2, 0.8) if k % 2 == 0 else rng.uniform(1.3, 2.0)
        inner = homothet_apply(Homothet(lam, (1 - lam) * center), outer)
        if contains_polytope(inner, outer):
            for x in rejection_samples(inner, 20, rng):
                if not contains_point(outer, x, tol=1e-8):
                    failures += 1
        elif lam < 1.0:
            failures += 1  # a true subset must be certified

    # scaled Minkowski sum support additivity: 50 instances
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        base = random_box_polytope(rng, dim)
        homs = [Homothet(float(rng.uniform(0.2, 3.0)), rng.normal(size=dim))
                for _ in range(int(rng.integers(2, 5)))]
        summed = homothet_apply(lemma1_sum(homs), base)
        v = rng.normal(size=dim)
        h_base = support_function(base, v)
        expected = sum(h.lam * h_base + v @ h.mu for h in homs)
        if abs(support_function(summed, v) - expected) > 1e-8:
            failures += 1

    # single-coordinate elimination vs support projection: 50 instances
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        poly = random_box_polytope(rng, dim)
        drop = int(rng.integers(0, dim))
        projected = fm_eliminate_one(poly, drop)
        keep = [j for j in range(dim) if j != drop]
        for _ in range(20):
            v_small = rng.normal(size=dim - 1)
            v_full = np.zeros(dim)
            v_full[keep] = v_small
            if abs(support_function(projected, v_small)
                   - support_function(poly, v_full)) > 1e-8:
                failures += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 60.0
    _finish(6, ok, f"150 randomized instances, {failures} failures, {elapsed:.1f}s")


def test_criterion_7_demo_determinism(tmp_path):
    """`flex demo --seed 42` twice: byte-identical battery.json, report.json."""
    out_a, out_b = str(tmp_path / "a"), str(tmp_path / "b")
    code_a = main(["demo", "--seed", "42", "--outdir", out_a])
    code_b = main(["demo", "--seed", "42", "--outdir", out_b])
    same_battery = filecmp.cmp(f"{out_a}/battery.json", f"{out_b}/battery.json",
                               shallow=False)
    same_report = filecmp.cmp(f"{out_a}/report.json", f"{out_b}/report.json",
                              shallow=False)
    ok = code_a == 0 and code_b == 0 and same_battery and same_report
    _finish(7, ok, f"exit codes ({code_a}, {code_b}), battery.json identical: "
                   f"{same_battery}, report.json identical: {same_report}")
