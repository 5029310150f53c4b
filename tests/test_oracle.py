import numpy as np
import pytest

from _helpers import (adequacy_bruteforce, random_admissible_schedule,
                      random_small_fleet)
from flexbat.errors import TooLarge
from flexbat.fleet import ChargingTask, Fleet
from flexbat.oracle import adequacy_lp, adequacy_thm1, validate_schedule

SINGLE = Fleet(m=2, tasks=(ChargingTask("t0", 1, 2, 1.0, 1.0, 1.0),))
TWIN = Fleet(m=2, tasks=(ChargingTask("t0", 1, 2, 1.0, 1.0, 1.0),
                         ChargingTask("t1", 1, 2, 1.0, 1.0, 1.0)))


def test_lp_single_task_adequate():
    verdict = adequacy_lp(SINGLE, [0.5, 0.5])
    assert verdict.adequate
    np.testing.assert_allclose(verdict.witness, [[0.5, 0.5]], atol=1e-7)


def test_lp_single_task_rate_bound():
    assert not adequacy_lp(SINGLE, [1.5, 0.0]).adequate


def test_lp_two_identical_tasks_peak():
    """u = (2, 0): both tasks charge at full rate in the first slot."""
    verdict = adequacy_lp(TWIN, [2.0, 0.0])
    assert verdict.adequate
    np.testing.assert_allclose(verdict.witness.sum(axis=0), [2.0, 0.0], atol=1e-7)
    assert np.all(verdict.witness <= 1.0 + 1e-7)


def test_lp_power_outside_all_windows():
    fleet = Fleet(m=4, tasks=(ChargingTask("t0", 1, 2, 1.0, 0.5, 1.0),))
    assert not adequacy_lp(fleet, [0.5, 0.5, 0.3, 0.0]).adequate


def test_thm1_single_task_adequate():
    """All 8 subset pairs hold for the balanced split."""
    assert adequacy_thm1(SINGLE, [0.5, 0.5]).adequate
    assert adequacy_bruteforce(SINGLE, [0.5, 0.5]).adequate


def test_thm1_overload_detected_with_witness():
    verdict = adequacy_thm1(SINGLE, [1.5, 0.0])
    assert not verdict.adequate
    alpha, beta = verdict.violated
    assert beta  # some slot subset is overloaded
    # the full pair (alpha = all tasks, beta = all slots) fails too:
    # sum(e_high) = 1 < 1.5 = total demand
    full = adequacy_bruteforce(SINGLE, [1.5, 0.0])
    assert not full.adequate
    e_total = sum(t.e_high for t in SINGLE.tasks)
    assert e_total < 1.5


def test_violated_pair_actually_violates():
    """The reported (alpha, beta) fails the subset inequality when re-evaluated."""
    fleet = random_small_fleet(np.random.default_rng(5))
    u = np.array([3.0, 0.0, 0.0, 3.0])
    verdict = adequacy_thm1(fleet, u)
    if verdict.adequate:
        pytest.skip("instance unexpectedly adequate")
    alpha, beta = verdict.violated
    alpha_c = [i for i in range(fleet.n) if i not in alpha]
    windows = [set(t.window) for t in fleet.tasks]
    term_a = sum(fleet.tasks[i].e_high for i in alpha) - sum(u[t - 1] for t in beta)
    term_b = (sum(u[t - 1] for t in range(1, fleet.m + 1) if t not in beta)
              - sum(fleet.tasks[i].e_low for i in alpha_c))
    rhs = -sum(len(set(beta) & windows[i]) * fleet.tasks[i].p for i in alpha_c)
    assert min(term_a, term_b) < rhs


def test_thm1_matches_bruteforce():
    """Greedy subset selection reproduces the exhaustive verdict."""
    rng = np.random.default_rng(17)
    for _ in range(60):
        fleet = random_small_fleet(rng, n=int(rng.integers(1, 4)), m=3)
        hi = sum(t.p for t in fleet.tasks)
        u = rng.uniform(0, hi * 0.7, fleet.m)
        a = adequacy_thm1(fleet, u)
        b = adequacy_bruteforce(fleet, u)
        assert a.adequate == b.adequate
        if not b.adequate:
            assert b.violated is not None


def test_thm1_matches_lp():
    rng = np.random.default_rng(23)
    disagreements = 0
    for _ in range(50):
        fleet = random_small_fleet(rng)
        hi = sum(t.p for t in fleet.tasks)
        for _ in range(4):
            u = rng.uniform(0, hi * 0.6, fleet.m)
            if adequacy_thm1(fleet, u).adequate != adequacy_lp(fleet, u).adequate:
                disagreements += 1
    assert disagreements == 0


def test_enumeration_budget_guard():
    fleet = random_small_fleet(np.random.default_rng(0), n=3, m=4)
    with pytest.raises(TooLarge):
        adequacy_thm1(fleet, np.zeros(4), budget=5)
    with pytest.raises(TooLarge):
        adequacy_bruteforce(fleet, np.zeros(4), budget=5)


def test_validated_schedule_implies_adequate():
    """Necessity: any profile with an explicit decomposition passes both oracles."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        fleet = random_small_fleet(rng)
        sched = random_admissible_schedule(fleet, rng)
        u = sched.sum(axis=0)
        assert validate_schedule(fleet, sched, u).ok
        assert adequacy_lp(fleet, u).adequate
        assert adequacy_thm1(fleet, u).adequate


def test_adequate_set_is_convex():
    """Midpoints of adequate profiles stay adequate (spot check)."""
    rng = np.random.default_rng(41)
    for _ in range(15):
        fleet = random_small_fleet(rng)
        u1 = random_admissible_schedule(fleet, rng).sum(axis=0)
        u2 = random_admissible_schedule(fleet, rng).sum(axis=0)
        assert adequacy_lp(fleet, 0.5 * (u1 + u2)).adequate


def test_validate_schedule_clean_witness():
    verdict = adequacy_lp(TWIN, [1.0, 1.0])
    report = validate_schedule(TWIN, verdict.witness, [1.0, 1.0])
    assert report.ok and not report.violations


def test_validate_schedule_flags_single_rate_bump():
    tol = 1e-6
    fleet = Fleet(m=2, tasks=(ChargingTask("t0", 1, 2, 1.0, 0.5, 2.0),))
    sched = np.array([[1.0 + 2 * tol, 0.6]])    # rate exceeded by 2*tol only
    report = validate_schedule(fleet, sched, sched.sum(axis=0), tol=tol)
    assert not report.ok
    assert len(report.violations) == 1
    v = report.violations[0]
    assert v.kind == "rate_high"
    assert v.magnitude == pytest.approx(2 * tol, abs=1e-12)


def test_validate_schedule_reports_column_sums():
    witness = adequacy_lp(SINGLE, [0.5, 0.5]).witness
    report = validate_schedule(SINGLE, witness, [0.7, 0.5])
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert kinds == {"column_sum"}
    assert report.max_column_error == pytest.approx(0.2, abs=1e-9)
