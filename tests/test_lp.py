from dataclasses import replace

import subprocess
import sys

import numpy as np
import pytest
import scipy
import scipy.sparse as sp
from _helpers import (as_rows, as_scipy, dual_objective_value, farkas_certificate,
                      primal_violations, random_admissible_schedule)

from flexbat import lp
from flexbat.aggregation import AggregateConfig, aggregate
from flexbat.errors import MalformedProblem
from flexbat.fleet import generate_fleet
from flexbat.geometry import VirtualBattery
from flexbat.oracle import adequacy_lp
from flexbat.projection import FlexUnit, LiftedPolytope, build_app, eliminate


def test_one_variable_bound():
    """minimize -x s.t. x <= 10, x >= 0 -> x = 10, objective -10."""
    prob = lp.LpProblem(objective=[-1.0], a_in=[[1.0]], b_in=[10.0], lower=[0.0])
    sol = lp.solve_lp(prob)
    assert sol.status == lp.OPTIMAL
    assert sol.x[0] == pytest.approx(10.0, abs=1e-9)
    assert sol.objective_value == pytest.approx(-10.0, abs=1e-9)


def test_contradictory_bounds_infeasible():
    prob = lp.LpProblem(objective=[0.0], a_in=[[1.0]], b_in=[-1.0], lower=[0.0])
    assert lp.solve_lp(prob).status == lp.INFEASIBLE


def test_unbounded():
    prob = lp.LpProblem(objective=[-1.0], lower=[0.0])
    assert lp.solve_lp(prob).status == lp.UNBOUNDED


def test_example1_app_instance_objective():
    """The full affine-rule LP of the worked 2-D example optimizes to s = 0.15."""
    lifted = LiftedPolytope(
        b=np.array([[-0.5, -1.0], [0.6, 1.0], [-1.0, -1.0]]),
        c=np.array([-9.0, 10.0, -10.0]), m=1, m_tilde=1)
    nominal = VirtualBattery([-0.5], [1.0], -0.5, 1.0)
    sol = lp.solve_lp(build_app(lifted, nominal)[0])
    assert sol.status == lp.OPTIMAL
    assert sol.objective_value == pytest.approx(0.15, abs=1e-8)


def test_check_feasible_box():
    prob = lp.LpProblem(objective=[0.0], lower=[0.0], upper=[1.0])
    assert lp.check_feasible(prob).feasible


def test_check_feasible_contradiction():
    prob = lp.LpProblem(objective=[0.0], a_in=[[1.0], [-1.0]], b_in=[0.0, -1.0])
    assert not lp.check_feasible(prob).feasible


def test_check_feasible_single_load_system():
    """Charging system of one load (window {1,2}, p=1, E=[1,1]) at u=(0.5, 0.5).

    Hand check: x = (0.5, 0.5) satisfies both column sums, the energy
    interval, and the rate bounds.
    """
    prob = lp.LpProblem(
        objective=np.zeros(2),
        a_in=[[1.0, 1.0], [-1.0, -1.0]], b_in=[1.0, -1.0],
        a_eq=np.eye(2), b_eq=[0.5, 0.5],
        lower=np.zeros(2), upper=np.ones(2))
    res = lp.check_feasible(prob)
    assert res.feasible
    assert primal_violations(prob, res.x) <= 1e-7


def test_malformed_dimension_mismatch():
    with pytest.raises(MalformedProblem):
        lp.LpProblem(objective=[1.0, 2.0], a_in=[[1.0]], b_in=[1.0])


def test_malformed_nonfinite():
    with pytest.raises(MalformedProblem):
        lp.LpProblem(objective=[np.nan])
    with pytest.raises(MalformedProblem):
        lp.LpProblem(objective=[1.0], a_in=[[np.inf]], b_in=[1.0])


def _random_bounded_problem(rng, n_vars, n_in, n_eq):
    x0 = rng.uniform(-1, 1, n_vars)
    a_in = rng.normal(size=(n_in, n_vars))
    b_in = a_in @ x0 + rng.uniform(0.1, 2.0, n_in)
    a_eq = rng.normal(size=(n_eq, n_vars))
    b_eq = a_eq @ x0
    return lp.LpProblem(
        objective=rng.normal(size=n_vars),
        a_in=a_in, b_in=b_in, a_eq=a_eq, b_eq=b_eq,
        lower=np.full(n_vars, -10.0), upper=np.full(n_vars, 10.0))


def test_duality_gap_on_random_instances():
    """Primal and dual objectives agree within 1e-6 on solvable instances."""
    rng = np.random.default_rng(1234)
    for _ in range(30):
        n = int(rng.integers(2, 51))
        prob = _random_bounded_problem(rng, n, int(rng.integers(1, 12)),
                                       int(rng.integers(0, min(n, 4))))
        sol = lp.solve_lp(prob)
        assert sol.status == lp.OPTIMAL
        assert primal_violations(prob, sol.x) <= 1e-7
        gap = abs(sol.objective_value - dual_objective_value(prob, sol))
        assert gap <= 1e-6 * max(1.0, abs(sol.objective_value))


def test_farkas_certificate_on_infeasible_instances():
    """Every infeasible verdict is backed by y >= 0, y@R = 0, y@h < 0."""
    rng = np.random.default_rng(99)
    checked = 0
    for _ in range(20):
        n = int(rng.integers(1, 8))
        base = _random_bounded_problem(rng, n, int(rng.integers(1, 6)), 0)
        # contradict one random direction: v.x <= -1 and -v.x <= -1
        v = rng.normal(size=n)
        a_in = np.vstack([base.a_in, v, -v])
        b_in = np.concatenate([base.b_in, [-1.0, -1.0]])
        prob = lp.LpProblem(objective=base.objective, a_in=a_in, b_in=b_in,
                            lower=base.lower, upper=base.upper)
        assert lp.solve_lp(prob).status == lp.INFEASIBLE
        cert = farkas_certificate(prob)
        assert cert is not None
        y, rows, rhs = cert
        assert np.all(y >= -1e-12)
        assert np.max(np.abs(y @ rows)) <= 1e-8
        assert y @ rhs < -1e-8
        checked += 1
    assert checked == 20


def test_farkas_certificate_none_when_feasible():
    prob = lp.LpProblem(objective=[0.0], lower=[0.0], upper=[1.0])
    assert farkas_certificate(prob) is None


def test_determinism_identical_bytes():
    rng = np.random.default_rng(5)
    prob = _random_bounded_problem(rng, 20, 8, 3)
    for method in (lp.SIMPLEX, lp.IPM):
        a = lp.solve_lp(prob, method=method)
        b = lp.solve_lp(prob, method=method)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.objective_value == b.objective_value


def test_format_lp_dump(tmp_path):
    prob = lp.LpProblem(objective=[1.0, 0.0], a_in=[[1.0, 2.0]], b_in=[3.0],
                        lower=[0.0, 0.0], name="demo")
    text = lp.format_lp(prob)
    assert "Minimize" in text and "Subject To" in text and "demo" in text
    # with dumping off the text is never formatted
    assert not lp.dump_text("demo", "lp", lambda: pytest.fail("rendered"))
    lp.set_dump_dir(str(tmp_path))
    try:
        lp.solve_lp(prob)
    finally:
        lp.set_dump_dir(None)
    dumped = list(tmp_path.glob("demo_*.lp"))
    assert dumped and "Subject To" in dumped[0].read_text()


def test_format_lp_sparse_rows_match_dense():
    """An APP LP dumps to the same text from `SparseRows` as from dense
    matrices: rows by ascending column, zeros left out."""
    units = [FlexUnit.from_task(t) for t in generate_fleet(3, 12, seed=2).tasks]
    lifted = eliminate(units, coords=range(1, 13))
    nominal = VirtualBattery(np.zeros(12), np.ones(12), 0.0, 12.0)
    problem, _ = build_app(replace(lifted, elim=None), nominal)
    assert isinstance(problem.a_in, lp.SparseRows) and lifted.m_tilde > 0
    # the APP LP has inequality rows only; they stand in for equality rows too
    sparse = replace(problem, a_eq=problem.a_in, b_eq=problem.b_in)
    rows = as_scipy(problem.a_in).toarray()
    dense = replace(sparse, a_in=rows, a_eq=rows)
    assert lp.format_lp(sparse) == lp.format_lp(dense)


#: a well-formed [[1, 0, 2], [0, 3, 0]] and one defect each
_ROWS = dict(shape=(2, 3), indptr=np.array([0, 2, 3], dtype=np.int32),
             indices=np.array([0, 2, 1], dtype=np.int32), data=np.array([1.0, 2.0, 3.0]))
_MALFORMED_ROWS = {
    "indptr_length": (dict(indptr=np.array([0, 3], dtype=np.int32)), "rows \\+ 1"),
    "indptr_decreases": (dict(indptr=np.array([0, 4, 3], dtype=np.int32)), "decrease"),
    "indptr_misses_nnz": (dict(indptr=np.array([0, 2, 2], dtype=np.int32)), "from 0 to nnz"),
    "column_negative": (dict(indices=np.array([-1, 2, 1], dtype=np.int32)), "outside"),
    "column_too_large": (dict(indices=np.array([0, 3, 1], dtype=np.int32)), "outside"),
    "column_duplicate": (dict(indices=np.array([2, 2, 1], dtype=np.int32)), "increase"),
    "columns_unsorted": (dict(indices=np.array([2, 0, 1], dtype=np.int32)), "increase"),
    "data_nan": (dict(data=np.array([1.0, np.nan, 3.0])), "non-finite"),
    "data_inf": (dict(data=np.array([1.0, 2.0, -np.inf])), "non-finite"),
    "float_indices": (dict(indices=np.array([0.0, 2.0, 1.0])), "integers"),
    "list_data": (dict(data=[1.0, 2.0, 3.0]), "numeric arrays"),
}


@pytest.mark.parametrize("defect", sorted(_MALFORMED_ROWS))
def test_malformed_sparse_rows(defect):
    """A malformed SparseRows raises MalformedProblem before HiGHS sees it."""
    change, message = _MALFORMED_ROWS[defect]
    good = lp.LpProblem(objective=np.ones(3), a_in=lp.SparseRows(**_ROWS), b_in=np.ones(2))
    assert lp.solve_lp(good).status == lp.UNBOUNDED
    for a_in, a_eq in ((lp.SparseRows(**{**_ROWS, **change}), None),
                       (None, lp.SparseRows(**{**_ROWS, **change}))):
        with pytest.raises(MalformedProblem, match=message):
            lp.LpProblem(objective=np.ones(3), a_in=a_in, b_in=None if a_in is None else [1, 1],
                         a_eq=a_eq, b_eq=None if a_eq is None else [1, 1])


@pytest.mark.parametrize("matrix", [sp.csr_matrix, sp.csr_array, sp.coo_matrix])
def test_malformed_other_matrix_type(matrix):
    """Only dense arrays and SparseRows are matrices; scipy's sparse types
    are rejected, not converted."""
    with pytest.raises(MalformedProblem, match="dense array or lp.SparseRows"):
        lp.LpProblem(objective=np.ones(2), a_in=matrix(np.eye(2)), b_in=np.ones(2))


def _adequacy_lps():
    fleet = generate_fleet(8, 10, seed=4)
    u = random_admissible_schedule(fleet, np.random.default_rng(4)).sum(axis=0)
    assert adequacy_lp(fleet, u).adequate
    covered = u > 0
    assert not adequacy_lp(fleet, np.where(covered, u + 50.0, u)).adequate


def _solve(**problem):
    def run():
        lp.solve_lp(lp.LpProblem(**problem))
    return run


_NEAR_INFEASIBLE = lp.LpProblem(
    objective=[1.0, 1.0], a_in=as_rows([[1.0, 1.0], [-1.0, -1.0]]),
    b_in=[1.0, -1.0 - 1e-6], lower=[0.0, 0.0], upper=[0.6, 0.6])
#: LP sources for the reference comparison, each with the scipy statuses
#: its solves must end in
REFERENCE_CASES = {
    "app_ipm": (lambda: aggregate(generate_fleet(12, 12, seed=7),
                                  AggregateConfig(group_size=4, fanout=3)), {0}),
    "adequacy_simplex": (_adequacy_lps, {0, 2}),
    "infeasible": (_solve(objective=[1.0, 1.0], a_in=as_rows([[1.0, 1.0]]), b_in=[1.0],
                          a_eq=as_rows([[1.0, -1.0]]), b_eq=[0.0],
                          lower=[1.0, 0.0], upper=[2.0, 2.0]), {2}),
    "unbounded": (_solve(objective=[-1.0, 0.0], a_in=as_rows([[-1.0, 0.0]]), b_in=[1.0],
                         a_eq=as_rows([[1.0, -1.0]]), b_eq=[0.0],
                         lower=[0.0, -np.inf]), {3}),
    "dense": (lambda: lp.solve_lp(
        _random_bounded_problem(np.random.default_rng(21), 30, 10, 3)), {0}),
    # rows 1e-6 apart: optimal at tol_feas 1e-3, infeasible at the default
    "tolerances": (lambda: [lp.solve_lp(_NEAR_INFEASIBLE, tol_feas=tol) for tol in (1e-3, 1e-7)],
                   {0, 2}),
    "no_inequalities": (_solve(objective=[1.0, -2.0, 0.5, 0.0, -1.0, 3.0],
                               a_eq=as_rows([[1.0, 1.0, 0.0, 2.0, 0.0, -1.0],
                                             [0.0, -1.0, 1.0, 0.0, 1.0, 1.0]]),
                               b_eq=[0.5, -0.5], lower=np.full(6, -2.0),
                               upper=np.full(6, 2.0)), {0}),
    "no_equalities": (_solve(objective=-np.ones(5),
                             a_in=as_rows(sp.random(4, 5, density=0.6, random_state=3,
                                                    format="csr")
                                          + sp.eye(4, 5, format="csr")),
                             b_in=np.ones(4), lower=np.zeros(5), upper=np.full(5, 3.0)), {0}),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_linprog_matches_scipy_reference(case, monkeypatch):
    """flexbat's `linprog` gives scipy.optimize.linprog's answer byte for
    byte: the same x, status, objective, marginals and iteration counts."""
    from scipy.optimize import linprog as scipy_linprog

    source, statuses = REFERENCE_CASES[case]
    calls = []
    real = lp.linprog

    def record(c, method, **kwargs):
        res = real(c, method=method, **kwargs)
        calls.append((c, method, kwargs, res))
        return res

    monkeypatch.setattr(lp, "linprog", record)
    source()
    assert calls
    seen = set()
    for c, method, kw, res in calls:
        ref = scipy_linprog(
            c, A_ub=as_scipy(kw["A_ub"]), b_ub=kw["b_ub"], A_eq=as_scipy(kw["A_eq"]),
            b_eq=kw["b_eq"],
            bounds=np.column_stack([kw["lower"], kw["upper"]]), method=method,
            options={"presolve": True, "primal_feasibility_tolerance": kw["primal_tol"],
                     "dual_feasibility_tolerance": kw["dual_tol"]})
        assert (res.status, res.nit, res.crossover_nit) == (ref.status, ref.nit,
                                                           ref.crossover_nit)
        seen.add(res.status)
        if ref.status != 0:
            assert res.x is None
            continue
        assert res.x.tobytes() == ref.x.tobytes()
        assert res.fun == ref.fun
        for mine, theirs in ((res.ineq_marginals, ref.ineqlin), (res.eq_marginals, ref.eqlin),
                             (res.lower_marginals, ref.lower),
                             (res.upper_marginals, ref.upper)):
            assert mine.tobytes() == theirs.marginals.tobytes()
    assert seen == statuses
    if case == "app_ipm":
        assert {method for _, method, _, _ in calls} == {lp.IPM}


_IMPORT_AND_SOLVE = """
import sys
import numpy as np
import flexbat, flexbat.cli
from flexbat import AggregateConfig, adequacy_lp, aggregate, generate_fleet
fleet = generate_fleet(6, 12, seed=1)
tree = aggregate(fleet, AggregateConfig(group_size=3, fanout=2))
print(type(adequacy_lp(fleet, np.zeros(fleet.m))).__name__, tree.battery.m)
print(sorted(k for k in sys.modules if k.startswith('scipy.optimize')))
print(sorted(k for k in sys.modules if k.startswith('scipy.sparse')))
"""


def test_import_leaves_scipy_optimize_unloaded():
    """HiGHS's binding is loaded from its file and handed plain row arrays,
    so importing the package and its CLI, aggregating and checking adequacy
    never run scipy.optimize's package import or load scipy.sparse."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_AND_SOLVE],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    solved, optimize, sparse = proc.stdout.splitlines()
    assert solved == "AdequacyVerdict 12"
    assert "'scipy.optimize'" not in optimize
    assert "'scipy.optimize._highspy._core'" in optimize
    assert sparse == "[]"


def test_missing_highs_binding_names_directory_and_version(tmp_path):
    with pytest.raises(ImportError) as err:
        lp._load_highs(str(tmp_path))
    assert str(tmp_path) in str(err.value)
    assert f"scipy {scipy.__version__}" in str(err.value)
