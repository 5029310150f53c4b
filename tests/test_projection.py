from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _helpers import (battery_to_hpolytope, build_app_dense, build_app_reference,
                      build_opp3, contains_polytope, homothet_apply,
                      certificate, certificate_residuals, max_violation,
                      random_small_fleet, reconstruct_reference, solve_app_reference,
                      solve_app_unfolded, solve_opp3, support_function)
from flexbat import lp, projection
from flexbat.aggregation import (Leaf, _mean_nominal, _most_constrained,
                                 _solve_chunk, _span, _unit_nominal_on_span,
                                 partition_fleet)
from flexbat.errors import DimensionMismatch, EmptyOrDegenerate, EmptyUnit
from flexbat.fleet import ChargingTask, generate_fleet
from flexbat.geometry import VirtualBattery, homothet_apply_battery
from flexbat.oracle import adequacy_lp
from flexbat.projection import (APP_TOL, CERTIFICATE_TOL, S_MAX, AppSolution, FlexUnit,
                                LiftedPolytope, build_app, check_app, eliminate, solve_app)
from flexbat.sampling import sample_battery

EX1_LIFTED = LiftedPolytope(
    b=np.array([[-0.5, -1.0], [0.6, 1.0], [-1.0, -1.0]]),
    c=np.array([-9.0, 10.0, -10.0]), m=1, m_tilde=1)
EX1_NOMINAL = VirtualBattery([-0.5], [1.0], -0.5, 1.0)


def unit(active, p, e_low, e_high, origin="u"):
    active = tuple(active)
    return FlexUnit(active=active, lo=np.zeros(len(active)),
                    hi=np.full(len(active), p), e_low=e_low, e_high=e_high,
                    origin=origin)


def task_unit(a, d, p, e_low, e_high, origin="t"):
    return FlexUnit.from_task(
        ChargingTask(origin, a=a, d=d, p=p, e_low=e_low, e_high=e_high))


# ---------------------------------------------------------------- eliminate

def test_eliminate_single_unit_no_tilde():
    """With one unit every slot eliminates it: the system stays in u."""
    lifted = eliminate([unit((1, 2), 1.0, 1.0, 1.0)])
    assert lifted.m == 2 and lifted.m_tilde == 0
    assert lifted.n_rows == 2 * (1 + 2)
    # membership must match the unit's own admissible set
    assert max_violation(lifted, np.array([0.5, 0.5]), np.zeros(0)) <= 1e-12
    assert max_violation(lifted, np.array([1.0, 1.0]), np.zeros(0)) > 0.5


def test_eliminate_two_identical_units_counts():
    units = [unit((1, 2), 1.0, 1.0, 1.0, "a"), unit((1, 2), 1.0, 1.0, 1.0, "b")]
    lifted = eliminate(units)
    assert lifted.m_tilde == 2          # the second unit's two coordinates
    assert lifted.n_rows == 2 * (2 + 4)
    assert lifted.elim.s_i == ((1, 2), ())
    assert lifted.elim.utilde == ((1, 1), (1, 2))


def test_eliminate_disjoint_windows_is_product():
    units = [unit((1,), 1.0, 0.5, 1.0, "a"), unit((2,), 2.0, 1.0, 2.0, "b")]
    lifted = eliminate(units)
    assert lifted.m_tilde == 0
    assert lifted.n_rows == 2 * (2 + 2)
    ok = max_violation(lifted, np.array([0.7, 1.5]), np.zeros(0))
    assert ok <= 1e-12
    bad = max_violation(lifted, np.array([0.7, 2.5]), np.zeros(0))
    assert bad > 0.1


def test_eliminate_retained_rate_rows_have_zero_u_columns():
    units = [unit((1, 2), 1.0, 1.0, 1.0, "a"), unit((1, 2), 1.0, 1.0, 1.0, "b")]
    lifted = eliminate(units)
    # rows 2m .. 2m + 2*m_tilde are the retained-coordinate rate bounds
    block = lifted.u_block[2 * lifted.m: 2 * lifted.m + 2 * lifted.m_tilde]
    assert np.all(block == 0.0)


def test_eliminate_membership_equivalence():
    """(u, u_tilde) satisfies the lifted system iff the per-unit split does."""
    rng = np.random.default_rng(8)
    units = [task_unit(1, 3, 1.0, 1.0, 2.0, "a"),
             task_unit(2, 4, 2.0, 2.0, 3.5, "b"),
             task_unit(2, 3, 1.5, 0.5, 2.0, "c")]
    lifted = eliminate(units)
    elim = lifted.elim
    for _ in range(50):
        profiles = [rng.uniform(0, un.hi) for un in units]
        feasible = all(un.e_low <= prof.sum() <= un.e_high
                       for un, prof in zip(units, profiles))
        z = np.zeros(lifted.m)
        for un, prof in zip(units, profiles):
            for k, t in enumerate(un.active):
                z[elim.coord_index[t]] += prof[k]
        utilde = np.zeros(lifted.m_tilde)
        for q, (i, t) in enumerate(elim.utilde):
            utilde[q] = profiles[i][units[i].active.index(t)]
        violation = max_violation(lifted, z, utilde)
        if feasible:
            assert violation <= 1e-9
        else:
            assert violation > 1e-9
        # reconstruction inverts the substitution exactly
        back = elim.reconstruct(z, utilde)
        for prof, rec in zip(profiles, back):
            np.testing.assert_allclose(rec, prof, atol=1e-12)
        # the index form repeats the scalar subtractions bit for bit
        loop = reconstruct_reference(elim, z, utilde)
        assert [r.tobytes() for r in back] == [r.tobytes() for r in loop]


def test_eliminate_gap_slots_pinned():
    units = [unit((1,), 1.0, 0.5, 1.0, "a"), unit((4,), 1.0, 0.5, 1.0, "b")]
    lifted = eliminate(units, coords=(1, 2, 3, 4))
    assert lifted.m == 4
    assert lifted.elim.j_t == (0, None, None, 1)
    assert max_violation(lifted, np.array([0.8, 0.0, 0.0, 0.8]), np.zeros(0)) <= 1e-12
    assert max_violation(lifted, np.array([0.8, 0.1, 0.0, 0.8]), np.zeros(0)) > 1e-3


def test_eliminate_rejects_uncovered_units():
    with pytest.raises(DimensionMismatch):
        eliminate([unit((1, 2), 1.0, 0.5, 1.0)], coords=(1,))
    with pytest.raises(EmptyUnit):
        eliminate([])


def test_flexunit_empty_rejected():
    with pytest.raises(EmptyUnit):
        unit((1, 2), 1.0, 5.0, 6.0)   # energy above reachable sum


# ------------------------------------------------------------- OPP3 and APP

def test_opp3_example1_golden():
    sol = solve_opp3(EX1_LIFTED, EX1_NOMINAL)
    assert sol.s == pytest.approx(1.125, abs=1e-6)
    assert sol.r[0] == pytest.approx(-2.75, abs=1e-6)
    assert sol.v[0] == pytest.approx(9.0, abs=1e-6)
    assert sol.lam == pytest.approx(8.0 / 9.0, abs=1e-6)
    assert sol.mu[0] == pytest.approx(22.0 / 9.0, abs=1e-6)


def test_opp3_identity_when_nominal_is_box_section():
    """Nominal equal to the u-section of a product polytope: s = 1, r = 0."""
    units = [unit((1,), 1.0, 0.0, 1.0, "a"), unit((2,), 1.0, 0.0, 1.0, "b")]
    lifted = eliminate(units)
    nominal = VirtualBattery([0.0, 0.0], [1.0, 1.0], 0.0, 2.0)
    sol = solve_opp3(lifted, nominal)
    assert sol.s == pytest.approx(1.0, abs=1e-7)
    np.testing.assert_allclose(sol.r, 0.0, atol=1e-7)


def test_opp3_degenerate_cross_section():
    """u pinned to u_tilde leaves every fixed-u_tilde section a single point."""
    lifted = LiftedPolytope(
        b=np.array([[1.0, -1.0], [-1.0, 1.0], [0.0, 1.0], [0.0, -1.0]]),
        c=np.array([0.0, 0.0, 1.0, 0.0]), m=1, m_tilde=1)
    nominal = VirtualBattery([0.0], [1.0], 0.0, 1.0)
    with pytest.raises(EmptyOrDegenerate):
        solve_opp3(lifted, nominal)
    # the affine rule sees through it: u_tilde = u recovers the full interval
    sol = solve_app(lifted, nominal)
    assert sol.s == pytest.approx(1.0, abs=1e-6)


def test_app_example1_golden():
    sol = solve_app(EX1_LIFTED, EX1_NOMINAL)
    assert sol.s == pytest.approx(0.15, abs=1e-6)
    assert sol.r[0] == pytest.approx(-0.5, abs=1e-6)
    recovered = homothet_apply_battery(sol.homothet, EX1_NOMINAL)
    assert recovered.p_low[0] == pytest.approx(0.0, abs=1e-6)
    assert recovered.p_high[0] == pytest.approx(10.0, abs=1e-6)
    assert check_app(EX1_LIFTED, EX1_NOMINAL, sol)[0] >= -1e-8


def test_app_self_approximation_single_unit():
    un = task_unit(1, 3, 2.0, 1.0, 4.0)
    lifted = eliminate([un])
    sol = solve_app(lifted, un.battery)
    assert lifted.m_tilde == 0 and sol.w.shape == (0, 3)
    assert sol.s == pytest.approx(1.0, abs=1e-6)
    np.testing.assert_allclose(sol.r, 0.0, atol=1e-5)


def test_app_five_identical_units_scale_five():
    """Sum of five copies of a convex set is five times the set."""
    units = [task_unit(1, 4, 1.0, 1.2, 2.4, f"t{i}") for i in range(5)]
    lifted = eliminate(units)
    nominal = units[0].battery
    sol = solve_app(lifted, nominal)
    assert sol.lam == pytest.approx(5.0, abs=1e-4)
    # sufficiency: boundary samples of the homothet battery stay adequate
    from flexbat.fleet import Fleet
    fleet = Fleet(m=4, tasks=tuple(
        ChargingTask(f"t{i}", 1, 4, 1.0, 1.2, 2.4) for i in range(5)))
    big = homothet_apply_battery(sol.homothet, nominal)
    for u in sample_battery(big, 20, seed=5, total_energy=big.e_high):
        assert adequacy_lp(fleet, u).adequate


def test_app_solution_invariants_random():
    rng = np.random.default_rng(77)
    for _ in range(5):
        fleet = random_small_fleet(rng, n=3, m=4)
        units = [FlexUnit.from_task(t) for t in fleet.tasks]
        lifted = eliminate(units)
        coords = lifted.elim.coords
        nominal = VirtualBattery(
            np.zeros(lifted.m),
            [np.mean([un.bound_at(t)[1] if t in un.active else 0.0 for un in units])
             for t in coords],
            float(np.mean([un.e_low for un in units])),
            float(np.mean([un.e_high for un in units])))
        sol = solve_app(lifted, nominal)
        assert sol.s > 0
        assert check_app(lifted, nominal, sol)[0] >= -1e-7


def test_decision_rule_feasibility():
    """Points of the certified homothet plus their ruled lift satisfy B[u;u~] <= c."""
    rng = np.random.default_rng(13)
    for trial in range(3):
        fleet = random_small_fleet(rng, n=3, m=4)
        units = [FlexUnit.from_task(t) for t in fleet.tasks]
        lifted = eliminate(units)
        nominal = _mean_battery(units, lifted.elim.coords)
        sol = solve_app(lifted, nominal)
        hom_battery = homothet_apply_battery(sol.homothet, nominal)
        for z in sample_battery(hom_battery, 170, seed=trial):
            utilde = sol.rule_apply(z)
            assert max_violation(lifted, z, utilde) <= 1e-6


def _mean_battery(units, coords):
    hi = [np.mean([un.bound_at(t)[1] if t in un.active else 0.0 for un in units])
          for t in coords]
    e_lo = float(np.mean([un.e_low for un in units]))
    e_hi = float(np.mean([un.e_high for un in units]))
    e_lo = min(e_lo, float(np.sum(hi)))
    e_hi = min(e_hi, float(np.sum(hi)))
    return VirtualBattery(np.zeros(len(coords)), hi, e_lo, e_hi)


def test_suboptimal_chain_example1():
    lam_opp3 = solve_opp3(EX1_LIFTED, EX1_NOMINAL).lam
    lam_app = solve_app(EX1_LIFTED, EX1_NOMINAL).lam
    assert lam_opp3 == pytest.approx(8.0 / 9.0, abs=1e-6)
    assert lam_app == pytest.approx(20.0 / 3.0, abs=1e-6)
    assert lam_opp3 <= lam_app


def test_app_example1_homothet_contains_opp3_section():
    """On the worked example the affine rule recovers the full projection,
    so the constant-rule cross-section sits inside its homothet."""
    npoly = battery_to_hpolytope(EX1_NOMINAL)
    opp3 = solve_opp3(EX1_LIFTED, EX1_NOMINAL)
    app = solve_app(EX1_LIFTED, EX1_NOMINAL)
    inner = homothet_apply(opp3.homothet, npoly)
    outer = homothet_apply(app.homothet, npoly)
    assert contains_polytope(inner, outer)


def test_constant_rule_never_beats_affine_rule():
    """lam_opp3 <= lam_app (a constant rule is one admissible affine rule),
    and both certified homothets really sit inside the aggregate set.

    Mutual containment of the two homothets does not hold in general: at
    the optimum the translate can slide, leaving two maximal copies inside
    the projection that do not nest. Only the scale ordering is a theorem.
    """
    rng = np.random.default_rng(2)
    checked = 0
    for _ in range(20):
        fleet = random_small_fleet(rng, n=2, m=3)
        units = [FlexUnit.from_task(t) for t in fleet.tasks]
        lifted = eliminate(units)
        nominal = _mean_battery(units, lifted.elim.coords)
        try:
            opp3 = solve_opp3(lifted, nominal)
        except EmptyOrDegenerate:
            continue
        app = solve_app(lifted, nominal)
        assert opp3.lam <= app.lam + 1e-7
        # sufficiency of the weaker certificate, via the LP adequacy oracle
        small = homothet_apply_battery(opp3.homothet, nominal)
        full = np.zeros(fleet.m)
        for u in sample_battery(small, 10, seed=checked):
            full[:] = 0.0
            full[np.asarray(lifted.elim.coords) - 1] = u
            assert adequacy_lp(fleet, full).adequate
        checked += 1
    assert checked >= 10


def test_translation_covariance():
    """Shifting the nominal by w maps a solution (s, r, W, V) of one
    problem to (s, r + w, W, V - W w) of the other.

    The scale is unique, so it must match. r is not: the optimal face can
    hold many translates, and the solver may return any vertex of it. The
    map is exact algebra (h_{B+w}(a) = h_B(a) + a . w), so each solution,
    carried over, must pass the other problem's fit check.
    """
    rng = np.random.default_rng(6)
    for trial in range(6):
        fleet = random_small_fleet(rng, n=2, m=3)
        units = [FlexUnit.from_task(t) for t in fleet.tasks]
        lifted = eliminate(units)
        nominal = _mean_battery(units, lifted.elim.coords)
        base = solve_app(lifted, nominal)
        w = rng.uniform(-1.0, 1.0, lifted.m)
        shifted = VirtualBattery(nominal.p_low + w, nominal.p_high + w,
                                 nominal.e_low + w.sum(), nominal.e_high + w.sum())
        moved = solve_app(lifted, shifted)
        assert moved.s == pytest.approx(base.s, abs=1e-6)
        carried = [
            (replace(base, r=base.r + w, v=base.v - base.w @ w), shifted),
            (replace(moved, r=moved.r - w, v=moved.v + moved.w @ w), nominal),
        ]
        for sol, battery in carried:
            slack, row = check_app(lifted, battery, sol)
            assert slack >= -1e-9, (trial, slack, row)


def test_app_ipm_failure_resolved_by_simplex(monkeypatch):
    """An interior-point solve that gives up (HiGHS status 4) on an
    infeasible APP LP is repeated with simplex, so the caller sees an
    infeasible LP (EmptyOrDegenerate, handled by the fallback ladder)
    rather than a SolverFailure."""
    lifted = eliminate([unit((1,), 1.0, 0.5, 1.0, "a"),
                        unit((4,), 1.0, 0.5, 1.0, "b")], coords=(1, 2, 3, 4))
    # the nominal draws power in the pinned gap slots: no homothet fits
    nominal = VirtualBattery(np.zeros(4), np.ones(4), 1.0, 2.0)
    real = lp.linprog
    methods = []

    def flaky(*args, method, **kwargs):
        methods.append(method)
        res = real(*args, method=method, **kwargs)
        if method == lp.IPM:
            res.status, res.message = 4, "HiGHS Status 4: Solve error"
        return res

    monkeypatch.setattr(lp, "linprog", flaky)
    with pytest.raises(EmptyOrDegenerate, match="infeasible"):
        solve_app(lifted, nominal)
    assert methods == [lp.IPM, lp.SIMPLEX]


def test_app_certificate_checked_after_solve(monkeypatch):
    """A solver answer to either homothet LP whose homothet does not fit
    (s shrunk by 1e-3), or that holds a NaN (in V), is rejected as
    EmptyOrDegenerate (so the fallback ladder runs), whatever its status."""
    real = lp.solve_lp
    for at, change in ((0, -1e-3), (-1, np.nan)):

        def perturbed(problem, **kwargs):
            sol = real(problem, **kwargs)
            x = sol.x.copy()
            x[at] += change
            return replace(sol, x=x)

        monkeypatch.setattr(lp, "solve_lp", perturbed)
        for solve in (solve_app, solve_opp3):
            with pytest.raises(EmptyOrDegenerate, match="fit check failed"):
                solve(EX1_LIFTED, EX1_NOMINAL)


# ------------------------------------------------------------ LP assembly

def _battery_system(units, coords, p_low):
    """Lifted system of `units` over `coords`, against a nominal battery
    with the given per-slot lower bounds on `coords`."""
    lifted = eliminate(units, coords=coords)
    p_low = np.asarray(p_low, dtype=float)
    p_high = p_low + 1.0
    delta = lifted.delta
    return lifted, VirtualBattery(p_low, p_high, delta * p_low.sum(), delta * p_high.sum())


@st.composite
def lifted_systems(draw):
    """A lifted system and a nominal battery over its coordinates, at slot
    length 1, 0.5 or 0.25: pinned slots inside and beyond the units' union,
    zeros in c and H, and units that share no slot (m_tilde == 0)."""
    delta = draw(st.sampled_from([1.0, 0.5, 0.25]))
    span = draw(st.integers(1, 5))
    value = st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5, -1.0])
    units = []
    for i in range(draw(st.integers(1, 4))):
        a = draw(st.integers(1, span))
        d = draw(st.integers(a, span))
        lo = np.array(draw(st.lists(value, min_size=d - a + 1, max_size=d - a + 1)))
        hi = lo + np.array(draw(st.lists(st.sampled_from([0.0, 1.0, 1.5]),
                                         min_size=lo.size, max_size=lo.size)))
        e_low = lo.sum() + draw(st.sampled_from([0.0, 0.25])) * (hi.sum() - lo.sum())
        e_high = hi.sum() - draw(st.sampled_from([0.0, 0.5])) * (hi.sum() - e_low)
        units.append(FlexUnit(active=tuple(range(a, d + 1)), lo=lo, hi=hi,
                              e_low=delta * e_low, e_high=delta * e_high,
                              origin=f"u{i}", delta=delta))
    pad = draw(st.integers(0, 2))
    coords = None if pad == 0 else tuple(range(1, span + pad + 1))
    lifted = eliminate(units, coords=coords)
    m = lifted.m
    p_low = np.array(draw(st.lists(value, min_size=m, max_size=m)))
    return lifted, VirtualBattery(p_low, p_low + 1.0, delta * p_low.sum(),
                                  delta * (p_low.sum() + m))


def _csr_bytes(mat):
    return (mat.shape, mat.indptr.dtype, mat.indptr.tobytes(), mat.indices.dtype,
            mat.indices.tobytes(), mat.data.tobytes())


def _sorted_unique_columns(mat) -> bool:
    """Every row's column indices strictly increase (scipy's canonical format)."""
    return all((np.diff(mat.indices[lo:hi]) > 0).all()
               for lo, hi in zip(mat.indptr[:-1], mat.indptr[1:]))


@settings(max_examples=200, deadline=None)
@given(lifted_systems())
@example(_battery_system(   # pinned coords wider than the units' union
    [task_unit(2, 3, 1.0, 0.5, 1.5, "a"), unit((3,), 2.0, 1.0, 2.0, "b")],
    (1, 2, 3, 4, 5), [0.0, 0.5, 0.0, 1.0, 0.0]))
@example(_battery_system(   # disjoint windows: m_tilde == 0
    [task_unit(1, 2, 1.0, 0.5, 1.5, "a"), task_unit(3, 4, 2.0, 1.0, 2.0, "b")],
    None, [0.5, 0.5, 1.0, 1.0]))
@example(_battery_system(   # nominal p_low == 0: zeros in H
    [task_unit(1, 3, 1.0, 0.5, 1.5, "a"), task_unit(2, 4, 2.0, 1.0, 2.0, "b")],
    None, np.zeros(4)))
@example(_battery_system(   # half-hour slots: delta and -delta in F
    [FlexUnit.from_task(ChargingTask("a", 1, 3, 1.0, 0.25, 0.75), delta=0.5),
     FlexUnit.from_task(ChargingTask("b", 2, 4, 2.0, 0.5, 1.0), delta=0.5)],
    None, [0.5, 0.0, 1.0, 0.0]))
def test_build_app_matches_reference(system):
    """The one-pass builder gives the bytes of the substituted APP LP
    written entry by entry, from the battery's facet form at the lifted
    system's slot length: CSR arrays, right-hand sides, objective and
    bounds. OPP3 is the same LP without the W columns."""
    lifted, battery = system
    new = build_app(lifted, battery)
    ref = build_app_dense(lifted, battery)
    dense = sp.csr_matrix(ref.a_in)
    assert new.a_eq is None and new.b_eq is None
    assert _sorted_unique_columns(new.a_in)
    assert _csr_bytes(new.a_in) == _csr_bytes(dense)
    for name in ("b_in", "objective", "lower", "upper"):
        assert getattr(new, name).tobytes() == getattr(ref, name).tobytes(), name

    m, mt = lifted.m, lifted.m_tilde
    assert new.n_vars == 1 + lifted.n_rows * (m + 2) + m + mt * m + mt
    w0 = 1 + lifted.n_rows * (m + 2) + m
    keep = np.r_[0:w0, w0 + mt * m:new.n_vars]
    opp3 = build_opp3(lifted, battery)
    assert _sorted_unique_columns(opp3.a_in)
    assert _csr_bytes(opp3.a_in) == _csr_bytes(dense[:, keep].tocsr())
    assert opp3.b_in.tobytes() == new.b_in.tobytes()
    for name in ("objective", "lower", "upper"):
        assert getattr(opp3, name).tobytes() == getattr(new, name)[keep].tobytes(), name


@settings(max_examples=60, deadline=None)
@given(lifted_systems())
@example(_battery_system(   # half-hour slots and a nominal with p_low != 0
    [FlexUnit.from_task(ChargingTask("a", 1, 3, 1.0, 0.25, 0.75), delta=0.5),
     FlexUnit.from_task(ChargingTask("b", 2, 4, 2.0, 0.5, 1.0), delta=0.5)],
    None, [0.5, 0.0, 1.0, 0.0]))
def test_app_s_matches_unsubstituted_lp(system):
    """Substituting g- out changes no optimum: the LP with G whole
    (`build_app_reference`) reaches the same s to 1e-9 relative at slot
    lengths 1, 0.5 and 0.25, and where it is solvable `solve_app`'s
    solution passes the fit check."""
    lifted, battery = system
    new = lp.solve_lp(build_app(lifted, battery), tol_feas=APP_TOL, tol_opt=APP_TOL,
                      method=lp.IPM)
    old = lp.solve_lp(build_app_reference(lifted, battery_to_hpolytope(battery, lifted.delta)),
                      tol_feas=APP_TOL, tol_opt=APP_TOL, method=lp.IPM)
    assert new.status == old.status
    if new.status != lp.OPTIMAL:
        return
    assert new.objective_value == pytest.approx(old.objective_value, rel=1e-9, abs=1e-12)
    if new.objective_value > projection.S_MIN:
        sol = solve_app(lifted, battery)
        assert check_app(lifted, battery, sol)[0] >= -1e-6


@st.composite
def common_window_systems(draw):
    """Units sharing one window (one of them maybe a shorter one inside it),
    rates and energies from small sets, pinned slots beyond the window, and
    either the units' mean nominal or a battery whose bounds repeat: systems
    whose slots fall into classes of several slots each."""
    delta = draw(st.sampled_from([1.0, 0.5]))
    span = draw(st.integers(2, 5))
    units = []
    for i in range(draw(st.integers(2, 5))):
        a, d = (2, span) if i == 0 and span > 2 and draw(st.booleans()) else (1, span)
        p = draw(st.sampled_from([1.0, 2.0]))
        width = d - a + 1
        e_low = draw(st.sampled_from([0.0, 0.25])) * p * width
        e_high = draw(st.sampled_from([1.0, 0.5])) * p * width
        units.append(FlexUnit.from_task(
            ChargingTask(f"u{i}", a=a, d=d, p=p, e_low=delta * e_low,
                         e_high=delta * max(e_low, e_high)), delta=delta))
    coords = tuple(range(1, span + draw(st.integers(0, 2)) + 1))
    lifted = eliminate(units, coords=coords)
    if draw(st.booleans()):
        return lifted, _mean_nominal(units, coords, delta)
    p_low = np.array(draw(st.lists(st.sampled_from([0.0, 0.0, 0.5]),
                                   min_size=lifted.m, max_size=lifted.m)))
    return lifted, VirtualBattery(p_low, p_low + 1.0, delta * p_low.sum(),
                                  delta * (p_low.sum() + lifted.m))


@settings(max_examples=150, deadline=None)
@given(st.one_of(lifted_systems(), common_window_systems()))
def test_app_fold_keeps_s(system):
    """Solving on the orbits of interchangeable slots changes no optimum:
    `solve_app` gives the s of `build_app`'s LP solved as built to 1e-9
    relative, both raise EmptyOrDegenerate together, and the folded
    solution passes `check_app` on every lifted row. A system with no two
    slots of one class folds to `build_app`'s exact bytes."""
    lifted, battery = system
    full = build_app(lifted, battery)
    folded = projection.fold_app(full, *projection.app_orbits(lifted, battery))
    if np.unique(projection.slot_classes(lifted, battery)).size == lifted.m:
        assert _csr_bytes(folded.a_in) == _csr_bytes(full.a_in)
        for name in ("b_in", "objective", "lower", "upper"):
            assert getattr(folded, name).tobytes() == getattr(full, name).tobytes(), name
    else:
        assert folded.a_in.shape[0] < full.a_in.shape[0]
    try:
        ref = solve_app_unfolded(lifted, battery)
    except EmptyOrDegenerate:
        with pytest.raises(EmptyOrDegenerate):
            solve_app(lifted, battery)
        return
    sol = solve_app(lifted, battery)
    assert sol.s == pytest.approx(ref.s, rel=1e-9)
    assert check_app(lifted, battery, sol)[0] >= -1e-9


@settings(max_examples=40, deadline=None)
@given(lifted_systems(), st.integers(0, 2**32 - 1))
def test_check_app_matches_rowwise_lp(system, seed):
    """`check_app`'s worst slack and row are those of B11 r - B12 V + s c
    minus max a_i . u over the battery's facet form, solved by LP for each
    row a_i of B11 + B12 W, for any (s, r, W, V) at every slot length."""
    lifted, battery = system
    rng = np.random.default_rng(seed)
    m, mt = lifted.m, lifted.m_tilde
    sol = AppSolution(s=float(rng.uniform(0.1, 2.0)), r=rng.normal(size=m),
                      w=rng.normal(size=(mt, m)), v=rng.normal(size=mt))
    poly = battery_to_hpolytope(battery, lifted.delta)
    b11, b12 = lifted.u_block, lifted.tail_block
    slack = (b11 @ sol.r - b12 @ sol.v + sol.s * lifted.c
             - [support_function(poly, a) for a in b11 + b12 @ sol.w])
    worst, row = check_app(lifted, battery, sol)
    assert worst == pytest.approx(slack.min(), abs=1e-9)
    assert slack[row] == pytest.approx(worst, abs=1e-9)


def _unfolded_half(lifted: LiftedPolytope, battery: VirtualBattery,
                   x: np.ndarray) -> np.ndarray:
    """Every lifted row's (g+, e+, e-) from the folded LP's x. A rate row's
    representative is the row of the same kind at the first slot of its
    fixed slot's class; the transposition of those two slots maps one row
    onto the other, so g+ of the row is its representative's g+ with the two
    slots swapped."""
    elim, n, m = lifted.elim, lifted.n_rows, lifted.m
    rows, cols, _ = projection.app_orbits(lifted, battery)
    classes = projection.slot_classes(lifted, battery)
    first = [int(np.flatnonzero(classes == c)[0]) for c in classes]
    half = np.empty((n, m + 2))
    for i in range(n):
        rep, swap = i, np.arange(m + 2)
        if i < 2 * m:
            k = i // 2
            rep = 2 * first[k] + i % 2
        elif i < 2 * (m + lifted.m_tilde):
            unit, t = elim.utilde[(i - 2 * m) // 2]
            k = elim.coord_index[t]
            rep = 2 * m + 2 * elim.utilde_index[(unit, elim.coords[first[k]])] + i % 2
        if rep != i:
            swap[[k, first[k]]] = swap[[first[k], k]]
        assert rows[rep] and cols[1 + rep * (m + 2)] >= 0
        half[i] = x[cols[1 + rep * (m + 2) + swap]]
    return half


@pytest.mark.parametrize("seed", [3, 11])
def test_solve_app_matches_reference_lp(seed, monkeypatch):
    """On fleet groups the folded LP gives the s of the LP with G whole and
    no bound on s, and both solutions pass both proofs of the fit:
    `check_app` and the dense G of the LP's own multipliers, each folded-away
    row's G rebuilt from its representative's. The groups have slots that
    fold."""
    fleet = generate_fleet(20, 12, seed)
    xs = []
    real = lp.solve_lp

    def kept(problem, **kwargs):
        sol = real(problem, **kwargs)
        xs.append(sol.x)
        return sol

    monkeypatch.setattr(lp, "solve_lp", kept)
    solved = []
    for group in partition_fleet(fleet, 5)[:2]:
        units = [FlexUnit.from_task(t) for t in group]
        coords = _span(units)
        lifted = eliminate(units, coords=coords)
        nominal = _mean_nominal(units, coords, fleet.delta)
        new = solve_app(lifted, nominal)
        new_g = certificate(lifted, _unfolded_half(lifted, nominal, xs[-1]), new.w)
        ref, ref_g = solve_app_reference(lifted, nominal)
        assert new.s == pytest.approx(ref.s, rel=1e-9)
        for sol, g in ((new, new_g), (ref, ref_g)):
            assert check_app(lifted, nominal, sol)[0] >= -CERTIFICATE_TOL
            res = certificate_residuals(g, sol, lifted, nominal)
            assert max(res.values()) <= CERTIFICATE_TOL
        solved.append((lifted.m_tilde, np.unique(projection.slot_classes(lifted, nominal)).size
                       < lifted.m))
    assert all(mt > 0 and folds for mt, folds in solved)


def test_solved_app_owns_its_arrays():
    """r, W and V are arrays of their own, not views into the LP's
    solution vector, which a tree node would otherwise keep alive whole."""
    fleet = generate_fleet(20, 12, 3)
    units = [FlexUnit.from_task(t) for t in partition_fleet(fleet, 5)[0]]
    coords = _span(units)
    lifted = eliminate(units, coords=coords)
    sol = solve_app(lifted, _mean_nominal(units, coords, fleet.delta))
    arrays = [sol.r, sol.w, sol.v]
    assert lifted.m_tilde > 0
    for a in arrays:
        assert a.base is None and a.flags.owndata
    for k, a in enumerate(arrays):
        for b in arrays[k + 1:]:
            assert not np.shares_memory(a, b)


def test_scale_guard_without_column_bound(monkeypatch):
    """With no column bound on s, a huge s reaches `_checked_s`, which
    rejects it as EmptyOrDegenerate; `_solve_chunk` then drops a rung."""
    real = lp.solve_lp
    calls = []

    def huge_s(problem, **kwargs):
        sol = real(problem, **kwargs)
        calls.append(problem.upper[0])
        if len(calls) > 1:
            return sol
        x = sol.x.copy()
        x[0] = 0.2 * S_MAX
        return replace(sol, x=x)

    monkeypatch.setattr(lp, "solve_lp", huge_s)
    with pytest.raises(EmptyOrDegenerate, match="scale guard"):
        solve_app(EX1_LIFTED, EX1_NOMINAL)
    assert calls == [np.inf]

    calls.clear()
    units = [task_unit(1, 3, 1.0, 0.5, 2.0, "a"), task_unit(2, 4, 2.0, 1.0, 3.0, "b")]
    coords = _span(units)
    shared = _mean_nominal(units, coords, 1.0)
    solved = _solve_chunk("g", units, [Leaf("a"), Leaf("b")], coords, shared, (1, 4))
    assert len(calls) == 2
    assert len(solved) == 1 and solved[0].cohort_key is None
    fallback = _unit_nominal_on_span(_most_constrained(units), coords)
    assert solved[0].node.nominal == fallback != shared
