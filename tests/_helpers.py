"""Shared test utilities: independent oracles and small generators."""

from itertools import combinations

import numpy as np
import scipy.sparse as sp

from flexbat import lp
from flexbat.aggregation import (AggregationTree, CohortNode, DispatchResult,
                                 Leaf)
from flexbat.cli import ArbitrageResult, PriceSeries
from flexbat.errors import (DimensionMismatch, DispatchInfeasible, EmptyBattery,
                            FlexError, MalformedProblem, NotInBattery,
                            ValidationError)
from flexbat.fleet import ChargingTask, Fleet
from flexbat.geometry import HPolytope, VirtualBattery, contains_point
from flexbat.projection import S_MAX, LiftedPolytope


class EmptyInner(FlexError):
    """Containment test called with an empty inner polytope."""


class UnboundedDirection(FlexError):
    """Support function queried along a direction with no finite maximum."""


def as_scipy(mat):
    """A problem's matrix as scipy takes it: `lp.SparseRows` as a
    csr_matrix over the same arrays, a dense matrix as it is."""
    if isinstance(mat, lp.SparseRows):
        return sp.csr_matrix((mat.data, mat.indices, mat.indptr), shape=mat.shape)
    return mat


def as_rows(mat) -> lp.SparseRows:
    """A scipy or dense matrix as `lp.SparseRows` over scipy's CSR arrays."""
    csr = sp.csr_matrix(mat)
    return lp.SparseRows(csr.shape, csr.indptr, csr.indices, csr.data)


def is_empty(poly: HPolytope, tol: float = lp.TOL_FEAS) -> bool:
    problem = lp.LpProblem(objective=np.zeros(poly.dim), a_in=poly.a, b_in=poly.c,
                           name="hpoly")
    return not lp.check_feasible(problem, tol_feas=tol).feasible


def contains_polytope(inner: HPolytope, outer: HPolytope,
                      tol: float = lp.TOL_FEAS) -> bool:
    """Exact subset test via one Farkas multiplier LP.

    True iff some G >= 0 satisfies G @ A_inner = A_outer and
    G @ c_inner <= c_outer. Requires a nonempty inner set.
    """
    if inner.dim != outer.dim:
        raise DimensionMismatch("containment needs a shared ambient space")
    if is_empty(inner, tol):
        raise EmptyInner("inner polytope is empty; Farkas premise fails")
    ki, ko = inner.n_rows, outer.n_rows
    # variables: G flattened row-major, one row of G per outer row
    a_eq = sp.kron(sp.eye(ko), sp.csr_matrix(inner.a.T), format="csr")
    b_eq = outer.a.ravel()
    a_in = sp.kron(sp.eye(ko), sp.csr_matrix(inner.c.reshape(1, -1)), format="csr")
    prob = lp.LpProblem(
        objective=np.zeros(ko * ki),
        a_in=as_rows(a_in), b_in=outer.c,
        a_eq=as_rows(a_eq), b_eq=b_eq,
        lower=np.zeros(ko * ki),
        name="contains",
    )
    return lp.check_feasible(prob, tol_feas=tol).feasible


def support_function(p: HPolytope, v: np.ndarray) -> float:
    """max v . x over p, by LP."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != p.dim:
        raise DimensionMismatch("direction dim vs polytope dim")
    sol = lp.solve_lp(lp.LpProblem(objective=-v, a_in=p.a, b_in=p.c, name="support"))
    if sol.status == lp.UNBOUNDED:
        raise UnboundedDirection("polytope unbounded along the query direction")
    if sol.status != lp.OPTIMAL:
        raise EmptyInner("support function of an empty set")
    return -sol.objective_value


def bounding_box(poly: HPolytope) -> tuple[np.ndarray, np.ndarray]:
    """Per-coordinate bounds via support functions."""
    lo = np.empty(poly.dim)
    hi = np.empty(poly.dim)
    for j in range(poly.dim):
        e = np.zeros(poly.dim)
        e[j] = 1.0
        hi[j] = support_function(poly, e)
        lo[j] = -support_function(poly, -e)
    return lo, hi


def rejection_samples(poly: HPolytope, n: int, rng: np.random.Generator,
                      max_draws: int = 200_000) -> np.ndarray:
    """Uniform points of the polytope, rejection-sampled in its bounding box."""
    lo, hi = bounding_box(poly)
    out = []
    for _ in range(max_draws):
        x = rng.uniform(lo, hi)
        if contains_point(poly, x, tol=0.0):
            out.append(x)
            if len(out) == n:
                break
    return np.asarray(out)


def enumerate_vertices(poly: HPolytope, tol: float = 1e-9) -> np.ndarray:
    """All vertices of a low-dimensional polytope by row-subset intersection."""
    assert poly.dim <= 3, "vertex enumeration is a low-dimensional oracle"
    verts = []
    for rows in combinations(range(poly.n_rows), poly.dim):
        a = poly.a[list(rows)]
        if abs(np.linalg.det(a)) < tol:
            continue
        x = np.linalg.solve(a, poly.c[list(rows)])
        if contains_point(poly, x, tol=1e-8):
            verts.append(x)
    return np.asarray(verts) if verts else np.empty((0, poly.dim))


def random_box_polytope(rng: np.random.Generator, dim: int,
                        rows_extra: int = 3) -> HPolytope:
    """A bounded random polytope: a box plus a few random cutting rows."""
    lo = rng.uniform(-3, 0, dim)
    hi = lo + rng.uniform(0.5, 3, dim)
    center = 0.5 * (lo + hi)
    a = [np.eye(dim), -np.eye(dim)]
    c = [hi, -lo]
    for _ in range(rows_extra):
        v = rng.normal(size=dim)
        v /= np.linalg.norm(v)
        # keep the center feasible so the result stays nonempty
        a.append(v.reshape(1, -1))
        c.append(np.array([v @ center + rng.uniform(0.3, 1.5)]))
    return HPolytope(np.vstack(a), np.concatenate(c))


def random_small_fleet(rng: np.random.Generator, n: int = 3, m: int = 4) -> Fleet:
    tasks = []
    for i in range(n):
        a = int(rng.integers(1, m))
        d = int(rng.integers(a + 1, m + 1))
        p = float(rng.uniform(0.5, 3.0))
        cap = (d - a + 1) * p
        e_high = float(rng.uniform(0.2, 0.95)) * cap
        e_low = float(rng.uniform(0.3, 1.0)) * e_high
        tasks.append(ChargingTask(f"t{i}", a=a, d=d, p=p, e_low=e_low, e_high=e_high))
    return Fleet(m=m, tasks=tuple(tasks))


def random_admissible_schedule(fleet: Fleet, rng: np.random.Generator) -> np.ndarray:
    """One admissible N x m schedule, drawn row by row."""
    sched = np.zeros((fleet.n, fleet.m))
    for i, task in enumerate(fleet.tasks):
        w = task.window_length
        target = rng.uniform(task.e_low, task.e_high) / fleet.delta
        # water-fill a random direction until the target sum is met
        weights = rng.uniform(0.05, 1.0, w)
        row = np.zeros(w)
        rem = target
        for k in np.argsort(-weights):
            add = min(task.p, rem)
            row[k] = add
            rem -= add
            if rem <= 1e-12:
                break
        sched[i, task.a - 1:task.d] = row
    return sched


def fleet_order_schedule(fleet: Fleet, task_ids, schedule: np.ndarray) -> np.ndarray:
    """Reorder dispatch output rows into the fleet's task order."""
    order = {t.id: k for k, t in enumerate(fleet.tasks)}
    out = np.zeros((fleet.n, schedule.shape[1]))
    for tid, row in zip(task_ids, schedule):
        out[order[tid]] = row
    return out


def arbitrage_lp(battery: VirtualBattery, prices: PriceSeries,
                 delta: float = 1.0) -> ArbitrageResult:
    """Reference for `arbitrage`: minimize price . z over the battery by LP."""
    ones = np.full((1, battery.m), delta)
    problem = lp.LpProblem(
        objective=prices.prices * delta,
        a_in=np.vstack([ones, -ones]),
        b_in=np.array([battery.e_high, -battery.e_low]),
        lower=battery.p_low, upper=battery.p_high,
        name="arbitrage",
    )
    sol = lp.solve_lp(problem)
    if sol.status != lp.OPTIMAL:
        raise EmptyBattery(f"arbitrage LP terminated {sol.status}")
    return ArbitrageResult(z=sol.x, cost=float(prices.prices @ sol.x * delta))


def reconstruct_reference(elim, z: np.ndarray, utilde_vals: np.ndarray) -> list[np.ndarray]:
    """Reference for `EliminationMap.reconstruct`: one scalar per (unit, slot)."""
    out = []
    for i, active in enumerate(elim.unit_active):
        row = np.empty(len(active))
        for k, t in enumerate(active):
            tk = elim.coord_index[t]
            if elim.j_t[tk] == i:
                val = z[tk]
                for other in elim.n_t[tk]:
                    if other != i:
                        val -= utilde_vals[elim.utilde_index[(other, t)]]
                row[k] = val
            else:
                row[k] = utilde_vals[elim.utilde_index[(i, t)]]
        out.append(row)
    return out


def _embed(values: np.ndarray, coords, m: int) -> np.ndarray:
    out = np.zeros(m)
    for k, t in enumerate(coords):
        out[t - 1] = values[k]
    return out


def leaf_ids(node):
    """Task ids of the leaves below `node`, depth first."""
    if isinstance(node, Leaf):
        yield node.task_id
    else:
        for child in node.children:
            yield from leaf_ids(child)


def dispatch_reference(tree: AggregationTree, u: np.ndarray,
                       tol: float = 1e-6) -> DispatchResult:
    """Reference for `dispatch`: the tree walked node by node, unit by unit."""
    u = np.asarray(u, dtype=float).ravel()
    if u.size != tree.m:
        raise NotInBattery(f"profile length {u.size} vs horizon {tree.m}")
    if not tree.battery.contains(u, delta=tree.delta, tol=tol):
        raise NotInBattery("profile is not inside the root battery")
    rows: dict[str, np.ndarray] = {}
    profiles: dict[str, np.ndarray] = {}
    clamp_log: list[tuple[str, int, float]] = []

    def clamp(label, active, values, lo, hi):
        out = np.clip(values, lo, hi)
        moved = np.abs(out - values)
        for k in np.where(moved > 0)[0]:
            if moved[k] > tol:
                raise DispatchInfeasible(
                    f"{label}: slot {active[k]} violates bounds by {moved[k]:.3e}")
            clamp_log.append((label, int(active[k]), float(moved[k])))
        return out

    def walk(node, z):
        profiles[node.label] = _embed(z, node.coords, tree.m)
        if isinstance(node, CohortNode):
            lam, mu = node.lam, node.mu
            for child in node.children:
                walk(child, (child.lam / lam) * (z - mu) + child.mu)
            return
        utilde = node.app.rule_apply(z)
        parts = reconstruct_reference(node.elim, z, utilde)
        for child, unit, part in zip(node.children, node.units, parts):
            part = clamp(unit.origin, unit.active, part, unit.lo, unit.hi)
            if isinstance(child, Leaf):
                rows[child.task_id] = _embed(part, unit.active, tree.m)
            else:
                z_child = _embed(part, unit.active, tree.m)[np.asarray(child.coords) - 1]
                walk(child, z_child)

    root = tree.root
    if isinstance(root, Leaf):
        raise ValidationError("tree has no aggregation node")
    z_root = u[np.asarray(root.coords) - 1]
    off = np.ones(tree.m, dtype=bool)
    off[np.asarray(root.coords) - 1] = False
    if np.any(np.abs(u[off]) > tol):
        raise NotInBattery("profile draws power outside the aggregated span")
    walk(root, z_root)
    ids = tuple(leaf_ids(tree.root))
    schedule = np.vstack([rows[tid] for tid in ids])
    return DispatchResult(task_ids=ids, schedule=schedule,
                          group_profiles=profiles, clamped=tuple(clamp_log))


def bounds_report(battery: VirtualBattery) -> np.ndarray:
    """Rows (t, p_low, p_high), one per slot, ready for CSV/plotting."""
    slots = np.arange(1, battery.m + 1, dtype=float)
    return np.column_stack([slots, battery.p_low, battery.p_high])


def build_app_reference(lifted: LiftedPolytope, nominal: HPolytope) -> lp.LpProblem:
    """Reference for `build_app`: the APP LP assembled from kron/hstack
    blocks, with the former column bound s <= S_MAX."""
    f = sp.csr_matrix(nominal.a)
    h = nominal.c
    b11 = lifted.u_block
    b12 = sp.csr_matrix(lifted.tail_block)
    n, m, mt, k = lifted.n_rows, lifted.m, lifted.m_tilde, f.shape[0]
    n_g = n * k
    nv = 1 + n_g + m + mt * m + mt
    eye_n = sp.eye(n, format="csr")
    blocks = [sp.csr_matrix((n * m, 1)), sp.kron(eye_n, f.T, format="csr"),
              sp.csr_matrix((n * m, m))]
    if mt:
        blocks.append(-sp.kron(b12, sp.eye(m), format="csr"))
        blocks.append(sp.csr_matrix((n * m, mt)))
    a_eq = sp.hstack(blocks, format="csr")
    b_eq = b11.ravel()

    s_col = sp.csr_matrix(-lifted.c.reshape(-1, 1))
    g_in = sp.kron(eye_n, sp.csr_matrix(h.reshape(1, -1)), format="csr")
    blocks = [s_col, g_in, sp.csr_matrix(-b11)]
    if mt:
        blocks.append(sp.csr_matrix((n, mt * m)))
        blocks.append(b12)
    a_in = sp.hstack(blocks, format="csr")

    lower = np.full(nv, -np.inf)
    upper = np.full(nv, np.inf)
    lower[0] = 0.0
    upper[0] = S_MAX
    lower[1:1 + n_g] = 0.0
    objective = np.zeros(nv)
    objective[0] = 1.0
    return lp.LpProblem(objective=objective, a_in=as_rows(a_in), b_in=np.zeros(n),
                        a_eq=as_rows(a_eq), b_eq=b_eq, lower=lower, upper=upper,
                        name="app")


def primal_violations(problem: lp.LpProblem, x: np.ndarray) -> float:
    """Largest constraint/bound violation of x (0 means feasible)."""
    worst = 0.0
    if problem.a_in is not None:
        worst = max(worst, float(np.max(as_scipy(problem.a_in) @ x - problem.b_in,
                                        initial=0.0)))
    if problem.a_eq is not None:
        worst = max(worst, float(np.max(np.abs(as_scipy(problem.a_eq) @ x - problem.b_eq),
                                        initial=0.0)))
    worst = max(worst, float(np.max(problem.lower - x, initial=0.0)))
    worst = max(worst, float(np.max(x - problem.upper, initial=0.0)))
    return worst


def dual_objective_value(problem: lp.LpProblem, sol: lp.LpSolution) -> float:
    """Dual objective implied by the solver's marginals.

    Strong duality makes this equal the primal optimum on solved instances.
    Products with infinite, non-binding bounds are treated as zero.
    """
    if sol.status != lp.OPTIMAL:
        raise ValueError("dual objective only defined for optimal solutions")
    total = 0.0
    if sol.ineq_duals is not None and problem.b_in is not None:
        total += float(sol.ineq_duals @ problem.b_in)
    if sol.eq_duals is not None and problem.b_eq is not None:
        total += float(sol.eq_duals @ problem.b_eq)
    for duals, bound in ((sol.lower_duals, problem.lower), (sol.upper_duals, problem.upper)):
        if duals is None:
            continue
        active = np.abs(duals) > 0
        total += float(duals[active] @ np.where(np.isfinite(bound[active]), bound[active], 0.0))
    return total


def canonical_rows(problem: lp.LpProblem):
    """Fold the problem into one row system R x <= h.

    Equalities become +/- pairs, finite bounds become identity rows; this is
    the form Farkas certificates are stated against.
    """
    n = problem.n_vars
    blocks, rhs = [], []
    if problem.a_in is not None:
        blocks.append(sp.csr_matrix(as_scipy(problem.a_in)))
        rhs.append(problem.b_in)
    if problem.a_eq is not None:
        ae = sp.csr_matrix(as_scipy(problem.a_eq))
        blocks.extend([ae, -ae])
        rhs.extend([problem.b_eq, -problem.b_eq])
    eye = sp.eye(n, format="csr")
    up = np.isfinite(problem.upper)
    if up.any():
        blocks.append(eye[up])
        rhs.append(problem.upper[up])
    lo = np.isfinite(problem.lower)
    if lo.any():
        blocks.append(-eye[lo])
        rhs.append(-problem.lower[lo])
    if not blocks:
        raise MalformedProblem("unconstrained system has no row form")
    return sp.vstack(blocks, format="csr"), np.concatenate(rhs)


def farkas_certificate(
        problem: lp.LpProblem) -> tuple[np.ndarray, sp.csr_matrix, np.ndarray] | None:
    """Certificate of infeasibility: y >= 0 with y @ R = 0 and y @ h < 0.

    Returns (y, R, h) over the canonical row form, or None when the system
    is feasible (no certificate exists).
    """
    rows, h = canonical_rows(problem)
    k = rows.shape[0]
    cert = lp.LpProblem(
        objective=np.zeros(k),
        a_in=as_rows(h.reshape(1, -1)), b_in=np.array([-1.0]),
        a_eq=as_rows(rows.T.tocsr()), b_eq=np.zeros(rows.shape[1]),
        lower=np.zeros(k),
        name=problem.name + ".farkas",
    )
    found = lp.check_feasible(cert)
    if not found.feasible:
        return None
    return found.x, rows, h
