"""Shared test utilities: independent oracles and small generators.

The general H-polytope form lives here: the library works on batteries
only, and the tests compare it against these reference implementations.
"""

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Hashable, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from flexbat import lp
from flexbat.aggregation import (AggregationTree, CohortNode, DispatchResult,
                                 Leaf, _mean_nominal)
from flexbat.cli import ArbitrageResult, PriceSeries
from flexbat.errors import (DimensionMismatch, DispatchInfeasible, EmptyBattery,
                            EmptyOrDegenerate, FlexError, MalformedProblem,
                            NotInBattery, TooLarge, ValidationError)
from flexbat.fleet import ChargingTask, Fleet
from flexbat.geometry import Homothet, VirtualBattery
from flexbat.oracle import ENUM_BUDGET, AdequacyVerdict
from flexbat.projection import (APP_TOL, CERTIFICATE_TOL, S_MAX, AppSolution, FlexUnit,
                                LiftedPolytope, _checked_s, build_app, check_app)

_ZERO_COEF = 1e-12


class EmptyInner(FlexError):
    """Containment test called with an empty inner polytope."""


class UnboundedDirection(FlexError):
    """Support function queried along a direction with no finite maximum."""


class MixedBases(FlexError):
    """Homothets of different base polytopes cannot be summed directly."""


class InfeasibleTask(FlexError):
    """A charging task cannot reach its energy requirement in its window."""


@dataclass(frozen=True)
class HPolytope:
    """Solution set of finitely many inequalities A x <= c.

    Coordinates may carry global slot labels through `coords` so a polytope
    over a load's availability window remembers which hours it talks about.
    """

    a: np.ndarray
    c: np.ndarray
    coords: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        a = np.atleast_2d(np.asarray(self.a, dtype=float))
        c = np.asarray(self.c, dtype=float).ravel()
        if a.shape[0] != c.size:
            raise DimensionMismatch(f"{a.shape[0]} rows vs {c.size} right-hand sides")
        if not (np.isfinite(a).all() and np.isfinite(c).all()):
            raise ValueError("polytope data must be finite")
        a.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "c", c)
        if self.coords is not None and len(self.coords) != a.shape[1]:
            raise DimensionMismatch("coordinate labels disagree with ambient dimension")

    @property
    def dim(self) -> int:
        return self.a.shape[1]

    @property
    def n_rows(self) -> int:
        return self.a.shape[0]


def battery_to_hpolytope(b: VirtualBattery, delta: float = 1.0,
                         coords: Optional[tuple[int, ...]] = None) -> HPolytope:
    """Facet form [I; -I; delta*1; -delta*1] x <= (p_high, -p_low, e_high, -e_low)."""
    m = b.m
    eye = np.eye(m)
    ones = np.full((1, m), delta)
    a = np.vstack([eye, -eye, ones, -ones])
    c = np.concatenate([b.p_high, -b.p_low, [b.e_high], [-b.e_low]])
    return HPolytope(a, c, coords=coords)


def admissible_polytope(task: ChargingTask, m: int, delta: float = 1.0) -> HPolytope:
    """Facet form of the task's admissible profiles, over its window only.

    Coordinates are labelled with the global slots a..d; slots outside the
    window are implicitly zero (tracked by the coordinate labels).
    """
    if task.d > m:
        raise ValidationError(f"task {task.id}: departure {task.d} past horizon {m}")
    if task.e_low > task.capacity(delta) + 1e-9:
        raise InfeasibleTask(
            f"task {task.id}: e_low={task.e_low} exceeds window capacity "
            f"{task.capacity(delta)}")
    w = task.window_length
    eye = np.eye(w)
    ones = np.full((1, w), delta)
    a = np.vstack([eye, -eye, ones, -ones])
    c = np.concatenate([
        np.full(w, task.p), np.zeros(w), [task.e_high], [-task.e_low]])
    return HPolytope(a, c, coords=tuple(task.window))


def is_deferrable(task: ChargingTask) -> bool:
    """Whether demand can be met with slack: e_high < (d - a) * p."""
    return task.e_high < (task.d - task.a) * task.p


def contains_point(p: HPolytope, x: np.ndarray, tol: float = lp.TOL_FEAS) -> bool:
    x = np.asarray(x, dtype=float).ravel()
    if x.size != p.dim:
        raise DimensionMismatch(f"point dim {x.size} vs polytope dim {p.dim}")
    return bool(np.all(p.a @ x <= p.c + tol))


def max_violation(lifted: LiftedPolytope, z: np.ndarray, utilde_vals: np.ndarray) -> float:
    """Largest excess of B [z; u_tilde] over c (0 inside the lifted system)."""
    point = np.concatenate([z, utilde_vals])
    return float(np.max(lifted.b @ point - lifted.c, initial=0.0))


def homothet_apply(h: Homothet, b: HPolytope) -> HPolytope:
    """Image {A x <= lam*c + A mu}: x in result iff (x - mu)/lam in b."""
    if h.mu.size != b.dim:
        raise DimensionMismatch("translate length vs polytope dimension")
    return HPolytope(b.a, h.lam * b.c + b.a @ h.mu, coords=b.coords)


def homothet_inverse(h: Homothet) -> Homothet:
    return Homothet(1.0 / h.lam, -h.mu / h.lam)


def lemma1_sum(homothets: Sequence[Homothet],
               base_keys: Optional[Sequence[Hashable]] = None) -> Homothet:
    """Minkowski sum of homothets of one shared base: (sum lam_k, sum mu_k).

    Valid only when every input scales the same base polytope; pass
    `base_keys` to have that checked.
    """
    hs = list(homothets)
    if not hs:
        raise ValueError("need at least one homothet")
    if base_keys is not None:
        keys = set(base_keys)
        if len(keys) > 1:
            raise MixedBases(f"distinct bases {sorted(map(str, keys))}; "
                             "aggregate through the pipeline instead")
    lam = sum(h.lam for h in hs)
    mu = np.sum([h.mu for h in hs], axis=0)
    return Homothet(lam, mu)


def fm_eliminate_one(p: HPolytope, coord_index: int) -> HPolytope:
    """Exact projection dropping one coordinate (classical elimination).

    Pairs each positive-coefficient row with each negative one; redundant
    output rows are left in place.
    """
    if p.dim < 2:
        raise DimensionMismatch("need at least two coordinates to eliminate one")
    if not 0 <= coord_index < p.dim:
        raise DimensionMismatch(f"coordinate {coord_index} out of range")
    col = p.a[:, coord_index]
    rest = np.delete(p.a, coord_index, axis=1)
    pos = np.where(col > _ZERO_COEF)[0]
    neg = np.where(col < -_ZERO_COEF)[0]
    zero = np.where(np.abs(col) <= _ZERO_COEF)[0]
    rows = [rest[zero]]
    rhs = [p.c[zero]]
    for i in pos:
        for j in neg:
            rows.append((-col[j]) * rest[i:i + 1] + col[i] * rest[j:j + 1])
            rhs.append(np.array([(-col[j]) * p.c[i] + col[i] * p.c[j]]))
    coords = None
    if p.coords is not None:
        coords = tuple(v for k, v in enumerate(p.coords) if k != coord_index)
    return HPolytope(np.vstack(rows), np.concatenate(rhs), coords=coords)


def adequacy_bruteforce(fleet: Fleet, u: np.ndarray, budget: int = ENUM_BUDGET,
                        tol: float = 1e-9) -> AdequacyVerdict:
    """Literal enumeration of every (alpha, beta) pair; the test-of-the-test.

    Returns the first violating pair in lexicographic (alpha-major,
    ascending bitmask) order.
    """
    u = np.asarray(u, dtype=float).ravel()
    if fleet.n + fleet.m > budget:
        raise TooLarge(f"N+m = {fleet.n + fleet.m} exceeds enumeration budget {budget}")
    delta = fleet.delta
    e_high = [t.e_high for t in fleet.tasks]
    e_low = [t.e_low for t in fleet.tasks]
    windows = [set(t.window) for t in fleet.tasks]
    p = [t.p for t in fleet.tasks]
    slots = list(range(1, fleet.m + 1))
    for a_bits in range(1 << fleet.n):
        alpha = [i for i in range(fleet.n) if a_bits >> i & 1]
        alpha_c = [i for i in range(fleet.n) if not a_bits >> i & 1]
        for b_bits in range(1 << fleet.m):
            beta = [t for t in slots if b_bits >> (t - 1) & 1]
            beta_set = set(beta)
            term_a = sum(e_high[i] for i in alpha) - delta * sum(u[t - 1] for t in beta)
            term_b = (delta * sum(u[t - 1] for t in slots if t not in beta_set)
                      - sum(e_low[i] for i in alpha_c))
            rhs = -sum(delta * len(beta_set & windows[i]) * p[i] for i in alpha_c)
            if min(term_a, term_b) < rhs - tol:
                return AdequacyVerdict(False, violated=(tuple(alpha), tuple(beta)))
    return AdequacyVerdict(True)


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
    """max v . x over p, by LP at tolerances of 1e-9: at HiGHS's defaults a
    direction with a 1e-9 entry can come back 1e-9 short."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != p.dim:
        raise DimensionMismatch("direction dim vs polytope dim")
    sol = lp.solve_lp(lp.LpProblem(objective=-v, a_in=p.a, b_in=p.c, name="support"),
                      tol_feas=1e-9, tol_opt=1e-9)
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


def n_units(elim) -> int:
    """Number of units an `EliminationMap` was built over."""
    return len(elim.unit_active)


def nominal_for_group(group: Sequence[ChargingTask], delta: float = 1.0) -> VirtualBattery:
    """Group-average battery over the group's span (min arrival..max departure).

    Upper bounds are the column averages of the max-rate charging matrix;
    lower bounds are zero; the energy interval is the group mean, clipped
    into what the power bounds can reach.
    """
    if not group:
        raise ValidationError("empty group has no nominal battery")
    units = [FlexUnit.from_task(t, delta) for t in group]
    a0 = min(t.a for t in group)
    d0 = max(t.d for t in group)
    return _mean_nominal(units, range(a0, d0 + 1), delta)


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


def build_app_dense(lifted: LiftedPolytope, battery: VirtualBattery) -> lp.LpProblem:
    """Reference for `build_app`: the APP LP with g- substituted out,
    written entry by entry into a dense matrix. Variables (s, G+, r, W, V),
    row i of G+ being (g+, e+, e-); rows i < n are G H <= B [r; -V] + s c,
    row n + i m + j is g-[i, j] = g+[i, j] + delta (e+ - e-) - (B [I; W])[i, j] >= 0."""
    b11, b12, c = lifted.u_block, lifted.tail_block, lifted.c
    n, m, mt, delta = lifted.n_rows, lifted.m, lifted.m_tilde, lifted.delta
    p_low, p_high = battery.p_low, battery.p_high
    k = m + 2
    r0 = 1 + n * k
    w0 = r0 + m
    v0 = w0 + mt * m
    shift = delta * p_low.sum()
    a = np.zeros((n + n * m, v0 + mt))
    b = np.concatenate([-(b11 @ p_low), np.zeros(n * m)])
    for i in range(n):
        plus, e_plus, e_minus = 1 + i * k, 1 + i * k + m, 1 + i * k + m + 1
        a[i, 0] = -c[i]
        a[i, e_plus] = battery.e_high - shift
        a[i, e_minus] = shift - battery.e_low
        for j in range(m):
            a[i, plus + j] = p_high[j] - p_low[j]
            a[i, r0 + j] = -b11[i, j]
            row = n + i * m + j
            a[row, plus + j] = -1.0
            a[row, e_plus] = -delta
            a[row, e_minus] = delta
            b[row] = -b11[i, j]
            for q in range(mt):
                a[i, w0 + q * m + j] = b12[i, q] * p_low[j]
                a[row, w0 + q * m + j] = b12[i, q]
        for q in range(mt):
            a[i, v0 + q] = b12[i, q]
    lower = np.full(a.shape[1], -np.inf)
    lower[:r0] = 0.0
    objective = np.zeros(a.shape[1])
    objective[0] = 1.0
    return lp.LpProblem(objective=objective, a_in=a, b_in=b, lower=lower, name="app")


def solve_app_reference(lifted: LiftedPolytope,
                        battery: VirtualBattery) -> tuple[AppSolution, np.ndarray]:
    """The APP solved as the unsubstituted LP of `build_app_reference`, whose
    variables carry G whole: the oracle for `solve_app`'s s. Returns the
    solution and its G, negatives zeroed."""
    sol = lp.solve_lp(build_app_reference(lifted, battery_to_hpolytope(battery, lifted.delta)),
                      tol_feas=APP_TOL, tol_opt=APP_TOL, method=lp.IPM)
    s = _checked_s(sol, "app")
    n, m, mt = lifted.n_rows, lifted.m, lifted.m_tilde
    x = sol.x
    r0 = 1 + n * (2 * m + 2)
    v0 = r0 + m + mt * m
    return (AppSolution(s=s, r=x[r0:r0 + m], w=x[r0 + m:v0].reshape(mt, m), v=x[v0:]),
            np.maximum(x[1:r0].reshape(n, 2 * m + 2), 0.0))


def fold_app_reference(problem: lp.LpProblem, rows: np.ndarray, cols: np.ndarray,
                       reps: np.ndarray) -> lp.LpProblem:
    """Reference for `build_app`: the unfolded APP LP folded onto the orbits
    of `app_orbits` after it is built, keeping the kept rows, mapping the
    columns, summing duplicate entries and dropping exact zeros."""
    a = as_rows(as_scipy(problem.a_in))
    per_row = np.diff(a.indptr)
    held = np.repeat(rows, per_row)
    key, at = np.unique(np.repeat(np.cumsum(rows) - 1, per_row)[held] * reps.size
                        + cols[a.indices[held]], return_inverse=True)
    data = np.bincount(at, weights=a.data[held])
    row, col = np.divmod(key[data != 0], reps.size)
    a_in = lp.SparseRows((int(rows.sum()), reps.size), lp.row_starts(
        np.bincount(row, minlength=rows.sum())), col.astype(np.int32), data[data != 0])
    return lp.LpProblem(objective=problem.objective[reps], a_in=a_in, b_in=problem.b_in[rows],
                        lower=problem.lower[reps], upper=problem.upper[reps], name=problem.name)


def build_opp3(lifted: LiftedPolytope, battery: VirtualBattery) -> lp.LpProblem:
    """LP of the fixed-cross-section approximation: the unfolded APP LP
    (`build_app` without the elimination map, so every slot is its own
    class) with W = 0, that is without the W columns, variables (s, G+, r, V)."""
    app, _ = build_app(replace(lifted, elim=None), battery)
    m, mt = lifted.m, lifted.m_tilde
    w0 = 1 + lifted.n_rows * (m + 2) + m
    keep = np.r_[0:w0, w0 + mt * m:app.n_vars]
    return lp.LpProblem(
        objective=app.objective[keep],
        a_in=as_rows(as_scipy(app.a_in)[:, keep]), b_in=app.b_in,
        lower=app.lower[keep], upper=app.upper[keep], name="opp3")


def solve_opp3(lifted: LiftedPolytope, battery: VirtualBattery,
               tol: float = APP_TOL) -> AppSolution:
    """Solve the fixed-cross-section approximation as `solve_app` solves
    the APP LP: an AppSolution with W = 0, whose constant rule is V, proved
    by `check_app` and by the dense G rebuilt from G+."""
    problem = build_opp3(lifted, battery)
    sol = lp.solve_lp(problem, tol_feas=tol, tol_opt=tol, method=lp.IPM)
    s = _checked_s(sol, problem.name)
    n, m, mt = lifted.n_rows, lifted.m, lifted.m_tilde
    x = sol.x
    r0 = 1 + n * (m + 2)
    app = AppSolution(s=s, r=x[r0:r0 + m].copy(), w=np.zeros((mt, m)), v=x[r0 + m:].copy())
    slack, row = check_app(lifted, battery, app)
    residuals = certificate_residuals(certificate(lifted, x[1:r0].reshape(n, m + 2), app.w),
                                      app, lifted, battery)
    if not (slack >= -CERTIFICATE_TOL and all(v <= CERTIFICATE_TOL for v in residuals.values())):
        raise EmptyOrDegenerate(f"{problem.name}: fit check failed, slack {slack:g} "
                                f"at row {row}, residuals {residuals}")
    return app


def certificate(lifted: LiftedPolytope, half: np.ndarray, w: np.ndarray) -> np.ndarray:
    """The dense G = (g+, g-, e+, e-) of an APP LP solution, from `build_app`'s
    G+ = (g+, e+, e-) rows and g- = g+ + delta (e+ - e-) - (B [I; W])_i,
    negatives zeroed."""
    g, e = half[:, :lifted.m], half[:, lifted.m:]
    g_minus = g + lifted.delta * (e[:, :1] - e[:, 1:]) - lifted.u_block - lifted.tail_block @ w
    return np.maximum(np.hstack([g, g_minus, e]), 0.0)


def certificate_residuals(g: np.ndarray, sol: AppSolution, lifted: LiftedPolytope,
                          battery: VirtualBattery) -> dict[str, float]:
    """Largest violations of G >= 0, G F = B [I; W] and G H <= B [r; -V] + s c,
    F x <= H being the battery's facet form: the multiplier proof of the fit
    that `check_app` replaces, as dense products. A NaN gives NaN values."""
    nominal = battery_to_hpolytope(battery, lifted.delta)
    eq = g @ nominal.a - (lifted.u_block + lifted.tail_block @ sol.w)
    ineq = (g @ nominal.c
            - (lifted.u_block @ sol.r - lifted.tail_block @ sol.v)
            - sol.s * lifted.c)
    return {
        "g_negativity": float(np.max(-g, initial=0.0)),
        "equality": float(np.abs(eq).max(initial=0.0)),
        "inequality": float(np.max(ineq, initial=0.0)),
    }


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
