"""Dense/sparse linear-program solving used by every other module.

Problems are stated as

    minimize    objective . x
    subject to  a_in @ x <= b_in
                a_eq @ x == b_eq
                lower <= x <= upper   (entries may be -inf / +inf)

backed by the HiGHS solver through scipy. HiGHS is deterministic for
identical input bytes, which the demo pipeline relies on. Infeasibility
can be certified on demand by solving the Farkas alternative system
explicitly (`farkas_certificate`).
"""

from __future__ import annotations

import itertools
import os
import threading
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np
import scipy.sparse as sp
from scipy.optimize import linprog

from .errors import MalformedProblem, SolverFailure

Matrix = Union[np.ndarray, sp.spmatrix, sp.sparray]

#: default feasibility / optimality tolerances, overridable per call
TOL_FEAS = 1e-7
TOL_OPT = 1e-7

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

#: HiGHS methods accepted by `solve_lp`
SIMPLEX = "highs"
IPM = "highs-ipm"

_dump_dir: Optional[str] = None
_dump_counter = itertools.count()
_dump_lock = threading.Lock()


def set_dump_dir(path: Optional[str]) -> None:
    """Enable (or disable, with None) text dumps of every solved LP."""
    global _dump_dir
    _dump_dir = path
    if path is not None:
        os.makedirs(path, exist_ok=True)


def _as_2d(a: Optional[Matrix]) -> Optional[Matrix]:
    if a is None:
        return None
    if sp.issparse(a):
        return a.tocsr()
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        arr = np.atleast_2d(arr)
    return arr


def _finite(a: Matrix) -> bool:
    data = a.data if sp.issparse(a) else a
    return bool(np.isfinite(data).all())


@dataclass(frozen=True)
class LpProblem:
    """One linear program. Immutable after construction."""

    objective: np.ndarray
    a_in: Optional[Matrix] = None
    b_in: Optional[np.ndarray] = None
    a_eq: Optional[Matrix] = None
    b_eq: Optional[np.ndarray] = None
    lower: Optional[np.ndarray] = None   # default -inf
    upper: Optional[np.ndarray] = None   # default +inf
    name: str = "lp"

    def __post_init__(self):
        obj = np.asarray(self.objective, dtype=float).ravel()
        object.__setattr__(self, "objective", obj)
        n = obj.size
        if n == 0:
            raise MalformedProblem("problem has no variables")
        if not np.isfinite(obj).all():
            raise MalformedProblem("objective has non-finite entries")
        for mat_name, vec_name in (("a_in", "b_in"), ("a_eq", "b_eq")):
            mat = _as_2d(getattr(self, mat_name))
            vec = getattr(self, vec_name)
            if (mat is None) != (vec is None):
                raise MalformedProblem(f"{mat_name} and {vec_name} must come together")
            if mat is None:
                continue
            vec = np.asarray(vec, dtype=float).ravel()
            if mat.shape[1] != n:
                raise MalformedProblem(
                    f"{mat_name} has {mat.shape[1]} columns, objective has {n}")
            if mat.shape[0] != vec.size:
                raise MalformedProblem(
                    f"{mat_name} has {mat.shape[0]} rows, {vec_name} has {vec.size}")
            if not _finite(mat) or not np.isfinite(vec).all():
                raise MalformedProblem(f"{mat_name}/{vec_name} has non-finite entries")
            object.__setattr__(self, mat_name, mat)
            object.__setattr__(self, vec_name, vec)
        lo = np.full(n, -np.inf) if self.lower is None else np.asarray(self.lower, float).ravel()
        hi = np.full(n, np.inf) if self.upper is None else np.asarray(self.upper, float).ravel()
        if lo.size != n or hi.size != n:
            raise MalformedProblem("bound vectors disagree with variable count")
        if np.isnan(lo).any() or np.isnan(hi).any():
            raise MalformedProblem("bounds contain NaN")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    status: str
    x: Optional[np.ndarray]
    objective_value: float
    ineq_duals: Optional[np.ndarray] = None
    eq_duals: Optional[np.ndarray] = None
    lower_duals: Optional[np.ndarray] = None
    upper_duals: Optional[np.ndarray] = None


@dataclass(frozen=True)
class FeasibilityResult:
    feasible: bool
    x: Optional[np.ndarray] = None

    def __bool__(self) -> bool:
        return self.feasible


def _scipy_bounds(problem: LpProblem) -> np.ndarray:
    """(n, 2) bounds array; scipy reads -inf / +inf as no bound."""
    return np.column_stack([problem.lower, problem.upper])


def dump_text(name: str, suffix: str, render: Callable[[], str]) -> bool:
    """Write a debug artifact into the dump directory, if one is active.

    `render` produces the text; it is only called when dumping is on, so
    callers pay nothing for formatting otherwise.
    """
    if _dump_dir is None:
        return False
    with _dump_lock:
        idx = next(_dump_counter)
    with open(os.path.join(_dump_dir, f"{name}_{idx:05d}.{suffix}"), "w") as fh:
        fh.write(render())
    return True


def solve_lp(problem: LpProblem, tol_feas: float = TOL_FEAS,
             tol_opt: float = TOL_OPT, method: str = SIMPLEX) -> LpSolution:
    """Solve one LP to optimality, infeasibility, or unboundedness.

    `method` is SIMPLEX or IPM (interior point followed by crossover, so x
    is still a vertex). An interior-point solve that ends in anything but
    optimal is repeated with simplex, whose verdict is returned: HiGHS'
    IPM can report a solve error where simplex certifies infeasibility.
    """
    dump_text(problem.name, "lp", lambda: format_lp(problem))
    data = dict(
        A_ub=problem.a_in if problem.a_in is not None and problem.a_in.shape[0] else None,
        b_ub=problem.b_in if problem.b_in is not None and problem.b_in.size else None,
        A_eq=problem.a_eq if problem.a_eq is not None and problem.a_eq.shape[0] else None,
        b_eq=problem.b_eq if problem.b_eq is not None and problem.b_eq.size else None,
        bounds=_scipy_bounds(problem),
        options={
            "presolve": True,
            "primal_feasibility_tolerance": max(tol_feas * 1e-2, 1e-10),
            "dual_feasibility_tolerance": max(tol_opt * 1e-2, 1e-10),
        },
    )
    res = linprog(problem.objective, method=method, **data)
    if method != SIMPLEX and res.status != 0:
        res = linprog(problem.objective, method=SIMPLEX, **data)
    if res.status == 0:
        return LpSolution(
            status=OPTIMAL,
            x=np.asarray(res.x, dtype=float),
            objective_value=float(res.fun),
            ineq_duals=None if res.ineqlin is None else np.asarray(res.ineqlin.marginals),
            eq_duals=None if res.eqlin is None else np.asarray(res.eqlin.marginals),
            lower_duals=None if res.lower is None else np.asarray(res.lower.marginals),
            upper_duals=None if res.upper is None else np.asarray(res.upper.marginals),
        )
    if res.status == 2:
        return LpSolution(status=INFEASIBLE, x=None, objective_value=float("nan"))
    if res.status == 3:
        return LpSolution(status=UNBOUNDED, x=None, objective_value=float("nan"))
    raise SolverFailure(f"HiGHS gave up on '{problem.name}': {res.message}")


def check_feasible(problem: LpProblem, tol_feas: float = TOL_FEAS) -> FeasibilityResult:
    """Phase-one style test: does the constraint system admit a point?

    The objective is ignored; on success the witness point is returned.
    """
    zero = LpProblem(
        objective=np.zeros(problem.n_vars),
        a_in=problem.a_in, b_in=problem.b_in,
        a_eq=problem.a_eq, b_eq=problem.b_eq,
        lower=problem.lower, upper=problem.upper,
        name=problem.name + ".feas",
    )
    sol = solve_lp(zero, tol_feas=tol_feas)
    if sol.status == OPTIMAL:
        return FeasibilityResult(True, sol.x)
    if sol.status == INFEASIBLE:
        return FeasibilityResult(False, None)
    raise SolverFailure(f"feasibility probe returned {sol.status}")


def primal_violations(problem: LpProblem, x: np.ndarray) -> float:
    """Largest constraint/bound violation of x (0 means feasible)."""
    worst = 0.0
    if problem.a_in is not None:
        worst = max(worst, float(np.max(problem.a_in @ x - problem.b_in, initial=0.0)))
    if problem.a_eq is not None:
        worst = max(worst, float(np.max(np.abs(problem.a_eq @ x - problem.b_eq), initial=0.0)))
    worst = max(worst, float(np.max(problem.lower - x, initial=0.0)))
    worst = max(worst, float(np.max(x - problem.upper, initial=0.0)))
    return worst


def dual_objective_value(problem: LpProblem, sol: LpSolution) -> float:
    """Dual objective implied by the solver's marginals.

    Strong duality makes this equal the primal optimum on solved instances.
    Products with infinite, non-binding bounds are treated as zero.
    """
    if sol.status != OPTIMAL:
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


def canonical_rows(problem: LpProblem):
    """Fold the problem into one row system R x <= h.

    Equalities become +/- pairs, finite bounds become identity rows; this is
    the form Farkas certificates are stated against.
    """
    n = problem.n_vars
    blocks, rhs = [], []
    if problem.a_in is not None:
        blocks.append(sp.csr_matrix(problem.a_in))
        rhs.append(problem.b_in)
    if problem.a_eq is not None:
        ae = sp.csr_matrix(problem.a_eq)
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


def farkas_certificate(problem: LpProblem) -> Optional[tuple[np.ndarray, sp.csr_matrix, np.ndarray]]:
    """Certificate of infeasibility: y >= 0 with y @ R = 0 and y @ h < 0.

    Returns (y, R, h) over the canonical row form, or None when the system
    is feasible (no certificate exists).
    """
    rows, h = canonical_rows(problem)
    k = rows.shape[0]
    cert = LpProblem(
        objective=np.zeros(k),
        a_in=sp.csr_matrix(h.reshape(1, -1)), b_in=np.array([-1.0]),
        a_eq=rows.T.tocsr(), b_eq=np.zeros(rows.shape[1]),
        lower=np.zeros(k),
        name=problem.name + ".farkas",
    )
    found = check_feasible(cert)
    if not found.feasible:
        return None
    return found.x, rows, h


def format_lp(problem: LpProblem) -> str:
    """Plain-text LP dump, fixed-point with 12 significant digits."""
    def num(v: float) -> str:
        return f"{v:.12g}"

    def terms(coeffs, indices) -> str:
        parts = [f"{'+' if c >= 0 else '-'} {num(abs(c))} x{j}" for j, c in zip(indices, coeffs)]
        return " ".join(parts) if parts else "0"

    def row_terms(mat, i) -> str:
        if sp.issparse(mat):
            row = mat.getrow(i)
            return terms(row.data, row.indices)
        row = mat[i]
        nz = np.nonzero(row)[0]
        return terms(row[nz], nz)

    out = [f"\\ {problem.name}", "Minimize", " obj: " +
           terms(problem.objective[np.nonzero(problem.objective)[0]],
                 np.nonzero(problem.objective)[0])]
    out.append("Subject To")
    if problem.a_in is not None:
        for i in range(problem.a_in.shape[0]):
            out.append(f" c{i}: {row_terms(problem.a_in, i)} <= {num(problem.b_in[i])}")
    if problem.a_eq is not None:
        for i in range(problem.a_eq.shape[0]):
            out.append(f" e{i}: {row_terms(problem.a_eq, i)} = {num(problem.b_eq[i])}")
    out.append("Bounds")
    for j, (lo, hi) in enumerate(zip(problem.lower, problem.upper)):
        lo_s = "-inf" if lo == -np.inf else num(lo)
        hi_s = "+inf" if hi == np.inf else num(hi)
        out.append(f" {lo_s} <= x{j} <= {hi_s}")
    out.append("End")
    return "\n".join(out) + "\n"
