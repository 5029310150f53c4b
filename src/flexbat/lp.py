"""Dense/sparse linear-program solving used by every other module.

Problems are stated as

    minimize    objective . x
    subject to  a_in @ x <= b_in
                a_eq @ x == b_eq
                lower <= x <= upper   (entries may be -inf / +inf)

and solved by HiGHS through its own Python binding, the `_core` extension
that scipy ships in `scipy/optimize/_highspy/`. The binding is loaded from
that file directly: importing `scipy.optimize` would load scipy.special,
fft, linalg and spatial as well, most of a process's start-up time and a
quarter of its memory. Sparse matrices are `SparseRows`, plain
row-compressed arrays that HiGHS takes row-wise as they are, so scipy's
sparse package is never imported either. `linprog` hands HiGHS the model
and options that `scipy.optimize.linprog` would, so both return the same
bytes. HiGHS is deterministic for identical input bytes, which the demo
pipeline relies on.
"""

from __future__ import annotations

import itertools
import os
import sys
import threading
from dataclasses import dataclass
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec
from typing import Callable, Optional, Union

import numpy as np
import scipy

from .errors import MalformedProblem, SolverFailure


@dataclass(frozen=True)
class SparseRows:
    """Row-compressed matrix: row i holds `data[indptr[i]:indptr[i + 1]]` at
    the columns `indices[indptr[i]:indptr[i + 1]]`, which strictly increase.

    Indices are built as np.int32, HiGHS's own index type, so the binding
    converts nothing. `LpProblem` checks the arrays.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return self.data.size


Matrix = Union[np.ndarray, SparseRows]

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

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs(directory: str):
    """Load HiGHS's binding from its file in `directory`.

    No package `__init__` runs. The module is registered under its own name,
    so a later `import scipy.optimize` reuses it instead of loading it again.
    """
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(_HIGHS_MODULE)
    if spec is None:
        raise ImportError(f"HiGHS binding {_HIGHS_MODULE} not found in {directory} "
                          f"(scipy {scipy.__version__}; flexbat needs scipy>=1.17.1)")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[_HIGHS_MODULE] = module
    return module


_highs = sys.modules.get(_HIGHS_MODULE) or _load_highs(
    os.path.join(os.path.dirname(scipy.__file__), "optimize", "_highspy"))
_ERROR = _highs.HighsStatus.kError
#: HiGHS model status -> scipy's status code; any other status is 4
_STATUS = {_highs.HighsModelStatus.kOptimal: 0, _highs.HighsModelStatus.kModelError: 2,
           _highs.HighsModelStatus.kInfeasible: 2, _highs.HighsModelStatus.kUnbounded: 3}
#: an optimal x that misses a row or bound by more than this is status 4
#: (scipy.optimize.linprog's own check, at its default tol of 1e-9)
_CHECK_TOL = np.sqrt(1e-9) * 10


def set_dump_dir(path: Optional[str]) -> None:
    """Enable (or disable, with None) text dumps of every solved LP."""
    global _dump_dir
    _dump_dir = path
    if path is not None:
        os.makedirs(path, exist_ok=True)


def row_starts(counts: np.ndarray) -> np.ndarray:
    """`SparseRows.indptr` of rows holding `counts` entries each."""
    indptr = np.zeros(len(counts) + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return indptr


def _rows(a: Optional[Matrix]) -> SparseRows:
    """`a` as SparseRows: a dense matrix by its nonzeros, None as no rows."""
    if isinstance(a, SparseRows):
        return a
    if a is None:
        return SparseRows((0, 0), np.zeros(1, dtype=np.int32), np.zeros(0, dtype=np.int32),
                          np.zeros(0))
    row, col = np.nonzero(a)
    return SparseRows(a.shape, row_starts(np.bincount(row, minlength=a.shape[0])),
                      col.astype(np.int32), a[row, col])


def _checked_matrix(name: str, a) -> Matrix:
    """`a` as a 2-D float array, or a well-formed `SparseRows` as it is."""
    if not isinstance(a, SparseRows):
        try:
            return np.atleast_2d(np.asarray(a, dtype=float))
        except (TypeError, ValueError):
            raise MalformedProblem(f"{name} must be a dense array or lp.SparseRows, "
                                   f"not {type(a).__name__}") from None
    ptr, idx = a.indptr, a.indices
    if not (all(isinstance(v, np.ndarray) for v in (ptr, idx, a.data))
            and ptr.dtype.kind in "iu" and idx.dtype.kind in "iu" and a.data.dtype.kind in "iuf"):
        raise MalformedProblem(f"{name}: indptr, indices and data must be numeric arrays, "
                               "the first two of integers")
    nnz = a.nnz
    if ptr.shape != (a.shape[0] + 1,) or idx.shape != (nnz,) or a.data.ndim != 1:
        raise MalformedProblem(f"{name}: indptr must hold rows + 1 entries, "
                               f"indices and data nnz = {nnz} each")
    if (np.diff(ptr) < 0).any():
        raise MalformedProblem(f"{name}: indptr must not decrease")
    if ptr[0] != 0 or ptr[-1] != nnz:
        raise MalformedProblem(f"{name}: indptr must run from 0 to nnz = {nnz}")
    if nnz and (idx.min() < 0 or idx.max() >= a.shape[1]):
        raise MalformedProblem(f"{name}: column index outside [0, {a.shape[1]})")
    row_first = np.zeros(nnz, dtype=bool)
    row_first[ptr[:-1][ptr[:-1] < nnz]] = True
    if (np.diff(idx) <= 0)[~row_first[1:]].any():
        raise MalformedProblem(f"{name}: columns must strictly increase within a row")
    return a


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
            mat, vec = getattr(self, mat_name), getattr(self, vec_name)
            if (mat is None) != (vec is None):
                raise MalformedProblem(f"{mat_name} and {vec_name} must come together")
            if mat is None:
                continue
            mat = _checked_matrix(mat_name, mat)
            vec = np.asarray(vec, dtype=float).ravel()
            if mat.shape[1] != n:
                raise MalformedProblem(
                    f"{mat_name} has {mat.shape[1]} columns, objective has {n}")
            if mat.shape[0] != vec.size:
                raise MalformedProblem(
                    f"{mat_name} has {mat.shape[0]} rows, {vec_name} has {vec.size}")
            if not (np.isfinite(mat.data if isinstance(mat, SparseRows) else mat).all()
                    and np.isfinite(vec).all()):
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


@dataclass
class HighsResult:
    """One HiGHS solve in `scipy.optimize.linprog`'s terms: `status` 0
    optimal, 2 infeasible, 3 unbounded, 4 otherwise; `nit` counts simplex
    iterations, else interior-point ones. x, fun and the marginals are set
    only at status 0."""

    status: int
    message: str
    nit: int = 0
    crossover_nit: Optional[int] = None
    x: Optional[np.ndarray] = None
    fun: Optional[float] = None
    ineq_marginals: Optional[np.ndarray] = None
    eq_marginals: Optional[np.ndarray] = None
    lower_marginals: Optional[np.ndarray] = None
    upper_marginals: Optional[np.ndarray] = None


def linprog(c: np.ndarray, A_ub: Optional[Matrix] = None, b_ub: Optional[np.ndarray] = None,
            A_eq: Optional[Matrix] = None, b_eq: Optional[np.ndarray] = None, *,
            lower: np.ndarray, upper: np.ndarray, method: str = SIMPLEX,
            primal_tol: float, dual_tol: float) -> HighsResult:
    """Minimize c @ x s.t. A_ub @ x <= b_ub, A_eq @ x == b_eq, lower <= x <= upper.

    HiGHS gets one row-wise matrix, A_ub's rows over A_eq's, with presolve
    on and dual simplex; SIMPLEX lets HiGHS choose its solver, IPM runs
    interior point with crossover.
    """
    b_ub, b_eq = (np.zeros(0) if b is None else b for b in (b_ub, b_eq))
    n_ub, rhs = b_ub.size, np.concatenate([b_ub, b_eq])
    ub, eq = _rows(A_ub), _rows(A_eq)
    model, highs = _highs.HighsLp(), _highs._Highs()
    mat = model.a_matrix_
    model.num_col_ = mat.num_col_ = c.size
    model.num_row_ = mat.num_row_ = rhs.size
    mat.format_, mat.start_, mat.index_, mat.value_ = (
        _highs.MatrixFormat.kRowwise, np.concatenate([ub.indptr, eq.indptr[1:] + ub.nnz]),
        np.concatenate([ub.indices, eq.indices]), np.concatenate([ub.data, eq.data]))
    model.col_cost_, model.col_lower_, model.col_upper_ = c, lower, upper
    model.row_lower_, model.row_upper_ = np.concatenate([np.full(n_ub, -np.inf), b_eq]), rhs
    for key, value in (("output_flag", False), ("presolve", "on"), ("simplex_strategy", 1),
                       ("solver", "ipm" if method == IPM else "choose"),
                       ("primal_feasibility_tolerance", primal_tol),
                       ("dual_feasibility_tolerance", dual_tol)):
        highs.setOptionValue(key, value)
    loaded = highs.passModel(model) != _ERROR
    ran = loaded and highs.run() != _ERROR
    state = highs.getModelStatus() if loaded else _highs.HighsModelStatus.kModelError
    info, status = highs.getInfo(), _STATUS.get(state, 4)
    res = HighsResult(status if ran or status else 4,  # optimal only after a full run
                      f"HiGHS Status {int(state)}: {highs.modelStatusToString(state)}",
                      (info.simplex_iteration_count or info.ipm_iteration_count) if ran else 0,
                      info.crossover_iteration_count if ran else None)
    if res.status != 0:
        return res
    sol, fun = highs.getSolution(), info.objective_function_value
    x, slack = np.array(sol.col_value), rhs - np.array(sol.row_value)
    if (np.isnan(fun) or not ((x >= lower - _CHECK_TOL) & (x <= upper + _CHECK_TOL)).all()
            or not (slack[:n_ub] >= -_CHECK_TOL).all()
            or not (np.abs(slack[n_ub:]) <= _CHECK_TOL).all()):
        res.status, res.message = 4, f"optimal x misses the constraints by over {_CHECK_TOL:.2E}"
        return res
    col_dual, row_dual = np.array(sol.col_dual), np.array(sol.row_dual)
    basis = np.asarray(highs.getBasis().col_status, dtype=np.int8)
    res.x, res.fun, res.ineq_marginals, res.eq_marginals = x, fun, row_dual[:n_ub], row_dual[n_ub:]
    res.lower_marginals, res.upper_marginals = (np.where(basis == int(b), col_dual, 0.0) for b in (
        _highs.HighsBasisStatus.kLower, _highs.HighsBasisStatus.kUpper))
    return res


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
        lower=problem.lower, upper=problem.upper,
        primal_tol=max(tol_feas * 1e-2, 1e-10),
        dual_tol=max(tol_opt * 1e-2, 1e-10),
    )
    res = linprog(problem.objective, method=method, **data)
    if method != SIMPLEX and res.status != 0:
        res = linprog(problem.objective, method=SIMPLEX, **data)
    if res.status == 0:
        return LpSolution(OPTIMAL, res.x, float(res.fun), res.ineq_marginals,
                          res.eq_marginals, res.lower_marginals, res.upper_marginals)
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


def format_lp(problem: LpProblem) -> str:
    """Plain-text LP dump, fixed-point with 12 significant digits."""
    def num(v: float) -> str:
        return f"{v:.12g}"

    def terms(coeffs, indices) -> str:
        parts = [f"{'+' if c >= 0 else '-'} {num(abs(c))} x{j}" for j, c in zip(indices, coeffs)]
        return " ".join(parts) if parts else "0"

    def constraints(tag: str, mat: Optional[Matrix], rhs: np.ndarray, sense: str):
        rows = _rows(mat)
        for i, (lo, hi) in enumerate(zip(rows.indptr[:-1], rows.indptr[1:])):
            out.append(f" {tag}{i}: {terms(rows.data[lo:hi], rows.indices[lo:hi])} "
                       f"{sense} {num(rhs[i])}")

    out = [f"\\ {problem.name}", "Minimize", " obj: " +
           terms(problem.objective[np.nonzero(problem.objective)[0]],
                 np.nonzero(problem.objective)[0])]
    out.append("Subject To")
    constraints("c", problem.a_in, problem.b_in, "<=")
    constraints("e", problem.a_eq, problem.b_eq, "=")
    out.append("Bounds")
    for j, (lo, hi) in enumerate(zip(problem.lower, problem.upper)):
        lo_s = "-inf" if lo == -np.inf else num(lo)
        hi_s = "+inf" if hi == np.inf else num(hi)
        out.append(f" {lo_s} <= x{j} <= {hi_s}")
    out.append("End")
    return "\n".join(out) + "\n"
