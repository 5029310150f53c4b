"""Ground-truth adequacy tests and schedule validation.

An aggregate profile u is adequate when it splits into per-task admissible
profiles. Two independent routes decide this: a feasibility LP over the
full charging system (any scale), and exhaustive/greedy evaluation of the
subset inequalities characterizing the aggregate set (tiny scale). The two
must agree wherever both run; that agreement is itself a test target.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import lp
from .errors import DimensionMismatch, TooLarge
from .fleet import Fleet

ENUM_BUDGET = 22  # max N + m for subset enumeration


@dataclass(frozen=True)
class AdequacyVerdict:
    adequate: bool
    witness: Optional[np.ndarray] = None          # N x m charging matrix
    violated: Optional[tuple[tuple[int, ...], tuple[int, ...]]] = None
    # violated = (task indices alpha, 1-based slots beta) failing the
    # subset inequality; only enumeration-based verdicts fill it in.

    def __bool__(self) -> bool:
        return self.adequate


def _charging_system(fleet: Fleet, u: np.ndarray):
    """Variables x[i,t] for t in each task's window, task-major; returns
    the task and slot of each column, and the problem."""
    slot_of = np.array([t for task in fleet.tasks for t in task.window], dtype=int)
    task_of = np.repeat(np.arange(fleet.n), [task.window_length for task in fleet.tasks])
    nv = slot_of.size
    # column sums pinned to u on covered slots
    covered, per_slot = np.unique(slot_of, return_counts=True)
    a_eq = lp.SparseRows((covered.size, nv), lp.row_starts(per_slot),
                         np.argsort(slot_of, kind="stable").astype(np.int32), np.ones(nv))
    # per-task energy interval: row 2i is delta times task i's columns, row
    # 2i + 1 its negation
    in_r = np.concatenate([2 * task_of, 2 * task_of + 1])
    order = np.argsort(in_r, kind="stable")
    a_in = lp.SparseRows((2 * fleet.n, nv),
                         lp.row_starts(np.bincount(in_r, minlength=2 * fleet.n)),
                         np.tile(np.arange(nv, dtype=np.int32), 2)[order],
                         np.repeat([fleet.delta, -fleet.delta], nv)[order])
    b_in = np.empty(2 * fleet.n)
    b_in[0::2] = [t.e_high for t in fleet.tasks]
    b_in[1::2] = [-t.e_low for t in fleet.tasks]
    upper = np.array([t.p for t in fleet.tasks])[task_of]
    problem = lp.LpProblem(objective=np.zeros(nv), a_in=a_in, b_in=b_in,
                           a_eq=a_eq, b_eq=u[covered - 1],
                           lower=np.zeros(nv), upper=upper, name="adequacy")
    return task_of, slot_of, problem


def adequacy_lp(fleet: Fleet, u: np.ndarray, tol: float = lp.TOL_FEAS) -> AdequacyVerdict:
    """Feasibility-LP adequacy test; adequate verdicts carry a witness."""
    u = np.asarray(u, dtype=float).ravel()
    if u.size != fleet.m:
        raise DimensionMismatch(f"profile length {u.size} vs horizon {fleet.m}")
    covered_mask = np.zeros(fleet.m, dtype=bool)
    for task in fleet.tasks:
        covered_mask[task.a - 1:task.d] = True
    if np.any(np.abs(u[~covered_mask]) > tol):
        return AdequacyVerdict(False)
    task_of, slot_of, problem = _charging_system(fleet, u)
    result = lp.check_feasible(problem, tol_feas=tol)
    if not result.feasible:
        return AdequacyVerdict(False)
    witness = np.zeros((fleet.n, fleet.m))
    witness[task_of, slot_of - 1] = result.x
    return AdequacyVerdict(True, witness=witness)


def _window_counts(fleet: Fleet, beta_masks: np.ndarray) -> np.ndarray:
    """|beta intersect window_i| for every mask row; result (n_masks, N)."""
    windows = np.zeros((fleet.n, fleet.m))
    for i, task in enumerate(fleet.tasks):
        windows[i, task.a - 1:task.d] = 1.0
    return beta_masks @ windows.T


def adequacy_thm1(fleet: Fleet, u: np.ndarray, budget: int = ENUM_BUDGET,
                  tol: float = 1e-9) -> AdequacyVerdict:
    """Subset-inequality adequacy test via per-task worst-case selection.

    For each slot subset beta, the binding task subset alpha separates per
    task, so only the 2^m slot subsets are enumerated. Returns the first
    failing beta (ascending bitmask) with its worst alpha.
    """
    u = np.asarray(u, dtype=float).ravel()
    if u.size != fleet.m:
        raise DimensionMismatch(f"profile length {u.size} vs horizon {fleet.m}")
    if fleet.n + fleet.m > budget:
        raise TooLarge(f"N+m = {fleet.n + fleet.m} exceeds enumeration budget {budget}")
    delta = fleet.delta
    e_high = np.array([t.e_high for t in fleet.tasks])
    e_low = np.array([t.e_low for t in fleet.tasks])
    p = np.array([t.p for t in fleet.tasks])
    u_total = delta * u.sum()
    n_masks = 1 << fleet.m
    block = min(n_masks, 1 << 16)   # bound the mask matrix, not the horizon
    for start in range(0, n_masks, block):
        idx = np.arange(start, min(start + block, n_masks))
        bits = ((idx[:, None] >> np.arange(fleet.m)[None, :]) & 1).astype(float)
        cap = delta * _window_counts(fleet, bits) * p      # energy reachable in beta
        u_beta = delta * (bits @ u)
        ok1 = np.minimum(e_high, cap).sum(axis=1) + tol >= u_beta
        ok2 = (u_total - u_beta) + tol >= np.maximum(0.0, e_low - cap).sum(axis=1)
        bad = ~(ok1 & ok2)
        if bad.any():
            k = int(np.argmax(bad))
            beta = tuple(t + 1 for t in range(fleet.m) if bits[k, t])
            if not ok1[k]:
                alpha = tuple(i for i in range(fleet.n) if e_high[i] <= cap[k, i])
            else:
                alpha = tuple(i for i in range(fleet.n) if e_low[i] <= cap[k, i])
            return AdequacyVerdict(False, violated=(alpha, beta))
    return AdequacyVerdict(True)


@dataclass(frozen=True)
class Violation:
    kind: str
    task_id: Optional[str]
    slot: Optional[int]
    magnitude: float


@dataclass(frozen=True)
class ScheduleReport:
    ok: bool
    violations: tuple[Violation, ...]
    max_column_error: float

    def __bool__(self) -> bool:
        return self.ok


def validate_schedule(fleet: Fleet, schedule: np.ndarray, u: np.ndarray,
                      tol: float = 1e-6) -> ScheduleReport:
    """Check an N x m schedule row-by-row and against the aggregate profile."""
    schedule = np.atleast_2d(np.asarray(schedule, dtype=float))
    u = np.asarray(u, dtype=float).ravel()
    if schedule.shape != (fleet.n, fleet.m):
        raise DimensionMismatch(
            f"schedule shape {schedule.shape} vs ({fleet.n}, {fleet.m})")
    if u.size != fleet.m:
        raise DimensionMismatch(f"profile length {u.size} vs horizon {fleet.m}")
    bad: list[Violation] = []
    for i, task in enumerate(fleet.tasks):
        row = schedule[i]
        for t in range(1, fleet.m + 1):
            v = row[t - 1]
            if task.a <= t <= task.d:
                if v < -tol:
                    bad.append(Violation("rate_low", task.id, t, -v))
                elif v > task.p + tol:
                    bad.append(Violation("rate_high", task.id, t, v - task.p))
            elif abs(v) > tol:
                bad.append(Violation("window", task.id, t, abs(v)))
        energy = fleet.delta * row.sum()
        if energy < task.e_low - tol:
            bad.append(Violation("energy_low", task.id, None, task.e_low - energy))
        elif energy > task.e_high + tol:
            bad.append(Violation("energy_high", task.id, None, energy - task.e_high))
    col_err = np.abs(schedule.sum(axis=0) - u)
    for t in np.where(col_err > tol)[0]:
        bad.append(Violation("column_sum", None, int(t) + 1, float(col_err[t])))
    return ScheduleReport(ok=not bad, violations=tuple(bad),
                          max_column_error=float(col_err.max(initial=0.0)))
