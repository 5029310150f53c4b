"""Equality elimination and homothet-in-projection approximation.

A collection of flexibility units (tasks or batteries, each a box with a
total-energy budget over its active slots) induces a lifted polytope over
(u, u_tilde): the aggregate profile plus the non-eliminated per-unit
coordinates. The aggregate flexibility is the projection of that polytope
onto u. `solve_app` finds the largest scaled-and-translated copy of a
nominal battery that fits inside the projection, together with the affine
rule u_tilde = W u + V that reconstructs per-unit profiles. Its LP, solved
on the orbits of interchangeable slots (`app_orbits`), proves the fit with
multipliers G; `check_app` proves it again from (s, r, W, V) alone, on every
lifted row and in closed form, after every solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from . import lp
from .errors import DimensionMismatch, EmptyOrDegenerate, EmptyUnit
from .fleet import ChargingTask
from .geometry import Homothet, VirtualBattery, fields_equal

S_MAX = 1e9    # s at or above S_MAX / 10 is rejected as a scale-guard hit
S_MIN = 1e-7   # below this the homothet is reported degenerate, not huge
APP_TOL = 1e-9
# largest violation of h_B((B [I; W])_i) <= (B [r; -V])_i + s c_i accepted
# from a solved APP LP; solves on benchmark fleets stay below 1e-12
CERTIFICATE_TOL = 1e-6
_PAD_ZERO = np.zeros(1)   # the 0.0 that padded `gather_plan` indices point at


@dataclass(frozen=True)
class FlexUnit:
    """One aggregatable unit: per-slot power bounds plus an energy budget.

    Unifies leaf tasks and intermediate batteries so a single elimination
    routine serves every aggregation stage. `active` holds the global
    1-based slots the unit may draw power in; bounds align with it.
    """

    active: tuple[int, ...]
    lo: np.ndarray
    hi: np.ndarray
    e_low: float
    e_high: float
    origin: str
    delta: float = 1.0

    __eq__ = fields_equal

    def __post_init__(self):
        active = tuple(int(t) for t in self.active)
        if not active or list(active) != sorted(set(active)):
            raise ValueError(f"unit {self.origin}: active slots must be sorted and unique")
        lo = np.asarray(self.lo, dtype=float).ravel()
        hi = np.asarray(self.hi, dtype=float).ravel()
        if lo.size != len(active) or hi.size != len(active):
            raise DimensionMismatch(f"unit {self.origin}: bounds vs active slots")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()
                and np.isfinite([self.e_low, self.e_high]).all()):
            raise ValueError(f"unit {self.origin}: bounds and energies must be finite")
        tol = 1e-9
        if (np.any(lo > hi + tol) or self.e_low > self.e_high + tol
                or self.delta * lo.sum() > self.e_high + tol
                or self.e_low > self.delta * hi.sum() + tol):
            raise EmptyUnit(f"unit {self.origin} has an empty admissible set")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "active", active)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def from_task(cls, task: ChargingTask, delta: float = 1.0) -> "FlexUnit":
        w = task.window_length
        return cls(active=tuple(task.window), lo=np.zeros(w), hi=np.full(w, task.p),
                   e_low=task.e_low, e_high=task.e_high, origin=task.id, delta=delta)

    @classmethod
    def from_battery(cls, battery: VirtualBattery, coords: Sequence[int],
                     origin: str, delta: float = 1.0) -> "FlexUnit":
        """Battery over global slots `coords`; zero-pinned slots are dropped."""
        coords = tuple(int(t) for t in coords)
        if len(coords) != battery.m:
            raise DimensionMismatch("coords length vs battery horizon")
        keep = ~((np.abs(battery.p_low) <= 1e-12) & (np.abs(battery.p_high) <= 1e-12))
        if not keep.any():
            raise EmptyUnit(f"battery unit {origin} is identically zero")
        return cls(active=tuple(t for t, k in zip(coords, keep) if k),
                   lo=battery.p_low[keep], hi=battery.p_high[keep],
                   e_low=battery.e_low, e_high=battery.e_high,
                   origin=origin, delta=delta)

    @property
    def battery(self) -> VirtualBattery:
        return VirtualBattery(self.lo, self.hi, self.e_low, self.e_high)

    def bound_at(self, slot: int) -> tuple[float, float]:
        k = self.active.index(slot)
        return float(self.lo[k]), float(self.hi[k])


@dataclass(frozen=True)
class EliminationMap:
    """Bookkeeping of the substitution that removes the coupling equalities.

    For every coordinate slot the lowest-indexed active unit is eliminated
    (its power there becomes u_t minus the others'); each remaining (unit,
    slot) pair is one u_tilde coordinate, in unit-major slot-ascending order.
    """

    coords: tuple[int, ...]
    n_t: tuple[tuple[int, ...], ...]
    j_t: tuple[Optional[int], ...]
    s_i: tuple[tuple[int, ...], ...]
    utilde: tuple[tuple[int, int], ...]
    unit_active: tuple[tuple[int, ...], ...]

    @property
    def m(self) -> int:
        return len(self.coords)

    @property
    def m_tilde(self) -> int:
        return len(self.utilde)

    @cached_property
    def coord_index(self) -> dict[int, int]:
        return {t: k for k, t in enumerate(self.coords)}

    @cached_property
    def utilde_index(self) -> dict[tuple[int, int], int]:
        return {pair: q for q, pair in enumerate(self.utilde)}

    @cached_property
    def gather_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """Index form of `reconstruct` over x = [z; u_tilde; 0.0].

        Entries run unit-major, slot-ascending, one column each. Row 0 of
        `index` is the x index an entry starts from; row c >= 1 is the c-th
        u_tilde column each eliminated entry subtracts (the others in `n_t`
        order), padded with the index of the trailing 0.0, so subtracting
        row by row repeats the scalar sequence bit for bit. `splits` cut
        the entries per unit.
        """
        m, pad = self.m, self.m + self.m_tilde
        rows: list[list[int]] = []
        for i, active in enumerate(self.unit_active):
            for t in active:
                tk = self.coord_index[t]
                if self.j_t[tk] == i:
                    rows.append([tk] + [m + self.utilde_index[(other, t)]
                                        for other in self.n_t[tk] if other != i])
                else:
                    rows.append([m + self.utilde_index[(i, t)]])
        index = np.full((max(map(len, rows), default=1), len(rows)), pad, dtype=np.intp)
        for e, cols in enumerate(rows):
            index[:len(cols), e] = cols
        splits = np.cumsum([len(active) for active in self.unit_active])[:-1]
        return index, splits

    def reconstruct(self, z: np.ndarray, utilde_vals: np.ndarray) -> list[np.ndarray]:
        """Per-unit profiles over each unit's active slots from (u, u_tilde):
        one gather, then the rows subtracted in order, as dispatch does."""
        index, splits = self.gather_plan
        x = np.concatenate([z, utilde_vals, _PAD_ZERO])
        return np.split(np.subtract.reduce(x[index], axis=0), splits)

    def to_dict(self) -> dict:
        return {
            "coords": list(self.coords),
            "n_t": [list(v) for v in self.n_t],
            "j_t": list(self.j_t),
            "s_i": [list(v) for v in self.s_i],
            "utilde": [list(v) for v in self.utilde],
            "unit_active": [list(v) for v in self.unit_active],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EliminationMap":
        return cls(
            coords=tuple(d["coords"]),
            n_t=tuple(tuple(v) for v in d["n_t"]),
            j_t=tuple(None if v is None else int(v) for v in d["j_t"]),
            s_i=tuple(tuple(v) for v in d["s_i"]),
            utilde=tuple((int(a), int(b)) for a, b in d["utilde"]),
            unit_active=tuple(tuple(v) for v in d["unit_active"]),
        )


@dataclass(frozen=True)
class LiftedPolytope:
    """B [u; u_tilde] <= c over the aggregate and retained coordinates."""

    b: np.ndarray
    c: np.ndarray
    m: int
    m_tilde: int
    elim: Optional[EliminationMap] = None
    delta: float = 1.0

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.b, dtype=float))
        c = np.asarray(self.c, dtype=float).ravel()
        if b.shape != (c.size, self.m + self.m_tilde):
            raise DimensionMismatch(
                f"B shape {b.shape} vs {c.size} rows x {self.m + self.m_tilde} cols")
        b.setflags(write=False)
        c.setflags(write=False)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    @property
    def n_rows(self) -> int:
        return self.c.size

    @property
    def u_block(self) -> np.ndarray:
        return self.b[:, :self.m]

    @property
    def tail_block(self) -> np.ndarray:
        return self.b[:, self.m:]


def eliminate(units: Sequence[FlexUnit],
              coords: Optional[Sequence[int]] = None) -> LiftedPolytope:
    """Build the lifted inequality system for a unit collection.

    `coords` may widen the aggregate coordinate set beyond the units' union
    window (needed when several collections must share one nominal base);
    slots covered by no unit get the pinned rows u_t <= 0, -u_t <= 0.
    Rows come in the fixed order: eliminated-coordinate rate bounds per
    slot, retained-coordinate rate bounds, then two energy rows per unit.
    """
    units = list(units)
    if not units:
        raise EmptyUnit("cannot eliminate over zero units")
    union = sorted({t for un in units for t in un.active})
    if coords is None:
        coords = union
    else:
        coords = sorted(int(t) for t in coords)
        if set(union) - set(coords):
            raise DimensionMismatch("coords must cover every unit's active slots")
    m = len(coords)
    delta = units[0].delta
    n_t = []
    j_t: list[Optional[int]] = []
    for t in coords:
        idx = tuple(i for i, un in enumerate(units) if t in un.active)
        n_t.append(idx)
        j_t.append(idx[0] if idx else None)
    s_i = [tuple(t for t in un.active if j_t[coords.index(t)] == i)
           for i, un in enumerate(units)]
    utilde = [(i, t) for i, un in enumerate(units) for t in un.active
              if j_t[coords.index(t)] != i]
    elim = EliminationMap(
        coords=tuple(coords), n_t=tuple(n_t), j_t=tuple(j_t),
        s_i=tuple(s_i), utilde=tuple(utilde),
        unit_active=tuple(un.active for un in units))
    m_tilde = elim.m_tilde
    width = m + m_tilde
    rows: list[np.ndarray] = []
    rhs: list[float] = []

    def ucol(t: int) -> int:
        return elim.coord_index[t]

    def tcol(i: int, t: int) -> int:
        return m + elim.utilde_index[(i, t)]

    # rate rows for the eliminated coordinate of every slot
    for k, t in enumerate(coords):
        j = j_t[k]
        row = np.zeros(width)
        row[ucol(t)] = 1.0
        if j is None:
            lo_j, hi_j = 0.0, 0.0
        else:
            lo_j, hi_j = units[j].bound_at(t)
            for other in n_t[k]:
                if other != j:
                    row[tcol(other, t)] = -1.0
        rows.extend([row, -row])
        rhs.extend([hi_j, -lo_j])
    # rate rows for the retained coordinates
    for (i, t) in utilde:
        row = np.zeros(width)
        row[tcol(i, t)] = 1.0
        lo_i, hi_i = units[i].bound_at(t)
        rows.extend([row, -row])
        rhs.extend([hi_i, -lo_i])
    # two energy rows per unit
    for i, un in enumerate(units):
        row = np.zeros(width)
        for t in un.active:
            k = ucol(t)
            if j_t[k] == i:
                row[k] += delta
                for other in n_t[k]:
                    if other != i:
                        row[tcol(other, t)] -= delta
            else:
                row[tcol(i, t)] += delta
        rows.extend([row, -row])
        rhs.extend([un.e_high, -un.e_low])
    return LiftedPolytope(b=np.vstack(rows), c=np.asarray(rhs), m=m,
                          m_tilde=m_tilde, elim=elim, delta=delta)


def _nonzero(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and place within its row of each nonzero of `a`, row-major."""
    row, col = np.nonzero(a)
    return row, col, np.arange(row.size) - np.searchsorted(row, row)


def _csr(shape: tuple[int, int], blocks) -> lp.SparseRows:
    """Row-compressed matrix from blocks of (row, rank, col, value) entry arrays.

    Blocks come in ascending column order: in every row, one block's
    entries precede the next block's. `rank` is an entry's place among its
    block's entries in that row, by ascending column. The arrays of a block
    broadcast together. Blocks hold no zero values, so the arrays are those
    `csr_matrix` makes from the dense matrix.
    """
    blocks = [np.broadcast_arrays(*block) for block in blocks]
    counts = [np.bincount(row.ravel(), minlength=shape[0]) for row, _, _, _ in blocks]
    indptr = lp.row_starts(sum(counts))
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    start = indptr[:-1].astype(np.intp)
    for (row, rank, col, val), count in zip(blocks, counts):
        at = start[row] + rank
        indices[at] = col
        data[at] = val
        start += count
    return lp.SparseRows(shape, indptr, indices, data)


def build_app(lifted: LiftedPolytope, battery: VirtualBattery) -> lp.LpProblem:
    """LP of the homothet approximation against a nominal battery.

    Minimize s subject to G F = B [I; W], G H <= B [r; -V] + s c, G >= 0,
    s >= 0, F x <= H being the battery's facet form at the lifted system's
    slot length. Row i of G is (g+, g-, e+, e-) on the facets of F = [I; -I;
    delta 1'; -delta 1'], so G F = B [I; W] fixes g- = g+ + delta (e+ - e-)
    - (B [I; W])_i. The LP keeps (s, G+, r, W, V) with G+ = (g+, e+, e-)
    n x (m + 2) and W m_tilde x m, both row-major, and g- >= 0 as n m rows.
    s has no upper bound: `_checked_s` rejects a huge one after the solve.
    """
    if battery.m != lifted.m:
        raise DimensionMismatch(
            f"nominal dimension {battery.m} vs aggregate coordinates {lifted.m}")
    b11, b12 = lifted.u_block, lifted.tail_block
    n, m, mt, k = lifted.n_rows, lifted.m, lifted.m_tilde, lifted.m + 2
    delta, p_low = lifted.delta, battery.p_low
    g0 = 1                                   # first column of G+, r, W and V
    r0 = g0 + n * k
    w0 = r0 + m
    v0 = w0 + mt * m
    nv = v0 + mt
    rows = np.arange(n)[:, None]
    slots = np.arange(m)
    ti, tq, t_rank = _nonzero(b12)

    # row i, G H <= B [r; -V] + s c: -s c_i + g+ . (p_high - p_low)
    #   + e+ (e_high - delta sum p_low) - e- (e_low - delta sum p_low)
    #   + p_low . (B12 W)_i - (B11 r)_i + (B12 V)_i <= -(B11 p_low)_i
    # row n + i*m + j, g-[i, j] >= 0: -g+[i, j] - delta (e+ - e-)_i
    #   + (B12 W)[i, j] <= -B11[i, j]
    ci, = np.nonzero(lifted.c)
    shift = delta * p_low.sum()
    h = np.concatenate([battery.p_high - p_low,
                        [battery.e_high - shift, shift - battery.e_low]])
    hl, = np.nonzero(h)
    pj, = np.nonzero(p_low)
    ui, uj, u_rank = _nonzero(b11)
    cert = n + rows * m + slots
    a_in = _csr((n + n * m, nv), [
        (ci, 0, 0, -lifted.c[ci]),
        (rows, np.arange(hl.size), g0 + rows * k + hl, h[hl]),
        (cert[..., None], np.arange(3), g0 + rows[..., None] * k + np.column_stack(
            [slots, np.full(m, m), np.full(m, m + 1)]), np.array([-1.0, -delta, delta])),
        (ui, u_rank, r0 + uj, -b11[ui, uj]),
        (ti[:, None], t_rank[:, None] * pj.size + np.arange(pj.size),
         w0 + tq[:, None] * m + pj, b12[ti, tq][:, None] * p_low[pj]),
        (cert[ti], t_rank[:, None], w0 + tq[:, None] * m + slots, b12[ti, tq][:, None]),
        (ti, t_rank, v0 + tq, b12[ti, tq]),
    ])

    lower = np.full(nv, -np.inf)
    lower[:r0] = 0.0
    objective = np.zeros(nv)
    objective[0] = 1.0
    return lp.LpProblem(objective=objective, a_in=a_in,
                        b_in=np.concatenate([-(b11 @ p_low), -b11.ravel()]),
                        lower=lower, name="app")


def slot_classes(lifted: LiftedPolytope, battery: VirtualBattery) -> np.ndarray:
    """Class of each slot, numbered by first occurrence: the same active units,
    c on the slot's eliminated and retained (in unit order) rate rows and
    nominal bounds, so that swapping two slots of one class maps `build_app`'s
    LP onto itself. Without an elimination map each slot is its own class."""
    elim, c, m = lifted.elim, lifted.c, lifted.m
    if elim is None:
        return np.arange(m)
    keys: dict[tuple, int] = {}
    rate = [tuple(c[2 * m + 2 * q:2 * m + 2 * q + 2]) for q in range(lifted.m_tilde)]
    return np.array([keys.setdefault(
        (elim.n_t[k], tuple(c[2 * k:2 * k + 2]),
         tuple(rate[elim.utilde_index[(i, t)]] for i in elim.n_t[k][1:]),
         battery.p_low[k], battery.p_high[k]), len(keys))
        for k, t in enumerate(elim.coords)], dtype=np.intp)


def app_orbits(lifted: LiftedPolytope,
               battery: VirtualBattery) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orbits of `build_app`'s rows and columns under swaps of slots of one
    class: the mask of rows kept (the first of each orbit), the folded column
    of each column (-1 for a dropped row's certificate), and the first column
    of each folded column. An LP invariant under a permutation group has an
    optimum the group fixes (Boedi, Herr & Joswig, Math. Prog. 2013), so one
    variable per column orbit and one row per row orbit keep s. A rate row
    fixes its slot, whose class its stabiliser splits in two; a W entry's
    orbit is (unit, class, class, on the diagonal or not)."""
    n, m, mt, k = lifted.n_rows, lifted.m, lifted.m_tilde, lifted.m + 2
    cls = slot_classes(lifted, battery)
    slots, mate = np.arange(m), cls[:, None] == cls
    first = mate.argmax(1)                                 # first slot of the class
    second = (mate & (slots > first[:, None])).argmax(1)   # its next (0 if alone)
    fixed, q_slot, q_first = np.full(n, -1), np.full(mt, -1), np.arange(mt)
    if lifted.elim is not None:
        unit, t = np.array(lifted.elim.utilde, dtype=np.intp).reshape(mt, 2).T
        q_slot = np.searchsorted(lifted.elim.coords, t)
        pos = np.zeros((len(lifted.elim.unit_active), m), dtype=np.intp)
        pos[unit, q_slot] = q_first
        q_first = pos[unit, first[q_slot]]
        fixed[:2 * (m + mt)] = np.repeat(np.concatenate([slots, q_slot]), 2)

    def orbit_first(fix: np.ndarray) -> np.ndarray:
        """First slot of each slot's orbit under the swaps that fix `fix`."""
        mates = (cls == np.where(fix < 0, -1, cls[fix])[:, None]) & (slots != fix[:, None])
        return np.where(mates, second, first)

    kept = (fixed < 0) | (first[fixed] == fixed)
    g_first = orbit_first(fixed)
    rep = np.concatenate([
        [0], (1 + np.arange(n)[:, None] * k
              + np.column_stack([g_first, np.full((n, 2), [m, m + 1])])).ravel(),
        1 + n * k + first, (1 + n * k + m + q_first[:, None] * m + orbit_first(q_slot)).ravel(),
        1 + n * k + m + mt * m + q_first])
    alive = np.ones(rep.size, dtype=bool)
    alive[1:1 + n * k] = np.repeat(kept, k)
    reps = np.flatnonzero(alive & (rep == np.arange(rep.size)))
    cols = np.where(alive, np.searchsorted(reps, rep), -1)
    rows = np.concatenate([kept, (kept[:, None] & (g_first == slots)).ravel()])
    return rows, cols, reps


def fold_app(problem: lp.LpProblem, rows: np.ndarray, cols: np.ndarray,
             reps: np.ndarray) -> lp.LpProblem:
    """`build_app`'s LP over the orbits of `app_orbits`: the kept rows, the
    columns mapped, duplicate entries summed and exact zeros dropped."""
    a = problem.a_in
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


@dataclass(frozen=True)
class AppSolution:
    """Solved affine-rule approximation: homothet plus reconstruction rule."""

    s: float
    r: np.ndarray
    w: np.ndarray          # (m_tilde, m)
    v: np.ndarray          # (m_tilde,)

    __eq__ = fields_equal

    @property
    def lam(self) -> float:
        return 1.0 / self.s

    @property
    def mu(self) -> np.ndarray:
        return -self.r / self.s

    @property
    def homothet(self) -> Homothet:
        return Homothet(self.lam, self.mu)

    @cached_property
    def rule_offset(self) -> np.ndarray:
        """Translate of the reconstruction rule on battery coordinates."""
        return self.lam * (self.w @ self.r + self.v)

    def rule_apply(self, z: np.ndarray) -> np.ndarray:
        """Retained coordinates for an aggregate profile z of the homothet."""
        return self.w @ z + self.rule_offset

    def to_dict(self, group_ids: Optional[Sequence[str]] = None) -> dict:
        d = {
            "s": self.s,
            "r": [float(x) for x in self.r],
            "W": [[float(x) for x in row] for row in self.w],
            "V": [float(x) for x in self.v],
            "lam": self.lam,
            "mu": [float(x) for x in self.mu],
        }
        if group_ids is not None:
            d["group_ids"] = list(group_ids)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "AppSolution":
        """A stale "G" key is ignored. A non-finite number or an s <= 0 raises
        ValueError, which `read_json` reports as a parse error naming the file."""
        app = cls(s=float(d["s"]), r=np.asarray(d["r"], float),
                  w=np.asarray(d["W"], float).reshape(len(d["V"]), len(d["r"])),
                  v=np.asarray(d["V"], float))
        if not (app.s > 0 and all(np.isfinite(x).all() for x in (app.s, app.r, app.w, app.v))):
            raise ValueError("app s, r, W and V must be finite, and s positive")
        return app


def _checked_s(sol: lp.LpSolution, what: str) -> float:
    if sol.status != lp.OPTIMAL:
        raise EmptyOrDegenerate(f"{what}: LP terminated {sol.status}")
    s = float(sol.x[0])
    if s <= S_MIN:
        raise EmptyOrDegenerate(f"{what}: degenerate scale s = {s:g}")
    if s >= S_MAX * 0.1:
        raise EmptyOrDegenerate(f"{what}: scale guard hit, s = {s:g}")
    return s


def _format_lifted(lifted: LiftedPolytope) -> str:
    rows = [f"m={lifted.m} m_tilde={lifted.m_tilde} delta={lifted.delta}"]
    rows += [" ".join(f"{v:.12g}" for v in row) + f" <= {c:.12g}"
             for row, c in zip(lifted.b, lifted.c)]
    return "\n".join(rows) + "\n"


def check_app(lifted: LiftedPolytope, battery: VirtualBattery,
              app: AppSolution) -> tuple[float, int]:
    """Worst slack of the fit, and its row, from (s, r, W, V) alone. By LP
    duality the homothet fits exactly when h_B((B11 + B12 W)_i) <= (B11 r -
    B12 V)_i + s c_i on every lifted row i, h_B being the battery's support
    function; a NaN anywhere gives a NaN slack."""
    b11, b12 = lifted.u_block, lifted.tail_block
    slack = (b11 @ app.r - b12 @ app.v + app.s * lifted.c
             - battery.support(b11 + b12 @ app.w, lifted.delta))
    row = int(np.argmin(slack))
    return float(slack[row]), row


def solve_app(lifted: LiftedPolytope, battery: VirtualBattery,
              tol: float = APP_TOL) -> AppSolution:
    """Solve the affine-rule approximation against a nominal battery.

    Interior point with crossover is two to four times faster than simplex
    on these large, sparse LPs and still returns a vertex. The fit is
    proved by `check_app` instead of trusting the solver's status: a slack
    below -CERTIFICATE_TOL, or NaN, raises EmptyOrDegenerate, so the
    caller's fallback ladder takes over.
    """
    lp.dump_text("lifted", "txt", lambda: _format_lifted(lifted))
    rows, cols, reps = app_orbits(lifted, battery)
    problem = fold_app(build_app(lifted, battery), rows, cols, reps)
    sol = lp.solve_lp(problem, tol_feas=tol, tol_opt=tol, method=lp.IPM)
    s = _checked_s(sol, problem.name)
    n, m, mt = lifted.n_rows, lifted.m, lifted.m_tilde
    x = sol.x
    r0 = 1 + n * (m + 2)
    v0 = r0 + m + mt * m
    # gathers by index array own their data: a view would pin all of x
    app = AppSolution(s=s, r=x[cols[r0:r0 + m]], w=x[cols[r0 + m:v0].reshape(mt, m)],
                      v=x[cols[v0:]])
    slack, row = check_app(lifted, battery, app)
    if not slack >= -CERTIFICATE_TOL:
        raise EmptyOrDegenerate(f"{problem.name}: fit check failed, slack {slack:g} at row {row}")
    return app
