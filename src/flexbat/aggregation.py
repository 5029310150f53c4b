"""Multi-stage aggregation into one virtual battery, and dispatch back down.

Stage 1 partitions the fleet into groups and solves the affine-rule
approximation per group against a cohort-shared nominal battery (cohort =
groups with equal span, i.e. minimum arrival and maximum departure).
Homothets of one shared nominal add coordinate-wise (scaled Minkowski sum),
so cohorts collapse without further LPs. Later stages treat each battery
as a unit and repeat with `fanout` children per node until a single root
remains. The tree records every decision rule and elimination map, which
is exactly what dispatch needs to turn any battery-feasible aggregate
profile into admissible per-task schedules.
"""

from __future__ import annotations

import itertools
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cache, cached_property
from typing import Callable, Optional, Sequence, TypeVar, Union

import numpy as np

from .errors import (DispatchInfeasible, EmptyOrDegenerate, NotInBattery,
                     ValidationError)
from .fleet import ChargingTask, Fleet, read_json, write_json
from .geometry import Homothet, VirtualBattery, homothet_apply_battery
from .projection import (AppSolution, EliminationMap, FlexUnit, eliminate,
                         solve_app)

TREE_FORMAT_VERSION = 1
T = TypeVar("T")


@dataclass(frozen=True)
class Leaf:
    task_id: str

    def __post_init__(self):
        if not isinstance(self.task_id, str):
            raise TypeError(f"leaf task id must be a string, got {self.task_id!r}")


@dataclass(frozen=True)
class AppNode:
    """One solved approximation: children aggregated against `nominal`."""

    label: str
    children: tuple["TreeNode", ...]
    units: tuple[FlexUnit, ...]
    coords: tuple[int, ...]
    nominal: VirtualBattery
    app: AppSolution
    elim: EliminationMap

    @property
    def lam(self) -> float:
        return self.app.lam

    @property
    def mu(self) -> np.ndarray:
        return self.app.mu

    @property
    def battery(self) -> VirtualBattery:
        return homothet_apply_battery(self.app.homothet, self.nominal,
                                      self.units[0].delta)


@dataclass(frozen=True)
class CohortNode:
    """Children sharing one nominal base; their homothets add directly."""

    label: str
    children: tuple[AppNode, ...]
    coords: tuple[int, ...]
    base: VirtualBattery

    @property
    def lam(self) -> float:
        return sum(c.lam for c in self.children)

    @property
    def mu(self) -> np.ndarray:
        return np.sum([c.mu for c in self.children], axis=0)

    @property
    def battery(self) -> VirtualBattery:
        return homothet_apply_battery(Homothet(self.lam, self.mu), self.base,
                                      self.children[0].units[0].delta)


TreeNode = Union[Leaf, AppNode, CohortNode]


@dataclass(frozen=True)
class AggregateConfig:
    group_size: int = 10
    fanout: int = 11
    policy: str = "window-sorted"
    seed: Optional[int] = None
    workers: int = 1

    def __post_init__(self):
        if self.group_size < 1:
            raise ValidationError("group_size must be at least 1")
        if self.fanout < 2:
            raise ValidationError("fanout must be at least 2")
        if self.policy not in ("random", "window-sorted"):
            raise ValidationError(f"unknown partition policy {self.policy!r}")
        if self.workers < 1:
            raise ValidationError("workers must be at least 1")

    def to_dict(self) -> dict:
        """Settings that shape the tree. `workers` is left out: the pool
        width never changes the result, so saved files do not record it."""
        return {"group_size": self.group_size, "fanout": self.fanout,
                "policy": self.policy, "seed": self.seed}


@dataclass(frozen=True)
class AggregationTree:
    root: TreeNode
    m: int
    delta: float
    battery: VirtualBattery           # root battery over the full horizon
    n_stages: int
    stage1_groups: int
    stage1_cohorts: int
    config: dict

    @cached_property
    def _dispatch_plan(self) -> "_DispatchPlan":
        """Index plan `dispatch` walks; built on first use, never saved."""
        return _compile(self)


def partition_fleet(fleet: Fleet, group_size: int, policy: str = "window-sorted",
                    seed: Optional[int] = None) -> list[list[ChargingTask]]:
    """Disjoint cover of the fleet by groups of at most `group_size` tasks."""
    if group_size < 1:
        raise ValidationError("group_size must be at least 1")
    if policy == "random":
        rng = np.random.default_rng(seed)
        order = [fleet.tasks[k] for k in rng.permutation(fleet.n)]
    elif policy == "window-sorted":
        order = sorted(fleet.tasks, key=lambda t: (t.a, t.d, t.id))
    else:
        raise ValidationError(f"unknown partition policy {policy!r}")
    return [order[i:i + group_size] for i in range(0, len(order), group_size)]


def _mean_nominal(units: Sequence[FlexUnit], coords: Sequence[int],
                  delta: float) -> VirtualBattery:
    """Parameter means over the units, on the given span (zeros off-window)."""
    coords = list(coords)
    n = len(units)
    lo = np.zeros(len(coords))
    hi = np.zeros(len(coords))
    for un in units:
        for k, t in enumerate(coords):
            if t in un.active:
                l, h = un.bound_at(t)
                lo[k] += l
                hi[k] += h
    lo /= n
    hi /= n
    e_low = sum(un.e_low for un in units) / n
    e_high = sum(un.e_high for un in units) / n
    e_low = min(max(e_low, delta * lo.sum()), delta * hi.sum())
    e_high = min(max(e_high, delta * lo.sum()), delta * hi.sum())
    e_low = min(e_low, e_high)
    return VirtualBattery(lo, hi, e_low, e_high)


def _span(units: Sequence[FlexUnit]) -> tuple[int, ...]:
    lo = min(un.active[0] for un in units)
    hi = max(un.active[-1] for un in units)
    return tuple(range(lo, hi + 1))


def _unit_nominal_on_span(unit: FlexUnit, coords: tuple[int, ...]) -> VirtualBattery:
    lo = np.zeros(len(coords))
    hi = np.zeros(len(coords))
    for k, t in enumerate(coords):
        if t in unit.active:
            lo[k], hi[k] = unit.bound_at(t)
    return VirtualBattery(lo, hi, unit.e_low, unit.e_high)


def _most_constrained(units: Sequence[FlexUnit]) -> FlexUnit:
    return min(units, key=lambda un: (un.e_high - un.e_low,
                                      un.delta * un.hi.sum() - un.e_high,
                                      un.origin))


@dataclass
class _Solved:
    node: AppNode
    cohort_key: Optional[tuple]   # None when the shared nominal was abandoned


def _solve_chunk(label: str, units: list[FlexUnit], children: list[TreeNode],
                 coords: tuple[int, ...], nominal: VirtualBattery,
                 cohort_key: Optional[tuple]) -> list[_Solved]:
    """One homothet-approximation solve, with the degenerate-group retry ladder."""
    lifted = eliminate(units, coords=coords)

    def attempt(batt: VirtualBattery) -> AppNode:
        app = solve_app(lifted, batt)
        return AppNode(label=label, children=tuple(children), units=tuple(units),
                       coords=coords, nominal=batt, app=app, elim=lifted.elim)

    try:
        return [_Solved(attempt(nominal), cohort_key)]
    except EmptyOrDegenerate:
        pass
    fallback = _unit_nominal_on_span(_most_constrained(units), coords)
    try:
        return [_Solved(attempt(fallback), None)]
    except EmptyOrDegenerate:
        pass
    # last resort: singleton groups; one unit against its own battery is exact
    out = []
    for k, (un, child) in enumerate(zip(units, children)):
        solo_coords = tuple(range(un.active[0], un.active[-1] + 1))
        solo = eliminate([un], coords=solo_coords)
        batt = _unit_nominal_on_span(un, solo_coords)
        app = solve_app(solo, batt)
        out.append(_Solved(
            AppNode(label=f"{label}.solo{k}", children=(child,), units=(un,),
                    coords=solo_coords, nominal=batt, app=app, elim=solo.elim),
            None))
    return out


def synthesize_battery(node: TreeNode, m: int) -> VirtualBattery:
    """Node battery re-embedded into the full horizon (zero bounds elsewhere)."""
    if isinstance(node, Leaf):
        raise ValidationError("leaves carry no battery")
    local = node.battery
    lo = np.zeros(m)
    hi = np.zeros(m)
    for k, t in enumerate(node.coords):
        lo[t - 1] = local.p_low[k]
        hi[t - 1] = local.p_high[k]
    return VirtualBattery(lo, hi, local.e_low, local.e_high)


@cache
def _pool(workers: int) -> ThreadPoolExecutor:
    """One pool per width for the process: new threads per stage may each take
    a new malloc arena, which makes peak memory depend on thread timing."""
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="flexbat")


def _run_chunks(solve: Callable[[int], T], n: int, workers: int) -> list[T]:
    """[solve(0), ..., solve(n - 1)], each index taken by the next free of
    the caller and workers - 1 pool threads: a caller that only waited
    would leave one more malloc arena holding an LP's working set. After a
    failure no further index is taken, and the lowest-index failure is
    raised, as in a serial run."""
    results: list = [None] * n
    taken = iter(range(n))
    lock = threading.Lock()
    stop = threading.Event()

    def work() -> None:
        while not stop.is_set():
            with lock:
                k = next(taken, n)
            if k == n:
                return
            try:
                results[k] = solve(k)
            except Exception as exc:
                results[k] = exc
                stop.set()

    helpers = [_pool(workers - 1).submit(work) for _ in range(min(workers, n) - 1)]
    try:
        work()
    finally:
        stop.set()                # after an interrupt, helpers take no further index
        for helper in helpers:
            helper.result()
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def aggregate(fleet: Fleet, config: Optional[AggregateConfig] = None) -> AggregationTree:
    """Build the full aggregation tree and its root battery."""
    cfg = config or AggregateConfig()
    if fleet.n == 0:
        raise ValidationError("cannot aggregate an empty fleet")
    delta = fleet.delta
    rigid = [t.id for t in fleet.tasks if t.e_high - t.e_low <= 1e-12]
    if rigid:
        logging.warning("%d task(s) have a zero-width energy interval "
                        "(e.g. %s); the lifted system loses full "
                        "dimensionality but stays valid", len(rigid), rigid[0])

    groups = partition_fleet(fleet, cfg.group_size, cfg.policy, cfg.seed)
    stage1_groups = len(groups)

    def run_stage(chunks: list[tuple[list[FlexUnit], list[TreeNode]]],
                  stage_no: int) -> list[tuple[FlexUnit, TreeNode]]:
        spans = [_span(units) for units, _ in chunks]
        nominals = [_mean_nominal(units, span, delta)
                    for (units, _), span in zip(chunks, spans)]
        cohorts: dict[tuple, list[int]] = {}
        for idx, span in enumerate(spans):
            cohorts.setdefault((span[0], span[-1]), []).append(idx)
        shared: dict[int, VirtualBattery] = {}
        for key, members in cohorts.items():
            batt = nominals[members[0]] if len(members) == 1 else _mean_nominal(
                [un for k in members for un in chunks[k][0]],
                range(key[0], key[1] + 1), delta)
            for k in members:
                shared[k] = batt

        def solve_one(idx: int) -> list[_Solved]:
            units, children = chunks[idx]
            key = (spans[idx][0], spans[idx][-1])
            return _solve_chunk(f"s{stage_no}g{idx:03d}", units, children,
                                spans[idx], shared[idx], key)

        solved_lists = _run_chunks(solve_one, len(chunks), cfg.workers)

        by_cohort: dict[tuple, list[AppNode]] = {}
        standalone: list[AppNode] = []
        for solved in solved_lists:
            for item in solved:
                if item.cohort_key is None:
                    standalone.append(item.node)
                else:
                    by_cohort.setdefault(item.cohort_key, []).append(item.node)
        merged: list[TreeNode] = []
        for key in sorted(by_cohort):
            members = by_cohort[key]
            if len(members) == 1:
                merged.append(members[0])
            else:
                merged.append(CohortNode(
                    label=f"s{stage_no}c{key[0]:02d}_{key[1]:02d}",
                    children=tuple(members), coords=members[0].coords,
                    base=members[0].nominal))
        merged.extend(standalone)
        out = []
        for node in merged:
            unit = FlexUnit.from_battery(node.battery, node.coords,
                                         origin=node.label, delta=delta)
            out.append((unit, node))
        return out

    # stage 1: task groups
    stage = 1
    chunks = [([FlexUnit.from_task(t, delta) for t in g], [Leaf(t.id) for t in g])
              for g in groups]
    level = run_stage(chunks, stage)
    stage1_cohorts = len(level)

    while len(level) > 1:
        stage += 1
        level.sort(key=lambda pair: (pair[0].active[0], pair[0].active[-1],
                                     getattr(pair[1], "label", "")))
        chunks = [([u for u, _ in level[i:i + cfg.fanout]],
                   [nd for _, nd in level[i:i + cfg.fanout]])
                  for i in range(0, len(level), cfg.fanout)]
        before = len(level)
        level = run_stage(chunks, stage)
        if len(level) >= before:
            # every multi-unit chunk fell to singletons; another stage
            # would repeat the same solves forever
            raise EmptyOrDegenerate(
                f"stage {stage}: no chunk of {before} units could be "
                f"aggregated; the tree cannot reach a single root")

    root = level[0][1]
    return AggregationTree(
        root=root, m=fleet.m, delta=delta,
        battery=synthesize_battery(root, fleet.m),
        n_stages=stage, stage1_groups=stage1_groups,
        stage1_cohorts=stage1_cohorts, config=cfg.to_dict())


@dataclass(frozen=True)
class DispatchResult:
    task_ids: tuple[str, ...]
    schedule: np.ndarray                      # N x m kW, rows follow task_ids
    group_profiles: dict[str, np.ndarray]     # node label -> full-horizon profile
    clamped: tuple[tuple[str, int, float], ...]


@dataclass(frozen=True)
class _Level:
    """One depth of the tree as index arrays into dispatch's scratch vector."""

    rules: tuple[tuple[AppSolution, slice, slice], ...]   # (rule, z, u_tilde) per app node
    gather: np.ndarray        # (1 + k) x entries: `gather_plan` rows, side by side
    entries: slice            # app nodes' unit entries (unit-major, slot-ascending)
    lo: np.ndarray            # their unit bounds
    hi: np.ndarray
    cohort: tuple[np.ndarray, ...]   # cohort children's z: src, dst, ratio, mu, child mu
    inner_src: np.ndarray     # app nodes' inner children's z, gathered from entries
    inner_dst: np.ndarray


@dataclass(frozen=True)
class _DispatchPlan:
    """Dispatch by depth over one scratch vector: every unit entry, every
    node's z, every app node's u_tilde and a last 0.0 that padding reads."""

    task_ids: tuple[str, ...]
    labels: tuple[str, ...]            # nodes in pre-order
    size: int
    root_cols: np.ndarray              # root coords as 0-based slots
    root_z: np.ndarray                 # buffer indices of the root's z
    off_span: np.ndarray               # slots outside the root's coords
    levels: tuple[_Level, ...]
    zs: slice                          # every node's z, level by level
    profile_dest: np.ndarray           # their flat index into the nodes x m profiles
    leaf_src: np.ndarray               # entries that are leaf schedule cells
    leaf_dest: np.ndarray              # their flat index into the N x m schedule
    rank: tuple[int, ...]              # walk-order rank of each entry
    names: tuple[tuple[str, int], ...]   # (unit origin, global slot) of each entry


def _compile(tree: AggregationTree) -> _DispatchPlan:
    m = tree.m
    nodes: list[TreeNode] = []                  # non-leaf nodes in pre-order
    kids: list[list[Optional[int]]] = []        # each child's pre-order index, None for a leaf
    ranks: dict[int, list[int]] = {}            # app node -> walk-order rank of each entry
    ticket = itertools.count()
    row_of: dict[str, int] = {}                 # schedule row of each task, leaves in pre-order

    def visit(node: TreeNode) -> Optional[int]:
        if isinstance(node, Leaf):
            row_of[node.task_id] = len(row_of)
            return None
        k = len(nodes)
        nodes.append(node)
        kids.append([])
        for i, child in enumerate(node.children):
            if isinstance(node, AppNode):       # a unit's entries rank before its subtree
                ranks.setdefault(k, []).extend(next(ticket) for _ in node.units[i].active)
            kids[k].append(visit(child))
        return k

    visit(tree.root)
    n_entries = sum(map(len, ranks.values()))
    # scratch layout: entries, then z, then u_tilde, each level by level, then the 0.0
    cursor = {"z": n_entries, "u_tilde": n_entries + sum(len(nd.coords) for nd in nodes)}
    pad = cursor["u_tilde"] + sum(nodes[k].elim.m_tilde for k in ranks)

    def take(part: str, size: int) -> np.ndarray:
        cursor[part] += size
        return np.arange(cursor[part] - size, cursor[part])

    zat = {0: take("z", len(tree.root.coords))}
    levels: list[_Level] = []
    order: list[int] = []                       # nodes level by level
    leaf_src: list[int] = []
    leaf_dest: list[int] = []
    level, e = [0], 0
    while level:
        order += level
        rules, gathers, units, cohort, inner_src, inner_dst = [], [], [], [], [], []
        first = e
        for k in level:
            node = nodes[k]
            for c in kids[k]:
                if c is not None:
                    zat[c] = take("z", len(nodes[c].coords))
            if isinstance(node, CohortNode):
                cohort.extend((zat[k], zat[c], np.full(len(child.coords), child.lam / node.lam),
                               node.mu, child.mu) for c, child in zip(kids[k], node.children))
                continue
            units += node.units
            ut = take("u_tilde", node.elim.m_tilde)
            if ut.size:
                rules.append((node.app, slice(zat[k][0], zat[k][-1] + 1),
                              slice(ut[0], ut[-1] + 1)))
            gathers.append(np.concatenate([zat[k], ut, [pad]])[node.elim.gather_plan[0]])
            for c, child, unit in zip(kids[k], node.children, node.units):
                cells = range(e, e + len(unit.active))
                e += len(unit.active)
                if c is None:
                    leaf_src.extend(cells)
                    leaf_dest.extend(row_of[child.task_id] * m + t - 1 for t in unit.active)
                else:
                    # slots of the child's span the unit does not draw in read the 0.0
                    cell = dict(zip(unit.active, cells))
                    inner_src.extend(cell.get(t, pad) for t in child.coords)
                    inner_dst.extend(zat[c])
        rows = max((len(g) for g in gathers), default=1)
        gather = np.hstack([np.pad(g, ((0, rows - len(g)), (0, 0)), constant_values=pad)
                            for g in gathers] or [np.zeros((1, 0), dtype=np.intp)])
        levels.append(_Level(
            rules=tuple(rules), gather=gather, entries=slice(first, e),
            lo=np.array([v for un in units for v in un.lo]),
            hi=np.array([v for un in units for v in un.hi]),
            cohort=tuple(map(np.concatenate, zip(*cohort))),
            inner_src=np.asarray(inner_src, dtype=np.intp),
            inner_dst=np.asarray(inner_dst, dtype=np.intp)))
        level = [c for k in level for c in kids[k] if c is not None]
    root_cols = np.asarray(tree.root.coords, dtype=np.intp) - 1
    off = np.ones(m, dtype=bool)
    off[root_cols] = False
    return _DispatchPlan(
        task_ids=tuple(row_of), labels=tuple(nd.label for nd in nodes), size=pad + 1,
        root_cols=root_cols, root_z=zat[0], off_span=off, levels=tuple(levels),
        zs=slice(n_entries, cursor["z"]),
        profile_dest=np.concatenate([k * m + np.asarray(nodes[k].coords) - 1 for k in order]),
        leaf_src=np.asarray(leaf_src, dtype=np.intp),
        leaf_dest=np.asarray(leaf_dest, dtype=np.intp),
        rank=tuple(r for k in order if k in ranks for r in ranks[k]),
        names=tuple((un.origin, t) for k in order if k in ranks
                    for un in nodes[k].units for t in un.active))


def dispatch(tree: AggregationTree, u: np.ndarray, tol: float = 1e-6) -> DispatchResult:
    """Split a battery-feasible aggregate profile into per-task schedules.

    Violations up to `tol` (solver noise) are clamped onto the admissible
    bounds and recorded in `clamped`, in walk order: depth first, a unit's
    own entries before those of its subtree. Anything larger raises, naming
    the first such entry in walk order, since each node's fit, proved when
    it was solved, rules it out. The tree is split one level at a time: each
    app node on the level applies its decision rule, then a few array
    operations rebuild, clamp and hand down the units' powers of the whole
    level. The index plan for this is compiled from the tree on its first
    dispatch and cached on the tree object (never saved with it). Every
    output byte is that of a node-by-node walk: the matrix-vector product
    stays per node, and every other step is elementwise or subtracts rows in
    the walk's order.
    """
    u = np.asarray(u, dtype=float).ravel()
    if u.size != tree.m:
        raise NotInBattery(f"profile length {u.size} vs horizon {tree.m}")
    if not tree.battery.contains(u, delta=tree.delta, tol=tol):
        raise NotInBattery("profile is not inside the root battery")
    if isinstance(tree.root, Leaf):
        raise ValidationError("tree has no aggregation node")
    plan = tree._dispatch_plan
    if np.any(np.abs(u[plan.off_span]) > tol):
        raise NotInBattery("profile draws power outside the aggregated span")
    m = tree.m
    buf = np.zeros(plan.size)
    raw = np.empty(len(plan.rank))          # entries before the clamp
    buf[plan.root_z] = u[plan.root_cols]
    for lv in plan.levels:
        for app, z, ut in lv.rules:
            buf[ut] = app.rule_apply(buf[z])
        np.subtract.reduce(buf[lv.gather], axis=0, out=raw[lv.entries])
        raw[lv.entries].clip(lv.lo, lv.hi, out=buf[lv.entries])
        if lv.cohort:
            src, dst, ratio, mu, child_mu = lv.cohort
            buf[dst] = ratio * (buf[src] - mu) + child_mu
        buf[lv.inner_dst] = buf[lv.inner_src]
    moved = np.abs(buf[:raw.size] - raw)
    clamped = []
    for e in sorted((moved > 0).nonzero()[0].tolist(), key=plan.rank.__getitem__):
        label, slot = plan.names[e]
        if moved[e] > tol:
            raise DispatchInfeasible(f"{label}: slot {slot} violates bounds by {moved[e]:.3e}")
        clamped.append((label, slot, float(moved[e])))
    schedule = np.zeros(len(plan.task_ids) * m)
    schedule[plan.leaf_dest] = buf[plan.leaf_src]
    profiles = np.zeros(len(plan.labels) * m)
    profiles[plan.profile_dest] = buf[plan.zs]
    return DispatchResult(task_ids=plan.task_ids, schedule=schedule.reshape(-1, m),
                          group_profiles=dict(zip(plan.labels, profiles.reshape(-1, m))),
                          clamped=tuple(clamped))


def _node_to_dict(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {"kind": "leaf", "task_id": node.task_id}
    if isinstance(node, AppNode):
        return {
            "kind": "app",
            "label": node.label,
            "coords": list(node.coords),
            "nominal": node.nominal.to_dict(),
            "app": node.app.to_dict(group_ids=[un.origin for un in node.units]),
            "elim": node.elim.to_dict(),
            "units": [
                {"active": list(un.active), "lo": [float(v) for v in un.lo],
                 "hi": [float(v) for v in un.hi], "e_low_kwh": un.e_low,
                 "e_high_kwh": un.e_high, "origin": un.origin}
                for un in node.units
            ],
            "children": [_node_to_dict(c) for c in node.children],
        }
    return {
        "kind": "cohort",
        "label": node.label,
        "coords": list(node.coords),
        "base": node.base.to_dict(),
        "children": [_node_to_dict(c) for c in node.children],
    }


def _node_from_dict(d: dict, delta: float) -> TreeNode:
    kind = d["kind"]
    if kind == "leaf":
        return Leaf(task_id=d["task_id"])
    children = tuple(_node_from_dict(c, delta) for c in d["children"])
    coords = tuple(int(t) for t in d["coords"])
    if kind == "app":
        units = tuple(
            FlexUnit(active=tuple(u["active"]), lo=np.asarray(u["lo"], float),
                     hi=np.asarray(u["hi"], float), e_low=float(u["e_low_kwh"]),
                     e_high=float(u["e_high_kwh"]), origin=u["origin"], delta=delta)
            for u in d["units"])
        app, elim = AppSolution.from_dict(d["app"]), EliminationMap.from_dict(d["elim"])
        if (len(children), elim.unit_active, elim.coords, app.r.size, app.v.size) != (
                len(units), tuple(u.active for u in units), coords, len(coords), elim.m_tilde):
            raise ValueError(f"app node {d['label']}: fields disagree in count or slots")
        return AppNode(
            label=d["label"], children=children, units=units, coords=coords,
            nominal=VirtualBattery.from_dict(d["nominal"]), app=app, elim=elim)
    if kind == "cohort":
        return CohortNode(label=d["label"], children=children, coords=coords,
                          base=VirtualBattery.from_dict(d["base"]))
    raise ValidationError(f"unknown tree node kind {kind!r}")


def tree_to_dict(tree: AggregationTree) -> dict:
    return {
        "version": TREE_FORMAT_VERSION,
        "m": tree.m,
        "delta_h": tree.delta,
        "n_stages": tree.n_stages,
        "stage1_groups": tree.stage1_groups,
        "stage1_cohorts": tree.stage1_cohorts,
        "config": tree.config,
        "battery": tree.battery.to_dict(),
        "root": _node_to_dict(tree.root),
    }


def tree_from_dict(d: dict) -> AggregationTree:
    if int(d.get("version", -1)) != TREE_FORMAT_VERSION:
        raise ValidationError(f"unsupported tree format version {d.get('version')!r}")
    delta = float(d["delta_h"])
    return AggregationTree(
        root=_node_from_dict(d["root"], delta),
        m=int(d["m"]), delta=delta,
        battery=VirtualBattery.from_dict(d["battery"]),
        n_stages=int(d["n_stages"]),
        stage1_groups=int(d["stage1_groups"]),
        stage1_cohorts=int(d["stage1_cohorts"]),
        config=dict(d["config"]))


def save_tree(tree: AggregationTree, path: str) -> None:
    write_json(path, tree_to_dict(tree))


def load_tree(path: str) -> AggregationTree:
    return read_json(path, tree_from_dict)
