"""Spans at flexbat's layer boundaries, recorded from outside the library.

A `Tracer` replaces the module attributes that callers resolve at call time
with timing wrappers while it is installed, and puts the originals back when
it is removed. The benchmark wraps its own calls into the public API in
spans of the same kind. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    phase: str
    start: float = 0.0
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _nnz(a) -> int:
    if a is None:
        return 0
    return int(a.nnz) if hasattr(a, "nnz") else int(np.count_nonzero(a))


def _n_rows(a) -> int:
    return 0 if a is None else int(a.shape[0])


def _highs_args(args, kwargs) -> dict:
    a_ub, a_eq = kwargs.get("A_ub"), kwargs.get("A_eq")
    return {"rows": _n_rows(a_ub) + _n_rows(a_eq), "cols": int(np.size(args[0])),
            "nnz": _nnz(a_ub) + _nnz(a_eq)}


def _highs_result(res) -> dict:
    return {"iterations": int(res.nit), "status": int(res.status)}


def _lifted_args(args, kwargs) -> dict:
    lifted = args[0]
    return {"m": int(lifted.m), "m_tilde": int(lifted.m_tilde),
            "n_rows": int(lifted.n_rows)}


# (module, attribute, attributes from the call, attributes from the result)
WRAPPED = (
    ("flexbat.lp", "linprog", _highs_args, _highs_result),
    ("flexbat.lp", "solve_lp", None, None),
    ("flexbat.projection", "build_app", None, None),
    ("flexbat.aggregation", "eliminate", None, None),
    ("flexbat.aggregation", "solve_app", _lifted_args, None),
)


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    phase = ""

    def span(self, name: str, **attrs):
        return contextlib.nullcontext()

    def installed(self):
        return contextlib.nullcontext()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.phase = ""
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._adopter: Optional[Span] = None   # parent for spans of pool threads
        self._saved: list[tuple[object, str, Callable]] = []

    def _stack(self) -> list[Span]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextlib.contextmanager
    def span(self, name: str, adopt_threads: bool = False, **attrs):
        """Time the block. With `adopt_threads`, spans opened by threads that
        have no open span of their own (pool workers) name this one as parent."""
        stack = self._stack()
        parent = stack[-1] if stack else self._adopter
        sp = Span(next(self._ids), name, parent.id if parent else None,
                  threading.get_ident(), self.phase, attrs=dict(attrs))
        stack.append(sp)
        if adopt_threads:
            self._adopter = sp
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.attrs["error"] = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            if adopt_threads:
                self._adopter = None
            with self._lock:
                self.spans.append(sp)

    def enclosing(self, name: str) -> Optional[Span]:
        """Innermost open span called `name` on this thread."""
        for sp in reversed(self._stack()):
            if sp.name == name:
                return sp
        return None

    def _wrap(self, attr: str, orig: Callable, from_args, from_result) -> Callable:
        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            app = self.enclosing("solve_app") if attr == "linprog" else None
            with self.span(attr) as sp:
                if app is not None:
                    sp.attrs.update({f"app_{k}": v for k, v in app.attrs.items()})
                if from_args is not None:
                    sp.attrs.update(from_args(args, kwargs))
                out = orig(*args, **kwargs)
                if from_result is not None:
                    sp.attrs.update(from_result(out))
                return out
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer wrappers are already installed")
        for mod_name, attr, from_args, from_result in WRAPPED:
            module = importlib.import_module(mod_name)
            orig = getattr(module, attr)
            self._saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(attr, orig, from_args, from_result))

    def remove(self) -> None:
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.remove()

    @contextlib.contextmanager
    def paused(self):
        """Run the block with the library's own functions and no spans."""
        self.remove()
        try:
            yield
        finally:
            self.install()


def self_time(sp: Span, children: list[Span]) -> float:
    """Duration minus the part of it that child spans cover (union of intervals)."""
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted((max(c.start, sp.start), min(c.end, sp.end)) for c in children):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return sp.dur - covered


def _p50_ms(spans: list[Span]) -> float:
    return statistics.median(s.dur for s in spans) * 1e3 if spans else 0.0


def layer_metrics(spans: list[Span], workers: int) -> dict[str, float]:
    """Per-layer numbers from the spans of one traced run.

    LPs solved by the benchmark's own checks (phase "checks") are left out of
    the `lp.*` numbers; the checks are timed by the `oracle.*` numbers.
    """
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)

    def named(name: str, phase: Optional[str] = None) -> list[Span]:
        return [s for s in spans if s.name == name and (phase is None or s.phase == phase)]

    def selfs(name: str) -> float:
        return sum(self_time(s, kids.get(s.id, [])) for s in named(name))

    work = [s for s in spans if s.phase != "checks"]
    highs = [s for s in work if s.name == "linprog"]
    aggs = named("aggregate")
    apps = named("solve_app")
    agg_wall = sum(s.dur for s in aggs)
    degenerate = sum(s.attrs.get("error") == "EmptyOrDegenerate" for s in apps)
    return {
        "fleet.generate_s": sum(s.dur for s in named("generate_fleet")),
        "lp.calls": len(highs),
        "lp.highs_s": sum(s.dur for s in highs),
        "lp.highs_max_s": max((s.dur for s in highs), default=0.0),
        "lp.iterations": sum(s.attrs.get("iterations", 0) for s in highs),
        "lp.iterations_max": max((s.attrs.get("iterations", 0) for s in highs), default=0),
        "lp.failed": sum(s.attrs.get("status") != 0 for s in highs),
        "lp.overhead_s": sum(self_time(s, kids.get(s.id, []))
                             for s in work if s.name == "solve_lp"),
        "lp.max_rows": max((s.attrs["rows"] for s in highs), default=0),
        "lp.max_cols": max((s.attrs["cols"] for s in highs), default=0),
        "lp.max_nnz": max((s.attrs["nnz"] for s in highs), default=0),
        "lp.sum_nnz": sum(s.attrs["nnz"] for s in highs),
        "projection.eliminate_s": sum(s.dur for s in named("eliminate")),
        "projection.eliminate_calls": len(named("eliminate")),
        "projection.build_app_s": sum(s.dur for s in named("build_app")),
        "projection.solve_app_self_s": selfs("solve_app"),
        "projection.app_attempts": len(apps),
        "projection.app_degenerate": degenerate,
        "projection.app_success_ratio": (len(apps) - degenerate) / len(apps) if apps else 0.0,
        "aggregation.self_s": selfs("aggregate"),
        "aggregation.parallel_eff": (sum(s.dur for s in apps) / (workers * agg_wall)
                                     if agg_wall > 0 else 0.0),
        "aggregation.dispatch_p50_ms": _p50_ms(named("dispatch", "requests")),
        "aggregation.save_tree_s": sum(s.dur for s in named("save_tree")),
        "aggregation.load_tree_s": sum(s.dur for s in named("load_tree")),
        "cli.arbitrage_p50_ms": _p50_ms(named("arbitrage", "requests")),
        "cli.arbitrage_calls": len([s for s in work if s.name == "arbitrage"]),
        "sampling.sample_s": sum(s.dur for s in named("sample_battery")),
        "oracle.adequacy_p50_ms": _p50_ms(named("adequacy_lp")),
        "oracle.validate_p50_ms": _p50_ms(named("validate_schedule")),
    }


LP_COLUMNS = ("phase", "app_m", "app_m_tilde", "app_n_rows", "rows", "cols", "nnz",
              "iterations", "status", "wall_s")


def lp_table(spans: list[Span]) -> list[tuple]:
    """One row per HiGHS call, in call order. `app_*` is empty outside solve_app."""
    rows = []
    for s in sorted((s for s in spans if s.name == "linprog"), key=lambda s: s.start):
        a = s.attrs
        rows.append((s.phase, a.get("app_m", ""), a.get("app_m_tilde", ""),
                     a.get("app_n_rows", ""), a["rows"], a["cols"], a["nnz"],
                     a.get("iterations", ""), a.get("status", ""), f"{s.dur:.6f}"))
    return rows
