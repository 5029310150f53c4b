"""Workload definitions and the environment stamp, without importing flexbat.

`run.py` reads these before it starts a run, to refuse a configuration the
machine cannot honour; `runner.py` reads them to build the inputs.
"""

from __future__ import annotations

import importlib.metadata
import os
import platform
from dataclasses import dataclass
from pathlib import Path
from typing import Optional


@dataclass(frozen=True)
class Shape:
    """What a workload is, independent of how large it is run."""

    group_size: int
    fanout: int
    workers: int
    common_window: bool = False       # every task plugged in over the same slots
    aggregate_in_setup: bool = False  # aggregation is set-up, requests are the work


@dataclass(frozen=True)
class Size:
    n: int                # tasks per fleet
    m: int                # slots in the horizon
    fleets: int           # fleets aggregated per run, seeds seed*fleets + i
    pool: int = 400       # set-point profiles per tree, served in turn
    min_requests: int = 3000   # per request kind: three p99 windows (runner.P99_WINDOW)
    adequacy_per_tree: int = 4  # requests per kind and tree also checked by adequacy_lp
    limit_s: float = 170.0     # wall-clock limit of the run's child process
    # Slots every task is plugged in over, for a shape with a common window.
    # At `bench` size the depot fleet arrives at the evening price peak (slot 7
    # of a noon-anchored day), so charging on arrival costs clearly more than
    # the optimum and `savings_frac` is large and steady.
    window: tuple[int, int] = (7, 14)


# Why these three (see NOTES.md): `demo` is the reference pipeline on one
# worker, where the serial later-stage LP sets the time; `depot` has one
# common window, so one stage of equal LPs runs on both workers and no
# later-stage LP runs; `operate` aggregates in set-up and then serves a
# closed loop of price and set-point requests from reloaded trees.
SHAPES = {
    "demo": Shape(group_size=10, fanout=11, workers=1),
    "depot": Shape(group_size=10, fanout=11, workers=2, common_window=True),
    "operate": Shape(group_size=5, fanout=4, workers=2, aggregate_in_setup=True),
}

# `bench` is what BENCHMARK.json runs: each run stays well under a minute on
# two cores. `paper` is the reference size (n=100; `demo` at seed 42 is the
# ROADMAP baseline) and takes minutes. `tiny` is for the benchmark's tests.
SIZES = {
    "bench": {
        "demo": Size(n=30, m=12, fleets=8),
        "depot": Size(n=40, m=24, fleets=10),
        # Twice the fleets of the others: operate's aggregation is set-up and
        # short per fleet, and its mean over 10 fleets spread past the bound
        # across seeds. Each tree serves about 150 set-point requests.
        "operate": Size(n=40, m=12, fleets=20, pool=200),
    },
    "paper": {
        "demo": Size(n=100, m=24, fleets=1, limit_s=900.0),
        "depot": Size(n=100, m=12, fleets=1, limit_s=900.0, window=(1, 12)),
        "operate": Size(n=100, m=24, fleets=1, limit_s=900.0),
    },
    "tiny": {
        "demo": Size(n=12, m=12, fleets=2, pool=3, min_requests=20, adequacy_per_tree=2),
        "depot": Size(n=12, m=12, fleets=2, pool=3, min_requests=20, adequacy_per_tree=2,
                      window=(7, 10)),
        "operate": Size(n=12, m=12, fleets=2, pool=3, min_requests=20, adequacy_per_tree=2),
    },
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def git_commit(root: Path) -> Optional[str]:
    """HEAD of a git checkout at `root`, read from the files; None elsewhere."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def env_stamp(root: Path, workload: str, size: str, seed: int, seconds: float,
              trace: bool) -> dict:
    return {
        "workload": workload,
        "size": size,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workers": SHAPES[workload].workers,
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "commit": git_commit(root),
    }


# Metric name -> unit. The end-to-end metrics are measured with tracing off,
# the per-layer ones in a separate traced run; BENCHMARK.json lists the same.
END_TO_END = {
    "aggregate_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "energy_capture": "ratio",
    "width_sum_kw": "kW",
    "savings_frac": "ratio",
    "price_req_p50_ms": "ms",
    "setpoint_req_p50_ms": "ms",
    "requests_per_s": "1/s",
}
# Printed with the end-to-end metrics and kept in the result file, but not in
# BENCHMARK.json. `sufficiency_fail_frac` must be 0, which `correct` enforces;
# a metric whose median is 0 cannot carry a relative bound. The p99s spread
# by 0.37-0.92 of their median over ten seeds on a shared two-core machine,
# beyond the largest bound a metric may have.
REPORTED = {
    "sufficiency_fail_frac": "ratio",
    "price_req_p99_ms": "ms",
    "setpoint_req_p99_ms": "ms",
}

PER_LAYER = {
    "fleet.generate_s": "s",
    "lp.calls": "count",
    "lp.highs_s": "s",
    "lp.highs_max_s": "s",
    "lp.iterations": "count",
    "lp.iterations_max": "count",
    "lp.failed": "count",
    "lp.overhead_s": "s",
    "lp.max_rows": "count",
    "lp.max_cols": "count",
    "lp.max_nnz": "count",
    "lp.sum_nnz": "count",
    "projection.eliminate_s": "s",
    "projection.eliminate_calls": "count",
    "projection.build_app_s": "s",
    "projection.solve_app_self_s": "s",
    "projection.app_attempts": "count",
    "projection.app_degenerate": "count",
    "projection.app_success_ratio": "ratio",
    "aggregation.self_s": "s",
    "aggregation.parallel_eff": "ratio",
    "aggregation.stages": "count",
    "aggregation.stage1_groups": "count",
    "aggregation.stage1_cohorts": "count",
    "aggregation.dispatch_p50_ms": "ms",
    "aggregation.dispatch_clamped": "count",
    "aggregation.dispatch_clamp_max": "kW",
    "aggregation.save_tree_s": "s",
    "aggregation.load_tree_s": "s",
    "aggregation.tree_bytes": "bytes",
    "cli.arbitrage_p50_ms": "ms",
    "cli.arbitrage_calls": "count",
    "sampling.sample_s": "s",
    "oracle.adequacy_p50_ms": "ms",
    "oracle.validate_p50_ms": "ms",
    "oracle.sufficiency_fail_frac": "ratio",
    "oracle.checked_profiles": "count",
    "trace.overhead_s": "s",
}
