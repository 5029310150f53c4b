"""One run of one workload in a process of its own; `run.py` starts it.

    python3 bench/runner.py --workload demo --size bench --seed 1 --seconds 20 \
        --trace 0 --spawned-at <time.monotonic() of the parent> --out result.json

The run generates its inputs from the seed, times the workload's work, then
checks every output outside the timed path, and writes one JSON result.
Only the public API of flexbat is called.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np

import flexbat
from flexbat import (AggregateConfig, GenProfile, PriceSeries, adequacy_lp,
                     aggregate, arbitrage, baseline_immediate, dispatch,
                     generate_fleet, greedy_profile, load_tree, sample_battery,
                     save_tree, validate_schedule)
from flexbat.cli import demo_price_curve, save_battery
from flexbat.errors import FlexError

from spans import LP_COLUMNS, NullTracer, Tracer, layer_metrics, lp_table
from workloads import SHAPES, SIZES, Shape, Size

SETUP_REPEATS = 3     # set-up repeated when it is cheap; setup_s takes the median
SCHEDULE_TOL = 1e-6   # validate_schedule tolerance for a dispatched profile
PRICE_NOISE = 0.1     # relative per-slot noise on the demo price curve
# p99 is the median of the p99s of consecutive windows of this many requests
# of one kind: each window has ten samples beyond its p99, and one burst of
# interference from outside the process moves one window, not the result.
P99_WINDOW = 1000


def battery_digest(battery, workdir: Path) -> str:
    """sha256 of the battery.json bytes that `flex demo` would write."""
    path = workdir / "battery.json"
    save_battery(battery, str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()


def fleet_order(fleet, result) -> np.ndarray:
    row = {tid: r for r, tid in enumerate(result.task_ids)}
    return result.schedule[[row[t.id] for t in fleet.tasks]]


def p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3


def p99_ms(values: list[float]) -> float:
    n_win = max(1, len(values) // P99_WINDOW)
    return statistics.median(float(np.percentile(w, 99))
                             for w in np.array_split(np.asarray(values), n_win)) * 1e3


class Run:
    def __init__(self, name: str, size: Size, seed: int, seconds: float,
                 trace: bool, workdir: Path):
        self.shape: Shape = SHAPES[name]
        self.size = size
        self.seed = seed
        self.seconds = seconds
        self.traced = trace
        self.tracer = Tracer() if trace else NullTracer()
        self.workdir = workdir
        self.config = AggregateConfig(group_size=self.shape.group_size,
                                      fanout=self.shape.fanout,
                                      workers=self.shape.workers)
        first, last = size.window
        self.profile = (GenProfile(arrival_mean=first, arrival_sigma=0.01,
                                   stay_min=last - first, stay_max=last - first)
                        if self.shape.common_window else None)
        self.fleet_seeds = [seed * size.fleets + i for i in range(size.fleets)]
        self.attempted = 0
        self.errors: Counter = Counter()     # failed operations by error type
        self.agg_s: list[float] = []
        self.agg_untraced_s: list[float] = []
        self.digests: list[str] = []
        self.tree_bytes = 0
        self.checked = 0
        self.insufficient = 0

    def call(self, name: str, fn, *args, **kwargs):
        with self.tracer.span(name):
            return fn(*args, **kwargs)

    def fail(self, kind: str) -> None:
        self.errors[kind] += 1

    # -- set-up and aggregation ------------------------------------------

    def make_fleets(self, traced: bool = True) -> list:
        m, n = self.size.m, self.size.n
        if not traced:
            return [generate_fleet(n, m, s, self.profile) for s in self.fleet_seeds]
        return [self.call("generate_fleet", generate_fleet, n, m, s, self.profile)
                for s in self.fleet_seeds]

    def aggregate_all(self, fleets: list) -> list:
        trees = []
        for fleet in fleets:
            self.attempted += 1
            if self.traced:
                with self.tracer.paused():
                    t = time.perf_counter()
                    plain = aggregate(fleet, self.config)
                    self.agg_untraced_s.append(time.perf_counter() - t)
            t = time.perf_counter()
            with self.tracer.span("aggregate", adopt_threads=True):
                tree = aggregate(fleet, self.config)
            self.agg_s.append(time.perf_counter() - t)
            digest = battery_digest(tree.battery, self.workdir)
            if self.traced and battery_digest(plain.battery, self.workdir) != digest:
                self.fail("TracedBatteryDiffers")
            self.digests.append(digest)
            trees.append(tree)
        return trees

    def round_trip(self, trees: list) -> list:
        """Save every tree and serve from the reloaded copies."""
        loaded = []
        for i, tree in enumerate(trees):
            self.attempted += 1
            path = self.workdir / f"tree{i}.json"
            self.call("save_tree", save_tree, tree, str(path))
            self.tree_bytes += path.stat().st_size
            back = self.call("load_tree", load_tree, str(path))
            if battery_digest(back.battery, self.workdir) != self.digests[i]:
                self.fail("TreeRoundTripDiffers")
            loaded.append(back)
        return loaded

    def make_setpoints(self, trees: list) -> list[np.ndarray]:
        """Hit-and-run set-point profiles, `pool` per tree."""
        return [self.call("sample_battery", sample_battery, tree.battery,
                          self.size.pool, seed=fseed)
                for tree, fseed in zip(trees, self.fleet_seeds)]

    # -- the request loop --------------------------------------------------

    def serve(self, fleets: list, trees: list, setpoints: list, budget_s: float) -> dict:
        """Closed loop, one caller: price and set-point requests alternate,
        round-robin over the trees, until the budget is spent and each kind
        has `min_requests` samples. Every price request has its own perturbed
        curve. Each answer is checked right after its latency is taken."""
        base = demo_price_curve(self.size.m).prices
        rng = np.random.default_rng([self.seed, 1])
        lat: dict[str, list[float]] = {"price": [], "setpoint": []}
        served: Counter = Counter()     # (kind, tree) -> requests so far
        clamped, clamp_max = 0, 0.0
        start = time.perf_counter()
        i = 0
        while (time.perf_counter() - start < budget_s
               or min(len(v) for v in lat.values()) < self.size.min_requests):
            kind = "price" if i % 2 == 0 else "setpoint"
            j = (i // 2) % len(trees)
            k = served[kind, j]
            served[kind, j] += 1
            i += 1
            self.attempted += 1
            if kind == "price":
                prices = PriceSeries(base * (1 + PRICE_NOISE * rng.standard_normal(base.size)))
            else:
                u = setpoints[j][k % len(setpoints[j])]
            t = time.perf_counter()
            try:
                if kind == "price":
                    u = self.call("arbitrage", arbitrage, trees[j].battery, prices,
                                  trees[j].delta).z
                res = self.call("dispatch", dispatch, trees[j], u)
            except FlexError as exc:
                lat[kind].append(time.perf_counter() - t)
                self.checked += 1
                self.insufficient += 1
                self.fail(type(exc).__name__)
                continue
            lat[kind].append(time.perf_counter() - t)
            clamped += len(res.clamped)
            clamp_max = max([clamp_max] + [c[2] for c in res.clamped])
            self.check(fleets[j], trees[j], u, res,
                       adequacy=k < self.size.adequacy_per_tree)
        return {"latencies": lat, "clamped": clamped, "clamp_max": clamp_max}

    # -- checks -----------------------------------------------------------

    def check(self, fleet, tree, u: np.ndarray, res=None, adequacy: bool = True) -> None:
        """Sufficiency of one profile: it dispatches and the schedule is valid,
        which makes the schedule an admissible witness; where asked, the
        adequacy LP must agree independently."""
        phase, self.tracer.phase = self.tracer.phase, "checks"
        self.checked += 1
        try:
            if res is None:
                res = self.call("dispatch", dispatch, tree, u)
            valid = self.call("validate_schedule", validate_schedule, fleet,
                              fleet_order(fleet, res), u, tol=SCHEDULE_TOL).ok
            adequate = not adequacy or self.call("adequacy_lp", adequacy_lp, fleet, u).adequate
        except FlexError as exc:
            self.insufficient += 1
            self.fail(type(exc).__name__)
            return
        finally:
            self.tracer.phase = phase
        if not (valid and adequate):
            self.insufficient += 1
            self.fail("InvalidSchedule" if not valid else "Inadequate")

    def savings(self, fleet, tree) -> float:
        """Arbitrage on the demo curve against charging on arrival; the optimum
        is checked like any other profile."""
        prices = demo_price_curve(self.size.m)
        arb = self.call("arbitrage", arbitrage, tree.battery, prices, tree.delta)
        self.attempted += 1
        self.check(fleet, tree, arb.z)
        baseline = baseline_immediate(fleet, float(arb.z.sum() * tree.delta))
        base_cost = float(prices.prices @ baseline * tree.delta)
        return (base_cost - arb.cost) / base_cost

    # -- the whole run ----------------------------------------------------

    def execute(self, import_s: float) -> dict:
        shape = self.shape
        self.tracer.phase = "setup"
        setup_body = []
        for _ in range(0 if shape.aggregate_in_setup else SETUP_REPEATS - 1):
            t = time.monotonic()
            self.make_fleets(traced=False)
            setup_body.append(time.monotonic() - t)
        t = time.monotonic()
        fleets = self.make_fleets()
        if shape.aggregate_in_setup:
            trees = self.round_trip(self.aggregate_all(fleets))
            setpoints = self.make_setpoints(trees)
        setup_body.append(time.monotonic() - t)
        setup_s = import_s + statistics.median(setup_body)

        if not shape.aggregate_in_setup:
            self.tracer.phase = "aggregate"
            t = time.perf_counter()
            trees = self.aggregate_all(fleets)
            budget = self.seconds - (time.perf_counter() - t)
            self.tracer.phase = "prepare"
            trees = self.round_trip(trees)
            setpoints = self.make_setpoints(trees)
        else:
            budget = self.seconds

        self.tracer.phase = "requests"
        served = self.serve(fleets, trees, setpoints, max(budget, 0.0))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        self.tracer.phase = "checks"
        capture, width, saving = [], [], []
        for j, (fleet, tree) in enumerate(zip(fleets, trees)):
            b = tree.battery
            lo, hi = fleet.total_energy_interval()
            capture.append((b.e_high - b.e_low) / (hi - lo))
            width.append(float(np.sum(b.p_high - b.p_low)))
            saving.append(self.savings(fleet, tree))
            for u in (greedy_profile(b, b.e_high, tree.delta, order="early"),
                      greedy_profile(b, b.e_low, tree.delta, order="late")):
                self.attempted += 1
                self.check(fleet, tree, u)

        lat = served["latencies"]
        n_req = sum(len(v) for v in lat.values())
        end_to_end = {
            "aggregate_s": statistics.fmean(self.agg_s),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
            "energy_capture": statistics.fmean(capture),
            "width_sum_kw": statistics.fmean(width),
            "savings_frac": statistics.fmean(saving),
            "sufficiency_fail_frac": self.insufficient / self.checked,
            "price_req_p50_ms": p50_ms(lat["price"]),
            "price_req_p99_ms": p99_ms(lat["price"]),
            "setpoint_req_p50_ms": p50_ms(lat["setpoint"]),
            "setpoint_req_p99_ms": p99_ms(lat["setpoint"]),
            "requests_per_s": n_req / sum(sum(v) for v in lat.values()),
        }
        trees_counts = {
            "aggregation.stages": sum(t.n_stages for t in trees),
            "aggregation.stage1_groups": sum(t.stage1_groups for t in trees),
            "aggregation.stage1_cohorts": sum(t.stage1_cohorts for t in trees),
        }
        out = {
            "attempted": self.attempted,
            "failed": sum(self.errors.values()),
            "errors": dict(self.errors),
            "end_to_end": end_to_end,
            "counts": {
                **trees_counts,
                "requests.price": len(lat["price"]),
                "requests.setpoint": len(lat["setpoint"]),
                "checked_profiles": self.checked,
                "battery_digest": hashlib.sha256("".join(self.digests).encode()).hexdigest(),
            },
            "size": asdict(self.size),
        }
        if self.traced:
            spans = self.tracer.spans
            layers = layer_metrics(spans, shape.workers)
            layers.update(trees_counts)
            layers.update({
                "aggregation.dispatch_clamped": served["clamped"],
                "aggregation.dispatch_clamp_max": served["clamp_max"],
                "aggregation.tree_bytes": self.tree_bytes,
                "oracle.sufficiency_fail_frac": end_to_end["sufficiency_fail_frac"],
                "oracle.checked_profiles": self.checked,
                "trace.overhead_s": (statistics.fmean(self.agg_s)
                                     - statistics.fmean(self.agg_untraced_s)),
            })
            out["per_layer"] = layers
            out["spans"] = spans
        return out


def write_trace_files(out_path: Path, spans: list) -> None:
    """Spans as JSON lines and the per-LP table as CSV, beside the result."""
    with open(out_path.with_name(out_path.stem + "-spans.jsonl"), "w") as fh:
        for s in spans:
            fh.write(json.dumps(asdict(s), sort_keys=True) + "\n")
    with open(out_path.with_name(out_path.stem + "-lp.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LP_COLUMNS)
        writer.writerows(lp_table(spans))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(SHAPES), required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="bench")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    import_s = time.monotonic() - args.spawned_at

    src = Path(__file__).resolve().parent.parent / "src"
    workdir = args.out.with_name(args.out.stem + "-work")
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if not Path(flexbat.__file__).resolve().is_relative_to(src):
            raise RuntimeError(f"flexbat imported from {flexbat.__file__}, not {src}")
        run = Run(args.workload, SIZES[args.size][args.workload], args.seed,
                  args.seconds, bool(args.trace), workdir)
        with run.tracer.installed():
            result = run.execute(import_s)
    except Exception as exc:
        result = {"error": type(exc).__name__, "traceback": traceback.format_exc()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if "spans" in result:
        write_trace_files(args.out, result.pop("spans"))
    args.out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
