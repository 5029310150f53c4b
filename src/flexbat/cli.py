"""End-user commands: generation, aggregation, arbitrage, dispatch, checks.

Exit codes: 0 ok, 2 validation failure, 3 degenerate aggregation, 4 I/O.
Worker-pool width comes from --workers or the FLEX_WORKERS environment
variable. Arbitrage is solved in closed form, not by an LP solver, so
--dump-lp writes only the aggregation's LPs, and only while its command
runs. Files go through the shared JSON and slot-CSV functions in `fleet`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import lp
from .aggregation import (AggregateConfig, aggregate, dispatch, load_tree,
                          save_tree)
from .errors import (EmptyBattery, EmptyOrDegenerate, FlexError,
                     LengthMismatch, ParseError, TargetOutOfRange,
                     ValidationError)
from .fleet import (Fleet, generate_fleet, load_fleet, load_schedule,
                    read_json, read_slots, save_fleet, save_schedule,
                    write_json, write_slots)
from .geometry import VirtualBattery
from .oracle import adequacy_lp, adequacy_thm1, validate_schedule


@dataclass(frozen=True)
class PriceSeries:
    """Per-slot energy prices in $/kWh (negative prices are legal)."""

    prices: np.ndarray
    source: str = ""

    def __post_init__(self):
        p = np.asarray(self.prices, dtype=float).ravel()
        if not np.isfinite(p).all():
            raise ValidationError("prices must be finite")
        p.setflags(write=False)
        object.__setattr__(self, "prices", p)

    @property
    def m(self) -> int:
        return self.prices.size


@dataclass(frozen=True)
class ArbitrageResult:
    z: np.ndarray                  # optimal aggregate profile, kW
    cost: float                    # $
    baseline_profile: Optional[np.ndarray] = None
    baseline_cost: Optional[float] = None
    savings_fraction: Optional[float] = None


def load_prices(path: str, unit: str = "mwh", m: Optional[int] = None) -> PriceSeries:
    """Read a `slot,price` CSV; $/MWh input is converted to $/kWh."""
    if unit not in ("mwh", "kwh"):
        raise ValidationError(f"unknown price unit {unit!r} (use mwh or kwh)")
    scale = 1e-3 if unit == "mwh" else 1.0
    return PriceSeries(read_slots(path, m, column="price") * scale,
                       source=os.path.basename(path))


def arbitrage(battery: VirtualBattery, prices: PriceSeries,
              delta: float = 1.0) -> ArbitrageResult:
    """Cheapest aggregate profile inside the battery: minimize price . z.

    The battery is a box cut by one energy interval, so this LP is a
    fractional knapsack and is solved exactly without a solver: start at
    p_low, then fill slots up to p_high in ascending price order (ties in
    slot order) until the energy floor is met, and beyond it only while
    the price is negative and the energy ceiling allows.
    """
    if prices.m != battery.m:
        raise LengthMismatch(f"{prices.m} prices for a {battery.m}-slot battery")
    delta = float(delta)
    if not (np.isfinite(delta) and delta > 0):
        raise ValidationError(f"slot length must be finite and positive, got {delta}")
    lo, hi, p = battery.p_low, battery.p_high, prices.prices
    tol = 1e-9 * max(1.0, abs(battery.e_low), abs(battery.e_high))
    if delta * lo.sum() > battery.e_high + tol or delta * hi.sum() < battery.e_low - tol:
        raise EmptyBattery(
            f"energy interval [{battery.e_low}, {battery.e_high}] kWh out of reach "
            f"of the power bounds at slot length {delta}")
    room = np.maximum(hi - lo, 0.0)
    need = battery.e_low / delta - lo.sum()      # summed power to add, at least
    cap = battery.e_high / delta - lo.sum()      # summed power to add, at most
    added = min(max(room[p < 0].sum(), need), cap)
    # an interval missed by less than tol leaves z at p_low or at p_high
    added = min(max(added, 0.0), room.sum())
    order = np.argsort(p, kind="stable")
    room_sorted = room[order]
    before = np.concatenate(([0.0], np.cumsum(room_sorted)[:-1]))
    z = lo.copy()
    z[order] += np.clip(added - before, 0.0, room_sorted)
    return ArbitrageResult(z=z, cost=float(p @ z * delta))


def baseline_immediate(fleet: Fleet, target_total_energy: float) -> np.ndarray:
    """Aggregate profile of charge-at-arrival-until-done, at equal total energy.

    Per-task targets interpolate each energy interval by the common fraction
    theta that makes the fleet total match `target_total_energy`.
    """
    lo_sum, hi_sum = fleet.total_energy_interval()
    if not lo_sum - 1e-6 <= target_total_energy <= hi_sum + 1e-6:
        raise TargetOutOfRange(
            f"target {target_total_energy} outside [{lo_sum}, {hi_sum}]")
    theta = 0.0 if hi_sum <= lo_sum else (target_total_energy - lo_sum) / (hi_sum - lo_sum)
    theta = min(max(theta, 0.0), 1.0)
    profile = np.zeros(fleet.m)
    for task in fleet.tasks:
        energy = task.e_low + theta * (task.e_high - task.e_low)
        per_slot = task.p * fleet.delta
        full = int(energy // per_slot)
        rem = energy - full * per_slot
        full = min(full, task.window_length)
        profile[task.a - 1:task.a - 1 + full] += task.p
        if rem > 1e-12 and full < task.window_length:
            profile[task.a - 1 + full] += rem / fleet.delta
    return profile


def demo_price_curve(m: int) -> PriceSeries:
    """Synthetic two-valley day-ahead curve ($/MWh), noon-anchored.

    Evening peak around slot 7, a deep overnight valley around slot 15,
    and a shallow early-afternoon dip around slot 2.
    """
    t = np.arange(1, m + 1, dtype=float)
    mwh = (42.0
           + 15.0 * np.exp(-((t - 7.0) / 3.0) ** 2)
           - 30.0 * np.exp(-((t - 15.0) / 2.8) ** 2)
           - 12.0 * np.exp(-((t - 2.0) / 1.5) ** 2))
    return PriceSeries(mwh * 1e-3, source="synthetic-two-valley")


def write_profile(profile: np.ndarray, path: str) -> None:
    write_slots(path, {"power_kw": profile})


def read_profile(path: str, m: Optional[int] = None) -> np.ndarray:
    return read_slots(path, m)


def save_battery(battery: VirtualBattery, path: str) -> None:
    write_json(path, battery.to_dict())


def load_battery(path: str) -> VirtualBattery:
    return read_json(path, VirtualBattery.from_dict)


def run_pipeline(fleet: Fleet, prices: PriceSeries, config: AggregateConfig, outdir: str) -> dict:
    """Aggregate, optimize, dispatch, verify; write the full report bundle."""
    os.makedirs(outdir, exist_ok=True)
    if prices.m != fleet.m:
        raise LengthMismatch(f"{prices.m} prices for horizon {fleet.m}")
    tree = aggregate(fleet, config)
    battery = tree.battery
    save_battery(battery, os.path.join(outdir, "battery.json"))
    save_tree(tree, os.path.join(outdir, "tree.json"))

    arb = arbitrage(battery, prices, fleet.delta)
    target = float(arb.z.sum() * fleet.delta)
    baseline = baseline_immediate(fleet, target)
    baseline_cost = float(prices.prices @ baseline * fleet.delta)
    savings = 0.0 if baseline_cost == 0 else (baseline_cost - arb.cost) / baseline_cost
    arb = replace(arb, baseline_profile=baseline, baseline_cost=baseline_cost,
                  savings_fraction=savings)
    write_profile(arb.z, os.path.join(outdir, "profile.csv"))

    result = dispatch(tree, arb.z)
    save_schedule(result.task_ids, result.schedule, os.path.join(outdir, "schedule.csv"))

    id_order = {t.id: i for i, t in enumerate(fleet.tasks)}
    ordered = np.zeros_like(result.schedule)
    for tid, row in zip(result.task_ids, result.schedule):
        ordered[id_order[tid]] = row
    report_v = validate_schedule(fleet, ordered, arb.z)
    adequacy = adequacy_lp(fleet, arb.z)
    membership = battery.contains(arb.z, delta=fleet.delta)

    write_slots(os.path.join(outdir, "bounds.csv"),
                {"p_low_kw": battery.p_low, "p_high_kw": battery.p_high})
    write_slots(os.path.join(outdir, "profile_vs_price.csv"),
                {"power_kw": arb.z, "price_per_kwh": prices.prices})

    fleet_lo, fleet_hi = fleet.total_energy_interval()
    report = {
        "fleet": {"n": fleet.n, "m": fleet.m, "delta_h": fleet.delta,
                  "energy_interval_kwh": [fleet_lo, fleet_hi]},
        "aggregation": {
            "stages": tree.n_stages,
            "stage1_groups": tree.stage1_groups,
            "stage1_cohorts": tree.stage1_cohorts,
            "battery_energy_kwh": [battery.e_low, battery.e_high],
            "config": tree.config,
        },
        "arbitrage": {
            "cost_usd": arb.cost,
            "baseline_cost_usd": arb.baseline_cost,
            "savings_fraction": arb.savings_fraction,
            "total_energy_kwh": target,
            "price_source": prices.source,
        },
        "verification": {
            "schedule_valid": report_v.ok,
            "schedule_max_column_error": report_v.max_column_error,
            "adequate": adequacy.adequate,
            "battery_membership": membership,
            "clamped_entries": len(result.clamped),
        },
    }
    report["verification"]["green"] = bool(
        report_v.ok and adequacy.adequate and membership)
    write_json(os.path.join(outdir, "report.json"), report)
    return report


def _workers_default() -> int:
    raw = os.environ.get("FLEX_WORKERS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValidationError(f"FLEX_WORKERS must be a positive integer, got {raw!r}")
    return workers


def _config_from_args(args) -> AggregateConfig:
    workers = _workers_default() if args.workers is None else args.workers
    return AggregateConfig(
        group_size=args.group_size, fanout=args.fanout, policy=args.policy,
        seed=args.seed, workers=workers)


def _add_aggregate_knobs(parser, seed_default=None):
    parser.add_argument("--group-size", type=int, default=10)
    parser.add_argument("--fanout", type=int, default=11)
    parser.add_argument("--policy", choices=("random", "window-sorted"),
                        default="window-sorted")
    parser.add_argument("--seed", type=int, default=seed_default)
    parser.add_argument("--workers", type=int, default=None,
                        help="worker-pool width (default: FLEX_WORKERS, else 1)")
    parser.add_argument("--dump-lp", metavar="DIR", default=None,
                        help="write every solved LP as text into DIR")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flex",
        description="Virtual-battery aggregation and dispatch of deferrable loads")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-fleet", help="generate a random fleet JSON")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, default=24)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--out", required=True)

    p = sub.add_parser("aggregate", help="aggregate a fleet into one battery")
    p.add_argument("--fleet", required=True)
    p.add_argument("--out", required=True, help="tree JSON output")
    p.add_argument("--battery", required=True, help="battery JSON output")
    _add_aggregate_knobs(p)

    p = sub.add_parser("arbitrage", help="optimize a battery against prices")
    p.add_argument("--battery", required=True)
    p.add_argument("--prices", required=True)
    p.add_argument("--price-unit", choices=("mwh", "kwh"), default="mwh")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--out-profile", required=True)

    p = sub.add_parser("dispatch", help="split an aggregate profile to tasks")
    p.add_argument("--tree", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--out", required=True, help="schedule CSV output")

    p = sub.add_parser("verify", help="validate a schedule against a fleet")
    p.add_argument("--fleet", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--tol", type=float, default=1e-6)

    p = sub.add_parser("oracle", help="adequacy verdict for a profile")
    p.add_argument("--fleet", required=True)
    p.add_argument("--profile", required=True)
    p.add_argument("--method", choices=("lp", "thm1"), default="lp")

    p = sub.add_parser("demo", help="seeded end-to-end pipeline run")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--m", type=int, default=24)
    p.add_argument("--outdir", default="demo_out")
    _add_aggregate_knobs(p, seed_default=42)

    return parser


def _cmd_gen_fleet(args) -> int:
    fleet = generate_fleet(args.n, args.m, args.seed, delta=args.delta)
    save_fleet(fleet, args.out)
    print(f"wrote {args.out}: {fleet.n} tasks over {fleet.m} slots")
    return 0


def _cmd_aggregate(args) -> int:
    config = _config_from_args(args)
    if args.dump_lp:
        lp.set_dump_dir(args.dump_lp)
    fleet = load_fleet(args.fleet)
    tree = aggregate(fleet, config)
    save_tree(tree, args.out)
    save_battery(tree.battery, args.battery)
    print(f"wrote {args.out} and {args.battery} "
          f"({tree.n_stages} stages, {tree.stage1_groups} groups, "
          f"{tree.stage1_cohorts} cohorts after stage 1)")
    return 0


def _cmd_arbitrage(args) -> int:
    battery = load_battery(args.battery)
    prices = load_prices(args.prices, unit=args.price_unit, m=battery.m)
    result = arbitrage(battery, prices, delta=args.delta)
    write_profile(result.z, args.out_profile)
    print(f"wrote {args.out_profile}: cost {result.cost:.4f} $, "
          f"energy {result.z.sum() * args.delta:.3f} kWh")
    return 0


def _cmd_dispatch(args) -> int:
    tree = load_tree(args.tree)
    profile = read_profile(args.profile, m=tree.m)
    result = dispatch(tree, profile)
    save_schedule(result.task_ids, result.schedule, args.out)
    print(f"wrote {args.out}: {len(result.task_ids)} task rows"
          + (f", {len(result.clamped)} clamped entries" if result.clamped else ""))
    return 0


def _cmd_verify(args) -> int:
    fleet = load_fleet(args.fleet)
    ids, schedule = load_schedule(args.schedule)
    profile = read_profile(args.profile, m=fleet.m)
    id_order = {t.id: i for i, t in enumerate(fleet.tasks)}
    missing = [tid for tid in id_order if tid not in set(ids)]
    if missing or len(ids) != fleet.n:
        raise ValidationError(f"schedule rows do not match fleet tasks "
                              f"(missing {missing[:3]}...)" if missing else
                              "schedule has extra rows")
    ordered = np.zeros((fleet.n, fleet.m))
    for tid, row in zip(ids, schedule):
        ordered[id_order[tid]] = row
    report = validate_schedule(fleet, ordered, profile, tol=args.tol)
    out = {
        "ok": report.ok,
        "max_column_error": report.max_column_error,
        "violations": [
            {"kind": v.kind, "task_id": v.task_id, "slot": v.slot,
             "magnitude": v.magnitude}
            for v in report.violations
        ],
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0 if report.ok else 2


def _cmd_oracle(args) -> int:
    fleet = load_fleet(args.fleet)
    profile = read_profile(args.profile, m=fleet.m)
    if args.method == "lp":
        verdict = adequacy_lp(fleet, profile)
    else:
        verdict = adequacy_thm1(fleet, profile)
    out = {"method": args.method, "adequate": verdict.adequate}
    if verdict.violated is not None:
        alpha, beta = verdict.violated
        out["violated"] = {"alpha_task_indices": list(alpha), "beta_slots": list(beta)}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_demo(args) -> int:
    config = _config_from_args(args)
    if args.dump_lp:
        lp.set_dump_dir(args.dump_lp)
    fleet = generate_fleet(args.n, args.m, args.seed)
    prices = demo_price_curve(args.m)
    os.makedirs(args.outdir, exist_ok=True)
    save_fleet(fleet, os.path.join(args.outdir, "fleet.json"))
    write_slots(os.path.join(args.outdir, "lmp.csv"), {"price": prices.prices * 1e3})
    report = run_pipeline(fleet, prices, config, args.outdir)
    green = report["verification"]["green"]
    print(f"demo report: cost {report['arbitrage']['cost_usd']:.2f} $ vs "
          f"baseline {report['arbitrage']['baseline_cost_usd']:.2f} $ "
          f"({100 * report['arbitrage']['savings_fraction']:.1f}% savings); "
          f"verification {'green' if green else 'RED'}")
    return 0 if green else 2


_COMMANDS = {
    "gen-fleet": _cmd_gen_fleet,
    "aggregate": _cmd_aggregate,
    "arbitrage": _cmd_arbitrage,
    "dispatch": _cmd_dispatch,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "demo": _cmd_demo,
}


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ParseError, LengthMismatch, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except EmptyOrDegenerate as exc:
        print(f"error: degenerate aggregation: {exc}", file=sys.stderr)
        return 3
    except FlexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        lp.set_dump_dir(None)


if __name__ == "__main__":
    sys.exit(main())
