"""Run one workload of the flexbat benchmark and print its metrics.

    python3 bench/run.py --workload demo --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The workload runs in a child process with a
wall-clock limit; a timeout or an exception there is a failed run. The
result, with an environment stamp, goes to bench/results/, and the last line
of standard output is one JSON object: correct, attempted, failed, metrics.
With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones from a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

from workloads import END_TO_END, PER_LAYER, REPORTED, SHAPES, SIZES, env_stamp

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FLEX_WORKERS", None)   # workers are set per workload, explicitly
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, out: Path, limit_s: float) -> dict:
    cmd = [sys.executable, str(BENCH / "runner.py"), "--workload", args.workload,
           "--size", args.size, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    out.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(spawned)], env=child_env(),
                            stdout=sys.stderr, cwd=ROOT)
    try:
        code = proc.wait(timeout=limit_s)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return {"error": "Timeout", "limit_s": limit_s}
    if not out.exists():
        return {"error": f"ChildExit{code}"}
    return json.loads(out.read_text())


def report(result: dict, trace: int) -> dict:
    """The final line: every metric the mode promises, or none on failure."""
    failed = "error" in result
    units = PER_LAYER if trace else END_TO_END
    values = {} if failed else (result["per_layer"] if trace else result["end_to_end"])
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items() if name in values}
    n_failed = 1 if failed else result["failed"]
    return {"correct": not failed and n_failed == 0 and len(metrics) == len(units),
            "attempted": max(1, result.get("attempted", 1)),
            "failed": n_failed, "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="flexbat benchmark, one workload per run")
    ap.add_argument("--workload", choices=sorted(SHAPES), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(SIZES), default="bench",
                    help="bench (default), paper (the n=100 reference runs) or tiny")
    args = ap.parse_args(argv)
    started = time.monotonic()

    if not (ROOT / "src" / "flexbat" / "__init__.py").is_file():
        print(f"error: no flexbat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    stamp = env_stamp(ROOT, args.workload, args.size, args.seed, args.seconds,
                      bool(args.trace))
    if stamp["workers"] > stamp["nproc"]:
        print(f"error: workload {args.workload} needs {stamp['workers']} workers, "
              f"this machine has {stamp['nproc']} processors", file=sys.stderr)
        return 2

    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    out = results / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    limit = SIZES[args.size][args.workload].limit_s - (time.monotonic() - started)
    result = run_child(args, out, limit)
    result["env"] = stamp
    out.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")

    line = report(result, args.trace)
    if "error" in result:
        print(f"{args.workload}: FAILED with {result['error']}", file=sys.stderr)
    else:
        shown = {**END_TO_END, **REPORTED} if not args.trace else PER_LAYER
        values = result["end_to_end"] if not args.trace else result["per_layer"]
        for name, unit in shown.items():
            print(f"{args.workload:8s} {name:32s} {values[name]:>16.6g} {unit}")
        for name, value in sorted(result["counts"].items()):
            print(f"{args.workload:8s} {name:32s} {value!s:>16}")
        if result["errors"]:
            print(f"{args.workload:8s} errors {result['errors']}")
    print(json.dumps(line))
    return 1 if "error" in result else 0


if __name__ == "__main__":
    sys.exit(main())
