"""Tests of the benchmark itself, at the tiny size.

    python3 -m pytest -q bench/test_bench.py
"""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from runner import Run  # noqa: E402
from spans import WRAPPED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 3) -> tuple[dict, dict]:
    """Run one tiny workload through run.py; the final line and the result file."""
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = BENCH / "results" / f"{workload}-tiny-seed{seed}-trace{trace}.json"
    return line, json.loads(result.read_text())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.SHAPES)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == workloads.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == workloads.PER_LAYER
    assert SPEC["command"] == ["python3", "bench/run.py"]


@pytest.mark.parametrize("workload", list(workloads.SHAPES))
def test_tiny_run_prints_every_metric_and_is_sufficient(workload):
    line, result = bench(workload, trace=0)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] > 0
    assert list(line["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert all(v["value"] > 0 for v in line["metrics"].values())
    assert result["end_to_end"]["sufficiency_fail_frac"] == 0
    assert result["env"]["workers"] == workloads.SHAPES[workload].workers

    traced_line, traced = bench(workload, trace=1)
    assert traced_line["correct"]
    assert list(traced_line["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    fixed = ("battery_digest", "aggregation.stages", "aggregation.stage1_groups",
             "aggregation.stage1_cohorts")
    assert [traced["counts"][k] for k in fixed] == [result["counts"][k] for k in fixed]


def test_same_seed_same_battery_digest():
    _, first = bench("demo", trace=0, seed=5)
    _, again = bench("demo", trace=0, seed=5)
    assert first["counts"]["battery_digest"] == again["counts"]["battery_digest"]


def test_traced_run_restores_every_wrapped_attribute():
    originals = {(mod, attr): getattr(importlib.import_module(mod), attr)
                 for mod, attr, _, _ in WRAPPED}
    workdir = BENCH / "results" / "inproc-work"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        r = Run("operate", workloads.SIZES["tiny"]["operate"], 1, 0.2, True, workdir)
        with r.tracer.installed():
            for (mod, attr), orig in originals.items():
                assert getattr(importlib.import_module(mod), attr) is not orig
            out = r.execute(import_s=0.0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for (mod, attr), orig in originals.items():
        assert getattr(importlib.import_module(mod), attr) is orig
    assert out["failed"] == 0
    assert {s.name for s in out["spans"]} >= {"linprog", "solve_lp", "build_app",
                                              "eliminate", "solve_app", "aggregate"}


def test_refuses_more_workers_than_processors(monkeypatch, capsys):
    monkeypatch.setattr(workloads, "nproc", lambda: 1)
    assert run.main(["--workload", "depot", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_refuses_a_directory_without_the_program():
    bare = BENCH / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for f in BENCH.glob("*.py"):
            shutil.copy(f, bare / "bench")
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "demo",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""
