"""The benchmark under bench/ imports flexbat names and times layers by
replacing module attributes; these tests keep both working."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from flexbat import lp, projection
from flexbat.geometry import VirtualBattery
from flexbat.projection import LiftedPolytope

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _flexbat_imports():
    tree = ast.parse((BENCH / "runner.py").read_text())
    return [(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            and node.module.split(".")[0] == "flexbat"
            for alias in node.names]


def test_bench_runner_imports_resolve():
    names = _flexbat_imports()
    assert ("flexbat.cli", "save_battery") in names
    for module, name in names:
        assert hasattr(importlib.import_module(module), name), f"{module}.{name}"


def test_bench_wrapped_attributes_resolve(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    for module, attr, *_ in spans.WRAPPED:
        assert callable(getattr(importlib.import_module(module), attr)), f"{module}.{attr}"


@pytest.mark.parametrize("solve, builder", [("solve_app", "build_app")])
def test_solves_call_builder_and_solver_by_module_attribute(monkeypatch, solve, builder):
    """The solve looks up its builder and the solver on their modules, so the
    benchmark's wrappers see every call, and the benchmark reads the lifted
    system's sizes from the solve's first positional argument."""
    calls = []

    def count(module, attr):
        real = getattr(module, attr)

        def wrapper(*args, **kwargs):
            calls.append(attr)
            return real(*args, **kwargs)

        monkeypatch.setattr(module, attr, wrapper)

    count(projection, builder)
    count(lp, "solve_lp")
    lifted = LiftedPolytope(b=np.array([[-0.5, -1.0], [0.6, 1.0], [-1.0, -1.0]]),
                            c=np.array([-9.0, 10.0, -10.0]), m=1, m_tilde=1)
    nominal = VirtualBattery([-0.5], [1.0], -0.5, 1.0)
    getattr(projection, solve)(lifted, nominal)
    assert calls == [builder, "solve_lp"]
    monkeypatch.syspath_prepend(str(BENCH))
    spans = importlib.import_module("spans")
    assert spans._lifted_args((lifted, nominal), {}) == {"m": 1, "m_tilde": 1, "n_rows": 3}
