"""The benchmark harness under perfbench/ against this checkout: its tracer
self-checks pass, and every function it traces exists. A refactor that drops
or renames a traced function fails here instead of in the benchmark run.
This file only reads perfbench/."""

import ast
import importlib
import inspect
from pathlib import Path

from helpers import run_python

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _traced_names():
    """The TARGETS tuple of perfbench/layers.py, read without importing it."""
    tree = ast.parse((PERFBENCH / "layers.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/layers.py defines no TARGETS")


def test_perfbench_selftest_passes():
    out = run_python([str(PERFBENCH / "selftest.py")])
    assert out.count("ok  ") >= 4


def test_every_traced_name_is_an_isackit_function():
    names = _traced_names()
    assert names
    for name in names:
        module, _, attr = name.rpartition(".")
        func = getattr(importlib.import_module(f"isackit.{module}"), attr, None)
        assert inspect.isfunction(func), name
