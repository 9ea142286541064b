"""The benchmark harness under perfbench/ against this checkout: its tracer
self-checks pass, every function it traces exists, and every isackit call
in its workloads binds to the current signature. A refactor that drops or
renames a traced function, a parameter or a keyword fails here instead of
in the benchmark run. This file only reads perfbench/."""

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


def _isackit_calls():
    """(dotted name, call node) of each call in perfbench/workloads.py whose
    callee is reached through an `from isackit import m [as alias]` name."""
    tree = ast.parse((PERFBENCH / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name: alias.name
               for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module == "isackit"
               for alias in node.names}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        attrs, func = [], node.func
        while isinstance(func, ast.Attribute):
            attrs.append(func.attr)
            func = func.value
        if attrs and isinstance(func, ast.Name) and func.id in modules:
            yield ".".join([modules[func.id]] + attrs[::-1]), node


def test_every_workload_call_binds_to_the_current_signature():
    calls = list(_isackit_calls())
    assert len(calls) >= 30
    for name, call in calls:
        module, *path = name.split(".")
        target = importlib.import_module(f"isackit.{module}")
        for attr in path:
            target = getattr(target, attr)
        signature = inspect.signature(target)
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        args = [None] * sum(not isinstance(a, ast.Starred) for a in call.args)
        kwargs = {k.arg: None for k in call.keywords if k.arg is not None}
        bind = signature.bind_partial if starred else signature.bind
        try:
            bind(*args, **kwargs)
        except TypeError as exc:
            raise AssertionError(f"workloads.py:{call.lineno} {name}: {exc}") from None
