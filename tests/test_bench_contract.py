"""The benchmark's tracer wraps `liouville` functions by name; each must exist."""

import ast
import importlib
import os

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def traced_names():
    """The TRACED table of perfbench/tracer.py, read from its source without running it."""
    with open(TRACER) as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TRACED table")


def test_every_traced_function_resolves():
    traced = traced_names()
    assert "decider" in traced and "ratlinalg" in traced
    missing = [
        f"{layer}.{name}"
        for layer, names in traced.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"liouville.{layer}"), name, None))
    ]
    assert missing == []
