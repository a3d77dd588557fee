"""The benchmark's tracer wraps `liouville` functions by name and reads their results.

Each traced function must exist, and each counter must read a real result.
"""

import ast
import importlib
import importlib.util
import os
import sys

import pytest

from liouville.closure import closure_multid, decompose_measure
from liouville.decider import decide
from liouville.measures import group_support, parse_measure, support_of
from liouville.numerics import density_probe, propagate
from conftest import spec_path

TRACER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")
PROBE_INPUT = os.path.join(os.path.dirname(__file__), "golden", "probe_products.yaml")


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


@pytest.fixture
def tracer(monkeypatch):
    """perfbench/tracer.py loaded from its file path, without importing perfbench."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def load(name):
    with open(spec_path(name)) as fh:
        return parse_measure(fh.read())


def test_tracer_counters_read_real_results(tracer):
    """Each counter the tracer reads off a layer's result, on that layer's real result.

    A renamed result field under src/ fails here instead of in a traced benchmark run.
    """
    counters = tracer._counters
    mu = load("kronecker_rational.yaml")  # (1,0), (0,1), (1/2,1/3) and mirrors
    desc = support_of(mu)
    assert counters("measures.support_of", (mu,), desc) == {"points": 6}
    group = closure_multid(group_support(mu))
    assert counters("closure.closure_multid", (desc,), group) == {"exact": 1}
    dec = decompose_measure(mu, decide(mu).closure)
    assert counters("closure.decompose_measure", (mu, group), dec) == {"cosets": 7, "occupied": 6}
    with open(PROBE_INPUT) as fh:
        probe_group = closure_multid(support_of(parse_measure(fh.read())))
    assert counters("closure.closure_multid", (desc,), probe_group) == {"exact": 0}

    # steps +-1 in a window of radius 3 + 1: 1 + 2n points after layer n
    points = list(support_of(load("discrete_laplacian.yaml")).finite_points)
    state = propagate(points, R=3, n_max=4, grid_div=40)
    assert counters("numerics.propagate", (points,), state) == {
        "points": 9, "iterations": 4, "new": 8, "candidates": 2 * (1 + 2 + 2 + 2),
    }
    probe = density_probe(points, R=3, n_max=20, grid_div=40)
    assert counters("numerics.density_probe", (points,), probe) == {"verdict": "lattice-detected"}
