"""Outside tracer: spans around the public functions of each `liouville` layer.

Nothing under `src/` changes.  `Tracer.install` rebinds each traced function in
every `liouville.*` module namespace that holds it, so both `module.func(...)`
calls and names imported with `from .x import func` go through the wrapper;
`uninstall` puts the originals back.  Spans (name, start, end, parent, operation
id, counters) stay in memory until the run writes them out.

`exactreal` has no span of its own: its calls are too fine-grained to time from
outside, so its cost shows in the self time of its callers.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from dataclasses import dataclass, field

# (module, function) pairs traced, by layer
TRACED = {
    "cli": ("main",),
    "measures": ("parse_measure", "support_of"),
    "decider": ("decide", "decide_1d"),
    "closure": (
        "closure_1d",
        "closure_multid",
        "orthogonalize",
        "hyperplane_certificate",
        "decompose_measure",
    ),
    "counterexample": ("build_counterexample",),
    "numerics": ("propagate", "density_probe", "eval_operator"),
    "ratlinalg": (
        "rref", "rank", "solve", "nullspace", "left_dependency", "clear_denominators",
        "hnf_columns", "hnf_lattice", "integer_kernel", "congruence_lattice",
        "lattice_member", "gram", "shortest_vector", "complete_primitive",
        "invert_unimodular",
    ),
}


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None
    counters: dict = field(default_factory=dict)

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


def _counters(name, args, result) -> dict:
    """Work counts read off a layer call's arguments and result."""
    if name == "measures.support_of":
        return {"points": len(result.finite_points)}
    if name == "closure.closure_multid":
        return {"exact": int(result.provenance == "exact")}
    if name == "closure.decompose_measure":
        keys = result.coset_keys
        return {"cosets": len(keys), "occupied": sum(1 for part in result.parts if part)}
    if name == "numerics.propagate":
        pts = args[0]
        steps = len({p for p in pts} | {tuple(-c for c in p) for p in pts})
        sizes = [1] + list(result.sizes)
        new = [b - a for a, b in zip(sizes, sizes[1:])]
        frontier = [1] + new[:-1]  # points added in the previous step
        return {
            "points": sizes[-1],
            "iterations": result.n,
            "new": sum(new),
            "candidates": steps * sum(frontier),
        }
    if name == "numerics.density_probe":
        return {"verdict": result.verdict}
    return {}


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self.op: int | None = None

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[idx] = Span(name, start, time.perf_counter_ns(), parent, self.op, {"raised": 1})
                raise
            finally:
                stack.pop()
            end = time.perf_counter_ns()
            spans[idx] = Span(name, start, end, parent, self.op, _counters(name, args, result))
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "liouville" or n.startswith("liouville.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"liouville.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def self_ns(self) -> list[int]:
        """Per span: duration minus the time covered by its child spans."""
        out = [s.ns for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                out[s.parent] -= s.ns
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([s.name, s.start_ns, s.end_ns, s.parent, s.op, s.counters]) + "\n")
