"""Command-line front end: decide, closure, decompose, counterexample, propagate, verify.

Reports are deterministic key/value documents with a stable field order; all
floats print with 17 significant digits so repeated runs are diffable.  Exit
codes: 0 = Liouville holds, 10 = fails, 20 = uncertified, 2 = input error,
1 = the reader of stdout closed it early (e.g. `liouville ... | head`).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import logging
import os
import sys
from datetime import datetime, timezone

from . import __version__
from .closure import closure_multid, decompose_measure
from .decider import decide
from .exactreal import format_coordinate, format_point
from .measures import MeasureSpecError, group_support, parse_measure, support_of

log = logging.getLogger("liouville")

EXIT_HOLDS = 0
EXIT_FAILS = 10
EXIT_UNCERTIFIED = 20
EXIT_INPUT_ERROR = 2
EXIT_BROKEN_PIPE = 1
_UNCERTIFIED = "verdict uncertified: only the numerical probe ran, so no answer is certified"


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


class Report:
    """Ordered key/value tree rendered as indented text or JSON."""

    def __init__(self):
        self.items: list[tuple[str, object]] = []

    def add(self, key, value):
        self.items.append((key, value))
        return self

    def section(self, key):
        r = Report()
        self.items.append((key, r))
        return r

    def render(self, indent=0) -> str:
        out = []
        pad = "  " * indent
        for k, v in self.items:
            if isinstance(v, Report):
                out.append(f"{pad}{k}:")
                out.append(v.render(indent + 1))
            elif isinstance(v, (list, tuple)):
                out.append(f"{pad}{k}: [" + ", ".join(_fmt(x) for x in v) + "]")
            else:
                out.append(f"{pad}{k}: {_fmt(v)}")
        return "\n".join(out)

    def to_dict(self):
        """The items as a dict; a key that repeats maps to the list of its values."""
        d = {}
        for k, v in self.items:
            d.setdefault(k, []).append(v.to_dict() if isinstance(v, Report) else (
                list(v) if isinstance(v, (list, tuple)) else v
            ))
        return {k: vs[0] if len(vs) == 1 else vs for k, vs in d.items()}


def _load(path: str, args=None):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    override = "strict" if getattr(args, "strict_symmetry", False) else None
    return text, parse_measure(text, symmetry_override=override)


def _emit(report: Report, args) -> None:
    if getattr(args, "format", "report") == "json":
        text = json.dumps(report.to_dict(), indent=2, sort_keys=False)
    else:
        text = report.render()
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path, header, rows) -> None:
    """A header line and one line per row, each cell through `_fmt`, to path or stdout."""
    text = "".join(",".join(map(_fmt, row)) + "\n" for row in [header, *rows])
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _header(text: str) -> Report:
    """A report that starts with the tool version and the digest of the input spec."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return Report().add("tool", f"liouville {__version__}").add("input_digest", digest)


def _add_closure(r: Report, group) -> None:
    """The closure V + lattice: both dimensions, then the V basis and the lattice basis."""
    r.add("v_dimension", group.v_dim)
    r.add("lattice_rank", group.lattice_rank)
    for v in group.v_basis:
        r.add("v_basis_vector", format_point(v))
    for v in group.lambda_basis:
        r.add("lattice_basis_vector", format_point(v))


def _verdict_report(text, verdict, args) -> Report:
    r = _header(text)
    if not getattr(args, "no_timestamp", False):
        r.add("generated_at", datetime.now(timezone.utc).isoformat())
    r.add("dimension", verdict.dimension)
    r.add("verdict", verdict.verdict_word)
    r.add("route", verdict.route)
    for a in verdict.assumptions:
        r.add("assumption", a)
    if verdict.certified:
        s = r.section("closure")
        s.add("provenance", verdict.closure.provenance)
        _add_closure(s, verdict.closure)
    if verdict.certificate is not None:
        s = r.section("hyperplane_certificate")
        s.add("normal", format_point(verdict.certificate.normal))
        s.add("c", format_point(verdict.certificate.c))
        s.add("exact", True)  # a certificate is built and validated in exact arithmetic
    if verdict.counterexample is not None:
        s = r.section("counterexample")
        s.add("kind", verdict.counterexample.kind)
        s.add("closed_form", verdict.counterexample.closed_form)
    if verdict.witness:
        s = r.section("witness")
        for k, v in verdict.witness.items():
            if k == "pair":
                s.add("pair", format_point(v))
            elif k == "samples":
                s.add("q_samples", [f"n={n}:q={q}" for n, q in v])
            elif k == "c":
                for c in v:
                    s.add("kronecker_c", format_point(c))
            elif k == "accumulation_points":
                for p in v:
                    s.add("accumulation_point", format_point(p))
            else:
                s.add(k, str(v))
    if not verdict.certified:
        s = r.section("probe")
        probe = verdict.closure.probe
        s.add("verdict", probe.verdict if probe else "unavailable")
        if probe is not None:
            s.add("deltas", [float(d) for d in probe.deltas])
            if probe.g_estimate is not None:
                from .numerics import SNAP_TOL

                s.add("g_estimate", probe.g_estimate)
                s.add("g_estimate_tolerance", SNAP_TOL)
    return r


def cmd_decide(args) -> int:
    text, mu = _load(args.spec, args)
    verdict = decide(mu)
    report = _verdict_report(text, verdict, args)
    _emit(report, args)
    if not verdict.certified:
        return EXIT_UNCERTIFIED
    return EXIT_HOLDS if verdict.holds else EXIT_FAILS


def cmd_closure(args) -> int:
    text, mu = _load(args.spec, args)
    group = closure_multid(group_support(mu))
    r = _header(text)
    r.add("dimension", group.dimension)
    r.add("provenance", group.provenance)
    r.add("route", group.route)
    _add_closure(r, group)
    if group.probe is not None:
        r.add("probe_verdict", group.probe.verdict)
    _emit(r, args)
    return EXIT_HOLDS if group.is_certified() else EXIT_UNCERTIFIED


def cmd_decompose(args) -> int:
    text, mu = _load(args.spec, args)
    verdict = decide(mu)
    if verdict.holds or not verdict.certified:
        why = "measure has a dense support group" if verdict.certified else _UNCERTIFIED
        print(f"{why}; nothing to decompose", file=sys.stderr)
        return EXIT_INPUT_ERROR
    dec = decompose_measure(mu, verdict.closure)
    r = _header(text)
    r.add("v_dimension", dec.group.v_dim)
    r.add("lattice_rank", dec.group.lattice_rank)
    for v in dec.group.lambda_basis:
        r.add("lattice_basis_vector", format_point(v))
    r.add("separation", dec.separation)
    r.add("mass_off_origin_bound", dec.mass_off_origin_bound)
    parts = r.section("parts")
    for key, pt, atoms in zip(dec.coset_keys, dec.coset_points, dec.parts):
        s = parts.section("a=" + format_point(pt) if key else "a=0 " + format_point(pt))
        s.add("lattice_coordinates", list(key) if key else [0])
        s.add("atom_count", len(atoms))
        for p, w in atoms:
            s.add("atom", f"{format_point(p)} weight {format_coordinate(w)}")
    _emit(r, args)
    return EXIT_FAILS


def cmd_counterexample(args) -> int:
    text, mu = _load(args.spec, args)
    verdict = decide(mu)
    if verdict.holds or not verdict.certified:
        why = "Liouville holds; no counterexample exists" if verdict.certified else _UNCERTIFIED
        print(why, file=sys.stderr)
        return EXIT_INPUT_ERROR
    import numpy as np

    ce = verdict.counterexample
    r = _header(text)
    r.add("kind", ce.kind)
    r.add("closed_form", ce.closed_form)
    rng = np.random.default_rng(args.seed)
    pts = rng.uniform(-5, 5, size=(args.points, mu.dimension))
    rows = [(*map(float, p), float(ce.value(p))) for p in pts]
    table = r.section("samples")
    for *x, u in rows:
        table.add("x=(" + ", ".join(map(_fmt, x)) + ")", u)
    _emit(r, args)
    if args.csv:
        _write_csv(args.csv, [f"x{i+1}" for i in range(mu.dimension)] + ["u"], rows)
    return EXIT_FAILS


def cmd_propagate(args) -> int:
    from .numerics import classify_propagation, density_probe, propagate

    text, mu = _load(args.spec, args)
    desc = support_of(mu)
    if not desc.finite_points:
        print("no finite support points to propagate", file=sys.stderr)
        return EXIT_INPUT_ERROR
    points = list(desc.finite_points)
    state = propagate(
        points,
        R=args.R,
        n_max=args.n_max,
        target_delta=args.target_delta,
        grid_div=args.grid_div,
    )
    probe_layers = min(args.n_max, 40)
    if state.n >= probe_layers or state.flagged_partial:
        probe = classify_propagation(state.prefix(probe_layers))
    else:  # --target-delta stopped the CSV run before the probe's layer count
        probe = density_probe(points, R=args.R, n_max=probe_layers, grid_div=args.grid_div)
    _write_csv(args.out, ["n", "points", "delta"], state.csv_rows())
    print(f"probe: {probe.verdict}", file=sys.stderr)
    if probe.g_estimate is not None:
        print(f"g_estimate: {_fmt(probe.g_estimate)}", file=sys.stderr)
    return EXIT_HOLDS


def cmd_verify(args) -> int:
    import numpy as np

    from .numerics import OperatorEvaluator, builtin_function, eval_operator

    text, mu = _load(args.spec, args)
    u = builtin_function(args.function, mu.dimension)
    ev = OperatorEvaluator(
        measure=mu,
        r0=args.r0,
        nodes_per_decade=args.quad_nodes,
        truncation=args.truncation_N,
    )
    rng = np.random.default_rng(args.seed)
    pts = rng.uniform(-2, 2, size=(args.points, mu.dimension))
    r = _header(text)
    r.add("function", args.function)
    r.add("r0", args.r0)
    rows = []
    for p in pts:
        x = tuple(map(float, p))
        res = eval_operator(ev, u, x)
        rows.append((*x, res.value, res.bound))
    values, bounds = np.array([row[-2:] for row in rows]).T
    r.add("max_abs_value", float(np.max(np.abs(values))))  # a nan row makes its maximum nan
    r.add("max_bound", float(np.max(bounds)))
    table = r.section("evaluations")
    for *x, v, b in rows:
        table.add("x=(" + ", ".join(map(_fmt, x)) + ")", f"value {_fmt(v)} bound {_fmt(b)}")
    _emit(r, args)
    if args.csv:
        _write_csv(args.csv, [f"x{i+1}" for i in range(mu.dimension)] + ["value", "bound"], rows)
    return EXIT_HOLDS


@functools.cache  # one parser per process: parse_args leaves it unchanged
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liouville",
        description="Decide the Liouville property of symmetric nonlocal operators.",
    )
    ap.add_argument("--version", action="version", version=f"liouville {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("spec", help="measure-spec file (YAML)")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=["report", "json"], default="report")
        p.add_argument("--no-timestamp", action="store_true", help="omit generated_at")
        p.add_argument(
            "--strict-symmetry",
            dest="strict_symmetry",
            action="store_true",
            help="reject asymmetric atom lists instead of completing mirrors",
        )

    p = sub.add_parser("decide", help="full Liouville decision with certificates")
    common(p)

    p = sub.add_parser("closure", help="closure of the generated subgroup")
    common(p)

    p = sub.add_parser("decompose", help="lattice decomposition of a failing measure")
    common(p)

    p = sub.add_parser("counterexample", help="explicit bounded nonconstant solution")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--points", type=int, default=16)
    p.add_argument("--csv", help="write a sample table CSV")

    p = sub.add_parser("propagate", help="propagation-of-maximum diagnostics CSV")
    p.add_argument("spec")
    p.add_argument("--R", type=float, default=5.0)
    p.add_argument("--n-max", dest="n_max", type=int, default=40)
    p.add_argument("--target-delta", dest="target_delta", type=float, default=None)
    p.add_argument("--grid-div", dest="grid_div", type=int, default=200)
    p.add_argument("--out", help="CSV output path")

    p = sub.add_parser("verify", help="evaluate L^mu[u] on a named test function")
    common(p)
    p.add_argument("--function", default="cos")
    p.add_argument("--points", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--r0", type=float, default=1.0)
    p.add_argument("--quad-nodes", dest="quad_nodes", type=int, default=64)
    p.add_argument("--truncation-N", dest="truncation_N", type=int, default=None)
    p.add_argument("--csv", help="write per-evaluation CSV")

    return ap


_COMMANDS = {
    "decide": cmd_decide,
    "closure": cmd_closure,
    "decompose": cmd_decompose,
    "counterexample": cmd_counterexample,
    "propagate": cmd_propagate,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    level = os.environ.get("LIOUVILLE_LOG", "WARNING").upper()
    try:
        logging.basicConfig(level=level)
    except ValueError:
        print(f"error: LIOUVILLE_LOG names no logging level: {level!r}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    ap = build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "points", 1) < 1:  # verify and counterexample
        print("error: --points must be at least 1", file=sys.stderr)
        return EXIT_INPUT_ERROR
    try:
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout's reader is gone; point stdout at devnull so that the interpreter's
        # final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MemoryError:  # propagate keeps every point within R + the longest step
        print("error: out of memory; for propagate, lower --R or --n-max", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except MeasureSpecError as exc:
        print(f"error: invalid measure spec: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
