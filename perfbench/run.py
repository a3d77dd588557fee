#!/usr/bin/env python3
"""Benchmark of the `liouville` CLI: planted-answer workloads, timed from outside.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-decide --seed 1 --seconds 20 --trace 0

A single process runs a closed loop with one client: each operation is one
in-process call of `liouville.cli.main([...])` on a generated spec file, timed
around the call, and checked against the answer planted when the input was
generated.  Full passes over the workload's operations repeat until the next
pass would end after `--seconds`, with at least two passes.  The latency of an
operation is the median of its calls, which a stray slow call does not move.
`*_p50` and `*_tail` are taken over operations, and `ops_per_s` is operations
per second of a pass at those latencies.  The JSON carries `setup_s`,
`main_ms_p50`, `ops_per_s` and `peak_rss_mb`; the aux median and the tails
are printed with their percentile and sample count.

All three workloads in one go:

    for w in exact-decide probe-fallback verify-quadrature; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 36 --trace 0; done

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced and
traced passes and prints the per-layer metrics (times and counts per traced
pass) and the tracing overhead (median traced pass minus median untraced
pass).  The last line of standard output is the JSON result; the lines before
it are the human-readable report.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
SPECS = os.path.join(ROOT, "specs")
WORK = os.path.join(HERE, "_work")

BLAS_THREADS = "1"  # one client, no hidden parallelism; at most nproc
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
MIN_PASSES = 2  # so that every latency is a median over the same number of calls or more
COLD_STARTS = 5  # fresh interpreters behind setup_s
IMPORT_RUNS = 3  # fresh interpreters behind the import.* metrics
IMPORTS = ("liouville", "numpy", "scipy", "mpmath")
EVAL_PARTS = ("atoms", "sequence", "radial", "sphere", "affine")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


# -- set-up costs, from fresh interpreters --------------------------------------------


def cold_start_seconds(argv) -> float:
    """Wall time of one CLI call in a fresh interpreter."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-m", "liouville.cli", *argv], cwd=ROOT, env=child_env(),
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=False)
    return time.perf_counter() - t0


def import_times_ms() -> dict:
    """Cumulative import time of each package when a fresh interpreter loads the CLI."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import liouville.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True, check=True)
    return parse_importtime(proc.stderr)


def parse_importtime(text: str) -> dict:
    """ms per package in `python -X importtime` output, summed over the outermost
    entries of the package (an import nested in another of its modules is included)."""
    rows = []  # (depth, name, cumulative us), children listed before their parent
    for line in text.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        rows.append(((len(name) - len(name.lstrip()) - 1) // 2, name.strip(), int(cum)))
    parent = [None] * len(rows)
    stack: list[int] = []
    for i, (depth, _, _) in enumerate(rows):
        while stack and rows[stack[-1]][0] > depth:
            parent[stack.pop()] = i
        stack.append(i)
    out = {}
    for pkg in IMPORTS:
        def mine(i):
            return rows[i][1] == pkg or rows[i][1].startswith(pkg + ".")

        total = 0
        for i in range(len(rows)):
            if not mine(i):
                continue
            j = parent[i]
            while j is not None and not mine(j):
                j = parent[j]
            if j is None:  # outermost import of this package
                total += rows[i][2]
        out[pkg] = total / 1000.0
    return out


# -- operations -----------------------------------------------------------------------


def run_op(cli, op):
    """(seconds, exit code, stdout, stderr, error) for one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(op.argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # the loop must keep running; the failure is counted
            rc, error = None, traceback.format_exc()
        dt = time.perf_counter() - t0
    return dt, rc, out.getvalue(), err.getvalue(), error


def check(op, rc, stdout, stderr, error):
    """(ok, facts) for one result, judged against the planted answer."""
    facts = {"certified": False, "bound_misses": 0, "evaluations": 0}
    if error is not None:
        return False, facts
    if op.kind == "decide":
        facts["certified"] = rc in (0, 10)
        if rc == 20:
            return op.uncertified_ok, facts
        return rc == {"holds": 0, "fails": 10}[op.plant], facts
    if op.kind == "decompose":
        listed = sum(int(line.split(":")[1]) for line in stdout.splitlines()
                     if line.strip().startswith("atom_count:"))
        return rc == 10 and listed == op.atoms, facts
    if op.kind == "propagate":
        rows = [line.split(",") for line in stdout.splitlines()[1:] if line]
        ok = rc == 0 and stdout.startswith("n,points,delta") and rows and "probe:" in stderr
        if ok:
            ns = [int(r[0]) for r in rows]
            sizes = [int(r[1]) for r in rows]
            deltas = [float(r[2]) for r in rows]
            ok = ns == list(range(1, len(rows) + 1)) and sizes == sorted(sizes) and min(deltas) > 0
        return bool(ok), facts
    # verify: values against independent references, at the planted points
    if rc != 0:
        return False, facts
    evaluations = json.loads(stdout)["evaluations"]
    if len(evaluations) != len(op.points):
        return False, facts
    ok = True
    for (key, text), x, ref in zip(evaluations.items(), op.points, op.references):
        got_x = [float(c) for c in key[len("x=("):-1].split(",")]
        _, value, _, bound = text.split()
        value, bound = float(value), float(bound)
        facts["evaluations"] += 1
        facts["bound_misses"] += abs(value - float(ref)) > bound
        ok = ok and got_x == [float(c) for c in x] and math.isfinite(value) and math.isfinite(bound)
    return ok, facts


# -- statistics -----------------------------------------------------------------------


def tail(values):
    """(percentile, value) of the highest percentile with at least 10 samples beyond it,
    or of the maximum when there are 10 samples or fewer."""
    s = sorted(values)
    n = len(s)
    if n <= 10:
        return 100.0, s[-1]
    return 100.0 * (n - 10) / n, s[n - 11]


def summary(per_op_ms):
    vals = list(per_op_ms)
    p, t = tail(vals)
    return {"n": len(vals), "p50": statistics.median(vals), "tail": t, "tail_pct": p}


# -- the run --------------------------------------------------------------------------


def run_pass(cli, ops, samples, results, tracer=None):
    t0 = time.perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.op = op.id
        for _ in range(op.repeat):
            dt, rc, stdout, stderr, error = run_op(cli, op)
            samples[op.id].append(dt * 1000.0)
            ok, facts = check(op, rc, stdout, stderr, error)
            results.append((op, ok, facts, error))
    return time.perf_counter() - t0


def warm_up(cli):
    """Load what the CLI imports lazily, so no timed operation pays for it once."""
    quiet = io.StringIO()
    with contextlib.redirect_stdout(quiet), contextlib.redirect_stderr(quiet):
        cli.main(["propagate", os.path.join(SPECS, "kronecker_rational.yaml"), "--R", "2", "--n-max", "3"])
        cli.main(["verify", os.path.join(SPECS, "fractional.yaml"), "--points", "1"])
        cli.main(["decompose", os.path.join(SPECS, "discrete_laplacian.yaml")])


def header(args, cli_module):
    import mpmath
    import numpy
    import scipy

    return [
        f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}",
        f"python {platform.python_version()}  numpy {numpy.__version__}  scipy {scipy.__version__}"
        f"  mpmath {mpmath.__version__}  nproc {os.cpu_count()}  blas_threads {BLAS_THREADS}",
        f"program {os.path.relpath(cli_module.__file__, ROOT)}  loop: closed, 1 client, in-process cli.main",
    ]


def smallest_spec():
    names = sorted(f for f in os.listdir(SPECS) if f.endswith(".yaml"))
    return min(names, key=lambda f: (os.path.getsize(os.path.join(SPECS, f)), f))


def end_to_end(ops, samples, results, wall, setup_s):
    per_op = {op.id: statistics.median(samples[op.id]) for op in ops}
    main = summary(per_op[op.id] for op in ops if op.role == "main")
    aux = summary(per_op[op.id] for op in ops if op.role == "aux")
    metrics = {
        "setup_s": (setup_s, "s"),
        "main_ms_p50": (main["p50"], "ms"),
        "ops_per_s": (1000.0 * len(ops) / sum(per_op.values()), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [
        f"main ops: n={main['n']}  main_ms_tail {main['tail']:.4f} ms (p{main['tail_pct']:.0f})",
        f"aux ops: n={aux['n']}  aux_ms_p50 {aux['p50']:.4f} ms  aux_ms_tail {aux['tail']:.4f} ms (p{aux['tail_pct']:.0f})",
        f"closed-loop throughput over all passes: {len(results) / wall:.4f} ops/s",
    ]
    for kind in ("decide", "decompose", "propagate", "verify"):
        vals = [per_op[op.id] for op in ops if op.kind == kind]
        if vals:
            s = summary(vals)
            lines.append(f"  {kind}_ms_p50 {s['p50']:.4f} ms (n={s['n']})   {kind}_ms_tail {s['tail']:.4f} ms (p{s['tail_pct']:.0f}, n={s['n']})")
    for op in ops:
        if op.baseline:
            lines.append(f"  baseline row {op.label} ({op.kind}): {per_op[op.id]:.1f} ms here; ROADMAP: {op.baseline}")
    return metrics, lines


def quality(results):
    decides = [r for r in results if r[0].kind == "decide"]
    certified = sum(1 for r in decides if r[2]["certified"])
    evaluations = sum(r[2]["evaluations"] for r in results)
    misses = sum(r[2]["bound_misses"] for r in results)
    failed = sum(1 for r in results if not r[1])
    failed_or_missed = sum(1 for r in results if not r[1] or r[2]["bound_misses"])
    by_part: dict = {}
    for op, _, facts, _ in results:
        if op.kind == "verify":
            m, n = by_part.get(op.part, (0, 0))
            by_part[op.part] = (m + facts["bound_misses"], n + facts["evaluations"])
    lines = [f"certified_share {certified / len(decides):.4f} of {len(decides)} decide ops"
             " (when this benchmark was added: 1 on exact-decide, 0 on probe-fallback)"] if decides else []
    lines += [
        f"failed_share {failed_or_missed / len(results):.4f} of {len(results)} ops"
        f" (raised, unexpected exit, contradicted plant, or a verify value outside its own bound; when this benchmark was added: about 0.3 on verify-quadrature)",
        f"  of which operational failures {failed}: the JSON 'failed' count (bound misses are measured, not failed)",
        f"  verify bound misses {misses} of {evaluations} evaluations (|value - reference| > reported bound)",
    ]
    for part, (m, n) in sorted(by_part.items()):
        lines.append(f"    {part}: {m} of {n}")
    return failed, lines, {
        "certified_share": certified / len(decides) if decides else 0.0,
        "bound_miss_share": misses / evaluations if evaluations else 0.0,
    }


def baseline_rows(tracer, ops):
    """The ROADMAP baseline rows at the layer the ROADMAP timed them."""
    lines = []
    for op in ops:
        if not op.baseline:
            continue
        for name in ("numerics.propagate", "closure.decompose_measure", "numerics.eval_operator"):
            spans = [s for s in tracer.spans if s.op == op.id and s.name == name]
            if spans:
                work = "".join(f", {k} {v}" for k, v in spans[0].counters.items() if k in ("points", "cosets"))
                lines.append(f"  baseline row {op.label}: {name} {statistics.median(s.ns for s in spans) / 1e6:.1f} ms"
                             f" per call ({len(spans)} calls{work}); ROADMAP: {op.baseline}")
    return lines


def per_layer(tracer, passes, ops, qual, imports, overhead_ms, overhead_share):
    by_id = {op.id: op for op in ops}
    self_ns = tracer.self_ns()
    agg: dict = {}
    for s, own in zip(tracer.spans, self_ns):
        a = agg.setdefault(s.name, {"ns": 0, "self": 0, "calls": 0, "c": {}})
        a["ns"] += s.ns
        a["self"] += own
        a["calls"] += 1
        for k, v in s.counters.items():
            if isinstance(v, (int, float)):
                a["c"][k] = a["c"].get(k, 0) + v

    def ms(name, key="ns"):
        return agg.get(name, {}).get(key, 0) / 1e6 / passes

    def count(name, key):
        return agg.get(name, {}).get("c", {}).get(key, 0) / passes

    def ratio(a, b):
        return a / b if b else 0.0

    rl_self = sum(a["self"] for n, a in agg.items() if n.startswith("ratlinalg.")) / 1e6 / passes
    rl_calls = sum(a["calls"] for n, a in agg.items() if n.startswith("ratlinalg.")) / passes
    probes = [(s, by_id[s.op]) for s in tracer.spans if s.name == "numerics.density_probe"]
    agree = sum(1 for s, op in probes if s.counters.get("verdict") == {"holds": "dense-likely", "fails": "lattice-detected"}.get(op.plant))
    m = {f"import.{pkg}.ms": (imports[pkg], "ms") for pkg in IMPORTS}
    m.update({
        "cli.main.self_ms": (ms("cli.main", "self"), "ms"),
        "measures.parse_measure.ms": (ms("measures.parse_measure"), "ms"),
        "measures.support_of.ms": (ms("measures.support_of"), "ms"),
        "measures.support_of.points": (count("measures.support_of", "points"), "count"),
        "decider.decide.self_ms": (ms("decider.decide", "self") + ms("decider.decide_1d", "self"), "ms"),
        "closure.closure_multid.self_ms": (ms("closure.closure_multid", "self"), "ms"),
        "closure.closure_1d.self_ms": (ms("closure.closure_1d", "self"), "ms"),
        "closure.closure_multid.exact_share": (ratio(count("closure.closure_multid", "exact"), agg.get("closure.closure_multid", {}).get("calls", 0) / passes), "ratio"),
        "ratlinalg.self_ms": (rl_self, "ms"),
        "ratlinalg.calls": (rl_calls, "count"),
        "closure.orthogonalize.ms": (ms("closure.orthogonalize"), "ms"),
        "closure.hyperplane_certificate.ms": (ms("closure.hyperplane_certificate"), "ms"),
        "counterexample.build_counterexample.ms": (ms("counterexample.build_counterexample"), "ms"),
        "closure.decompose_measure.ms": (ms("closure.decompose_measure"), "ms"),
        "closure.decompose_measure.cosets": (count("closure.decompose_measure", "cosets"), "count"),
        "closure.decompose_measure.occupied_ratio": (ratio(count("closure.decompose_measure", "occupied"), count("closure.decompose_measure", "cosets")), "ratio"),
        "numerics.propagate.ms": (ms("numerics.propagate"), "ms"),
        "numerics.propagate.points": (count("numerics.propagate", "points"), "count"),
        "numerics.propagate.iterations": (count("numerics.propagate", "iterations"), "count"),
        "numerics.propagate.new_point_ratio": (ratio(count("numerics.propagate", "new"), count("numerics.propagate", "candidates")), "ratio"),
        "numerics.density_probe.self_ms": (ms("numerics.density_probe", "self"), "ms"),
        "numerics.density_probe.agree_ratio": (ratio(agree, len(probes)), "ratio"),
    })
    for part in EVAL_PARTS:
        ns = sum(s.ns for s in tracer.spans if s.name == "numerics.eval_operator" and by_id[s.op].part == part)
        m[f"numerics.eval_operator.{part}.ms"] = (ns / 1e6 / passes, "ms")
    m["numerics.eval_operator.bound_miss_share"] = (qual["bound_miss_share"], "ratio")
    m["decider.certified_share"] = (qual["certified_share"], "ratio")
    m["trace.overhead_ms"] = (overhead_ms, "ms")
    m["trace.overhead_share"] = (overhead_share, "ratio")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_VARS:  # before numpy is first imported
        os.environ[var] = BLAS_THREADS
    if not os.path.isfile(os.path.join(SRC, "liouville", "cli.py")) or not os.path.isdir(SPECS):
        print(f"error: run from the root of a liouville checkout (no src/liouville or specs/ in {ROOT})",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads
    from liouville import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported liouville from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    report = header(args, cli)

    cheapest = smallest_spec()
    setup_argv = (["verify", os.path.join("specs", cheapest), "--points", "1"]
                  if args.workload == "verify-quadrature" else ["decide", os.path.join("specs", cheapest)])
    setup_s = statistics.median(cold_start_seconds(setup_argv) for _ in range(COLD_STARTS))
    report.append(f"setup_s: median of {COLD_STARTS} fresh interpreters running `liouville {' '.join(setup_argv)}`")

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ops = workloads.WORKLOADS[args.workload](args.seed, workdir, SPECS)
    warm_up(cli)

    samples = {op.id: [] for op in ops}
    results = []
    if args.trace:
        from tracer import Tracer

        imports = {pkg: statistics.median(v) for pkg, v in zip(
            IMPORTS, zip(*(import_times_ms().values() for _ in range(IMPORT_RUNS))))}
        tracer = Tracer()
        untraced, traced = [], []
        start = time.perf_counter()
        while True:  # alternate untraced and traced passes
            untraced.append(run_pass(cli, ops, samples, []))
            tracer.install()
            try:
                traced.append(run_pass(cli, ops, {op.id: [] for op in ops}, results, tracer))
            finally:
                tracer.uninstall()
            if time.perf_counter() - start + untraced[-1] + traced[-1] > args.seconds:
                break
        tracer.write(os.path.join(workdir, "spans.jsonl"))
        failed, qlines, qual = quality(results)
        u, t = statistics.median(untraced), statistics.median(traced)
        metrics = per_layer(tracer, len(traced), ops, qual, imports, (t - u) * 1000.0, (t - u) / u)
        report += qlines + baseline_rows(tracer, ops)
        report.append(f"per-layer times and counts: per traced pass, mean of {len(traced)}")
        report.append(f"tracing overhead: median traced pass {t:.3f} s - median untraced pass {u:.3f} s; "
                      f"{len(tracer.spans)} spans written to {os.path.relpath(workdir, ROOT)}/spans.jsonl")
    else:
        start = time.perf_counter()
        passes = 0
        wall = 0.0
        while True:
            took = run_pass(cli, ops, samples, results)
            wall += took
            passes += 1
            if passes >= MIN_PASSES and time.perf_counter() - start + took > args.seconds:
                break
        metrics, lines = end_to_end(ops, samples, results, wall, setup_s)
        failed, qlines, _ = quality(results)
        report.append(f"{passes} passes over {len(ops)} operations in {wall:.3f} s")
        report += lines + qlines

    for op, ok, _, error in results:
        if not ok:
            report.append(f"FAILED {op.kind} {op.label}" + (f": {error.strip().splitlines()[-1]}" if error else ""))
    for name, (value, unit) in metrics.items():
        report.append(f"{name:44s} {value:.6g} {unit}")
    print("\n".join(report))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
