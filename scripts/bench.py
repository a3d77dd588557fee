#!/usr/bin/env python3
"""Run the benchmark's workloads end to end and record them in one JSON file.

The command, the run length and the workload names come from BENCHMARK.json.
Each workload is one run of that command with `--trace 0`, from the root of the
checkout, at the fixed seed SEED.  The output file holds the JSON result line
of every run, keyed by workload, and the Python, numpy and scipy versions and
the CPU count:

    python3 scripts/bench.py --out BENCH_8.json

Compare two checkouts on the same machine.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from importlib.metadata import version

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SEED = 1


def run_workload(command, workload: str, seconds) -> dict:
    """The JSON result of one benchmark run: the last line of its stdout."""
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(SEED), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="JSON file to write, e.g. BENCH_8.json")
    args = ap.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    bench = {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "cpu_count": os.cpu_count(),
        "seed": SEED,
        "seconds": spec["run_seconds"],
        "results": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        result = run_workload(spec["command"], workload, spec["run_seconds"])
        print(workload, json.dumps(result), flush=True)
        bench["results"][workload] = result
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
