"""Golden reports: `decide`, `decompose` and `closure` on every bundled spec, `propagate`, `verify`.

Each file under tests/golden/ holds the exit code, stdout and stderr of one
`liouville <command> specs/<spec>.yaml --no-timestamp` run.  The closure engine
may change how it reaches a verdict, but not a byte of these reports.

The propagate files hold the CSV (stdout) and the probe lines (stderr) of
`liouville propagate` on every bundled spec with finite support points at a small
window, and at the configurations of the probe-fallback benchmark workload.  The
sequence specs are left out: with their 2,000 and 200 steps each run takes
minutes and gigabytes even at the small window.  `probe_products.decide.txt` and
`probe_products.closure.txt` are the reports of an input the exact closure cannot
decide, with the probe deltas.

The verify files hold `liouville verify --no-timestamp --points 4 --seed 1` with
`cos` on every bundled spec, `harmonic_xy` on `mean_value`, and three non-default
quadrature configurations: a node count whose half does not nest in it
(`--quad-nodes 33`), a split radius off the default (`--r0 0.37`) and a sequence
truncation (`--truncation-N 77`).  Three more cover the point buffers of full-dimensional
kernels in d >= 2: `tests/golden/fractional_2d.yaml` (alpha = 1.5, `--points 1`),
`tests/golden/convolution_3d.yaml` (gaussian profile) and `gaussian` on
`planar_fractional`, which takes its gradient by finite differences.  Values and bounds
are floats printed in full, so these files pin every float operation of the quadrature.

Regenerate after an intended report change with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import contextlib
import io
import os
import sys

import pytest

from liouville.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC_DIR = os.path.join(HERE, "..", "specs")
GOLDEN_DIR = os.path.join(HERE, "golden")
SPECS = sorted(f[:-5] for f in os.listdir(SPEC_DIR) if f.endswith(".yaml"))
COMMANDS = ("decide", "decompose", "closure")


def spec_path(spec: str) -> str:
    return os.path.join(SPEC_DIR, spec + ".yaml")


SMALL_WINDOW = ["--R", "3", "--n-max", "6", "--grid-div", "40"]
FINITE_SPECS = (
    "discrete_laplacian",
    "kronecker_rational",
    "kronecker_sqrt2_sqrt2",
    "kronecker_sqrt2_sqrt3",
    "nonstandard_laplacian",
    "nonuniform_grid_2d",
    "sqrt2_pair",
)
# golden name -> propagate arguments after the spec path
PROPAGATE_CASES = {f"{spec}.propagate": (spec, SMALL_WINDOW) for spec in FINITE_SPECS}
PROPAGATE_CASES.update({
    "nonuniform_grid_2d.propagate-R3-n30-g100": (
        "nonuniform_grid_2d", ["--R", "3", "--n-max", "30", "--grid-div", "100"]),
    "kronecker_sqrt2_sqrt3.propagate-R3-n12-g60": (
        "kronecker_sqrt2_sqrt3", ["--R", "3", "--n-max", "12", "--grid-div", "60"]),
    "kronecker_rational.propagate-R3-n20-g60": (
        "kronecker_rational", ["--R", "3", "--n-max", "20", "--grid-div", "60"]),
    "sqrt2_pair.propagate-R5-n40": ("sqrt2_pair", ["--R", "5", "--n-max", "40"]),
    "discrete_laplacian.propagate-R5-n40": ("discrete_laplacian", ["--R", "5", "--n-max", "40"]),
})
PROBE_INPUT = os.path.join(GOLDEN_DIR, "probe_products.yaml")
PROBE_COMMANDS = ("decide", "closure")
FRACTIONAL_2D = os.path.join(GOLDEN_DIR, "fractional_2d.yaml")
CONVOLUTION_3D = os.path.join(GOLDEN_DIR, "convolution_3d.yaml")

VERIFY_ARGS = ["--no-timestamp", "--points", "4", "--seed", "1"]
# golden name -> (input path, verify arguments after VERIFY_ARGS; a later option wins)
VERIFY_CASES = {f"{spec}.verify": (spec_path(spec), []) for spec in SPECS}
VERIFY_CASES.update({
    "mean_value.verify-harmonic_xy": (spec_path("mean_value"), ["--function", "harmonic_xy"]),
    "fractional.verify-quad-nodes-33": (spec_path("fractional"), ["--quad-nodes", "33"]),
    "relativistic.verify-r0-0.37": (spec_path("relativistic"), ["--r0", "0.37"]),
    "growing_sequence.verify-truncation-N-77": (
        spec_path("growing_sequence"), ["--truncation-N", "77"]),
    "fractional_2d.verify-points-1": (FRACTIONAL_2D, ["--points", "1"]),
    "convolution_3d.verify": (CONVOLUTION_3D, []),
    "planar_fractional.verify-gaussian": (spec_path("planar_fractional"), ["--function", "gaussian"]),
})


def run(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return f"exit_code: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def capture(command: str, spec: str) -> str:
    return run([command, spec_path(spec), "--no-timestamp"])


def capture_propagate(name: str) -> str:
    spec, extra = PROPAGATE_CASES[name]
    return run(["propagate", spec_path(spec)] + extra)


def capture_verify(name: str) -> str:
    path, extra = VERIFY_CASES[name]
    return run(["verify", path] + VERIFY_ARGS + extra)


def capture_probe(command: str) -> str:
    return run([command, PROBE_INPUT, "--no-timestamp"])


def golden_path(command: str, spec: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{spec}.{command}.txt")


def read_golden(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


def write_golden(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def test_every_spec_has_golden_files():
    assert len(SPECS) == 14
    for spec in SPECS:
        for command in COMMANDS:
            assert os.path.exists(golden_path(command, spec))


def test_every_golden_file_is_a_captured_case():
    names = {f"{spec}.{command}" for command in COMMANDS for spec in SPECS}
    names |= {f"probe_products.{command}" for command in PROBE_COMMANDS}
    names |= set(PROPAGATE_CASES) | set(VERIFY_CASES)
    inputs = (PROBE_INPUT, FRACTIONAL_2D, CONVOLUTION_3D)
    expected = {name + ".txt" for name in names} | {os.path.basename(p) for p in inputs}
    assert sorted(set(os.listdir(GOLDEN_DIR)) - expected) == []


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("spec", SPECS)
def test_report_matches_golden(command, spec):
    assert capture(command, spec) == read_golden(golden_path(command, spec))


@pytest.mark.parametrize("name", sorted(PROPAGATE_CASES))
def test_propagate_matches_golden(name):
    assert capture_propagate(name) == read_golden(os.path.join(GOLDEN_DIR, name + ".txt"))


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_matches_golden(name):
    assert capture_verify(name) == read_golden(os.path.join(GOLDEN_DIR, name + ".txt"))


def test_probe_decide_matches_golden():
    assert capture_probe("decide") == read_golden(golden_path("decide", "probe_products"))


def test_probe_closure_matches_golden():
    assert capture_probe("closure") == read_golden(golden_path("closure", "probe_products"))


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for spec in SPECS:
        for command in COMMANDS:
            write_golden(golden_path(command, spec), capture(command, spec))
    for name in PROPAGATE_CASES:
        write_golden(os.path.join(GOLDEN_DIR, name + ".txt"), capture_propagate(name))
    for name in VERIFY_CASES:
        write_golden(os.path.join(GOLDEN_DIR, name + ".txt"), capture_verify(name))
    for command in PROBE_COMMANDS:
        write_golden(golden_path(command, "probe_products"), capture_probe(command))
