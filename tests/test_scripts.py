"""Smoke tests of the scripts under scripts/."""

import os
import re
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def test_propagation_study(tmp_path):
    # 20 layers: at 12 the pi and 355/113 deltas have not yet separated
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "propagation_study.py"),
         "--n-max", "20", "--out-dir", str(tmp_path)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    verdicts = {line.split()[0]: line.split("probe=")[1].split()[0] for line in proc.stdout.splitlines()}
    assert verdicts == {
        "unit_lattice": "lattice-detected",
        "one_and_sqrt2": "dense-likely",
        "one_and_pi": "dense-likely",
        "one_and_355_113": "lattice-detected",
    }
    for name in verdicts:
        rows = (tmp_path / f"{name}.csv").read_text().splitlines()
        assert rows[0] == "n,points,delta"
        assert [int(r.split(",")[0]) for r in rows[1:]] == list(range(1, 21))


DECISION_TABLE = """\
discrete_laplacian.yaml     d=1  fails   route=lattice lattice=[(1)] counterexample=cos(2*pi*x/(1))
nonstandard_laplacian.yaml  d=1  holds   route=irrational_pair pair=(1, 1*pi)
reciprocal_sequence.yaml    d=1  holds   route=accumulation
growing_sequence.yaml       d=1  holds   route=unbounded_q_sequence q-samples=[(1, 1), (2, 4), (3, 3), (5, 5)]
fractional.yaml             d=1  holds   route=interval_or_ball
relativistic.yaml           d=1  holds   route=interval_or_ball
convolution.yaml            d=1  holds   route=interval_or_ball
sqrt2_pair.yaml             d=1  holds   route=irrational_pair pair=(1, 1*sqrt2)
kronecker_sqrt2_sqrt3.yaml  d=2  holds   route=kronecker
kronecker_sqrt2_sqrt2.yaml  d=2  fails   route=hyperplane lattice=[(1/2, -1/2)] counterexample=cos(2*pi*<(-1, 1), x>/(-1))
kronecker_rational.yaml     d=2  fails   route=lattice lattice=[(1/2, 0), (0, 1/3)] counterexample=cos(2*pi*<(0, 1), x>/(1/3))
mean_value.yaml             d=2  holds   route=interval_or_ball
nonuniform_grid_2d.yaml     d=2  holds   route=irrational_pair
planar_fractional.yaml      d=2  fails   route=hyperplane lattice=[] counterexample=cos(2*pi*<(0, 1), x>/(1))
"""


def test_decision_table():
    proc = subprocess.run(
        [sys.executable, os.path.join(SCRIPTS, "decision_table.py")],
        capture_output=True, text=True, timeout=120, check=True,
    )
    # drop the "[ 1.2 ms]  " timing column
    lines = [re.sub(r"\[\s*[\d.]+ ms\]  ", "", line) for line in proc.stdout.splitlines()]
    assert lines == DECISION_TABLE.splitlines()
