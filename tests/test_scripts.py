"""Smoke tests of the scripts under scripts/."""

import os
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
