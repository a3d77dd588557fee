"""Golden reports: `decide` and `decompose` on every bundled spec.

Each file under tests/golden/ holds the exit code, stdout and stderr of one
`liouville <command> specs/<spec>.yaml --no-timestamp` run.  The closure engine
may change how it reaches a verdict, but not a byte of these reports.
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
COMMANDS = ("decide", "decompose")


def capture(command: str, spec: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, os.path.join(SPEC_DIR, spec + ".yaml"), "--no-timestamp"])
    return f"exit_code: {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def golden_path(command: str, spec: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{spec}.{command}.txt")


def test_every_spec_has_golden_files():
    assert len(SPECS) == 14
    for spec in SPECS:
        for command in COMMANDS:
            assert os.path.exists(golden_path(command, spec))


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("spec", SPECS)
def test_report_matches_golden(command, spec):
    with open(golden_path(command, spec), "r", encoding="utf-8", newline="") as fh:
        expected = fh.read()
    assert capture(command, spec) == expected


if __name__ == "__main__":
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for spec in SPECS:
        for command in COMMANDS:
            with open(golden_path(command, spec), "w", encoding="utf-8", newline="") as fh:
                fh.write(capture(command, spec))
