import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import liouville
from liouville import cli, numerics
from liouville.cli import main
from liouville.measures import parse_measure, support_of
from conftest import SPEC_DIR, spec_path

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def density_probe_verdict(spec, R, n_max, grid_div):
    with open(spec_path(spec)) as fh:
        points = list(support_of(parse_measure(fh.read())).finite_points)
    return numerics.density_probe(points, R=R, n_max=n_max, grid_div=grid_div).verdict


class TestExitCodes:
    def test_fails_exit_10(self, capsys):
        code, out, _ = run(capsys, "decide", spec_path("discrete_laplacian.yaml"), "--no-timestamp")
        assert code == 10
        assert "verdict: fails" in out
        assert "cos(2*pi*x/(1))" in out

    def test_holds_exit_0(self, capsys):
        code, out, _ = run(capsys, "decide", spec_path("nonstandard_laplacian.yaml"), "--no-timestamp")
        assert code == 0
        assert "route: irrational_pair" in out

    def test_malformed_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("dimension: [unclosed\n")
        code, _, err = run(capsys, "decide", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(capsys, "decide", "/nonexistent/x.yaml")
        assert code == 2

    def test_uncertified_exit_20(self, tmp_path, capsys):
        # off-axis incommensurable directions: probe-only
        text = """\
dimension: 2
constants:
  - {name: sqrt2, value: "1.41421356237309504880168872420969807856967187537695"}
  - {name: sqrt3, value: "1.73205080756887729352744634150587236694280525381038"}
atoms:
  - {point: ["1*sqrt2", "1"], weight: "1"}
  - {point: ["1", "1*sqrt3"], weight: "1"}
  - {point: ["1*sqrt2 + 1*sqrt3", "3"], weight: "1"}
"""
        spec = tmp_path / "probe.yaml"
        spec.write_text(text)
        code, out, _ = run(capsys, "decide", str(spec), "--no-timestamp")
        assert code == 20
        assert "verdict: uncertified" in out

    def test_zero_atom_message(self, tmp_path, capsys):
        spec = tmp_path / "zero.yaml"
        spec.write_text('dimension: 1\natoms:\n  - {point: ["0"], weight: "1"}\n')
        code, _, err = run(capsys, "decide", str(spec))
        assert code == 2
        assert "zero atom" in err

    def test_unreadable_number_names_its_entry(self, tmp_path, capsys):
        spec = tmp_path / "alpha.yaml"
        spec.write_text("dimension: 1\ncontinuous: [{kind: fractional, alpha: abc}]\n")
        code, out, err = run(capsys, "decide", str(spec))
        assert (code, out) == (2, "")
        assert err == "error: invalid measure spec: continuous[0]: bad number for alpha: 'abc'\n"


class TestParserReuse:
    """`cli.main` builds its parser once per process; a reused parser acts like a fresh one."""

    @staticmethod
    def call(*argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def test_consecutive_calls_match_a_fresh_parser(self):
        calls = [
            ("decide",),  # usage error: the spec is missing
            ("--version",),
            ("decide", spec_path("discrete_laplacian.yaml"), "--no-timestamp"),
        ]
        fresh = []
        for argv in calls:
            cli.build_parser.cache_clear()
            fresh.append(self.call(*argv))
        assert cli.build_parser() is cli.build_parser()
        reused = [self.call(*argv) for argv in calls]
        assert reused == fresh
        usage, version, decided = reused
        assert usage[0] == 2 and usage[1] == "" and "usage: liouville decide" in usage[2]
        assert version == (0, f"liouville {liouville.__version__}\n", "")
        assert decided[0] == 10 and "verdict: fails" in decided[1] and decided[2] == ""


class TestDeterminism:
    def test_byte_identical_reports(self, capsys):
        # timestamp excluded via --no-timestamp; otherwise byte-identical
        _, first, _ = run(capsys, "decide", spec_path("kronecker_sqrt2_sqrt2.yaml"), "--no-timestamp")
        _, second, _ = run(capsys, "decide", spec_path("kronecker_sqrt2_sqrt2.yaml"), "--no-timestamp")
        assert first == second

    def test_timestamp_line_is_the_only_difference(self, capsys):
        _, first, _ = run(capsys, "decide", spec_path("discrete_laplacian.yaml"))
        _, second, _ = run(capsys, "decide", spec_path("discrete_laplacian.yaml"))
        strip = lambda s: [l for l in s.splitlines() if not l.startswith("generated_at")]
        assert strip(first) == strip(second)


class TestReportFormat:
    def test_json_sections_and_types(self, capsys):
        _, out, _ = run(
            capsys, "decide", spec_path("kronecker_rational.yaml"), "--no-timestamp",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["verdict"] == "fails"
        assert doc["route"] == "lattice"
        assert doc["hyperplane_certificate"]["exact"] is True
        assert doc["closure"]["lattice_rank"] == 2

    def test_json_format(self, capsys):
        _, out, _ = run(
            capsys, "decide", spec_path("discrete_laplacian.yaml"), "--no-timestamp",
            "--format", "json",
        )
        doc = json.loads(out)
        assert doc["verdict"] == "fails"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.txt"
        code = main(
            ["decide", spec_path("discrete_laplacian.yaml"), "--no-timestamp", "--out", str(target)]
        )
        assert code == 10
        assert "verdict: fails" in target.read_text()


class TestOtherCommands:
    def test_closure_command(self, capsys):
        code, out, _ = run(capsys, "closure", spec_path("kronecker_rational.yaml"), "--no-timestamp")
        assert code == 0
        assert "lattice_rank: 2" in out

    def test_decompose_command(self, capsys):
        code, out, _ = run(capsys, "decompose", spec_path("discrete_laplacian.yaml"), "--no-timestamp")
        assert code == 10
        assert "separation" in out
        assert "weight 1" in out

    def test_decompose_rejects_dense(self, capsys):
        code, _, err = run(capsys, "decompose", spec_path("fractional.yaml"), "--no-timestamp")
        assert code == 2
        assert "dense" in err

    @pytest.mark.parametrize("command", ["decompose", "counterexample"])
    def test_uncertified_verdict_is_named(self, capsys, command):
        probe_input = os.path.join(os.path.dirname(__file__), "golden", "probe_products.yaml")
        code, out, err = run(capsys, command, probe_input, "--no-timestamp")
        assert code == 2
        assert out == ""
        assert "uncertified" in err
        assert "dense" not in err and "no counterexample exists" not in err

    def test_counterexample_rejects_dense(self, capsys):
        code, _, err = run(capsys, "counterexample", spec_path("fractional.yaml"), "--no-timestamp")
        assert code == 2
        assert "Liouville holds" in err and "uncertified" not in err

    def test_counterexample_command(self, tmp_path, capsys):
        csv = tmp_path / "ce.csv"
        code, out, _ = run(
            capsys,
            "counterexample",
            spec_path("discrete_laplacian.yaml"),
            "--no-timestamp",
            "--seed", "3",
            "--csv", str(csv),
        )
        assert code == 10
        assert "closed_form" in out
        header = csv.read_text().splitlines()[0]
        assert header == "x1,u"

    def test_propagate_csv(self, tmp_path, capsys):
        out_file = tmp_path / "prop.csv"
        code = main(
            [
                "propagate",
                spec_path("sqrt2_pair.yaml"),
                "--R", "5", "--n-max", "20", "--target-delta", "0.05",
                "--out", str(out_file),
            ]
        )
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        assert lines[0] == "n,points,delta"
        deltas = [float(l.split(",")[2]) for l in lines[1:]]
        assert all(b <= a + 1e-15 for a, b in zip(deltas, deltas[1:]))
        assert deltas[-1] < 0.05

    def test_propagate_runs_one_propagation(self, monkeypatch, capsys):
        calls, original = [], numerics.propagate

        def counted(*args, **kwargs):
            calls.append(kwargs)
            return original(*args, **kwargs)

        monkeypatch.setattr(numerics, "propagate", counted)
        code, out, err = run(capsys, "propagate", spec_path("sqrt2_pair.yaml"), "--R", "5", "--n-max", "50")
        assert code == 0
        assert len(calls) == 1
        assert len(out.splitlines()) == 51
        assert err.splitlines()[0] == f"probe: {density_probe_verdict('sqrt2_pair.yaml', 5.0, 40, 200)}"

    def test_out_of_memory_is_an_input_error(self, monkeypatch, capsys):
        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(numerics, "propagate", exhausted)
        code, out, err = run(capsys, "propagate", spec_path("sqrt2_pair.yaml"), "--R", "5", "--n-max", "3")
        assert code == cli.EXIT_INPUT_ERROR
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "--R" in err and "--n-max" in err

    def test_propagate_stopped_by_target_runs_the_full_probe(self, capsys):
        code, out, err = run(capsys, "propagate", spec_path("sqrt2_pair.yaml"),
                             "--R", "5", "--n-max", "40", "--target-delta", "0.05")
        assert code == 0
        assert len(out.splitlines()) < 41
        assert err.splitlines()[0] == f"probe: {density_probe_verdict('sqrt2_pair.yaml', 5.0, 40, 200)}"

    def test_verify_command(self, capsys):
        code, out, _ = run(
            capsys,
            "verify",
            spec_path("fractional.yaml"),
            "--no-timestamp",
            "--function", "cos",
            "--points", "2",
            "--seed", "1",
            "--format", "json",
        )
        assert code == 0
        doc = json.loads(out)
        assert 0 < doc["max_bound"] < 1e-3

    def test_verify_seed_reproducible(self, capsys):
        args = ["verify", spec_path("mean_value.yaml"), "--no-timestamp",
                "--function", "harmonic_xy", "--points", "3", "--seed", "11"]
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b
        _, c, _ = run(capsys, *args, "--format", "json")
        doc = json.loads(c)
        assert doc["max_abs_value"] < 1e-10


class TestStrictSymmetryFlag:
    def test_override_rejects_asymmetric_input(self, tmp_path, capsys):
        spec = tmp_path / "asym.yaml"
        spec.write_text('dimension: 1\natoms:\n  - {point: ["1"], weight: "1"}\n')
        code, _, _ = run(capsys, "decide", str(spec), "--no-timestamp")
        assert code == 10  # completion mode decides fine
        code, _, err = run(capsys, "decide", str(spec), "--no-timestamp", "--strict-symmetry")
        assert code == 2
        assert "mirror" in err


def _fresh_interpreter(code):
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC), timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestLazyImports:
    """The exact commands never load scipy or `liouville.numerics`."""

    def test_exact_commands_skip_scipy_and_numerics(self):
        specs = sorted(os.path.join(SPEC_DIR, f) for f in os.listdir(SPEC_DIR) if f.endswith(".yaml"))
        out = _fresh_interpreter(f"""
import contextlib, io, json, sys
from liouville.cli import main
for command in ("decide", "closure", "decompose", "counterexample"):
    for spec in {specs!r}:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main([command, spec])
print(json.dumps([m for m in ("scipy", "liouville.numerics") if m in sys.modules]))
""")
        assert json.loads(out) == []

    @pytest.mark.parametrize("command, spec", [
        ("decide", "fractional.yaml"),
        ("counterexample", "fractional.yaml"),  # dense: exits before any sample is drawn
        ("decompose", "kronecker_rational.yaml"),
    ])
    def test_without_numpy(self, command, spec):
        out = _fresh_interpreter(f"""
import contextlib, io, json, sys
from liouville.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main([{command!r}, {spec_path(spec)!r}])
print(json.dumps("numpy" in sys.modules))
""")
        assert json.loads(out) is False

    def test_numerics_names_load_on_first_access(self):
        out = _fresh_interpreter("""
import json, sys
import liouville
assert "liouville.numerics" not in sys.modules
from liouville import density_probe, propagate
from liouville import numerics
assert propagate is numerics.propagate and density_probe is numerics.density_probe
print(json.dumps(liouville.__all__))
""")
        names = json.loads(out)
        assert set(names) == {
            "ConstantBasis", "ExtendedRational", "density_witness", "parse_coordinate",
            "rational_gcd", "rational_ratio", "LevyMeasure", "parse_measure", "support_of",
            "ClosedSubgroup", "HyperplaneCertificate", "closure_1d", "closure_multid",
            "lattice_hnf", "orthogonalize", "decompose_measure", "hyperplane_certificate",
            "LiouvilleVerdict", "decide", "decide_1d", "Counterexample", "build_counterexample",
            "OperatorEvaluator", "PropagationState", "propagate", "density_probe",
        }
        for name in names:
            assert getattr(liouville, name) is not None


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv",
        [
            ["decompose", spec_path("kronecker_rational.yaml"), "--no-timestamp"],
            ["propagate", spec_path("discrete_laplacian.yaml"), "--R", "5", "--n-max", "40"],
        ],
    )
    def test_closed_stdout_exits_quietly(self, argv):
        env = dict(os.environ, PYTHONPATH=SRC)
        proc = subprocess.Popen(
            [sys.executable, "-m", "liouville.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        proc.stdout.close()  # the reader leaves before the first write, as `| head` may
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE
        assert "Traceback" not in err and "BrokenPipeError" not in err


class TestLogLevel:
    def test_unknown_level_is_an_input_error(self):
        env = dict(os.environ, PYTHONPATH=SRC, LIOUVILLE_LOG="verbose")
        proc = subprocess.run(
            [sys.executable, "-m", "liouville.cli", "decide", spec_path("discrete_laplacian.yaml")],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert proc.returncode == cli.EXIT_INPUT_ERROR
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == ["error: LIOUVILLE_LOG names no logging level: 'VERBOSE'"]
