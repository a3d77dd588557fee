import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest

import liouville
from liouville import cli, numerics
from liouville.cli import main
from liouville.measures import RelativisticPart, parse_measure, support_of
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

    def test_tiny_constant_decides(self, tmp_path, capsys):
        # a = 1.41...e-100 with 50 mantissa digits: the sign of 1*a is decided relative
        # to a itself, so the pair (1, a) is irrational and the verdict is certified
        spec = tmp_path / "tiny.yaml"
        spec.write_text(
            "dimension: 1\nconstants:\n"
            '  - {name: a, value: "1.4142135623730950488016887242096980785696718751234e-100"}\n'
            'atoms:\n  - {point: ["1"], weight: "1"}\n  - {point: ["1*a"], weight: "1"}\n'
        )
        code, out, err = run(capsys, "decide", str(spec), "--no-timestamp")
        assert (code, err) == (0, "")
        assert "route: irrational_pair" in out.splitlines()

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

    def test_json_keeps_repeated_keys_as_arrays(self, capsys):
        _, out, _ = run(
            capsys, "decide", spec_path("kronecker_rational.yaml"), "--no-timestamp",
            "--format", "json",
        )
        closure = json.loads(out)["closure"]
        assert closure["lattice_basis_vector"] == ["(1/2, 0)", "(0, 1/3)"]
        assert closure["v_dimension"] == 0  # a key that occurs once stays a scalar

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

    @pytest.mark.parametrize("flag, n", [
        # -5 used to drop the last five terms and 0 to mean "untruncated"
        ("--truncation-N", "0"), ("--truncation-N", "-5"),
        # 0 and -3 used to run with a bound a thousand times the default's
        ("--quad-nodes", "0"), ("--quad-nodes", "-3"),
    ])
    def test_verify_rejects_a_count_below_one(self, capsys, flag, n):
        message = {
            "--truncation-N": "the sequence truncation must be at least 1",
            "--quad-nodes": "the quadrature needs at least 1 node per decade",
        }[flag]
        code, out, err = run(capsys, "verify", spec_path("reciprocal_sequence.yaml"),
                             "--points", "1", flag, n)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("name", ["discrete_laplacian.yaml", "nonuniform_grid_2d.yaml"])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_propagate_rejects_a_grid_below_one(self, capsys, name, n):
        # 0 used to measure covering radii on the one-point grid {-R} in 1-d
        code, out, err = run(capsys, "propagate", spec_path(name), "--grid-div", n)
        assert code == 2 and out == ""
        assert err == "error: the probe grid needs at least 1 division\n"

    @pytest.mark.parametrize("name", ["discrete_laplacian.yaml", "nonuniform_grid_2d.yaml"])
    @pytest.mark.parametrize("n", ["0", "-1"])
    def test_propagate_rejects_fewer_than_one_layer(self, capsys, name, n):
        # both used to print a header-only CSV and "probe: inconclusive" with exit 0
        code, out, err = run(capsys, "propagate", spec_path(name), "--n-max", n)
        assert code == 2 and out == ""
        assert err == "error: propagation needs at least 1 layer\n"

    @pytest.mark.parametrize("name", ["fractional.yaml", "discrete_laplacian.yaml"])
    @pytest.mark.parametrize("r0", ["inf", "nan"])
    def test_verify_rejects_a_nonfinite_r0(self, capsys, name, r0):
        # inf used to end in an OverflowError traceback, nan in "bound 0"
        code, out, err = run(capsys, "verify", spec_path(name), "--points", "1", "--r0", r0)
        assert code == 2 and out == ""
        assert err == "error: r0 must be positive and finite\n"

    @pytest.mark.parametrize("name", ["discrete_laplacian.yaml", "nonuniform_grid_2d.yaml"])
    @pytest.mark.parametrize("R", ["0", "nan", "inf"])
    def test_propagate_rejects_a_window_that_is_not_positive_and_finite(self, capsys, name, R):
        # nan and inf used to stop inside scipy: "data must be finite, check for nan or inf values"
        code, out, err = run(capsys, "propagate", spec_path(name), "--R", R)
        assert code == 2 and out == ""
        assert err == "error: window radius must be positive and finite\n"

    @pytest.mark.parametrize("d", [2, 3])
    def test_verify_bounds_a_compact_kernel_for_an_unbounded_function(self, tmp_path, capsys, d):
        # a ball_indicator kernel has no tail, so an unbounded u adds 0 (it used to add inf * 0 = nan)
        spec = tmp_path / "ball.yaml"
        spec.write_text(f"dimension: {d}\ncontinuous:\n  - {{kind: convolution, profile: ball_indicator, scale: 0.5}}\n")
        code, out, _ = run(capsys, "verify", str(spec), "--function", "harmonic_xy", "--points", "2",
                           "--format", "json", "--no-timestamp")
        assert code == 0
        report = json.loads(out)
        rows = [line.split() for line in report["evaluations"].values()]
        values, bounds = [float(r[1]) for r in rows], [float(r[3]) for r in rows]
        assert len(bounds) == 2
        for v, b in zip(values, bounds):
            assert math.isfinite(b) and abs(v) <= b < 1e-12  # the exact value is 0: u is harmonic
        assert report["max_bound"] == max(bounds)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_verify_max_lines_keep_a_nan_row(self, capsys):
        # the fractional density overflows at the outer zone's first node; the maxima used to read 0
        code, out, _ = run(capsys, "verify", spec_path("fractional.yaml"), "--points", "2",
                           "--r0", "1e-300", "--no-timestamp")
        assert code == 0
        lines = out.splitlines()
        assert "max_abs_value: nan" in lines and "max_bound: nan" in lines
        assert sum(line.endswith("value nan bound nan") for line in lines) == 2

    @pytest.mark.parametrize("entry, message", [
        ("{kind: convolution, profile: gaussian, scale: 1e-200}", "convolution scale 1e-200"),
        ("{kind: convolution, profile: exponential, scale: 1e-200}", "convolution scale 1e-200"),
        ("{kind: convolution, profile: ball_indicator, scale: 1e-200}", "convolution scale 1e-200"),
        ("{kind: relativistic, alpha: 1.0, m: 1e-300}", "relativistic m = 1e-300"),
    ])
    def test_verify_rejects_a_kernel_too_narrow_for_floats(self, tmp_path, capsys, entry, message):
        # 1/s^3 and 1/m^2 underflow to 1/0: a ZeroDivisionError for the gaussian, nan rows otherwise
        spec = tmp_path / "narrow.yaml"
        spec.write_text(f"dimension: 3\ncontinuous:\n  - {entry}\n")
        code, out, err = run(capsys, "verify", str(spec), "--points", "1")
        assert code == 2 and out == ""
        assert err == f"error: {message} is too small for dimension 3\n"

    @pytest.mark.parametrize("command, name", [
        ("verify", "fractional.yaml"), ("counterexample", "discrete_laplacian.yaml")])
    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_points_below_one_are_an_input_error(self, capsys, command, name, n):
        # 0 used to run no evaluation with exit 0, a negative count to fail inside numpy
        code, out, err = run(capsys, command, spec_path(name), "--points", n)
        assert code == 2 and out == ""
        assert err == "error: --points must be at least 1\n"

    def test_verify_seed_reproducible(self, capsys):
        args = ["verify", spec_path("mean_value.yaml"), "--no-timestamp",
                "--function", "harmonic_xy", "--points", "3", "--seed", "11"]
        _, a, _ = run(capsys, *args)
        _, b, _ = run(capsys, *args)
        assert a == b
        _, c, _ = run(capsys, *args, "--format", "json")
        doc = json.loads(c)
        assert doc["max_abs_value"] < 1e-10


class TestCsvFiles:
    """`--csv` and `--out` files, byte for byte: a header line, then one `_fmt`-joined line per row."""

    CASES = {
        "counterexample": (["counterexample", spec_path("kronecker_sqrt2_sqrt2.yaml"), "--no-timestamp",
                            "--seed", "3", "--points", "3", "--csv"], (
            "x1,x2,u\n"
            "-4.1435083285637564,-2.631894934039003,-0.99733893555313713\n"
            "3.0127446520639687,0.82162036064367783,0.36154735907587016\n"
            "-4.0587135775960084,-0.66873059763526221,-0.77044507220998448\n")),
        "verify-atoms": (["verify", spec_path("kronecker_sqrt2_sqrt2.yaml"), "--no-timestamp",
                          "--seed", "1", "--points", "3", "--csv"], (
            "x1,x2,value,bound\n"
            "0.047286498801026866,1.8018547853037412,-2.6045933310458063,0\n"
            "-1.4233615491214651,1.7945977885489754,-0.3830461216410268,0\n"
            "-0.75267419195805818,-0.30669420410969739,-1.9031247105695623,0\n")),
        "verify-quadrature": (["verify", spec_path("planar_fractional.yaml"), "--no-timestamp",
                               "--seed", "1", "--points", "2", "--csv"], (
            "x1,x2,value,bound\n"
            "0.047286498801026866,1.8018547853037412,-0.99881860956055513,0.00012737560025442035\n"
            "-1.4233615491214651,1.7945977885489754,-0.14689187369673812,0.00012733245480201679\n")),
        "propagate": (["propagate", spec_path("sqrt2_pair.yaml"), "--R", "3", "--n-max", "4",
                       "--grid-div", "20", "--out"], (
            "n,points,delta\n"
            "1,5,1.5857864376269049\n"
            "2,13,0.25\n"
            "3,25,0.20000000000000018\n"
            "4,35,0.20000000000000018\n")),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_file_bytes(self, tmp_path, capsys, case):
        argv, want = self.CASES[case]
        path = tmp_path / "out.csv"
        assert main(argv + [str(path)]) in (cli.EXIT_HOLDS, cli.EXIT_FAILS)
        capsys.readouterr()
        assert path.read_bytes() == want.encode()


class TestNegativeSequenceDirection:
    def test_lattice_sequence_along_a_negative_direction_decides(self, tmp_path, capsys):
        # the lattice point g * direction = (-1) has no mirror in the support; the closure
        # used to read positive values only and failed to certify "2Z"
        spec = tmp_path / "neg.yaml"
        spec.write_text(
            "dimension: 1\nsequences:\n  - template: poly_ratio\n    numerator: [\"1\", \"0\", \"1\"]\n"
            "    denominator: [\"1\"]\n    weights: {kind: power, c: \"1\", s: 2}\n    truncation: 1\n"
            "    direction: [\"-1\"]\n"
        )
        code, out, err = run(capsys, "decide", str(spec), "--no-timestamp")
        assert code == 10 and err == ""
        assert "lattice_basis_vector: (1)\n" in out and "c: (1)\n" in out


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


class TestFractionChurn:
    """Exact commands run on integer numerators: Fraction objects are built only at the edges.

    The bounds are half the Fraction.__new__ calls a cProfile'd run made when every
    exact scalar and every elimination step was a Fraction (20,050 and 654).  The
    counts are deterministic for a fresh interpreter.
    """

    @pytest.mark.parametrize("command, spec, bound", [
        ("decide", "growing_sequence.yaml", 20_050 // 2),
        ("decompose", "kronecker_rational.yaml", 654 // 2),
    ])
    def test_fraction_constructions_at_most_half(self, command, spec, bound):
        out = _fresh_interpreter(f"""
import cProfile, contextlib, io, pstats
from liouville.cli import main
profile = cProfile.Profile()
with contextlib.redirect_stdout(io.StringIO()):
    profile.runcall(main, [{command!r}, {spec_path(spec)!r}])
stats = pstats.Stats(profile).stats
print(sum(v[1] for (path, _, name), v in stats.items()
          if path.endswith("fractions.py") and name == "__new__"))
""")
        assert 0 < int(out) <= bound


class TestLazyImports:
    """The exact commands never load scipy or `liouville.numerics`; no command loads mpmath.
    scipy loads only for the Bessel kernel (scipy.special) and the k-d tree (scipy.spatial)."""

    def test_exact_commands_skip_scipy_and_numerics(self):
        specs = sorted(os.path.join(SPEC_DIR, f) for f in os.listdir(SPEC_DIR) if f.endswith(".yaml"))
        out = _fresh_interpreter(f"""
import contextlib, io, json, sys
from liouville.cli import main
for command in ("decide", "closure", "decompose", "counterexample"):
    for spec in {specs!r}:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            main([command, spec])
print(json.dumps([m for m in ("scipy", "mpmath", "liouville.numerics") if m in sys.modules]))
""")
        assert json.loads(out) == []

    def test_float_commands_skip_mpmath(self):
        out = _fresh_interpreter(f"""
import contextlib, io, json, sys
from liouville.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(["verify", {spec_path("fractional.yaml")!r}, "--function", "cos2pi", "--points", "1"])
    main(["propagate", {spec_path("sqrt2_pair.yaml")!r}, "--R", "2", "--n-max", "3"])
print(json.dumps(["liouville.numerics" in sys.modules, "mpmath" in sys.modules]))
""")
        assert json.loads(out) == [True, False]

    @staticmethod
    def verify_in_fresh_interpreter(specs):
        """(exit codes, the scipy modules loaded) after `verify` on each spec in one process."""
        return json.loads(_fresh_interpreter(f"""
import contextlib, io, json, sys
from liouville.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(["verify", spec, "--points", "1"]) for spec in {specs!r}]
print(json.dumps([codes, [m for m in ("scipy", "scipy.special", "scipy.spatial") if m in sys.modules]]))
"""))

    def test_verify_loads_scipy_only_for_a_relativistic_part(self):
        def has_bessel_kernel(name):
            with open(spec_path(name)) as fh:
                return any(isinstance(p, RelativisticPart) for p in parse_measure(fh.read()).continuous)

        specs = sorted(f for f in os.listdir(SPEC_DIR) if f.endswith(".yaml"))
        assert [f for f in specs if has_bessel_kernel(f)] == ["relativistic.yaml"]
        plain = [spec_path(f) for f in specs if not has_bessel_kernel(f)]
        assert self.verify_in_fresh_interpreter(plain) == [[0] * len(plain), []]
        codes, loaded = self.verify_in_fresh_interpreter([spec_path("relativistic.yaml")])
        assert codes == [0] and {"scipy", "scipy.special"} <= set(loaded)

    def test_numerics_loads_scipy_when_propagate_runs(self):
        out = _fresh_interpreter(f"""
import json, sys
from liouville import OperatorEvaluator, parse_measure, propagate, support_of
with open({spec_path("sqrt2_pair.yaml")!r}) as fh:
    points = list(support_of(parse_measure(fh.read())).finite_points)
before = "scipy" in sys.modules
propagate(points, R=2.0, n_max=3)
print(json.dumps([before, "scipy.spatial" in sys.modules]))
""")
        assert json.loads(out) == [False, True]

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
            "rational_ratio", "LevyMeasure", "parse_measure", "support_of",
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
