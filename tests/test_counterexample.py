import math
from fractions import Fraction

import numpy as np
import pytest

from liouville.closure import HyperplaneCertificate, closure_1d, closure_multid, hyperplane_certificate, orthogonalize
from liouville.counterexample import CounterexampleError, build_counterexample
from liouville.decider import decide
from liouville.measures import parse_measure, support_of
from liouville.numerics import OperatorEvaluator, SmoothFunction, eval_operator
from conftest import check_periodicity, er, spec_path


def load(name):
    with open(spec_path(name)) as fh:
        return parse_measure(fh.read())


def failed_counterexample(name):
    v = decide(load(name))
    assert v.holds is False
    return v


class TestBuild:
    def test_half_lattice_gives_cos_4pi(self):
        text = 'dimension: 1\natoms:\n  - {point: ["1/2"], weight: "1"}\n'
        v = decide(parse_measure(text))
        ce = v.counterexample
        assert ce.kind == "cosine_1d"
        # U(x) = cos(2 pi x / (1/2)) = cos(4 pi x)
        for x in (0.0, 0.13, 0.4):
            assert float(ce.value(np.array([x]))) == pytest.approx(math.cos(4 * math.pi * x))

    def test_planar_geometry(self):
        v = failed_counterexample("planar_fractional.yaml")
        ce = v.counterexample
        # H = R x {0}: U depends on x_2 only and has period c_2
        c2 = float(v.certificate.c[1])
        for x2 in (0.0, 0.3, 1.7):
            a = float(ce.value(np.array([0.0, x2])))
            b = float(ce.value(np.array([5.5, x2])))
            assert a == pytest.approx(b)
            assert a == pytest.approx(float(ce.value(np.array([1.0, x2 + c2]))), abs=1e-12)

    def test_trivial_measure_counterexample(self):
        v = decide(parse_measure("dimension: 1\n"))
        ce = v.counterexample
        assert float(ce.value(np.array([0.25]))) == pytest.approx(math.cos(2 * math.pi * 0.25))

    def test_invalid_certificate_rejected(self, plain_basis):
        cert = HyperplaneCertificate(
            normal=(er(plain_basis, 1), er(plain_basis, 0)),
            c=(er(plain_basis, 0), er(plain_basis, 1)),  # <n, c> = 0: c in H
        )
        with pytest.raises(CounterexampleError):
            build_counterexample(cert, 2)


class TestCheckPeriodicity:
    def test_unit_period_passes(self):
        u = lambda x: math.cos(2 * math.pi * float(np.atleast_1d(x)[0]))
        ok, dev = check_periodicity(u, [(1.0,)], [(x,) for x in np.linspace(-3, 3, 31)], 1e-12)
        assert ok and dev < 1e-12

    def test_half_period_fails_with_deviation_two(self):
        u = lambda x: math.cos(2 * math.pi * float(np.atleast_1d(x)[0]))
        ok, dev = check_periodicity(u, [(0.5,)], [(0.0,)], 1e-12)
        assert not ok
        assert dev == pytest.approx(2.0)

    def test_coset_cosine_periodic_wrt_support(self):
        v = failed_counterexample("kronecker_sqrt2_sqrt2.yaml")
        ce = v.counterexample
        rng = np.random.default_rng(11)
        samples = rng.uniform(-4, 4, size=(1000, 2))
        mu = load("kronecker_sqrt2_sqrt2.yaml")
        gens = [np.array([float(c) for c in a.point]) for a in mu.atoms]
        ok, dev = check_periodicity(ce.value, gens, samples, 1e-12)
        assert ok, f"deviation {dev}"

    def test_1d_pi_lattice_periodic(self):
        # supp = {±pi/2, ±3pi/2}: g = pi/2, U has period pi/2
        text = (
            "dimension: 1\n"
            "constants:\n"
            "  - {name: pi, value: \"3.14159265358979323846264338327950288419716939937511\"}\n"
            "atoms:\n"
            '  - {point: ["1/2*pi"], weight: "1"}\n'
            '  - {point: ["3/2*pi"], weight: "1"}\n'
        )
        v = decide(parse_measure(text))
        assert v.holds is False
        ce = v.counterexample
        gens = [(math.pi / 2,), (3 * math.pi / 2,)]
        samples = [(x,) for x in np.linspace(-5, 5, 200)]
        ok, dev = check_periodicity(ce.value, gens, samples, 1e-11)
        assert ok, dev


class TestAnnihilationRoundTrip:
    """Atomic operators kill a function iff it is periodic wrt the support."""

    def test_cosine_passes_both(self):
        mu = load("discrete_laplacian.yaml")
        v = decide(mu)
        ce = v.counterexample
        ev = OperatorEvaluator(measure=mu)
        basis = mu.basis
        u = ce.as_function()
        for k in range(20):
            x = (basis.from_rational(Fraction(2 * k + 1, 17)),)
            res = eval_operator(ev, u, x)
            assert res.value == 0.0
        ok, _ = check_periodicity(
            ce.value, [(1.0,)], [(x,) for x in np.linspace(-2, 2, 40)], 1e-12
        )
        assert ok

    def test_non_periodic_control_fails_both(self):
        mu = load("discrete_laplacian.yaml")

        def bump(x):
            t = x[..., 0]
            return np.cos(2 * np.pi * t) + np.exp(-(t**2))

        u = SmoothFunction("control", fn=bump, sup_u=2.0)
        ev = OperatorEvaluator(measure=mu)
        res = eval_operator(ev, u, (0.0,))
        assert abs(res.value) > 1e-3  # operator does not annihilate
        ok, dev = check_periodicity(
            u.value, [(1.0,)], [(x,) for x in np.linspace(-2, 2, 40)], 1e-12
        )
        assert not ok and dev > 1e-3
