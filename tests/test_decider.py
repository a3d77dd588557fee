import random
from fractions import Fraction

import pytest

from liouville.decider import decide, decide_1d
from liouville.exactreal import ConstantBasis, ExtendedRational, format_point, rational_ratio
from liouville.measures import Atom, LevyMeasure, parse_measure, validate_measure
from conftest import PI_50, SQRT2_50, spec_path


def load(name):
    with open(spec_path(name)) as fh:
        return parse_measure(fh.read())


def atomic_measure(basis, points, dimension=1):
    atoms = tuple(Atom(p, basis.one()) for p in points)
    return validate_measure(
        LevyMeasure(dimension=dimension, basis=basis, atoms=atoms)
    )


def random_support(rng, basis):
    """2-6 positive points: rationals with denominator <= 12 or rational pi multiples."""
    vals = []
    for _ in range(rng.randint(2, 6)):
        q = Fraction(rng.randint(1, 24), rng.randint(1, 12))
        if rng.random() < 0.4:
            vals.append(ExtendedRational(basis, (Fraction(0), q)))
        else:
            vals.append(ExtendedRational(basis, (q, Fraction(0))))
    return vals


def condition_al_bruteforce(points):
    """(A_L) by exhaustive sup of Q over all support pairs."""
    support = [p for p in points] + [-p for p in points]
    for a in support:
        if any(rational_ratio(a, b) is None for b in support):
            return True
    return False


class TestRoutes1d:
    def test_discrete_laplacian_fails(self):
        v = decide_1d(load("discrete_laplacian.yaml"))
        assert v.holds is False and v.route == "lattice"
        assert v.certificate is not None and v.counterexample is not None

    def test_nonstandard_discretization_holds(self):
        v = decide_1d(load("nonstandard_laplacian.yaml"))
        assert v.holds is True and v.route == "irrational_pair"
        a, b = v.witness["pair"]
        assert float(b) / float(a) == pytest.approx(3.14159265, rel=1e-6)

    def test_reciprocal_sequence_accumulation(self):
        v = decide_1d(load("reciprocal_sequence.yaml"))
        assert v.holds is True and v.route == "accumulation"

    def test_growing_sequence_unbounded_q(self):
        v = decide_1d(load("growing_sequence.yaml"))
        assert v.holds is True and v.route == "unbounded_q_sequence"
        samples = dict(v.witness["samples"])
        assert all(q >= n / 2 for n, q in samples.items())

    def test_continuous_kinds_hold(self):
        for name in ("fractional.yaml", "relativistic.yaml", "convolution.yaml"):
            v = decide_1d(load(name))
            assert v.holds is True and v.route == "interval_or_ball"

    def test_empty_measure_fails_trivially(self):
        v = decide_1d(parse_measure("dimension: 1\n"))
        assert v.holds is False
        assert v.counterexample is not None
        assert v.closure.lattice_rank == 0 and v.closure.v_dim == 0

    def test_assumption_echo(self):
        v = decide_1d(load("nonstandard_laplacian.yaml"))
        assert any("independent" in a for a in v.assumptions)
        v2 = decide_1d(load("discrete_laplacian.yaml"))
        assert v2.assumptions == ()

    def test_lattice_plus_growth_sequence_combines(self):
        # lattice-certified sequence (a_n = n) together with a 1/2 atom: g = 1/2
        text = (
            "dimension: 1\n"
            "atoms:\n"
            '  - {point: ["1/2"], weight: "1"}\n'
            "sequences:\n"
            "  - template: poly_ratio\n"
            '    numerator: ["0", "1"]\n'
            '    denominator: ["1"]\n'
            '    weights: {kind: power, c: "1", s: 2}\n'
            "    truncation: 30\n"
        )
        v = decide_1d(parse_measure(text))
        assert v.holds is False
        assert v.closure.lambda_basis[0][0].as_rational() == Fraction(1, 2)


def _sequence(numerator, denominator, truncation, extra=""):
    return (
        "  - template: poly_ratio\n"
        f"    numerator: {numerator}\n"
        f"    denominator: {denominator}\n"
        '    weights: {kind: power, c: "1", s: 3}\n'
        f"    truncation: {truncation}\n" + extra
    )


# a_n = (n^2+1)/n: reduced denominators grow without bound
UNBOUNDED = _sequence('["1", "0", "1"]', '["0", "1"]', 50)
SQRT2_ATOMS = (
    f'constants:\n  - {{name: sqrt2, value: "{SQRT2_50}"}}\n'
    'atoms:\n  - {point: ["1"], weight: "1"}\n  - {point: ["1*sqrt2"], weight: "1"}\n'
)


class TestPrecedence1d:
    """Which density argument a 1-d verdict names when several apply."""

    def test_accumulation_before_unbounded_sequence(self):
        acc = _sequence('["1"]', '["0", "1"]', 50, '    accumulation: "0"\n')
        v = decide(parse_measure("dimension: 1\nsequences:\n" + UNBOUNDED + acc))
        assert (v.route, v.verdict_word) == ("accumulation", "holds")
        assert set(v.witness) == {"accumulation_points"}

    def test_interval_before_unbounded_sequence(self):
        v = decide(parse_measure(
            "dimension: 1\ncontinuous:\n  - {kind: fractional, alpha: 1.0}\n"
            "sequences:\n" + UNBOUNDED
        ))
        assert (v.route, v.verdict_word, v.witness) == ("interval_or_ball", "holds", None)

    def test_unbounded_sequence_before_irrational_pair(self):
        v = decide(parse_measure("dimension: 1\n" + SQRT2_ATOMS + "sequences:\n" + UNBOUNDED))
        assert (v.route, v.verdict_word) == ("unbounded_q_sequence", "holds")
        assert set(v.witness) == {"samples", "denominator_poly", "cofactor_bound"}
        assert v.witness["samples"][:4] == [(1, 1), (2, 4), (3, 3), (5, 5)]

    def test_lattice_sequence_with_rational_atoms_fails(self):
        # atoms 3 and 9/2, a_n = 2n: the group is (1/2)Z
        v = decide(parse_measure(
            "dimension: 1\natoms:\n"
            '  - {point: ["3"], weight: "1"}\n  - {point: ["9/2"], weight: "1"}\n'
            "sequences:\n" + _sequence('["0", "2"]', '["1"]', 30)
        ))
        assert (v.route, v.verdict_word, v.witness) == ("lattice", "fails", None)
        cert = v.certificate
        assert format_point(cert.normal) == "(1)" and format_point(cert.c) == "(1/2)"
        assert cert.h_basis == () and cert.exact
        assert v.counterexample.closed_form == "cos(2*pi*x/(1/2))"


class TestBruteForceEquivalence:
    def test_randomized_supports_agree(self):
        basis = ConstantBasis(("pi",), (PI_50,))
        rng = random.Random(20240809)
        for _ in range(150):
            pts = random_support(rng, basis)
            mu = atomic_measure(basis, [(p,) for p in pts])
            verdict = decide_1d(mu)
            assert verdict.holds == condition_al_bruteforce(pts)


class TestInvariances:
    def test_scaling_invariance(self):
        basis = ConstantBasis(("pi",), (PI_50,))
        rng = random.Random(7)
        for _ in range(25):
            pts = random_support(rng, basis)
            base = decide_1d(atomic_measure(basis, [(p,) for p in pts])).holds
            for s in (Fraction(2), Fraction(1, 3), Fraction(7, 5)):
                scaled = decide_1d(
                    atomic_measure(basis, [(p.scale(s),) for p in pts])
                ).holds
                assert scaled == base

    def test_mirror_invariance(self):
        # mu(-.) = mu on validated measures: decision trivially unchanged
        for name in ("discrete_laplacian.yaml", "nonstandard_laplacian.yaml"):
            mu = load(name)
            mirrored = validate_measure(
                LevyMeasure(
                    dimension=mu.dimension,
                    basis=mu.basis,
                    atoms=tuple(
                        Atom(tuple(-c for c in a.point), a.weight) for a in mu.atoms
                    ),
                )
            )
            assert decide(mu).holds == decide(mirrored).holds

    def test_negation_coherence(self):
        # holds XOR certificate-present, across a mixed batch
        for name in (
            "discrete_laplacian.yaml",
            "nonstandard_laplacian.yaml",
            "fractional.yaml",
            "kronecker_rational.yaml",
            "kronecker_sqrt2_sqrt2.yaml",
            "kronecker_sqrt2_sqrt3.yaml",
            "planar_fractional.yaml",
        ):
            v = decide(load(name))
            assert v.certified
            assert v.certified == v.closure.is_certified()
            assert v.holds != (v.certificate is not None)
            if v.holds:
                assert v.closure.is_full()
            else:
                assert v.counterexample is not None


class TestRoutesMultiD:
    def test_fractional_any_d(self):
        text = "dimension: 3\ncontinuous:\n  - {kind: fractional, alpha: 0.5}\n"
        v = decide(parse_measure(text))
        assert v.holds is True and v.route == "interval_or_ball"

    def test_kronecker_routes(self):
        assert decide(load("kronecker_sqrt2_sqrt3.yaml")).route == "kronecker"
        v = decide(load("kronecker_sqrt2_sqrt2.yaml"))
        assert v.holds is False and v.route == "hyperplane"
        v2 = decide(load("kronecker_rational.yaml"))
        assert v2.holds is False and v2.route == "lattice"

    def test_mean_value_holds(self):
        v = decide(load("mean_value.yaml"))
        assert v.holds is True and v.route == "interval_or_ball"

    def test_axes(self):
        assert decide(load("nonuniform_grid_2d.yaml")).holds is True
        text = (
            "dimension: 2\natoms:\n"
            '  - {point: ["1", "0"], weight: "1"}\n'
            '  - {point: ["0", "1"], weight: "1"}\n'
        )
        v = decide(parse_measure(text))
        assert v.holds is False and v.route == "lattice"

    def test_planar_fractional_fails_with_certificate(self):
        v = decide(load("planar_fractional.yaml"))
        assert v.holds is False and v.route == "hyperplane"
        n = [float(c) for c in v.certificate.normal]
        assert n[0] == pytest.approx(0.0) and abs(n[1]) == pytest.approx(1.0)

    def test_probe_uncertified(self, sqrt23_basis):
        from liouville.measures import Atom, LevyMeasure, validate_measure

        pts = [
            (ExtendedRational(sqrt23_basis, (Fraction(0), Fraction(1), Fraction(0))),
             ExtendedRational(sqrt23_basis, (Fraction(1), Fraction(0), Fraction(0)))),
            (ExtendedRational(sqrt23_basis, (Fraction(1), Fraction(0), Fraction(0))),
             ExtendedRational(sqrt23_basis, (Fraction(0), Fraction(0), Fraction(1)))),
            (ExtendedRational(sqrt23_basis, (Fraction(0), Fraction(1), Fraction(1))),
             ExtendedRational(sqrt23_basis, (Fraction(3), Fraction(0), Fraction(0)))),
        ]
        mu = validate_measure(
            LevyMeasure(
                dimension=2,
                basis=sqrt23_basis,
                atoms=tuple(Atom(p, sqrt23_basis.one()) for p in pts),
            )
        )
        v = decide(mu)
        assert v.certified is False
        assert v.holds is None
        assert v.route == "probe"
        assert v.certified == v.closure.is_certified()
        assert v.closure.probe is not None


from hypothesis import given, settings
from hypothesis import strategies as st


class TestRationalSupportProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=-6, max_value=6),
                st.integers(min_value=-6, max_value=6),
            ).filter(lambda p: p != (0, 0)),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_rational_supports_fail_with_valid_certificates(self, raw_points):
        from fractions import Fraction

        from liouville.closure import _coset_keys, er_dot
        from liouville.exactreal import ConstantBasis, rational_ratio

        basis = ConstantBasis()
        pts = [tuple(basis.from_rational(c) for c in p) for p in raw_points]
        mu = atomic_measure(basis, pts, dimension=2)
        v = decide(mu)
        # a finite rational support can never generate a dense subgroup
        assert v.holds is False
        # every support point must have integer coordinates in the closure
        for atom in mu.atoms:
            assert _coset_keys([atom.point], v.closure)[0] is not None
        # and the certificate pairing must be an exact integer multiple
        period = er_dot(v.certificate.normal, v.certificate.c)
        for atom in mu.atoms:
            val = er_dot(v.certificate.normal, atom.point)
            if period.is_zero():
                assert val.is_zero()
            else:
                r = rational_ratio(period, val)
                assert r is not None and r.denominator == 1
