import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville.exactreal import (
    BasisMismatchError,
    ConstantBasis,
    ExtendedRational,
    NotRepresentableError,
    WitnessCapError,
    density_witness,
    floor_split,
    format_coordinate,
    parse_coordinate,
    rational_gcd,
    rational_gcd_many,
    rational_ratio,
)
from conftest import PI_50, SQRT2_50, er


rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=10**4)


class TestConstantBasis:
    def test_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            ConstantBasis(("a", "a"), ("1.5", "2.5"))

    def test_rejects_zero_approximation(self):
        with pytest.raises(ValueError):
            ConstantBasis(("a",), ("0.0",))

    def test_rejects_equal_approximations(self):
        with pytest.raises(ValueError):
            ConstantBasis(("a", "b"), ("1.25", "1.25"))

    def test_dps_counts_digits(self):
        b = ConstantBasis(("pi",), (PI_50,))
        assert b.dps >= 50


class TestArithmetic:
    def test_coordinate_addition(self, pi_basis):
        # (1 + 0*pi) + (0 + 2*pi) = 1 + 2*pi
        x = er(pi_basis, 1, 0)
        y = er(pi_basis, 0, 2)
        assert (x + y).coords == (Fraction(1), Fraction(2))

    def test_negate(self, plain_basis):
        assert (-er(plain_basis, Fraction(3, 2))).coords == (Fraction(-3, 2),)

    def test_scale_by_rational(self, pi_basis):
        x = er(pi_basis, 0, 1)  # pi
        assert x.scale(Fraction(1, 3)).coords == (Fraction(0), Fraction(1, 3))

    def test_basis_mismatch_raises(self, pi_basis, sqrt2_basis):
        with pytest.raises(BasisMismatchError):
            er(pi_basis, 1, 0) + er(sqrt2_basis, 1, 0)

    def test_product_of_irrationals_rejected(self, pi_basis):
        x = er(pi_basis, 0, 1)
        with pytest.raises(NotRepresentableError):
            x * x

    def test_float_value(self, pi_basis):
        x = er(pi_basis, 1, 2)  # 1 + 2 pi
        assert math.isclose(float(x), 1 + 2 * math.pi, rel_tol=1e-12)

    @given(a=rationals, b=rationals, c=rationals)
    def test_add_commutes_with_value(self, a, b, c):
        basis = ConstantBasis()
        x = ExtendedRational(basis, (a,))
        y = ExtendedRational(basis, (b,))
        assert (x + y).coords[0] == a + b
        assert (x - y).coords[0] == a - b
        assert x.scale(c).coords[0] == a * c


class TestFloorSplit:
    def test_floor_and_fraction(self, pi_basis):
        s, p = er(pi_basis, 1, 5), er(pi_basis, 0, Fraction(1, 3))  # 1 + 5 pi, pi/3
        k, t = floor_split(s, p)
        assert k == math.floor((1 + 5 * math.pi) / (math.pi / 3)) == 15
        assert t == pytest.approx((1 + 5 * math.pi) / (math.pi / 3) - 15, abs=1e-12)
        assert 0 <= t < 1

    # at j = 10**50 the quotient keeps only ~10 fractional digits at the working
    # precision, so only an exact remainder s - k*p gives t back bit for bit
    @pytest.mark.parametrize("j", [-1000, -7, -1, 1, 3, 10**6, 10**50])
    def test_shift_by_period_keeps_the_fraction_bit_for_bit(self, pi_basis, j):
        s, p = er(pi_basis, 1, 5), er(pi_basis, 0, Fraction(1, 3))
        k, t = floor_split(s, p)
        assert floor_split(s + p.scale(j), p) == (k + j, t)


class TestRationalRatio:
    def test_plain_rationals(self, plain_basis):
        assert rational_ratio(er(plain_basis, 2), er(plain_basis, 3)) == Fraction(3, 2)

    def test_pi_over_one_is_irrational(self, pi_basis):
        assert rational_ratio(er(pi_basis, 1, 0), er(pi_basis, 0, 1)) is None

    def test_proportional_pi_vectors(self, pi_basis):
        # (2/3*pi) / pi = 2/3
        a = er(pi_basis, 0, 1)
        b = er(pi_basis, 0, Fraction(2, 3))
        assert rational_ratio(a, b) == Fraction(2, 3)

    def test_mixed_vector_not_proportional(self, pi_basis):
        a = er(pi_basis, 1, 1)
        b = er(pi_basis, 1, 2)
        assert rational_ratio(a, b) is None

    def test_zero_a_raises(self, plain_basis):
        with pytest.raises(ZeroDivisionError):
            rational_ratio(er(plain_basis, 0), er(plain_basis, 1))

    def test_already_reduced(self, plain_basis):
        assert rational_ratio(er(plain_basis, 1), er(plain_basis, Fraction(3, 2))) == Fraction(3, 2)

    def test_sequence_point(self, plain_basis):
        # a_n = (n^2+1)/n at n = 5 gives 26/5; (26/5) / 2 = 13/5 has denominator 5
        r = rational_ratio(er(plain_basis, 2), er(plain_basis, Fraction(26, 5)))
        assert (r.numerator, r.denominator) == (13, 5)

    def test_self_and_mirror(self, pi_basis):
        a = er(pi_basis, Fraction(5, 3), 1)
        assert rational_ratio(a, a) == 1
        assert rational_ratio(a, -a) == -1

    def test_zero_b_gives_ratio_zero(self, plain_basis):
        assert rational_ratio(er(plain_basis, 1), er(plain_basis, 0)) == 0

    @given(a=rationals, b=rationals)
    def test_reduced_identity(self, a, b):
        # q * b = p * a exactly whenever the ratio is rational
        if a == 0 or b == 0:
            return
        basis = ConstantBasis()
        r = rational_ratio(ExtendedRational(basis, (a,)), ExtendedRational(basis, (b,)))
        assert r is not None
        assert r.denominator * b == r.numerator * a
        assert math.gcd(abs(r.numerator), r.denominator) == 1


class TestRationalGcd:
    def test_spec_example(self):
        # brute-force oracle: largest g with 3/2, 5/4 in gZ
        candidates = [
            Fraction(n, d) for n in range(1, 16) for d in range(1, 9)
        ]
        best = max(
            (g for g in candidates if (Fraction(3, 2) / g).denominator == 1
             and (Fraction(5, 4) / g).denominator == 1),
        )
        assert best == Fraction(1, 4)
        assert rational_gcd(Fraction(3, 2), Fraction(5, 4)) == Fraction(1, 4)

    def test_integers(self):
        assert rational_gcd(6, 4) == 2

    def test_zero_convention(self):
        assert rational_gcd(Fraction(7, 3), 0) == Fraction(7, 3)

    def test_both_zero_raises(self):
        with pytest.raises(ValueError):
            rational_gcd(0, 0)

    @given(x=rationals, y=rationals)
    def test_divides_both_and_is_maximal(self, x, y):
        x, y = abs(x), abs(y)
        if x == 0 and y == 0:
            return
        g = rational_gcd(x, y)
        assert (x / g).denominator == 1 and (y / g).denominator == 1
        for k in (2, 3, 5):
            gk = g * k
            assert (x / gk).denominator != 1 or (y / gk).denominator != 1 or (x == 0 and y == 0)

    def test_gcd_many(self):
        assert rational_gcd_many([Fraction(1), Fraction(3, 2)]) == Fraction(1, 2)


class TestLemRwConsistency:
    """sup_b Q(a,b) infinite for one base point iff infinite for all."""

    @given(
        st.lists(
            st.tuples(rationals.filter(lambda x: x > 0), st.booleans()),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=200)
    def test_one_base_point_suffices(self, raw):
        basis = ConstantBasis(("pi",), (PI_50,))
        support = []
        for q, use_pi in raw:
            coords = (Fraction(0), q) if use_pi else (q, Fraction(0))
            support.append(ExtendedRational(basis, coords))
        sups = []
        for a in support:
            sups.append(any(rational_ratio(a, b) is None for b in support))
        assert all(sups) or not any(sups)


class TestDensityWitness:
    def test_sqrt2_at_tenth(self, sqrt2_basis):
        # brute-force oracle scan gave n=5, value = 5*sqrt2 - 7
        n, v = density_witness(er(sqrt2_basis, 1, 0), er(sqrt2_basis, 0, 1), 0.1)
        assert n == 5
        assert abs(v - (5 * math.sqrt(2) - 7)) < 1e-12

    def test_pi_at_fifth(self, pi_basis):
        n, v = density_witness(er(pi_basis, 1, 0), er(pi_basis, 0, 1), 0.2)
        assert n == 1
        assert abs(v - (math.pi - 3)) < 1e-12

    def test_scaled_sqrt2(self, sqrt2_basis):
        n, v = density_witness(er(sqrt2_basis, 2, 0), er(sqrt2_basis, 0, 2), 0.2)
        assert n == 5
        assert abs(v - 2 * (5 * math.sqrt(2) - 7)) < 1e-12

    def test_brute_force_agreement(self, pi_basis, sqrt2_basis):
        for basis, theta in ((pi_basis, math.pi), (sqrt2_basis, math.sqrt(2))):
            a = er(basis, 1, 0)
            b = er(basis, 0, 1)
            for eps in (0.3, 0.05, 0.01):
                n, v = density_witness(a, b, eps)
                expect = next(
                    m for m in range(1, 10**6)
                    if 0 < m * theta - math.floor(m * theta) < eps
                )
                assert n == expect
                assert 0 < v < eps

    def test_rational_ratio_rejected(self, plain_basis):
        with pytest.raises(ValueError):
            density_witness(er(plain_basis, 1), er(plain_basis, Fraction(3, 2)), 0.1)

    def test_cap_reached(self, pi_basis):
        with pytest.raises(WitnessCapError):
            density_witness(er(pi_basis, 1, 0), er(pi_basis, 0, 1), 1e-20, cap=100)

    def test_eps_below_resolution(self, pi_basis):
        with pytest.raises(ValueError):
            density_witness(er(pi_basis, 1, 0), er(pi_basis, 0, 1), 1e-60)


class TestCoordinateStrings:
    def test_parse_mixed(self, pi_basis):
        x = parse_coordinate("3/2 + 1*pi", pi_basis)
        assert x.coords == (Fraction(3, 2), Fraction(1))

    def test_parse_bare_name_and_sign(self, pi_basis):
        assert parse_coordinate("-pi", pi_basis).coords == (Fraction(0), Fraction(-1))

    def test_roundtrip(self, pi_basis):
        for s in ("0", "-5/3", "1 + 2*pi", "-1/2 - 7/3*pi"):
            x = parse_coordinate(s, pi_basis)
            assert parse_coordinate(format_coordinate(x), pi_basis) == x

    def test_unknown_name(self, pi_basis):
        with pytest.raises(KeyError):
            parse_coordinate("1*tau", pi_basis)

    def test_garbage_rejected(self, pi_basis):
        with pytest.raises(ValueError):
            parse_coordinate("1.5", pi_basis)
