import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville.exactreal import (
    BasisMismatchError,
    ConstantBasis,
    NotRepresentableError,
    ExtendedRational,
    WitnessCapError,
    density_witness,
    floor_split,
    format_coordinate,
    mantissa_digits,
    parse_coordinate,
    rational_ratio,
)
from conftest import PI_50, SQRT2_50, coords, er


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

    def test_values_are_the_exact_decimals(self):
        b = ConstantBasis(("a", "b", "c"), ("-1.5e-3", ".25", "7"))
        assert b.value_nums == (2000, -3, 500, 14000)  # over the common denominator 2000
        values = tuple(Fraction(v, b.value_nums[0]) for v in b.value_nums)
        assert values == (1, Fraction(-3, 2000), Fraction(1, 4), 7)

    @pytest.mark.parametrize("text", ["inf", "-inf", "nan", "1/3", " 1.5", "1_5", "1.5e", "0x10", "1.5e1000"])
    def test_rejects_what_is_not_a_decimal_numeral(self, text):
        with pytest.raises(ValueError, match="bad approximation"):
            ConstantBasis(("a",), (text,))

    def test_rejects_a_huge_exponent_at_once(self):
        # as a Fraction, 10**(10**7) would take seconds to build
        start = time.perf_counter()
        with pytest.raises(ValueError, match="bad approximation"):
            ConstantBasis(("a",), (SQRT2_50 + "e10000000",))
        assert time.perf_counter() - start < 0.1


class TestArithmetic:
    def test_coordinate_addition(self, pi_basis):
        # (1 + 0*pi) + (0 + 2*pi) = 1 + 2*pi
        x = er(pi_basis, 1, 0)
        y = er(pi_basis, 0, 2)
        assert ((x + y).nums, (x + y).den) == ((1, 2), 1)

    def test_negate(self, plain_basis):
        neg = -er(plain_basis, Fraction(3, 2))
        assert (neg.nums, neg.den) == ((-3,), 2)

    def test_scale_by_rational(self, pi_basis):
        x = er(pi_basis, 0, 1)  # pi
        assert coords(x.scale(Fraction(1, 3))) == (Fraction(0), Fraction(1, 3))

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
        x = er(basis, a)
        y = er(basis, b)
        assert coords(x + y)[0] == a + b
        assert coords(x - y)[0] == a - b
        assert coords(x.scale(c))[0] == a * c


def random_values(rng, basis, count):
    """Seeded values with small, huge (above 10**30) and zero coordinates."""
    def q():
        kind = rng.random()
        if kind < 0.25:
            return 0
        if kind < 0.4:
            return Fraction(rng.randint(-10**35, 10**35), rng.randint(1, 10**40))
        return Fraction(rng.randint(-20, 20), rng.randint(1, 12))

    return [er(basis, *(q() for _ in range(basis.size + 1))) for _ in range(count)]


def in_lowest_terms(x):
    return x.den > 0 and math.gcd(x.den, *x.nums) == 1 and all(type(n) is int for n in x.nums)


class TestIntegerForm:
    """nums over one positive den, in lowest terms, whatever operation made the value."""

    def test_every_operation_leaves_lowest_terms(self, sqrt23_basis):
        rng = random.Random(20261020)
        values = random_values(rng, sqrt23_basis, 60)
        rationals_ = [x for x in random_values(rng, sqrt23_basis, 60) if x.is_rational()]
        for x, y in zip(values, reversed(values)):
            r = rng.choice(rationals_ + [sqrt23_basis.one()])
            q = Fraction(rng.randint(-7, 7), rng.randint(1, 9))
            for z in (x + y, x - y, -x, x.scale(q), x.scale(0), x * r, r * x, x * 3, x - x):
                assert in_lowest_terms(z), z
        made = [
            ExtendedRational(sqrt23_basis, (6, -4, 10), -8),
            ExtendedRational(sqrt23_basis, (0, 0, 0), 7),
            sqrt23_basis.from_rational(Fraction(-6, 4)),
            sqrt23_basis.constant("sqrt3"),
            sqrt23_basis.zero(),
            parse_coordinate("2/4 - 3/6*sqrt2 + 10/15*sqrt3", sqrt23_basis),
        ]
        assert all(map(in_lowest_terms, made))
        assert (made[0].nums, made[0].den) == ((-3, 2, -5), 4)
        assert (made[1].nums, made[1].den) == ((0, 0, 0), 1)

    def test_equal_values_from_different_routes_compare_and_hash_equal(self, sqrt23_basis):
        rng = random.Random(5)
        for x, y in zip(random_values(rng, sqrt23_basis, 40), random_values(rng, sqrt23_basis, 40)):
            for a, b in [
                (x + y - y, x),
                (x.scale(Fraction(2, 3)).scale(Fraction(3, 2)), x),
                (-(-x), x),
                (x + x, x.scale(2)),
                (x - x, sqrt23_basis.zero()),
                (parse_coordinate(format_coordinate(x), sqrt23_basis), x),
            ]:
                assert a == b and hash(a) == hash(b)
        # the multiset check of the decomposition's symmetry pairing relies on this
        p = (parse_coordinate("1/2 + sqrt2", sqrt23_basis), sqrt23_basis.zero())
        half = sqrt23_basis.from_rational(Fraction(3, 6))
        q = (half + sqrt23_basis.constant("sqrt2"), er(sqrt23_basis, 0, 0, 0))
        one = er(sqrt23_basis, Fraction(2, 2), 0, 0)
        assert Counter([(p, sqrt23_basis.one())]) == Counter([(q, one)])

    def test_rational_float_matches_fraction_bit_for_bit(self, plain_basis, pi_basis):
        rng = random.Random(11)
        cases = [Fraction(1, 3), Fraction(-2, 7), Fraction(10**40 + 1, 3 * 10**39), Fraction(1, 10**400)]
        for _ in range(500):
            cases.append(Fraction(rng.randint(-10**50, 10**50), rng.randint(1, 10**rng.randint(0, 60))))
        for q in cases:
            for basis in (plain_basis, pi_basis):
                assert float(basis.from_rational(q)).hex() == float(q).hex()

    def test_mantissa_digits_skip_the_exponent(self):
        assert mantissa_digits("1.25e-100") == 3
        assert mantissa_digits("-.5E+12") == 1
        assert mantissa_digits(PI_50) == 51


class TestFloorSplit:
    def test_floor_and_fraction(self, pi_basis):
        s, p = er(pi_basis, 1, 5), er(pi_basis, 0, Fraction(1, 3))  # 1 + 5 pi, pi/3
        k, t = floor_split(s, p)
        assert k == math.floor((1 + 5 * math.pi) / (math.pi / 3)) == 15
        assert t == pytest.approx((1 + 5 * math.pi) / (math.pi / 3) - 15, abs=1e-12)
        assert 0 <= t < 1

    # at j = 10**50 a quotient rounded to the 51 declared digits would keep none
    # of its fractional digits; the exact quotient gives t back bit for bit
    @pytest.mark.parametrize("j", [-1000, -7, -1, 1, 3, 10**6, 10**50])
    def test_shift_by_period_keeps_the_fraction_bit_for_bit(self, pi_basis, j):
        s, p = er(pi_basis, 1, 5), er(pi_basis, 0, Fraction(1, 3))
        k, t = floor_split(s, p)
        assert floor_split(s + p.scale(j), p) == (k + j, t)


class TestSign:
    # pi's 51 declared digits set the relative threshold 10**-46: below pi * 10**-46,
    # 10**-46 times the size of the irrational part 1 * pi, sign() gives up
    @pytest.mark.parametrize("offset, expected", [
        (Fraction(PI_50) / 10**46, -1),
        (-Fraction(PI_50) / 10**46, 1),
        (Fraction(PI_50) / 10**46 - Fraction(1, 10**80), None),
        (-Fraction(PI_50) / 10**46 + Fraction(1, 10**80), None),
    ])
    def test_threshold_is_compared_exactly(self, pi_basis, offset, expected):
        x = er(pi_basis, -(Fraction(PI_50) + offset), 1)  # pi - (pi's approximation + offset)
        if expected is None:
            with pytest.raises(NotRepresentableError):
                x.sign()
        else:
            assert x.sign() == expected

    def test_rationals_are_exact_at_any_size(self, pi_basis):
        assert er(pi_basis, Fraction(1, 10**80), 0).sign() == 1
        assert er(pi_basis, 0, 0).sign() == 0


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
        r = rational_ratio(er(basis, a), er(basis, b))
        assert r is not None
        assert r.denominator * b == r.numerator * a
        assert math.gcd(abs(r.numerator), r.denominator) == 1


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
            support.append(er(basis, 0, q) if use_pi else er(basis, q, 0))
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
        assert coords(x) == (Fraction(3, 2), Fraction(1))

    def test_parse_bare_name_and_sign(self, pi_basis):
        assert coords(parse_coordinate("-pi", pi_basis)) == (Fraction(0), Fraction(-1))

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

    def test_zero_denominator_rejected(self, pi_basis):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_coordinate("1 + 1/0*pi", pi_basis)
