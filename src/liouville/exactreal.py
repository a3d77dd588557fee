"""Exact arithmetic over a declared basis of Q-linearly independent constants.

A number is (n0*1 + n1*c1 + ... + nm*cm) / den over a user-declared constant
basis (e.g. {pi} or {sqrt2, sqrt3}): an integer vector over one denominator
(Cohen, *A Course in Computational Algebraic Number Theory*, §4.2), kept with
den > 0 and gcd(den, n0, ..., nm) = 1, so equal numbers have equal fields.
The user asserts Q-linear independence of {1, c1, ..., cm}; under that
assertion, rationality of ratios is decidable exactly and a value is zero iff
all its numerators vanish.  Signs, floors and floats read the declared decimal
approximations of the constants, which are exact rationals too.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field
from fractions import Fraction


class BasisMismatchError(ValueError):
    """Operands declared over different constant bases."""


class NotRepresentableError(ValueError):
    """Result would leave the Q-linear span of the declared basis."""


class WitnessCapError(RuntimeError):
    """Density witness search exceeded its iteration cap."""


_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
# a short exponent: Fraction("1e10000000") would build a ten-million-digit integer
_DECIMAL = re.compile(r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]{1,3})?")


def mantissa_digits(s: str) -> int:
    """Digits a decimal numeral carries: those before its exponent."""
    return sum(ch.isdigit() for ch in re.split("[eE]", s)[0])


@dataclass(frozen=True)
class ConstantBasis:
    """Declared real constants, asserted Q-linearly independent with 1.

    ``approximations`` are decimal numerals; ``value_nums`` holds them exactly,
    after a leading 1, as integers over the common denominator
    ``value_nums[0]``.  Their digit count sets the threshold below which
    ``ExtendedRational.sign`` cannot tell a value from 0 and the smallest
    ``eps`` of a density witness.
    """

    names: tuple[str, ...] = ()
    approximations: tuple[str, ...] = ()
    value_nums: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.names) != len(self.approximations):
            raise ValueError("one approximation per constant required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate constant names")
        for name in self.names:
            if not _IDENT.match(name):
                raise ValueError(f"bad constant name {name!r}")
        vals = []
        for name, s in zip(self.names, self.approximations):
            if not (isinstance(s, str) and _DECIMAL.fullmatch(s)):
                raise ValueError(f"bad approximation for {name!r}: {s!r}")
            vals.append(Fraction(s))
            if vals[-1] == 0:
                raise ValueError(f"approximation of {name!r} must be finite and nonzero")
        if len(set(vals)) != len(vals):
            raise ValueError("constant approximations must be pairwise distinct")
        den = math.lcm(*(v.denominator for v in vals))
        object.__setattr__(self, "value_nums", (den, *(v.numerator * den // v.denominator for v in vals)))

    @property
    def size(self) -> int:
        return len(self.names)

    @functools.cached_property
    def dps(self) -> int:
        """Decimal digits carried by the least precise approximation."""
        return max(15, min(map(mantissa_digits, self.approximations), default=50))

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown constant {name!r}") from None

    def zero(self) -> "ExtendedRational":
        return ExtendedRational(self, (0,) * (self.size + 1))

    def one(self) -> "ExtendedRational":
        return self.from_rational(1)

    def from_rational(self, q) -> "ExtendedRational":
        """q, an int or a Fraction, over this basis."""
        return ExtendedRational(self, (q.numerator,) + (0,) * self.size, q.denominator)

    def constant(self, name: str) -> "ExtendedRational":
        nums = [0] * (self.size + 1)
        nums[1 + self.index_of(name)] = 1
        return ExtendedRational(self, nums)


@functools.lru_cache(maxsize=64)
def basis_floats(basis: "ConstantBasis"):
    """float64 values of (1, c1, ..., cm), for numeric hot paths."""
    return tuple(v / basis.value_nums[0] for v in basis.value_nums)


class ExtendedRational:
    """(n0 + n1*c1 + ... + nm*cm) / den: integers nums = (n0, ..., nm) and den > 0
    in lowest terms, gcd(den, *nums) = 1; one gcd normalizes every result.

    Immutable by convention, as Fraction is: the hash reads nums and den.
    """

    __slots__ = ("basis", "nums", "den")

    def __init__(self, basis: ConstantBasis, nums, den: int = 1):
        nums = tuple(nums)
        if len(nums) != len(basis.value_nums):  # 1 + number of constants
            raise ValueError("numerator vector length must be 1 + number of constants")
        if not den:
            raise ZeroDivisionError("denominator 0")
        g = math.gcd(den, *nums)
        if den < 0:
            g = -g
        if g != 1:
            nums, den = tuple(n // g for n in nums), den // g
        self.basis, self.nums, self.den = basis, nums, den

    def __eq__(self, other):
        if not isinstance(other, ExtendedRational):
            return NotImplemented
        return self.den == other.den and self.nums == other.nums and (
            self.basis is other.basis or self.basis == other.basis)

    def __hash__(self):
        return hash((self.nums, self.den))

    # -- algebra ------------------------------------------------------------

    def _check(self, other: "ExtendedRational"):
        if self.basis is not other.basis and self.basis != other.basis:
            raise BasisMismatchError("operands use different constant bases")

    def __add__(self, other):
        self._check(other)
        a, b = self.den, other.den
        return ExtendedRational(self.basis, [x * b + y * a for x, y in zip(self.nums, other.nums)], a * b)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return ExtendedRational(self.basis, [-x for x in self.nums], self.den)

    def scale(self, q) -> "ExtendedRational":
        """Multiply by the exact rational q, an int or a Fraction."""
        n = q.numerator
        return ExtendedRational(self.basis, [x * n for x in self.nums], self.den * q.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, ExtendedRational):
            self._check(other)
            a, b = (self, other) if other.is_rational() else (other, self)
            if not b.is_rational():
                raise NotRepresentableError("product of two irrational values leaves the basis span")
            return ExtendedRational(a.basis, [x * b.nums[0] for x in a.nums], a.den * b.den)
        return NotImplemented

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    # -- numerics ------------------------------------------------------------

    def _approx_num(self) -> int:
        """The value at the declared approximations, times den * basis.value_nums[0]."""
        return sum(map(operator.mul, self.nums, self.basis.value_nums))

    def approx(self) -> Fraction:
        """The value at the declared approximations of the constants, exactly."""
        return Fraction(self._approx_num(), self.den * self.basis.value_nums[0])

    def __float__(self):  # int / int rounds correctly, as float(Fraction) does
        return self._approx_num() / (self.den * self.basis.value_nums[0])

    def sign(self) -> int:
        """Numeric sign, exact for rationals, at declared precision otherwise.

        An irrational value is decided when it is at least 10^-(dps-5) times the
        size of its irrational part, sum |n_i * c_i| over the declared constants.
        """
        v = self._approx_num()  # v and size are both over den * value_nums[0]
        if not self.is_rational():
            size = sum(map(abs, map(operator.mul, self.nums[1:], self.basis.value_nums[1:])))
            if abs(v) * 10 ** (self.basis.dps - 5) < size:
                raise NotRepresentableError(
                    "value numerically indistinguishable from 0 at declared precision; "
                    "independence assertion may be violated"
                )
        return (v > 0) - (v < 0)

    def __str__(self):
        return format_coordinate(self)

    def __repr__(self):
        return f"ExtendedRational({format_coordinate(self)!r})"


def floor_split(s: ExtendedRational, p: ExtendedRational) -> tuple[int, float]:
    """(k, t) with s/p = k + t, k an integer and t in [0, 1).

    The quotient of the declared approximations is exact, so s and s + j*p
    give the same t for every integer j.
    """
    q = s.approx() / p.approx()
    k = math.floor(q)
    return k, float(q - k)


# -- coordinate strings -------------------------------------------------------

_TERM = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:"
    r"(?P<coeff>\d+(?:/\d+)?)\s*(?:\*\s*(?P<name1>[A-Za-z_][A-Za-z0-9_]*))?"
    r"|(?P<name2>[A-Za-z_][A-Za-z0-9_]*)"
    r")\s*"
)


def parse_coordinate(text: str, basis: ConstantBasis) -> ExtendedRational:
    """Parse strings like "3/2 + 1*pi" or "-pi" into exact coordinates.

    Only rational literals and declared constant names are allowed; no
    floating literals.
    """
    terms = []  # (slot, numerator, denominator) per term
    pos = 0
    first = True
    text = text.strip()
    if not text:
        raise ValueError("empty coordinate string")
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse coordinate {text!r} at offset {pos}")
        sign = m.group("sign")
        if sign is None and not first:
            raise ValueError(f"missing +/- between terms in {text!r}")
        s = -1 if sign == "-" else 1
        if m.group("name2") is not None:
            n, d, name = s, 1, m.group("name2")
        else:
            n, _, d = m.group("coeff").partition("/")
            n, d, name = s * int(n), int(d or 1), m.group("name1")
        if not d:
            raise ValueError(f"zero denominator in coordinate {text!r}")
        terms.append((0 if name is None else 1 + basis.index_of(name), n, d))
        pos = m.end()
        first = False
    den = math.lcm(*(d for _, _, d in terms))
    nums = [0] * (basis.size + 1)
    for k, n, d in terms:
        nums[k] += n * (den // d)
    return ExtendedRational(basis, nums, den)


def format_coordinate(x: ExtendedRational) -> str:
    """Canonical inverse of parse_coordinate."""
    parts = []
    if x.nums[0] != 0:
        parts.append(str(Fraction(x.nums[0], x.den)))
    for q, name in zip(x.nums[1:], x.basis.names):
        if q == 0:
            continue
        term = f"{Fraction(abs(q), x.den)}*{name}"
        if not parts:
            parts.append(term if q > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if q > 0 else f"- {term}")
    if not parts:
        return "0"
    return " ".join(parts)


def format_point(p) -> str:
    """A point as "(x1, ..., xd)" in canonical coordinate strings."""
    return "(" + ", ".join(format_coordinate(c) for c in p) + ")"


# -- ratios and Q values -------------------------------------------------------


def rational_ratio(a: ExtendedRational, b: ExtendedRational):
    """Return the exact rational r with b = r*a, or None when b/a is irrational.

    The ratio is rational iff b's numerator vector is a rational multiple of
    a's; anything else (e.g. pi/sqrt2) reports irrational under the declared
    independence assertion.
    """
    a._check(b)
    if a.is_zero():
        raise ZeroDivisionError("rational_ratio requires a != 0")
    i = next(k for k, c in enumerate(a.nums) if c != 0)
    ai, bi = a.nums[i], b.nums[i]
    if all(bk * ai == ak * bi for ak, bk in zip(a.nums, b.nums)):
        return Fraction(bi * a.den, ai * b.den)
    return None


# -- density witness -----------------------------------------------------------


def _convergent_denominators(theta: Fraction, cap):
    """Denominators of continued-fraction convergents of theta, <= cap."""
    k0, k1 = 0, 1
    x = theta
    out = []
    for _ in range(200):
        a = math.floor(x)
        k0, k1 = a * k0 + k1, k0
        if k0 > cap:
            break
        out.append(k0)
        frac = x - a
        if frac == 0:
            break
        x = 1 / frac
    return out


def density_witness(a: ExtendedRational, b: ExtendedRational, eps: float, cap: int = 10**6):
    """Smallest n >= 1 with 0 < n*b - floor(n*b/a)*a < eps, plus the value.

    Scans continued-fraction convergent denominators of b/a for a working n,
    then a linear scan below it pins the smallest one.  Only defined for
    irrational ratios: for rational b/a the quantity is bounded away from 0.
    """
    import numpy as np

    a._check(b)
    if a.sign() <= 0 or b.sign() <= 0:
        raise ValueError("density_witness requires a, b > 0")
    if rational_ratio(a, b) is not None:
        raise ValueError("b/a is rational; no arbitrarily small witness exists")
    dps = a.basis.dps
    if eps <= 0:
        raise ValueError("eps must be positive")
    if eps < 10.0 ** (-(dps - 12)):
        raise ValueError("eps below the numeric resolution of the declared approximations")

    av, bv = a.approx(), b.approx()
    theta = bv / av

    def value_at(n):
        return n * bv - math.floor(n * theta) * av

    n_hit = None
    for q in _convergent_denominators(theta, cap):
        v = value_at(q)
        if 0 < v < eps:
            n_hit = q
            break
    if n_hit is None:
        raise WitnessCapError(f"no witness with n <= {cap} at eps={eps}")

    # smallest n <= n_hit, scanned in float with exact verification
    theta_f = float(theta)
    a_f = float(av)
    chunk = 65536
    for lo in range(1, n_hit + 1, chunk):
        ns = np.arange(lo, min(lo + chunk, n_hit + 1), dtype=np.int64)
        vals = (ns * theta_f % 1.0) * a_f
        # generous float margin; candidates verified exactly
        for idx in np.nonzero(vals < eps * (1 + 1e-9) + 1e-12)[0]:
            n = int(ns[idx])
            v = value_at(n)
            if 0 < v < eps:
                return n, float(v)
    return n_hit, float(value_at(n_hit))
