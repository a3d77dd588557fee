"""Exact arithmetic over a declared basis of Q-linearly independent constants.

Numbers are stored as rational coordinate vectors q0*1 + q1*c1 + ... + qm*cm
over a user-declared constant basis (e.g. {pi} or {sqrt2, sqrt3}).  The user
asserts Q-linear independence of {1, c1, ..., cm}; under that assertion,
rationality of ratios is decidable exactly and a value is zero iff all its
coordinates vanish.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from fractions import Fraction

import mpmath


class BasisMismatchError(ValueError):
    """Operands declared over different constant bases."""


class NotRepresentableError(ValueError):
    """Result would leave the Q-linear span of the declared basis."""


class WitnessCapError(RuntimeError):
    """Density witness search exceeded its iteration cap."""


_IDENT = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


@dataclass(frozen=True)
class ConstantBasis:
    """Declared real constants, asserted Q-linearly independent with 1.

    ``approximations`` are decimal strings; 50+ digits keep floor
    computations in the density-witness search reliable.
    """

    names: tuple[str, ...] = ()
    approximations: tuple[str, ...] = ()

    def __post_init__(self):
        if len(self.names) != len(self.approximations):
            raise ValueError("one approximation per constant required")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate constant names")
        for name in self.names:
            if not _IDENT.match(name):
                raise ValueError(f"bad constant name {name!r}")
        vals = []
        with mpmath.workdps(self.dps + 10):
            for name, s in zip(self.names, self.approximations):
                try:
                    v = mpmath.mpf(s)
                except Exception as exc:
                    raise ValueError(f"bad approximation for {name!r}: {s!r}") from exc
                if not mpmath.isfinite(v) or v == 0:
                    raise ValueError(f"approximation of {name!r} must be finite and nonzero")
                vals.append(v)
        if len({str(v) for v in vals}) != len(vals):
            raise ValueError("constant approximations must be pairwise distinct")

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def dps(self) -> int:
        """Decimal digits carried by the least precise approximation."""
        if not self.approximations:
            return 50
        digits = []
        for s in self.approximations:
            digits.append(sum(ch.isdigit() for ch in s.split("e")[0].split("E")[0]))
        return max(15, min(digits))

    def values(self):
        """High-precision values of (1, c1, ..., cm) at working precision."""
        return _basis_values(self)

    def index_of(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise KeyError(f"unknown constant {name!r}") from None

    def zero(self) -> "ExtendedRational":
        return ExtendedRational(self, (Fraction(0),) * (self.size + 1))

    def one(self) -> "ExtendedRational":
        return self.from_rational(1)

    def from_rational(self, q) -> "ExtendedRational":
        coords = [Fraction(q)] + [Fraction(0)] * self.size
        return ExtendedRational(self, tuple(coords))

    def constant(self, name: str) -> "ExtendedRational":
        coords = [Fraction(0)] * (self.size + 1)
        coords[1 + self.index_of(name)] = Fraction(1)
        return ExtendedRational(self, tuple(coords))


@functools.lru_cache(maxsize=64)
def _basis_values(basis: "ConstantBasis"):
    with mpmath.workdps(basis.dps + 10):
        return [mpmath.mpf(1)] + [mpmath.mpf(s) for s in basis.approximations]


@functools.lru_cache(maxsize=64)
def basis_floats(basis: "ConstantBasis"):
    """float64 values of (1, c1, ..., cm), for numeric hot paths."""
    return tuple(float(v) for v in _basis_values(basis))


@dataclass(frozen=True)
class ExtendedRational:
    """q0 + q1*c1 + ... + qm*cm with exact rational coordinates."""

    basis: ConstantBasis
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.basis.size + 1:
            raise ValueError("coordinate vector length must be 1 + number of constants")

    # -- algebra ------------------------------------------------------------

    def _check(self, other: "ExtendedRational"):
        if self.basis != other.basis:
            raise BasisMismatchError("operands use different constant bases")

    def __add__(self, other):
        other = self._coerce(other)
        self._check(other)
        return ExtendedRational(self.basis, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        other = self._coerce(other)
        self._check(other)
        return ExtendedRational(self.basis, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return ExtendedRational(self.basis, tuple(-a for a in self.coords))

    def scale(self, q) -> "ExtendedRational":
        """Multiply every coordinate by the exact rational q."""
        q = Fraction(q)
        return ExtendedRational(self.basis, tuple(a * q for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, ExtendedRational):
            self._check(other)
            if other.is_rational():
                return self.scale(other.coords[0])
            if self.is_rational():
                return other.scale(self.coords[0])
            raise NotRepresentableError("product of two irrational values leaves the basis span")
        return NotImplemented

    __rmul__ = __mul__

    def _coerce(self, other):
        if isinstance(other, (int, Fraction)):
            return self.basis.from_rational(other)
        return other

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coords[1:])

    def as_rational(self) -> Fraction:
        if not self.is_rational():
            raise NotRepresentableError(f"{self} is not rational")
        return self.coords[0]

    # -- numerics ------------------------------------------------------------

    def mpf(self):
        """Value at the basis working precision."""
        with mpmath.workdps(self.basis.dps + 10):
            vals = self.basis.values()
            return mpmath.fsum(
                mpmath.mpf(c.numerator) / c.denominator * v
                for c, v in zip(self.coords, vals)
                if c != 0
            )

    def __float__(self):
        if self.is_rational():
            return float(self.coords[0])
        return float(self.mpf())

    def sign(self) -> int:
        """Numeric sign, exact for rationals, at declared precision otherwise."""
        if self.is_rational():
            q = self.coords[0]
            return (q > 0) - (q < 0)
        if self.is_zero():
            return 0
        with mpmath.workdps(self.basis.dps + 10):
            v = self.mpf()
            if abs(v) < mpmath.mpf(10) ** (-(self.basis.dps - 5)):
                raise NotRepresentableError(
                    "value numerically indistinguishable from 0 at declared precision; "
                    "independence assertion may be violated"
                )
            return 1 if v > 0 else -1

    def __lt__(self, other):
        other = self._coerce(other)
        return (self - other).sign() < 0

    def __le__(self, other):
        other = self._coerce(other)
        d = self - other
        return d.is_zero() or d.sign() < 0

    def __abs__(self):
        return -self if self.sign() < 0 else self

    def __str__(self):
        return format_coordinate(self)

    def __repr__(self):
        return f"ExtendedRational({format_coordinate(self)!r})"


def floor_split(s: ExtendedRational, p: ExtendedRational) -> tuple[int, float]:
    """(k, t) with s/p = k + t, k an integer and t in [0, 1).

    k is floor(s/p) at the basis working precision; the remainder s - k*p is
    exact, so s and s + j*p give the same t for every integer j.
    """
    with mpmath.workdps(s.basis.dps + 10):
        k = int(mpmath.floor(s.mpf() / p.mpf()))
        return k, float((s - p.scale(k)).mpf() / p.mpf())


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
    coords = [Fraction(0)] * (basis.size + 1)
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
            coeff = Fraction(s)
            name = m.group("name2")
        else:
            coeff = Fraction(m.group("coeff")) * s
            name = m.group("name1")
        if name is None:
            coords[0] += coeff
        else:
            coords[1 + basis.index_of(name)] += coeff
        pos = m.end()
        first = False
    return ExtendedRational(basis, tuple(coords))


def format_coordinate(x: ExtendedRational) -> str:
    """Canonical inverse of parse_coordinate."""
    parts = []
    if x.coords[0] != 0:
        parts.append(str(x.coords[0]))
    for q, name in zip(x.coords[1:], x.basis.names):
        if q == 0:
            continue
        term = f"{abs(q)}*{name}"
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

    The ratio is rational iff b's coordinate vector is a rational multiple of
    a's; anything else (e.g. pi/sqrt2) reports irrational under the declared
    independence assertion.
    """
    a._check(b)
    if a.is_zero():
        raise ZeroDivisionError("rational_ratio requires a != 0")
    i = next(k for k, c in enumerate(a.coords) if c != 0)
    r = b.coords[i] / a.coords[i]
    if all(bc == r * ac for ac, bc in zip(a.coords, b.coords)):
        return r
    return None


def rational_gcd(x, y) -> Fraction:
    """Largest g > 0 with x, y in gZ, for nonnegative rationals not both zero."""
    x, y = Fraction(x), Fraction(y)
    if x < 0 or y < 0:
        raise ValueError("rational_gcd requires nonnegative arguments")
    if x == 0 and y == 0:
        raise ValueError("rational_gcd(0, 0) is undefined")
    if x == 0:
        return y
    if y == 0:
        return x
    num = math.gcd(x.numerator * y.denominator, y.numerator * x.denominator)
    return Fraction(num, x.denominator * y.denominator)


def rational_gcd_many(values) -> Fraction:
    g = Fraction(0)
    seen = False
    for v in values:
        v = abs(Fraction(v))
        if v == 0:
            continue
        g = v if not seen else rational_gcd(g, v)
        seen = True
    if not seen:
        raise ValueError("rational_gcd_many needs at least one nonzero value")
    return g


# -- density witness -----------------------------------------------------------


def _convergent_denominators(theta, cap):
    """Denominators of continued-fraction convergents of theta (mpf), <= cap."""
    h0, h1 = 1, 0  # numerators
    k0, k1 = 0, 1  # denominators
    x = theta
    out = []
    floor_guard = mpmath.mpf(10) ** (-(mpmath.mp.dps - 10))
    for _ in range(200):
        a = int(mpmath.floor(x))
        h0, h1 = a * h0 + h1, h0
        k0, k1 = a * k0 + k1, k0
        if k0 > cap:
            break
        out.append(k0)
        frac = x - a
        if frac < floor_guard:
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

    with mpmath.workdps(dps + 10):
        av, bv = a.mpf(), b.mpf()
        theta = bv / av

        def value_at(n):
            return n * bv - mpmath.floor(n * theta) * av

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
            # generous float margin; candidates verified at full precision
            for idx in np.nonzero(vals < eps * (1 + 1e-9) + 1e-12)[0]:
                n = int(ns[idx])
                v = value_at(n)
                if 0 < v < eps:
                    return n, float(v)
        return n_hit, float(value_at(n_hit))
