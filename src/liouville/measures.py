"""Symmetric Levy measures: atoms, certified sequence templates, continuous parts.

The measure-spec file is YAML with exact coordinate strings (rational literals
and declared constant names, never floats).  Sequences come from a fixed
template catalogue so integrability and accumulation behavior can be certified
symbolically instead of sampled.
"""

from __future__ import annotations

import contextlib
import functools
import math
import typing
from dataclasses import dataclass, fields, replace
from fractions import Fraction

import yaml

from .exactreal import (
    ConstantBasis,
    ExtendedRational,
    format_point,
    mantissa_digits,
    parse_coordinate,
)
from .ratlinalg import clear_denominators, integer_rref, primitive, solve


class MeasureSpecError(ValueError):
    """Invalid measure-spec document or inconsistent measure data."""


# libyaml's parser where PyYAML has it: the same documents, parsed ~7x faster
_SPEC_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader


Point = tuple[ExtendedRational, ...]


def point_is_zero(p: Point) -> bool:
    return all(c.is_zero() for c in p)


def negate_point(p: Point) -> Point:
    return tuple(-c for c in p)


# -- integer polynomials (ascending coefficients) --------------------------------
#
# A gcd, an exact quotient or a Bezout pair is one linear system in the
# coefficients, over a multiplication matrix or the Sylvester matrix (von zur
# Gathen & Gerhard, Modern Computer Algebra, ch. 6), solved by ratlinalg's one
# elimination.


def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_eval(c, n):
    """c(n) by Horner's rule: an int for integer coefficients."""
    acc = 0
    for coef in reversed(c):
        acc = acc * n + coef
    return acc


def _times(p, k):
    """The matrix of h -> p*h on polynomials h with k coefficients."""
    return [[p[i - j] if 0 <= i - j < len(p) else 0 for j in range(k)] for i in range(len(p) + k - 1)]


def _sylvester(a, b):
    """The matrix of (u, v) -> u*a + v*b with deg u < deg b and deg v < deg a."""
    return [x + y for x, y in zip(_times(a, len(b) - 1), _times(b, len(a) - 1))]


def _poly_gcd(a, b):
    """Monic gcd of nonzero a and b.

    The Sylvester rows x^i a and x^j b span the multiples of the gcd below
    degree deg a + deg b; written in descending degree, the last nonzero row of
    their echelon form is the gcd (Laidacker, Math. Mag. 42 (1969)).
    """
    rows, pivots, den = integer_rref([col[::-1] for col in zip(*_sylvester(a, b))])
    if not pivots:  # two constants
        return [1]
    return [Fraction(x, den) for x in rows[len(pivots) - 1][pivots[-1]:][::-1]]


def _poly_positive_root_free(c, what):
    """Reject integer polynomials vanishing at some integer n >= 1."""
    if not c:
        raise MeasureSpecError(f"{what} is identically zero")
    # every root lies below Cauchy's bound 1 + max|c_i| / |lead|
    for n in range(1, max(map(abs, c[:-1]), default=0) // abs(c[-1]) + 3):
        if _poly_eval(c, n) == 0:
            raise MeasureSpecError(f"{what} vanishes at n={n}")


# -- weight rules ---------------------------------------------------------------


@dataclass(frozen=True)
class WeightRule:
    """Per-index weights: constant c, power c/n^s, or geometric c*r^n."""

    kind: str
    c: Fraction
    s: int = 0
    r: Fraction = Fraction(0)

    def __post_init__(self):
        if self.kind not in ("constant", "power", "geometric"):
            raise MeasureSpecError(f"unknown weight rule {self.kind!r}")
        if self.c <= 0:
            raise MeasureSpecError("weight coefficient must be positive")
        if self.kind == "power" and self.s < 1:
            raise MeasureSpecError("power weight exponent must be a positive integer")
        if self.kind == "geometric" and not 0 < self.r < 1:
            raise MeasureSpecError("geometric weight ratio must lie in (0,1)")

    def weight(self, n: int) -> Fraction:
        if self.kind == "constant":
            return self.c
        if self.kind == "power":
            return self.c / n**self.s
        return self.c * self.r**n

    def total_bound(self) -> float:
        """Upper bound for sum of all weights (may be inf)."""
        if self.kind == "constant":
            return math.inf
        if self.kind == "power":
            if self.s == 1:
                return math.inf
            return float(self.c) * (1.0 + 1.0 / (self.s - 1))
        return float(self.c * self.r / (1 - self.r))

    def tail_bound(self, n0: int) -> float:
        """Upper bound for sum of weights with n > n0."""
        if self.kind == "constant":
            return math.inf
        if self.kind == "power":
            if self.s == 1:
                return math.inf
            return float(self.c) / ((self.s - 1) * n0 ** (self.s - 1))
        return float(self.c * self.r ** (n0 + 1) / (1 - self.r))


def _parse_fraction(v, what) -> Fraction:
    try:
        return Fraction(str(v))
    except (ValueError, ZeroDivisionError) as exc:
        raise MeasureSpecError(f"bad rational for {what}: {v!r}") from exc


def _parse_number(convert, v, what):
    """convert(str(v)) for convert float or int; what it rejects (2.5 as int) is a spec error."""
    try:
        return convert(str(v))
    except (TypeError, ValueError) as exc:
        raise MeasureSpecError(f"bad number for {what}: {v!r}") from exc


def _known_keys(entry: dict, keys, prefix=""):
    """Reject a key of a spec mapping that is not one of `keys`."""
    for key in entry:
        if key not in keys:
            raise MeasureSpecError(f"unknown field {prefix + str(key)!r}")


# -- sequence templates -----------------------------------------------------------


class _Template:
    """Points scalar(n) * direction with weights w_n, n = 1..truncation."""

    # the spec keys of every template; each template adds those of its points
    keys = ("template", "weights", "truncation", "direction", "accumulation")

    def weight(self, n: int) -> Fraction:
        return self.weights.weight(n)

    def point(self, n: int) -> Point:
        s = self.scalar(n)
        return tuple(c.scale(s) for c in self.direction)

    @functools.cached_property
    def terms(self) -> tuple[tuple[Point, Fraction], ...]:
        """(point(n), weight(n)) for n = 1..truncation, expanded once per sequence."""
        return tuple((self.point(n), self.weight(n)) for n in range(1, self.truncation + 1))


@dataclass(frozen=True)
class PolyRatioSequence(_Template):
    """Scalar points P(n)/Q(n) along a fixed direction, n = 1..truncation."""

    num: tuple[Fraction, ...]
    den: tuple[Fraction, ...]
    weights: WeightRule
    truncation: int
    direction: Point
    declared_accumulation: Fraction | None = None

    template = "poly_ratio"
    keys = _Template.keys + ("numerator", "denominator")

    @functools.cached_property
    def _integer_polys(self):
        """num and den times one common integer, trailing zeros dropped: the same ratio."""
        return tuple(map(_poly_trim, clear_denominators([self.num, self.den])[0]))

    def scalar(self, n: int) -> Fraction:
        num, den = self._integer_polys
        return Fraction(_poly_eval(num, n), _poly_eval(den, n))

    def decay_order(self) -> int:
        """deg(den) - deg(num); positive means points decay to 0."""
        num, den = self._integer_polys
        return len(den) - len(num)

    def accumulation_scalar(self) -> Fraction | None:
        d = self.decay_order()
        if d >= 1:
            return Fraction(0)
        if d == 0:
            num, den = self._integer_polys
            return Fraction(num[-1], den[-1])
        return None

    def validate(self):
        num, den = self._integer_polys
        _poly_positive_root_free(num, "sequence numerator")
        _poly_positive_root_free(den, "sequence denominator")
        if self.truncation < 1:
            raise MeasureSpecError("truncation must be >= 1")
        if point_is_zero(self.direction):
            raise MeasureSpecError("sequence direction must be nonzero")
        if len(num) == len(den) and all(p * den[-1] == q * num[-1] for p, q in zip(num, den)):
            raise MeasureSpecError("constant sequence; declare an atom instead")
        acc = self.accumulation_scalar()
        if acc != self.declared_accumulation:
            raise MeasureSpecError(
                f"sequence accumulation mismatch: template gives {acc}, "
                f"declared {self.declared_accumulation}"
            )
        # sum (|a_n|^2 ^ 1) w_n converges when the points decay (|a_n| <= C/n) or when
        # the weights are summable
        if self.decay_order() <= 0 and self.weights.total_bound() == math.inf:
            raise MeasureSpecError(
                "divergent Levy integral: weights must be summable for this template"
            )

    def _decay_coefficient(self) -> float:
        """C with |scalar(n)| <= C / n^decay_order for all n >= 1."""
        P, Q = self._integer_polys
        d = self.decay_order()
        # from the declared Fractions: a float of the cleared integers may differ in the last bit
        tail = 2.0 * float(sum(abs(c) for c in self.num)) / float(abs(_poly_trim(self.den)[-1]))
        n1 = 2 * sum(map(abs, Q)) // abs(Q[-1]) + 1
        scan = max(abs(_poly_eval(P, n) / _poly_eval(Q, n)) * n**d for n in range(1, n1 + 1))
        return max(scan, tail)

    def levy_tail_bound(self, n0: int) -> float:
        """Upper bound for sum over n > n0 of (|a_n|^2 ^ 1) * w_n."""
        dirn = math.sqrt(sum(float(c) ** 2 for c in self.direction))
        d = self.decay_order()
        if d <= 0:
            return self.weights.tail_bound(n0)
        C = self._decay_coefficient() * dirn
        wmax = float(self.weight(n0 + 1))
        decay_tail = C * C * wmax * n0 ** (1 - 2 * d) / (2 * d - 1)
        return min(decay_tail, self.weights.tail_bound(n0))

    def q_certification(self):
        """Certify sup_n Q(a_1, a_n) symbolically.

        Returns ("accumulation", location), ("unbounded", info), or
        ("lattice", generator_scalar).
        """
        acc = self.accumulation_scalar()
        if acc is not None:
            return ("accumulation", acc)
        P, Q = self._integer_polys
        # a_n / a_1 = A(n)/B(n) with integer-coefficient A, B
        A = [c * _poly_eval(Q, 1) for c in P]
        B = [c * _poly_eval(P, 1) for c in Q]
        g = _poly_gcd(A, B)
        A, B = (solve(_times(g, len(p) - len(g) + 1), p) for p in (A, B))
        # one positive rational scales A and B to integers with no common factor
        AB = primitive(A + B)
        A, B = AB[:len(A)], AB[len(A):]
        if len(B) > 1:
            # gcd(A(n), B(n)) divides a fixed integer L: U*A + V*B = L over Z[x]
            uv = solve(_sylvester(A, B), [1] + [0] * (len(A) + len(B) - 3))
            L = math.lcm(*(c.denominator for c in uv))
            return ("unbounded", {"denominator_poly": tuple(B), "cofactor_bound": L})
        gamma = math.gcd(*(abs(_poly_eval(A, n)) for n in range(1, len(A) + 1)))
        return ("lattice", abs(self.scalar(1)) * Fraction(gamma, abs(B[0])))


@dataclass(frozen=True)
class GeometricSequence(_Template):
    """Scalar points c*r^n, 0 < r < 1, accumulating at 0."""

    c: Fraction
    ratio: Fraction
    weights: WeightRule
    truncation: int
    direction: Point
    declared_accumulation: Fraction | None = None

    template = "geometric"
    keys = _Template.keys + ("coefficient", "ratio")

    def scalar(self, n: int) -> Fraction:
        return self.c * self.ratio**n

    def accumulation_scalar(self) -> Fraction:
        return Fraction(0)

    def validate(self):
        if self.c == 0:
            raise MeasureSpecError("geometric coefficient must be nonzero")
        if not 0 < self.ratio < 1:
            raise MeasureSpecError("geometric point ratio must lie in (0,1)")
        if self.truncation < 1:
            raise MeasureSpecError("truncation must be >= 1")
        if point_is_zero(self.direction):
            raise MeasureSpecError("sequence direction must be nonzero")
        if self.declared_accumulation != Fraction(0):
            raise MeasureSpecError("geometric sequences accumulate at 0; declare it")

    def levy_tail_bound(self, n0: int) -> float:
        dirn = math.sqrt(sum(float(x) ** 2 for x in self.direction))
        r2 = float(self.ratio) ** 2
        wmax = float(self.weights.weight(n0 + 1))
        return (float(self.c) * dirn) ** 2 * wmax * r2 ** (n0 + 1) / (1 - r2)

    def q_certification(self):
        return ("accumulation", Fraction(0))


AnySequence = PolyRatioSequence | GeometricSequence
_TEMPLATES = {cls.template: cls for cls in typing.get_args(AnySequence)}


# -- continuous parts --------------------------------------------------------------
#
# The dataclass fields of a part are its spec fields, with the spec defaults.
# Every kind but AffinePart contains an interval, a ball or a sphere in its
# support, so it generates all of R^d.


@dataclass(frozen=True)
class FractionalPart:
    """Density c_{d,alpha} |z|^{-d-alpha}: the fractional Laplacian measure."""

    alpha: float = 1.0

    kind = "fractional"

    def validate(self, dimension):
        if not 0 < self.alpha < 2:
            raise MeasureSpecError("fractional alpha must lie in (0,2)")


@dataclass(frozen=True)
class RelativisticPart:
    """Bessel-type density of m^alpha I - (m^2 I - Laplacian)^{alpha/2}."""

    alpha: float = 1.0
    m: float = 1.0
    coefficient: float = 1.0

    kind = "relativistic"

    def validate(self, dimension):
        if not 0 < self.alpha < 2:
            raise MeasureSpecError("relativistic alpha must lie in (0,2)")
        if self.m <= 0:
            raise MeasureSpecError("relativistic mass must be positive")


@dataclass(frozen=True)
class ConvolutionPart:
    """Bounded radial density J >= 0 with J(z)=J(-z): operator J*u - u."""

    profile: str = "gaussian"
    scale: float = 1.0

    kind = "convolution"

    def validate(self, dimension):
        if self.profile not in ("gaussian", "exponential", "ball_indicator"):
            raise MeasureSpecError(f"unknown convolution profile {self.profile!r}")
        if self.scale <= 0:
            raise MeasureSpecError("convolution scale must be positive")


@dataclass(frozen=True)
class SphereSurfacePart:
    """Normalized surface measure on a sphere; the mean value operator."""

    radius: float = 1.0

    kind = "surface_sphere"

    def validate(self, dimension):
        if dimension < 2:
            raise MeasureSpecError("surface_sphere requires dimension >= 2")
        if self.radius <= 0:
            raise MeasureSpecError("sphere radius must be positive")


@dataclass(frozen=True)
class AffinePart:
    """Radial profile supported on a proper subspace through the origin.

    Its spec nests the profile fields: {basis, profile: {kind, alpha, scale}}.
    """

    basis: tuple[Point, ...]
    profile_kind: str = "fractional"  # "fractional" | "gaussian"
    alpha: float = 1.0
    scale: float = 1.0

    kind = "affine_supported"

    @classmethod
    def from_spec(cls, entry, point) -> "AffinePart":
        _known_keys(entry, ("kind", "basis", "profile"))
        raw = entry.get("basis")
        if not isinstance(raw, list) or not raw:
            raise MeasureSpecError("affine part needs a 'basis' list")
        profile = entry.get("profile") or {}
        _known_keys(profile, ("kind", "alpha", "scale"), "profile.")
        return cls(
            basis=tuple(point(v, "basis") for v in raw),
            profile_kind=profile.get("kind", "fractional"),
            alpha=_parse_number(float, profile.get("alpha", 1.0), "profile.alpha"),
            scale=_parse_number(float, profile.get("scale", 1.0), "profile.scale"),
        )

    def validate(self, dimension):
        if not self.basis:
            raise MeasureSpecError("affine part needs at least one basis vector")
        if len(self.basis) >= dimension:
            raise MeasureSpecError("affine part must span a proper subspace")
        for v in self.basis:
            if len(v) != dimension:
                raise MeasureSpecError("affine basis vector has wrong length")
            if point_is_zero(v):
                raise MeasureSpecError("affine basis vector is zero")
        cols = [[float(c) for c in v] for v in self.basis]
        import numpy as np

        if np.linalg.matrix_rank(np.array(cols).T, tol=1e-9) != len(self.basis):
            raise MeasureSpecError("affine basis vectors must be linearly independent")
        if self.profile_kind == "fractional":
            if not 0 < self.alpha < 2:
                raise MeasureSpecError("affine fractional alpha must lie in (0,2)")
        elif self.profile_kind == "gaussian":
            if self.scale <= 0:
                raise MeasureSpecError("affine gaussian scale must be positive")
        else:
            raise MeasureSpecError(f"unknown affine profile {self.profile_kind!r}")


AnyContinuous = FractionalPart | RelativisticPart | ConvolutionPart | SphereSurfacePart | AffinePart
_CONTINUOUS = {cls.kind: cls for cls in typing.get_args(AnyContinuous)}


# -- atoms and the measure ----------------------------------------------------------


@dataclass(frozen=True)
class Atom:
    point: Point
    weight: ExtendedRational

    def validate(self):
        if point_is_zero(self.point):
            raise MeasureSpecError("zero atom: support excludes the origin")
        if self.weight.sign() <= 0:
            raise MeasureSpecError("atom weight must be positive")


@dataclass(frozen=True)
class LevyMeasure:
    dimension: int
    basis: ConstantBasis
    atoms: tuple[Atom, ...] = ()
    sequences: tuple[AnySequence, ...] = ()
    continuous: tuple[AnyContinuous, ...] = ()
    symmetry_mode: str = "complete"


@dataclass(frozen=True)
class SupportDescriptor:
    """What the decision theory needs to know about supp(mu).

    `fills_ball`: some part contains an interval, a ball or a sphere.
    `directions` span a subspace that the support fills densely: the affine
    basis vectors first, then the directions of the sequences.
    """

    dimension: int
    finite_points: tuple[Point, ...]
    accumulation_points: tuple[Point, ...] = ()
    fills_ball: bool = False
    directions: tuple[Point, ...] = ()


# -- validation ------------------------------------------------------------------


@contextlib.contextmanager
def _prefixed(what: str):
    """Report a MeasureSpecError raised in the block as `what: message`."""
    try:
        yield
    except MeasureSpecError as exc:
        raise MeasureSpecError(f"{what}: {exc}") from exc


def validate_measure(mu: LevyMeasure) -> LevyMeasure:
    """Check all invariants; complete atom mirrors unless strict mode."""
    if mu.dimension < 1:
        raise MeasureSpecError("dimension must be >= 1")
    if mu.symmetry_mode not in ("complete", "strict"):
        raise MeasureSpecError(f"unknown symmetry_mode {mu.symmetry_mode!r}")

    for atom in mu.atoms:
        if len(atom.point) != mu.dimension:
            raise MeasureSpecError("atom point has wrong dimension")
        atom.validate()
    merged: dict[Point, ExtendedRational] = {}
    for atom in mu.atoms:
        if atom.point in merged:
            merged[atom.point] = merged[atom.point] + atom.weight
        else:
            merged[atom.point] = atom.weight
    completed = dict(merged)
    for p, w in merged.items():
        q = negate_point(p)
        if q in merged:
            if not (merged[q] - w).is_zero():
                raise MeasureSpecError(
                    f"asymmetric weights at {format_point(p)}: {w} vs {merged[q]}"
                )
        elif mu.symmetry_mode == "strict":
            raise MeasureSpecError(f"missing mirror atom for {format_point(p)} (strict mode)")
        else:
            completed[q] = w
    atoms = tuple(
        Atom(p, w) for p, w in sorted(completed.items(), key=lambda kv: _point_key(kv[0]))
    )

    # validate() rules out zero points: a poly_ratio numerator has no root n >= 1,
    # and a geometric coefficient is nonzero
    for i, seq in enumerate(mu.sequences):
        with _prefixed(f"sequences[{i}]"):
            if len(seq.direction) != mu.dimension:
                raise MeasureSpecError("sequence direction has wrong dimension")
            seq.validate()
    for i, part in enumerate(mu.continuous):
        with _prefixed(f"continuous[{i}]"):
            part.validate(mu.dimension)

    return replace(mu, atoms=atoms)


def _point_key(p: Point):
    return tuple(float(c) for c in p)


# -- derived views ------------------------------------------------------------------


def support_of(mu: LevyMeasure) -> SupportDescriptor:
    """Exactly deduplicated support data: points, accumulation, flags."""
    points = dict.fromkeys(atom.point for atom in mu.atoms)
    acc_points: dict[Point, None] = {}
    directions = [v for part in mu.continuous if isinstance(part, AffinePart) for v in part.basis]
    for seq in mu.sequences:
        for p, _ in seq.terms:
            points.update({p: None, negate_point(p): None})
        acc = seq.accumulation_scalar()
        if acc is not None:
            loc = tuple(c.scale(acc) for c in seq.direction)
            acc_points.update({loc: None, negate_point(loc): None})
            directions.append(seq.direction)
    return SupportDescriptor(
        dimension=mu.dimension,
        finite_points=tuple(p for p in points if not point_is_zero(p)),
        accumulation_points=tuple(acc_points),
        fills_ball=any(not isinstance(part, AffinePart) for part in mu.continuous),
        directions=tuple(directions),
    )


def group_support(mu: LevyMeasure) -> SupportDescriptor:
    """`support_of(mu)` plus what each sequence template certifies about its group.

    A lattice sequence generates the group of its generator g * direction, and an
    unbounded-denominator sequence is dense along its direction; the truncated
    steps alone show neither.  Every closure of the generated group reads this.
    """
    desc = support_of(mu)
    points, directions = list(desc.finite_points), list(desc.directions)
    for seq in mu.sequences:
        kind, payload = seq.q_certification()
        if kind == "unbounded":
            directions.append(seq.direction)
        elif kind == "lattice":
            p = tuple(c.scale(payload) for c in seq.direction)
            if p not in points:
                points.append(p)
    return replace(desc, finite_points=tuple(points), directions=tuple(directions))


# -- parsing ---------------------------------------------------------------------


def parse_measure(text: str, symmetry_override: str | None = None) -> LevyMeasure:
    """Parse and validate a measure-spec document."""
    try:
        doc = yaml.load(text, Loader=_SPEC_LOADER)
    except yaml.YAMLError as exc:
        raise MeasureSpecError(f"malformed document: {exc}") from exc
    if not isinstance(doc, dict):
        raise MeasureSpecError("measure spec must be a mapping")
    if symmetry_override is not None:
        doc = {**doc, "symmetry_mode": symmetry_override}
    _known_keys(doc, ("dimension", "constants", "symmetry_mode", "atoms", "sequences", "continuous"))

    if "dimension" not in doc:
        raise MeasureSpecError("missing field 'dimension'")
    dimension = doc["dimension"]
    if not isinstance(dimension, int) or dimension < 1:
        raise MeasureSpecError("dimension must be a positive integer")

    names, approxs = [], []
    for i, entry in enumerate(doc.get("constants") or []):
        if not isinstance(entry, dict) or "name" not in entry or "value" not in entry:
            raise MeasureSpecError(f"constants[{i}] needs 'name' and 'value'")
        value = str(entry["value"])
        if mantissa_digits(value) < 50:
            raise MeasureSpecError(
                f"constant {entry['name']!r}: approximation must carry >= 50 digits"
            )
        names.append(str(entry["name"]))
        approxs.append(value)
    try:
        basis = ConstantBasis(tuple(names), tuple(approxs))
    except ValueError as exc:
        raise MeasureSpecError(str(exc)) from exc

    def coord(s, what) -> ExtendedRational:
        if isinstance(s, float):
            raise MeasureSpecError(f"{what}: floating literals are not allowed, got {s!r}")
        try:
            return parse_coordinate(str(s), basis)
        except (ValueError, KeyError) as exc:
            raise MeasureSpecError(f"{what}: {exc}") from exc

    def point(v, what) -> Point:
        if not isinstance(v, (list, tuple)) or len(v) != dimension:
            raise MeasureSpecError(f"{what} must be an array of {dimension} coordinates")
        return tuple(coord(c, what) for c in v)

    atoms = []
    for i, entry in enumerate(doc.get("atoms") or []):
        what = f"atoms[{i}]"
        if not isinstance(entry, dict) or "point" not in entry or "weight" not in entry:
            raise MeasureSpecError(f"{what} needs 'point' and 'weight'")
        _known_keys(entry, [f.name for f in fields(Atom)], f"{what}.")
        atoms.append(Atom(point(entry["point"], what), coord(entry["weight"], f"{what}.weight")))

    sequences = []
    for i, entry in enumerate(doc.get("sequences") or []):
        sequences.append(_parse_sequence(entry, basis, dimension, f"sequences[{i}]", point))

    continuous = []
    for i, entry in enumerate(doc.get("continuous") or []):
        continuous.append(_parse_continuous(entry, f"continuous[{i}]", point))

    mu = LevyMeasure(
        dimension=dimension,
        basis=basis,
        atoms=tuple(atoms),
        sequences=tuple(sequences),
        continuous=tuple(continuous),
        symmetry_mode=doc.get("symmetry_mode", "complete"),
    )
    return validate_measure(mu)


def _parse_sequence(entry, basis, dimension, what, point):
    if not isinstance(entry, dict) or "template" not in entry:
        raise MeasureSpecError(f"{what} needs a 'template'")
    with _prefixed(what):
        cls = _TEMPLATES.get(str(entry["template"]))
        if cls is None:
            raise MeasureSpecError(f"unknown template {entry['template']!r}")
        _known_keys(entry, cls.keys)
        wr = entry.get("weights")
        if not isinstance(wr, dict) or "kind" not in wr:
            raise MeasureSpecError("weights needs a 'kind'")
        _known_keys(wr, [f.name for f in fields(WeightRule)], "weights.")
        weights = WeightRule(
            kind=wr["kind"],
            c=_parse_fraction(wr.get("c", "1"), "weights.c"),
            s=_parse_number(int, wr.get("s", 0) or 0, "weights.s"),
            r=_parse_fraction(wr.get("r", "0"), "weights.r"),
        )
        truncation = entry.get("truncation")
        if not isinstance(truncation, int) or truncation < 1:
            raise MeasureSpecError("truncation must be a positive integer")
        if "direction" in entry:
            direction = point(entry["direction"], "direction")
        elif dimension == 1:
            direction = (basis.one(),)
        else:
            raise MeasureSpecError("multi-d sequences need a 'direction'")
        acc_raw = entry.get("accumulation")
        declared = None if acc_raw is None else _parse_fraction(acc_raw, "accumulation")
        if cls is PolyRatioSequence:
            num = tuple(_parse_fraction(c, "numerator") for c in entry.get("numerator", []))
            den = tuple(_parse_fraction(c, "denominator") for c in entry.get("denominator", []))
            return PolyRatioSequence(num, den, weights, truncation, direction, declared)
        return GeometricSequence(
            c=_parse_fraction(entry.get("coefficient", "1"), "coefficient"),
            ratio=_parse_fraction(entry.get("ratio", "1/2"), "ratio"),
            weights=weights,
            truncation=truncation,
            direction=direction,
            declared_accumulation=declared,
        )


def _parse_continuous(entry, what, point):
    """A part from its spec fields; an omitted field takes its dataclass default."""
    if not isinstance(entry, dict) or "kind" not in entry:
        raise MeasureSpecError(f"{what} needs a 'kind'")
    cls = _CONTINUOUS.get(str(entry["kind"]))
    with _prefixed(what):
        if cls is None:
            raise MeasureSpecError(f"unknown continuous kind {entry['kind']!r}")
        if cls is AffinePart:
            return AffinePart.from_spec(entry, point)
        _known_keys(entry, ["kind", *(f.name for f in fields(cls))])
        return cls(**{
            f.name: _parse_number(float, entry[f.name], f.name)
            if isinstance(f.default, float) else entry[f.name]
            for f in fields(cls)
            if f.name in entry
        })
