"""Seeded planted-answer generator for the benchmark.

Every generated input carries the answer it was built to have, so the runner
checks the program against the plant and never against the program's own
output.  The generator does its own exact arithmetic and imports nothing from
`liouville`.

* *fails* plants choose a nonzero ξ and emit only support points p with
  ⟨ξ, p⟩ ∈ Z (and only dense directions or affine subspaces orthogonal to ξ).
  Then the generated group lies in {x : ⟨ξ, x⟩ ∈ Z}, which is not dense.
* *holds* plants include a rational frame F (linearly independent support
  points) and a support point q = F c whose frame coordinates c make
  {1, c_1, ..., c_k} Q-linearly independent; by Kronecker's theorem the group
  is then dense in span F.  The plant holds when these spans, together with
  the dense directions of the input, span R^d.  Inputs with a full-dimensional
  continuous part or a sphere hold outright.

Numbers live in the multiquadratic field Q(√2, √3, √5): products of constants
are needed for the "products of constants" plants, whose ξ is irrational.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import combinations

import mpmath

# -- exact arithmetic in Q(sqrt2, sqrt3, sqrt5) ----------------------------------------

CONSTANT_MONOMIAL = {
    "sqrt2": frozenset({2}),
    "sqrt3": frozenset({3}),
    "sqrt5": frozenset({5}),
    "sqrt6": frozenset({2, 3}),
}
ONE = frozenset()


class Num:
    """Element of Q(√2, √3, √5): Fraction coefficients on square-free monomials."""

    __slots__ = ("c",)

    def __init__(self, coeffs=None):
        self.c = {k: Fraction(v) for k, v in (coeffs or {}).items() if v != 0}

    @staticmethod
    def of(q=0, **consts) -> "Num":
        """Num.of(1/2, sqrt2=3) is 1/2 + 3√2."""
        out = {ONE: Fraction(q)}
        for name, v in consts.items():
            out[CONSTANT_MONOMIAL[name]] = Fraction(v)
        return Num(out)

    def __add__(self, other):
        other = _num(other)
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, 0) + v
        return Num(out)

    __radd__ = __add__

    def __neg__(self):
        return Num({k: -v for k, v in self.c.items()})

    def __sub__(self, other):
        return self + (-_num(other))

    def __mul__(self, other):
        other = _num(other)
        out: dict = {}
        for ka, va in self.c.items():
            for kb, vb in other.c.items():
                factor = 1
                for p in ka & kb:
                    factor *= p
                k = ka ^ kb
                out[k] = out.get(k, 0) + va * vb * factor
        return Num(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return self.c == _num(other).c

    def __hash__(self):
        return hash(frozenset(self.c.items()))

    def is_zero(self) -> bool:
        return not self.c

    def is_rational(self) -> bool:
        return all(k == ONE for k in self.c)

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not rational")
        return self.c.get(ONE, Fraction(0))

    def is_integer(self) -> bool:
        return self.is_rational() and self.rational().denominator == 1

    def mpf(self):
        return mpmath.fsum(
            mpmath.mpf(v.numerator) / v.denominator * mpmath.sqrt(_prod(k))
            for k, v in self.c.items()
        )

    def monomials(self):
        return set(self.c)

    def text(self, names: dict) -> str:
        """Coordinate string in the spec language; names maps monomial -> name."""
        terms = []
        for k in sorted(self.c, key=lambda m: (len(m), sorted(m))):
            v = self.c[k]
            mag = abs(v)
            body = str(mag) if k == ONE else f"{mag}*{names[k]}"
            terms.append(("-" if v < 0 else "+", body))
        if not terms:
            return "0"
        sign, body = terms[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out


def _num(x) -> Num:
    return x if isinstance(x, Num) else Num({ONE: Fraction(x)})


def _prod(monomial) -> int:
    out = 1
    for p in monomial:
        out *= p
    return out


def dot(u, v) -> Num:
    acc = Num()
    for a, b in zip(u, v):
        acc = acc + _num(a) * _num(b)
    return acc


def rank(rows) -> int:
    """Rank over Q of rational rows (Fraction Gaussian elimination)."""
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def solve(cols, target):
    """Rational coefficients y with sum_j y_j cols[j] = target (square, invertible)."""
    n = len(cols)
    m = [[Fraction(cols[j][i]) for j in range(n)] + [Fraction(target[i])] for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if m[i][c] != 0)
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(n):
            if i != c and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return [m[i][n] for i in range(n)]


def q_independent_with_one(values) -> bool:
    """{1, values...} linearly independent over Q."""
    monos = sorted({ONE} | set().union(*(v.monomials() for v in values)), key=sorted)
    rows = [[Fraction(int(k == ONE)) for k in monos]]
    rows += [[v.c.get(k, Fraction(0)) for k in monos] for v in values]
    return rank(rows) == len(rows)


# -- planted inputs -----------------------------------------------------------------


@dataclass
class Case:
    """One generated input: its spec text and the answer planted in it."""

    name: str
    family: str
    dimension: int
    plant: str  # "holds" | "fails"
    constants: tuple = ()  # declared names, in order
    atoms: list = field(default_factory=list)  # points (tuples of Num), one per +- pair
    weights: list = field(default_factory=list)  # Fraction per atom
    sequences: list = field(default_factory=list)  # Sequence
    continuous: list = field(default_factory=list)  # spec dicts
    xi: tuple | None = None  # fails witness
    frames: list = field(default_factory=list)  # holds witness: (frame points, q)
    full: bool = False  # a full-dimensional continuous part or sphere
    part: str = ""  # verify inputs: the one part kind they carry

    def spec(self) -> str:
        return render_spec(self)

    def atom_count(self) -> int:
        """Atoms the program lists after mirror completion and sequence expansion."""
        return 2 * len(self.atoms) + 2 * sum(s.truncation for s in self.sequences)


@dataclass
class Sequence:
    template: str  # "poly_ratio" | "geometric"
    direction: tuple  # rational direction (tuple of Fraction)
    truncation: int
    numerator: tuple = ()
    denominator: tuple = ()
    coefficient: Fraction = Fraction(1)
    ratio: Fraction = Fraction(1, 2)
    weights: dict = field(default_factory=lambda: {"kind": "power", "c": "1", "s": 2})
    accumulation: Fraction | None = None

    def scalar(self, n: int) -> Fraction:
        if self.template == "geometric":
            return self.coefficient * self.ratio**n
        num = sum(Fraction(c) * n**k for k, c in enumerate(self.numerator))
        den = sum(Fraction(c) * n**k for k, c in enumerate(self.denominator))
        return num / den

    def dense(self) -> bool:
        """Accumulating or unbounded-denominator: its direction is in the closure."""
        if self.template == "geometric" or self.accumulation is not None:
            return True
        return len(self.denominator) > 1


@functools.cache
def constant_text(name: str) -> str:
    """The declared value: 60 significant digits (the spec language asks for 50)."""
    with mpmath.workdps(70):
        return mpmath.nstr(mpmath.sqrt(_prod(CONSTANT_MONOMIAL[name])), 60)


def render_spec(case: Case) -> str:
    names = {CONSTANT_MONOMIAL[n]: n for n in case.constants}
    lines = [f"# planted {case.plant}: {case.family}", f"dimension: {case.dimension}"]
    if case.constants:
        lines.append("constants:")
        for n in case.constants:
            lines.append(f'  - {{name: {n}, value: "{constant_text(n)}"}}')
    if case.atoms:
        lines.append("atoms:")
        for p, w in zip(case.atoms, case.weights):
            coords = ", ".join(f'"{_num(c).text(names)}"' for c in p)
            lines.append(f'  - {{point: [{coords}], weight: "{w}"}}')
    if case.sequences:
        lines.append("sequences:")
        for s in case.sequences:
            lines.append(f"  - template: {s.template}")
            if s.template == "poly_ratio":
                lines.append("    numerator: [" + ", ".join(f'"{c}"' for c in s.numerator) + "]")
                lines.append(
                    "    denominator: [" + ", ".join(f'"{c}"' for c in s.denominator) + "]"
                )
            else:
                lines.append(f'    coefficient: "{s.coefficient}"')
                lines.append(f'    ratio: "{s.ratio}"')
            w = ", ".join(f"{k}: {v!r}" if isinstance(v, str) else f"{k}: {v}" for k, v in s.weights.items())
            lines.append(f"    weights: {{{w}}}")
            lines.append(f"    truncation: {s.truncation}")
            lines.append("    direction: [" + ", ".join(f'"{c}"' for c in s.direction) + "]")
            if s.accumulation is not None:
                lines.append(f'    accumulation: "{s.accumulation}"')
    if case.continuous:
        lines.append("continuous:")
        for part in case.continuous:
            lines.append("  - " + _flow(part))
    return "\n".join(lines) + "\n"


def _flow(v) -> str:
    if isinstance(v, dict):
        return "{" + ", ".join(f"{k}: {_flow(x)}" for k, x in v.items()) + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_flow(x) for x in v) + "]"
    if isinstance(v, (Fraction, str)):
        return f'"{v}"'
    return repr(v)


# -- plant checks (exact) ------------------------------------------------------------


def support_points(case: Case):
    """Finite support points the plant must account for, one per +- pair."""
    pts = [tuple(_num(c) for c in p) for p in case.atoms]
    for s in case.sequences:
        if s.dense():
            continue
        deg = max(len(s.numerator), 1)
        # an integer-valued polynomial on deg+1 consecutive integers is integer-valued on Z
        for n in range(1, min(s.truncation, deg + 1) + 1):
            pts.append(tuple(_num(s.scalar(n) * c) for c in s.direction))
    return pts


def check_plant(case: Case) -> None:
    """Raise AssertionError unless the planted answer is proved by its witness."""
    d = case.dimension
    pts = support_points(case)
    dense = [tuple(Fraction(c) for c in s.direction) for s in case.sequences if s.dense()]
    for part in case.continuous:
        if part["kind"] == "affine_supported":
            dense += [tuple(Fraction(c) for c in v) for v in part["basis"]]
    if case.plant == "fails":
        assert case.xi is not None and any(not _num(x).is_zero() for x in case.xi)
        assert not case.full, "a full-dimensional part is dense"
        for p in pts:
            assert dot(case.xi, p).is_integer(), f"<xi, p> not in Z for {case.name}"
        for v in dense:
            assert dot(case.xi, v).is_zero(), f"dense direction not orthogonal to xi in {case.name}"
        return
    assert case.plant == "holds"
    if case.full:
        assert any(p["kind"] != "affine_supported" for p in case.continuous), "no full-dimensional part"
        return
    spans = [list(v) for v in dense]
    keys = {tuple(p) for p in pts}
    for frame, q in case.frames:
        for f in list(frame) + [q]:
            assert tuple(_num(c) for c in f) in keys, f"witness point not in support of {case.name}"
        fr = [[_num(c).rational() for c in f] for f in frame]
        assert rank(fr) == len(fr), "frame is not linearly independent"
        coords = frame_coordinates(fr, q)
        assert q_independent_with_one(coords), f"frame coordinates dependent in {case.name}"
        spans += fr
    assert spans and rank(spans) == d, f"witness spans do not cover R^{d} in {case.name}"


def frame_coordinates(frame, q):
    """c with q = sum_j c_j frame_j, for a frame spanning a subspace containing q."""
    k = len(frame)
    d = len(frame[0])
    # pick k coordinate rows on which the frame is invertible
    for rows in combinations(range(d), k):
        sub = [[f[i] for i in rows] for f in frame]
        if rank(sub) == k:
            break
    monos = set().union(*(_num(c).monomials() for c in q))
    coords = [Num() for _ in range(k)]
    for m in monos:
        target = [_num(q[i]).c.get(m, Fraction(0)) for i in rows]
        y = solve(sub, target)
        # the solution must reproduce every coordinate, not only the chosen rows
        for i in range(d):
            got = sum(y[j] * frame[j][i] for j in range(k))
            assert got == _num(q[i]).c.get(m, Fraction(0)), "q is not in span of the frame"
        for j in range(k):
            coords[j] = coords[j] + Num({m: y[j]})
    return coords


# -- random building blocks ------------------------------------------------------------


def _rat(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _nonzero_rat(rng, num, den) -> Fraction:
    while True:
        q = _rat(rng, num, den)
        if q:
            return q


def _int_vector(rng, d, hi=3):
    while True:
        v = tuple(rng.randint(-hi, hi) for _ in range(d))
        if any(v):
            return v


def _orth_rational(rng, xi):
    """A nonzero rational vector orthogonal to the rational vector xi."""
    d = len(xi)
    if d < 2:
        raise ValueError("no nonzero vector is orthogonal to a nonzero xi in dimension 1")
    while True:
        v = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        j = next(i for i, x in enumerate(xi) if x != 0)
        v[j] = 0
        v[j] = -sum(Fraction(a) * b for a, b in zip(xi, v)) / Fraction(xi[j])
        if any(v):
            return tuple(v)


def _point_on_level(rng, xi, size, den, level=None):
    """Rational point p with <xi, p> an integer (xi rational, nonzero)."""
    d = len(xi)
    j = next(i for i, x in enumerate(xi) if x != 0)
    while True:
        p = [_rat(rng, size, den) for _ in range(d)]
        k = rng.randint(-2, 2) if level is None else level
        p[j] = 0
        p[j] = (k - sum(Fraction(a) * b for a, b in zip(xi, p))) / Fraction(xi[j])
        if any(p):
            return tuple(p)


def _scale_point(p, g):
    return tuple(_num(c) * g for c in p)


def _unique_pm(points):
    """Drop exact duplicates and mirrors, keep order."""
    out, seen = [], set()
    for p in points:
        key = tuple(_num(c) for c in p)
        neg = tuple(-c for c in key)
        if key in seen or neg in seen or all(c.is_zero() for c in key):
            continue
        seen.add(key)
        out.append(key)
    return out


def _weights(rng, n):
    return [Fraction(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(n)]


def _size_scale(rng, size_class):
    """Coordinate size: small inputs keep unit scale, large ones carry a big rational factor."""
    if size_class == "small":
        return Fraction(1)
    return Fraction(rng.choice((97, 211, 997, 1009)), rng.choice((3, 7, 13)))


def _finish(case: Case, points, rng) -> Case:
    case.atoms = _unique_pm(points)
    case.weights = _weights(rng, len(case.atoms))
    check_plant(case)
    return case


CONSTANT_SETS = {0: (), 1: ("sqrt2",), 2: ("sqrt2", "sqrt3")}


def _irr(rng, constants, size=3, den=3) -> Num:
    """Random element of the span of 1 and the constants, with a nonzero irrational part."""
    x = Num.of(_rat(rng, size, den))
    for name in constants:
        x = x + Num({CONSTANT_MONOMIAL[name]: _rat(rng, size, den)})
    if x.is_rational():
        x = x + Num({CONSTANT_MONOMIAL[constants[0]]: _nonzero_rat(rng, size, den)})
    return x


def symmetric_image(case: Case, rng: random.Random) -> Case:
    """The case under a random signed permutation S of the axes, with fresh weights.

    S keeps the plant: <S xi, S p> = <xi, p>, S maps a frame and its point to a frame
    with the same coordinates, and it maps sequence directions and affine subspaces
    alike.  It keeps every norm, so the image has the same lattice geometry, and the
    density probe's square grid and disc are symmetric under it too.
    """
    d = case.dimension
    axes = list(range(d))
    rng.shuffle(axes)
    signs = [rng.choice((1, -1)) for _ in range(d)]

    def image(v):
        return tuple(v[a] if sign > 0 else -v[a] for a, sign in zip(axes, signs))

    continuous = [dict(part, basis=[list(image(v)) for v in part["basis"]]) if "basis" in part else part
                  for part in case.continuous]
    out = Case(case.name, case.family, d, case.plant, case.constants,
               sequences=[replace(seq, direction=image(seq.direction)) for seq in case.sequences],
               continuous=continuous,
               xi=image(case.xi) if case.xi is not None else None,
               frames=[([image(f) for f in frame], image(q)) for frame, q in case.frames],
               full=case.full, part=case.part)
    return _finish(out, [image(p) for p in case.atoms], rng)


# -- exact-decide families: supports that today's exact dispatch handles ---------------


def _grid(d):
    """(numerator bound, denominator bound, xi entry bound) of rational points.

    In 3-D the points stay small and integral: decide and decompose enumerate
    coefficient boxes whose volume grows with the skew of the lattice basis, and
    random 3-D lattices over finer grids take seconds to minutes per input.
    """
    return (2, 1, 1) if d == 3 else (3, 2, 3)


def lattice_fails(rng, name, d, size, consts):
    num, den, hi = _grid(d)
    xi = _int_vector(rng, d, hi=hi)
    g = _size_scale(rng, size)
    pts = [_point_on_level(rng, xi, num, den) for _ in range(d + rng.randint(0, 2))]
    case = Case(name, "rational_lattice", d, "fails", consts, xi=tuple(Fraction(x) / g for x in xi))
    return _finish(case, [_scale_point(p, g) for p in pts], rng)


def axes_holds(rng, name, d, size, consts):
    consts = _enough(consts, 1)
    g = _size_scale(rng, size)
    pts, frames = [], []
    for i in range(d):
        a = _nonzero_rat(rng, 3, 2) * g
        c = _irr(rng, consts)
        f = tuple(a if j == i else Fraction(0) for j in range(d))
        q = tuple(c * a if j == i else Num() for j in range(d))
        pts += [f, q]
        frames.append(([f], q))
    case = Case(name, "axes", d, "holds", consts, frames=frames)
    return _finish(case, pts, rng)


def axes_fails(rng, name, d, size, consts):
    g = _size_scale(rng, size)
    j = rng.randrange(d)
    k = rng.randint(1, 3)
    xi = tuple(Fraction(k) / g if i == j else Fraction(0) for i in range(d))
    pts = []
    for i in range(d):
        if i == j:
            values = [Num.of(Fraction(rng.randint(1, 5), k)) for _ in range(rng.randint(1, 2))]
        elif consts and rng.random() < 0.5:
            # an irrational axis gets a pair with irrational ratio, so it is dense
            a = _nonzero_rat(rng, 3, 2)
            values = [Num.of(a), _irr(rng, consts) * a]
        else:
            values = [Num.of(_nonzero_rat(rng, 3, 2)) for _ in range(rng.randint(1, 2))]
        pts += [tuple(c * g if t == i else Num() for t in range(d)) for c in values]
    case = Case(name, "axes", d, "fails", consts, xi=xi)
    return _finish(case, pts, rng)


def collinear_fails(rng, name, d, size, consts):
    g = _size_scale(rng, size)
    w = _int_vector(rng, d)
    xi = _orth_rational(rng, w)
    pts = []
    for _ in range(rng.randint(2, 4)):
        t = _irr(rng, consts) if consts and rng.random() < 0.6 else Num.of(_nonzero_rat(rng, 3, 2))
        pts.append(tuple(t * Fraction(c) * g for c in w))
    case = Case(name, "collinear", d, "fails", consts, xi=xi)
    return _finish(case, pts, rng)


def _frame(rng, d, size=3, den=2):
    while True:
        fr = [tuple(_rat(rng, size, den) for _ in range(d)) for _ in range(d)]
        if rank(fr) == d:
            return fr


def _independent_coords(rng, k, consts, size=3, den=3):
    """k frame coordinates c with {1, c_1..c_k} Q-independent."""
    while True:
        cs = [_irr(rng, consts, size, den) for _ in range(k)]
        if q_independent_with_one(cs):
            return cs


def _enough(consts, k):
    """The declared constants, or a larger set when k independent coordinates are needed."""
    return consts if len(consts) >= k else CONSTANT_SETS[k]


def kronecker_holds(rng, name, d, size, consts):
    consts = _enough(consts, d)
    g = _size_scale(rng, size)
    fr = [tuple(c * g for c in f) for f in _frame(rng, d)]
    cs = _independent_coords(rng, d, consts)
    q = tuple(sum((cs[j] * fr[j][i] for j in range(d)), Num()) for i in range(d))
    case = Case(name, "rational_frame_plus_point", d, "holds", consts, frames=[(fr, q)])
    return _finish(case, fr + [q], rng)


def kronecker_fails(rng, name, d, size, consts):
    consts = _enough(consts, 1)
    g = _size_scale(rng, size)
    num, den, hi = _grid(d)
    xi = _int_vector(rng, d, hi=hi)
    while True:
        fr = [_point_on_level(rng, xi, num, den) for _ in range(d)]
        if rank(fr) == d:
            break
    r = _point_on_level(rng, xi, num, den)
    w = _orth_rational(rng, xi)
    alpha = _reduced(rng, consts)
    q = tuple(_num(a) + alpha * b for a, b in zip(r, w))
    pts = [_scale_point(p, g) for p in fr + [q]]
    case = Case(name, "rational_frame_plus_point", d, "fails", consts, xi=tuple(Fraction(x) / g for x in xi))
    return _finish(case, pts, rng)


def _affine(basis, rng, profile=None, scale=None):
    if (profile or rng.choice(("fractional", "gaussian"))) == "fractional":
        return {"kind": "affine_supported", "basis": [list(v) for v in basis],
                "profile": {"kind": "fractional", "alpha": rng.choice((0.5, 1.0, 1.5))}}
    return {"kind": "affine_supported", "basis": [list(v) for v in basis],
            "profile": {"kind": "gaussian", "scale": scale or rng.choice((0.5, 1.0, 2.0))}}


def affine_holds(rng, name, d, size, consts):
    g = _size_scale(rng, size)
    k = 1 if d == 2 else rng.choice((1, 2))
    consts = _enough(consts, d - k)
    vs = [tuple(Fraction(int(i == j)) for i in range(d)) for j in range(k)]
    rest = [tuple(Fraction(int(i == j)) * g for i in range(d)) for j in range(k, d)]
    cs = _independent_coords(rng, d - k, consts)
    q = tuple(sum((cs[j] * rest[j][i] for j in range(d - k)), Num()) for i in range(d))
    # shift support points along the affine subspace so the quotient is non-trivial
    pts = rest + [q]
    case = Case(name, "affine_plus_points", d, "holds", consts, frames=[(rest, q)],
                continuous=[_affine(vs, rng)])
    return _finish(case, pts, rng)


def affine_fails(rng, name, d, size, consts):
    g = _size_scale(rng, size)
    num, den, hi = _grid(d)
    xi = _int_vector(rng, d, hi=hi)
    v = _orth_rational(rng, xi)
    pts = [_scale_point(_point_on_level(rng, xi, num, den), g) for _ in range(rng.randint(1, d))]
    if consts:
        alpha = _reduced(rng, consts)
        r = _point_on_level(rng, xi, num, den)
        pts.append(_scale_point(tuple(_num(a) + alpha * b for a, b in zip(r, v)), g))
    case = Case(name, "affine_plus_points", d, "fails", consts,
                xi=tuple(Fraction(x) / g for x in xi), continuous=[_affine([v], rng)])
    return _finish(case, pts, rng)


def _unbounded_sequence(rng, direction, truncation):
    a = rng.randint(1, 5)
    return Sequence("poly_ratio", direction, truncation, numerator=(a, 0, rng.randint(1, 3)),
                    denominator=(0, rng.randint(1, 3)))


def _accumulating_sequence(rng, direction, truncation):
    if rng.random() < 0.5:
        return Sequence("geometric", direction, truncation,
                        coefficient=Fraction(rng.randint(1, 3), rng.randint(1, 2)),
                        ratio=Fraction(1, rng.randint(2, 4)),
                        weights={"kind": "constant", "c": "1"}, accumulation=Fraction(0))
    return Sequence("poly_ratio", direction, truncation, numerator=(rng.randint(1, 3),),
                    denominator=(0, rng.randint(1, 3)),
                    weights={"kind": "constant", "c": "1"}, accumulation=Fraction(0))


def sequence_holds(rng, name, d, size, consts):
    unit = tuple(Fraction(int(i == 0)) for i in range(d))
    seq = (_unbounded_sequence if rng.random() < 0.5 else _accumulating_sequence)(
        rng, unit, rng.randint(20, 60))
    frames, pts = [], []
    if d > 1:
        consts = _enough(consts, d - 1)
        g = _size_scale(rng, size)
        rest = [tuple(Fraction(int(i == j)) * g for i in range(d)) for j in range(1, d)]
        cs = _independent_coords(rng, d - 1, consts)
        q = tuple(sum((cs[j] * rest[j][i] for j in range(d - 1)), Num()) for i in range(d))
        pts, frames = rest + [q], [(rest, q)]
    case = Case(name, "sequence", d, "holds", consts, frames=frames, sequences=[seq])
    return _finish(case, pts, rng)


def sequence_fails(rng, name, d, size, consts):
    _, _, hi = _grid(d)
    xi = _int_vector(rng, d, hi=hi) if d > 1 else (Fraction(1),)
    # decompose enumerates a ball as wide as the farthest point: keep 3-D sequences short
    top = 3 if d == 3 else 6
    if d > 1 and rng.random() < 0.5:
        # an accumulating sequence along a direction orthogonal to xi
        w = _orth_rational(rng, xi)
        seq = _accumulating_sequence(rng, w, rng.randint(3, top + 2))
    else:
        w = _point_on_level(rng, xi, 2, 1, level=1) if d > 1 else (Fraction(1, rng.randint(1, 3)),)
        den = Fraction(rng.randint(1, 2))
        # scalar (a n + b)/den with <xi, w> = 1: integer iff den | a n + b for all n
        a = int(den) * rng.randint(1, 2)
        b = int(den) * rng.randint(0, 2)
        xi = tuple(Fraction(x) for x in xi) if d > 1 else (1 / w[0],)
        seq = Sequence("poly_ratio", w, rng.randint(2, top), numerator=(b, a), denominator=(den,))
    taken = {tuple(_num(seq.scalar(n) * c) for c in seq.direction) for n in range(1, seq.truncation + 1)}
    taken |= {tuple(-c for c in p) for p in taken}
    pts, count = [], rng.randint(1, d)
    while len(pts) < count:
        # in 1-D the sequence covers the small levels, so atoms may sit further out
        level = rng.choice([k for k in range(-12, 13) if k]) if d == 1 else None
        p = tuple(_num(c) for c in _point_on_level(rng, xi, 2, 1, level))
        # the program lists an atom and a sequence point at the same place separately
        if p not in taken:
            pts.append(p)
    case = Case(name, "sequence", d, "fails", consts, xi=tuple(xi), sequences=[seq])
    return _finish(case, pts, rng)


def continuous_holds(rng, name, d, size, consts):
    kind = rng.choice(("fractional", "relativistic", "convolution", "surface_sphere"))
    if kind == "surface_sphere" and d == 1:
        kind = "fractional"
    part = _continuous_part(rng, kind)
    case = Case(name, "continuous", d, "holds", consts, continuous=[part], full=True)
    extra = [tuple(_irr(rng, consts) if consts else Num.of(_nonzero_rat(rng, 3, 2)) for _ in range(d))]
    return _finish(case, extra if rng.random() < 0.5 else [], rng)


def _continuous_part(rng, kind):
    if kind == "fractional":
        return {"kind": "fractional", "alpha": rng.choice((0.5, 1.0, 1.5))}
    if kind == "relativistic":
        return {"kind": "relativistic", "alpha": rng.choice((0.5, 1.0, 1.5)),
                "m": rng.choice((0.5, 1.0, 2.0))}
    if kind == "convolution":
        return {"kind": "convolution",
                "profile": rng.choice(("gaussian", "exponential", "ball_indicator")),
                "scale": rng.choice((0.5, 1.0, 2.0))}
    return {"kind": "surface_sphere", "radius": rng.choice((0.5, 1.0, 2.0))}


# -- probe-fallback families: d = 2 supports over {1, √2, √3} outside the exact cases ----

PROBE_CONSTANTS = ("sqrt2", "sqrt3")


# Probe cost grows with the number of group points in the probe window, so every
# probe input is Z^2 (a unimodular frame) plus one irrational direction of bounded
# length: the generator draws the frame and the irrational coefficients, not the
# size of the work.
UNIMODULAR_FRAMES = (((1, 0), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (1, 1)), ((1, 0), (1, -1)))


def _unimodular_frame(rng):
    fr = rng.choice(UNIMODULAR_FRAMES)
    sx, sy, swap = rng.choice((1, -1)), rng.choice((1, -1)), rng.random() < 0.5
    out = []
    for x, y in fr:
        x, y = (y, x) if swap else (x, y)
        out.append((Fraction(sx * x), Fraction(sy * y)))
    return out


def _reduced(rng, consts):
    """a√2 + b√3 + r with small nonzero a, b and r the integer that brings it into [-1/2, 1/2]."""
    x = Num()
    for name in consts:
        x = x + Num({CONSTANT_MONOMIAL[name]: _nonzero_rat(rng, 2, 2)})
    return x - Num.of(int(mpmath.nint(x.mpf())))


def _shorter_sum(fr):
    a = tuple(x + y for x, y in zip(*fr))
    b = tuple(x - y for x, y in zip(*fr))
    return min(a, b, key=lambda v: sum(c * c for c in v))


def _frame_point(fr, cs):
    return tuple(sum((cs[j] * fr[j][i] for j in range(2)), Num()) for i in range(2))


def _probe_base(rng, name, family, plant):
    """(case, frame, irrational point) for a planted probe input."""
    consts = PROBE_CONSTANTS
    fr = _unimodular_frame(rng)
    if plant == "holds":
        while True:
            cs = [_reduced(rng, consts), _reduced(rng, consts)]
            if q_independent_with_one(cs):
                break
        q = _frame_point(fr, cs)
        return Case(name, family, 2, "holds", consts, frames=[(fr, q)]), fr, q
    # Z^2 lies on the integer levels of an integer xi; the irrational part runs along xi-perp
    xi = rng.choice(((1, 0), (0, 1), (1, 1), (1, -1)))
    w = (Fraction(-xi[1]), Fraction(xi[0]))
    alpha = _reduced(rng, consts)
    q = tuple(alpha * c for c in w)
    return Case(name, family, 2, "fails", consts, xi=tuple(Fraction(x) for x in xi)), fr, q


def probe_extra_rational(rng, name, plant):
    """More than d rational points next to one irrational point."""
    case, fr, q = _probe_base(rng, name, "probe_extra_rational", plant)
    return _finish(case, fr + [_shorter_sum(fr), q], rng)


def probe_two_irrational(rng, name, plant):
    """Two irrational generators; the second is the first shifted by a frame vector."""
    case, fr, q = _probe_base(rng, name, "probe_two_irrational", plant)
    f = fr[rng.randrange(2)]
    q2 = tuple(c + _num(b) for c, b in zip(q, f))
    return _finish(case, fr + [q, q2], rng)


def probe_products(rng, name, answer="fails"):
    """Closure depends on a product of constants: xi = (1, b√2) is irrational."""
    b = Fraction(rng.choice((-1, 1)), rng.choice((1, 2)))
    xi = (Num.of(1), Num.of(0, sqrt2=b))
    pts = [(Num.of(1), Num())]
    while len(pts) < 3:
        x2 = Fraction(rng.randint(-1, 1), rng.randint(1, 2))
        y2 = Fraction(rng.randint(-1, 1), 2)
        if not (x2 or y2):
            continue
        # <xi, p> = x1 + 2 b y2 + (y1 + b x2)√2 is the integer k
        k = rng.randint(-1, 1)
        pts.append((Num.of(k - 2 * b * y2, sqrt2=-b * x2), Num.of(x2, sqrt2=y2)))
        pts = _unique_pm(pts)
    case = Case(name, "probe_products", 2, "fails", ("sqrt2",), xi=xi)
    return _finish(case, pts, rng)


# -- verify-quadrature inputs: one part kind each ---------------------------------------


# The verify generators draw what leaves the evaluation cost alone (points, weights,
# orders, directions, radii).  Masses, profiles and scales set the quadrature cutoff
# radius, and so the cost, and stay fixed.


def verify_atoms(rng, name, d):
    consts = CONSTANT_SETS[rng.randint(0, 2)]
    pts = [tuple(_irr(rng, consts) if consts and rng.random() < 0.5 else Num.of(_nonzero_rat(rng, 3, 2))
                 for _ in range(d)) for _ in range(3)]
    case = Case(name, "atoms", d, "", consts, part="atoms")
    case.atoms = _unique_pm(pts)
    case.weights = _weights(rng, len(case.atoms))
    return case


def verify_sequence(rng, name, shape):
    """An unbounded-denominator sequence (200 terms) or an accumulating one (40 terms)."""
    if shape == "unbounded":
        seq = _unbounded_sequence(rng, (Fraction(1),), 200)
    else:
        seq = _accumulating_sequence(rng, (Fraction(1, rng.randint(1, 3)),), 40)
    return Case(name, "sequence", 1, "", sequences=[seq], part="sequence")


def verify_radial(rng, name, kind, d, profile=None):
    if kind == "fractional":
        part = {"kind": "fractional", "alpha": rng.choice((0.5, 1.0, 1.5))}
    elif kind == "relativistic":
        part = {"kind": "relativistic", "alpha": rng.choice((0.5, 1.0, 1.5)), "m": 1.0}
    else:
        part = {"kind": "convolution", "profile": profile, "scale": 1.0}
    return Case(name, kind, d, "", continuous=[part], part="radial")


def verify_sphere(rng, name):
    return Case(name, "surface_sphere", 2, "",
                continuous=[_continuous_part(rng, "surface_sphere")], part="sphere")


def verify_affine(rng, name, profile):
    v = (Fraction(rng.randint(1, 3)), Fraction(rng.randint(-3, 3)))
    return Case(name, "affine_supported", 2, "", continuous=[_affine([v], rng, profile, 1.0)],
                part="affine")
