"""Closure of the subgroup generated by supp(mu): V + lattice decompositions.

Balls and spheres make the closure everything.  Affine pieces and dense
directions span a rational subspace V, and the finite support points are
decided modulo V by one exact algorithm, Kronecker's theorem in its general
form (Cassels, *An Introduction to Diophantine Approximation*, Ch. III):

* a point is the sum of its rational slices, p = sum_k c_k p^(k), over the
  declared constants c_0 = 1, c_1, ..., c_m;
* the slices split into the finest rational direct-sum blocks (the components
  of their linear matroid, with the slices of one point kept together), and the
  closure is the direct sum of the closures of the blocks;
* a rank-1 block is a subgroup of a rational line R*w: dense when two of its
  points have an irrational ratio, and g*w otherwise (the line itself, d = 1,
  is this block);
* a wider block needs a constant alpha whose alpha * (rational) points span it.
  They generate a full-rank lattice alpha*L, and the closure is the dual of the
  annihilator {xi in L* : <xi, p/alpha> in Z for every other point p}, which
  rational linear conditions and one congruence cut out.

A block without such an alpha has a closure that depends on products of
constants, e.g. (1, sqrt2), (sqrt2, 1), (1, 0).  It falls back to the
numerical density probe and is never certified.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Any

from . import ratlinalg as rl
from .exactreal import (
    ConstantBasis,
    ExtendedRational,
    format_point,
    rational_ratio,
)
from .measures import Point, SupportDescriptor, negate_point, point_is_zero


class Route(str, Enum):
    """How a closure was decided; the value is what reports print."""

    TRIVIAL = "trivial"
    LATTICE = "lattice"
    IRRATIONAL_PAIR = "irrational_pair"
    KRONECKER = "kronecker"
    ACCUMULATION = "accumulation"
    INTERVAL_OR_BALL = "interval_or_ball"
    PROBE = "probe"

    def __str__(self) -> str:
        return self.value


# a closure built from several blocks reports the strongest route among them
_BLOCK_ROUTES = (Route.TRIVIAL, Route.LATTICE, Route.IRRATIONAL_PAIR, Route.KRONECKER)


@dataclass(frozen=True)
class ClosedSubgroup:
    """closure(G(supp)) = span(v_basis) + Z-span(lambda_basis)."""

    dimension: int
    basis: ConstantBasis
    v_basis: tuple[Point, ...]
    lambda_basis: tuple[Point, ...]
    route: Route
    witness: dict | None = None
    probe: Any = None

    @property
    def v_dim(self) -> int:
        return len(self.v_basis)

    @property
    def lattice_rank(self) -> int:
        return len(self.lambda_basis)

    def is_full(self) -> bool:
        return self.v_dim == self.dimension

    @property
    def provenance(self) -> str:
        return "numerical-probe" if self.route is Route.PROBE else "exact"

    def is_certified(self) -> bool:
        return self.route is not Route.PROBE


@dataclass(frozen=True)
class HyperplaneCertificate:
    """Witness that supp(mu) lies in H + cZ for a codimension-1 space H."""

    normal: Point  # H = normal-orthogonal hyperplane
    c: Point


class ClosureError(ValueError):
    pass


# -- exact vector helpers ----------------------------------------------------------


def er_dot(u: Point, v: Point) -> ExtendedRational:
    """Exact inner product over one denominator; raises NotRepresentableError on constant products."""
    terms = [a * b for a, b in zip(u, v)]
    den = math.lcm(*(t.den for t in terms))
    nums = [[n * (den // t.den) for n in t.nums] for t in terms]
    return ExtendedRational(u[0].basis, map(sum, zip(*nums)), den)


def point_from_fractions(basis: ConstantBasis, vec) -> Point:
    """A rational vector (ints or Fractions) as a point."""
    return tuple(map(basis.from_rational, vec))


def _slice_point(basis: ConstantBasis, k: int, vec) -> Point:
    """c_k * vec for the k-th basis constant (c_0 = 1) and a rational vector."""
    pad = (0,) * basis.size
    return tuple(ExtendedRational(basis, pad[:k] + (x.numerator,) + pad[k:], x.denominator) for x in vec)


def _unit_points(basis: ConstantBasis, d: int) -> tuple[Point, ...]:
    return tuple(point_from_fractions(basis, [int(i == j) for i in range(d)]) for j in range(d))


def rational_parts(p: Point):
    """(slices, den): p = sum_k c_k * slices[k] / den, one integer vector per basis constant."""
    den = math.lcm(*(c.den for c in p))
    return [[c.nums[k] * (den // c.den) for c in p] for k in range(p[0].basis.size + 1)], den


def is_rational_point(p: Point) -> bool:
    return all(c.is_rational() for c in p)


def scalar_direction_split(p: Point):
    """Write p = scale * w with w rational primitive, or return None.

    Works whenever all coordinates are rational multiples of one coordinate,
    e.g. (pi, 2*pi) = pi * (1, 2).
    """
    pivot = next((c for c in p if not c.is_zero()), None)
    ratios = None if pivot is None else [rational_ratio(pivot, c) for c in p]
    if ratios is None or None in ratios:
        return None
    prim = rl.primitive(ratios)  # its first nonzero entry is the pivot's
    return pivot.scale(Fraction(1, next(x for x in prim if x != 0))), prim


# -- rational lattices -----------------------------------------------------------------


def lattice_hnf(generators) -> tuple[Point, ...]:
    """Hermite-normal-form basis of the lattice spanned by rational points."""
    if not generators:
        return ()
    rows, den = _rational_rows(generators)
    cols = rl.hnf_columns(rows)
    return tuple(point_from_fractions(generators[0][0].basis, [Fraction(x, den) for x in c]) for c in cols)


def _rational_rows(points):
    """(rows, den): rational points, as an exact closure's V and lattices are, over one denominator."""
    if not all(is_rational_point(p) for p in points):
        raise ClosureError("expected purely rational coordinates")
    den = math.lcm(*(c.den for p in points for c in p))
    return [[c.nums[0] * (den // c.den) for c in p] for p in points], den


# -- closure ------------------------------------------------------------------------


def closure_multid(support: SupportDescriptor) -> ClosedSubgroup:
    """Exact closure V + lattice of the generated group; probe fallback otherwise."""
    d = support.dimension
    basis = next((p[0].basis for p in support.finite_points + support.directions), ConstantBasis())
    full_v = _unit_points(basis, d)
    if support.fills_ball:
        return ClosedSubgroup(d, basis, full_v, (), Route.INTERVAL_OR_BALL)
    if d == 1 and (support.accumulation_points or support.directions):
        # with no accumulation point, an unbounded-denominator sequence makes the line dense
        acc = support.accumulation_points
        witness = {"accumulation_points": acc} if acc else None
        return ClosedSubgroup(1, basis, full_v, (), Route.ACCUMULATION, witness=witness)

    # V from the dense directions, rationalized so reductions stay exact
    splits = [scalar_direction_split(v) for v in support.directions]
    if None in splits:
        return _probe_closure(basis, support)
    v_span = _rational_span_basis([w for _, w in splits])
    if len(v_span) == d:
        return ClosedSubgroup(d, basis, full_v, (), Route.INTERVAL_OR_BALL)

    points = [p for p in support.finite_points if not point_is_zero(p)]
    if v_span:
        # decide the points modulo V, in coordinates along a rational complement
        comp = _rational_complement(v_span, d)
        reduced = [y[len(v_span):] for y in _frame_coordinates(points, v_span + comp, basis)]
        points = [p for p in reduced if not point_is_zero(p)]
    inner = _points_closure(basis, d - len(v_span), points, d == 1)
    if inner is None:
        return _probe_closure(basis, support)
    v_basis, lam, route, witness = inner
    if v_span:
        comp_points = [point_from_fractions(basis, w) for w in comp]
        origin = (basis.zero(),) * d
        v_basis = tuple(point_from_fractions(basis, v) for v in v_span) + tuple(
            _combine(v, comp_points, origin) for v in v_basis
        )
        lam = tuple(_combine(v, comp_points, origin) for v in lam)
    if len(v_basis) == d:
        return ClosedSubgroup(d, basis, full_v, (), route, witness=witness)
    return ClosedSubgroup(d, basis, v_basis, lam, route, witness=witness)


def closure_1d(support: SupportDescriptor) -> ClosedSubgroup:
    """Dense or g*Z: Remark-level trichotomy for subgroups of the line."""
    if support.dimension != 1:
        raise ClosureError("closure_1d requires dimension 1")
    return closure_multid(support)


def _points_closure(basis, d, points, on_line):
    """(v_basis, lambda_basis, route, witness) of the group the points generate.

    None when some block has no full-rank alpha*L frame.  The witness is the one
    block's that has one: a Kronecker block's, or a line block's pair when the
    ambient space is the line (on_line); elsewhere a pair is in block coordinates.
    """
    # one of p, -p: the one whose first nonzero coefficient is positive
    points = list(dict.fromkeys(
        p if next(x for c in p for x in c.nums if x != 0) > 0 else negate_point(p) for p in points
    ))
    v_basis, lam, routes, witnesses = [], [], [Route.TRIVIAL], []
    for block, span in _rational_blocks(points, d):
        part = (_line_closure(basis, block, span[0]) if len(span) == 1
                else _annihilator_closure(basis, block, len(span)))
        if part is None:
            return None
        v_basis += part[0]
        lam += part[1]
        routes.append(part[2])
        if part[3] is not None and (on_line or len(span) > 1):
            witnesses.append(part[3])
    if not v_basis and all(is_rational_point(v) for v in lam):
        lam = lattice_hnf(lam)
    route = max(routes, key=_BLOCK_ROUTES.index)
    witness = witnesses[0] if len(witnesses) == 1 else None
    return tuple(v_basis), tuple(lam), route, witness


def _rational_blocks(points, d):
    """Finest rational direct-sum blocks as (points, basis of their span) pairs.

    The blocks are the components of the linear matroid of all nonzero slices,
    merged so that the slices of one point stay together.  One rref of the
    slice columns gives every fundamental circuit: a non-pivot column shares a
    component with each pivot it has a nonzero entry against.
    """
    owner, cols = [], []
    for i, p in enumerate(points):
        for s in rational_parts(p)[0]:
            if any(s):
                owner.append(i)
                cols.append(s)
    if not cols:
        return []
    red, pivots, _ = rl.integer_rref([[c[r] for c in cols] for r in range(d)])
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for r, pc in enumerate(pivots):
        for j, x in enumerate(red[r]):
            if x != 0:
                parent[find(owner[j])] = find(owner[pc])
    blocks: dict[int, tuple[list, list]] = {}
    for i, p in enumerate(points):
        blocks.setdefault(find(i), ([], []))[0].append(p)
    for pc in pivots:
        blocks[find(owner[pc])][1].append(cols[pc])
    return list(blocks.values())


def _line_closure(basis, points, direction):
    """Closure of the points t*w on the rational line R*w: the whole line or g*w.

    With a1 the least |t| (distinct, as `_points_closure` keeps one of p, -p),
    the line is dense iff some |t|/a1 is irrational (the witness pair); else g is
    a1 times the gcd of the ratios over one denominator.
    """
    w = rl.primitive(direction)
    if next(x for x in w if x != 0) < 0:
        w = [-x for x in w]
    ts = [t for (t,) in _frame_coordinates(points, [w], basis)]
    scalars = sorted((t if t.sign() > 0 else -t for t in ts), key=float)
    a1, ratios = scalars[0], []
    for b in scalars:
        r = rational_ratio(a1, b)
        if r is None:
            return [point_from_fractions(basis, w)], [], Route.IRRATIONAL_PAIR, {"pair": (a1, b)}
        ratios.append(r)
    (ints,), den = rl.clear_denominators([ratios])
    g = a1.scale(Fraction(math.gcd(*ints), den))
    return [], [tuple(g.scale(x) for x in w)], Route.LATTICE, None


def _annihilator_closure(basis, points, k):
    """Closure of a block of rank k >= 2 from a full-rank alpha*L frame, or None.

    In coordinates y with p = alpha * B y, B the HNF basis of L, the annihilator
    is {xi in Z^k : <xi, y> in Z for every point off the frame}.  Since the
    numbers c_j/alpha are Q-independent and c_alpha/alpha = 1, that asks
    <xi, y^(j)> = 0 for j != alpha and <xi, y^(alpha)> = n, an integer: one
    integer kernel in the unknowns (xi, n).  The closure is its dual: V is the
    rational kernel of the annihilator, the lattice alpha * B times a rational
    right inverse.  The witness holds the coordinates B^-1 p of the points off
    the frame ("c").
    """
    parts = [rational_parts(p) for p in points]
    for a in range(basis.size + 1):
        on_frame = [not any(any(s) for j, s in enumerate(sl) if j != a) for sl, _ in parts]
        frame = [[Fraction(x, den) for x in sl[a]] for (sl, den), on in zip(parts, on_frame) if on]
        if frame and rl.rank(frame) == k:
            break
    else:
        return None
    B = rl.hnf_lattice(frame)
    if all(on_frame):
        return [], [_slice_point(basis, a, b) for b in B], Route.LATTICE, None
    c = tuple(_frame_coordinates([p for p, on in zip(points, on_frame) if not on], B, basis))
    rows = []  # each cleared to integers; a row's scale does not move the kernel
    for e, ys in enumerate(c):
        den = math.lcm(*(x.den for x in ys))
        for j in range(basis.size + 1):
            y = [x.nums[j] * (den // x.den) for x in ys]
            n_coeffs = [0] * len(c)
            if j == a:
                n_coeffs[e] = -den
            elif not any(y):
                continue
            rows.append(y + n_coeffs)
    annihilator = rl.hnf_lattice([m[:k] for m in rl.integer_kernel(rows)])
    if not annihilator:
        return [point_from_fractions(basis, b) for b in B], [], Route.KRONECKER, {"c": c}
    s = len(annihilator)
    zero = (Fraction(0),) * len(B[0])
    v = [point_from_fractions(basis, _combine(x, B, zero)) for x in rl.nullspace(annihilator)]
    units = [rl.solve(annihilator, [int(i == j) for j in range(s)]) for i in range(s)]
    lam = [_slice_point(basis, a, _combine(x, B, zero)) for x in units]
    return v, lam, Route.KRONECKER, {"c": c}


def _rational_span_basis(vecs):
    """Row-reduced basis of the rational span of rational vectors."""
    rows, pivots = rl.rref(vecs)
    return [tuple(r) for r in rows[: len(pivots)]]


def _rational_complement(v_span, d):
    """Coordinate vectors completing the independent v_span to a basis of Q^d.

    e_j completes span(v_span, e_0, ..., e_{j-1}) iff coordinate j is not a
    pivot of v_span's rref with its coordinates reversed.
    """
    _, pivots, _ = rl.integer_rref([list(v)[::-1] for v in v_span])
    return [tuple(int(i == j) for i in range(d)) for j in range(d) if d - 1 - j not in pivots]


def _column_coordinates(cols, vecs):
    """(coords, den): coordinates of each rational vector along independent rational columns.

    One fraction-free rref of [cols | vecs].  Row operations keep every linear
    relation among the columns, so a vector in the span of cols reads its
    coordinates, as integers over den, off the first len(cols) rows and
    vanishes below them; a vector outside gets None.
    """
    n = len(cols)
    red, _, den = rl.integer_rref([list(row) for row in zip(*cols, *vecs)])
    return [
        None if any(row[j] for row in red[n:]) else [row[j] for row in red[:n]]
        for j in range(n, n + len(vecs))
    ], den


def _frame_coordinates(points, cols, basis):
    """Exact coordinates of each point along independent rational columns.

    p = sum_j y_j cols[j] with ExtendedRational y_j holds slice by slice,
    p^(k) = sum_j y_j^(k) cols[j], so every constant slice of every point goes
    into one `_column_coordinates` call.  Every point must lie in the span of cols.
    """
    m = basis.size + 1
    parts = [rational_parts(p) for p in points]
    ys, den = _column_coordinates(cols, [s for sl, _ in parts for s in sl])
    return [tuple(ExtendedRational(basis, y, den * d) for y in zip(*ys[i * m:i * m + m]))
            for i, (_, d) in enumerate(parts)]


def _combine(coeffs, vecs, zero) -> tuple:
    """zero + sum_j coeffs[j] * vecs[j], exactly, for int, Fraction or ExtendedRational entries.

    zero is the zero vector of the result: ExtendedRational has no __radd__, and an
    empty combination (a rank-0 lattice) still has the ambient length.
    """
    out = zero
    for coef, vec in zip(coeffs, vecs):
        out = tuple(x + y * coef for x, y in zip(out, vec))
    return out


def _probe_closure(basis, support) -> ClosedSubgroup:
    from . import numerics

    result = None
    if support.finite_points:
        result = numerics.density_probe(support.finite_points, R=3.0, n_max=30, grid_div=100)
    return ClosedSubgroup(support.dimension, basis, (), (), Route.PROBE, probe=result)


# -- orthogonalization ----------------------------------------------------------------


def orthogonalize(group: ClosedSubgroup) -> ClosedSubgroup:
    """Replace each lattice vector a by a - proj_V(a); same generated group.

    In the frame [V | V-perp], a - proj_V(a) is the V-perp part of a.
    """
    if not group.v_basis or not group.lambda_basis:
        return group
    vr, _ = _rational_rows(group.v_basis)
    perp = rl.nullspace(vr)
    perp_points = [point_from_fractions(group.basis, w) for w in perp]
    origin = (group.basis.zero(),) * group.dimension
    new_lam = tuple(
        _combine(y[len(vr):], perp_points, origin)
        for y in _frame_coordinates(group.lambda_basis, vr + perp, group.basis)
    )
    return replace(group, lambda_basis=new_lam)


# -- hyperplane certificates -------------------------------------------------------------


def hyperplane_certificate(group: ClosedSubgroup, support: SupportDescriptor) -> HyperplaneCertificate:
    """Build (H, c) with supp in H + cZ from a non-full orthogonalized closure.

    Every lattice vector is s * (rational w).  c is a shortest vector of the
    lattice vectors whose scale is a rational multiple of the first rational
    one's (of the first one's when none is rational).  H holds V, the rest of
    that sublattice and the directions w of the other lattice vectors.
    """
    if group.is_full():
        raise ClosureError("closure is dense; no hyperplane certificate exists")
    d = group.dimension
    basis = group.basis
    h_rows, _ = _rational_rows(group.v_basis)
    c_point, c_dir = None, []
    if group.lambda_basis:
        splits = [scalar_direction_split(v) for v in group.lambda_basis]
        if None in splits:
            raise ClosureError("lattice vector is not a scalar times a rational vector")
        scale = basis.one() if any(map(is_rational_point, group.lambda_basis)) else splits[0][0]
        vr = []
        for s, w in splits:
            r = rational_ratio(scale, s)
            if r is None:
                h_rows.append(list(w))
            else:
                vr.append([r * x for x in w])

        def dot(u, v):
            return sum((a * b for a, b in zip(u, v)), Fraction(0))

        mvec, _ = rl.shortest_vector(vr, dot)
        zero = (Fraction(0),) * d
        cvec = _combine(mvec, vr, zero)
        U = rl.complete_primitive(rl.primitive(mvec))
        for jcol in range(1, len(vr)):
            h_rows.append(_combine([row[jcol] for row in U], vr, zero))
        c_point = _canonical_sign(tuple(scale.scale(x) for x in cvec))
        c_dir = [cvec]

    # pad H to dimension d-1 with rational vectors orthogonal to everything used
    pad_rows = h_rows + c_dir
    padding = rl.nullspace(pad_rows) if pad_rows else [[int(i == j) for i in range(d)] for j in range(d)]
    h_basis_vecs = h_rows + padding[:max(0, d - 1 - len(h_rows))]
    if len(h_basis_vecs) != d - 1:
        raise ClosureError("failed to assemble a codimension-1 hyperplane")
    if h_basis_vecs:
        normal_vecs = rl.nullspace(h_basis_vecs)
        if len(normal_vecs) != 1:
            raise ClosureError("hyperplane basis is degenerate")
        normal = point_from_fractions(basis, rl.primitive(normal_vecs[0]))
    else:
        normal = point_from_fractions(basis, [1])
    if c_point is None:
        c_point = _canonical_sign(normal)
    cert = HyperplaneCertificate(normal=normal, c=c_point)
    _validate_certificate(cert, support)
    return cert


def _canonical_sign(p: Point) -> Point:
    sign = next((c.sign() for c in p if not c.is_zero()), 1)
    return p if sign > 0 else tuple(-c for c in p)


def _validate_certificate(cert: HyperplaneCertificate, support: SupportDescriptor):
    """Every finite support point must satisfy <n, x> in <n, c>*Z exactly."""
    period = er_dot(cert.normal, cert.c)
    for x in support.finite_points:
        val = er_dot(cert.normal, x)
        if period.is_zero():
            if not val.is_zero():
                raise ClosureError("certificate fails: c in H but support pairs nonzero")
            continue
        r = rational_ratio(period, val)
        if r is None or r.denominator != 1:
            raise ClosureError(
                f"certificate fails at {format_point(x)}: pairing {val} not an integer "
                f"multiple of {period}"
            )
    for v in support.directions:
        if not er_dot(cert.normal, v).is_zero():
            raise ClosureError("certificate fails: dense direction not inside H")


# -- measure decomposition ---------------------------------------------------------------


@dataclass(frozen=True)
class Decomposition:
    """mu = sum over lattice points a of mu_a with supp(mu_a) in V + a."""

    group: ClosedSubgroup
    coset_keys: tuple[tuple[int, ...], ...]  # integer coordinates in lambda_basis
    coset_points: tuple[Point, ...]
    parts: tuple[tuple, ...]  # parallel: tuple of (point, weight) atom lists
    separation: float
    mass_off_origin_bound: float


class DecompositionError(ValueError):
    pass


def decompose_measure(mu, group: ClosedSubgroup) -> Decomposition:
    """Partition atoms by coset V + a and verify the decomposition laws.

    The parts are listed for the occupied cosets, their mirrors and the origin.
    """
    from .measures import AffinePart

    if group.is_full():
        raise DecompositionError("Liouville holds; nothing to decompose")
    group = orthogonalize(group)
    basis = group.basis

    atom_items = [(a.point, a.weight) for a in mu.atoms]
    for seq in mu.sequences:
        for p, w in seq.terms:
            w = basis.from_rational(w)
            atom_items += [(p, w), (negate_point(p), w)]
    for part in mu.continuous:
        if not isinstance(part, AffinePart):
            raise DecompositionError(
                "only atomic and affine-supported parts can be decomposed"
            )

    # coset coordinates by exact linear solve x = V t + sum m_i lambda_i
    keys = {}
    for (p, w), m in zip(atom_items, _coset_keys([p for p, _ in atom_items], group)):
        if m is None:
            raise DecompositionError(f"atom {format_point(p)} lies in no coset V + a")
        keys.setdefault(tuple(m), []).append((p, w))

    zero_key = tuple(0 for _ in group.lambda_basis)
    lattice_keys = sorted(set(keys) | {tuple(-x for x in k) for k in keys} | {zero_key})
    origin = (basis.zero(),) * group.dimension
    coset_points = [_combine(key, group.lambda_basis, origin) for key in lattice_keys]
    parts = [tuple(keys.get(key, ())) for key in lattice_keys]

    _verify_symmetry_pairing(lattice_keys, parts)

    separation = _separation(group)
    if separation == 0:
        raise DecompositionError("lattice separation collapsed to 0")

    mass = 0.0
    for key, part in zip(lattice_keys, parts):
        if any(key):
            mass += sum(float(w) for _, w in part)
    for seq in mu.sequences:
        if seq.accumulation_scalar() is None:
            mass += seq.weights.total_bound()
    if math.isinf(mass):
        raise DecompositionError("off-origin mass bound is infinite")

    return Decomposition(
        group=group,
        coset_keys=tuple(lattice_keys),
        coset_points=tuple(coset_points),
        parts=tuple(parts),
        separation=separation,
        mass_off_origin_bound=mass,
    )


def _coset_keys(points, group: ClosedSubgroup):
    """Integer coordinates m with p - sum m_i lambda_i in span(V) for each point, or None.

    One frame [V | W], W a rational complement of V, reduces every point and every
    lambda_i.  p lies in V + sum m_i lambda_i iff the W coordinates agree, slice by
    slice: one rational system in m, the same for all points, whose columns are
    the lambda_i's W coordinates over every constant slice.
    """
    vr, _ = _rational_rows(group.v_basis)
    lam = group.lambda_basis
    frame = vr + _rational_complement(vr, group.dimension)
    ws = [y[len(vr):] for y in _frame_coordinates(list(lam) + list(points), frame, group.basis)]
    den = math.lcm(*(c.den for w in ws for c in w))
    flat = [[x * (den // c.den) for c in w for x in c.nums] for w in ws]
    ms, den = _column_coordinates(flat[:len(lam)], flat[len(lam):])
    return [None if m is None or any(x % den for x in m) else [x // den for x in m] for m in ms]


def _separation(group: ClosedSubgroup) -> float:
    """Norm of a shortest nonzero vector of Z-span(lambda); inf at rank 0.

    The Gram matrix G is taken from the float basis, so a mixed-scale lattice
    such as (1, 0), (0, sqrt2) needs no product of constants; `rl.short_vectors`
    reduces and enumerates it in floats, which only chooses the unimodular T.
    Every candidate within rounding of the shortest is rebuilt exactly and
    reports its norm as sqrt(sum float(c)^2) over its exact coordinates.
    """
    if group.lattice_rank == 0:
        return math.inf
    vecs = [[float(c) for c in v] for v in group.lambda_basis]
    G = [[math.fsum(a * b for a, b in zip(u, v)) for v in vecs] for u in vecs]
    tol = 1 + 1e-9
    found = list(rl.short_vectors(G, tol))
    best = min(q for _, q in found)
    near = [m for m, q in found if q <= best * tol]
    origin = (group.basis.zero(),) * group.dimension
    return min(math.sqrt(sum(float(c) ** 2 for c in _combine(m, group.lambda_basis, origin))) for m in near)


def _verify_symmetry_pairing(keys, parts):
    """mu_a(.) must equal mu_{-a}(-.) atom by atom, as multisets of (point, weight)."""
    index = {k: i for i, k in enumerate(keys)}
    for k, part in zip(keys, parts):
        mirror = parts[index[tuple(-x for x in k)]]
        if (part or mirror) and Counter(part) != Counter((negate_point(p), w) for p, w in mirror):
            raise DecompositionError(f"symmetry pairing fails at coset {k}")
