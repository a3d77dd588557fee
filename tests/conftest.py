import dataclasses
import itertools
import math
import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), ".."))

from liouville.exactreal import ConstantBasis, ExtendedRational

PI_50 = "3.14159265358979323846264338327950288419716939937511"
SQRT2_50 = "1.41421356237309504880168872420969807856967187537695"
SQRT3_50 = "1.73205080756887729352744634150587236694280525381038"
INVPI2_50 = "0.10132118364233777144387946320972763890435877467226"

SPEC_DIR = os.path.join(os.path.dirname(__file__), "..", "specs")


@pytest.fixture
def plain_basis():
    return ConstantBasis()


@pytest.fixture
def pi_basis():
    return ConstantBasis(("pi",), (PI_50,))


@pytest.fixture
def sqrt2_basis():
    return ConstantBasis(("sqrt2",), (SQRT2_50,))


@pytest.fixture
def sqrt23_basis():
    return ConstantBasis(("sqrt2", "sqrt3"), (SQRT2_50, SQRT3_50))


def er(basis, *coords):
    """q0 + q1*c1 + ... from rational coordinates q_k: cleared to integers over one denominator."""
    coords = [Fraction(c) for c in coords]
    den = math.lcm(*(c.denominator for c in coords))
    return ExtendedRational(basis, [c.numerator * (den // c.denominator) for c in coords], den)


def coords(x):
    """The rational coordinates (q0, q1, ...) of an ExtendedRational: its numerators over den."""
    return tuple(Fraction(n, x.den) for n in x.nums)


def rational(x):
    """The Fraction that a rational ExtendedRational equals; fails on an irrational one."""
    assert x.is_rational(), x
    return Fraction(x.nums[0], x.den)


def spec_path(name):
    return os.path.join(SPEC_DIR, name)


def check_periodicity(u, generators, samples, tol: float) -> tuple[bool, float]:
    """Max over samples x and generators s of |u(x+s) - u(x)|; True iff <= tol."""
    import numpy as np

    worst = 0.0
    for x in samples:
        xv = np.asarray(x, dtype=float)
        ux = float(u(xv))
        for s in generators:
            sv = np.asarray(s, dtype=float)
            dev = abs(float(u(xv + sv)) - ux)
            if dev > worst:
                worst = dev
    return worst <= tol, worst


def scaled_primitive(vec):
    """Oracle for `ratlinalg.primitive`: clear the denominators, then divide out the gcd."""
    denom = math.lcm(*(Fraction(c).denominator for c in vec))
    ints = [int(Fraction(c) * denom) for c in vec]
    g = math.gcd(*(abs(c) for c in ints if c != 0))
    return [Fraction(c, g) for c in ints]


def clear_int_polys(polys):
    """Oracle for `ratlinalg.primitive` on joined polynomials: one scale lcm(dens) / gcd(nums)."""
    denoms = [c.denominator for p in polys for c in p]
    nums = [abs(c.numerator) for p in polys for c in p if c != 0]
    scale = Fraction(math.lcm(*denoms) if denoms else 1, math.gcd(*nums) if nums else 1)
    return [[int(c * scale) for c in p] for p in polys]


def reference_rref(mat):
    """Oracle for `ratlinalg.rref`: Gauss-Jordan elimination on Fractions, each pivot row divided first."""
    rows = [list(map(Fraction, r)) for r in mat]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def reference_solve(mat, rhs):
    """Oracle for `ratlinalg.solve`: `reference_rref` of the augmented matrix, free variables 0."""
    if not mat:
        return [] if all(Fraction(b) == 0 for b in rhs) else None
    red, pivots = reference_rref([list(row) + [b] for row, b in zip(mat, rhs)])
    ncols = len(mat[0])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def reference_nullspace(mat):
    """Oracle for `ratlinalg.nullspace`: one kernel vector per free column of `reference_rref`."""
    if not mat:
        return []
    red, pivots = reference_rref(mat)
    basis = []
    for fc in (c for c in range(len(mat[0])) if c not in pivots):
        v = [Fraction(0)] * len(mat[0])
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def reference_poly_eval(c, n):
    """Oracle for `measures._poly_eval` on rational coefficients: Horner's rule on Fractions."""
    acc = Fraction(0)
    for coef in reversed(c):
        acc = acc * n + coef
    return acc


# -- the Q[x] Euclid toolkit that `PolyRatioSequence` used before its Sylvester eliminations --


def _poly_trim(c):
    c = list(map(Fraction, c))
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_deg(c):
    return len(c) - 1


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _poly_trim(out)


def _poly_divmod(a, b):
    a = _poly_trim(a)
    b = _poly_trim(b)
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while r and len(r) >= len(b):
        f = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = f
        for i, coef in enumerate(b):
            r[k + i] -= f * coef
        r = _poly_trim(r)
    return _poly_trim(q), r


def _poly_ext_gcd(a, b):
    """(g, u, v) with u*a + v*b = g over Q[x]; g monic gcd."""

    def minus(a, b):
        return _poly_trim([x - y for x, y in itertools.zip_longest(a, b, fillvalue=0)])

    r0, r1 = _poly_trim(a), _poly_trim(b)
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while r1:
        q, r = _poly_divmod(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, minus(u0, _poly_mul(q, u1))
        v0, v1 = v1, minus(v0, _poly_mul(q, v1))
    if r0:
        lead = r0[-1]
        r0 = [c / lead for c in r0]
        u0 = [c / lead for c in u0]
        v0 = [c / lead for c in v0]
    return r0, u0, v0


def _poly_positive_root_free(c, what):
    """Reject polynomials vanishing at some integer n >= 1."""
    from liouville.measures import MeasureSpecError, _poly_eval
    from liouville.ratlinalg import clear_denominators

    c = _poly_trim(c)
    if not c:
        raise MeasureSpecError(f"{what} is identically zero")
    lead = abs(c[-1])
    bound = 1 + max((abs(x) for x in c[:-1]), default=Fraction(0)) / lead
    (ints,), _ = clear_denominators([c])
    for n in range(1, int(bound) + 2):
        if _poly_eval(ints, n) == 0:
            raise MeasureSpecError(f"{what} vanishes at n={n}")


def reference_poly_ratio(seq):
    """Oracle for `measures.PolyRatioSequence`: `seq` with the methods it had on Q[x] Euclid."""
    from liouville.measures import MeasureSpecError, PolyRatioSequence, _poly_eval, point_is_zero
    from liouville.ratlinalg import primitive

    class ReferencePolyRatioSequence(PolyRatioSequence):
        def decay_order(self) -> int:
            """deg(den) - deg(num); positive means points decay to 0."""
            return _poly_deg(_poly_trim(self.den)) - _poly_deg(_poly_trim(self.num))

        def accumulation_scalar(self) -> Fraction | None:
            d = self.decay_order()
            if d >= 1:
                return Fraction(0)
            if d == 0:
                num, den = _poly_trim(self.num), _poly_trim(self.den)
                return num[-1] / den[-1]
            return None

        def validate(self):
            num, den = _poly_trim(self.num), _poly_trim(self.den)
            _poly_positive_root_free(num, "sequence numerator")
            _poly_positive_root_free(den, "sequence denominator")
            if self.truncation < 1:
                raise MeasureSpecError("truncation must be >= 1")
            if point_is_zero(self.direction):
                raise MeasureSpecError("sequence direction must be nonzero")
            q, r = _poly_divmod(num, den)
            if not r and _poly_deg(q) == 0:
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
            num, den = _poly_trim(self.num), _poly_trim(self.den)
            d = self.decay_order()
            tail = 2.0 * float(sum(abs(c) for c in num)) / float(abs(den[-1]))
            n1 = int(2 * sum(abs(c) for c in den) / abs(den[-1])) + 1
            P, Q = self._integer_polys
            scan = max(abs(_poly_eval(P, n) / _poly_eval(Q, n)) * n**d for n in range(1, n1 + 1))
            return max(scan, tail)

        def q_certification(self):
            acc = self.accumulation_scalar()
            if acc is not None:
                return ("accumulation", acc)
            num, den = _poly_trim(self.num), _poly_trim(self.den)
            a1 = self.scalar(1)
            # a_n / a_1 = A(n)/B(n) with integer-coefficient A, B
            A = [c * _poly_eval(den, 1) for c in num]
            B = [c * _poly_eval(num, 1) for c in den]
            g = _poly_ext_gcd(A, B)[0]
            A = _poly_divmod(A, g)[0]
            B = _poly_divmod(B, g)[0]
            # one positive rational scales A and B to integers with no common factor
            AB = primitive(A + B)
            A, B = AB[:len(A)], AB[len(A):]
            if _poly_deg(B) >= 1:
                # gcd(A(n), B(n)) divides a fixed integer L: U*A + V*B = L over Z[x]
                _, u, v = _poly_ext_gcd(A, B)
                L = math.lcm(*(c.denominator for c in u + v))
                return ("unbounded", {"denominator_poly": tuple(B), "cofactor_bound": L})
            b0 = abs(B[0])
            degA = _poly_deg(A)
            gamma = math.gcd(*(abs(int(_poly_eval(A, n))) for n in range(1, degA + 2)))
            return ("lattice", abs(a1) * Fraction(gamma, b0))

    return ReferencePolyRatioSequence(*(getattr(seq, f.name) for f in dataclasses.fields(seq)))


def reference_complete_primitive(m):
    """Oracle for `ratlinalg.complete_primitive`: Euclid's row operations on (m | I).

    U starts as I and follows every row operation, so U @ m = e_1 at the end
    and U^-1 has first column m.
    """
    from liouville import ratlinalg as rl

    k = len(m)
    if math.gcd(*map(abs, m)) != 1:
        raise ValueError("vector is not primitive")
    cur = list(m)
    U = [[int(i == j) for j in range(k)] for i in range(k)]
    while True:
        nz = sorted((i for i in range(k) if cur[i] != 0), key=lambda i: abs(cur[i]))
        if len(nz) == 1:
            break
        i0 = nz[0]
        for i in nz[1:]:
            q = cur[i] // cur[i0]
            cur[i] -= q * cur[i0]
            U[i] = [a - q * b for a, b in zip(U[i], U[i0])]
    i0 = next(i for i in range(k) if cur[i] != 0)
    cur[0], cur[i0] = cur[i0], cur[0]
    U[0], U[i0] = U[i0], U[0]
    if cur[0] < 0:
        U[0] = [-x for x in U[0]]
    return rl.invert_unimodular(U)


def coefficient_bounds(G):
    """Bounds b_i with |m_i| <= b_i for every m with m^T G m <= min_j G_jj.

    Such an m has |m_i| <= sqrt(min_j G_jj * (G^-1)_ii); the + 1 absorbs the
    floor of the integer square root.  The bound is computed exactly from the
    entries of G, which may be rationals or floats.  A brute-force search over
    this box therefore meets every shortest vector of the lattice with Gram G.
    """
    from liouville import ratlinalg as rl

    r = len(G)
    top = min(Fraction(G[i][i]) for i in range(r))
    ginv_diag = [rl.solve(G, [Fraction(int(j == i)) for j in range(r)])[i] for i in range(r)]
    return [math.isqrt(int(top * g)) + 1 for g in ginv_diag]


def reference_propagate(support_points, R, n_max, grid_div):
    """Oracle for `numerics.propagate` (no target): each layer deduplicated in a Python set
    of key tuples, candidate by candidate, and its covering radius lowered by a k-d tree
    query of the whole grid.  Reads the pass size and the point cap from `numerics`."""
    import numpy as np

    from liouville import numerics
    from liouville.exactreal import basis_floats

    d = len(support_points[0])
    basis = support_points[0][0].basis

    steps = list(dict.fromkeys(
        tuple(coords(c) for c in q) for p in support_points for q in (p, tuple(-c for c in p))
    ))
    denominator = math.lcm(*(f.denominator for s in steps for c in s for f in c))
    step_keys = [tuple(int(f * denominator) for c in s for f in c) for s in steps]
    floats = basis_floats(basis)
    step_pos = np.array(
        [[float(sum(float(f) * v for f, v in zip(c, floats))) for c in s] for s in steps]
    )
    lim = R + max(float(np.linalg.norm(v)) for v in step_pos)

    front_keys = [(0,) * (d * (basis.size + 1))]
    seen = set(front_keys)
    layers = [np.zeros((1, d))]
    grid = numerics._probe_grid(d, R, grid_div)
    dmin = _nearest(grid, layers[0], math.inf)

    state = numerics.PropagationState(R=R, sizes=[], deltas=[])
    front_pos = layers[0]
    for _ in range(n_max):
        front_keys, front_pos = _next_layer(front_keys, front_pos, step_keys, step_pos, lim, seen)
        layers.append(front_pos)
        if front_keys:
            dmin = np.minimum(dmin, _nearest(grid, front_pos, dmin.max()))
        if len(seen) > numerics._POINT_CAP:
            state.flagged_partial = True
        state.deltas.append(float(dmin.max()))
        state.sizes.append(len(seen))
        if state.flagged_partial:
            break
    state.positions = np.concatenate(layers)
    return state


def _next_layer(front_keys, front_pos, step_keys, step_pos, lim, seen):
    """Keys and floats of the points one step from the frontier that are new and in the window.

    Adds the new keys to `seen`.  Candidates are frontier float + step float, tested
    against the window in numpy passes over blocks of frontier rows.
    """
    import operator

    import numpy as np

    from liouville import numerics

    n_steps, d = step_pos.shape
    rows = max(1, numerics._CANDIDATES_PER_PASS // n_steps)
    new_keys, new_pos = [], [np.empty((0, d))]
    for lo in range(0, len(front_keys), rows):
        cand = (front_pos[lo : lo + rows, None, :] + step_pos[None, :, :]).reshape(-1, d)
        picks = []
        for idx in np.flatnonzero(np.linalg.norm(cand, axis=1) <= lim).tolist():
            f, s = divmod(idx, n_steps)
            key = tuple(map(operator.add, front_keys[lo + f], step_keys[s]))
            if key not in seen:
                seen.add(key)
                new_keys.append(key)
                picks.append(idx)
        new_pos.append(cand[picks])
    return new_keys, np.concatenate(new_pos)


def _nearest(grid, points, bound):
    """Distance from each grid point to the nearest of `points`; inf where it exceeds bound.

    A running minimum lowered with this over each new layer, bounded by its own
    maximum, stays exact: a new point that is closer than an entry is within the bound.
    """
    from scipy.spatial import cKDTree

    dist, _ = cKDTree(points).query(grid, distance_upper_bound=bound)
    return dist


# -- the line closure that `closure.closure_1d` decided in its own body, before the line
# became the rank-1 block of `closure_multid` --


def _descriptor_basis(support):
    from liouville.exactreal import ConstantBasis

    for p in support.finite_points + support.directions:
        return p[0].basis
    return ConstantBasis()


def reference_closure_1d(support):
    """Oracle for `closure.closure_1d` on symmetric supports: its former body, unchanged.

    It reads only the positive support values, so a support without the mirror of a
    point (as a lattice sequence along a negative direction gave) loses that point.
    """
    from liouville import ratlinalg as rl
    from liouville.closure import ClosedSubgroup, ClosureError, Route, _unit_points
    from liouville.exactreal import rational_ratio

    if support.dimension != 1:
        raise ClosureError("closure_1d requires dimension 1")
    basis = _descriptor_basis(support)
    if support.fills_ball:
        return ClosedSubgroup(1, basis, _unit_points(basis, 1), (), Route.INTERVAL_OR_BALL)
    if support.accumulation_points or support.directions:
        # with no accumulation point, an unbounded-denominator sequence makes the line dense
        acc = support.accumulation_points
        witness = {"accumulation_points": acc} if acc else None
        return ClosedSubgroup(1, basis, _unit_points(basis, 1), (), Route.ACCUMULATION, witness=witness)
    # the positive support values, one per +- pair, sorted and distinct
    scalars = []
    for x in sorted((p[0] for p in support.finite_points if p[0].sign() > 0), key=float):
        if not scalars or x != scalars[-1]:
            scalars.append(x)
    if not scalars:
        return ClosedSubgroup(1, basis, (), (), Route.TRIVIAL)
    a1 = scalars[0]
    ratios = []
    for b in scalars:
        r = rational_ratio(a1, b)
        if r is None:
            return ClosedSubgroup(
                1, basis, _unit_points(basis, 1), (), Route.IRRATIONAL_PAIR,
                witness={"pair": (a1, b)},
            )
        ratios.append(r)
    # the positive generator of the ratios' lattice: gcd of their numerators over one denominator
    (ints,), den = rl.clear_denominators([ratios])
    g = a1.scale(Fraction(math.gcd(*ints), den))
    return ClosedSubgroup(1, basis, (), ((g,),), Route.LATTICE)


def reference_line_closure(basis, points, direction):
    """Oracle for `closure._line_closure`: a 1-d descriptor of the +- scalars, by `reference_closure_1d`."""
    from liouville import ratlinalg as rl
    from liouville.closure import _frame_coordinates, point_from_fractions
    from liouville.measures import SupportDescriptor

    w = rl.primitive(direction)
    if next(x for x in w if x != 0) < 0:
        w = [-x for x in w]
    scalars = [t for (t,) in _frame_coordinates(points, [w], basis)]
    sub = SupportDescriptor(dimension=1, finite_points=tuple((t,) for t in scalars + [-t for t in scalars]))
    cl = reference_closure_1d(sub)
    if cl.is_full():
        return [point_from_fractions(basis, w)], [], cl.route, None
    g = cl.lambda_basis[0][0]
    return [], [tuple(g.scale(x) for x in w)], cl.route, None
