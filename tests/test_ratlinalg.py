import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from liouville import ratlinalg as rl
from conftest import coefficient_bounds


def bfs_span_in_box(gens, box, pad):
    """Brute-force Z-span enumeration: boolean-grid BFS in a padded box.

    The pad covers Steinitz reordering so every span point inside the target
    box is reachable through the padded box.
    """
    d = len(gens[0])
    lim = box + pad
    size = 2 * lim + 1
    reach = np.zeros((size,) * d, dtype=bool)
    reach[(lim,) * d] = True
    steps = [tuple(s * x for x in g) for g in gens for s in (1, -1)]
    changed = True
    while changed:
        changed = False
        for step in steps:
            shifted = reach
            for ax, off in enumerate(step):
                shifted = np.roll(shifted, off, axis=ax)
                if off:
                    idx = [slice(None)] * d
                    idx[ax] = slice(0, off) if off > 0 else slice(off, None)
                    shifted = shifted.copy()
                    shifted[tuple(idx)] = False
            new = shifted & ~reach
            if new.any():
                reach |= new
                changed = True
    pts = np.argwhere(reach) - lim
    pts = pts[np.all(np.abs(pts) <= box, axis=1)]
    return set(map(tuple, pts))


def lattice_points_in_box(basis, box):
    """All integer-combination points of the basis inside [-box, box]^d."""
    if not basis:
        return {tuple([0] * 0)}
    d = len(basis[0])
    B = np.array([[float(c) for c in b] for b in basis]).T
    r = len(basis)
    # generous coefficient bounds from the pseudo-inverse
    pinv = np.linalg.pinv(B)
    corner_coeffs = []
    for corner in np.ndindex(*([2] * d)):
        x = np.array([box if c else -box for c in corner], dtype=float)
        corner_coeffs.append(pinv @ x)
    bounds = np.ceil(np.abs(np.array(corner_coeffs)).max(axis=0)).astype(int) + 1
    out = set()
    import itertools

    for m in itertools.product(*(range(-b, b + 1) for b in bounds)):
        p = [sum(m[j] * basis[j][i] for j in range(r)) for i in range(d)]
        if all(c.denominator == 1 if isinstance(c, Fraction) else True for c in p):
            pi = tuple(int(c) for c in p)
            if all(abs(c) <= box for c in pi):
                out.add(pi)
    return out


class TestRref:
    def test_solve_unique(self):
        A = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(3)]]
        x = rl.solve(A, [Fraction(5), Fraction(10)])
        assert x == [Fraction(1), Fraction(3)]

    def test_solve_inconsistent(self):
        A = [[Fraction(1), Fraction(1)], [Fraction(2), Fraction(2)]]
        assert rl.solve(A, [Fraction(1), Fraction(3)]) is None

    def test_nullspace(self):
        A = [[Fraction(1), Fraction(2), Fraction(3)]]
        for v in rl.nullspace(A):
            assert sum(a * b for a, b in zip(A[0], v)) == 0
        assert len(rl.nullspace(A)) == 2

    def test_left_dependency(self):
        rows = [[Fraction(1), Fraction(0)], [Fraction(2), Fraction(0)], [Fraction(0), Fraction(1)]]
        lam = rl.left_dependency(rows)
        assert lam is not None
        for j in range(2):
            assert sum(l * rows[i][j] for i, l in enumerate(lam)) == 0


class TestHnf:
    def test_checkerboard_canonical_basis(self):
        # spec example: (2,0),(0,2),(1,1) -> {(1,1),(0,2)}
        basis = rl.hnf_lattice([[2, 0], [0, 2], [1, 1]])
        assert basis == [(Fraction(1), Fraction(1)), (Fraction(0), Fraction(2))]

    def test_identity_passthrough(self):
        basis = rl.hnf_lattice([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert len(basis) == 3
        pts = lattice_points_in_box(basis, 2)
        assert (1, 1, 1) in pts and (0, 0, 1) in pts

    def test_rational_generators(self):
        basis = rl.hnf_lattice([[Fraction(1, 2), 0], [0, Fraction(1, 3)]])
        assert basis == [(Fraction(1, 2), Fraction(0)), (Fraction(0), Fraction(1, 3))]

    def test_checkerboard_matches_bruteforce(self):
        gens = [(2, 0), (0, 2), (1, 1)]
        basis = rl.hnf_lattice([list(g) for g in gens])
        got = lattice_points_in_box(basis, 4)
        want = bfs_span_in_box(gens, 4, 4)
        assert got == want

    def test_random_sets_match_bruteforce(self):
        rng = random.Random(7)
        for trial in range(40):
            d = rng.choice([2, 3])
            k = rng.randint(2, 4)
            gens = []
            while len(gens) < k:
                g = tuple(rng.randint(-5, 5) for _ in range(d))
                if any(g):
                    gens.append(g)
            basis = rl.hnf_lattice([list(g) for g in gens])
            box = 8
            want = bfs_span_in_box(gens, box, 5 * d)
            got = lattice_points_in_box(basis, box)
            assert got == want, (gens, basis)

    def test_membership(self):
        basis = rl.hnf_lattice([[2, 0], [0, 2], [1, 1]])
        assert rl.lattice_member(basis, [Fraction(3), Fraction(1)]) is not None
        assert rl.lattice_member(basis, [Fraction(1), Fraction(0)]) is None


class TestIntegerKernel:
    def test_kernel_vectors_annihilate(self):
        A = [[1, 2, -1], [0, 3, 3]]
        ker = rl.integer_kernel(A)
        assert ker
        for m in ker:
            assert all(sum(r[i] * m[i] for i in range(3)) == 0 for r in A)

    def test_kernel_is_saturated(self):
        # x + y = 0 over Z^2: kernel must contain (1,-1), not only (2,-2)
        ker = rl.integer_kernel([[1, 1]])
        assert rl.lattice_member([tuple(map(Fraction, k)) for k in ker], [Fraction(1), Fraction(-1)])

    def test_congruence_lattice(self):
        # {m : m1/2 + m2/3 in Z}
        lat = rl.congruence_lattice([Fraction(1, 2), Fraction(1, 3)])
        basis = [tuple(map(Fraction, m)) for m in lat]
        for m in ((2, 0), (0, 3), (2, 3), (4, -3)):
            assert rl.lattice_member(basis, [Fraction(c) for c in m]) is not None, m
        assert rl.lattice_member(basis, [Fraction(1), Fraction(0)]) is None
        assert rl.lattice_member(basis, [Fraction(0), Fraction(1)]) is None


def dot(u, v):
    return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v))


class TestShortestVector:
    def test_skew_basis(self):
        # lattice Z(3,0) + Z(2,1): shortest is (-1, 1) (norm^2 = 2)
        basis = [(Fraction(3), Fraction(0)), (Fraction(2), Fraction(1))]
        m, norm = rl.shortest_vector(basis, dot)
        vec = tuple(sum(Fraction(mi) * b[i] for mi, b in zip(m, basis)) for i in range(2))
        assert norm == 2
        assert sorted(map(abs, vec)) == [1, 1]

    def test_exhaustive_agreement(self):
        rng = random.Random(3)
        for _ in range(25):
            basis = []
            while len(basis) < 2:
                v = (Fraction(rng.randint(-4, 4)), Fraction(rng.randint(-4, 4)))
                if any(v) and (not basis or basis[0][0] * v[1] - basis[0][1] * v[0] != 0):
                    basis.append(v)
            _, norm = rl.shortest_vector(basis, dot)
            brute = min(
                dot(
                    [m1 * basis[0][0] + m2 * basis[1][0], m1 * basis[0][1] + m2 * basis[1][1]],
                    [m1 * basis[0][0] + m2 * basis[1][0], m1 * basis[0][1] + m2 * basis[1][1]],
                )
                for m1 in range(-12, 13)
                for m2 in range(-12, 13)
                if (m1, m2) != (0, 0)
            )
            assert norm == brute


def random_unimodular(rng, r, steps=12):
    """Random signs times random elementary integer column operations, so det = +-1."""
    T = [[rng.choice((1, -1)) * int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(steps if r > 1 else 0):
        i, j = rng.sample(range(r), 2)
        q = rng.choice((-3, -2, -1, 1, 2, 3))
        for row in T:
            row[i] += q * row[j]
        if rng.random() < 0.3:
            for row in T:
                row[i], row[j] = -row[j], row[i]
    return T


def skew(basis, T):
    """The basis whose j-th vector is sum_k T[k][j] basis[k]."""
    return [tuple(sum(T[k][j] * Fraction(b[i]) for k, b in enumerate(basis)) for i in range(len(basis[0])))
            for j in range(len(T))]


def box_size(bounds):
    return math.prod(2 * b + 1 for b in bounds)


def brute_minimal_set(G):
    """(every shortest nonzero m, its norm m^T G m) by exhaustive search.

    The box of `coefficient_bounds` holds every m with m^T G m <= min_j G_jj,
    hence every shortest vector.  The form is summed in int64 after clearing
    G's denominators, which is exact at these sizes.
    """
    scale = math.lcm(*(Fraction(x).denominator for row in G for x in row))
    Gi = np.array([[int(Fraction(x) * scale) for x in row] for row in G], dtype=np.int64)
    bounds = coefficient_bounds(G)
    assert box_size(bounds) <= 10**5, "brute force box too large"
    grid = np.array(list(itertools.product(*(range(-b, b + 1) for b in bounds))), dtype=np.int64)
    grid = grid[np.any(grid != 0, axis=1)]
    q = np.einsum("ni,ij,nj->n", grid, Gi, grid)
    return {tuple(map(int, m)) for m in grid[q == q.min()]}, Fraction(int(q.min()), scale)


class TestLatticeSearch:
    """shortest_vector and short_vectors against a brute force in the unskewed basis.

    The brute force runs on a small basis, whose box is proven wide enough; its
    minimal set is mapped through T^-1 onto the coefficients of the skewed basis
    that the search sees, where the lexicographically smallest m must come back.
    """

    def assert_search_matches(self, basis, T, count=None):
        found, norm = brute_minimal_set(rl.gram(basis, dot))
        Tinv = rl.invert_unimodular(T)
        expected = {tuple(sum(Tinv[j][k] * m[k] for k in range(len(m))) for j in range(len(m))) for m in found}
        skewed = skew(basis, T)
        m, n = rl.shortest_vector(skewed, dot)
        assert (m, n) == (min(expected), norm)
        assert {v for v, q in rl.short_vectors(rl.gram(skewed, dot)) if q == norm} == expected
        if count is not None:
            assert len(expected) == count

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_seeded_skewed_lattices(self, rank):
        rng = random.Random(100 + rank)
        for _ in range(8):
            d = rng.randint(rank, rank + 1)
            while True:
                basis = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)) for _ in range(rank)]
                # the skew comes from T; the brute force needs a small box for the unskewed basis
                if rl.rank(basis) == rank and box_size(coefficient_bounds(rl.gram(basis, dot))) <= 10**4:
                    break
            self.assert_search_matches(basis, random_unimodular(rng, rank))

    @pytest.mark.parametrize(
        "basis, count",
        [
            ([(1, 0, 0), (0, 1, 0), (0, 0, 1)], 6),  # Z^3
            ([(1, -1, 0), (0, 1, -1)], 6),  # hexagonal A2 in the plane x + y + z = 0
            ([(1, -1, 0, 0), (0, 1, -1, 0), (0, 0, 1, -1), (0, 0, 1, 1)], 24),  # D4
        ],
        ids=["Z3", "A2", "D4"],
    )
    def test_ties_break_to_the_lexicographic_minimum(self, basis, count):
        rng = random.Random(count + len(basis))
        identity = [[int(i == j) for j in range(len(basis))] for i in range(len(basis))]
        self.assert_search_matches(basis, identity, count)
        for _ in range(4):
            self.assert_search_matches(basis, random_unimodular(rng, len(basis)), count)

    def test_skew_of_fifty_leaves_the_search_small(self):
        # a unimodular T with entries near 50: the box of the unreduced basis holds ~1.4e15 points
        T = [[55, 57, -35], [41, 42, 36], [-56, -58, 31]]
        base = [(Fraction(1, 2), 0, 0), (0, Fraction(1, 3), 0), (0, 0, Fraction(1))]
        skewed = skew(base, T)
        assert box_size(coefficient_bounds(rl.gram(skewed, dot))) > 10**6
        col = [row[1] for row in rl.invert_unimodular(T)]  # the coordinates of (0, 1/3, 0)
        assert rl.shortest_vector(skewed, dot) == (min(tuple(col), tuple(-c for c in col)), Fraction(1, 9))


class TestUnimodular:
    def test_complete_primitive(self):
        U = rl.complete_primitive([3, 5, 7])
        col = [row[0] for row in U]
        assert col == [3, 5, 7]
        det = round(np.linalg.det(np.array(U, dtype=float)))
        assert det in (1, -1)

    def test_non_primitive_rejected(self):
        with pytest.raises(ValueError):
            rl.complete_primitive([2, 4])
