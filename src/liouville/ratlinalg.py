"""Exact rational linear algebra and integer lattice utilities.

Matrices are lists of row tuples with Fraction entries; lattice routines work
on integer column vectors with arbitrary-precision ints.  Everything here is
small dense desk-scale math: correctness over asymptotics.
"""

from __future__ import annotations

import math
from fractions import Fraction


def _rows(mat):
    return [list(map(Fraction, r)) for r in mat]


def rref(mat):
    """Reduced row echelon form; returns (rows, pivot_columns)."""
    rows = _rows(mat)
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
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


def rank(mat) -> int:
    return len(rref(mat)[1])


def solve(mat, rhs):
    """One exact solution x of mat @ x = rhs, or None if inconsistent.

    Free variables are set to 0.
    """
    rows = _rows(mat)
    if not rows:
        return [] if all(Fraction(b) == 0 for b in rhs) else None
    aug = [row + [Fraction(b)] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug)
    ncols = len(rows[0])
    if ncols in pivots:
        return None  # pivot in the rhs column
    x = [Fraction(0)] * ncols
    for r, c in enumerate(pivots):
        x[c] = red[r][ncols]
    return x


def nullspace(mat):
    """Basis of the rational kernel {x : mat @ x = 0}."""
    rows = _rows(mat)
    if not rows:
        return []
    ncols = len(rows[0])
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


def left_dependency(rows):
    """A nonzero rational vector lam with sum(lam_i * row_i) = 0, or None."""
    transposed = list(zip(*rows)) if rows else []
    ker = nullspace(transposed)
    if not ker:
        return None
    return primitive(ker[0])


def clear_denominators(vecs):
    """Scale rational vectors by one common lcm; returns (int_vectors, lcm)."""
    denoms = [c.denominator for v in vecs for c in map(Fraction, v)]
    scale = math.lcm(*denoms) if denoms else 1
    ints = [[int(Fraction(c) * scale) for c in v] for v in vecs]
    return ints, scale


def primitive(vec):
    """The primitive integer vector on the ray of a nonzero rational vector, same sign."""
    (ints,), _ = clear_denominators([vec])
    g = math.gcd(*ints)
    return [c // g for c in ints]


# -- integer lattices -----------------------------------------------------------


def hnf_columns(cols, top_rows=None):
    """Column-style Hermite normal form of the lattice spanned by int columns.

    Returns a basis: echelon columns with positive pivots (one per pivot row,
    top to bottom) and earlier columns reduced modulo each pivot in its row.
    With top_rows, only the first top_rows rows are eliminated and every column
    is returned, pivot columns first; the others vanish on those rows.
    """
    cols = [list(c) for c in cols if any(c)]
    if not cols:
        return []
    start = 0
    for row in range(len(cols[0]) if top_rows is None else top_rows):
        while True:
            active = [j for j in range(start, len(cols)) if cols[j][row] != 0]
            if len(active) <= 1:
                break
            active.sort(key=lambda j: abs(cols[j][row]))
            jm = active[0]
            for j in active[1:]:
                q = cols[j][row] // cols[jm][row]
                if q:
                    cols[j] = [a - q * b for a, b in zip(cols[j], cols[jm])]
        active = [j for j in range(start, len(cols)) if cols[j][row] != 0]
        if not active:
            continue
        j = active[0]
        cols[start], cols[j] = cols[j], cols[start]
        if cols[start][row] < 0:
            cols[start] = [-a for a in cols[start]]
        piv = cols[start][row]
        for jf in range(start):
            q = cols[jf][row] // piv
            if q:
                cols[jf] = [a - q * b for a, b in zip(cols[jf], cols[start])]
        start += 1
    return [tuple(c) for c in cols if any(c)]


def hnf_lattice(generators):
    """HNF basis of the lattice generated by rational vectors."""
    gens = [list(map(Fraction, g)) for g in generators]
    gens = [g for g in gens if any(c != 0 for c in g)]
    if not gens:
        return []
    ints, scale = clear_denominators(gens)
    basis = hnf_columns(ints)
    return [tuple(Fraction(c, scale) for c in col) for col in basis]


def integer_kernel(int_rows):
    """Lattice basis of {m in Z^k : A m = 0} for an integer matrix A (rows)."""
    if not int_rows:
        return []
    k = len(int_rows[0])
    # column-HNF on A stacked over I_k; columns whose A-part vanished give the kernel
    cols = [[int_rows[r][j] for r in range(len(int_rows))] + [int(i == j) for i in range(k)]
            for j in range(k)]
    top = len(int_rows)
    return [col[top:] for col in hnf_columns(cols, top) if not any(col[:top])]


def congruence_lattice(fracs):
    """Basis of {m in Z^r : sum m_j f_j in Z} for rational f_j."""
    r = len(fracs)
    if r == 0:
        return []
    fr = [Fraction(f) for f in fracs]
    v = math.lcm(*(f.denominator for f in fr))
    row = [int(f * v) for f in fr] + [v]
    ker = integer_kernel([row])
    # drop the auxiliary last coordinate; projection is injective on the kernel
    return [m[:-1] for m in ker]


def lattice_member(basis, target):
    """Integer coordinates of target in the lattice basis, or None.

    basis: rational vectors; target: rational vector.
    """
    if not basis:
        return [] if all(Fraction(c) == 0 for c in target) else None
    mat = [[Fraction(b[i]) for b in basis] for i in range(len(target))]
    x = solve(mat, target)
    if x is None:
        return None
    if any(c.denominator != 1 for c in x):
        return None
    return [int(c) for c in x]


def gram(vectors, dot):
    return [[dot(u, v) for v in vectors] for u in vectors]


def shortest_vector(basis, dot):
    """Shortest nonzero vector of the lattice spanned by basis, as (m, m^T G m).

    dot(u, v) must return exact rationals; any rank.  m holds the coefficients
    over basis, and among all vectors of minimal norm the lexicographically
    smallest m wins; callers canonicalize signs afterwards.
    """
    if not basis:
        return None, None
    n, m = min((n, m) for m, n in short_vectors(gram(basis, dot)))
    return m, n


def lll_reduce(G):
    """LLL reduction (delta = 3/4) of the lattice with Gram matrix G: (T, mu, B).

    T[j] holds the coefficients over G's basis of the j-th reduced vector b_j,
    so the matrix with columns T[j] is unimodular.  mu and B are the
    Gram-Schmidt data of the reduced basis, b_j* = b_j - sum_i mu[j][i] b_i*
    with B[j] = |b_j*|^2, updated in place as in Cohen, Alg. 2.6.3.  Exact for
    rational G; for float G, T is still unimodular and mu, B carry rounding.
    """
    r = len(G)
    T = [[int(i == j) for i in range(r)] for j in range(r)]
    mu = [[0] * r for _ in range(r)]
    B = [G[0][0]] + [0] * (r - 1)

    def reduce(k, l):  # b_k -= q b_l with q the nearest integer to mu_kl
        q = round(mu[k][l])
        if q:
            T[k] = [a - q * b for a, b in zip(T[k], T[l])]
            mu[k] = [a - q * b for a, b in zip(mu[k][:l], mu[l][:l])] + [mu[k][l] - q] + mu[k][l + 1:]

    k, kmax = 1, 0
    while k < r:
        if k > kmax:  # b_k is still the k-th input vector, so b_k . b_j = (G T[j])_k
            kmax = k
            for j in range(k):
                s = sum(g * t for g, t in zip(G[k], T[j]))
                mu[k][j] = (s - sum(mu[j][i] * mu[k][i] * B[i] for i in range(j))) / B[j]
            B[k] = G[k][k] - sum(mu[k][i] * mu[k][i] * B[i] for i in range(k))
        reduce(k, k - 1)
        m = mu[k][k - 1]
        if 4 * B[k] < (3 - 4 * m * m) * B[k - 1]:
            T[k], T[k - 1] = T[k - 1], T[k]
            mu[k][:k - 1], mu[k - 1][:k - 1] = mu[k - 1][:k - 1], mu[k][:k - 1]
            b = B[k] + m * m * B[k - 1]
            mu[k][k - 1] = m * B[k - 1] / b
            B[k], B[k - 1] = B[k - 1] * B[k] / b, b
            for i in range(k + 1, kmax + 1):
                mu[i][k], mu[i][k - 1] = mu[i][k - 1] - m * mu[i][k], mu[i][k]
                mu[i][k - 1] += mu[k][k - 1] * mu[i][k]
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return T, mu, B


def short_vectors(G, slack=1):
    """(m, m^T G m) for every nonzero integer m with m^T G m <= slack * |b_0|^2.

    b_0 is the first vector of the LLL-reduced basis of `lll_reduce(G)`, so the
    radius is at least slack times the squared minimum: every shortest vector
    is listed, with both signs.  Fincke-Pohst enumeration in the reduced basis
    (Cohen, §2.7), scanning each coordinate outward from its center with no
    square roots; m is mapped back to G's basis.  Exact for rational G.
    """
    T, mu, B = lll_reduce(G)
    r, radius, y = len(G), slack * B[0], [0] * len(G)

    def level(i, q):  # every y[i], given y[i+1:] and their share q of the norm
        c = -sum(mu[k][i] * y[k] for k in range(i + 1, r))
        for x, step in ((math.floor(c), -1), (math.floor(c) + 1, 1)):
            while (n := q + B[i] * (x - c) ** 2) <= radius:
                y[i] = x
                if i:
                    yield from level(i - 1, n)
                elif any(y):
                    yield tuple(sum(y[k] * T[k][j] for k in range(r)) for j in range(r)), n
                x += step

    yield from level(r - 1, 0)


def complete_primitive(m):
    """Unimodular integer matrix whose first column is the primitive vector m.

    Column operations that reduce the top row of [m^T; I] to (1, 0, ..., 0)
    turn I into W with m^T W = e_1^T.  U = W^T has U @ m = e_1, so U^-1 has
    first column m.
    """
    cols = hnf_columns([[c] + [int(i == j) for i in range(len(m))] for j, c in enumerate(m)], 1)
    if not cols or cols[0][0] != 1:
        raise ValueError("vector is not primitive")
    return invert_unimodular([c[1:] for c in cols])


def invert_unimodular(U):
    """Exact inverse of an integer matrix with determinant +-1."""
    k = len(U)
    aug = [[Fraction(U[i][j]) for j in range(k)] + [Fraction(int(i == j)) for j in range(k)]
           for i in range(k)]
    red, pivots = rref(aug)
    if pivots != list(range(k)):
        raise ValueError("matrix is singular")
    inv = [[red[i][k + j] for j in range(k)] for i in range(k)]
    out = [[int(c) for c in row] for row in inv]
    if any(Fraction(out[i][j]) != inv[i][j] for i in range(k) for j in range(k)):
        raise ValueError("matrix is not unimodular")
    return out
