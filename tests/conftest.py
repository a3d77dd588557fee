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
    return ExtendedRational(basis, tuple(Fraction(c) for c in coords))


def rational(x):
    """The Fraction that a rational ExtendedRational equals; fails on an irrational one."""
    assert x.is_rational(), x
    return x.coords[0]


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
