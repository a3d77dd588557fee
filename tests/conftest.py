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
