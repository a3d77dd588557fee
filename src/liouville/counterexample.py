"""Explicit nonconstant bounded solutions when the Liouville property fails.

From a hyperplane certificate (H, c) the coset cosine U(x) = cos(2 pi l_x),
x = x_H + l_x c, is (H + cZ)-periodic and annihilated by the operator.  The
evaluator reduces the coset coordinate exactly before taking the cosine, so
finite atomic sums vanish exactly in floating point as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .closure import HyperplaneCertificate, er_dot
from .exactreal import floor_split, format_coordinate
from .measures import Point


@dataclass(frozen=True)
class Counterexample:
    kind: str  # "cosine_1d" | "cosine_coset"
    certificate: HyperplaneCertificate
    closed_form: str

    def as_function(self):
        """U as a `SmoothFunction`: sup |U| = 1, and w^k bounds its k-th derivative,
        w = 2 pi |n| / |<n, c>|."""
        import numpy as np

        from .numerics import SmoothFunction

        n = np.array([float(c) for c in self.certificate.normal])
        p = float(er_dot(self.certificate.normal, self.certificate.c))
        w = 2.0 * math.pi * float(np.linalg.norm(n)) / abs(p)
        return SmoothFunction(
            self.kind, fn=self.value, exact_fn=self.value_exact,
            sup_u=1.0, sup_grad=w, sup_hess=w**2, sup_d3=w**3, sup_d4=w**4,
        )

    def value_exact(self, x: Point) -> float:
        """Value at a point with exact coordinates; coset-shift invariant.

        <n,x>/<n,c> = k + t, k an integer and t in [0,1), with t reduced exactly.
        """
        n = self.certificate.normal
        _, t = floor_split(er_dot(n, x), er_dot(n, self.certificate.c))
        return math.cos(2.0 * math.pi * t)

    def value(self, x) -> float:
        """Float-point evaluation for plotting and sampling."""
        import numpy as np

        n = np.array([float(c) for c in self.certificate.normal])
        c = np.array([float(ci) for ci in self.certificate.c])
        x = np.asarray(x, dtype=float)
        lam = (x @ n if x.ndim else x * n[0]) / (c @ n)
        return np.cos(2.0 * np.pi * lam)


class CounterexampleError(ValueError):
    pass


def build_counterexample(cert: HyperplaneCertificate, dimension: int) -> Counterexample:
    """Coset cosine for the decider's canonical certificate."""
    pairing = er_dot(cert.normal, cert.c)
    if pairing.is_zero():
        raise CounterexampleError("invalid certificate: c lies in H")
    if dimension == 1:
        g = cert.c[0]
        form = f"cos(2*pi*x/({format_coordinate(g)}))"
        return Counterexample("cosine_1d", cert, form)
    nstr = ", ".join(format_coordinate(c) for c in cert.normal)
    pstr = format_coordinate(pairing)
    form = f"cos(2*pi*<({nstr}), x>/({pstr}))"
    return Counterexample("cosine_coset", cert, form)
