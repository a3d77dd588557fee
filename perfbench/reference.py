"""Independent reference values of L[u](x) for the verify-quadrature workload.

Computed from the spec text alone, outside the program:

* atoms and truncated sequences: the defining sums, in mpmath at 40 digits,
  with constants taken from their declared 50-digit values;
* radial kernels, spheres and affine parts, for u(x) = cos(x_1): the Fourier
  multiplier identity L[cos(<e_1, .>)] = -psi(e_1) cos(x_1), with psi in closed
  form (-cos x for the fractional kernel of any order);
* `harmonic_xy` on a sphere: 0, by the mean value property.

For a symmetric measure the compensator terms of the operator cancel pairwise,
so no gradient appears in the sums.
"""

from __future__ import annotations

from fractions import Fraction

import mpmath
import yaml

DIGITS = 40


class Spec:
    """The parts of a measure spec a reference needs, with coordinates as mpf."""

    def __init__(self, text: str):
        doc = yaml.safe_load(text)
        self.dimension = doc["dimension"]
        with mpmath.workdps(DIGITS + 10):
            self.constants = {c["name"]: mpmath.mpf(str(c["value"])) for c in doc.get("constants") or []}
            self.atoms = [
                ([self.coordinate(c) for c in a["point"]], self.coordinate(a["weight"]))
                for a in doc.get("atoms") or []
            ]
        self.sequences = doc.get("sequences") or []
        self.continuous = doc.get("continuous") or []

    def coordinate(self, text) -> mpmath.mpf:
        """Value of a coordinate string like "3/2 - 1/2*sqrt2 + pi"."""
        total = mpmath.mpf(0)
        s = str(text).replace(" ", "").replace("-", "+-")
        for term in filter(None, s.split("+")):
            sign = -1 if term.startswith("-") else 1
            term = term.lstrip("-")
            coeff, _, name = term.partition("*")
            if not name and coeff in self.constants:
                coeff, name = "1", coeff
            q = Fraction(coeff)
            value = mpmath.mpf(q.numerator) / q.denominator
            total += sign * value * (self.constants[name] if name else 1)
        return total


def _with_mirrors(atoms):
    """Complete mirror atoms, as the spec language's symmetry_mode: complete does."""
    seen = {tuple(p): w for p, w in atoms}
    out = list(atoms)
    for p, w in atoms:
        q = tuple(-c for c in p)
        if q not in seen:
            seen[q] = w
            out.append((list(q), w))
    return out


def _poly(coeffs, n):
    return sum(_frac(c) * n**k for k, c in enumerate(coeffs))


def _frac(v) -> mpmath.mpf:
    q = Fraction(str(v))
    return mpmath.mpf(q.numerator) / q.denominator


def _sequence_terms(seq, dimension):
    """(scalar, direction, weight) for n = 1..truncation."""
    w = seq["weights"]
    c = _frac(w.get("c", "1"))
    direction = [_frac(x) for x in seq.get("direction", ["1"] * dimension)]
    for n in range(1, seq["truncation"] + 1):
        if seq["template"] == "geometric":
            s = _frac(seq.get("coefficient", "1")) * _frac(seq.get("ratio", "1/2")) ** n
        else:
            s = _poly(seq["numerator"], n) / _poly(seq["denominator"], n)
        if w["kind"] == "constant":
            wn = c
        elif w["kind"] == "power":
            wn = c / mpmath.mpf(n) ** int(w["s"])
        else:
            wn = c * _frac(w["r"]) ** n
        yield s, direction, wn


def _multiplier(part, d):
    """psi(e_1) for a continuous part: L[cos x_1] = -psi cos x_1."""
    kind = part["kind"]
    if kind == "fractional":
        return mpmath.mpf(1)
    if kind == "relativistic":
        a, m = mpmath.mpf(part.get("alpha", 1.0)), mpmath.mpf(part.get("m", 1.0))
        c = mpmath.mpf(part.get("coefficient", 1.0))
        # density c K_nu(m r)/r^nu, nu = (d+a)/2; the standard relativistic density
        # of (m^2 - Laplacian)^{a/2} - m^a carries the factor below
        nu = (d + a) / 2
        standard = a * mpmath.mpf(2) ** ((a - d) / 2) * m**nu / (mpmath.pi ** (mpmath.mpf(d) / 2) * mpmath.gamma(1 - a / 2))
        return c / standard * ((m**2 + 1) ** (a / 2) - m**a)
    if kind == "convolution":
        s = mpmath.mpf(part.get("scale", 1.0))
        profile = part.get("profile", "gaussian")
        if profile == "gaussian":  # density exp(-(r/s)^2)/(s^d pi^{d/2})
            return 1 - mpmath.exp(-(s**2) / 4)
        if profile == "exponential":  # density exp(-r/s), normalised
            return 1 - (1 + s**2) ** (-mpmath.mpf(d + 1) / 2)
        return 1 - _ball_average(s, d)
    if kind == "surface_sphere":
        return 1 - _sphere_average(mpmath.mpf(part.get("radius", 1.0)), d)
    raise ValueError(f"no closed-form multiplier for {kind!r}")


def _sphere_average(r, d):
    """Average of cos(r w_1) over the unit sphere of R^d."""
    if d == 2:
        return mpmath.besselj(0, r)
    if d == 3:
        return mpmath.sin(r) / r
    raise ValueError("sphere reference supports d = 2, 3")


def _ball_average(s, d):
    """Average of cos(z_1) over the ball of radius s in R^d."""
    if d == 1:
        return mpmath.sin(s) / s
    if d == 2:
        return 2 * mpmath.besselj(1, s) / s
    return 3 * (mpmath.sin(s) - s * mpmath.cos(s)) / s**3


def _affine_multiplier(part, d):
    """A radial profile on span(v), k = 1: a 1-D kernel along the unit vector v/|v|."""
    (v,) = part["basis"]
    v = [_frac(c) for c in v]
    t = abs(v[0]) / mpmath.sqrt(mpmath.fsum(c * c for c in v))  # |<e_1, v/|v|>|
    prof = part.get("profile") or {}
    if prof.get("kind", "fractional") == "fractional":
        return t ** mpmath.mpf(prof.get("alpha", 1.0))
    s = mpmath.mpf(prof.get("scale", 1.0))
    return 1 - mpmath.exp(-(s * t) ** 2 / 4)


def reference(spec: Spec, function: str, x) -> mpmath.mpf:
    """L[u](x) for u = cos(x_1) or harmonic_xy = x_1^2 - x_2^2."""
    with mpmath.workdps(DIGITS):
        x = [mpmath.mpf(float(c)) for c in x]
        d = spec.dimension
        if function == "harmonic_xy":
            u = lambda p: p[0] ** 2 - p[1] ** 2  # noqa: E731
        elif function == "cos":
            u = lambda p: mpmath.cos(p[0])  # noqa: E731
        else:
            raise ValueError(f"no reference for {function!r}")
        ux = u(x)
        terms = []
        for p, w in _with_mirrors(spec.atoms):
            terms.append(w * (u([a + b for a, b in zip(x, p)]) - ux))
        for seq in spec.sequences:
            for s, direction, wn in _sequence_terms(seq, d):
                plus = [a + s * b for a, b in zip(x, direction)]
                minus = [a - s * b for a, b in zip(x, direction)]
                terms.append(wn * (u(plus) + u(minus) - 2 * ux))
        for part in spec.continuous:
            if function == "harmonic_xy":
                if part["kind"] != "surface_sphere":
                    raise ValueError("harmonic_xy reference only for spheres")
                continue
            if part["kind"] == "affine_supported":
                terms.append(-_affine_multiplier(part, d) * ux)
            else:
                terms.append(-_multiplier(part, d) * ux)
        return mpmath.fsum(terms)
