"""Seeded corpus of planted d = 2, 3 generator sets over the constants {1, sqrt2, sqrt3}.

Every input carries the answer it was built to have, so the decider is checked
against the plant and never against its own output.

* *fails* plants pick a slot alpha in {1, sqrt2, sqrt3} and an integer xi != 0.
  Every point is alpha * q + sum_{k != alpha} c_k w_k with rational q on an
  integer level of xi and rational w_k orthogonal to xi, so
  <xi, p> in alpha * Z for every generator.  A frame of such points with
  w_k = 0 spans R^d.
* *holds* plants take a rational frame alpha * F and extra points p whose
  slices in frame coordinates, y^(k) = F^-1 p^(k) for k != alpha, span Q^d.
  Then no xi != 0 has <xi, p / alpha> in Z for every p, and by Kronecker's
  theorem the group is dense.  For d = 2 and alpha = 1 this is one point whose
  frame coordinates are Q-independent of 1.
* *split* plants put a 1-d part on one coordinate axis next to a plant in the
  other coordinates.

`corpus()` is importable, so the same inputs can be run against any checkout.
"""

import contextlib
import io
import math
import os
import random
from fractions import Fraction

import pytest

from liouville import cli
from liouville import ratlinalg as rl
from liouville.closure import (
    _coset_keys,
    _validate_certificate,
    closure_multid,
    decompose_measure,
    er_dot,
    orthogonalize,
)
from liouville.decider import decide
from liouville.exactreal import ConstantBasis, ExtendedRational
from liouville.measures import (
    Atom,
    LevyMeasure,
    parse_measure,
    point_is_zero,
    support_of,
    validate_measure,
)
from conftest import SPEC_DIR, SQRT2_50, SQRT3_50

BASIS = ConstantBasis(("sqrt2", "sqrt3"), (SQRT2_50, SQRT3_50))
SLOTS = 3  # basis slots: 1, sqrt2, sqrt3
SEED = 20261018


def _rat(rng, num=4, den=3):
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def _point(slices, d):
    """The point sum_k c_k * slices[k] for a dict slot -> rational vector."""
    zero = [Fraction(0)] * d
    return tuple(
        ExtendedRational(BASIS, tuple(Fraction(slices.get(k, zero)[i]) for k in range(SLOTS)))
        for i in range(d)
    )


def _matvec(cols, y):
    return [sum(yj * col[i] for yj, col in zip(y, cols)) for i in range(len(cols[0]))]


def _xi_perp(rng, xi):
    """A random rational vector orthogonal to the integer vector xi."""
    d = len(xi)
    out = [Fraction(0)] * d
    for i in range(d):
        for j in range(i + 1, d):
            t = _rat(rng, 2, 2)
            out[i] += t * xi[j]
            out[j] -= t * xi[i]
    return out


def _on_level(rng, xi):
    """A random rational q with <xi, q> an integer."""
    q = [_rat(rng) for _ in xi]
    j = next(i for i, x in enumerate(xi) if x)
    level = rng.randint(-2, 2)
    q[j] += (level - sum(a * b for a, b in zip(xi, q))) / xi[j]
    return q


def planted_fails(rng, d):
    """(points, xi, alpha slot) with <xi, p> in c_alpha * Z for every point."""
    a = rng.randrange(SLOTS)
    xi = [0] * d
    while not any(xi):
        xi = [rng.randint(-2, 2) for _ in range(d)]
    frame = []
    while rl.rank(frame) < d or len(frame) < d + rng.randint(0, 1):
        frame.append(_on_level(rng, xi))
    points = [_point({a: q}, d) for q in frame]
    for _ in range(rng.randint(1, 2)):
        slices = {a: _on_level(rng, xi)}
        for k in range(SLOTS):
            if k != a:
                slices[k] = _xi_perp(rng, xi)
        points.append(_point(slices, d))
    return points, xi, a


def planted_holds(rng, d):
    """Points generating a dense subgroup of R^d."""
    a = rng.randrange(SLOTS)
    while True:
        F = [[_rat(rng) for _ in range(d)] for _ in range(d)]
        if rl.rank(F) == d:
            break
    points = [_point({a: f}, d) for f in F]
    if rng.random() < 0.5:
        points.append(_point({a: _matvec(F, [rng.randint(-2, 2) for _ in range(d)])}, d))
    others = [k for k in range(SLOTS) if k != a]
    spanning = []
    while rl.rank(spanning) < d:
        ys = {k: [_rat(rng) for _ in range(d)] for k in range(SLOTS)}
        spanning += [ys[k] for k in others]
        points.append(_point({k: _matvec(F, y) for k, y in ys.items()}, d))
    return points


def _embed(points, axis):
    """Insert a zero coordinate at position axis."""
    zero = BASIS.zero()
    return [tuple(p[:axis]) + (zero,) + tuple(p[axis:]) for p in points]


def _axis_part(rng, axis, d, dense):
    """Points on one coordinate axis: a lattice or a dense pair."""
    a, b = rng.sample(range(SLOTS), 2)
    s = abs(_rat(rng)) or Fraction(1)
    vals = [(a, s), (a, 2 * s)] + ([(b, abs(_rat(rng)) or Fraction(1, 2))] if dense else [])
    out = []
    for k, x in vals:
        vec = [Fraction(0)] * d
        vec[axis] = x
        out.append(_point({k: vec}, d))
    return out


def corpus(seed=SEED, per_kind=16):
    """[(name, points, plant)], plant ("fails", xi, alpha slot) or ("holds",)."""
    rng = random.Random(seed)
    cases = []
    for d in (2, 3):
        for i in range(per_kind):
            pts, xi, a = planted_fails(rng, d)
            cases.append((f"fails_d{d}_{i}", pts, ("fails", xi, a)))
            cases.append((f"holds_d{d}_{i}", planted_holds(rng, d), ("holds",)))
    for i in range(per_kind):
        axis = rng.randrange(3)
        pts = _embed(planted_holds(rng, 2), axis) + _axis_part(rng, axis, 3, dense=True)
        cases.append((f"split_holds_d3_{i}", pts, ("holds",)))
        pts, xi, a = planted_fails(rng, 2)
        pts = _embed(pts, axis) + _axis_part(rng, axis, 3, dense=rng.random() < 0.5)
        cases.append((f"split_fails_d3_{i}", pts, ("fails", xi[:axis] + [0] + xi[axis:], a)))
    return cases


def measure_of(points, d):
    atoms = tuple(Atom(p, BASIS.one()) for p in points if not point_is_zero(p))
    return validate_measure(LevyMeasure(dimension=d, basis=BASIS, atoms=atoms))


def _in_alpha_z(value: ExtendedRational, a: int) -> bool:
    return all(c == 0 for k, c in enumerate(value.coords) if k != a) and (
        value.coords[a].denominator == 1
    )


CASES = corpus()


def test_corpus_shape():
    kinds = {name.rsplit("_", 2)[0] for name, _, _ in CASES}
    assert kinds == {"fails", "holds", "split_holds", "split_fails"}
    assert len(CASES) == 96


def test_planted_fails_are_certified_and_contain_their_generators():
    for name, points, plant in CASES:
        if plant[0] != "fails":
            continue
        _, xi, a = plant
        d = len(points[0])
        mu = measure_of(points, d)
        v = decide(mu)
        assert v.certified and v.holds is False, name
        _validate_certificate(v.certificate, support_of(mu))
        group = v.closure
        for atom in mu.atoms:
            assert _coset_keys([atom.point], group)[0] is not None, (name, atom.point)
        # the closure lies inside the planted {x : <xi, x> in alpha Z}
        xi_point = tuple(BASIS.from_rational(x) for x in xi)
        for vec in group.v_basis:
            assert er_dot(xi_point, vec).is_zero(), name
        for lam in group.lambda_basis:
            assert _in_alpha_z(er_dot(xi_point, lam), a), name


# A 3-D lattice over a non-integral grid, planted *fails* with xi = (-2, 1, 1).  Its
# HNF basis (1/4, 0, 17/2), (0, 1, 12), (0, 0, 19) is skewed: the coefficient box of
# `conftest.coefficient_bounds` for it holds 47,215 points.
SKEWED_3D = """\
dimension: 3
atoms:
  - {point: ["1", "2", "1"], weight: "1"}
  - {point: ["-3/4", "-1", "1/2"], weight: "1/2"}
  - {point: ["3/4", "-2", "3/2"], weight: "1/2"}
"""


def test_skewed_3d_lattice_is_certified_and_decomposed():
    mu = parse_measure(SKEWED_3D)
    v = decide(mu)
    assert v.certified and v.holds is False
    _validate_certificate(v.certificate, support_of(mu))
    xi_point = tuple(mu.basis.from_rational(x) for x in (-2, 1, 1))
    assert v.closure.lattice_rank == 3
    for lam in v.closure.lambda_basis:
        assert _in_alpha_z(er_dot(xi_point, lam), 0)
    # c is the shortest lattice vector, the atom (3/4, 1, -1/2) up to sign
    c = tuple(x.coords[0] for x in v.certificate.c)
    assert c in {(Fraction(3, 4), 1, Fraction(-1, 2)), (Fraction(-3, 4), -1, Fraction(1, 2))}
    dec = decompose_measure(mu, v.closure)
    assert dec.separation == math.sqrt(9 / 16 + 1 + 1 / 4)
    assert sum(len(part) for part in dec.parts) == 6


def test_planted_holds_are_certified():
    for name, points, plant in CASES:
        if plant[0] != "holds":
            continue
        v = decide(measure_of(points, len(points[0])))
        assert v.certified and v.holds is True, name
        assert v.closure.is_full(), name


# -- the closure command and decide read one group -----------------------------------

SPECS = sorted(f[:-5] for f in os.listdir(SPEC_DIR) if f.endswith(".yaml"))


def closure_command_group(monkeypatch, mu):
    """The group `liouville closure` reports for mu, taken from its closure_multid call."""
    groups = []

    def recording_closure(desc):
        groups.append(closure_multid(desc))
        return groups[-1]

    monkeypatch.setattr(cli, "_load", lambda path, args=None: ("", mu))
    monkeypatch.setattr(cli, "closure_multid", recording_closure)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["closure", "input.yaml", "--no-timestamp"])
    return groups[0]


def assert_closure_agrees_with_decide(monkeypatch, mu, name):
    group = closure_command_group(monkeypatch, mu)
    v = decide(mu)
    assert group.is_full() == (v.holds is True), name
    if v.holds is False:
        assert orthogonalize(group) == v.closure, name


@pytest.mark.parametrize("spec", SPECS)
def test_closure_command_agrees_with_decide_on_specs(monkeypatch, spec):
    with open(os.path.join(SPEC_DIR, spec + ".yaml")) as fh:
        mu = parse_measure(fh.read())
    assert_closure_agrees_with_decide(monkeypatch, mu, spec)


def test_closure_command_agrees_with_decide_on_corpus(monkeypatch):
    for name, points, _ in CASES:
        assert_closure_agrees_with_decide(monkeypatch, measure_of(points, len(points[0])), name)
