import itertools
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from liouville import ratlinalg as rl
from liouville.closure import (
    ClosedSubgroup,
    ClosureError,
    DecompositionError,
    Route,
    closure_1d,
    closure_multid,
    decompose_measure,
    er_dot,
    hyperplane_certificate,
    lattice_hnf,
    orthogonalize,
    point_from_fractions,
    rational_ratio,
    _coset_keys,
    _frame_coordinates,
    _separation,
)
from liouville.exactreal import ConstantBasis, ExtendedRational, NotRepresentableError
from liouville.measures import SupportDescriptor, parse_measure, support_of
from conftest import PI_50, SQRT2_50, SQRT3_50, coefficient_bounds, er, spec_path


def load(name):
    with open(spec_path(name)) as fh:
        return parse_measure(fh.read())


def desc_1d(basis, *values):
    pts = []
    for v in values:
        pts.append((v,))
        pts.append((-v,))
    return SupportDescriptor(dimension=1, finite_points=tuple(pts))


class TestClosure1d:
    def test_gcd_lattice(self, plain_basis):
        d = desc_1d(plain_basis, er(plain_basis, 1), er(plain_basis, Fraction(3, 2)))
        cl = closure_1d(d)
        assert cl.route == "lattice"
        assert cl.lambda_basis[0][0].as_rational() == Fraction(1, 2)

    def test_irrational_pair_dense(self, pi_basis):
        d = desc_1d(pi_basis, er(pi_basis, 1, 0), er(pi_basis, 0, 1))
        cl = closure_1d(d)
        assert cl.is_full()
        a, b = cl.witness
        assert rational_ratio(a, b) is None

    def test_accumulation_dense(self, plain_basis):
        # accumulation points alone, with no directions, still make the line dense
        d = SupportDescriptor(
            dimension=1,
            finite_points=((er(plain_basis, 1),),),
            accumulation_points=((er(plain_basis, 0),),),
        )
        cl = closure_1d(d)
        assert cl.is_full()
        assert cl.route == "accumulation"

    def test_empty_support_trivial(self, plain_basis):
        cl = closure_1d(SupportDescriptor(dimension=1, finite_points=()))
        assert not cl.v_basis and not cl.lambda_basis

    def test_pi_multiples_lattice(self, pi_basis):
        # {pi/2, 3pi/2} generate (pi/2) Z
        d = desc_1d(
            pi_basis,
            er(pi_basis, 0, Fraction(1, 2)),
            er(pi_basis, 0, Fraction(3, 2)),
        )
        cl = closure_1d(d)
        assert cl.route == "lattice"
        g = cl.lambda_basis[0][0]
        assert g.coords == (Fraction(0), Fraction(1, 2))

    def test_dense_iff_condition_al(self, pi_basis):
        # 1-d coherence: dense iff some pair has infinite Q
        sets = [
            [er(pi_basis, 1, 0), er(pi_basis, 2, 0)],
            [er(pi_basis, 1, 0), er(pi_basis, 0, 1)],
            [er(pi_basis, 0, 1), er(pi_basis, 0, 3)],
            [er(pi_basis, Fraction(1, 3), 0), er(pi_basis, 0, Fraction(1, 2)), er(pi_basis, 1, 0)],
        ]
        for vals in sets:
            d = desc_1d(pi_basis, *vals)
            dense = closure_1d(d).is_full()
            a_l = any(rational_ratio(a, b) is None for a in vals for b in vals)
            assert dense == a_l


class TestLatticeHnf:
    def test_checkerboard(self, plain_basis):
        gens = [
            (er(plain_basis, 2), er(plain_basis, 0)),
            (er(plain_basis, 0), er(plain_basis, 2)),
            (er(plain_basis, 1), er(plain_basis, 1)),
        ]
        basis = lattice_hnf(gens)
        got = [[c.as_rational() for c in v] for v in basis]
        assert got == [[1, 1], [0, 2]]

    def test_rejects_irrational(self, pi_basis):
        with pytest.raises(ClosureError):
            lattice_hnf([(er(pi_basis, 0, 1),)])


def kronecker_closure(c):
    """Exact closure of Z^d + cZ: the group the support {e_1, ..., e_d, c} generates."""
    basis, d = c[0].basis, len(c)
    pts = [point_from_fractions(basis, [int(i == j) for i in range(d)]) for j in range(d)] + [c]
    pts += [tuple(-x for x in p) for p in pts]
    cl = closure_multid(SupportDescriptor(dimension=d, finite_points=tuple(pts)))
    assert cl.is_certified()
    return cl


def assert_dependency(c, basis):
    """Z^2 + cZ is not dense: its closure's dependency xi = k(1, -1) has <xi, c> in Z."""
    cl = kronecker_closure(c)
    assert not cl.is_full()
    xi = cl.witness["dependency"]
    assert xi[0] == -xi[1] != 0
    pairing = sum((ci.scale(x) for ci, x in zip(c, xi)), basis.zero())
    assert pairing.is_rational() and pairing.as_rational().denominator == 1


class TestKronecker:
    def test_sqrt2_sqrt3_dense(self, sqrt23_basis):
        cl = kronecker_closure((er(sqrt23_basis, 0, 1, 0), er(sqrt23_basis, 0, 0, 1)))
        assert cl.is_full()

    def test_rational_point_dependent(self, plain_basis):
        # c rational: the group is the lattice (1/2)Z x (1/3)Z, so no annihilator is needed
        cl = kronecker_closure((er(plain_basis, Fraction(1, 2)), er(plain_basis, Fraction(1, 3))))
        assert not cl.is_full() and cl.v_dim == 0
        assert [[c.as_rational() for c in v] for v in cl.lambda_basis] == [
            [Fraction(1, 2), 0], [0, Fraction(1, 3)]
        ]

    def test_equal_coordinates_dependency(self, sqrt2_basis):
        assert_dependency((er(sqrt2_basis, 0, 1), er(sqrt2_basis, 0, 1)), sqrt2_basis)

    def test_shifted_coordinates_dependency(self, sqrt2_basis):
        # c = (1/2 + sqrt2, sqrt2): the dependency pairs with c to a nonzero integer
        assert_dependency((er(sqrt2_basis, Fraction(1, 2), 1), er(sqrt2_basis, 0, 1)), sqrt2_basis)


class TestClosureMultid:
    def test_axes_pi_dense(self):
        cl = closure_multid(support_of(load("nonuniform_grid_2d.yaml")))
        assert cl.is_full()

    def test_axes_rational_lattice(self):
        text = (
            "dimension: 2\natoms:\n"
            '  - {point: ["1", "0"], weight: "1"}\n'
            '  - {point: ["0", "1"], weight: "1"}\n'
            '  - {point: ["3/2", "0"], weight: "1"}\n'
            '  - {point: ["0", "3/2"], weight: "1"}\n'
        )
        cl = closure_multid(support_of(parse_measure(text)))
        got = sorted(
            tuple(c.as_rational() for c in v) for v in cl.lambda_basis
        )
        assert got == [(Fraction(0), Fraction(1, 2)), (Fraction(1, 2), Fraction(0))]

    def test_ball_dense(self):
        text = "dimension: 2\ncontinuous:\n  - {kind: fractional, alpha: 1.0}\n"
        assert closure_multid(support_of(parse_measure(text))).is_full()

    def test_sphere_dense(self):
        assert closure_multid(support_of(load("mean_value.yaml"))).is_full()

    def test_affine_piece(self):
        cl = closure_multid(support_of(load("planar_fractional.yaml")))
        assert not cl.is_full()
        assert cl.v_dim == 1 and cl.lattice_rank == 0

    def test_kronecker_dense(self):
        cl = closure_multid(support_of(load("kronecker_sqrt2_sqrt3.yaml")))
        assert cl.is_full() and "kronecker" in cl.route

    def test_kronecker_degenerate_closure(self):
        cl = closure_multid(support_of(load("kronecker_sqrt2_sqrt2.yaml")))
        assert not cl.is_full()
        assert cl.v_dim == 1 and cl.lattice_rank == 1
        # V is the diagonal, exactly
        v = cl.v_basis[0]
        assert rational_ratio(v[0], v[1]) == 1

    def test_collinear_lattice(self, pi_basis):
        pts = []
        for scale in (1, 2):
            p = (er(pi_basis, 0, scale), er(pi_basis, 0, 2 * scale))
            pts.append(p)
            pts.append(tuple(-c for c in p))
        d = SupportDescriptor(dimension=2, finite_points=tuple(pts))
        cl = closure_multid(d)
        assert cl.lattice_rank == 1 and cl.v_dim == 0
        g = cl.lambda_basis[0]
        assert [c.coords for c in g] == [(Fraction(0), Fraction(1)), (Fraction(0), Fraction(2))]

    def test_probe_fallback_uncertified(self, sqrt23_basis):
        # two incommensurable off-axis directions: outside the structured cases
        pts = []
        for p in (
            (er(sqrt23_basis, 0, 1, 0), er(sqrt23_basis, 1, 0, 0)),
            (er(sqrt23_basis, 1, 0, 0), er(sqrt23_basis, 0, 0, 1)),
            (er(sqrt23_basis, 0, 1, 1), er(sqrt23_basis, 3, 0, 0)),
        ):
            pts.append(p)
            pts.append(tuple(-c for c in p))
        d = SupportDescriptor(dimension=2, finite_points=tuple(pts))
        cl = closure_multid(d)
        assert not cl.is_certified()
        assert cl.probe is not None


class TestOrthogonalize:
    def test_projection_example(self, plain_basis):
        # V = x-axis, Lambda = Z(1,1): orthogonalized lattice is Z(0,1)
        group = ClosedSubgroup(
            dimension=2,
            basis=plain_basis,
            v_basis=(point_from_fractions(plain_basis, [1, 0]),),
            lambda_basis=(point_from_fractions(plain_basis, [1, 1]),),
            route="test",
        )
        out = orthogonalize(group)
        assert [c.as_rational() for c in out.lambda_basis[0]] == [0, 1]

    def test_already_orthogonal_identity(self, plain_basis):
        group = ClosedSubgroup(
            dimension=2,
            basis=plain_basis,
            v_basis=(point_from_fractions(plain_basis, [1, 0]),),
            lambda_basis=(point_from_fractions(plain_basis, [0, 3]),),
            route="test",
        )
        out = orthogonalize(group)
        assert [c.as_rational() for c in out.lambda_basis[0]] == [0, 3]

    def test_empty_v_identity(self, plain_basis):
        group = ClosedSubgroup(
            dimension=2,
            basis=plain_basis,
            v_basis=(),
            lambda_basis=(point_from_fractions(plain_basis, [2, 1]),),
            route="test",
        )
        assert orthogonalize(group).lambda_basis == group.lambda_basis

    def test_membership_preserved(self, plain_basis):
        # original lattice generators stay in V + Z-span(new lattice)
        group = ClosedSubgroup(
            dimension=3,
            basis=plain_basis,
            v_basis=(point_from_fractions(plain_basis, [1, 2, 0]),),
            lambda_basis=(
                point_from_fractions(plain_basis, [1, 1, 1]),
                point_from_fractions(plain_basis, [0, 3, 2]),
            ),
            route="test",
        )
        out = orthogonalize(group)
        for v, lam in zip(out.v_basis, out.lambda_basis):
            dot = er_dot(v, lam)
            assert dot.is_zero()
        for original in group.lambda_basis:
            m = _coset_keys([original], out)[0]
            assert m is not None, "original generator left the group"
        for new in out.lambda_basis:
            m = _coset_keys([new], group)[0]
            assert m is not None, "orthogonalized generator left the group"


class TestHyperplaneCertificate:
    def check(self, cert, desc):
        period = er_dot(cert.normal, cert.c)
        for p in desc.finite_points:
            val = er_dot(cert.normal, p)
            r = rational_ratio(period, val)
            assert r is not None and r.denominator == 1

    def test_1d_lattice(self, plain_basis):
        d = desc_1d(plain_basis, er(plain_basis, 1), er(plain_basis, Fraction(3, 2)))
        cl = closure_1d(d)
        cert = hyperplane_certificate(orthogonalize(cl), d)
        assert float(cert.c[0]) == pytest.approx(0.5)
        self.check(cert, d)

    def test_2d_lattice(self):
        mu = load("kronecker_rational.yaml")
        desc = support_of(mu)
        cl = closure_multid(desc)
        cert = hyperplane_certificate(orthogonalize(cl), desc)
        self.check(cert, desc)

    def test_skew_lattice_certificate_valid(self, plain_basis):
        pts = []
        for raw in ((3, 0), (1, 1)):
            p = point_from_fractions(plain_basis, list(raw))
            pts.append(p)
            pts.append(tuple(-c for c in p))
        d = SupportDescriptor(dimension=2, finite_points=tuple(pts))
        cl = closure_multid(d)
        cert = hyperplane_certificate(orthogonalize(cl), d)
        self.check(cert, d)

    def test_dense_closure_has_no_certificate(self):
        desc = support_of(load("fractional.yaml"))
        cl = closure_1d(desc)
        with pytest.raises(ClosureError):
            hyperplane_certificate(cl, desc)


class TestDecompose:
    def test_1d_lattice_parts(self):
        mu = load("discrete_laplacian.yaml")
        cl = orthogonalize(closure_1d(support_of(mu)))
        dec = decompose_measure(mu, cl)
        occupied = [k for k, p in zip(dec.coset_keys, dec.parts) if p]
        assert sorted(occupied) == [(-1,), (1,)]
        assert dec.separation == pytest.approx(1.0)

    def test_z2_singleton_parts(self):
        text = (
            "dimension: 2\natoms:\n"
            '  - {point: ["1", "0"], weight: "1"}\n'
            '  - {point: ["1", "1"], weight: "1"}\n'
        )
        mu = parse_measure(text)
        cl = closure_multid(support_of(mu))
        dec = decompose_measure(mu, cl)
        occupied = {k: p for k, p in zip(dec.coset_keys, dec.parts) if p}
        assert len(occupied) == 4
        assert all(len(p) == 1 for p in occupied.values())

    def test_reconstitution(self):
        mu = load("kronecker_rational.yaml")
        cl = closure_multid(support_of(mu))
        dec = decompose_measure(mu, cl)
        listed = [pair for part in dec.parts for pair in part]
        assert len(listed) == len(mu.atoms)
        for atom in mu.atoms:
            match = [w for p, w in listed if p == atom.point]
            assert len(match) == 1 and (match[0] - atom.weight).is_zero()

    def test_uniqueness_under_permutation(self):
        text = (
            "dimension: 2\natoms:\n"
            '  - {point: ["1", "0"], weight: "1"}\n'
            '  - {point: ["1", "1"], weight: "2"}\n'
        )
        text_permuted = (
            "dimension: 2\natoms:\n"
            '  - {point: ["1", "1"], weight: "2"}\n'
            '  - {point: ["1", "0"], weight: "1"}\n'
        )
        mu1, mu2 = parse_measure(text), parse_measure(text_permuted)
        d1 = decompose_measure(mu1, closure_multid(support_of(mu1)))
        d2 = decompose_measure(mu2, closure_multid(support_of(mu2)))
        assert d1.group.lambda_basis == d2.group.lambda_basis
        assert d1.coset_keys == d2.coset_keys
        assert d1.parts == d2.parts

    def test_dense_closure_rejected(self):
        mu = load("fractional.yaml")
        cl = closure_1d(support_of(mu))
        with pytest.raises(DecompositionError):
            decompose_measure(mu, cl)

    def test_sqrt2_coset_decomposition(self):
        # closure V = diag, lattice (1/2,-1/2): parts at 0, +-1
        mu = load("kronecker_sqrt2_sqrt2.yaml")
        cl = closure_multid(support_of(mu))
        dec = decompose_measure(mu, orthogonalize(cl))
        occupied = {k: p for k, p in zip(dec.coset_keys, dec.parts) if p}
        assert set(occupied) == {(-1,), (0,), (1,)}
        # the sqrt2 atom pair sits in the V-coset through the origin
        zero_part = occupied[(0,)]
        assert len(zero_part) == 2
        assert dec.separation == pytest.approx(math.sqrt(0.5))

    @staticmethod
    def assert_lists_occupied_mirrors_origin(mu):
        from liouville.decider import decide

        v = decide(mu)
        assert v.holds is False and v.certified
        dec = decompose_measure(mu, v.closure)
        occupied = {k for k, p in zip(dec.coset_keys, dec.parts) if p}
        mirrors = {tuple(-x for x in k) for k in occupied}
        assert list(dec.coset_keys) == sorted(occupied | mirrors | {(0,) * dec.group.lattice_rank})
        return dec

    @pytest.mark.parametrize(
        "spec", ["discrete_laplacian", "kronecker_rational", "kronecker_sqrt2_sqrt2", "planar_fractional"]
    )
    def test_lists_only_occupied_cosets_on_specs(self, spec):
        self.assert_lists_occupied_mirrors_origin(load(spec + ".yaml"))

    def test_lists_only_occupied_cosets_on_corpus(self):
        from test_closure_corpus import CASES, measure_of

        fails = [pts for _, pts, plant in CASES if plant[0] == "fails"]
        assert len(fails) == 48
        for pts in fails:
            self.assert_lists_occupied_mirrors_origin(measure_of(pts, len(pts[0])))

    def test_stress_row_lists_at_most_twice_the_occupied_cosets(self):
        # atom (1, 0) plus n (1, 1), n <= 200: a bounding ball would hold ~251k cosets
        mu = parse_measure(
            "dimension: 2\natoms:\n"
            '  - {point: ["1", "0"], weight: "1"}\n'
            "sequences:\n"
            "  - template: poly_ratio\n"
            '    numerator: ["0", "1"]\n'
            '    denominator: ["1"]\n'
            "    weights: {kind: power, c: '1', s: 3}\n"
            "    truncation: 200\n"
            '    direction: ["1", "1"]\n'
        )
        dec = self.assert_lists_occupied_mirrors_origin(mu)
        occupied = sum(1 for p in dec.parts if p)
        assert occupied == 402
        assert len(dec.coset_keys) <= 2 * occupied + 1
        assert dec.separation == 1.0

    @staticmethod
    def brute_force_separation(group, bounds):
        """min over nonzero m with |m_i| <= bounds[i] of the norm of the exact point sum m_i lambda_i.

        Float vectors find the near-shortest m; only those are rebuilt exactly.
        """
        lam = group.lambda_basis
        flt = np.array([[float(c) for c in v] for v in lam])
        grid = np.array(list(itertools.product(*(range(-b, b + 1) for b in bounds))))
        grid = grid[np.any(grid != 0, axis=1)]
        approx = np.sum((grid @ flt) ** 2, axis=1)
        near = grid[approx <= approx.min() * (1 + 1e-6)]
        return min(
            math.sqrt(sum(float(sum((v[j] * Fraction(int(mi)) for mi, v in zip(m, lam)), group.basis.zero())) ** 2
                          for j in range(group.dimension)))
            for m in near
        )

    @pytest.mark.parametrize("rank", [1, 2, 3, 4, 5])
    def test_separation_is_a_shortest_vector(self, rank):
        basis = ConstantBasis(("sqrt2", "sqrt3"), (SQRT2_50, SQRT3_50))
        rng = random.Random(rank)
        for _ in range(6):
            d = rng.randint(rank, max(rank, 3))
            while True:
                vecs = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)] for _ in range(rank)]
                if rl.rank(vecs) == rank:
                    break
            # each vector scaled by 1, sqrt2 or sqrt3: mixed-scale lattices included
            lam = []
            for vec in vecs:
                scale = [0, 0, 0]
                scale[rng.randrange(3)] = 1
                lam.append(tuple(er(basis, *(x * s for s in scale)) for x in vec))
            group = ClosedSubgroup(d, basis, (), tuple(lam), Route.LATTICE)
            # the brute force searches a box strictly wider than one holding every shortest vector
            flt = [[float(c) for c in v] for v in lam]
            G = [[math.fsum(a * b for a, b in zip(u, v)) for v in flt] for u in flt]
            bounds = [b + 1 for b in coefficient_bounds(G)]
            assert _separation(group) == self.brute_force_separation(group, bounds)

    def test_separation_of_mixed_scale_lattice(self):
        # (1, 0), (0, sqrt2): the exact Gram matrix would need sqrt2 * sqrt2
        basis = ConstantBasis(("sqrt2",), (SQRT2_50,))
        lam = ((er(basis, 1, 0), er(basis, 0, 0)), (er(basis, 0, 0), er(basis, 0, 1)))
        with pytest.raises(NotRepresentableError):
            er_dot(lam[1], lam[1])
        group = ClosedSubgroup(2, basis, (), lam, Route.LATTICE)
        assert _separation(group) == 1.0
        assert _separation(replace(group, lambda_basis=lam[1:])) == math.sqrt(2.0)
        assert _separation(replace(group, lambda_basis=())) == math.inf


class TestCompoundClosures:
    """Affine pieces and certified sequence directions combined with atoms."""

    def test_accumulating_line_plus_lattice_atom(self):
        text = (
            "dimension: 2\n"
            "atoms:\n"
            '  - {point: ["0", "1"], weight: "1"}\n'
            "sequences:\n"
            "  - template: poly_ratio\n"
            '    numerator: ["1"]\n'
            '    denominator: ["0", "1"]\n'
            '    weights: {kind: constant, c: "1"}\n'
            "    truncation: 50\n"
            '    accumulation: "0"\n'
            '    direction: ["1", "0"]\n'
        )
        from liouville.decider import decide

        v = decide(parse_measure(text))
        assert v.holds is False and v.route == "hyperplane"
        assert [[c.as_rational() for c in b] for b in v.closure.v_basis] == [[1, 0]]
        assert [[c.as_rational() for c in b] for b in v.closure.lambda_basis] == [[0, 1]]

    def test_affine_plus_irrational_atom(self, sqrt2_basis):
        text = (
            "dimension: 2\n"
            "constants:\n"
            '  - {name: sqrt2, value: "1.41421356237309504880168872420969807856967187537695"}\n'
            "atoms:\n"
            '  - {point: ["0", "1*sqrt2"], weight: "1"}\n'
            "continuous:\n"
            "  - kind: affine_supported\n"
            '    basis: [["1", "0"]]\n'
            "    profile: {kind: fractional, alpha: 1.0}\n"
        )
        from liouville.decider import decide

        v = decide(parse_measure(text))
        assert v.holds is False
        lam = v.closure.lambda_basis[0]
        assert lam[0].is_zero() and lam[1].coords == (Fraction(0), Fraction(1))
        # the certificate pairing must hold exactly despite the irrational scale
        period = er_dot(v.certificate.normal, v.certificate.c)
        val = er_dot(v.certificate.normal, lam)
        assert rational_ratio(period, val) == 1

    def test_affine_plus_dense_quotient(self):
        text = (
            "dimension: 2\n"
            "constants:\n"
            '  - {name: sqrt2, value: "1.41421356237309504880168872420969807856967187537695"}\n'
            "atoms:\n"
            '  - {point: ["0", "1"], weight: "1"}\n'
            '  - {point: ["0", "1*sqrt2"], weight: "1"}\n'
            "continuous:\n"
            "  - kind: affine_supported\n"
            '    basis: [["1", "0"]]\n'
            "    profile: {kind: fractional, alpha: 1.0}\n"
        )
        from liouville.decider import decide

        v = decide(parse_measure(text))
        assert v.holds is True

    def test_empty_measure_2d(self):
        from liouville.decider import decide

        v = decide(parse_measure("dimension: 2\n"))
        assert v.holds is False
        assert v.closure.v_dim == 0 and v.closure.lattice_rank == 0
        assert v.counterexample is not None


class TestDecomposeWithSequence:
    def test_lattice_sequence_parts(self):
        # integer-point sequence a_n = n: every part is a singleton at n g
        text = (
            "dimension: 1\nsequences:\n"
            "  - template: poly_ratio\n"
            '    numerator: ["0", "1"]\n'
            '    denominator: ["1"]\n'
            '    weights: {kind: geometric, c: "1", r: "1/2"}\n'
            "    truncation: 8\n"
        )
        from liouville.decider import decide

        mu = parse_measure(text)
        v = decide(mu)
        assert v.holds is False
        dec = decompose_measure(mu, v.closure)
        occupied = {k[0]: p for k, p in zip(dec.coset_keys, dec.parts) if p}
        assert set(occupied) == {n for n in range(-8, 9) if n != 0}
        assert dec.mass_off_origin_bound < 3.0

    def test_codimension_two_reduction(self):
        # 3-d: affine line plus two independent axis atoms
        text = (
            "dimension: 3\natoms:\n"
            '  - {point: ["0", "1", "0"], weight: "1"}\n'
            '  - {point: ["0", "0", "3/2"], weight: "1"}\n'
            "continuous:\n"
            "  - kind: affine_supported\n"
            '    basis: [["1", "0", "0"]]\n'
            "    profile: {kind: fractional, alpha: 1.0}\n"
        )
        from liouville.decider import decide

        v = decide(parse_measure(text))
        assert v.holds is False
        assert v.closure.v_dim == 1 and v.closure.lattice_rank == 2
        got = sorted(tuple(c.as_rational() for c in b) for b in v.closure.lambda_basis)
        assert got == [(0, 0, Fraction(3, 2)), (0, 1, 0)]


class TestGeneralizedKronecker:
    """Rational base changes beyond the canonical unit-vector support."""

    SKEW = (
        "dimension: 2\n"
        "constants:\n"
        '  - {name: sqrt2, value: "1.41421356237309504880168872420969807856967187537695"}\n'
        '  - {name: sqrt3, value: "1.73205080756887729352744634150587236694280525381038"}\n'
        "atoms:\n"
        '  - {point: ["2", "0"], weight: "1"}\n'
        '  - {point: ["1", "1"], weight: "1"}\n'
        '  - {point: ["1*sqrt2", "1*sqrt3"], weight: "1"}\n'
    )
    SCALED = (
        "dimension: 2\n"
        "constants:\n"
        '  - {name: sqrt2, value: "1.41421356237309504880168872420969807856967187537695"}\n'
        "atoms:\n"
        '  - {point: ["2", "0"], weight: "1"}\n'
        '  - {point: ["0", "2"], weight: "1"}\n'
        '  - {point: ["1*sqrt2", "1*sqrt2"], weight: "1"}\n'
    )

    def test_skew_rational_basis_dense(self):
        from liouville.decider import decide

        v = decide(parse_measure(self.SKEW))
        assert v.holds is True and v.route == "kronecker"

    def test_scaled_basis_degenerate_closure(self):
        import math

        from liouville.decider import decide

        v = decide(parse_measure(self.SCALED))
        assert v.holds is False
        # hand derivation: V = span(1,1), orthogonalized lattice (1,-1)Z
        vdir = v.closure.v_basis[0]
        assert rational_ratio(vdir[0], vdir[1]) == 1
        lam = v.closure.lambda_basis[0]
        assert rational_ratio(lam[0], lam[1]) == -1
        dec = decompose_measure(parse_measure(self.SCALED), v.closure)
        assert dec.separation == pytest.approx(math.sqrt(2))

    def test_group_elements_stay_in_closure(self):
        # random m0*c + (m1, m2) over the generators must solve exactly
        # as v + integer lattice coordinates
        import random

        from liouville.decider import decide

        for text in (self.SCALED,):
            mu = parse_measure(text)
            v = decide(mu)
            group = v.closure
            gens = [a.point for a in mu.atoms]
            rng = random.Random(4)
            basis = mu.basis
            for _ in range(40):
                acc = tuple(basis.zero() for _ in range(2))
                for g in gens:
                    m = rng.randint(-3, 3)
                    acc = tuple(a + c.scale(Fraction(m)) for a, c in zip(acc, g))
                assert _coset_keys([acc], group)[0] is not None, [str(c) for c in acc]


class TestGeneralKronecker:
    """Inputs the single exact algorithm certifies: blocks plus the annihilator."""

    CONSTANTS = (
        "constants:\n"
        f'  - {{name: sqrt2, value: "{SQRT2_50}"}}\n'
        f'  - {{name: sqrt3, value: "{SQRT3_50}"}}\n'
    )

    def spec(self, *points):
        lines = "".join(
            "  - {point: [" + ", ".join(f'"{c}"' for c in p) + '], weight: "1"}\n' for p in points
        )
        return f"dimension: {len(points[0])}\n" + self.CONSTANTS + "atoms:\n" + lines

    @pytest.mark.parametrize(
        "points, holds",
        [
            ((("1", "0"), ("0", "1"), ("1", "1"), ("1*sqrt2", "1/3")), False),
            ((("1", "0"), ("0", "1"), ("1*sqrt2", "1*sqrt3"), ("1*sqrt3", "1*sqrt2")), True),
            ((("1*sqrt2", "0"), ("0", "1*sqrt2"), ("1", "1")), False),
            ((("1", "0"), ("2", "0"), ("0", "1"), ("1*sqrt2", "1*sqrt2")), False),
            ((("4/3", "0", "0"), ("2/3", "0", "0"), ("0", "1*sqrt2", "0"), ("0", "0", "1/2")), False),
        ],
    )
    def test_certified_verdicts(self, points, holds):
        from liouville.closure import _validate_certificate
        from liouville.decider import decide

        mu = parse_measure(self.spec(*points))
        v = decide(mu)
        assert v.certified and v.holds is holds
        if not holds:
            assert v.certificate.exact
            _validate_certificate(v.certificate, support_of(mu))
            for atom in mu.atoms:
                assert _coset_keys([atom.point], v.closure)[0] is not None

    def test_annihilator_of_the_extra_rational_point(self):
        # (1,0), (0,1), (1,1), (sqrt2, 1/3): xi = (0, 3) annihilates the group
        cl = closure_multid(support_of(parse_measure(self.spec(
            ("1", "0"), ("0", "1"), ("1", "1"), ("1*sqrt2", "1/3")
        ))))
        assert cl.route == "kronecker" and cl.witness["dependency"] == (0, 3)
        assert [[c.as_rational() for c in v] for v in cl.v_basis] == [[1, 0]]
        assert [[c.as_rational() for c in v] for v in cl.lambda_basis] == [[0, Fraction(1, 3)]]

    def test_scaled_frame(self):
        # alpha = sqrt2: the closure is (1, 1) R + sqrt2 (1, 0) Z
        cl = closure_multid(support_of(parse_measure(self.spec(
            ("1*sqrt2", "0"), ("0", "1*sqrt2"), ("1", "1")
        ))))
        assert cl.witness["dependency"] == (1, -1)
        assert [c.coords for c in cl.lambda_basis[0]] == [(0, 1, 0), (0, 0, 0)]

    def test_products_of_constants_stay_uncertified(self, tmp_path, capsys):
        from liouville.cli import main

        spec = tmp_path / "products.yaml"
        spec.write_text(self.spec(("1", "1*sqrt2"), ("1*sqrt2", "1"), ("1", "0")))
        assert main(["decide", str(spec), "--no-timestamp"]) == 20
        assert "verdict: uncertified" in capsys.readouterr().out


class TestDecomposeRegressions:
    def test_mixed_scale_lattice_has_a_coset_for_every_atom(self, tmp_path, capsys):
        from liouville.cli import main

        spec = tmp_path / "mixed.yaml"
        spec.write_text(
            "dimension: 3\n"
            "constants:\n"
            f'  - {{name: sqrt2, value: "{SQRT2_50}"}}\n'
            "atoms:\n"
            '  - {point: ["211/14", "0", "0"], weight: "1"}\n'
            '  - {point: ["0", "211/7 + 633/14*sqrt2", "0"], weight: "1"}\n'
            '  - {point: ["0", "0", "422/21"], weight: "1"}\n'
        )
        assert main(["decompose", str(spec), "--no-timestamp"]) == 10
        out = capsys.readouterr().out
        assert out.count("  atom: ") == 6

    def test_atom_on_a_sequence_point_pairs_with_its_mirror(self):
        from liouville.decider import decide

        text = (
            "dimension: 1\n"
            "atoms:\n"
            '  - {point: ["2"], weight: "1/3"}\n'
            "sequences:\n"
            "  - template: poly_ratio\n"
            '    numerator: ["1", "1"]\n'
            '    denominator: ["1"]\n'
            '    weights: {kind: power, c: "1", s: 2}\n'
            "    truncation: 6\n"
        )
        mu = parse_measure(text)
        dec = decompose_measure(mu, decide(mu).closure)
        parts = dict(zip(dec.coset_keys, dec.parts))
        assert sorted(str(w) for _, w in parts[(2,)]) == ["1", "1/3"]
        assert sorted(str(w) for _, w in parts[(-2,)]) == ["1", "1/3"]


# -- the change of frame against per-slice and Gram/block-system references -------------


def gram_orthogonalize(group):
    """Reference: a - V x with G x = <V, a> solved for each constant slice (G = V V^T)."""
    if not group.v_basis or not group.lambda_basis:
        return group
    zero, m = group.basis.zero(), group.basis.size + 1
    vr = [[c.coords[0] for c in v] for v in group.v_basis]
    G = [[sum(a * b for a, b in zip(u, w)) for w in vr] for u in vr]
    new_lam = []
    for a in group.lambda_basis:
        rhs = [sum((ac.scale(vc) for vc, ac in zip(v, a)), zero) for v in vr]
        sols = [rl.solve(G, [r.coords[k] for r in rhs]) for k in range(m)]
        x = [ExtendedRational(group.basis, tuple(sol[t] for sol in sols)) for t in range(len(vr))]
        proj = [sum((xt.scale(v[i]) for xt, v in zip(x, vr)), zero) for i in range(group.dimension)]
        new_lam.append(tuple(ac - pc for ac, pc in zip(a, proj)))
    return replace(group, lambda_basis=tuple(new_lam))


def block_coset_coordinates(p, group):
    """Reference: p^(k) = V t^(k) + sum_i m_i lambda_i^(k) as one block system in (t, m)."""
    vr = [[c.coords[0] for c in v] for v in group.v_basis]
    m_slots = group.basis.size + 1
    p_parts = [[c.coords[k] for c in p] for k in range(m_slots)]
    lam_parts = [[[c.coords[k] for c in v] for k in range(m_slots)] for v in group.lambda_basis]
    rows, rhs = [], []
    for t in range(m_slots):
        for i in range(group.dimension):
            row = [Fraction(0)] * (m_slots * len(vr)) + [lp[t][i] for lp in lam_parts]
            for j, v in enumerate(vr):
                row[t * len(vr) + j] = v[i]
            rows.append(row)
            rhs.append(p_parts[t][i])
    sol = rl.solve(rows, rhs)
    if sol is None:
        return None
    m = sol[m_slots * len(vr):]
    return None if any(c.denominator != 1 for c in m) else [int(c) for c in m]


def subgroup(basis, v_basis, lambda_basis):
    return ClosedSubgroup(
        dimension=len((v_basis + lambda_basis)[0]), basis=basis, v_basis=tuple(v_basis),
        lambda_basis=tuple(lambda_basis), route="test",
    )


def random_er(rng, basis):
    return ExtendedRational(
        basis, tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(basis.size + 1))
    )


class TestFrameCoordinates:
    def test_seeded_frames_match_per_slice_solve(self, sqrt23_basis):
        rng = random.Random(20261018)
        for _ in range(60):
            d = rng.randint(1, 4)
            n = rng.choice([d, rng.randint(1, d)])  # square or full column rank
            cols = []
            while len(cols) < n:
                col = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]
                if rl.rank(cols + [col]) == len(cols) + 1:
                    cols.append(col)
            points = []
            for _ in range(rng.randint(1, 5)):
                y = [random_er(rng, sqrt23_basis) for _ in range(n)]
                points.append(tuple(
                    sum((yj.scale(col[i]) for yj, col in zip(y, cols)), sqrt23_basis.zero())
                    for i in range(d)
                ))
            got = _frame_coordinates(points, cols, sqrt23_basis)
            assert len(got) == len(points)
            colmat = [[col[i] for col in cols] for i in range(d)]
            for p, y in zip(points, got):
                per_slice = [rl.solve(colmat, [c.coords[k] for c in p]) for k in range(3)]
                assert y == tuple(
                    ExtendedRational(sqrt23_basis, tuple(sol[t] for sol in per_slice)) for t in range(n)
                )
                rebuilt = tuple(
                    sum((yt.scale(col[i]) for yt, col in zip(y, cols)), sqrt23_basis.zero())
                    for i in range(d)
                )
                assert rebuilt == p

    def orthogonalize_cases(self, plain_basis, sqrt23_basis):
        def pts(basis, *vecs):
            return [point_from_fractions(basis, v) for v in vecs]

        s2, s3 = er(sqrt23_basis, 0, 1, 0), er(sqrt23_basis, 0, 0, 1)
        one, zero = sqrt23_basis.one(), sqrt23_basis.zero()
        return [
            subgroup(plain_basis, pts(plain_basis, [1, 0]), pts(plain_basis, [1, 1])),
            subgroup(plain_basis, pts(plain_basis, [1, 0]), pts(plain_basis, [0, 3])),
            subgroup(plain_basis, [], pts(plain_basis, [2, 1])),
            subgroup(plain_basis, pts(plain_basis, [1, 2, 0]), pts(plain_basis, [1, 1, 1], [0, 3, 2])),
            subgroup(sqrt23_basis, pts(sqrt23_basis, [1, 1, 0]), [(s2, zero, one), (one, s3 + one, s2)]),
        ]

    def test_orthogonalize_and_coset_keys_match_references(self, plain_basis, sqrt23_basis):
        for group in self.orthogonalize_cases(plain_basis, sqrt23_basis):
            ortho = orthogonalize(group)
            assert ortho == gram_orthogonalize(group)
            assert orthogonalize(ortho) == ortho  # decompose_measure relies on idempotence
            probes = list(group.lambda_basis) + list(ortho.lambda_basis) + [
                tuple(c.scale(Fraction(1, 2)) for c in lam) for lam in group.lambda_basis
            ] + [point_from_fractions(group.basis, [int(i == j) for i in range(group.dimension)])
                 for j in range(group.dimension)]
            for g in (group, ortho):
                assert _coset_keys(probes, g) == [block_coset_coordinates(p, g) for p in probes]

    def test_closure_corpus_matches_references(self):
        from test_closure_corpus import CASES, measure_of

        for name, points, plant in CASES:
            if plant[0] != "fails":
                continue
            mu = measure_of(points, len(points[0]))
            group = closure_multid(support_of(mu))
            ortho = orthogonalize(group)
            assert ortho == gram_orthogonalize(group), name
            atoms = [a.point for a in mu.atoms]
            probes = atoms + [tuple(c.scale(Fraction(1, 2)) for c in p) for p in atoms]
            for g in (group, ortho):
                assert _coset_keys(probes, g) == [block_coset_coordinates(p, g) for p in probes], name
