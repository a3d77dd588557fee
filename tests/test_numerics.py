import math
import os
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, spatial

from liouville.decider import decide
from liouville.exactreal import ConstantBasis
from liouville import numerics
from liouville.measures import parse_measure, support_of
from liouville.numerics import (
    OperatorEvaluator,
    SmoothFunction,
    builtin_function,
    density_probe,
    eval_operator,
    fractional_constant,
    propagate,
    sphere_area,
)
from conftest import PI_50, SQRT2_50, SQRT3_50, er, reference_propagate, spec_path

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def load(name):
    with open(spec_path(name)) as fh:
        return parse_measure(fh.read())


def points_1d(basis, *values):
    return [(v,) for v in values]


class TestFractionalIdentity:
    """Fourier multiplier oracle: -(-Lap)^{alpha/2} cos = -|1|^alpha cos."""

    def test_alpha_one_within_1e4(self):
        mu = load("fractional.yaml")
        u = builtin_function("cos", 1)
        ev = OperatorEvaluator(measure=mu)
        for x in (0.0, 0.7, 2.1, -1.3):
            res = eval_operator(ev, u, (x,))
            assert abs(res.value - (-math.cos(x))) < 1e-4
            assert abs(res.value - (-math.cos(x))) <= res.bound < 1e-3

    def test_dense_quadrature_oracle_at_one_point(self):
        # independent check of the quadrature machinery via scipy.integrate
        x = 0.7
        c = fractional_constant(1, 1.0)
        R = 3000.0
        inner, _ = integrate.quad(
            lambda r: c * (math.cos(x + r) + math.cos(x - r) - 2 * math.cos(x)) / r**2,
            0,
            1,
            limit=400,
        )
        outer, _ = integrate.quad(
            lambda r: c * (math.cos(x + r) + math.cos(x - r) - 2 * math.cos(x)) / r**2,
            1,
            R,
            limit=4000,
        )
        # analytic remainder of the non-oscillatory -2cos(x) part beyond R
        oracle = inner + outer - 2 * math.cos(x) * c / R
        res = eval_operator(OperatorEvaluator(measure=load("fractional.yaml")), builtin_function("cos", 1), (x,))
        assert res.value == pytest.approx(oracle, abs=2e-4)

    def test_r0_split_invariance(self):
        mu = load("fractional.yaml")
        u = builtin_function("cos", 1)
        results = {
            r0: eval_operator(OperatorEvaluator(measure=mu, r0=r0), u, (0.7,))
            for r0 in (0.5, 1.0, 2.0)
        }
        vals = [r.value for r in results.values()]
        worst_bound = max(r.bound for r in results.values())
        assert max(vals) - min(vals) <= 2 * worst_bound

    def test_alpha_half_covered_by_bound(self):
        mu = parse_measure("dimension: 1\ncontinuous:\n  - {kind: fractional, alpha: 0.5}\n")
        u = builtin_function("cos", 1)
        res = eval_operator(OperatorEvaluator(measure=mu), u, (0.3,))
        assert abs(res.value - (-math.cos(0.3))) <= res.bound


def _cosine_before(name, dimension):
    """builtin_function's two cosines as separate definitions: (fn, grad_fn, dir2_fn, sups)."""
    if name == "cos":
        return (
            lambda x: np.cos(x[..., 0]),
            lambda x: numerics._e1_grad(-np.sin(x[0]), dimension),
            lambda x, w: -np.cos(x[0]) * w[0] ** 2,
            (1.0, 1.0, 1.0, 1.0, 1.0),
        )
    tp = 2 * math.pi
    return (
        lambda x: np.cos(tp * x[..., 0]),
        lambda x: numerics._e1_grad(-tp * np.sin(tp * x[0]), dimension),
        lambda x, w: -(tp**2) * np.cos(tp * x[0]) * w[0] ** 2,
        (1.0, tp, tp**2, tp**3, tp**4),
    )


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("name", ["cos", "cos2pi"])
def test_one_cosine_keeps_every_bit(name, dimension):
    u = builtin_function(name, dimension)
    fn, grad_fn, dir2_fn, sups = _cosine_before(name, dimension)
    assert (u.sup_u, u.sup_grad, u.sup_hess, u.sup_d3, u.sup_d4) == sups
    rng = np.random.default_rng(dimension)
    xs = rng.uniform(-50, 50, size=(200, dimension))
    assert [v.hex() for v in u.fn(xs).tolist()] == [v.hex() for v in fn(xs).tolist()]
    for x in xs:
        w = rng.normal(size=dimension)
        w /= np.linalg.norm(w)
        assert [v.hex() for v in u.grad_fn(x).tolist()] == [v.hex() for v in grad_fn(x).tolist()]
        assert float(u.dir2_fn(x, w)).hex() == float(dir2_fn(x, w)).hex()


class TestMeanValue:
    def test_annihilates_harmonic(self):
        mu = load("mean_value.yaml")
        u = builtin_function("harmonic_xy", 2)
        ev = OperatorEvaluator(measure=mu)
        for x in ((0.0, 0.0), (0.3, -1.2), (2.0, 1.0)):
            res = eval_operator(ev, u, x)
            assert abs(res.value) < 1e-10

    def test_nonharmonic_not_annihilated(self):
        mu = load("mean_value.yaml")
        u = builtin_function("gaussian", 2)
        res = eval_operator(OperatorEvaluator(measure=mu), u, (0.0, 0.0))
        assert abs(res.value) > 1e-3


class TestAtomicSums:
    def test_periodic_cosine_annihilated_exactly(self):
        # the counterexample of the unit lattice is cos(2 pi x), reduced mod 1 exactly
        mu = load("discrete_laplacian.yaml")
        u = decide(mu).counterexample.as_function()
        ev = OperatorEvaluator(measure=mu)
        basis = mu.basis
        for k in range(10):
            x = (basis.from_rational(Fraction(k, 7)),)
            res = eval_operator(ev, u, x)
            assert res.value == 0.0
            assert res.bound == 0.0

    def test_sequence_tail_bound_is_honest(self):
        mu = load("reciprocal_sequence.yaml")
        u = builtin_function("cos2pi", 1)
        full = eval_operator(OperatorEvaluator(measure=mu), u, (0.3,))
        short = eval_operator(OperatorEvaluator(measure=mu, truncation=50), u, (0.3,))
        assert abs(full.value - short.value) <= short.bound

    def test_unbounded_u_rejected_when_tails_needed(self):
        mu = load("reciprocal_sequence.yaml")
        u = builtin_function("harmonic_xy", 2)
        with pytest.raises(ValueError):
            eval_operator(OperatorEvaluator(measure=load("fractional.yaml")), u, (0.0,))

    def test_self_adjoint_symmetry(self):
        # sum_x u L[psi] == sum_x psi L[u] for an atomic measure, trapezoid in x
        text = (
            "dimension: 1\natoms:\n"
            '  - {point: ["1"], weight: "1"}\n'
            '  - {point: ["3/2"], weight: "1/2"}\n'
        )
        mu = parse_measure(text)
        ev = OperatorEvaluator(measure=mu)
        u = builtin_function("gaussian", 1)

        psi = SmoothFunction(
            "shifted_gaussian", fn=lambda x: np.exp(-((x[..., 0] - 0.4) ** 2)),
            sup_u=1.0, sup_grad=1.0, sup_hess=2.0,
        )
        xs = np.linspace(-12, 12, 961)
        h = xs[1] - xs[0]
        lu = np.array([eval_operator(ev, u, (float(x),)).value for x in xs])
        lpsi = np.array([eval_operator(ev, psi, (float(x),)).value for x in xs])
        uu = np.array([float(u.value(np.array([x]))) for x in xs])
        pp = np.array([float(psi.value(np.array([x]))) for x in xs])
        lhs = float(integrate.trapezoid(uu * lpsi, dx=h))
        rhs = float(integrate.trapezoid(pp * lu, dx=h))
        assert lhs == pytest.approx(rhs, abs=1e-6)


class TestRelativisticAndConvolution:
    def test_finite_values_and_honest_r0_invariance(self):
        for name in ("relativistic.yaml", "convolution.yaml"):
            mu = load(name)
            u = builtin_function("cos", 1)
            out = {
                r0: eval_operator(OperatorEvaluator(measure=mu, r0=r0), u, (0.4,))
                for r0 in (0.5, 1.0, 2.0)
            }
            vals = [r.value for r in out.values()]
            assert all(math.isfinite(v) for v in vals)
            assert max(vals) - min(vals) <= 2 * max(r.bound for r in out.values())

    def test_convolution_matches_direct_convolution(self):
        # J*u - u with a gaussian J: direct quadrature oracle
        mu = load("convolution.yaml")
        u = builtin_function("cos", 1)
        x = 0.3
        oracle, _ = integrate.quad(
            lambda z: math.exp(-(z**2)) / math.sqrt(math.pi) * (math.cos(x + z) - math.cos(x)),
            -np.inf,
            np.inf,
        )
        res = eval_operator(OperatorEvaluator(measure=mu), u, (x,))
        assert res.value == pytest.approx(oracle, abs=1e-6)


class TestAffine:
    def test_planar_counterexample_annihilated(self):
        mu = load("planar_fractional.yaml")
        from liouville.decider import decide

        v = decide(mu)
        u = v.counterexample.as_function()
        ev = OperatorEvaluator(measure=mu)
        rng = np.random.default_rng(5)
        for p in rng.uniform(-3, 3, size=(5, 2)):
            res = eval_operator(ev, u, tuple(p))
            assert abs(res.value) < 1e-8


class TestPropagate:
    def test_integer_lattice_window(self, plain_basis):
        state = propagate(points_1d(plain_basis, er(plain_basis, 1)), R=5.0, n_max=12)
        assert state.deltas[:5] == pytest.approx([4.0, 3.0, 2.0, 1.0, 0.5])
        assert state.deltas[5:] == pytest.approx([0.5] * 7)
        assert sorted(state.positions[:, 0].tolist()) == pytest.approx(list(range(-6, 7)))

    def test_sqrt2_reaches_five_percent_by_17(self, sqrt2_basis):
        pts = points_1d(sqrt2_basis, er(sqrt2_basis, 1, 0), er(sqrt2_basis, 0, 1))
        state = propagate(pts, R=5.0, n_max=40, target_delta=0.05)
        # pre-build oracle run: the grid delta sits exactly at the 0.05
        # boundary for n = 14..16 and drops strictly below by n = 17
        assert 14 <= state.n <= 17
        assert state.deltas[-1] < 0.05
        assert state.deltas[12] > 0.05

    def test_deltas_nonincreasing(self, sqrt2_basis):
        pts = points_1d(sqrt2_basis, er(sqrt2_basis, 1, 0), er(sqrt2_basis, 0, 1))
        state = propagate(pts, R=5.0, n_max=25)
        assert all(b <= a + 1e-15 for a, b in zip(state.deltas, state.deltas[1:]))

    def test_group_containment(self, sqrt2_basis):
        pts = points_1d(sqrt2_basis, er(sqrt2_basis, 1, 0), er(sqrt2_basis, 0, 1))
        state = propagate(pts, R=3.0, n_max=8)
        # every point is a + b sqrt2 with |a| + |b| <= 8 layers, reached once
        group = np.array([a + b * math.sqrt(2) for a in range(-8, 9) for b in range(-8, 9)
                          if abs(a) + abs(b) <= 8])
        xs = state.positions[:, 0]
        assert len(xs) == state.sizes[-1]
        assert np.abs(xs[:, None] - group[None, :]).min(axis=1).max() < 1e-12
        assert np.diff(np.sort(xs)).min() > 1e-12

    def test_cap_flags_partial_result(self, sqrt2_basis, monkeypatch):
        monkeypatch.setattr(numerics, "_POINT_CAP", 50)
        pts = points_1d(sqrt2_basis, er(sqrt2_basis, 1, 0), er(sqrt2_basis, 0, 1))
        state = propagate(pts, R=5.0, n_max=40)
        assert state.flagged_partial
        assert state.n < 40

    def test_denominators_beyond_int64_match_fraction_oracle(self, plain_basis):
        qs = [Fraction(1, 10000019), Fraction(1, 10000079), Fraction(1, 10000103)]
        assert math.lcm(*(q.denominator for q in qs)) > 2**63
        R, n_max, grid_div = 4e-7, 8, 50
        state = propagate([(er(plain_basis, q),) for q in qs], R=R, n_max=n_max, grid_div=grid_div)

        # breadth-first oracle: the first candidate in (frontier, step) order that lies
        # in the window claims each new point, with its float summed along the path
        steps = [s for q in qs for s in (q, -q)]
        lim = R + max(abs(float(s)) for s in steps)
        grid = np.linspace(-R, R, 2 * grid_div + 1)
        reached = {Fraction(0): 0.0}
        frontier = dict(reached)
        sizes, deltas = [], []
        for _ in range(n_max):
            layer = {}
            for p, x in frontier.items():
                for s in steps:
                    q, y = p + s, x + float(s)
                    if q not in reached and q not in layer and abs(y) <= lim:
                        layer[q] = y
            reached.update(layer)
            frontier = layer
            xs = np.array(list(reached.values()))
            sizes.append(len(reached))
            deltas.append(float(np.abs(grid[:, None] - xs[None, :]).min(axis=1).max()))

        assert state.sizes == sizes
        assert state.deltas == deltas
        assert state.positions[:, 0].tolist() == list(reached.values())

    def test_blocked_numpy_passes_match_one_pass(self, sqrt2_basis, monkeypatch):
        pts = points_1d(sqrt2_basis, er(sqrt2_basis, 1, 0), er(sqrt2_basis, 0, 1))
        whole = propagate(pts, R=5.0, n_max=15)
        monkeypatch.setattr(numerics, "_CANDIDATES_PER_PASS", 6)
        blocked = propagate(pts, R=5.0, n_max=15)
        assert (blocked.sizes, blocked.deltas) == (whole.sizes, whole.deltas)
        assert blocked.positions.tolist() == whole.positions.tolist()

    def test_prefix_is_the_shorter_run(self, sqrt2_basis):
        pts = [
            (er(sqrt2_basis, 1, 0), er(sqrt2_basis, 0, 0)),
            (er(sqrt2_basis, 0, 0), er(sqrt2_basis, 0, 1)),
            (er(sqrt2_basis, Fraction(1, 2), 1), er(sqrt2_basis, 1, 0)),
        ]
        long = propagate(pts, R=2.0, n_max=9, grid_div=30)
        for layers in (1, 4, 9):
            short = propagate(pts, R=2.0, n_max=layers, grid_div=30)
            cut = long.prefix(layers)
            assert (cut.n, cut.sizes, cut.deltas) == (short.n, short.sizes, short.deltas)
            assert cut.positions.tolist() == short.positions.tolist()
        origin = long.prefix(0)
        assert (origin.n, origin.sizes, origin.deltas) == (0, [], [])
        assert origin.positions.tolist() == [[0.0, 0.0]]

    @pytest.mark.parametrize("n_max", [0, -1])
    def test_rejects_fewer_than_one_layer(self, plain_basis, n_max):
        with pytest.raises(ValueError, match="at least 1 layer"):
            propagate(points_1d(plain_basis, er(plain_basis, 1)), R=2.0, n_max=n_max)


# (R, n_max, grid_div) of the oracle comparisons
ORACLE_CONFIGS = ((2.0, 6, 16), (1.5, 10, 30))
ORACLE_BASES = {
    1: ConstantBasis(),
    2: ConstantBasis(("sqrt2",), (SQRT2_50,)),
    3: ConstantBasis(("sqrt2", "sqrt3"), (SQRT2_50, SQRT3_50)),
}


def random_support(rng, d, basis):
    """One to three atoms with small rational coordinates over the basis, not all zero."""
    while True:
        pts = [
            tuple(er(basis, *(Fraction(rng.randint(-2, 2), rng.choice((1, 2, 3)))
                              if rng.random() < 0.6 else 0 for _ in range(basis.size + 1)))
                  for _ in range(d))
            for _ in range(rng.randint(1, 3))
        ]
        if any(any(c.nums) for p in pts for c in p):
            return pts


def assert_matches_oracle(pts, R, n_max, grid_div):
    state = propagate(pts, R=R, n_max=n_max, grid_div=grid_div)
    ref = reference_propagate(pts, R, n_max, grid_div)
    assert (state.sizes, state.deltas, state.flagged_partial) == (
        ref.sizes, ref.deltas, ref.flagged_partial)
    assert state.positions.shape == ref.positions.shape
    assert state.positions.tobytes() == ref.positions.tobytes()
    return state


class TestPropagateOracle:
    """`propagate` against the key-set and per-layer-query oracle, bit for bit."""

    @pytest.mark.parametrize("m", sorted(ORACLE_BASES))
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_random_supports(self, d, m):
        rng = random.Random(100 * d + m)
        for _ in range(12):
            pts = random_support(rng, d, ORACLE_BASES[m])
            for config in ORACLE_CONFIGS:
                assert_matches_oracle(pts, *config)

    @pytest.mark.parametrize("d, m", [(1, 1), (2, 2)])
    def test_codes_beyond_int64(self, d, m):
        basis = ORACLE_BASES[m]
        small = [Fraction(1, 10**15), Fraction(1, 3**20)]
        assert math.lcm(*(q.denominator for q in small)) > 2**63
        if d == 1:
            pts = [(er(basis, 1),), (er(basis, small[0]),), (er(basis, small[1]),)]
        else:
            pts = [(er(basis, 1, 0), er(basis, 0, small[0])), (er(basis, small[1], 0), er(basis, 0, 1))]
        for config in ORACLE_CONFIGS:
            assert_matches_oracle(pts, *config)

    def test_layer_over_several_passes(self):
        basis = ORACLE_BASES[3]
        rng = random.Random(7)
        pts = [(er(basis, *(rng.randint(-5, 5) for _ in range(3))),) for _ in range(40)]
        steps = {q for (c,) in pts for q in (c, -c)}
        state = assert_matches_oracle(pts, 3.0, 3, 16)
        frontier = state.sizes[1] - state.sizes[0]  # the third layer's
        assert frontier * len(steps) > 2 * numerics._CANDIDATES_PER_PASS

    def test_point_cap(self, monkeypatch):
        monkeypatch.setattr(numerics, "_POINT_CAP", 100)
        rng = random.Random(3)
        flagged = [assert_matches_oracle(random_support(rng, d, ORACLE_BASES[3]), 2.0, 10, 16)
                   .flagged_partial for d in (1, 2, 3)]
        assert flagged == [False, True, False]

    @pytest.mark.parametrize("path, config", [
        (spec_path("nonuniform_grid_2d.yaml"), (3.0, 30, 100)),
        (spec_path("kronecker_rational.yaml"), (5.0, 12, 200)),
        (os.path.join(GOLDEN_DIR, "lattice_3d.yaml"), (3.0, 10, 40)),
    ])
    def test_layers_on_both_sides_of_the_query_choice(self, monkeypatch, path, config):
        calls = {"query": 0, "sparse_distance_matrix": 0}

        class Counted(spatial.cKDTree):
            def query(self, *args, **kwargs):
                calls["query"] += 1
                return super().query(*args, **kwargs)

            def sparse_distance_matrix(self, *args, **kwargs):
                calls["sparse_distance_matrix"] += 1
                return super().sparse_distance_matrix(*args, **kwargs)

        with open(path) as fh:
            pts = list(support_of(parse_measure(fh.read())).finite_points)
        with monkeypatch.context() as patch:
            patch.setattr(spatial, "cKDTree", Counted)
            propagate(pts, R=config[0], n_max=config[1], grid_div=config[2])
        # the origin's query, then at least one layer of each kind
        assert calls["query"] >= 2 and calls["sparse_distance_matrix"] >= 1
        assert_matches_oracle(pts, *config)


class TestDensityProbe:
    def test_unit_lattice(self, plain_basis):
        probe = density_probe(points_1d(plain_basis, er(plain_basis, 1)), R=5.0, n_max=12)
        assert probe.verdict == "lattice-detected"
        assert probe.g_estimate == pytest.approx(1.0, abs=1e-9)

    def test_rational_lattice_matches_gcd(self, plain_basis):
        probe = density_probe(
            points_1d(plain_basis, er(plain_basis, 1), er(plain_basis, Fraction(3, 2))),
            R=5.0,
            n_max=30,
        )
        assert probe.verdict == "lattice-detected"
        assert probe.g_estimate == pytest.approx(0.5, abs=1e-9)

    def test_pi_dense_likely(self, pi_basis):
        probe = density_probe(
            points_1d(pi_basis, er(pi_basis, 1, 0), er(pi_basis, 0, 1)), R=5.0, n_max=40
        )
        assert probe.verdict == "dense-likely"

    def test_adversarial_near_rational(self, plain_basis):
        # 355/113 is indistinguishable from pi in the deltas but snaps exactly:
        # the probe must never be promoted to a certificate
        probe = density_probe(
            points_1d(plain_basis, er(plain_basis, 1), er(plain_basis, Fraction(355, 113))),
            R=5.0,
            n_max=40,
        )
        assert probe.verdict == "lattice-detected"
        assert probe.g_estimate == pytest.approx(1 / 113, abs=1e-9)

    def test_2d_lattice_fit(self, plain_basis):
        pts = [
            (er(plain_basis, 1), er(plain_basis, 0)),
            (er(plain_basis, 0), er(plain_basis, 1)),
            (er(plain_basis, Fraction(1, 2)), er(plain_basis, Fraction(1, 3))),
        ]
        probe = density_probe(pts, R=2.0, n_max=25, grid_div=80)
        assert probe.verdict == "lattice-detected"


class TestMultiDimensionalQuadrature:
    def test_d2_fractional_multiplier(self, monkeypatch):
        monkeypatch.setattr(numerics, "_OUTER_RADIUS", 2e3)
        monkeypatch.setattr(numerics, "_OUTER_STEP", 0.1)
        mu = parse_measure("dimension: 2\ncontinuous:\n  - {kind: fractional, alpha: 1.0}\n")
        u = builtin_function("cos", 2)
        ev = OperatorEvaluator(measure=mu)
        res = eval_operator(ev, u, (0.4, -0.7))
        assert abs(res.value - (-math.cos(0.4))) < 5e-4
        assert abs(res.value - (-math.cos(0.4))) <= res.bound

    def test_d3_mean_value_annihilates_harmonic(self):
        mu = parse_measure("dimension: 3\ncontinuous:\n  - {kind: surface_sphere, radius: 1.0}\n")
        u = builtin_function("harmonic_xy", 3)
        res = eval_operator(OperatorEvaluator(measure=mu), u, (0.3, -0.2, 1.0))
        assert abs(res.value) < 1e-10

    def test_d3_fractional_multiplier(self, monkeypatch):
        monkeypatch.setattr(numerics, "_OUTER_RADIUS", 500)
        monkeypatch.setattr(numerics, "_OUTER_STEP", 0.1)
        monkeypatch.setattr(numerics, "_SPHERE_COUNT", 32)
        mu = parse_measure("dimension: 3\ncontinuous:\n  - {kind: fractional, alpha: 1.0}\n")
        u = builtin_function("cos", 3)
        ev = OperatorEvaluator(measure=mu)
        res = eval_operator(ev, u, (0.0, 0.0, 0.0))
        assert abs(res.value - (-1.0)) <= res.bound
        assert abs(res.value - (-1.0)) < 1e-3

    def test_d4_rejected(self):
        mu = parse_measure("dimension: 4\ncontinuous:\n  - {kind: fractional, alpha: 1.0}\n")
        with pytest.raises(ValueError, match="d <= 3"):
            OperatorEvaluator(measure=mu)


def _bits(res):
    return res.value.hex(), res.bound.hex()


class TestReusePerEvaluator:
    """An evaluator builds what does not depend on x once; values stay bit for bit."""

    MIXED_1D = (
        'dimension: 1\natoms:\n  - {point: ["3/2"], weight: "1/2"}\n'
        "sequences:\n  - template: poly_ratio\n"
        '    numerator: ["1"]\n    denominator: ["0", "1"]\n'
        '    weights: {kind: power, c: "1", s: 2}\n    truncation: 30\n    accumulation: "0"\n'
        "continuous:\n  - {kind: fractional, alpha: 0.5}\n"
        "  - {kind: relativistic, alpha: 1.5, m: 2.0}\n"
        "  - {kind: convolution, profile: exponential, scale: 0.5}\n"
    )
    MIXED_2D = (
        "dimension: 2\ncontinuous:\n  - {kind: surface_sphere, radius: 0.5}\n"
        "  - {kind: convolution, profile: gaussian, scale: 0.3}\n"
        '  - {kind: affine_supported, basis: [["1", "2"]], profile: {kind: fractional, alpha: 1.5}}\n'
        '  - {kind: affine_supported, basis: [["1", "-1"]], profile: {kind: gaussian, scale: 2.0}}\n'
    )

    def test_half_grid_is_every_other_fine_node(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            a = float(rng.uniform(-30.0, 10.0))
            b = a + float(rng.uniform(1e-3, 1e4))
            n = 2 * int(rng.integers(1, 20_000))
            assert np.linspace(a, b, n + 1)[::2].tobytes() == np.linspace(a, b, n // 2 + 1).tobytes()

    @pytest.mark.parametrize("lo, hi, log, fine, half", [
        (1e-4, 1.0, True, 64, 32),  # the default inner zone
        (1e-4, 2.3, True, 64, 32),
        (1.0, 1e4, False, 0.05, 0.1),  # the default outer zone of a fractional kernel
        (1.0, 60.0, False, 0.05, 0.1),
    ])
    def test_nested_half_sum_equals_a_separate_evaluation(self, lo, hi, log, fine, half):
        kern = numerics._RadialKernel(numerics.FractionalPart(alpha=0.5), 1)
        rule = numerics._Simpson.log_spaced if log else numerics._Simpson.linear
        zone = numerics._Zone(kern, rule(lo, hi, fine), rule(lo, hi, half))
        assert zone.nested

        def integrand(r, ker):
            return (np.cos(0.3 + r) - np.cos(0.3)) * ker

        coarse = rule(lo, hi, half)
        separate = coarse(integrand(coarse.r, kern.density(coarse.r)))
        assert zone.sums(integrand)[1].hex() == separate.hex()

    def test_counts_that_do_not_nest_are_evaluated_separately(self):
        kern = numerics._RadialKernel(numerics.FractionalPart(alpha=0.5), 1)
        zone = numerics._Zone(kern, numerics._Simpson.log_spaced(1e-4, 1.0, 33),
                              numerics._Simpson.log_spaced(1e-4, 1.0, 16))
        assert not zone.nested

    @pytest.mark.parametrize("spec, dim", [("MIXED_1D", 1), ("MIXED_2D", 2)])
    @pytest.mark.parametrize("config", [{}, {"nodes_per_decade": 33, "r0": 0.37}])
    def test_one_evaluator_matches_a_fresh_one_per_point(self, spec, dim, config):
        mu = parse_measure(getattr(self, spec))
        u = builtin_function("cos", dim)
        xs = [tuple(p) for p in np.random.default_rng(3).uniform(-2, 2, size=(3, dim))]
        fresh = [_bits(eval_operator(OperatorEvaluator(measure=mu, **config), u, x)) for x in xs]
        ev = OperatorEvaluator(measure=mu, **config)
        assert [_bits(eval_operator(ev, u, x)) for x in xs] == fresh
        ev = OperatorEvaluator(measure=mu, **config)
        assert [_bits(eval_operator(ev, u, x)) for x in reversed(xs)] == fresh[::-1]
        built = dict(ev._memo)
        eval_operator(ev, u, (0.5,) * dim)
        assert ev._memo.keys() == built.keys()  # nothing is built per point

    def test_affine_parts_of_different_alpha_do_not_share_quadrature(self):
        def affine(alpha):
            return f'  - {{kind: affine_supported, basis: [["1", "0"]], profile: {{kind: fractional, alpha: {alpha}}}}}\n'

        both = parse_measure("dimension: 2\ncontinuous:\n" + affine(0.5) + affine(1.5))
        alone = [parse_measure("dimension: 2\ncontinuous:\n" + affine(a)) for a in (0.5, 1.5)]
        u = builtin_function("cos", 2)
        ev = OperatorEvaluator(measure=both)
        for x in ((0.3, -1.0), (1.7, 0.2)):
            res = eval_operator(ev, u, x)
            v0, v1 = (eval_operator(OperatorEvaluator(measure=mu), u, x).value for mu in alone)
            assert res.value.hex() == (0.0 + v0 + v1).hex()  # the parts sum in order from 0.0
            assert v0 != v1

    def test_unbounded_function_is_rejected_at_every_point(self):
        ev = OperatorEvaluator(measure=load("fractional.yaml"))
        u = builtin_function("harmonic_xy", 2)
        for x in ((0.0,), (1.0,)):
            with pytest.raises(ValueError, match="not declared bounded"):
                eval_operator(ev, u, x)


def _per_direction_radial(ev, plan, u, x):
    """The radial quadrature with one C-ordered (m, d) point buffer per direction over
    every radius of a zone: the evaluation order before blocking, kept as an oracle."""
    ux = float(u.value(x))
    g = numerics._grad(u, x)
    r_s = min(numerics.R_SWITCH, ev.r0)
    sum_dir2 = float(sum(ws * numerics._dir2(u, x, w) for w, ws in zip(plan.dirs, plan.w_sph)))
    core = 0.5 * sum_dir2 * plan.m2
    core_bound = plan.m2_err * abs(sum_dir2) + (
        0.0 if u.sup_d3 == 0 else u.sup_d3 / 6.0 * r_s * plan.m2 * float(np.sum(plan.w_sph))
    )

    def integrand(radii, ker, compensated):
        acc = np.zeros_like(radii)
        pts = np.empty((radii.size, x.size))
        for wdir, ws in zip(plan.dirs, plan.w_sph):
            np.add(x, np.multiply(radii[:, None], wdir, out=pts), out=pts)
            vals = np.asarray(u.value(pts), dtype=float)
            if compensated:
                acc += ws * (vals - ux - radii * float(wdir @ g))
            else:
                acc += ws * (vals - ux)
        return acc * ker * radii ** (plan.kdim - 1)

    i1, i2 = plan.inner.sums(integrand, True)
    o1, o2 = plan.outer.sums(integrand, False)
    value = core + i1 + o1
    tail = 2.0 * u.sup_u * plan.mass_tail
    return value, core_bound + tail + abs(i1 - i2) + abs(o1 - o2) + 1e-14 * (1 + abs(value))


class TestBlockedRadialQuadrature:
    """Radii are evaluated in blocks of numerics._BLOCK, every direction per block, in a
    column-major buffer; each float is the one the per-direction loop produced."""

    # one zone each, with a node count above one block and not a multiple of it:
    # (evaluator fields, numerics constants)
    ZONES = {
        "inner": (dict(r0=1.0, nodes_per_decade=1100), dict(_OUTER_RADIUS=1.0)),  # 4,401 log nodes
        "outer": (dict(r0=numerics.R_SWITCH), dict(_OUTER_STEP=0.002, _OUTER_RADIUS=10.0)),  # 5,001
    }

    @pytest.mark.parametrize("zone", sorted(ZONES))
    @pytest.mark.parametrize("function", ["cos", "cos2pi", "gaussian"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_matches_the_per_direction_loop_bit_for_bit(self, dim, function, zone, monkeypatch):
        fields, constants = self.ZONES[zone]
        for name, value in dict(constants, _SPHERE_COUNT=16).items():
            monkeypatch.setattr(numerics, name, value)
        mu = parse_measure(f"dimension: {dim}\ncontinuous:\n  - {{kind: fractional, alpha: 1.5}}\n")
        ev = OperatorEvaluator(measure=mu, **fields)
        plan = numerics._RadialPlan(ev, mu.continuous[0])
        active, empty = (plan.inner, plan.outer) if zone == "inner" else (plan.outer, plan.inner)
        assert active.fine.r.size > numerics._BLOCK and active.fine.r.size % numerics._BLOCK
        assert empty.fine.n < 2
        u = builtin_function(function, dim)
        for x in np.random.default_rng(dim).uniform(-2, 2, size=(2, dim)):
            res = eval_operator(ev, u, tuple(x))
            value, bound = _per_direction_radial(ev, plan, u, x)
            assert (res.value.hex(), res.bound.hex()) == (value.hex(), bound.hex())
