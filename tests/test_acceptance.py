"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -v -s tests/test_acceptance.py` to see the per-criterion
lines.  Tolerances are pinned here, not configured.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from liouville import ratlinalg as rl
from liouville.closure import (
    closure_multid,
    decompose_measure,
    er_dot,
    orthogonalize,
    rational_ratio,
    _coset_keys,
    rational_parts,
)
from liouville.decider import decide, decide_1d
from liouville.exactreal import ConstantBasis, ExtendedRational
from liouville.measures import Atom, LevyMeasure, parse_measure, point_is_zero, support_of, validate_measure
from liouville.numerics import (
    OperatorEvaluator, SmoothFunction, builtin_function, density_probe, eval_operator, propagate,
)
from conftest import PI_50, check_periodicity, spec_path

from test_ratlinalg import bfs_span_in_box


def load(name):
    with open(spec_path(name)) as fh:
        return parse_measure(fh.read())


def in_span(p, v_basis):
    """Exact oracle: every constant slice of p is a rational combination of the rational V."""
    if not v_basis:
        return point_is_zero(p)
    mat = [[v[i].coords[0] for v in v_basis] for i in range(len(p))]
    return all(rl.solve(mat, part) is not None for part in rational_parts(p))


def report(number, ok, detail):
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


# -- criterion 1: the 1-d decision table -------------------------------------------


def test_criterion_1_one_dimensional_table():
    cases = [
        ("discrete_laplacian.yaml", False, "lattice"),
        ("nonstandard_laplacian.yaml", True, "irrational_pair"),
        ("reciprocal_sequence.yaml", True, "accumulation"),
        ("growing_sequence.yaml", True, "unbounded_q_sequence"),
        ("fractional.yaml", True, "interval_or_ball"),
        ("relativistic.yaml", True, "interval_or_ball"),
        ("convolution.yaml", True, "interval_or_ball"),
    ]
    worst = 0.0
    for name, holds, route in cases:
        mu = load(name)
        t0 = time.perf_counter()
        v = decide_1d(mu)
        dt = time.perf_counter() - t0
        worst = max(worst, dt)
        assert v.holds is holds, name
        assert v.route == route, (name, v.route)
        assert dt < 1.0, f"{name} took {dt:.3f}s"
    # q_n >= n/2 verified exactly for n <= 1000 on the (n^2+1)/n template
    seq = load("growing_sequence.yaml").sequences[0]
    a1 = seq.scalar(1)
    for n in range(1, 1001):
        qn = (seq.scalar(n) / a1).denominator
        assert 2 * qn >= n, n
    report(1, True, f"7 decision-table cases, slowest {worst * 1e3:.1f} ms; q_n >= n/2 up to 10^3")


# -- criterion 2: brute-force equivalence on random supports -------------------------


def _random_supports(count, seed):
    basis = ConstantBasis(("pi",), (PI_50,))
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        vals = []
        for _ in range(rng.randint(2, 6)):
            q = Fraction(rng.randint(1, 24), rng.randint(1, 12))
            if rng.random() < 0.4:
                vals.append(ExtendedRational(basis, (Fraction(0), q)))
            else:
                vals.append(ExtendedRational(basis, (q, Fraction(0))))
        out.append((basis, vals))
    return out


def _atomic(basis, points, dimension=1):
    atoms = tuple(Atom(p, basis.one()) for p in points)
    return validate_measure(LevyMeasure(dimension=dimension, basis=basis, atoms=atoms))


def _condition_al(points):
    support = list(points) + [-p for p in points]
    return any(
        any(rational_ratio(a, b) is None for b in support) for a in support
    )


@pytest.fixture(scope="module")
def random_1d_verdicts():
    """(values, measure, verdict) for the 500 random supports, and the time taken."""
    t0 = time.perf_counter()
    out = []
    for basis, vals in _random_supports(500, seed=20240809):
        mu = _atomic(basis, [(v,) for v in vals])
        out.append((vals, mu, decide_1d(mu)))
    return out, time.perf_counter() - t0


@pytest.fixture(scope="module")
def failed_verdicts(random_1d_verdicts):
    """(measure, verdict) for every failing case of criteria 2 and 3."""
    out = [(mu, v) for _, mu, v in random_1d_verdicts[0] if v.holds is False]
    for name in ("kronecker_sqrt2_sqrt2.yaml", "kronecker_rational.yaml"):
        mu = load(name)
        out.append((mu, decide(mu)))
    return out


def test_criterion_2_bruteforce_equivalence(random_1d_verdicts):
    verdicts, dt = random_1d_verdicts
    agree = 0
    for vals, mu, v in verdicts:
        expected = _condition_al(vals)
        assert v.holds == expected
        agree += 1
    assert dt < 10.0, f"suite took {dt:.1f}s"
    report(2, agree == 500, f"500/500 agreement with exhaustive Q(a,b) in {dt:.1f}s")


# -- criterion 3: Kronecker suite with probe cross-check ------------------------------


def test_criterion_3_kronecker_suite():
    t0 = time.perf_counter()
    probe_cfg = dict(R=3.0, n_max=12, grid_div=60)

    mu_dense = load("kronecker_sqrt2_sqrt3.yaml")
    v_dense = decide(mu_dense)
    assert v_dense.holds is True and v_dense.route == "kronecker"

    mu_dep = load("kronecker_sqrt2_sqrt2.yaml")
    v_dep = decide(mu_dep)
    assert v_dep.holds is False
    dep = v_dep.closure.witness["dependency"]
    assert dep is not None and any(x != 0 for x in dep)

    mu_rat = load("kronecker_rational.yaml")
    v_rat = decide(mu_rat)
    assert v_rat.holds is False and v_rat.route == "lattice"

    # the probe may be inconclusive but must never contradict a certificate
    for mu, verdict in ((mu_dense, v_dense), (mu_dep, v_dep), (mu_rat, v_rat)):
        pts = list(support_of(mu).finite_points)
        probe = density_probe(pts, **probe_cfg)
        if verdict.holds:
            assert probe.verdict != "lattice-detected", probe
        else:
            assert probe.verdict != "dense-likely", probe
    dt = time.perf_counter() - t0
    assert dt < 5.0, f"suite took {dt:.1f}s"
    report(3, True, f"dense/dependent/rational each certified, probes consistent, {dt:.1f}s")


# -- criterion 4: HNF vs brute-force span ---------------------------------------------


def _lattice_points_in_box_np(basis_vectors, box):
    """Integer points of the lattice inside [-box, box]^d via coefficient enumeration."""
    if not basis_vectors:
        return set()
    B = np.array([[int(c) for c in v] for v in basis_vectors]).T  # d x r
    d, r = B.shape
    pinv = np.linalg.pinv(B.astype(float))
    corners = np.array(list(itertools.product((-box, box), repeat=d)), dtype=float)
    bounds = np.ceil(np.abs(pinv @ corners.T).max(axis=1)).astype(int) + 1
    grids = np.meshgrid(*(np.arange(-b, b + 1) for b in bounds), indexing="ij")
    M = np.stack([g.ravel() for g in grids], axis=1)
    pts = M @ B.T
    keep = np.all(np.abs(pts) <= box, axis=1)
    return set(map(tuple, pts[keep]))


def test_criterion_4_hnf_against_bruteforce_span():
    t0 = time.perf_counter()
    rng = random.Random(41)
    trials = 0
    for trial in range(200):
        d = 2 if trial < 140 else 3
        k = rng.randint(2, 4)
        gens = []
        while len(gens) < k:
            g = tuple(rng.randint(-5, 5) for _ in range(d))
            if any(g):
                gens.append(g)
        basis = rl.hnf_lattice([list(g) for g in gens])
        got = _lattice_points_in_box_np(basis, 20)
        want = bfs_span_in_box(gens, 20, 5 * d)
        assert got == want, (gens, basis)
        trials += 1
    dt = time.perf_counter() - t0
    assert dt < 30.0, f"suite took {dt:.1f}s"
    report(4, trials == 200, f"200/200 generator sets match the BFS span oracle in {dt:.1f}s")


# -- criterion 5: decomposition soundness ----------------------------------------------


def test_criterion_5_decomposition_soundness(failed_verdicts):
    assert failed_verdicts
    checked = 0
    for mu, verdict in failed_verdicts:
        group = verdict.closure
        dec = decompose_measure(mu, group)
        g = dec.group
        # orthogonality of the decomposition frame, exactly
        for v in g.v_basis:
            for lam in g.lambda_basis:
                assert er_dot(v, lam).is_zero()
        # supp(mu_a) in V + a, exactly
        for key, pt, part in zip(dec.coset_keys, dec.coset_points, dec.parts):
            for p, w in part:
                diff = tuple(a - b for a, b in zip(p, pt))
                assert in_span(diff, g.v_basis)
        # pairing mu_a(.) = mu_{-a}(-.)
        index = {k: i for i, k in enumerate(dec.coset_keys)}
        for k, part in zip(dec.coset_keys, dec.parts):
            mirror = {
                tuple(-c for c in p): w
                for p, w in dec.parts[index[tuple(-x for x in k)]]
            }
            for p, w in part:
                assert p in mirror and (mirror[p] - w).is_zero()
        # finite off-origin mass and atom-by-atom reconstitution
        assert dec.mass_off_origin_bound < math.inf
        listed = [pair for part in dec.parts for pair in part]
        assert len(listed) == len(mu.atoms)
        for atom in mu.atoms:
            match = [w for p, w in listed if p == atom.point]
            assert len(match) == 1 and (match[0] - atom.weight).is_zero()
        # orthogonalization preserved the generated group (integer coords both ways)
        if verdict.closure.lambda_basis:
            for original in verdict.closure.lambda_basis:
                assert _coset_keys([original], g)[0] is not None
        checked += 1
    report(5, True, f"{checked} failed verdicts decomposed and verified exactly")


# -- criterion 6: counterexample verification --------------------------------------------


def test_criterion_6_counterexample_annihilation(failed_verdicts):
    assert failed_verdicts
    rng = random.Random(99)
    checked = 0
    # exact atomic annihilation at 100 seeded rational points per verdict
    sample = failed_verdicts[:: max(1, len(failed_verdicts) // 40)]
    for mu, verdict in sample:
        u = verdict.counterexample.as_function()
        ev = OperatorEvaluator(measure=mu)
        basis = mu.basis
        for _ in range(100):
            x = tuple(
                basis.from_rational(Fraction(rng.randint(-4000, 4000), rng.randint(1, 50)))
                for _ in range(mu.dimension)
            )
            res = eval_operator(ev, u, x)
            assert res.value == 0.0, (res.value, verdict.route)
        checked += 1
    # affine-supported case under quadrature
    mu = load("planar_fractional.yaml")
    v = decide(mu)
    assert v.holds is False
    ev = OperatorEvaluator(measure=mu)
    rng2 = np.random.default_rng(7)
    worst = 0.0
    u = v.counterexample.as_function()
    for p in rng2.uniform(-3, 3, size=(10, 2)):
        res = eval_operator(ev, u, tuple(p))
        worst = max(worst, abs(res.value))
    assert worst < 1e-8, worst
    report(
        6,
        True,
        f"{checked} atomic verdicts x100 points exactly 0; planar case max {worst:.1e} < 1e-8",
    )


# -- criterion 7: operator numerics -------------------------------------------------------


def test_criterion_7_operator_numerics():
    t0 = time.perf_counter()
    mu = load("fractional.yaml")
    u = builtin_function("cos", 1)
    for x in (0.0, 0.7, 2.1):
        res = eval_operator(OperatorEvaluator(measure=mu), u, (x,))
        assert abs(res.value - (-math.cos(x))) < 1e-4

    muh = load("mean_value.yaml")
    uh = builtin_function("harmonic_xy", 2)
    for x in ((0.0, 0.0), (0.3, -1.2)):
        res = eval_operator(OperatorEvaluator(measure=muh), uh, x)
        assert abs(res.value) < 1e-10

    results = {
        r0: eval_operator(OperatorEvaluator(measure=mu, r0=r0), u, (0.7,))
        for r0 in (0.5, 1.0, 2.0)
    }
    vals = [r.value for r in results.values()]
    spread = max(vals) - min(vals)
    assert spread <= 2 * max(r.bound for r in results.values())
    dt = time.perf_counter() - t0
    assert dt < 10.0, f"suite took {dt:.1f}s"
    report(7, True, f"multiplier identity, mean-value annihilation, r0 spread {spread:.1e}; {dt:.1f}s")


# -- criterion 8: propagation diagnostics ---------------------------------------------------


def test_criterion_8_propagation():
    basis = ConstantBasis()
    one = basis.one()
    state = propagate([(one,)], R=5.0, n_max=12)
    assert state.deltas[4:] == pytest.approx([0.5] * 8)
    probe = density_probe([(one,)], R=5.0, n_max=12)
    assert probe.verdict == "lattice-detected"
    assert abs(probe.g_estimate - 1.0) <= 1e-9

    b2 = ConstantBasis(("sqrt2",), ("1.41421356237309504880168872420969807856967187537695",))
    pts = [(b2.one(),), (b2.constant("sqrt2"),)]
    state2 = propagate(pts, R=5.0, n_max=40, target_delta=0.05)
    assert state2.n <= 40 and state2.deltas[-1] < 0.05

    for s in (state, state2):
        assert all(b <= a + 1e-15 for a, b in zip(s.deltas, s.deltas[1:]))
    report(
        8,
        True,
        f"unit lattice delta 1/2 with g=1.0; sqrt2 support reached delta<0.05 at n={state2.n}",
    )


# -- criterion 9: periodicity coherence -------------------------------------------------------


def test_criterion_9_periodicity_coherence():
    worst = 0.0
    for name in ("discrete_laplacian.yaml", "kronecker_sqrt2_sqrt2.yaml"):
        mu = load(name)
        v = decide(mu)
        assert v.holds is False
        gens = [tuple(float(c) for c in a.point) for a in mu.atoms]
        rng = np.random.default_rng(13)
        samples = rng.uniform(-4, 4, size=(1000, mu.dimension))
        ok, dev = check_periodicity(v.counterexample.value, gens, samples, 1e-12)
        assert ok, (name, dev)
        worst = max(worst, dev)

    # perturbed control: fails periodicity and is not annihilated
    mu = load("discrete_laplacian.yaml")

    def control(x):
        t = x[..., 0]
        return np.cos(2 * np.pi * t) + np.exp(-(t**2))

    ctrl = SmoothFunction("control", fn=control, sup_u=2.0)
    ok, dev = check_periodicity(
        ctrl.value, [(1.0,)], [(x,) for x in np.linspace(-2, 2, 41)], 1e-12
    )
    res = eval_operator(OperatorEvaluator(measure=mu), ctrl, (0.0,))
    assert not ok and dev > 1e-3
    assert abs(res.value) > 1e-3
    report(9, True, f"cosine deviations <= {worst:.1e} < 1e-12; control fails both checks")


# -- criterion 10: determinism -----------------------------------------------------------------


def test_criterion_10_determinism(capsys):
    from liouville.cli import main

    def run_once(name):
        code = main(["decide", spec_path(name), "--no-timestamp"])
        return code, capsys.readouterr().out

    for name in (
        "discrete_laplacian.yaml",
        "nonstandard_laplacian.yaml",
        "kronecker_sqrt2_sqrt2.yaml",
    ):
        c1, out1 = run_once(name)
        c2, out2 = run_once(name)
        assert c1 == c2
        assert out1 == out2, f"report for {name} not byte-identical"
    report(10, True, "repeated cmd_decide runs byte-identical (timestamp excluded)")
