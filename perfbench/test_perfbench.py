"""Tests of the benchmark's own parts; none of them calls `liouville`.

Run from the repository root:  python3 -m pytest -q perfbench
"""

import random
from fractions import Fraction

import mpmath
import pytest

import plant as pl
import reference
import workloads
from run import parse_importtime, tail

SEEDS = (1, 2, 3)


def _exact_cases(seed):
    rng = random.Random(seed)
    for make, d, count in workloads.EXACT_FAMILIES:
        for i in range(count):
            yield make(rng, f"c{i}", d, rng.choice(("small", "large")), pl.CONSTANT_SETS[rng.randint(0, 2)])


def _probe_cases(seed):
    rng = random.Random(seed)
    for make, answer, count in workloads.PROBE_FAMILIES:
        for i in range(count):
            yield make(rng, f"p{i}", answer)


def test_field_arithmetic():
    s2, s3 = pl.Num.of(0, sqrt2=1), pl.Num.of(0, sqrt3=1)
    assert s2 * s2 == pl.Num.of(2)
    assert s2 * s3 == pl.Num.of(0, sqrt6=1)
    assert (s2 * s3) * s2 == pl.Num.of(0, sqrt3=2)
    assert (pl.Num.of(1, sqrt2=1) * pl.Num.of(1, sqrt2=-1)) == pl.Num.of(-1)
    assert pl.q_independent_with_one([s2, s3])
    assert not pl.q_independent_with_one([s2, s2 + pl.Num.of(Fraction(1, 3))])


@pytest.mark.parametrize("seed", SEEDS)
def test_every_plant_is_proved(seed):
    cases = list(_exact_cases(seed)) + list(_probe_cases(seed)) + [workloads.stress_decompose_case()]
    for case in cases:
        pl.check_plant(case)
    answers = [c.plant for c in cases]
    assert 0.35 < answers.count("holds") / len(answers) < 0.65


def test_check_plant_rejects_wrong_witnesses():
    rng = random.Random(7)
    fails = pl.lattice_fails(rng, "f", 2, "small", ())
    fails.atoms.append((pl.Num.of(Fraction(1, 7) / fails.xi[0] if fails.xi[0] else 0),
                        pl.Num.of(Fraction(1, 7) / fails.xi[1] if not fails.xi[0] else 0)))
    with pytest.raises(AssertionError):
        pl.check_plant(fails)
    holds = pl.kronecker_holds(rng, "h", 2, "small", pl.CONSTANT_SETS[2])
    frame, q = holds.frames[0]
    # a frame point that is a rational combination of the frame is no witness
    holds.frames = [(frame, tuple(pl._num(a) + pl._num(b) for a, b in zip(*frame)))]
    with pytest.raises(AssertionError):
        pl.check_plant(holds)


def test_products_plant_needs_an_irrational_xi():
    case = pl.probe_products(random.Random(3), "p")
    assert not case.xi[1].is_rational()
    pl.check_plant(case)


@pytest.mark.parametrize("seed", SEEDS)
def test_probe_inputs_fall_outside_the_exact_cases(seed):
    for case in _probe_cases(seed):
        pts = pl._unique_pm(case.atoms)
        rational = sum(all(c.is_rational() for c in p) for p in pts)
        irrational = len(pts) - rational
        assert not (rational == 2 and irrational == 1), case.spec()
        assert irrational >= 1


@pytest.mark.parametrize("corpus", [workloads.exact_cases, workloads.probe_cases])
def test_seeds_draw_images_of_the_same_inputs(corpus):
    a, b = corpus(5), corpus(6)
    assert [c.spec() for c in a] == [c.spec() for c in corpus(5)]
    assert [c.spec() for c in a] != [c.spec() for c in b]

    def shapes(cases):  # per input: atom norms, sequence direction norms, xi norm
        def norm(v):
            return round(float(sum(pl._num(x).mpf() ** 2 for x in v)), 9)
        return sorted((c.name, sorted(norm(p) for p in c.atoms), sorted(norm(s.direction) for s in c.sequences),
                       norm(c.xi) if c.xi is not None else None) for c in cases)

    assert shapes(a) == shapes(b)


def test_same_seed_same_inputs():
    a = [c.spec() for c in _exact_cases(5)]
    b = [c.spec() for c in _exact_cases(5)]
    c = [c.spec() for c in _exact_cases(6)]
    assert a == b
    assert a != c


def test_sequence_atoms_never_coincide_with_sequence_points():
    rng = random.Random(11)
    for _ in range(40):
        case = pl.sequence_fails(rng, "s", rng.choice((1, 2)), "small", ())
        seq = case.sequences[0]
        pts = {tuple(pl._num(seq.scalar(n) * c) for c in seq.direction) for n in range(1, seq.truncation + 1)}
        pts |= {tuple(-c for c in p) for p in pts}
        assert not any(tuple(p) in pts for p in case.atoms)


def _spec(d, part):
    return reference.Spec(pl.render_spec(pl.Case("r", "x", d, "", continuous=[part])))


def _quad_multiplier(density, d):
    """psi(e_1) = integral of (1 - cos z_1) density(|z|) dz, numerically, d = 1 or 2."""
    with mpmath.workdps(20):
        if d == 1:
            return 2 * mpmath.quad(lambda r: (1 - mpmath.cos(r)) * density(r), [0, 1, 10, mpmath.inf])
        return mpmath.quad(
            lambda r: r * density(r) * 2 * mpmath.pi * (1 - mpmath.besselj(0, r)), [0, 1, 10, mpmath.inf])


@pytest.mark.parametrize("part,d,density", [
    ({"kind": "relativistic", "alpha": 1.0, "m": 1.0}, 1,
     lambda r: mpmath.besselk(1, r) / r),
    ({"kind": "relativistic", "alpha": 1.5, "m": 0.5}, 2,
     lambda r: mpmath.besselk(1.75, 0.5 * r) / r**1.75),
    ({"kind": "convolution", "profile": "gaussian", "scale": 0.5}, 2,
     lambda r: mpmath.exp(-(r / 0.5) ** 2) / (0.25 * mpmath.pi)),
    ({"kind": "convolution", "profile": "exponential", "scale": 2.0}, 1,
     lambda r: mpmath.exp(-r / 2.0) / 4.0),
])
def test_closed_form_multipliers_match_quadrature(part, d, density):
    x = (0.3, -0.7)[:d]
    got = reference.reference(_spec(d, part), "cos", x)
    want = -_quad_multiplier(density, d) * mpmath.cos(x[0])
    # the quadrature of the singular kernels is good to about 1e-7
    assert abs(got - want) < 1e-6 * (1 + abs(want))


def test_atom_and_sequence_sums():
    text = 'dimension: 1\natoms:\n  - {point: ["1"], weight: "1"}\n'
    assert reference.reference(reference.Spec(text), "cos", (0.0,)) == pytest.approx(2 * (mpmath.cos(1) - 1))
    seq = pl.Sequence("poly_ratio", (Fraction(1),), 3, numerator=(1,), denominator=(0, 1),
                      weights={"kind": "constant", "c": "1"}, accumulation=Fraction(0))
    spec = reference.Spec(pl.render_spec(pl.Case("s", "x", 1, "", sequences=[seq])))
    want = sum(2 * (mpmath.cos(mpmath.mpf(1) / n) - 1) for n in (1, 2, 3))
    assert reference.reference(spec, "cos", (0.0,)) == pytest.approx(want)


def test_coordinates_with_declared_constants():
    text = ('dimension: 1\nconstants:\n  - {name: pi, value: "3.14159265358979323846264338327950288419716939937511"}\n'
            'atoms:\n  - {point: ["3/2 - 1/2*pi"], weight: "1"}\n')
    (p, w), = reference.Spec(text).atoms
    with mpmath.workdps(50):
        assert abs(p[0] - (mpmath.mpf(3) / 2 - mpmath.pi / 2)) < mpmath.mpf(10) ** -45


def test_mean_value_of_a_harmonic_function_is_zero():
    spec = _spec(2, {"kind": "surface_sphere", "radius": 2.0})
    assert reference.reference(spec, "harmonic_xy", (0.5, 1.5)) == 0


def test_tail_rule():
    assert tail(list(range(100))) == (90, 89)
    assert tail(list(range(20))) == (50, 9)
    assert tail(list(range(5))) == (100, 4)


def test_importtime_parsing_takes_outermost_package_entries():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy.core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |         10 |     scipy._lib",
        "import time:        20 |         30 |   scipy",
        "import time:         5 |          5 |   scipy.special",
        "import time:         7 |        192 | liouville",
        "import time:         3 |          3 | liouville.cli",
    ])
    got = parse_importtime(text)
    assert got == {"liouville": 0.195, "numpy": 0.15, "scipy": 0.035, "mpmath": 0.0}
