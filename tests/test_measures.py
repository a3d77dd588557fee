import collections
import dataclasses
import glob
import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
import yaml

from liouville import measures
from liouville.decider import decide
from liouville.measures import (
    FractionalPart,
    GeometricSequence,
    MeasureSpecError,
    PolyRatioSequence,
    SphereSurfacePart,
    WeightRule,
    parse_measure,
    support_of,
)
from conftest import (
    PI_50,
    SPEC_DIR,
    _poly_ext_gcd,
    _poly_mul,
    reference_poly_eval,
    reference_poly_ratio,
    spec_path,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
PROBE_INPUT = os.path.join(os.path.dirname(__file__), "golden", "probe_products.yaml")


def load(name):
    with open(spec_path(name)) as fh:
        return parse_measure(fh.read())


class TestParsing:
    def test_discrete_laplacian(self):
        mu = load("discrete_laplacian.yaml")
        assert mu.dimension == 1
        assert len(mu.atoms) == 2
        pts = {float(a.point[0]) for a in mu.atoms}
        assert pts == {1.0, -1.0}

    def test_nonstandard_laplacian_four_atoms(self):
        mu = load("nonstandard_laplacian.yaml")
        assert len(mu.atoms) == 4
        assert mu.basis.names == ("pi", "invpi2")
        vals = sorted(float(a.point[0]) for a in mu.atoms)
        assert vals == pytest.approx([-math.pi, -1.0, 1.0, math.pi])
        # the pi-node weight is 1/(2 pi^2)
        wpi = next(a.weight for a in mu.atoms if float(a.point[0]) == pytest.approx(math.pi))
        assert float(wpi) == pytest.approx(1 / (2 * math.pi**2))

    def test_zero_atom_rejected(self):
        with pytest.raises(MeasureSpecError, match="zero atom"):
            parse_measure('dimension: 1\natoms:\n  - {point: ["0"], weight: "1"}\n')

    def test_unknown_constant_rejected(self):
        with pytest.raises(MeasureSpecError):
            parse_measure('dimension: 1\natoms:\n  - {point: ["1*tau"], weight: "1"}\n')

    def test_float_literal_rejected(self):
        with pytest.raises(MeasureSpecError, match="floating"):
            parse_measure('dimension: 1\natoms:\n  - {point: [1.5], weight: "1"}\n')

    def test_short_approximation_rejected(self):
        with pytest.raises(MeasureSpecError, match="50 digits"):
            parse_measure(
                'dimension: 1\nconstants:\n  - {name: pi, value: "3.14159"}\n'
                'atoms:\n  - {point: ["1*pi"], weight: "1"}\n'
            )

    def test_exponent_digits_do_not_count_toward_50(self):
        # 49 mantissa digits and 3 exponent digits: the count is the one ConstantBasis.dps uses
        value = "1.414213562373095048801688724209698078569671875123e-100"
        with pytest.raises(MeasureSpecError, match="50 digits"):
            parse_measure(
                f'dimension: 1\nconstants:\n  - {{name: a, value: "{value}"}}\n'
                'atoms:\n  - {point: ["1"], weight: "1"}\n  - {point: ["1*a"], weight: "1"}\n'
            )

    def test_strict_symmetry_rejects_missing_mirror(self):
        text = (
            "dimension: 1\nsymmetry_mode: strict\n"
            'atoms:\n  - {point: ["1"], weight: "1"}\n'
        )
        with pytest.raises(MeasureSpecError, match="mirror"):
            parse_measure(text)

    def test_complete_mode_inserts_mirror(self):
        mu = parse_measure('dimension: 1\natoms:\n  - {point: ["1"], weight: "1"}\n')
        assert len(mu.atoms) == 2

    def test_conflicting_mirror_weights_rejected(self):
        text = (
            "dimension: 1\natoms:\n"
            '  - {point: ["1"], weight: "1"}\n'
            '  - {point: ["-1"], weight: "2"}\n'
        )
        with pytest.raises(MeasureSpecError, match="asymmetric"):
            parse_measure(text)

    def test_duplicated_atoms_merge(self):
        text = (
            "dimension: 1\natoms:\n"
            '  - {point: ["1"], weight: "1"}\n'
            '  - {point: ["1"], weight: "2"}\n'
        )
        mu = parse_measure(text)
        assert len(mu.atoms) == 2
        assert all(a.weight == mu.basis.from_rational(3) for a in mu.atoms)

    def test_divergent_sequence_rejected(self):
        # growing points with constant weights: Levy integral diverges
        text = (
            "dimension: 1\nsequences:\n"
            "  - template: poly_ratio\n"
            '    numerator: ["0", "1"]\n'
            '    denominator: ["1"]\n'
            "    weights: {kind: constant, c: \"1\"}\n"
            "    truncation: 10\n"
        )
        with pytest.raises(MeasureSpecError, match="divergent"):
            parse_measure(text)

    def test_accumulation_must_be_declared(self):
        text = (
            "dimension: 1\nsequences:\n"
            "  - template: poly_ratio\n"
            '    numerator: ["1"]\n'
            '    denominator: ["0", "1"]\n'
            "    weights: {kind: constant, c: \"1\"}\n"
            "    truncation: 10\n"
        )
        with pytest.raises(MeasureSpecError, match="accumulation"):
            parse_measure(text)

    def test_malformed_document(self):
        with pytest.raises(MeasureSpecError):
            parse_measure("dimension: [unclosed")

    @pytest.mark.parametrize("loader", ["SafeLoader", "CSafeLoader"])
    def test_malformed_document_message(self, loader, monkeypatch):
        if not hasattr(yaml, loader):
            pytest.skip("PyYAML built without libyaml")
        monkeypatch.setattr(measures, "_SPEC_LOADER", getattr(yaml, loader))
        with pytest.raises(MeasureSpecError, match="^malformed document: "):
            parse_measure("dimension: [unclosed")

    def test_sphere_needs_two_dims(self):
        with pytest.raises(MeasureSpecError):
            parse_measure("dimension: 1\ncontinuous:\n  - {kind: surface_sphere}\n")


def _sequence_spec(**fields):
    """A valid 2-D poly_ratio sequence spec with the given fields replaced."""
    entry = {
        "template": "poly_ratio", "numerator": ["1"], "denominator": ["0", "1"],
        "weights": {"kind": "power", "c": "1", "s": 2}, "truncation": 5, "direction": ["1", "0"],
    }
    return yaml.safe_dump({"dimension": 2, "sequences": [{**entry, **fields}]})


def _part_spec(dimension, **part):
    return yaml.safe_dump({"dimension": dimension, "continuous": [part]})


# Each fault is reported once, prefixed by the entry that holds it; the inner
# message names only the field.
ERROR_LOCATIONS = {
    "fractional alpha": (
        _part_spec(1, kind="fractional", alpha="abc"), "continuous[0]: bad number for alpha: 'abc'"),
    "relativistic mass": (
        _part_spec(1, kind="relativistic", m=[1]), "continuous[0]: bad number for m: [1]"),
    "affine alpha": (
        _part_spec(2, kind="affine_supported", basis=[["1", "0"]], profile={"alpha": "x"}),
        "continuous[0]: bad number for profile.alpha: 'x'"),
    "affine basis": (
        _part_spec(2, kind="affine_supported", basis=[["1"]]),
        "continuous[0]: basis must be an array of 2 coordinates"),
    "weight coefficient": (
        _sequence_spec(weights={"kind": "power", "c": "-1", "s": 2}),
        "sequences[0]: weight coefficient must be positive"),
    "weight exponent": (
        _sequence_spec(weights={"kind": "power", "c": "1", "s": "x"}),
        "sequences[0]: bad number for weights.s: 'x'"),
    "fractional weight exponent": (
        _sequence_spec(weights={"kind": "power", "c": "1", "s": 2.5}),
        "sequences[0]: bad number for weights.s: 2.5"),
    "float weight exponent": (
        _sequence_spec(weights={"kind": "power", "c": "1", "s": 2.0}),
        "sequences[0]: bad number for weights.s: 2.0"),
    "boolean alpha": (
        _part_spec(1, kind="fractional", alpha=True), "continuous[0]: bad number for alpha: True"),
    "weight ratio": (
        _sequence_spec(weights={"kind": "geometric", "r": "x"}),
        "sequences[0]: bad rational for weights.r: 'x'"),
    "numerator": (_sequence_spec(numerator=["x"]), "sequences[0]: bad rational for numerator: 'x'"),
    "truncation": (_sequence_spec(truncation=0), "sequences[0]: truncation must be a positive integer"),
    "direction": (
        _sequence_spec(direction=["1"]), "sequences[0]: direction must be an array of 2 coordinates"),
}


@pytest.mark.parametrize("spec, message", ERROR_LOCATIONS.values(), ids=ERROR_LOCATIONS)
def test_spec_errors_name_their_entry_once(spec, message):
    with pytest.raises(MeasureSpecError) as exc:
        parse_measure(spec)
    assert str(exc.value) == message


_POLY = {
    "template": "poly_ratio", "numerator": ["1"], "denominator": ["0", "1"],
    "weights": {"kind": "power", "c": "1", "s": 2}, "truncation": 5, "accumulation": "0",
}
_GEOMETRIC = {
    "template": "geometric", "coefficient": "1", "ratio": "1/3",
    "weights": {"kind": "geometric", "c": "1", "r": "1/2"}, "truncation": 5, "accumulation": "0",
}
_AFFINE = {"kind": "affine_supported", "basis": [["1", "1"]], "profile": {"kind": "gaussian", "scale": 2.0}}

# (section, dimension, a valid entry, the key path to misspell, the misspelling)
MISSPELLED = {
    "poly_ratio": ("sequences", 1, _POLY, ("denominator",), "denominatr"),
    "geometric": ("sequences", 1, _GEOMETRIC, ("ratio",), "ratoi"),
    "weights": ("sequences", 1, _GEOMETRIC, ("weights", "r"), "ratio"),
    "fractional": ("continuous", 1, {"kind": "fractional", "alpha": 1.5}, ("alpha",), "alpah"),
    "relativistic": ("continuous", 1, {"kind": "relativistic", "m": 2.0}, ("m",), "mass"),
    "convolution": ("continuous", 1, {"kind": "convolution", "scale": 2.0}, ("scale",), "sacle"),
    "surface_sphere": ("continuous", 2, {"kind": "surface_sphere", "radius": 2.0}, ("radius",), "raduis"),
    "affine_supported": ("continuous", 2, _AFFINE, ("basis",), "bases"),
    "affine profile": ("continuous", 2, _AFFINE, ("profile", "scale"), "scael"),
}


def _renamed(entry, path, new):
    """entry with the key at `path` renamed to `new`, the value kept."""
    head, *rest = path
    if rest:
        return {**entry, head: _renamed(entry[head], rest, new)}
    return {(new if k == head else k): v for k, v in entry.items()}


@pytest.mark.parametrize("section, dimension, entry, path, typo", MISSPELLED.values(), ids=MISSPELLED)
def test_misspelled_entry_key_is_an_error(section, dimension, entry, path, typo):
    parse_measure(yaml.safe_dump({"dimension": dimension, section: [entry]}))
    bad = yaml.safe_dump({"dimension": dimension, section: [_renamed(entry, path, typo)]})
    with pytest.raises(MeasureSpecError) as exc:
        parse_measure(bad)
    field = ".".join([*path[:-1], typo])
    assert str(exc.value) == f"{section}[0]: unknown field {field!r}"


def test_unknown_atom_key_is_an_error():
    spec = {"dimension": 1, "atoms": [{"point": ["1"], "weight": "1", "wieght": "2"}]}
    with pytest.raises(MeasureSpecError, match=r"^unknown field 'atoms\[0\]\.wieght'$"):
        parse_measure(yaml.safe_dump(spec))


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
@pytest.mark.parametrize("path", sorted(glob.glob(os.path.join(SPEC_DIR, "*.yaml"))) + [PROBE_INPUT])
def test_libyaml_and_python_loaders_give_equal_documents(path):
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    assert yaml.load(text, Loader=yaml.CSafeLoader) == yaml.load(text, Loader=yaml.SafeLoader)


class TestSupport:
    def test_fractional_contains_ball(self):
        desc = support_of(load("fractional.yaml"))
        assert desc.fills_ball
        assert desc.directions == ()

    def test_reciprocal_accumulates_at_zero(self):
        mu = load("reciprocal_sequence.yaml")
        desc = support_of(mu)
        assert desc.accumulation_points
        assert any(all(c.is_zero() for c in p) for p in desc.accumulation_points)
        assert desc.directions == (mu.sequences[0].direction,)
        assert not desc.fills_ball
        assert len(desc.finite_points) == 200

    def test_duplicates_removed(self):
        text = (
            "dimension: 1\natoms:\n"
            '  - {point: ["1"], weight: "1"}\n'
            '  - {point: ["-1"], weight: "1"}\n'
        )
        desc = support_of(parse_measure(text))
        assert len(desc.finite_points) == 2

    def test_support_invariant_under_mirror_listing(self):
        implicit = support_of(parse_measure('dimension: 1\natoms:\n  - {point: ["1"], weight: "1"}\n'))
        explicit = support_of(
            parse_measure(
                'dimension: 1\natoms:\n  - {point: ["1"], weight: "1"}\n'
                '  - {point: ["-1"], weight: "1"}\n'
            )
        )
        assert set(implicit.finite_points) == set(explicit.finite_points)


# every continuous kind and profile, each field away from its default:
# (spec, dimension, kind, expected part fields, fills a ball)
AFFINE_BASIS = '["1", "1"]'
CONTINUOUS_CASES = [
    pytest.param(
        "{kind: fractional, alpha: 0.3}", 1, "fractional", {"alpha": 0.3}, True, id="fractional",
    ),
    pytest.param(
        "{kind: relativistic, alpha: 1.5, m: 2.0, coefficient: 0.5}", 1, "relativistic",
        {"alpha": 1.5, "m": 2.0, "coefficient": 0.5}, True, id="relativistic",
    ),
    pytest.param(
        "{kind: convolution, profile: gaussian, scale: 0.5}", 1, "convolution",
        {"profile": "gaussian", "scale": 0.5}, True, id="convolution-gaussian",
    ),
    pytest.param(
        "{kind: convolution, profile: exponential, scale: 2.0}", 1, "convolution",
        {"profile": "exponential", "scale": 2.0}, True, id="convolution-exponential",
    ),
    pytest.param(
        "{kind: convolution, profile: ball_indicator, scale: 0.25}", 2, "convolution",
        {"profile": "ball_indicator", "scale": 0.25}, True, id="convolution-ball_indicator",
    ),
    pytest.param(
        "{kind: surface_sphere, radius: 2.5}", 2, "surface_sphere", {"radius": 2.5}, True,
        id="surface_sphere",
    ),
    pytest.param(
        f"{{kind: affine_supported, basis: [{AFFINE_BASIS}], profile: {{kind: fractional, alpha: 0.7}}}}",
        2, "affine_supported", {"profile_kind": "fractional", "alpha": 0.7, "scale": 1.0}, False,
        id="affine-fractional",
    ),
    pytest.param(
        f"{{kind: affine_supported, basis: [{AFFINE_BASIS}], profile: {{kind: gaussian, scale: 0.4}}}}",
        2, "affine_supported", {"profile_kind": "gaussian", "alpha": 1.0, "scale": 0.4}, False,
        id="affine-gaussian",
    ),
]


def parse_part(spec, dimension):
    return parse_measure(f"dimension: {dimension}\ncontinuous:\n  - {spec}\n")


class TestContinuousKinds:
    @pytest.mark.parametrize("spec, dimension, kind, expected, fills_ball", CONTINUOUS_CASES)
    def test_generic_parser(self, spec, dimension, kind, expected, fills_ball):
        mu = parse_part(spec, dimension)
        (part,) = mu.continuous
        assert part.kind == kind
        assert {k: getattr(part, k) for k in expected} == expected
        desc = support_of(mu)
        assert desc.fills_ball is fills_ball
        verdict = decide(mu)
        if fills_ball:
            assert desc.directions == ()
            assert (verdict.holds, verdict.route) == (True, "interval_or_ball")
        else:
            assert [[float(c) for c in v] for v in desc.directions] == [[1.0, 1.0]]
            # the line R(1,1) alone: bounded solutions cos 2 pi <n, x> with n orthogonal to it
            assert (verdict.holds, verdict.route) == (False, "hyperplane")
        assert verdict.certified

    def test_parse_validates_each_part_and_sequence_once(self, monkeypatch):
        calls = []
        for cls in (PolyRatioSequence, FractionalPart, SphereSurfacePart):
            check = cls.validate
            monkeypatch.setattr(
                cls, "validate", lambda self, *a, check=check: calls.append(type(self)) or check(self, *a)
            )
        parse_measure(
            "dimension: 2\nsequences:\n  - template: poly_ratio\n"
            '    numerator: ["1"]\n    denominator: ["0", "1"]\n'
            '    weights: {kind: power, c: "1", s: 2}\n    truncation: 5\n'
            '    direction: ["1", "0"]\n    accumulation: "0"\n'
            "continuous:\n  - {kind: fractional}\n  - {kind: surface_sphere}\n"
        )
        assert calls == [PolyRatioSequence, FractionalPart, SphereSurfacePart]

    @pytest.mark.parametrize(
        "spec, dimension, expected",
        [
            ("{kind: fractional}", 1, {"alpha": 1.0}),
            ("{kind: relativistic}", 1, {"alpha": 1.0, "m": 1.0, "coefficient": 1.0}),
            ("{kind: convolution}", 1, {"profile": "gaussian", "scale": 1.0}),
            ("{kind: surface_sphere}", 2, {"radius": 1.0}),
            (
                f"{{kind: affine_supported, basis: [{AFFINE_BASIS}]}}", 2,
                {"profile_kind": "fractional", "alpha": 1.0, "scale": 1.0},
            ),
            (
                f"{{kind: affine_supported, basis: [{AFFINE_BASIS}], profile: {{kind: gaussian}}}}", 2,
                {"profile_kind": "gaussian", "alpha": 1.0, "scale": 1.0},
            ),
        ],
    )
    def test_omitted_fields_take_the_documented_defaults(self, spec, dimension, expected):
        (part,) = parse_part(spec, dimension).continuous
        assert {k: getattr(part, k) for k in expected} == expected


class TestSequenceTemplates:
    def test_partial_sums_monotone_and_bounded(self):
        mu = load("reciprocal_sequence.yaml")
        seq = mu.sequences[0]
        # the first term plus the tail bound past it
        bound = float(min(seq.scalar(1) ** 2, Fraction(1)) * seq.weight(1)) + seq.levy_tail_bound(1)
        partial = Fraction(0)
        last = -1.0
        for n in range(1, 101):
            a = seq.scalar(n)
            partial += min(a * a, Fraction(1)) * seq.weight(n)
            assert float(partial) >= last
            last = float(partial)
            assert float(partial) <= bound

    def test_growth_template_bound(self):
        mu = load("growing_sequence.yaml")
        seq = mu.sequences[0]
        bound = float(min(seq.scalar(1) ** 2, Fraction(1)) * seq.weight(1)) + seq.levy_tail_bound(1)
        partial = sum(
            float(min(seq.scalar(n) ** 2, Fraction(1)) * seq.weight(n)) for n in range(1, 1001)
        )
        assert partial <= bound

    def test_integer_horner_matches_the_fraction_oracle(self):
        seq = PolyRatioSequence(
            num=(Fraction(-7, 3), Fraction(0), Fraction(5, 2)), den=(Fraction(10**31, 7), Fraction(1, 6)),
            weights=WeightRule("geometric", Fraction(1), r=Fraction(1, 2)), truncation=5,
            direction=(measures.ConstantBasis().one(),), declared_accumulation=None,
        )
        for n in range(1, 60):
            want = reference_poly_eval(seq.num, n) / reference_poly_eval(seq.den, n)
            assert seq.scalar(n) == want
            assert measures._poly_eval([Fraction(c) for c in seq.num], n) == reference_poly_eval(seq.num, n)

    def test_q_certification_unbounded(self):
        mu = load("growing_sequence.yaml")
        kind, info = mu.sequences[0].q_certification()
        assert kind == "unbounded"
        assert info["cofactor_bound"] >= 1

    def test_q_certification_lattice(self):
        # a_n = n: all points integers, generator 1 (relative to a_1 = 1)
        seq = PolyRatioSequence(
            num=(Fraction(0), Fraction(1)),
            den=(Fraction(1),),
            weights=WeightRule("power", Fraction(1), s=2),
            truncation=10,
            direction=_unit_direction(),
        )
        kind, g = seq.q_certification()
        assert kind == "lattice"
        assert g == 1

    def test_q_certification_lattice_gcd(self):
        # a_n = 2n^2 + 2: even values with gcd 4 relative to a_1 = 4
        seq = PolyRatioSequence(
            num=(Fraction(2), Fraction(0), Fraction(2)),
            den=(Fraction(1),),
            weights=WeightRule("geometric", Fraction(1), r=Fraction(1, 2)),
            truncation=10,
            direction=_unit_direction(),
        )
        kind, g = seq.q_certification()
        assert kind == "lattice"
        # brute-force gcd of the actual point values
        from math import gcd

        vals = [int(seq.scalar(n)) for n in range(1, 40)]
        assert g == gcd(*vals)

    def test_geometric_accumulates(self):
        seq = GeometricSequence(
            c=Fraction(1),
            ratio=Fraction(1, 2),
            weights=WeightRule("constant", Fraction(1)),
            truncation=20,
            direction=_unit_direction(),
            declared_accumulation=Fraction(0),
        )
        seq.validate()
        assert seq.q_certification()[0] == "accumulation"
        assert seq.levy_tail_bound(0) < math.inf

    def test_large_coefficient_decides_in_time(self, tmp_path):
        # points 10^5/n with weights 1/n^2: the Levy integral is finite because the points
        # decay, and deciding that must not cost a sum over n <= 10^5 exact weights
        path = tmp_path / "large_coefficient.yaml"
        path.write_text(
            "dimension: 1\nsequences:\n  - template: poly_ratio\n"
            '    numerator: ["100000"]\n    denominator: ["0", "1"]\n'
            '    weights: {kind: power, c: "1", s: 2}\n    truncation: 10\n    accumulation: "0"\n'
        )
        proc = subprocess.run(
            [sys.executable, "-m", "liouville.cli", "decide", str(path)],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=20,
        )
        assert proc.returncode == 0, proc.stderr
        assert "verdict: holds" in proc.stdout.splitlines()


def _random_poly(rng, deg):
    """Rational coefficients of degree deg, the lead of either sign."""
    lead = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 4))
    return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(deg)] + [lead]


def _random_poly_ratio(rng):
    """A (num, den) sequence with common factors, trailing zeros and constant operands."""
    num, den = _random_poly(rng, rng.randint(0, 3)), _random_poly(rng, rng.randint(0, 3))
    if rng.random() < 0.02:
        num = [Fraction(0)]
    elif rng.random() < 0.4:  # a common factor of degree 1 or 2
        f = _random_poly(rng, rng.randint(1, 2))
        num, den = _poly_mul(num, f), _poly_mul(den, f)
    num += [Fraction(0)] * rng.choice((0, 0, 1, 2))
    den += [Fraction(0)] * rng.choice((0, 0, 1, 2))
    weights = rng.choice((
        WeightRule("constant", Fraction(1)),
        WeightRule("power", Fraction(1, 2), s=2),
        WeightRule("geometric", Fraction(3), r=Fraction(1, 2)),
    ))
    seq = PolyRatioSequence(tuple(num), tuple(den), weights, 7, _unit_direction())
    try:
        acc = reference_poly_ratio(seq).accumulation_scalar()
    except IndexError:
        acc = None
    return dataclasses.replace(seq, declared_accumulation=acc if rng.random() < 0.9 else Fraction(7, 3))


def _sequence_outcome(seq):
    """Everything a report reads of a sequence; floats by their bits."""
    try:
        seq.validate()
    except MeasureSpecError as exc:
        return "error", str(exc)
    return (
        seq.decay_order(), seq.accumulation_scalar(), seq.q_certification(),
        seq._decay_coefficient().hex(), seq.levy_tail_bound(5).hex(),
    )


class TestSylvesterCertificates:
    def test_sequences_match_the_euclid_oracle(self):
        rng = random.Random(2401)
        kinds = collections.Counter()
        for _ in range(2400):
            seq = _random_poly_ratio(rng)
            got = _sequence_outcome(seq)
            assert got == _sequence_outcome(reference_poly_ratio(seq)), seq
            kinds[got[0] if got[0] == "error" else got[2][0]] += 1
        # each kind of certificate, and validate's errors, come up at least 100 times
        assert min(kinds.values()) >= 100, kinds

    def test_common_factors_cancel(self):
        # a_n = (n+1)(n^2+3) / ((n+1)*2): the common factor n+1 leaves (n^2+3)/2
        seq = PolyRatioSequence(
            num=tuple(map(Fraction, _poly_mul([1, 1], [3, 0, 1]))), den=(Fraction(2), Fraction(2), Fraction(0)),
            weights=WeightRule("geometric", Fraction(1), r=Fraction(1, 2)), truncation=5,
            direction=_unit_direction(),
        )
        # a_n / a_1 = (n^2+3)/4 and gcd_n (n^2+3) = 1, so the group is (a_1/4) Z = Z/2
        assert seq.q_certification() == ("lattice", Fraction(1, 2))

    @pytest.mark.parametrize("seed", range(6))
    def test_gcd_is_euclid_s(self, seed):
        rng = random.Random(seed)
        for _ in range(50):
            common = [rng.randint(-5, 5) for _ in range(rng.randint(0, 2))] + [rng.choice((-3, 1, 2))]
            a = _poly_mul(common, [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))] + [1])
            b = _poly_mul(common, [rng.randint(-9, 9) for _ in range(rng.randint(0, 3))] + [-2])
            a, b = [int(c) for c in a], [int(c) for c in b]
            assert measures._poly_gcd(a, b) == _poly_ext_gcd(a, b)[0]

    @pytest.mark.parametrize("a, b", [([6], [0, 3, 1]), ([2, 1], [-4]), ([6], [-4]), ([1], [1])])
    def test_gcd_with_a_constant_is_one(self, a, b):
        assert measures._poly_gcd(a, b) == _poly_ext_gcd(a, b)[0] == [1]


def _unit_direction():
    from liouville.exactreal import ConstantBasis

    return (ConstantBasis().one(),)


class TestAtomOrdering:
    def test_parse_is_order_insensitive(self):
        a = parse_measure(
            'dimension: 1\natoms:\n  - {point: ["1"], weight: "1"}\n'
            '  - {point: ["3/2"], weight: "2"}\n'
        )
        b = parse_measure(
            'dimension: 1\natoms:\n  - {point: ["3/2"], weight: "2"}\n'
            '  - {point: ["1"], weight: "1"}\n'
        )
        assert a == b
        assert support_of(a).finite_points == support_of(b).finite_points


class TestNonzeroAccumulation:
    def test_ratio_to_constant_declares_accumulation(self):
        # a_n = (2n+1)/n accumulates at 2, away from the origin
        text = (
            "dimension: 1\nsequences:\n"
            "  - template: poly_ratio\n"
            '    numerator: ["1", "2"]\n'
            '    denominator: ["0", "1"]\n'
            '    weights: {kind: power, c: "1", s: 2}\n'
            "    truncation: 40\n"
            '    accumulation: "2"\n'
        )
        mu = parse_measure(text)
        desc = support_of(mu)
        assert desc.accumulation_points
        assert desc.directions == (mu.sequences[0].direction,)
        locs = {float(p[0]) for p in desc.accumulation_points}
        assert locs == {2.0, -2.0}

    def test_wrong_declaration_rejected(self):
        text = (
            "dimension: 1\nsequences:\n"
            "  - template: poly_ratio\n"
            '    numerator: ["1", "2"]\n'
            '    denominator: ["0", "1"]\n'
            '    weights: {kind: power, c: "1", s: 2}\n'
            "    truncation: 40\n"
            '    accumulation: "0"\n'
        )
        with pytest.raises(MeasureSpecError, match="accumulation"):
            parse_measure(text)
