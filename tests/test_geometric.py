"""The `geometric` sequence template: points c*r^n*direction, accumulating at 0.

Parse, the template's exact and float members, decide, decompose, and `verify`
against a direct float sum of the series with the reported tail bound.
"""

import math
from fractions import Fraction

import pytest

from liouville.closure import decompose_measure
from liouville.decider import decide
from liouville.measures import GeometricSequence, MeasureSpecError, parse_measure
from liouville import numerics
from liouville.numerics import OperatorEvaluator, builtin_function, eval_operator

LINE = """\
dimension: 1
sequences:
  - template: geometric
    coefficient: "3/2"
    ratio: "1/3"
    weights: {kind: geometric, c: "1", r: "1/2"}
    truncation: 12
    accumulation: "0"
"""

# a geometric sequence along (1, 0) plus the atom (0, 1): the closure is R x Z
STRIPES = """\
dimension: 2
atoms:
  - {point: ["0", "1"], weight: "1"}
sequences:
  - template: geometric
    coefficient: "1"
    ratio: "1/2"
    weights: {kind: constant, c: "1"}
    truncation: 6
    direction: ["1", "0"]
    accumulation: "0"
"""


def test_parse():
    seq = parse_measure(LINE).sequences[0]
    assert isinstance(seq, GeometricSequence)
    assert (seq.c, seq.ratio, seq.truncation) == (Fraction(3, 2), Fraction(1, 3), 12)
    assert (seq.weights.kind, seq.weights.c, seq.weights.r) == ("geometric", 1, Fraction(1, 2))


def test_accumulation_must_be_declared_zero():
    with pytest.raises(MeasureSpecError, match="accumulate at 0"):
        parse_measure(LINE.replace('accumulation: "0"', 'accumulation: "1"'))


def test_points_weights_and_accumulation():
    seq = parse_measure(STRIPES).sequences[0]
    for n in range(1, 7):
        assert seq.scalar(n) == Fraction(1, 2**n)
        assert tuple(c.coords[0] for c in seq.point(n)) == (Fraction(1, 2**n), 0)
        assert seq.weight(n) == 1
    assert seq.accumulation_scalar() == 0


def test_levy_tail_bound_bounds_the_tail():
    seq = parse_measure(LINE).sequences[0]
    for n0 in (0, 1, 3, 12):
        tail = sum(
            float(min(seq.scalar(n) ** 2, Fraction(1)) * seq.weight(n)) for n in range(n0 + 1, 200)
        )
        assert tail <= seq.levy_tail_bound(n0)
        assert seq.levy_tail_bound(n0) <= 2 * tail  # not vacuous either


def test_decide_holds_by_accumulation():
    v = decide(parse_measure(LINE))
    assert v.holds is True and v.certified
    assert v.closure.v_dim == 1


def test_decompose_puts_the_sequence_in_the_origin_coset():
    mu = parse_measure(STRIPES)
    v = decide(mu)
    assert v.holds is False and v.certified
    dec = decompose_measure(mu, v.closure)
    occupied = {k[0] if k else 0: p for k, p in zip(dec.coset_keys, dec.parts) if p}
    assert set(occupied) == {-1, 0, 1}
    seq = mu.sequences[0]
    assert sorted(p for p, _ in occupied[0]) == sorted(
        q for n in range(1, 7) for q in (seq.point(n), tuple(-c for c in seq.point(n)))
    )


def direct_sum(x, n_max):
    """sum over n <= n_max of w_n (cos(x + a_n) + cos(x - a_n) - 2 cos x) for LINE."""
    return math.fsum(
        0.5**n * (math.cos(x + 1.5 / 3**n) + math.cos(x - 1.5 / 3**n) - 2 * math.cos(x))
        for n in range(1, n_max + 1)
    )


@pytest.mark.parametrize("truncation", [2, 4, 12])
def test_verify_matches_the_series_within_the_tail_bound(truncation):
    mu = parse_measure(LINE)
    u = builtin_function("cos", 1)
    ev = OperatorEvaluator(measure=mu, truncation=truncation)
    for x in (0.0, 0.4, -1.3, 2.2):
        res = eval_operator(ev, u, (x,))
        assert res.value == pytest.approx(direct_sum(x, truncation), abs=1e-15)
        assert abs(res.value - direct_sum(x, 60)) <= res.bound + 1e-15
    assert res.bound > 0


def test_verify_converts_the_sequence_once_per_evaluator(monkeypatch):
    mu = parse_measure(LINE)
    u = builtin_function("cos", 1)
    calls, conversions = [], []
    point = GeometricSequence.point
    monkeypatch.setattr(GeometricSequence, "point", lambda self, n: calls.append(n) or point(self, n))
    convert = numerics._sequence_terms
    monkeypatch.setattr(
        numerics, "_sequence_terms", lambda seq, N, r0: conversions.append(N) or convert(seq, N, r0)
    )
    ev = OperatorEvaluator(measure=mu)
    xs = (0.0, 0.4, -1.3)
    shared = [eval_operator(ev, u, (x,)) for x in xs]
    assert calls == list(range(1, 13))
    assert conversions == [12]
    fresh = [eval_operator(OperatorEvaluator(measure=mu), u, (x,)) for x in xs]
    assert shared == fresh
    assert conversions == [12] * 4
    # another truncation is another float series, cut from the same exact terms:
    # each point is expanded once per sequence, whatever the evaluator
    ev5 = OperatorEvaluator(measure=mu, truncation=5)
    for x in xs:
        eval_operator(ev5, u, (x,))
    assert conversions == [12] * 4 + [5]
    assert calls == list(range(1, 13))
