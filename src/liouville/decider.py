"""Top-level Liouville decision with certificates.

holds=True comes with a density route (interval/ball, accumulation, an
irrational support pair, an unbounded reduced-denominator sequence, or a
Kronecker rank argument); holds=False comes with the orthogonal closure, a
hyperplane certificate (H, c), and an explicit bounded nonconstant solution.
Probe-backed answers are never certified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .closure import (
    ClosedSubgroup,
    HyperplaneCertificate,
    closure_1d,
    closure_multid,
    hyperplane_certificate,
    orthogonalize,
)
from .counterexample import Counterexample, build_counterexample
from .measures import LevyMeasure, support_of


@dataclass(frozen=True)
class LiouvilleVerdict:
    holds: bool | None  # None = uncertified/inconclusive
    certified: bool
    route: str
    dimension: int
    closure: ClosedSubgroup | None = None
    certificate: HyperplaneCertificate | None = None
    counterexample: Counterexample | None = None
    witness: Any = None
    assumptions: tuple[str, ...] = ()
    diagnostics: dict = field(default_factory=dict)

    @property
    def verdict_word(self) -> str:
        if not self.certified:
            return "uncertified"
        return "holds" if self.holds else "fails"


def _assumptions(mu: LevyMeasure) -> tuple[str, ...]:
    if not mu.basis.names:
        return ()
    names = ", ".join(mu.basis.names)
    return (
        f"constants {{{names}}} asserted Q-linearly independent together with 1",
    )


def sequence_certifications(mu: LevyMeasure):
    """Symbolic verdict per sequence: accumulation, unbounded q, or lattice."""
    out = []
    for seq in mu.sequences:
        kind, payload = seq.q_certification()
        out.append((seq, kind, payload))
    return out


def _unbounded_witness(seq) -> dict:
    """Sample (n, q_n) pairs plus the symbolic growth certificate."""
    a1 = seq.scalar(1)
    samples = []
    for n in (1, 2, 3, 5, 8, 13, 21):
        if n > seq.truncation:
            break
        r = seq.scalar(n) / a1
        samples.append((n, r.denominator))
    _, payload = seq.q_certification()
    return {"samples": samples, **payload}


def decide_1d(mu: LevyMeasure) -> LiouvilleVerdict:
    """The practical 1-d procedure: accumulation/interval, then ratios."""
    if mu.dimension != 1:
        raise ValueError("decide_1d requires a 1-d measure")
    desc = support_of(mu)
    assumptions = _assumptions(mu)

    if desc.contains_interval_or_ball:
        cl = closure_1d(desc)
        return LiouvilleVerdict(
            True, True, "interval_or_ball", 1, closure=cl, assumptions=assumptions
        )
    if desc.has_accumulation_point:
        cl = closure_1d(desc)
        return LiouvilleVerdict(
            True,
            True,
            "accumulation",
            1,
            closure=cl,
            witness={"accumulation_points": desc.accumulation_points},
            assumptions=assumptions,
        )

    extra_points = []
    for seq, kind, payload in sequence_certifications(mu):
        if kind == "unbounded":
            cl = closure_1d(desc.with_extra(directions=(seq.direction,)))
            return LiouvilleVerdict(
                True,
                True,
                "unbounded_q_sequence",
                1,
                closure=cl,
                witness=_unbounded_witness(seq),
                assumptions=assumptions,
            )
        if kind == "lattice":
            extra_points.append(tuple(c.scale(payload) for c in seq.direction))

    enriched = desc.with_extra(points=extra_points)
    cl = closure_1d(enriched)
    if cl.is_full():
        return LiouvilleVerdict(
            True,
            True,
            "irrational_pair",
            1,
            closure=cl,
            witness={"pair": cl.witness},
            assumptions=assumptions,
        )
    return _failure_verdict(mu, cl, enriched, assumptions)


def decide(mu: LevyMeasure, probe_config=None) -> LiouvilleVerdict:
    """Any dimension: dense closure iff the Liouville property holds."""
    if mu.dimension == 1:
        return decide_1d(mu)
    desc = support_of(mu)
    assumptions = _assumptions(mu)

    extra_points = []
    extra_dirs = []
    for seq, kind, payload in sequence_certifications(mu):
        if kind == "unbounded":
            extra_dirs.append(seq.direction)
        elif kind == "lattice":
            extra_points.append(tuple(c.scale(payload) for c in seq.direction))
    enriched = desc.with_extra(points=extra_points, directions=extra_dirs)

    cl = closure_multid(enriched, probe_config=probe_config)
    if not cl.is_certified():
        probe = cl.probe
        holds = None
        return LiouvilleVerdict(
            holds,
            False,
            "probe",
            mu.dimension,
            closure=cl,
            diagnostics={
                "probe_verdict": probe.verdict if probe else "unavailable",
                "probe": probe,
            },
            assumptions=assumptions,
        )
    if cl.is_full():
        return LiouvilleVerdict(
            True, True, cl.route.value, mu.dimension, closure=cl, witness=cl.witness,
            assumptions=assumptions,
        )
    return _failure_verdict(mu, cl, enriched, assumptions)


def _failure_verdict(mu, cl, desc, assumptions) -> LiouvilleVerdict:
    ortho = orthogonalize(cl)
    cert = hyperplane_certificate(ortho, desc)
    ce = build_counterexample(cert, mu.dimension)
    route = "lattice" if not ortho.v_basis else "hyperplane"
    return LiouvilleVerdict(
        False,
        True,
        route,
        mu.dimension,
        closure=ortho,
        certificate=cert,
        counterexample=ce,
        assumptions=assumptions,
    )
