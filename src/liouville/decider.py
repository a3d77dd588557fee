"""Top-level Liouville decision with certificates.

holds=True comes with a density route (interval/ball, accumulation, an
irrational support pair, an unbounded reduced-denominator sequence, or a
Kronecker rank argument); holds=False comes with the orthogonal closure, a
hyperplane certificate (H, c), and an explicit bounded nonconstant solution.
Probe-backed answers are never certified.
"""

from __future__ import annotations

from dataclasses import dataclass

from .closure import (
    ClosedSubgroup,
    HyperplaneCertificate,
    Route,
    closure_multid,
    hyperplane_certificate,
    orthogonalize,
)
from .counterexample import Counterexample, build_counterexample
from .measures import LevyMeasure, group_support


@dataclass(frozen=True)
class LiouvilleVerdict:
    holds: bool | None  # None = uncertified: only the probe ran
    route: str
    closure: ClosedSubgroup
    certificate: HyperplaneCertificate | None = None
    counterexample: Counterexample | None = None
    witness: dict | None = None
    assumptions: tuple[str, ...] = ()

    @property
    def certified(self) -> bool:
        return self.holds is not None

    @property
    def dimension(self) -> int:
        return self.closure.dimension

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
    """`decide` restricted to 1-d measures."""
    if mu.dimension != 1:
        raise ValueError("decide_1d requires a 1-d measure")
    return decide(mu)


def decide(mu: LevyMeasure) -> LiouvilleVerdict:
    """Any dimension: dense closure iff the Liouville property holds."""
    desc = group_support(mu)
    assumptions = _assumptions(mu)
    cl = closure_multid(desc)
    if not cl.is_certified():
        return LiouvilleVerdict(None, "probe", cl, assumptions=assumptions)
    if cl.is_full():
        route, witness = cl.route.value, cl.witness
        if mu.dimension == 1:
            # a dense line: name the 1-d density argument and its witness
            if cl.route is Route.IRRATIONAL_PAIR:
                witness = {"pair": cl.witness}
            elif cl.route is Route.ACCUMULATION and desc.accumulation_points:
                witness = {"accumulation_points": desc.accumulation_points}
            elif cl.route is Route.ACCUMULATION:
                seq = next(s for s in mu.sequences if s.q_certification()[0] == "unbounded")
                route, witness = "unbounded_q_sequence", _unbounded_witness(seq)
        return LiouvilleVerdict(True, route, cl, witness=witness, assumptions=assumptions)
    return _failure_verdict(mu, cl, desc, assumptions)


def _failure_verdict(mu, cl, desc, assumptions) -> LiouvilleVerdict:
    ortho = orthogonalize(cl)
    cert = hyperplane_certificate(ortho, desc)
    ce = build_counterexample(cert, mu.dimension)
    route = "lattice" if not ortho.v_basis else "hyperplane"
    return LiouvilleVerdict(
        False, route, ortho, certificate=cert, counterexample=ce, assumptions=assumptions
    )
