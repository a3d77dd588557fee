"""Liouville-property decision engine for symmetric nonlocal diffusion operators."""

__version__ = "0.1.0"

from .exactreal import (
    ConstantBasis,
    ExtendedRational,
    density_witness,
    parse_coordinate,
    rational_ratio,
)
from .measures import LevyMeasure, parse_measure, support_of
from .closure import (
    ClosedSubgroup,
    HyperplaneCertificate,
    closure_1d,
    closure_multid,
    decompose_measure,
    hyperplane_certificate,
    lattice_hnf,
    orthogonalize,
)
from .decider import LiouvilleVerdict, decide, decide_1d
from .counterexample import Counterexample, build_counterexample
# numerics imports scipy, so it loads on first access: the exact commands never need it
_NUMERICS = ("OperatorEvaluator", "PropagationState", "density_probe", "propagate")

__all__ = [
    "ConstantBasis",
    "ExtendedRational",
    "density_witness",
    "parse_coordinate",
    "rational_ratio",
    "LevyMeasure",
    "parse_measure",
    "support_of",
    "ClosedSubgroup",
    "HyperplaneCertificate",
    "closure_1d",
    "closure_multid",
    "lattice_hnf",
    "orthogonalize",
    "decompose_measure",
    "hyperplane_certificate",
    "LiouvilleVerdict",
    "decide",
    "decide_1d",
    "Counterexample",
    "build_counterexample",
    "OperatorEvaluator",
    "PropagationState",
    "propagate",
    "density_probe",
]


def __getattr__(name):
    if name in _NUMERICS:
        from . import numerics

        return getattr(numerics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
