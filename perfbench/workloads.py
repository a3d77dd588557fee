"""The three workloads: which inputs each generates, and which commands it runs on them.

Each workload is a list of operations, one CLI call each.  `main` and `aux`
name the two operation groups every workload reports end to end:

| workload          | main                          | aux                              |
| ----------------- | ----------------------------- | -------------------------------- |
| exact-decide      | decide                        | decompose (planted *fails* only) |
| probe-fallback    | decide                        | propagate (fixed supports)       |
| verify-quadrature | verify, quadrature parts      | verify, atom and sequence sums   |
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field

import numpy as np

import plant as pl
import reference

# answers of the bundled specs: the acceptance-1 decision table and the spec comments
BUNDLED = {
    "convolution": "holds",
    "discrete_laplacian": "fails",
    "fractional": "holds",
    "growing_sequence": "holds",
    "kronecker_rational": "fails",
    "kronecker_sqrt2_sqrt2": "fails",
    "kronecker_sqrt2_sqrt3": "holds",
    "mean_value": "holds",
    "nonstandard_laplacian": "holds",
    "nonuniform_grid_2d": "holds",
    "planar_fractional": "fails",
    "reciprocal_sequence": "holds",
    "relativistic": "holds",
    "sqrt2_pair": "holds",
}
# atoms the program lists when it decomposes a bundled *fails* spec
BUNDLED_ATOMS = {
    "discrete_laplacian": 2,
    "kronecker_rational": 6,
    "kronecker_sqrt2_sqrt2": 6,
    "planar_fractional": 0,
}

# The generated corpora are drawn once, from BASE_SEED; a run's seed draws a symmetric
# image (plant.symmetric_image) of each input, with fresh weights, in a fresh order.
# Input costs are heavy-tailed: one probe input costs about a second, so a run holds ten,
# and one seed-drawn 2-D decompose can cost a second where most cost 10 ms.  A corpus
# drawn afresh per seed moved the run totals by more than the machine's own noise; an
# image has the same lattice geometry, and so the same work.
BASE_SEED = 1

# (family generator, dimension, count); about half holds, half fails.  Decompose
# costs grow with the dimension; the 1-D share keeps the median decompose inside the
# 2-D inputs instead of at the edge between two cost classes.
EXACT_FAMILIES = (
    (pl.lattice_fails, 1, 7), (pl.lattice_fails, 2, 4), (pl.lattice_fails, 3, 4),
    (pl.axes_holds, 2, 3), (pl.axes_holds, 3, 3),
    (pl.axes_fails, 2, 3), (pl.axes_fails, 3, 3),
    (pl.collinear_fails, 2, 3), (pl.collinear_fails, 3, 3),
    (pl.kronecker_holds, 1, 6), (pl.kronecker_holds, 2, 6),
    (pl.kronecker_fails, 2, 4), (pl.kronecker_fails, 3, 4),
    (pl.affine_holds, 2, 3), (pl.affine_holds, 3, 3),
    (pl.affine_fails, 2, 3), (pl.affine_fails, 3, 2),
    (pl.sequence_holds, 1, 4), (pl.sequence_holds, 2, 2), (pl.sequence_holds, 3, 1),
    (pl.sequence_fails, 1, 6), (pl.sequence_fails, 2, 4),
    (pl.continuous_holds, 1, 4), (pl.continuous_holds, 2, 4), (pl.continuous_holds, 3, 3),
)

PROBE_FAMILIES = (
    (pl.probe_extra_rational, "holds", 2), (pl.probe_extra_rational, "fails", 2),
    (pl.probe_two_irrational, "holds", 2), (pl.probe_two_irrational, "fails", 2),
    (pl.probe_products, "fails", 2),
)
# (bundled spec, propagate arguments); the first row uses the probe's own configuration,
# the cheaper rows run three times per pass
PROPAGATE_ROWS = (
    ("nonuniform_grid_2d", ["--R", "3", "--n-max", "30", "--grid-div", "100"]),
    ("kronecker_sqrt2_sqrt3", ["--R", "3", "--n-max", "12", "--grid-div", "60"]),
    ("kronecker_rational", ["--R", "3", "--n-max", "20", "--grid-div", "60"]),
    ("sqrt2_pair", ["--R", "5", "--n-max", "40"]),
    ("discrete_laplacian", ["--R", "5", "--n-max", "40"]),
)

# (generator, arguments, inputs per seed, evaluation points per verify call); quadrature
# cost depends on the kernel and the dimension (a 2-D fractional kernel costs ~1 s per
# point, a Gaussian one ~10 ms), so the mix of kernels is fixed and the seed draws
# parameters and points.  Atom sums outnumber sequence sums so that the median of the
# sums sits inside one cost class.
VERIFY_FAMILIES = (
    (pl.verify_atoms, (1,), 3, 50),
    (pl.verify_atoms, (2,), 3, 50),
    (pl.verify_sequence, ("unbounded",), 1, 4),
    (pl.verify_sequence, ("accumulating",), 1, 4),
    (pl.verify_radial, ("fractional", 1), 1, 4),
    (pl.verify_radial, ("fractional", 2), 1, 1),
    (pl.verify_radial, ("relativistic", 1), 1, 4),
    (pl.verify_radial, ("convolution", 1, "exponential"), 1, 4),
    (pl.verify_radial, ("convolution", 2, "gaussian"), 1, 4),
    (pl.verify_sphere, (), 2, 20),
    (pl.verify_affine, ("fractional",), 2, 4),
    (pl.verify_affine, ("gaussian",), 1, 4),
)
# bundled verify inputs: (spec, function, part kind, evaluation points)
VERIFY_BUNDLED = (
    ("discrete_laplacian", "cos", "atoms", 50),
    ("nonstandard_laplacian", "cos", "atoms", 50),
    ("growing_sequence", "cos", "sequence", 4),
    ("reciprocal_sequence", "cos", "sequence", 4),
    ("fractional", "cos", "radial", 4),
    ("relativistic", "cos", "radial", 4),
    ("convolution", "cos", "radial", 4),
    ("mean_value", "cos", "sphere", 20),
    ("mean_value", "harmonic_xy", "sphere", 20),
    ("planar_fractional", "cos", "affine", 4),
)
SUM_PARTS = ("atoms", "sequence")

# ROADMAP baseline rows, by operation input: what the ROADMAP measured
BASELINE = {
    "stress_decompose_2d": "decompose 2-D, atom (1,0) + n(1,1), truncation 50: 2.3 s",
    "nonuniform_grid_2d": "propagate() 2.55 s for 12,781 points",
    "fractional": "eval_operator with cos: 30 ms per point",
    "planar_fractional": "eval_operator with cos: 40 ms per point",
    "growing_sequence": "eval_operator with cos: 81 ms per point",
}


@dataclass
class Op:
    """One CLI call and the answer planted for it."""

    id: int
    kind: str  # decide | decompose | propagate | verify
    role: str  # main | aux
    label: str
    argv: list
    plant: str = ""  # holds | fails: the answer for the support of a decide or propagate input
    uncertified_ok: bool = False  # decide: the probe's "uncertified" is an accepted answer
    atoms: int | None = None  # decompose: atoms the parts must list
    part: str = ""  # verify: the part kind
    points: np.ndarray | None = None  # verify: planted evaluation points
    references: list = field(default_factory=list)  # verify: reference values
    baseline: str = ""
    repeat: int = 1  # calls per pass, for cheap operations whose few passes leave noisy minima


def _write(workdir, name, text) -> str:
    path = os.path.join(workdir, name + ".yaml")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def stress_decompose_case() -> pl.Case:
    """The ROADMAP decompose stress row: atom (1,0) plus the sequence n(1,1), truncation 50."""
    from fractions import Fraction

    seq = pl.Sequence("poly_ratio", (Fraction(1), Fraction(1)), 50, numerator=(0, 1), denominator=(1,))
    case = pl.Case("stress_decompose_2d", "sequence", 2, "fails", xi=(Fraction(1), Fraction(0)),
                   sequences=[seq])
    case.atoms = [(pl.Num.of(1), pl.Num())]
    case.weights = [Fraction(1)]
    pl.check_plant(case)
    return case


def exact_cases(seed):
    base, rng = random.Random(BASE_SEED), random.Random(seed)
    cases = []
    for make, d, count in EXACT_FAMILIES:
        for i in range(count):
            size = base.choice(("small", "large"))
            consts = pl.CONSTANT_SETS[base.randint(0, 2)]
            cases.append(pl.symmetric_image(make(base, f"{make.__name__}_d{d}_{i}", d, size, consts), rng))
    rng.shuffle(cases)
    return cases


def exact_decide(seed, workdir, specs_dir):
    ops = []
    for case in exact_cases(seed) + [stress_decompose_case()]:
        path = _write(workdir, case.name, case.spec())
        if case.name != "stress_decompose_2d":
            ops.append(Op(len(ops), "decide", "main", case.name, ["decide", path, "--no-timestamp"], plant=case.plant))
        if case.plant == "fails":
            ops.append(Op(len(ops), "decompose", "aux", case.name, ["decompose", path, "--no-timestamp"],
                          atoms=case.atom_count(), baseline=BASELINE.get(case.name, "")))
    for name, answer in sorted(BUNDLED.items()):
        path = os.path.join(specs_dir, name + ".yaml")
        ops.append(Op(len(ops), "decide", "main", name, ["decide", path, "--no-timestamp"], plant=answer))
        if answer == "fails":
            ops.append(Op(len(ops), "decompose", "aux", name, ["decompose", path, "--no-timestamp"], atoms=BUNDLED_ATOMS[name]))
    return ops


def probe_cases(seed):
    base, rng = random.Random(BASE_SEED), random.Random(seed)
    cases = []
    for make, answer, count in PROBE_FAMILIES:
        for i in range(count):
            cases.append(pl.symmetric_image(make(base, f"{make.__name__}_{answer}_{i}", answer), rng))
    rng.shuffle(cases)
    return cases


def probe_fallback(seed, workdir, specs_dir):
    ops = []
    for case in probe_cases(seed):
        path = _write(workdir, case.name, case.spec())
        ops.append(Op(len(ops), "decide", "main", case.name, ["decide", path, "--no-timestamp"],
                      plant=case.plant, uncertified_ok=True))
    for name, extra in PROPAGATE_ROWS:
        path = os.path.join(specs_dir, name + ".yaml")
        ops.append(Op(len(ops), "propagate", "aux", name, ["propagate", path] + extra,
                      plant=BUNDLED[name], baseline=BASELINE.get(name, ""), repeat=1 if name in BASELINE else 3))
    return ops


def verify_quadrature(seed, workdir, specs_dir):
    rng = random.Random(seed)
    inputs = []
    for name, function, part, npts in VERIFY_BUNDLED:
        path = os.path.join(specs_dir, name + ".yaml")
        with open(path, encoding="utf-8") as fh:
            inputs.append((name, path, fh.read(), function, part, npts))
    for make, extra, count, npts in VERIFY_FAMILIES:
        for i in range(count):
            case = make(rng, f"{make.__name__}_{len(inputs)}", *extra)
            text = case.spec()
            inputs.append((case.name, _write(workdir, case.name, text), text, "cos", case.part, npts))
    ops = []
    for label, path, text, function, part, npts in inputs:
        point_seed = rng.randrange(2**31)
        spec = reference.Spec(text)
        # the points `verify --seed s --points n` evaluates at, as documented by the CLI
        pts = np.random.default_rng(point_seed).uniform(-2, 2, size=(npts, spec.dimension))
        refs = [reference.reference(spec, function, p) for p in pts]
        ops.append(Op(
            len(ops), "verify", "aux" if part in SUM_PARTS else "main", f"{label}:{function}",
            ["verify", path, "--function", function, "--points", str(npts), "--seed", str(point_seed),
             "--format", "json", "--no-timestamp"],
            part=part, points=pts, references=refs, baseline=BASELINE.get(label, ""),
        ))
    return ops


WORKLOADS = {
    "exact-decide": exact_decide,
    "probe-fallback": probe_fallback,
    "verify-quadrature": verify_quadrature,
}
