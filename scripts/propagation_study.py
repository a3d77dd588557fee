#!/usr/bin/env python3
"""Covering-radius study: how fast do iterated support sums fill a window?

Runs the Minkowski-sum iteration on four 1-d supports (a lattice, two
irrational pairs, and the 355/113 near-rational adversary), writes one CSV
per run and prints the density probe's verdict on the same run.  The adversary
plateaus at the same deltas as pi for small n, which is exactly why the probe
never certifies anything.

    python scripts/propagation_study.py --n-max 40 --out-dir propagation_csv
"""

import argparse
import pathlib
import sys
from fractions import Fraction

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from liouville.exactreal import ConstantBasis
from liouville.numerics import classify_propagation, propagate

SQRT2 = "1.41421356237309504880168872420969807856967187537695"
PI = "3.14159265358979323846264338327950288419716939937511"


def supports():
    plain = ConstantBasis()
    b2 = ConstantBasis(("sqrt2",), (SQRT2,))
    bpi = ConstantBasis(("pi",), (PI,))
    yield "unit_lattice", [(plain.one(),)]
    yield "one_and_sqrt2", [(b2.one(),), (b2.constant("sqrt2"),)]
    yield "one_and_pi", [(bpi.one(),), (bpi.constant("pi"),)]
    yield "one_and_355_113", [
        (plain.one(),),
        (plain.from_rational(Fraction(355, 113)),),
    ]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--R", type=float, default=5.0)
    ap.add_argument("--n-max", type=int, default=40)
    ap.add_argument("--out-dir", default="propagation_csv")
    args = ap.parse_args()

    out = pathlib.Path(args.out_dir)
    out.mkdir(exist_ok=True)
    for name, pts in supports():
        state = propagate(pts, R=args.R, n_max=args.n_max)
        probe = classify_propagation(state)
        path = out / f"{name}.csv"
        with open(path, "w") as fh:
            fh.write("n,points,delta\n")
            for n, size, delta in state.csv_rows():
                fh.write(f"{n},{size},{delta:.17g}\n")
        tail = ", ".join(f"{d:.4f}" for d in state.deltas[-3:])
        g = f" g~{probe.g_estimate:.6g}" if probe.g_estimate else ""
        print(f"{name:<18} final deltas [{tail}]  probe={probe.verdict}{g}  -> {path}")


if __name__ == "__main__":
    main()
