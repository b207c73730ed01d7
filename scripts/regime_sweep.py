#!/usr/bin/env python3
"""Sweep the similarity-dimension bound regimes and report violations.

Decides the regime inequality exactly with `verify_bounds` at k = 1..k_max
for every integer generator with rho = 2..10 and N = rho..rho^3, whose
D_s = ln N / ln rho covers [1, 3] with the classical line N = rho and the
critical line N = rho^2, and for the Cesaro family on a grid of angles,
the sub regime at non-integer rho.  Exits 1 if any row is out of bounds.
"""

import argparse
import sys
import time

from fractalkin.geometry import builtin, integer_generator
from fractalkin.kinematics import ParticleContext, verify_bounds
from fractalkin.measures import REGIMES, classify_ds
from fractalkin.serialize import dump_json

CESARO_ANGLES = range(5, 90, 5)


def generators():
    for rho in range(2, 11):
        for n in range(rho, rho**3 + 1):
            yield integer_generator(n, rho)
    for angle in CESARO_ANGLES:
        yield builtin("cesaro", angle_deg=float(angle))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-max", type=int, default=50)
    parser.add_argument("--out", type=str, default=None, help="optional JSON report")
    args = parser.parse_args()

    ctx = ParticleContext(m=1.0, dt=1.0, L0=1.0)
    counts = dict.fromkeys(REGIMES, 0)
    violations = []
    start = time.perf_counter()
    for spec in generators():
        report = verify_bounds(spec, ctx, range(1, args.k_max + 1))
        counts[classify_ds(report.ds)] += 1
        violations += [{"generator": spec.name, "n": spec.n, "rho": spec.rho, "k": row.k}
                       for row in report.violations]
    elapsed = time.perf_counter() - start
    print(f"regime sweep: {sum(counts.values())} generators "
          f"({', '.join(f'{c} {r}' for r, c in counts.items())}) x k 1..{args.k_max} "
          f"-> {len(violations)} violations ({elapsed:.3f}s)")

    if args.out:
        dump_json({"k_max": args.k_max, "generators": counts, "violations": violations},
                  args.out)
        print(f"wrote {args.out}")
    return 1 if violations else 0


if __name__ == "__main__":
    sys.exit(main())
