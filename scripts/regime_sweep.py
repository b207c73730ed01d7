#!/usr/bin/env python3
"""Sweep the similarity-dimension bound regimes and report violations.

Checks the four regime inequalities over a grid of scale factors and
dimensions (realized analytically through N = rho^D_s), then machine-
verifies the uncertainty products of the stock generators.  Exits 1 if
anything is out of bounds.
"""

import argparse
import sys
import time

from fractalkin.geometry import builtin
from fractalkin.kinematics import ParticleContext, verify_bounds
from fractalkin.measures import REGIME_CRITICAL, gamma, gamma_exact_critical, regime_bounds


def sweep_gamma(rho_values, ds_values, k_max):
    """With L0 = 1 the bounds on dx_k dL_k are the bounds on gamma."""
    violations = []
    for rho in rho_values:
        for ds in ds_values:
            bound = regime_bounds(ds, 1.0)
            for k in range(1, k_max + 1):
                if bound.regime == REGIME_CRITICAL:
                    # 1 - rho^-k rounds to 1.0 at large k; decide it exactly
                    g = gamma_exact_critical(k, float(rho))
                else:
                    g = gamma(k, float(rho), ds)
                if not bound.contains(g):
                    violations.append({"rho": rho, "ds": ds, "k": k})
    return violations


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--k-max", type=int, default=50)
    parser.add_argument("--out", type=str, default=None, help="optional JSON report")
    args = parser.parse_args()

    rho_values = list(range(2, 11))
    ds_values = [t / 10.0 for t in range(10, 31)]

    start = time.perf_counter()
    violations = sweep_gamma(rho_values, ds_values, args.k_max)
    elapsed = time.perf_counter() - start
    print(
        f"gamma sweep: {len(rho_values)} rho x {len(ds_values)} D_s x "
        f"{args.k_max} k -> {len(violations)} violations ({elapsed:.3f}s)"
    )

    ctx = ParticleContext(m=1.0, dt=1.0, L0=1.0)
    reports = {}
    for name in ("line", "koch", "peano"):
        report = verify_bounds(builtin(name), ctx, range(1, args.k_max + 1))
        reports[name] = report
        print(
            f"{name:6s} D_s={report.ds:.6f} eta0={report.eta0}  "
            f"{'OK' if report.all_passed else 'VIOLATED'} "
            f"({len(report.rows)} scales)"
        )

    if args.out:
        from fractalkin.serialize import bounds_report_to_dict, dump_json

        payload = {
            "gamma_violations": violations,
            "bounds": {name: bounds_report_to_dict(r) for name, r in reports.items()},
        }
        dump_json(payload, args.out)
        print(f"wrote {args.out}")

    bad = bool(violations) or not all(r.all_passed for r in reports.values())
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
