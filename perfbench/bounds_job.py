"""The exact-bounds job and the known-defect probes, as library calls.

Run as a child process of the benchmark (with ``src`` on PYTHONPATH):

    python3 perfbench/bounds_job.py verify OUT_DIR K_MAX
    python3 perfbench/bounds_job.py probes OUT_FILE

or call `run_verify` and `run_probes` in-process, as the traced run does.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

from fractalkin import GeneratorSpec, ParticleContext, builtin, serialize, verify_bounds
from workloads import BOUND_LABELS, CONTEXT_NAMES, report_path

_H = math.sqrt(3.0) / 2.0


def super_spec() -> GeneratorSpec:
    """An integer-scaled super-regime generator: rho = 2, N = 5, D_s = ln5/ln2."""
    disp = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [-0.5, _H], [-0.5, -_H]])
    return GeneratorSpec("super-2-5", 2.0, disp)


def generators() -> list[tuple[str, GeneratorSpec]]:
    """One generator per regime (classical, sub, critical, super), plus one
    that takes the float route."""
    specs = [builtin("line"), builtin("koch"), builtin("peano"), super_spec(),
             builtin("cesaro", angle_deg=85.0)]
    return list(zip(BOUND_LABELS, specs))


#: the unit context, and the non-trivial context of acceptance check C06
CONTEXTS = dict(zip(CONTEXT_NAMES, (ParticleContext(m=1.0, dt=1.0, L0=1.0),
                                    ParticleContext(m=1.7, dt=0.9, L0=1.3))))


def run_verify(out_dir: Path, k_max: int) -> list[Path]:
    """verify_bounds over k = 1..k_max for every generator and context,
    each report serialised with bounds_report_to_dict."""
    written = []
    for label, spec in generators():
        for ctx_name, ctx in CONTEXTS.items():
            report = verify_bounds(spec, ctx, range(1, k_max + 1))
            written.append(serialize.dump_json(
                serialize.bounds_report_to_dict(report), report_path(out_dir, label, ctx_name)))
    return written


def run_probes() -> dict[str, dict]:
    """Library-side known-defect probes; each is ok only if it returns a
    report in which every row passes."""
    probes = {
        # the exact product overflows float() once rho^2k passes ~1e308
        "super_exact_k3180": (super_spec(), range(3180, 3191)),
        # the float product underflows to 0.0 and reads as a violation
        "cesaro30_float_k590": (builtin("cesaro", angle_deg=30.0), range(590, 611)),
    }
    out = {}
    for name, (spec, ks) in probes.items():
        try:
            report = verify_bounds(spec, CONTEXTS["unit"], ks)
        except (OverflowError, ValueError) as exc:
            out[name] = {"ok": False, "detail": f"{type(exc).__name__}: {exc}"}
            continue
        bad = [row.k for row in report.violations]
        out[name] = {"ok": not bad, "detail": f"false violations at k={bad[:3]}..." if bad else ""}
    return out


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "verify":
        run_verify(Path(argv[1]), int(argv[2]))
        return 0
    if len(argv) == 2 and argv[0] == "probes":
        Path(argv[1]).write_text(json.dumps(run_probes(), indent=2) + "\n")
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
