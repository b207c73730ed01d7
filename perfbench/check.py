"""Output checks for the benchmark workloads.

Every check tests the meaning of an output (counts, fitted dimensions,
bound verdicts, byte-identity across repetitions) rather than its exact
formatting, so a change that reformats an output on purpose still
passes.  A check is a ``(name, ok, detail)`` tuple; each one counts as
one attempted operation, and a false ``ok`` as one failed operation.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path
from typing import Iterable, NamedTuple

KOCH_DS = math.log(4.0) / math.log(3.0)
BROWNIAN_DS = 2.0

#: supercover grid counts of the level-L Koch curve at ladder scales
#: k = 1..L (dx_k = L0 / 3^k), keyed by L
KOCH_GRID_COUNTS = {
    9: (4, 16, 68, 290, 1230, 4893, 19639, 78873, 272229),
    5: (4, 16, 68, 290, 1050),
}
#: relative tolerance of the divider counts against 4^k; the walker's 1e-9
#: chord tolerance leaks about 1e-9 * k into each count
DIVIDER_REL_TOL = 1e-8
DIVIDER_DS_TOL = 1e-7


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str = ""


def counts(doc: dict) -> list[float]:
    """Per-scale counts of a `measure` output, ordered by k."""
    return [float(r["count"]) for r in sorted(doc["rows"], key=lambda r: r["k"])]


def ds_hat(doc: dict) -> float | None:
    fit = doc.get("fit")
    return None if fit is None else float(fit["ds_hat"])


def ds_abs_err(doc: dict, truth: float) -> float:
    """|ds_hat - truth|, or inf when the output carries no fit."""
    d = ds_hat(doc)
    return math.inf if d is None else abs(d - truth)


def digests(paths: Iterable[Path]) -> dict[str, str]:
    """SHA-256 of each output file, keyed by file name."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths}


def same_bytes(first: dict[str, str], now: dict[str, str]) -> Check:
    """Outputs of a repeated job must be byte-identical to the first job's."""
    changed = sorted(k for k in first.keys() | now.keys() if first.get(k) != now.get(k))
    return Check("deterministic_bytes", not changed, f"changed: {changed}" if changed else "")


def _nondecreasing(name: str, values: list[float]) -> Check:
    bad = [i for i in range(1, len(values)) if values[i] < values[i - 1]]
    return Check(name, not bad, f"decrease at positions {bad}: {values}" if bad else "")


def polyline_shape(doc: dict, n_vertices: int, level) -> Check:
    got_n, got_level = len(doc["vertices"]), doc.get("level")
    ok = got_n == n_vertices and got_level == level
    return Check("polyline_shape", ok, "" if ok else
                 f"{got_n} vertices at level {got_level}, want {n_vertices} at {level}")


def svg_document(text: str) -> Check:
    ok = text.startswith("<svg") and text.rstrip().endswith("</svg>") and '<path d="M' in text
    return Check("svg_document", ok, "" if ok else "not a single-path SVG document")


def koch_grid(doc: dict, level: int) -> Check:
    want = [float(c) for c in KOCH_GRID_COUNTS[level]][: len(doc["rows"])]
    got = counts(doc)
    return Check("koch_grid_counts", got == want, "" if got == want else f"got {got}, want {want}")


def koch_divider(doc: dict) -> list[Check]:
    """Divider counts equal 4^k and the fitted slope equals ln4/ln3."""
    rows = sorted(doc["rows"], key=lambda r: r["k"])
    bad = [(r["k"], r["count"]) for r in rows
           if abs(float(r["count"]) - 4.0 ** r["k"]) > DIVIDER_REL_TOL * 4.0 ** r["k"]]
    err = ds_abs_err(doc, KOCH_DS)
    return [
        Check("koch_divider_counts", not bad, f"(k, count) off 4^k: {bad}" if bad else ""),
        Check("koch_divider_ds", err <= DIVIDER_DS_TOL, f"|ds_hat - ln4/ln3| = {err:.3g}"),
    ]


def brownian_walk(doc: dict, n: int, seed: int) -> Check:
    meta = doc.get("metadata") or {}
    ok = len(doc["vertices"]) == n and meta.get("seed") == seed and meta.get("n") == n
    return Check("brownian_walk", ok, "" if ok else
                 f"{len(doc['vertices'])} vertices, metadata {meta}, want n={n} seed={seed}")


def brownian_measures(grid_doc: dict, divider_doc: dict) -> list[Check]:
    """Counts cannot decrease as the cell or step shrinks."""
    return [
        _nondecreasing("brownian_grid_monotone", counts(grid_doc)),
        _nondecreasing("brownian_divider_monotone", counts(divider_doc)),
    ]


def bounds_report(name: str, doc: dict, k_max: int) -> Check:
    """A serialised bounds report covers k = 1..k_max and every row passes."""
    ks = [r["k"] for r in doc["rows"]]
    failed = [r["k"] for r in doc["rows"] if not r["pass"]]
    ok = ks == list(range(1, k_max + 1)) and not failed
    detail = ""
    if failed:
        detail = f"{len(failed)} violations, first k={failed[0]}"
    elif not ok:
        detail = f"rows cover k={ks[:1]}..{ks[-1:]}, want 1..{k_max}"
    return Check(f"all_passed[{name}]", ok, detail)


def analyze_bundle(name: str, doc: dict, k_max: int) -> Check:
    """An `analyze` bundle has one scale row per k and a passing bounds report."""
    if len(doc["scales"]) != k_max + 1 or doc.get("bounds") is None:
        return Check(f"all_passed[{name}]", False,
                     f"{len(doc['scales'])} scale rows, want {k_max + 1}, bounds {doc.get('bounds') is not None}")
    return bounds_report(name, doc["bounds"], k_max)


def summary(checks: list[Check]) -> tuple[int, int]:
    """(attempted, failed) over a list of checks."""
    return len(checks), sum(1 for c in checks if not c.ok)
