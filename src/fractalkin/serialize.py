"""JSON/CSV serialization for every report and data type.

JSON numbers use Python's shortest round-trip repr and CSV numbers 17
significant digits (`fnum`), so float64 values round-trip exactly either
way; output contains no timestamps or random ids, making every writer
byte-deterministic.  JSON text is laid out by `json_text`, which emits
standard JSON only: an infinite bound, or a value past the float64 range
(a cell count, length, area, gamma, surface change or bounds product),
serializes as null (JSON has no Infinity literal).  `write_polyline_json`
streams a polyline to a file in the same layout, byte for byte, a block
of vertices at a time, so the whole vertex list and text never sit in
memory.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .estimator import DimensionFit, MeasurementResult, MeasurementRow
from .geometry import GeneratorSpec, Polyline
from .kinematics import BoundsReport, BoundsRow, ParticleContext, UncertaintyRow
from .measures import RegimeBound, ScaleRow

SCALE_CSV_HEADER = "k,dx_k,N_k,L_k,A_k,v_k,gamma,dA_k0,dL_k"
MEASUREMENT_CSV_HEADER = "k,dx,count,length"
#: scale-table fields that pass the float64 range at large k (null on the wire)
_SCALE_NULLABLE = ("N_k", "L_k", "A_k", "v_k", "gamma", "dA_k0", "dL_k")

#: vertices formatted per write by `write_polyline_json`
_POLYLINE_CHUNK = 8192

# one vertex as json_text lays it out inside "vertices"; %r is the float
# repr the JSON encoder writes
_VERTEX = "    [\n      %r,\n      %r\n    ]"
_VERTEX_SEP = ",\n"


def fnum(x: float) -> str:
    """Decimal text with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


def json_text(obj) -> str:
    """The JSON text of every JSON output: two-space indent, final newline.

    Raises ValueError on NaN or infinity, which standard JSON cannot hold.
    """
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


def _endpoint(x: float) -> float | None:
    """A value that may be infinite on the wire: null when infinite.

    Used for unbounded interval endpoints and for scale-table values and
    bounds products past the float64 range; readers map null back to
    math.inf.
    """
    return None if math.isinf(x) else x


def _from_endpoint(x: float | None) -> float:
    """The reader's half of `_endpoint`: null back to math.inf."""
    return math.inf if x is None else x


# ---------------------------------------------------------------------------
# geometry


def spec_to_dict(spec: GeneratorSpec) -> dict:
    return {
        "name": spec.name,
        "rho": spec.rho,
        "displacements": [[float(dx), float(dy)] for dx, dy in spec.displacements],
    }


def spec_from_dict(data: dict) -> GeneratorSpec:
    return GeneratorSpec(
        name=data["name"],
        rho=float(data["rho"]),
        displacements=np.array(data["displacements"], dtype=float),
    )


def _polyline_doc(level: int | None, vertices: list, metadata: dict | None) -> dict:
    out = {"level": level, "vertices": vertices}
    if metadata is not None:
        out["metadata"] = metadata
    return out


def polyline_to_dict(poly: Polyline, metadata: dict | None = None) -> dict:
    return _polyline_doc(poly.level, poly.vertices.tolist(), metadata)


def write_polyline_json(poly: Polyline, fp: TextIO, metadata: dict | None = None) -> None:
    """Write ``json_text(polyline_to_dict(poly, metadata))`` to `fp`.

    The text around the vertex block comes from `json_text` itself; the
    vertices are formatted `_POLYLINE_CHUNK` at a time.  `Polyline` holds
    finite float64 vertices only, so float repr gives the encoder's bytes.
    """
    empty = '"vertices": []'
    head, _, tail = json_text(_polyline_doc(poly.level, [], metadata)).partition(empty)
    fp.write(head + '"vertices": [\n')
    v = poly.vertices
    for start in range(0, len(v), _POLYLINE_CHUNK):
        blk = v[start:start + _POLYLINE_CHUNK]
        fmt = _VERTEX_SEP.join([_VERTEX] * len(blk))
        fp.write((_VERTEX_SEP if start else "") + fmt % tuple(blk.ravel().tolist()))
    fp.write("\n  ]" + tail)


def polyline_from_dict(data: dict) -> Polyline:
    level = data.get("level")
    return Polyline(
        np.array(data["vertices"], dtype=float),
        level=None if level is None else int(level),
    )


# ---------------------------------------------------------------------------
# measures


def scale_rows_to_records(rows: Sequence[ScaleRow]) -> list[dict]:
    return [
        {"k": r.k, "dx_k": r.dx_k,
         **{f: _endpoint(getattr(r, f)) for f in _SCALE_NULLABLE}}
        for r in rows
    ]


def scale_rows_from_records(records: Sequence[dict]) -> list[ScaleRow]:
    return [
        ScaleRow(**{**rec, "k": int(rec["k"]),
                    **{f: _from_endpoint(rec[f]) for f in _SCALE_NULLABLE}})
        for rec in records
    ]


def scale_rows_to_csv(rows: Sequence[ScaleRow]) -> str:
    lines = [SCALE_CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [str(r.k)]
                + [
                    fnum(v)
                    for v in (
                        r.dx_k, r.N_k, r.L_k, r.A_k, r.v_k,
                        r.gamma, r.dA_k0, r.dL_k,
                    )
                ]
            )
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# estimator


def measurement_to_dict(result: MeasurementResult) -> dict:
    out = {
        "method": result.method,
        "rows": [
            {"k": r.k, "dx": r.dx, "count": r.count, "length": r.length}
            for r in result.rows
        ],
    }
    if result.fit is not None:
        out["fit"] = {
            "ds_hat": result.fit.ds_hat,
            "intercept": result.fit.intercept,
            "r2": result.fit.r2,
            "k_fit_range": list(result.fit.k_fit_range),
        }
    else:
        out["fit"] = None
    return out


def measurement_from_dict(data: dict) -> MeasurementResult:
    rows = tuple(
        MeasurementRow(
            k=int(r["k"]), dx=r["dx"], count=r["count"], length=r["length"]
        )
        for r in data["rows"]
    )
    fit = None
    if data.get("fit") is not None:
        f = data["fit"]
        fit = DimensionFit(
            ds_hat=f["ds_hat"],
            intercept=f["intercept"],
            r2=f["r2"],
            k_fit_range=tuple(f["k_fit_range"]),
        )
    return MeasurementResult(method=data["method"], rows=rows, fit=fit)


def measurement_to_csv(result: MeasurementResult) -> str:
    lines = [MEASUREMENT_CSV_HEADER]
    for r in result.rows:
        lines.append(
            ",".join([str(r.k), fnum(r.dx), fnum(r.count), fnum(r.length)])
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# kinematics


def bounds_report_to_dict(report: BoundsReport) -> dict:
    return {
        "spec": report.spec_name,
        "ds": report.ds,
        "eta0": report.eta0,
        "rows": [
            {
                "k": r.k,
                "product": _endpoint(r.product),
                "lower": r.lower,
                "upper": _endpoint(r.upper),
                "pass": r.passed,
            }
            for r in report.rows
        ],
        "preconditions": {"k_min": report.k_min, "rho_ge_2": report.rho_ge_2},
    }


def bounds_report_from_dict(data: dict) -> BoundsReport:
    rows = tuple(
        BoundsRow(
            k=int(r["k"]),
            product=_from_endpoint(r["product"]),
            lower=r["lower"],
            upper=_from_endpoint(r["upper"]),
            passed=bool(r["pass"]),
        )
        for r in data["rows"]
    )
    return BoundsReport(
        spec_name=data["spec"],
        ds=data["ds"],
        eta0=data["eta0"],
        rows=rows,
        k_min=int(data["preconditions"]["k_min"]),
        rho_ge_2=bool(data["preconditions"]["rho_ge_2"]),
    )


def analysis_to_dict(
    spec: GeneratorSpec,
    ctx: ParticleContext,
    regime: RegimeBound,
    scale_rows: Sequence[ScaleRow],
    uncertainty: Sequence[UncertaintyRow],
    bounds: BoundsReport | None,
) -> dict:
    """The `analyze` bundle; `bounds` is None when no scale k >= 1 was asked for."""
    return {
        "spec": spec_to_dict(spec),
        "similarity_dimension": spec.ds,
        "context": {
            "m": ctx.m, "dt": ctx.dt, "L0": ctx.L0,
            "V0": ctx.V0, "E0": ctx.E0, "eta0": ctx.eta0,
        },
        "regime": {
            "regime": regime.regime,
            "lower": regime.lower,
            "upper": _endpoint(regime.upper),
            "lower_strict": regime.lower_strict,
            "upper_strict": regime.upper_strict,
        },
        "scales": scale_rows_to_records(scale_rows),
        "uncertainty": [
            {"k": r.k, "dV_k": _endpoint(r.dV_k), "dP_k": _endpoint(r.dP_k),
             "regime": r.regime}
            for r in uncertainty
        ],
        "bounds": None if bounds is None else bounds_report_to_dict(bounds),
    }


# ---------------------------------------------------------------------------
# report files


def dump_json(obj, path: Path | str) -> Path:
    path = Path(path)
    path.write_text(json_text(obj))
    return path
