"""JSON/CSV serialization for every report and data type.

JSON numbers use Python's shortest round-trip repr and CSV numbers 17
significant digits (`fnum`), so float64 values round-trip exactly either
way; output contains no timestamps or random ids, making every writer
byte-deterministic.  JSON text is laid out by `json_text`, which emits
standard JSON only.

Every report row (a scale row, measurement row and fit, uncertainty row,
bounds row, and the regime block of the `analyze` bundle) is written by
one rule taken from its dataclass: the fields in declared order, under
their own names (`BoundsRow.passed` is ``pass`` on the wire), with any
infinite float as null, since JSON has no Infinity literal; readers map
null back to math.inf.  CSV columns are the same fields, ints written
with `str`, floats with `fnum` (an infinite float as ``inf``).

`write_polyline_json` streams a polyline to a file in the `json_text`
layout, byte for byte, a block of vertices at a time, so the whole vertex
list and text never sit in memory.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
from pathlib import Path
from typing import Callable, Sequence, TextIO

import numpy as np

from .estimator import DimensionFit, MeasurementResult, MeasurementRow
from .geometry import GeneratorSpec, Polyline
from .kinematics import BoundsReport, BoundsRow, ParticleContext, UncertaintyRow
from .measures import RegimeBound, ScaleRow

#: vertices formatted per write by `write_polyline_json`
_POLYLINE_CHUNK = 8192

# one vertex as json_text lays it out inside "vertices"; %r is the float
# repr the JSON encoder writes
_VERTEX = "    [\n      %r,\n      %r\n    ]"
_VERTEX_SEP = ",\n"

#: JSON keys that differ from the field name (``pass`` is a Python keyword)
_JSON_KEY = {"passed": "pass"}


def fnum(x: float) -> str:
    """Decimal text with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


def json_text(obj) -> str:
    """The JSON text of every JSON output: two-space indent, final newline.

    Raises ValueError on NaN or infinity, which standard JSON cannot hold.
    """
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"


# ---------------------------------------------------------------------------
# report rows


@functools.cache
def _schema(cls: type) -> tuple[tuple[str, str, Callable[[object], str]], ...]:
    """(field name, JSON key, CSV cell writer) per field of a row dataclass.

    Resolved once per class: `dataclasses.fields` per row is measurably slow.
    """
    return tuple(
        (f.name, _JSON_KEY.get(f.name, f.name), str if f.type in (int, "int") else fnum)
        for f in dataclasses.fields(cls)
    )


def _record(row) -> dict:
    """The JSON record of a row: every field in order, infinite floats null."""
    out = {}
    for name, key, _ in _schema(type(row)):
        v = getattr(row, name)
        out[key] = None if isinstance(v, float) and math.isinf(v) else v
    return out


def _from_record(cls: type, rec: dict):
    """The reader's half of `_record`: every null back to math.inf."""
    return cls(**{name: math.inf if rec[key] is None else rec[key]
                  for name, key, _ in _schema(cls)})


def _csv_header(cls: type) -> str:
    return ",".join(name for name, _, _ in _schema(cls))


def _csv(cls: type, rows: Sequence) -> str:
    """CSV of `rows`: a header of the field names, then one line per row."""
    schema = _schema(cls)
    lines = [_csv_header(cls)]
    lines += [",".join([cell(getattr(r, name)) for name, _, cell in schema]) for r in rows]
    return "\n".join(lines) + "\n"


SCALE_CSV_HEADER = _csv_header(ScaleRow)
MEASUREMENT_CSV_HEADER = _csv_header(MeasurementRow)


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
    return [_record(r) for r in rows]


def scale_rows_from_records(records: Sequence[dict]) -> list[ScaleRow]:
    return [_from_record(ScaleRow, rec) for rec in records]


def scale_rows_to_csv(rows: Sequence[ScaleRow]) -> str:
    return _csv(ScaleRow, rows)


# ---------------------------------------------------------------------------
# estimator


def measurement_to_dict(result: MeasurementResult) -> dict:
    return {
        "method": result.method,
        "rows": [_record(r) for r in result.rows],
        "fit": None if result.fit is None else _record(result.fit),
    }


def measurement_from_dict(data: dict) -> MeasurementResult:
    rows = tuple(_from_record(MeasurementRow, r) for r in data["rows"])
    fit = data.get("fit")
    if fit is not None:
        fit = _from_record(DimensionFit, {**fit, "k_fit_range": tuple(fit["k_fit_range"])})
    return MeasurementResult(method=data["method"], rows=rows, fit=fit)


def measurement_to_csv(result: MeasurementResult) -> str:
    return _csv(MeasurementRow, result.rows)


# ---------------------------------------------------------------------------
# kinematics


def bounds_report_to_dict(report: BoundsReport) -> dict:
    return {
        "spec": report.spec_name,
        "ds": report.ds,
        "eta0": report.eta0,
        "rows": [_record(r) for r in report.rows],
        "preconditions": {"k_min": report.k_min, "rho_ge_2": report.rho_ge_2},
    }


def bounds_report_from_dict(data: dict) -> BoundsReport:
    return BoundsReport(
        spec_name=data["spec"],
        ds=data["ds"],
        eta0=data["eta0"],
        rows=tuple(_from_record(BoundsRow, r) for r in data["rows"]),
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
        "regime": _record(regime),
        "scales": scale_rows_to_records(scale_rows),
        "uncertainty": [_record(r) for r in uncertainty],
        "bounds": None if bounds is None else bounds_report_to_dict(bounds),
    }


# ---------------------------------------------------------------------------
# report files


def dump_json(obj, path: Path | str) -> Path:
    path = Path(path)
    path.write_text(json_text(obj))
    return path
