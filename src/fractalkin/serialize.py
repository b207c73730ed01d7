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

`_vertex_text` writes the vertex text of both vertex files, the
polyline JSON (`write_polyline_json`) and the SVG path data
(`render.write_svg`), a block of `_CHUNK` vertices at a time, so neither
the document text nor any per-coordinate array beyond the vertices sits
in memory whole.  A self-similar curve's vertices sit on a lattice and
repeat their coordinates: in a block where at most half of them are
distinct, `_format_once` formats each distinct value once.  The bytes
are the same either way.

`read_polyline_json` reads a polyline file back.  A file whose text
around the vertex rows is `write_polyline_json`'s own for its `level` and
`metadata` (`_around`), and whose rows are laid out as `_VERTEX` lays
them out with one JSON number per coordinate (`_read_rows`), is read from
one open file object, its rows `_SLAB` bytes at a time
(`_writer_layout`), its coordinate texts decoded into one flat buffer of
doubles; its memory is one slab's bytes and texts and the float64
vertices, held once.  Any other document goes through
``polyline_from_dict(json.loads(...))`` whole, whose rows `_vertex_array`
checks: it refuses a JSON boolean, string, null or object among the
coordinates, as `_read_rows` does.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterator, Sequence, TextIO

from .geometry import GeneratorSpec, Polyline

if TYPE_CHECKING:  # the writers that build rows import their classes
    from .kinematics import BoundsReport, ParticleContext, UncertaintyRow
    from .measures import DimensionFit, MeasurementResult, MeasurementRow, RegimeBound, ScaleRow

#: vertices formatted per block by `_vertex_text`
_CHUNK = 8192

#: bytes of vertex text parsed at a time by `_writer_layout`
_SLAB = 1 << 16

# the vertex key line and the end of the vertex block, as json_text lays
# them out at the top level of a polyline document
_VERTICES = '\n  "vertices": ['
_BLOCK_END = "\n  ]"

# one vertex as json_text lays it out inside "vertices", after the separator
# that ends the vertex before it; %r of a float is the text the JSON encoder writes
_VERTEX = ",\n    [\n      %s,\n      %s\n    ]"

#: JSON keys that differ from the field name (``pass`` is a Python keyword)
_JSON_KEY = {"passed": "pass"}

#: the value types of a flat record, whose lists `json_text` writes from a template
_SCALARS = frozenset({type(None), bool, int, float, str})


def fnum(x: float) -> str:
    """Decimal text with 17 significant digits (lossless for float64)."""
    return format(float(x), ".17g")


def _format_once(values, convert: Callable[[float], str]):
    """The text ``convert(x)`` of every x in the float64 array `values`, as
    an object array of its shape, with `convert` called once per distinct
    value; None when more than half of the values are distinct, where
    formatting each value directly is cheaper.

    Values are distinct by bit pattern, so -0.0 and 0.0 keep their own
    texts.  One sort (`np.unique`) finds them and each value's rank among them.
    """
    import numpy as np

    distinct, rank = np.unique(values.reshape(-1).view(np.int64), return_inverse=True)
    if 2 * distinct.size > values.size:
        return None
    texts = np.array(list(map(convert, distinct.view(np.float64).tolist())), dtype=object)
    return texts[rank].reshape(values.shape)


def json_text(obj) -> str:
    """The JSON text of every JSON output: two-space indent, final newline.

    The bytes are those of ``json.dumps(obj, indent=2, allow_nan=False)``
    plus a newline; a list of flat records is written from a per-row
    template (`_record_rows`), everything else by that call.  Raises
    ValueError on NaN or infinity, which standard JSON cannot hold.
    """
    return _layout(obj, "\n") + "\n"


def _layout(obj, nl: str) -> str:
    """`obj` laid out as by ``json.dumps(obj, indent=2, allow_nan=False)``,
    with `nl` (a newline and obj's own indent) before each of its lines
    after the first.  Descends through str-keyed dicts to reach the lists
    of flat records."""
    inner = nl + "  "
    if type(obj) is dict and obj and all(type(key) is str for key in obj):
        items = [inner + encode_basestring_ascii(key) + ": " + _layout(v, inner)
                 for key, v in obj.items()]
        return "{" + ",".join(items) + nl + "}"
    if type(obj) is list and obj:
        rows = _record_rows(obj, inner)
        if rows is not None:
            return "[" + inner + rows + nl + "]"
    # an encoded JSON string holds no raw newline, so this indents lines only
    return json.dumps(obj, indent=2, allow_nan=False).replace("\n", nl)


def _record_rows(records: list, nl: str) -> str | None:
    """The items of a list of flat records, each record at indent `nl`, or
    None unless every record is a dict with the first one's str keys, in
    its order, and only None/bool/int/float/str values.

    One template per row, built from the first record's keys, is filled
    with every value of the list, each encoded by one compact
    ``json.dumps`` call: float.__repr__ for floats, encode_basestring_ascii
    for strings, ValueError on NaN or infinity.  The NUL separator of that
    call cannot occur inside an encoded value, which escapes it.
    """
    keys = tuple(records[0]) if type(records[0]) is dict else ()
    if (not keys or not all(type(key) is str for key in keys)
            or set(map(type, records)) != {dict} or set(map(tuple, records)) != {keys}):
        return None
    values = list(itertools.chain.from_iterable(map(dict.values, records)))
    if not _SCALARS.issuperset(map(type, values)):
        return None
    cells = json.dumps(values, separators=("\0", ":"), allow_nan=False)[1:-1].split("\0")
    inner = nl + "  "
    fields = [inner + encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in keys]
    row = "{" + ",".join(fields) + nl + "}"
    return ("," + nl).join([row] * len(records)) % tuple(cells)


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


def _csv(cls: type, rows: Sequence) -> str:
    """CSV of `rows`: a header of the field names, then one line per row."""
    schema = _schema(cls)
    lines = [",".join(name for name, _, _ in schema)]
    lines += [",".join([cell(getattr(r, name)) for name, _, cell in schema]) for r in rows]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# geometry


def spec_to_dict(spec: GeneratorSpec) -> dict:
    return {
        "name": spec.name,
        "rho": spec.rho,
        "displacements": [list(d) for d in spec.displacements],
    }


def spec_from_dict(data: dict) -> GeneratorSpec:
    return GeneratorSpec(name=data["name"], rho=data["rho"], displacements=data["displacements"])


def _polyline_doc(level: int | None, vertices: list, metadata: dict | None) -> dict:
    out = {"level": level, "vertices": vertices}
    if metadata is not None:
        out["metadata"] = metadata
    return out


def polyline_to_dict(poly: Polyline, metadata: dict | None = None) -> dict:
    return _polyline_doc(poly.level, poly.vertices.tolist(), metadata)


def write_polyline_json(poly: Polyline, fp: TextIO, metadata: dict | None = None) -> None:
    """Write ``json_text(polyline_to_dict(poly, metadata))`` to `fp`.

    The text around the vertex block comes from `_around` and the
    vertices from `_vertex_text`.  `Polyline` holds finite float64
    vertices only, so float repr gives the encoder's bytes.
    """
    head, tail = _around(poly.level, metadata)
    fp.write(head)
    fp.writelines(_vertex_text(_blocks(poly.vertices), _VERTEX, "%r"))
    fp.write(tail)


def _around(level, metadata: dict | None) -> tuple[str, str]:
    """The text of ``json_text(_polyline_doc(level, rows, metadata))``
    before and after its vertex rows.  Lines below the top level are
    indented further, so the first `_VERTICES` is the top-level key."""
    head, _, tail = json_text(_polyline_doc(level, [], metadata)).partition(_VERTICES + "]")
    return head + _VERTICES, _BLOCK_END + tail


def _blocks(v):
    """The rows of the array `v` in blocks of `_CHUNK`, as views."""
    return (v[start:start + _CHUNK] for start in range(0, len(v), _CHUNK))


def _vertex_text(blocks, row: str, spec: str) -> Iterator[str]:
    """The text of the (m, 2) float64 arrays `blocks`, one piece per
    block: one `row` per vertex, its two %s filled with the vertex's
    coordinates formatted by the %-spec `spec`, and the first character
    of the first row (the separator before it) left out.

    In a block where at most half of the coordinates are distinct, each
    distinct one is formatted once (`_format_once`); any other block is
    formatted from its floats.  Each value's text is the same either way,
    and only one block's texts are held at a time.
    """
    direct = row % (spec, spec)
    cut = 1
    for blk in blocks:
        texts = _format_once(blk, spec.__mod__)
        cells, fmt = (blk, direct) if texts is None else (texts, row)
        yield (fmt * len(blk))[cut:] % tuple(cells.ravel().tolist())
        cut = 0


def polyline_from_dict(data: dict) -> Polyline:
    """The polyline of a JSON object with a `vertices` list and an optional
    integer or null `level`; ValueError, with one line, on anything else."""
    if not isinstance(data, dict) or "vertices" not in data:
        raise ValueError("a polyline must be a JSON object with a 'vertices' list")
    level = _level(data)
    return Polyline(_vertex_array(data["vertices"]), level=level)


def _vertex_array(rows):
    """The (n, 2) float64 array of the decoded JSON vertex list `rows`, a
    non-empty list of two-item lists of ints and floats; ValueError
    otherwise, "vertices must be an (n, 2) array" for any other shape (a
    list among the coordinates is one) and "vertices must be numbers" for
    any other coordinate (a bool, which numpy would read as one, is not).
    The whole-document read checks its rows here; the slab reader takes
    only rows that would pass (`_read_rows`)."""
    import numpy as np

    if (type(rows) is not list or set(map(type, rows)) != {list}
            or set(map(len, rows)) != {2}):
        raise ValueError("vertices must be an (n, 2) array")
    types = set(map(type, itertools.chain.from_iterable(rows)))
    if list in types:
        raise ValueError("vertices must be an (n, 2) array")
    if not types <= {int, float}:
        raise ValueError("vertices must be numbers")
    return np.array(rows, dtype=float)


def _level(doc: dict) -> int | None:
    """The `level` of a polyline document, an integer or None; ValueError otherwise."""
    level = doc.get("level")
    if level is not None and type(level) is not int:  # bool is an int subclass
        raise ValueError(f"polyline level must be an integer or null, got {json.dumps(level)}")
    return level


def read_polyline_json(path: Path | str) -> Polyline:
    """The polyline of the JSON file `path`, read as by
    ``polyline_from_dict(json.loads(Path(path).read_bytes()))``: the same
    vertices and level, or the same ValueError.  The file is UTF-8 (or
    UTF-16 or -32, as json.loads detects), whatever the locale.

    A file that `write_polyline_json` could have written is read a slab
    at a time into one flat buffer of float64 coordinates
    (`_writer_layout`), without that call's bytes and tree of lists and
    floats; any other goes through the whole-document call.
    """
    path = Path(path)
    with path.open("rb") as fp:
        try:
            found = _writer_layout(fp)
        except Exception:  # whatever fails here, the whole-document call judges
            found = None
    if found is None:
        return polyline_from_dict(json.loads(path.read_bytes()))
    doc, vertices = found
    return Polyline(vertices, level=_level(doc))


def _writer_layout(fp):
    """(the document without its vertices, the (n, 2) float64 vertex
    array) of the JSON text in the binary file `fp`, or None unless the
    file is the writer's own bytes around rows that parse alike.

    The rows, from the first `_VERTICES` to the first `_BLOCK_END`, are
    read `_SLAB` bytes at a time and cut just after the last ``],`` read
    so far.  Each slab must be rows in the writer's own layout joined by
    ``,`` (`_read_rows`), so the slabs joined by the commas at their cuts
    are the block; their coordinates go into one `array` of doubles,
    which the vertex array views without a copy.
    """
    from array import array  # an extension module, which the closed-form commands never load

    import numpy as np

    data = fp.read(64)  # the head, with a level of up to 34 digits
    start = data.index(_VERTICES.encode()) + len(_VERTICES)
    end_mark = _BLOCK_END.encode()
    coords = array("d")
    buf = data[start:]
    # the start of a "\n  ]" at the end of buf holds no "],": every "]," in
    # buf lies in the block
    while (end := buf.find(end_mark)) < 0:
        cut = buf.rfind(b"],")
        if cut >= 0:
            if not _read_rows(buf[:cut + 1], coords):
                return None
            buf = buf[cut + 2:]  # past the comma after the cut
        more = fp.read(_SLAB)
        if not more:
            return None
        buf += more
    # a cut just before `end` leaves an empty last slab, refused
    if not _read_rows(buf[:end], coords):
        return None
    rest = data[:start] + buf[end:] + fp.read()
    doc = json.loads(rest)
    if rest != "".join(_around(doc.get("level"), doc.get("metadata"))).encode():
        return None
    return doc, np.frombuffer(coords).reshape(-1, 2)


def _read_rows(slab: bytes, out) -> bool:
    """Append the coordinates of `slab` to the ``array("d")`` `out` if
    `slab` is vertex rows laid out as `_VERTEX` lays them out, joined by
    ``,``, each coordinate one JSON number; return False, appending
    nothing, if not (an empty slab is not).

    The coordinate texts are the runs of bytes between whitespace, commas
    and brackets, and the rows rebuilt from them must be `slab`, byte for
    byte.  One ``json.loads`` decodes the texts, each distinct one once
    where at most half of them are distinct (a lattice curve's repeated
    coordinates; a random walk's are all distinct, and a dict of them
    would cost more than it saves), and must give one int or float per
    text (no bool, string, null, list or object): so every text is one
    JSON number, read as the whole document reads it, and a text that
    ``float`` takes but JSON does not (``1.``, ``+1``, ``inf``) fails here.
    """
    texts = slab.translate(None, b",[]").split()
    rows = len(texts) // 2
    if not texts or len(texts) % 2 or (_VERTEX.encode() * rows)[1:] % tuple(texts) != slab:
        return False
    distinct = dict.fromkeys(texts)
    once = 2 * len(distinct) <= len(texts)  # the writer's rule (`_format_once`)
    keys = distinct if once else texts
    decoded = json.loads(b"[" + b",".join(keys) + b"]")
    if len(decoded) != len(keys) or not {int, float}.issuperset(map(type, decoded)):
        return False
    if once:
        decoded = list(map(dict(zip(distinct, decoded)).__getitem__, texts))
    out.fromlist(decoded)  # an int as float(int) would read it
    return True


# ---------------------------------------------------------------------------
# measures


def scale_rows_to_csv(rows: Sequence[ScaleRow]) -> str:
    from .measures import ScaleRow

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
    from .measures import DimensionFit, MeasurementResult, MeasurementRow

    rows = tuple(_from_record(MeasurementRow, r) for r in data["rows"])
    fit = data.get("fit")
    if fit is not None:
        fit = _from_record(DimensionFit, {**fit, "k_fit_range": tuple(fit["k_fit_range"])})
    return MeasurementResult(method=data["method"], rows=rows, fit=fit)


def measurement_to_csv(result: MeasurementResult) -> str:
    from .measures import MeasurementRow

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
        "scales": [_record(r) for r in scale_rows],
        "uncertainty": [_record(r) for r in uncertainty],
        "bounds": None if bounds is None else bounds_report_to_dict(bounds),
    }


# ---------------------------------------------------------------------------
# report files


def dump_json(obj, path: Path | str) -> Path:
    path = Path(path)
    path.write_text(json_text(obj))
    return path
