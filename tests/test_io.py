import dataclasses
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st

from fractalkin import render, serialize
from fractalkin.estimator import (
    DimensionFit,
    MeasurementResult,
    MeasurementRow,
    brownian_path,
    measure_polyline,
)
from fractalkin.geometry import GeneratorSpec, Polyline, base_segment, builtin, refine
from fractalkin.kinematics import (
    BoundsReport,
    BoundsRow,
    ParticleContext,
    UncertaintyRow,
    classify_regime,
    uncertainty_table,
    verify_bounds,
)
from fractalkin.measures import RegimeBound, ScaleRow, scale_table
from fractalkin.render import RenderOptions, render_panels, render_svg
from fractalkin.serialize import (
    analysis_to_dict,
    bounds_report_to_dict,
    fnum,
    json_text,
    measurement_from_dict,
    measurement_to_csv,
    measurement_to_dict,
    polyline_from_dict,
    polyline_to_dict,
    read_polyline_json,
    scale_rows_to_csv,
    spec_from_dict,
    spec_to_dict,
    write_polyline_json,
)

UNIT_CTX = ParticleContext(m=1.0, dt=1.0, L0=1.0)
ROOT = Path(__file__).resolve().parents[1]


def wire(row) -> dict:
    """The JSON record of a report row: its fields in order under their
    own names (`passed` as ``pass``), an infinite float as null."""
    return {"pass" if name == "passed" else name:
            None if isinstance(v, float) and math.isinf(v) else v
            for name, v in dataclasses.asdict(row).items()}


def scale_records(spec: GeneratorSpec, rows) -> list[dict]:
    """The ``scales`` records of the `analyze` bundle of `rows`, read back from its JSON text."""
    bundle = analysis_to_dict(spec, UNIT_CTX, classify_regime(spec, UNIT_CTX), rows, [], None)
    return json.loads(json_text(bundle))["scales"]


def test_fnum_round_trips_floats():
    for x in (1 / 3, 2.0 / 3.0, 1e-300, 123456.789, math.pi, 4.0 / 9.0):
        assert float(fnum(x)) == x


def test_polyline_round_trip():
    poly = refine(base_segment(1.0), builtin("koch"), 3)
    data = polyline_to_dict(poly)
    back = polyline_from_dict(json.loads(json.dumps(data)))
    assert back.level == poly.level
    assert np.array_equal(back.vertices, poly.vertices)


def test_polyline_metadata_block():
    poly = base_segment(1.0)
    data = polyline_to_dict(poly, metadata={"seed": 1, "n": 2, "step_std": 1.0, "prng": "x"})
    assert data["metadata"]["seed"] == 1
    assert polyline_from_dict(data).n_vertices == 2


CHUNK = serialize._CHUNK
MAX_FLOAT = 1.7976931348623157e308
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, MAX_FLOAT, -MAX_FLOAT, 1.0, -7.0, 1e16, 2.0**53)
#: the edge values one polyline can hold together: float max and its
#: negation span more than float64, and `Polyline` refuses that extent
POLYLINE_EDGES = [x for x in EDGE_FLOATS if x != -MAX_FLOAT]


def fitting(pool: list[float]) -> list[float]:
    """`pool`, halved where its spread overflows float64, so that any
    polyline drawn from it has an extent that `Polyline` takes."""
    return pool if max(pool) - min(pool) < math.inf else [x / 2 for x in pool]


@settings(deadline=None, max_examples=30)
@given(
    n=st.sampled_from([2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]),
    pool=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                            st.floats(allow_nan=False, allow_infinity=False),
                            st.integers(-2**60, 2**60).map(float)),
                  min_size=2, max_size=40).map(fitting),
    seed=st.integers(0, 2**32 - 1),
    level=st.one_of(st.none(), st.integers(0, 12)),
    metadata=st.one_of(st.none(), st.dictionaries(
        st.text(max_size=5), st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                                       st.text(max_size=8), st.lists(st.integers(), max_size=3)),
        max_size=4)),
)
@example(n=CHUNK + 1, pool=POLYLINE_EDGES, seed=0, level=None,
         metadata={"vertices": [], "seed": 7})
@example(n=CHUNK + 1, pool=[-x for x in POLYLINE_EDGES], seed=0, level=None, metadata=None)
def test_streamed_polyline_json_matches_json_text(n, pool, seed, level, metadata):
    # vertex counts at either side of every chunk seam, coordinates drawn
    # from a pool of edge values (signed zero, subnormal, float max, integral)
    rng = np.random.default_rng(seed)
    v = np.array(pool)[rng.integers(0, len(pool), size=(n, 2))]
    dup = np.all(v[1:] == v[:-1], axis=1)
    v[1:][dup] = np.column_stack([np.flatnonzero(dup) + 0.5, -np.flatnonzero(dup) - 0.25])
    assume(not np.all(v[1:] == v[:-1], axis=1).any())
    poly = Polyline(v, level=level)
    fp = io.StringIO()
    write_polyline_json(poly, fp, metadata)
    assert fp.getvalue() == json_text(polyline_to_dict(poly, metadata))


class _Discard:
    """A text stream that keeps nothing written to it."""

    def write(self, text):
        pass

    def writelines(self, pieces):
        for _ in pieces:
            pass


def _traced_peak(fn, *args) -> int:
    """The tracemalloc peak, in bytes, of ``fn(*args)``."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _reads_alike(path: Path, slab: int) -> None:
    """`read_polyline_json` reads `path`, with slabs of `slab` bytes, as the
    whole document reads: the same vertex bytes and level, or the same error."""
    with mock.patch.object(serialize, "_SLAB", slab):
        try:
            expected = polyline_from_dict(json.loads(path.read_bytes()))
        except ValueError as exc:
            with pytest.raises(type(exc)) as got:
                read_polyline_json(path)
            assert str(got.value) == str(exc)
            return
        got = read_polyline_json(path)
    assert got.level == expected.level
    assert got.vertices.tobytes() == expected.vertices.tobytes()


def _layouts(poly: Polyline, metadata: dict | None) -> dict[str, str]:
    """The text of a polyline document in the writer's layout and in others."""
    fp = io.StringIO()
    write_polyline_json(poly, fp, metadata)
    doc = polyline_to_dict(poly, metadata)
    return {
        "writer": fp.getvalue(),
        "one-line": json.dumps(doc),
        "indent-4": json.dumps(doc, indent=4),
        "compact": json.dumps(doc, separators=(",", ":")),
        "crlf": fp.getvalue().replace("\n", "\r\n"),
        "metadata-first": json_text({"metadata": metadata, **doc}),
    }


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 60),
    pool=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                            st.floats(allow_nan=False, allow_infinity=False)),
                  min_size=2, max_size=20).map(fitting),
    seed=st.integers(0, 2**32 - 1),
    level=st.one_of(st.none(), st.integers(-3, 12)),
    metadata=st.one_of(st.none(), st.dictionaries(
        st.text(max_size=5), st.one_of(st.integers(), st.text(max_size=8),
                                       st.sampled_from(["vertices", "],", "\n  ]"]),
                                       st.lists(st.floats(allow_nan=False,
                                                          allow_infinity=False), max_size=3)),
        max_size=4)),
    slab=st.one_of(st.integers(1, 400), st.just(serialize._SLAB)),
)
@example(n=2, pool=[0.0, 1.0], seed=0, level=None, metadata=None, slab=1)
@example(n=60, pool=POLYLINE_EDGES, seed=1, level=3,
         metadata={"vertices": "],", "x": "\n  ]", "y": [1.0]}, slab=1)
@example(n=60, pool=[-x for x in POLYLINE_EDGES], seed=1, level=None, metadata=None, slab=1)
def test_read_polyline_json_reads_any_layout_as_the_whole_document(
        n, pool, seed, level, metadata, slab):
    # slabs of 1 to 400 bytes cut the block after every row or every few
    # rows; the writer's own layout must take the slab path
    rng = np.random.default_rng(seed)
    v = np.array(pool)[rng.integers(0, len(pool), size=(n, 2))]
    dup = np.all(v[1:] == v[:-1], axis=1)
    v[1:][dup] = np.column_stack([np.flatnonzero(dup) + 0.5, -np.flatnonzero(dup) - 0.25])
    assume(not np.all(v[1:] == v[:-1], axis=1).any())
    poly = Polyline(v, level=level)
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in _layouts(poly, metadata).items():
            path = Path(tmp) / f"{name}.json"
            path.write_bytes(text.encode())
            _reads_alike(path, slab)
            if name == "writer":
                assert _takes_slab_path(path.read_bytes())


def _hostile() -> dict[str, str]:
    """Documents near the writer's layout that its slab path must not misread."""
    fp = io.StringIO()
    write_polyline_json(Polyline([[0.0, 0.0], [1.5, -0.5], [2.0, 0.25]], level=1), fp,
                        {"note": "vertices", "cut": "],", "end": "\n  ]"})
    text = fp.getvalue()
    fp = io.StringIO()
    write_polyline_json(Polyline([[0.0, 0.0], [1.5, -0.5]]), fp)
    two = fp.getvalue()
    out = {
        "strings-in-metadata": text,
        "nested-vertices-first": text.replace(
            '"level": 1,', '"meta": {"vertices": [[9.0, 9.0], [8.0, 8.0]]},\n  "level": 1,'),
        "duplicate-vertices-empty": text.replace("\n}\n", ',\n  "vertices": []\n}\n'),
        "duplicate-vertices-escaped": text.replace("\n}\n", ',\n  "vert\\u0069ces": []\n}\n'),
        "duplicate-level": text.replace("\n}\n", ',\n  "level": 2.5\n}\n'),
        "bool-level": text.replace('"level": 1', '"level": true'),
        "empty-block": '{\n  "level": 1,\n  "vertices": [\n  ]\n}\n',
        "empty-list": '{\n  "level": 1,\n  "vertices": []\n}\n',
        "trailing-garbage": text + "x",
        "trailing-comma": text.replace("\n    ]\n  ]", "\n    ],\n  ]"),
        # rows that the "]," count does not see: read whole
        "spaced-separator": two.replace("],\n    [", "] ,\n    ["),
        # a row parsed whole before the last cut, then an empty slab
        "spaced-separator-trailing-comma":
            two.replace("],\n    [", "] ,\n    [").replace("\n    ]\n  ]", "\n    ],\n  ]"),
        "short-row": text.replace("[\n      1.5,\n      -0.5\n    ]", "[1.5]"),
        "long-row": text.replace("[\n      1.5,\n      -0.5\n    ]", "[1.5, -0.5, 0.0]"),
        "nested-row": text.replace("[\n      1.5,\n      -0.5\n    ]", "[[1.5, -0.5]]"),
        "non-ascii-metadata": text.replace('"note": "vertices"', '"note": "v\u00e9rtices"'),
        # near-writer documents: each reads alike whole, and its bytes
        # around the rows are not the writer's for its level and metadata
        "no-final-newline": text[:-1],
        "null-metadata": two.replace("\n}\n", ',\n  "metadata": null\n}\n'),
        "extra-key": text.replace("\n}\n", ',\n  "extra": 1\n}\n'),
        "metadata-reindented": text.replace('\n    "', '\n   "'),
        "non-ascii-key": text.replace('"note"', '"n\u00f6te"'),
        # the first "vertices" key is nested in the level: read whole, so the
        # error names the level that json.loads reads, rows and all
        "rows-in-nested-level": two.replace('"level": null,\n  "vertices": [',
                                            '"level": {\n    "vertices": [')
                                   .replace("\n  ]\n}", '\n  ]\n  },\n  "vertices": []\n}'),
        "nested-level": text.replace('"level": 1', '"level": {\n    "vertices": []\n  }'),
    }
    for name, token in [("int", "2"), ("bool", "true"), ("string", '"1.5"'), ("null", "null"),
                        ("nan", "NaN"), ("infinity", "Infinity"), ("overflow", "1e999"),
                        ("inexact-int", "9007199254740993")]:
        out[f"{name}-coordinate"] = text.replace("      1.5,", f"      {token},")
    # texts that float() reads as numbers and JSON refuses: once, and twice
    # in one row, so twice in one slab however the block is cut
    for name, token in [("trailing-point", "1."), ("leading-point", ".5"), ("plus", "+1"),
                        ("leading-zero", "01"), ("underscore", "1_0"), ("inf", "inf"),
                        ("nan", "nan"), ("arabic-indic-digit", "\u0661")]:
        out[f"float-only-{name}"] = text.replace("      1.5,", f"      {token},")
        out[f"float-only-{name}-repeated"] = text.replace(
            "[\n      1.5,\n      -0.5\n    ]", f"[\n      {token},\n      {token}\n    ]")
    return out


HOSTILE = _hostile()


@pytest.mark.parametrize("slab", [1, 16, serialize._SLAB])
@pytest.mark.parametrize("name", list(HOSTILE))
def test_read_polyline_json_reads_hostile_documents_as_the_whole_document(tmp_path, name, slab):
    path = tmp_path / "poly.json"
    path.write_bytes(HOSTILE[name].encode())
    _reads_alike(path, slab)


def _takes_slab_path(data: bytes) -> bool:
    """Whether `read_polyline_json` reads the text `data` slab by slab."""
    try:
        return serialize._writer_layout(io.BytesIO(data)) is not None
    except Exception:  # read_polyline_json reads these whole
        return False


def test_read_polyline_json_takes_the_slab_path_only_where_it_reads_the_same():
    taken = {name for name, text in HOSTILE.items() if _takes_slab_path(text.encode())}
    assert taken == {"strings-in-metadata", "bool-level", "nested-level", "int-coordinate",
                     "nan-coordinate", "infinity-coordinate", "overflow-coordinate",
                     "inexact-int-coordinate"}


def test_read_polyline_json_holds_less_than_the_file(tmp_path):
    # the file is read a slab at a time, never whole: Koch L8's 4.3 MB file
    # reads in the memory of its 1 MB of vertices and their copy in Polyline
    poly = refine(base_segment(1.0), builtin("koch"), 8)
    path = tmp_path / "koch8.json"
    with path.open("w") as fp:
        write_polyline_json(poly, fp)
    assert _traced_peak(read_polyline_json, path) < path.stat().st_size


def test_spec_round_trip():
    for name in ("line", "koch", "peano"):
        spec = builtin(name)
        back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert back.name == spec.name
        assert back.rho == spec.rho
        assert np.array_equal(back.displacements, spec.displacements)


@pytest.mark.parametrize("displacements", [[[1, 0, 0]] * 3, [1, 1, 1], [[1, 0], [1, 0], [1]]])
def test_spec_from_dict_refuses_displacements_of_the_wrong_shape(displacements):
    with pytest.raises(ValueError, match=r"displacements must be an \(N, 2\) array"):
        spec_from_dict({"name": "bad", "rho": 3.0, "displacements": displacements})


def test_scale_rows_round_trip_and_csv():
    rows = scale_table(builtin("koch"), 1.0, 1.0, 5)
    assert scale_records(builtin("koch"), rows) == [wire(r) for r in rows]
    csv_text = scale_rows_to_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "k,dx_k,N_k,L_k,A_k,v_k,gamma,dA_k0,dL_k"
    assert len(lines) == 7
    # csv carries full float precision
    cells = lines[4].split(",")
    assert float(cells[1]) == rows[3].dx_k
    assert float(cells[6]) == rows[3].gamma


# scalars of a JSON document: bool before int, signed zero, subnormal and
# huge floats, strings with quotes, backslashes, NUL, % and non-ASCII
JSON_TEXT = st.one_of(st.text(max_size=4),
                      st.text(st.sampled_from('"\\%\x00\n/aé€\U0001f600'), max_size=6))
JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70), st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=False, allow_infinity=False), JSON_TEXT)


@st.composite
def record_lists(draw):
    """A list of flat records, or a near miss that must take the generic
    path: one record with its keys reordered, another key set, a nested
    value, or a record that is not a dict."""
    keys = draw(st.lists(JSON_TEXT, min_size=1, max_size=4, unique=True))
    records = [{key: draw(JSON_SCALARS) for key in keys}
               for _ in range(draw(st.integers(1, 4)))]
    i = len(records) - 1
    miss = draw(st.sampled_from([None, None, "order", "keys", "nested", "not-dict"]))
    if miss == "order":
        records[i] = dict(reversed(records[i].items()))
    elif miss == "keys":
        records[i] = {**records[i], draw(JSON_TEXT): draw(JSON_SCALARS)}
    elif miss == "nested":
        records[i][keys[0]] = draw(st.sampled_from([[], {}, [1.5], {"a": None}]))
    elif miss == "not-dict":
        records[i] = draw(st.sampled_from([[], {}, 0.5, [records[i]]]))
    return records


JSON_DOCS = st.recursive(
    st.one_of(JSON_SCALARS, record_lists()),
    lambda children: st.one_of(
        st.lists(children, max_size=4), st.lists(children, max_size=3).map(tuple),
        st.dictionaries(JSON_TEXT, children, max_size=4),
        st.dictionaries(st.one_of(st.integers(), st.booleans()), children, max_size=2)),
    max_leaves=12)


@settings(deadline=None, max_examples=400)
@given(doc=JSON_DOCS)
@example(doc={"rows": [{"k": 1, "x": -0.0, "ok": True, "s": 'a"\\é%s'}] * 3, "e": [[], {}]})
@example(doc=[{"a": 1, "b": 2.5}, {"b": 3.5, "a": 4}])
def test_json_text_matches_the_indented_encoder(doc):
    assert json_text(doc) == json.dumps(doc, indent=2, allow_nan=False) + "\n"


def test_json_text_rejects_non_finite_numbers():
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            json_text({"x": x})


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("wrap", [
    lambda x: [{"k": 1, "x": x}],
    lambda x: {"rows": [{"k": 1, "s": "nan", "x": 0.5}, {"k": 2, "s": "inf", "x": x}]},
    lambda x: [[{"x": x}], {"deep": [[{"a": None, "x": x}]]}],
], ids=["record", "second-record", "deep-record"])
def test_json_text_rejects_non_finite_numbers_in_records(x, wrap):
    with pytest.raises(ValueError):
        json.dumps(wrap(x), indent=2, allow_nan=False)
    with pytest.raises(ValueError):
        json_text(wrap(x))


def test_measurement_round_trip_and_csv():
    poly = refine(base_segment(1.0), builtin("koch"), 4)
    result = measure_polyline(poly, range(1, 5), rho=3.0)
    back = measurement_from_dict(json.loads(json.dumps(measurement_to_dict(result))))
    assert back == result
    lines = measurement_to_csv(result).strip().split("\n")
    assert lines[0] == "k,dx,count,length"
    assert len(lines) == 5


def test_bounds_report_schema_and_round_trip():
    # peano has an integer rho, cesaro-85 a non-integer one
    for spec in (builtin("peano"), builtin("cesaro", angle_deg=85.0)):
        report = verify_bounds(spec, UNIT_CTX, range(1, 6))
        data = bounds_report_to_dict(report)
        assert set(data) == {"spec", "ds", "eta0", "rows", "preconditions"}
        assert data["preconditions"] == {"k_min": 1, "rho_ge_2": True}
        assert json.loads(json.dumps(data)) == {
            "spec": report.spec_name, "ds": report.ds, "eta0": report.eta0,
            "rows": [wire(r) for r in report.rows],
            "preconditions": {"k_min": 1, "rho_ge_2": True}}
        assert list(data["rows"][0]) == ["k", "product", "lower", "upper", "pass"]


def test_bounds_report_infinite_upper_serializes_null():
    disp = np.array(
        [[1.0, 0.0]] * 2 + [[0.0, 1.0], [0.0, -1.0]] * 3 + [[1.0, 0.0]]
    )
    # rho=3, N=9 would be peano; build a D_s>2 spec instead: rho=2, N=8
    disp = np.array(
        [[1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.0, 1.0], [0.0, -1.0],
         [0.0, 1.0], [0.0, -1.0], [1.0, 0.0]]
    )
    spec = GeneratorSpec("super8", 2.0, disp)
    assert spec.ds == pytest.approx(3.0, abs=1e-12)
    report = verify_bounds(spec, UNIT_CTX, range(1, 4))
    data = bounds_report_to_dict(report)
    assert all(math.isinf(r.upper) for r in report.rows)
    assert all(r["upper"] is None for r in data["rows"])
    assert data["rows"] == [wire(r) for r in report.rows]


def test_bounds_report_product_past_float_range():
    # rho = 2, N = 5: 2 eta0 gamma(k) = (5/4)^k - 2^-k passes float64 at
    # k = 3181; the rows are still decided exactly, and the product is inf
    # in memory and null on the wire
    h = math.sqrt(0.75)
    disp = np.array([[1.0, 0.0]] * 3 + [[-0.5, h], [-0.5, -h]])
    report = verify_bounds(GeneratorSpec("super-2-5", 2.0, disp), UNIT_CTX, range(3180, 3191))
    assert report.all_passed
    assert [math.isinf(row.product) for row in report.rows] == [False] + [True] * 10
    data = json.loads(json_text(bounds_report_to_dict(report)))
    assert [r["product"] is None for r in data["rows"]] == [False] + [True] * 10
    assert data["rows"] == [wire(r) for r in report.rows]


def test_scale_table_past_float_range_round_trips():
    # peano's L_k = 3^k passes float64 at k = 647: null in JSON, inf in CSV
    rows = scale_table(builtin("peano"), 1.0, 1.0, 650)
    records = scale_records(builtin("peano"), rows)
    for field in ("L_k", "v_k", "dL_k"):
        assert [r[field] is None for r in records[645:]] == [False, False, True, True, True, True]
    assert records == [wire(r) for r in rows]
    last = scale_rows_to_csv(rows).strip().split("\n")[-1].split(",")
    assert last[3] == last[5] == last[8] == "inf"


def super_2_5():
    # rho = 2, N = 5: D_s = log2 5 > 2
    h = math.sqrt(0.75)
    disp = np.array([[1.0, 0.0]] * 3 + [[-0.5, h], [-0.5, -h]])
    return GeneratorSpec("super-2-5", 2.0, disp)


def test_super_regime_tables_past_float_range_round_trip():
    # rho^(k (D_s - 2)) = 2^(0.3219 k) passes float64 at k = 3181: A_k,
    # gamma and dA_k0 (and the uncertainty rows) are inf in memory, null in
    # JSON, and read back as inf
    spec = super_2_5()
    rows = scale_table(spec, 1.0, 1.0, 3300)
    records = scale_records(spec, rows)
    for field in ("A_k", "gamma", "dA_k0"):
        assert [r[field] is None for r in records[3179:3183]] == [False, False, True, True]
        assert math.isinf(getattr(rows[-1], field))
    assert records == [wire(r) for r in rows]
    table = uncertainty_table(spec, UNIT_CTX, 3300)
    bundle = json.loads(json_text(analysis_to_dict(
        spec, UNIT_CTX, classify_regime(spec, UNIT_CTX), rows, table, None)))
    for field in ("dV_k", "dP_k"):
        assert [r[field] is None for r in bundle["uncertainty"][3179:3183]] == [False, False, True, True]
    assert scale_rows_to_csv(rows).strip().split("\n")[-1].split(",")[5] == "inf"


def _float_fields(cls):
    return [f.name for f in dataclasses.fields(cls) if f.type == "float"]


def test_every_infinite_float_field_writes_null_and_reads_back_inf():
    # one row of each serialized row type, every float field inf
    def inf_row(cls, **rest):
        return cls(**dict.fromkeys(_float_fields(cls), math.inf), **rest)

    scale = inf_row(ScaleRow, k=1)
    unc = inf_row(UncertaintyRow, k=1, regime="super")
    bound = inf_row(BoundsRow, k=1, passed=True)
    regime = inf_row(RegimeBound, regime="super", lower_strict=True, upper_strict=True)
    report = BoundsReport("s", 2.5, 0.5, (bound,), 1, True)
    meas = MeasurementResult("grid", (inf_row(MeasurementRow, k=1),),
                             inf_row(DimensionFit, k_fit_range=(1, 2)))
    bundle = json.loads(json_text(analysis_to_dict(
        builtin("koch"), UNIT_CTX, regime, [scale], [unc], report)))
    data = json.loads(json_text(measurement_to_dict(meas)))
    for rec, row in ((bundle["scales"][0], scale), (bundle["uncertainty"][0], unc),
                     (bundle["regime"], regime), (bundle["bounds"]["rows"][0], bound),
                     (data["rows"][0], meas.rows[0]), (data["fit"], meas.fit)):
        names = _float_fields(type(row))
        assert names and all(rec[name] is None for name in names), type(row).__name__
    assert bundle["scales"] == [wire(scale)]
    assert bundle["bounds"]["rows"] == [wire(bound)]
    assert measurement_from_dict(data) == meas


def test_super_regime_area_with_small_l0_stays_finite():
    # the power overflows but L0^2 rho^(k (D_s - 2)) = L0^2 (5/4)^k does not
    spec, l0, k = super_2_5(), 1e-100, 3300
    row = scale_table(spec, l0, 1.0, k)[-1]
    exact = float(Fraction(l0) ** 2 * Fraction(5, 4) ** k)
    assert math.isinf(row.gamma)
    assert row.A_k == row.dA_k0 == pytest.approx(exact, rel=1e-10)
    ctx = ParticleContext(m=1.0, dt=1.0, L0=l0)
    dv = uncertainty_table(spec, ctx, k)[-1].dV_k
    assert dv == pytest.approx(exact, rel=1e-10)


# ---------------------------------------------------------------------------
# SVG rendering


def path_d_oracle(poly, view):
    """The per-vertex path writer that the vectorised `_path_d` replaced."""
    parts = []
    for i, (x, y) in enumerate(poly.vertices):
        px, py = view.to_px(float(x), float(y))
        parts.append(f"{'M' if i == 0 else 'L'}{fnum(px)} {fnum(py)}")
    return "".join(parts)


def rendered_by_oracle(fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(render, "_path_d", lambda poly, view: [path_d_oracle(poly, view)])
        return fn(*args)


# repeats, signed zero, a subnormal and a huge value: few distinct pixels
SVG_POOL = (0.0, -0.0, 5e-324, 1.0, -2.5, 1.0 / 3.0, 1e300)


@settings(deadline=None, max_examples=60)
@given(
    n=st.one_of(st.integers(2, 300),
                st.sampled_from([CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])),
    seed=st.integers(0, 2**32 - 1),
    std=st.one_of(st.none(), st.sampled_from([1e-200, 1e-9, 1.0, 3.7e5, 1e150])),
    shift=st.sampled_from([0.0, -1e-3, 2.0**33, -1e12]),
    width=st.integers(1, 2000), height=st.integers(1, 2000),
)
# vertices 0 and 5e-324 on one axis, flat on the other: refused, not a division by zero
@example(n=2, seed=247, std=None, shift=0.0, width=1, height=1)
def test_svg_path_matches_per_vertex_oracle(n, seed, std, shift, width, height):
    if std is None:
        # vertices drawn from SVG_POOL, mostly repeated pixel coordinates
        v = np.array(SVG_POOL)[np.random.default_rng(seed).integers(0, len(SVG_POOL), (n, 2))]
        dup = np.flatnonzero(np.all(v[1:] == v[:-1], axis=1))
        v[dup + 1] = np.column_stack([dup + 0.5, -dup - 0.25])
    else:
        # a walk of step std, shifted by a multiple of std away from the origin
        v = brownian_path(n, seed, std).vertices + shift * std
    assume(not np.all(v[1:] == v[:-1], axis=1).any())
    poly = Polyline(v)
    try:
        view = render._Viewport(poly, RenderOptions(width=width, height=height))
    except ValueError as exc:
        assert "cannot be drawn" in str(exc)
        reject()
    assert "".join(render._path_d(poly, view)) == path_d_oracle(poly, view)


def counting(convert):
    """`convert`, and the list of the values it was called with."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return convert(x)

    return wrapped, calls


def test_format_once_converts_each_distinct_value_once():
    koch = refine(base_segment(1.0), builtin("koch"), 5).vertices
    view = render._Viewport(Polyline(koch), RenderOptions())
    px = np.column_stack(view.to_px(koch[:, 0], koch[:, 1]))
    edges = np.array([[0.0, -0.0], [5e-324, MAX_FLOAT], [-0.0, 0.0], [MAX_FLOAT, 5e-324]])
    for values, convert in ((koch, float.__repr__), (px, "%.17g".__mod__),
                            (edges, float.__repr__)):
        wrapped, calls = counting(convert)
        texts = serialize._format_once(values, wrapped)
        assert texts.tolist() == [[convert(x), convert(y)] for x, y in values.tolist()]
        bits = [b.tobytes() for b in values.ravel()]
        assert sorted(b.tobytes() for b in np.array(calls)) == sorted(set(bits))
    assert serialize._format_once(edges, repr).tolist()[0] == ["0.0", "-0.0"]
    # a walk's coordinates are all distinct: each block is formatted directly
    wrapped, calls = counting(float.__repr__)
    assert serialize._format_once(brownian_path(1000, 3, 1.0).vertices, wrapped) is None
    assert calls == []


def _mixed_block(kind: str, m: int, rng) -> np.ndarray:
    """m vertices whose 2m coordinates are few ("repeat"), exactly m
    ("half") or m + 1 ("half+1") distinct values, or all distinct; each
    kind holds both 0.0 and -0.0 where m >= 2."""
    if kind == "repeat":
        v = np.array([0.0, -0.0, 1.0, 1.0 / 3.0, -2.5])[rng.integers(0, 5, (m, 2))]
        dup = np.flatnonzero(np.all(v[1:] == v[:-1], axis=1))
        v[dup + 1] = np.column_stack([dup + 0.5, -dup - 0.25])
        return v
    r = rng.standard_normal(m)
    r[:2] = (0.0, -0.0)[:m]
    if kind == "distinct":
        return np.column_stack([r, rng.standard_normal(m)])
    v = np.column_stack([r, rng.permutation(r)])
    if kind == "half+1":
        v[-1, 1] = 7.5
    return v


@settings(deadline=None, max_examples=20)
@given(
    kinds=st.lists(st.sampled_from(["repeat", "distinct", "half", "half+1"]),
                   min_size=1, max_size=4),
    tail=st.one_of(st.just(0), st.just(1), st.integers(2, CHUNK - 1)),
    seed=st.integers(0, 2**32 - 1),
)
@example(kinds=["repeat", "repeat", "distinct"], tail=1, seed=0)
@example(kinds=["distinct", "half", "half+1", "repeat"], tail=3, seed=1)
def test_writers_decide_format_once_per_block(kinds, tail, seed):
    # each block of CHUNK vertices of its own kind, then `tail` more of the
    # last kind: the JSON and SVG writers format each block from its own
    # distinct values, or directly, to the bytes of the per-vertex oracles
    rng = np.random.default_rng(seed)
    blocks = [(kind, CHUNK) for kind in kinds] + ([(kinds[-1], tail)] if tail else [])
    v = np.concatenate([_mixed_block(kind, m, rng) for kind, m in blocks])
    assume(not np.all(v[1:] == v[:-1], axis=1).any())
    poly = Polyline(v)
    decided, format_once = [], serialize._format_once

    def recorded(values, convert):
        texts = format_once(values, convert)
        decided.append(texts is not None)
        return texts

    with mock.patch.object(serialize, "_format_once", recorded):
        fp = io.StringIO()
        write_polyline_json(poly, fp)
    assert fp.getvalue() == json.dumps(polyline_to_dict(poly), indent=2) + "\n"
    # one decision per block, by its own share of distinct bit patterns
    bits = v.view(np.int64)
    assert decided == [2 * len(np.unique(bits[i:i + CHUNK])) <= bits[i:i + CHUNK].size
                       for i in range(0, len(v), CHUNK)]
    assert decided[:len(kinds)] == [kind in ("repeat", "half") for kind in kinds]
    view = render._Viewport(poly, RenderOptions())
    assert "".join(render._path_d(poly, view)) == path_d_oracle(poly, view)


@pytest.mark.parametrize("write", [write_polyline_json, render.write_svg],
                         ids=["json", "svg"])
def test_vertex_writers_hold_one_block_whatever_the_length(write):
    # Koch L6 is half a block of vertices and L8 eight blocks: the writers'
    # memory beyond the vertices is one block's, which does not grow with n
    l6, l8 = (refine(base_segment(1.0), builtin("koch"), level) for level in (6, 8))
    assert _traced_peak(write, l8, _Discard()) < 4 * _traced_peak(write, l6, _Discard())


def test_svg_documents_match_per_vertex_oracle():
    koch = refine(base_segment(1.0), builtin("koch"), 5)
    cesaro = refine(base_segment(2.5), builtin("cesaro", angle_deg=85.0), 4)
    walk = brownian_path(500, 11, 0.3)
    # 16385 vertices: two full pieces of path data and one more vertex
    koch7 = refine(base_segment(1.0), builtin("koch"), 7)
    assert len(koch7.vertices) == 2 * CHUNK + 1
    opts = RenderOptions(width=333, height=211, grid_step=1.0 / 27.0)
    for poly in (koch, cesaro, walk, koch7):
        assert render_svg(poly, opts) == rendered_by_oracle(render_svg, poly, opts)
    polys = [koch, cesaro, walk, base_segment(1.0)]
    panel_opts = RenderOptions(width=200, height=150, grid_step=0.25)
    assert render_panels(polys, panel_opts) == rendered_by_oracle(render_panels, polys, panel_opts)


def test_render_line_level0_single_path():
    svg = render_svg(base_segment(1.0))
    assert svg.startswith("<svg ")
    assert svg.count("<path ") == 1
    d = svg.split('d="')[1].split('"')[0]
    assert d.count("M") == 1 and d.count("L") == 1  # two points


def test_render_koch_level2_with_grid():
    poly = refine(base_segment(1.0), builtin("koch"), 2)
    opts = RenderOptions(width=300, height=200, grid_step=1.0 / 3.0)
    svg = render_svg(poly, opts)
    d = svg.split('d="')[1].split('"')[0]
    assert d.count("L") == 16  # 17 vertices
    assert svg.count("<line ") >= 4  # grid overlay present both axes


def test_render_panels_camera_series():
    koch = builtin("koch")
    polys = [refine(base_segment(1.0), koch, k) for k in (0, 1, 2)]
    svg = render_panels(polys, RenderOptions(width=200, height=150))
    assert svg.count("<path ") == 3
    assert svg.count("<g transform=") == 3


def test_render_byte_deterministic():
    poly = refine(base_segment(1.0), builtin("koch"), 3)
    opts = RenderOptions(grid_step=1.0 / 9.0)
    assert render_svg(poly, opts) == render_svg(poly, opts)


def test_render_options_validation():
    with pytest.raises(ValueError):
        RenderOptions(width=0)
    with pytest.raises(ValueError):
        RenderOptions(stroke_width=0.0)
    with pytest.raises(ValueError):
        RenderOptions(grid_step=-1.0)


def test_render_refuses_a_zero_extent_as_a_scale_that_is_not_finite():
    # a valid Polyline always has positive extent somewhere, so a stub with
    # equal vertices stands in: its zero spans make the pixel scale inf,
    # which the one scale check refuses, with no guard of its own
    class Stub:
        vertices = np.zeros((2, 2))

        def bounds(self):
            return (0.0, 0.0, 0.0, 0.0)

    with pytest.raises(ValueError, match="^polyline extent 0.0 cannot be drawn"):
        render_svg(Stub())


@pytest.mark.parametrize("l0,level", [(1.7e308, 1), (1e-310, 1), (5e-324, 0)],
                         ids=["1.7e+308", "1e-310", "5e-324"])
def test_render_refuses_a_scale_that_is_not_finite(l0, level):
    # the padded span overflows (scale 0, offsets nan), or width / span
    # does (scale inf): the path data read "Mnan nan" or "Minf ...";
    # a 5e-324 segment pads its flat axis to a zero span (ZeroDivisionError)
    poly = refine(base_segment(l0), builtin("koch"), level)
    with pytest.raises(ValueError, match="cannot be drawn"):
        render_svg(poly)
    with pytest.raises(ValueError, match="cannot be drawn"):
        render_panels([base_segment(1.0), poly])


def test_render_refuses_a_grid_overlay_past_the_line_cap(monkeypatch):
    # one <line> per multiple of the step, with no bound; Koch L1 draws
    # exactly 100 lines at step 0.015 and 299 at step 0.005
    koch1 = refine(base_segment(1.0), builtin("koch"), 1)
    exact = render_svg(koch1, RenderOptions(grid_step=0.015))
    assert exact.count("<line ") == 100
    monkeypatch.setattr(render, "DEFAULT_VERTEX_CAP", 100)
    assert render_svg(koch1, RenderOptions(grid_step=0.015)) == exact
    message = "^grid_step 0.005 is too fine: the overlay would draw more than 100 lines$"
    with pytest.raises(ValueError, match=message):
        render_svg(koch1, RenderOptions(grid_step=0.005))
    with pytest.raises(ValueError, match=message):
        render_panels([koch1], RenderOptions(grid_step=0.005))


def test_write_svg_holds_one_overlay_line_at_a_time():
    # every <line> was built into one list before the first was written:
    # 744,339 lines at step 2e-6 peaked at 140 MB traced
    koch1 = refine(base_segment(1.0), builtin("koch"), 1)
    opts = RenderOptions(grid_step=2e-4)
    with open(os.devnull, "w") as fp:
        peak = _traced_peak(render.write_svg, koch1, fp, opts)
    assert render_svg(koch1, opts).count("<line ") == 7445
    assert peak < 100_000


def _limit_memory() -> None:
    """Cap the address space of a child at 2 GiB: an unbounded overlay
    then ends in MemoryError, not in the host's memory."""
    import resource
    resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the child on Linux")
@pytest.mark.parametrize("step", ["1e-300", "5e-324"])
def test_render_refuses_a_grid_overlay_too_fine_to_count(step):
    # 1e-300 built lines on without end and 5e-324 raised OverflowError
    # from math.ceil; a fresh interpreter with a timeout and a memory cap,
    # so that an unbounded overlay fails the test instead of hanging it
    code = ("from fractalkin.geometry import base_segment, builtin, refine\n"
            "from fractalkin.render import RenderOptions, render_svg\n"
            "koch1 = refine(base_segment(1.0), builtin('koch'), 1)\n"
            f"render_svg(koch1, RenderOptions(grid_step={step}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, preexec_fn=_limit_memory)
    assert proc.returncode == 1
    assert proc.stderr.splitlines()[-1] == (
        f"ValueError: grid_step {step} is too fine: the overlay would draw more than "
        "100000000 lines")


@pytest.mark.parametrize("l0", [1e308, 1e-300])
def test_render_extreme_but_finite_scale(l0):
    svg = render_svg(refine(base_segment(l0), builtin("koch"), 1))
    d = svg.split('d="')[1].split('"')[0]
    coords = [float(c) for c in d[1:].replace("L", " ").split()]
    assert len(coords) == 10 and all(0.0 <= c <= 640.0 for c in coords)


def test_render_panels_requires_input():
    with pytest.raises(ValueError):
        render_panels([])


def test_regime_sweep_report_uses_json_text(tmp_path):
    # the script's default sweep; it exits 1 on any row out of bounds
    out = tmp_path / "sweep.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "regime_sweep.py"),
                    "--k-max", "50", "--out", str(out)], env=env, check=True,
                   capture_output=True)
    text = out.read_text()
    assert text == json_text(json.loads(text))
    assert json.loads(text)["violations"] == []
