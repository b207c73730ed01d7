import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

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
    MEASUREMENT_CSV_HEADER,
    SCALE_CSV_HEADER,
    analysis_to_dict,
    bounds_report_from_dict,
    bounds_report_to_dict,
    fnum,
    json_text,
    measurement_from_dict,
    measurement_to_csv,
    measurement_to_dict,
    polyline_from_dict,
    polyline_to_dict,
    scale_rows_from_records,
    scale_rows_to_csv,
    scale_rows_to_records,
    spec_from_dict,
    spec_to_dict,
    write_polyline_json,
)

UNIT_CTX = ParticleContext(m=1.0, dt=1.0, L0=1.0)
ROOT = Path(__file__).resolve().parents[1]


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


CHUNK = serialize._POLYLINE_CHUNK
MAX_FLOAT = 1.7976931348623157e308
EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, MAX_FLOAT, -MAX_FLOAT, 1.0, -7.0, 1e16, 2.0**53)


@settings(deadline=None, max_examples=30)
@given(
    n=st.sampled_from([2, 3, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1]),
    pool=st.lists(st.one_of(st.sampled_from(EDGE_FLOATS),
                            st.floats(allow_nan=False, allow_infinity=False),
                            st.integers(-2**60, 2**60).map(float)),
                  min_size=2, max_size=40),
    seed=st.integers(0, 2**32 - 1),
    level=st.one_of(st.none(), st.integers(0, 12)),
    metadata=st.one_of(st.none(), st.dictionaries(
        st.text(max_size=5), st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                                       st.text(max_size=8), st.lists(st.integers(), max_size=3)),
        max_size=4)),
)
@example(n=CHUNK + 1, pool=list(EDGE_FLOATS), seed=0, level=None,
         metadata={"vertices": [], "seed": 7})
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


def test_spec_round_trip():
    for name in ("line", "koch", "peano"):
        spec = builtin(name)
        back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert back.name == spec.name
        assert back.rho == spec.rho
        assert np.array_equal(back.displacements, spec.displacements)


@pytest.mark.parametrize("displacements", [[[1, 0, 0]] * 3, [1, 1, 1]])
def test_spec_from_dict_refuses_displacements_of_the_wrong_shape(displacements):
    with pytest.raises(ValueError, match=r"displacements must be an \(N, 2\) array"):
        spec_from_dict({"name": "bad", "rho": 3.0, "displacements": displacements})


def test_scale_rows_round_trip_and_csv():
    rows = scale_table(builtin("koch"), 1.0, 1.0, 5)
    records = scale_rows_to_records(rows)
    assert scale_rows_from_records(json.loads(json.dumps(records))) == rows
    csv_text = scale_rows_to_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == SCALE_CSV_HEADER
    assert len(lines) == 7
    # csv carries full float precision
    cells = lines[4].split(",")
    assert float(cells[1]) == rows[3].dx_k
    assert float(cells[6]) == rows[3].gamma


def test_json_text_rejects_non_finite_numbers():
    for x in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            json_text({"x": x})


def test_measurement_round_trip_and_csv():
    poly = refine(base_segment(1.0), builtin("koch"), 4)
    result = measure_polyline(poly, range(1, 5), rho=3.0)
    back = measurement_from_dict(json.loads(json.dumps(measurement_to_dict(result))))
    assert back == result
    lines = measurement_to_csv(result).strip().split("\n")
    assert lines[0] == MEASUREMENT_CSV_HEADER
    assert len(lines) == 5


def test_bounds_report_schema_and_round_trip():
    # peano has an integer rho, cesaro-85 a non-integer one
    for spec in (builtin("peano"), builtin("cesaro", angle_deg=85.0)):
        report = verify_bounds(spec, UNIT_CTX, range(1, 6))
        data = bounds_report_to_dict(report)
        assert set(data) == {"spec", "ds", "eta0", "rows", "preconditions"}
        assert data["preconditions"] == {"k_min": 1, "rho_ge_2": True}
        assert all(set(r) == {"k", "product", "lower", "upper", "pass"} for r in data["rows"])
        back = bounds_report_from_dict(json.loads(json.dumps(data)))
        assert back == report


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
    assert all(r["upper"] is None for r in data["rows"])
    back = bounds_report_from_dict(data)
    assert all(math.isinf(r.upper) for r in back.rows)
    assert back == report


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
    assert bounds_report_from_dict(data) == report


def test_scale_table_past_float_range_round_trips():
    # peano's L_k = 3^k passes float64 at k = 647: null in JSON, inf in CSV
    rows = scale_table(builtin("peano"), 1.0, 1.0, 650)
    records = json.loads(json_text(scale_rows_to_records(rows)))
    for field in ("L_k", "v_k", "dL_k"):
        assert [r[field] is None for r in records[645:]] == [False, False, True, True, True, True]
    assert scale_rows_from_records(records) == rows
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
    records = json.loads(json_text(scale_rows_to_records(rows)))
    for field in ("A_k", "gamma", "dA_k0"):
        assert [r[field] is None for r in records[3179:3183]] == [False, False, True, True]
        assert math.isinf(getattr(rows[-1], field))
    assert scale_rows_from_records(records) == rows
    table = uncertainty_table(spec, UNIT_CTX, 3300)
    bundle = json.loads(json_text(analysis_to_dict(
        spec, UNIT_CTX, classify_regime(spec.ds, UNIT_CTX), rows, table, None)))
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
    assert scale_rows_from_records(bundle["scales"]) == [scale]
    assert bounds_report_from_dict(bundle["bounds"]) == report
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


@settings(deadline=None, max_examples=60)
@given(
    n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1),
    std=st.sampled_from([1e-200, 1e-9, 1.0, 3.7e5, 1e150]),
    shift=st.sampled_from([0.0, -1e-3, 2.0**33, -1e12]),
    width=st.integers(1, 2000), height=st.integers(1, 2000),
)
def test_svg_path_matches_per_vertex_oracle(n, seed, std, shift, width, height):
    # a walk of step std, shifted by a multiple of std away from the origin
    v = brownian_path(n, seed, std).vertices + shift * std
    assume(not np.all(v[1:] == v[:-1], axis=1).any())
    poly = Polyline(v)
    view = render._Viewport(poly, RenderOptions(width=width, height=height))
    assert "".join(render._path_d(poly, view)) == path_d_oracle(poly, view)


def test_svg_documents_match_per_vertex_oracle():
    koch = refine(base_segment(1.0), builtin("koch"), 5)
    cesaro = refine(base_segment(2.5), builtin("cesaro", angle_deg=85.0), 4)
    walk = brownian_path(500, 11, 0.3)
    # 16385 vertices: two full pieces of path data and one more vertex
    koch7 = refine(base_segment(1.0), builtin("koch"), 7)
    assert len(koch7.vertices) == 2 * render._PATH_CHUNK + 1
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


def test_render_rejects_degenerate_extent():
    # a valid Polyline always has positive extent somewhere, so exercise
    # the guard through the viewport with a stub carrying equal vertices
    class Stub:
        vertices = np.zeros((2, 2))

        def bounds(self):
            return (0.0, 0.0, 0.0, 0.0)

    with pytest.raises(ValueError, match="degenerate"):
        render_svg(Stub())


def test_render_panels_requires_input():
    with pytest.raises(ValueError):
        render_panels([])


def test_regime_sweep_report_uses_json_text(tmp_path):
    out = tmp_path / "sweep.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "regime_sweep.py"),
                    "--k-max", "3", "--out", str(out)], env=env, check=True,
                   capture_output=True)
    text = out.read_text()
    assert text == json_text(json.loads(text))
