import json
import math
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import fractalkin
from fractalkin import estimator, render
from fractalkin.cli import main
from fractalkin.geometry import Polyline, base_segment, builtin, refine
from fractalkin.measures import scale_table
from fractalkin.serialize import (
    json_text,
    polyline_to_dict,
    scale_rows_to_csv,
)

LOG3_4 = math.log(4.0) / math.log(3.0)
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, args, **kwargs):
    return runner.invoke(main, args, catch_exceptions=False, **kwargs)


def split_runner():
    """A runner whose result.stdout holds stdout alone."""
    try:
        return CliRunner(mix_stderr=False)  # click 8.1 mixes stderr in by default
    except TypeError:
        return CliRunner()  # click >= 8.2 always keeps the streams apart


def test_generate_koch_level3_file(runner, tmp_path):
    out = tmp_path / "k3.json"
    res = invoke(runner, ["generate", "--generator", "koch", "--level", "3",
                          "--out", str(out)])
    assert res.exit_code == 0
    data = json.loads(out.read_text())
    assert len(data["vertices"]) == 4**3 + 1
    assert data["level"] == 3


def test_generate_line_stdout_endpoints(runner):
    res = invoke(runner, ["generate", "--generator", "line", "--level", "5"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert len(data["vertices"]) == 3**5 + 1
    assert data["vertices"][0] == [0.0, 0.0]
    assert data["vertices"][-1] == [1.0, 0.0]


STREAM_CASES = {
    # 16,385 vertices: the streamed writer crosses a chunk seam
    "generate": ["generate", "--generator", "koch", "--level", "7"],
    "brownian": ["brownian", "--n", "9000", "--seed", "3"],
    "analyze-json": ["analyze", "--generator", "koch", "--k-max", "12"],
    "analyze-csv": ["analyze", "--generator", "koch", "--k-max", "12", "--format", "csv"],
    "measure-json": ["measure", "--scales", "1..4"],
    "measure-csv": ["measure", "--scales", "1..4", "--method", "divider",
                    "--format", "csv"],
}


def koch_input(tmp_path, level=4):
    """A Koch polyline file for `measure --input`."""
    src = tmp_path / f"koch{level}.json"
    src.write_text(json_text(polyline_to_dict(refine(base_segment(1.0),
                                                     builtin("koch"), level))))
    return src


@pytest.mark.parametrize("args", STREAM_CASES.values(), ids=STREAM_CASES.keys())
def test_stdout_matches_out_file(tmp_path, monkeypatch, args):
    if args[0] == "measure":
        args = args + ["--input", str(koch_input(tmp_path))]
    out = tmp_path / "out"
    runner = split_runner()
    res = invoke(runner, args)
    assert res.exit_code == 0
    assert invoke(runner, args + ["--out", str(out)]).exit_code == 0
    assert res.stdout_bytes == out.read_bytes()
    # "-" is stdout, not a file of that name
    monkeypatch.chdir(tmp_path)
    dash = invoke(runner, args + ["--out", "-"])
    assert dash.exit_code == 0
    assert dash.stdout_bytes == res.stdout_bytes
    assert not (tmp_path / "-").exists()


def test_failing_command_leaves_no_out_file(tmp_path):
    # two scales are too few for the fit, which fails after the counts
    out = tmp_path / "out.json"
    res = split_runner().invoke(main, ["measure", "--input", str(koch_input(tmp_path)),
                                       "--scales", "1..2", "--out", str(out)])
    assert res.exit_code == 1
    assert not out.exists()


def test_measure_csv_computes_no_fit(runner, tmp_path):
    # CSV has no fit column; two scales, too few for a fit, exited 1 with
    # "need at least 3 usable scales" and printed no rows
    args = ["measure", "--input", str(koch_input(tmp_path)), "--scales", "1..2",
            "--format", "csv"]
    res = invoke(runner, args)
    assert res.exit_code == 0
    assert len(res.output.splitlines()) == 3
    assert res.output == invoke(runner, args + ["--no-fit"]).output


def test_divider_counts_a_curve_whose_length_overflows(tmp_path):
    # the extent is finite, the arc length is not: the cap's arc / step
    # overflowed to inf and refused every step, with a numpy warning
    vertices = [[0, 0], [1e308, 0], [0, 1], [1e308, 1], [0, 2]]
    src = tmp_path / "zigzag.json"
    src.write_text(json.dumps({"vertices": vertices}))
    proc = run_cli(["measure", "--input", str(src), "--method", "divider", "--scales", "1..3",
                    "--no-fit"])
    assert (proc.returncode, proc.stderr) == (0, b"")
    rows = json.loads(proc.stdout)["rows"]
    # the same curve and steps scaled by 2^-1000, where the length is finite
    scaled = Polyline(np.ldexp(np.array(vertices, dtype=float), -1000))
    assert [r["count"] for r in rows] == [
        estimator.divider_count(scaled, math.ldexp(r["dx"], -1000)) for r in rows]
    assert [r["count"] for r in rows] == [12.0, 36.0, 106.0]


@pytest.mark.parametrize("vertices,scales,counts", [
    # scaling to the step's binade overflowed every coordinate to inf: the
    # counts were nan, written with exit 0 and a numpy warning
    ([[1e300, 0], [1e300, 1e-10], [1e300, 3e-10]], "1..4", [10, 100, 1000, 10000]),
    # keeping 1e-300 normal left the scaled step so large that the chord
    # quadratic overflowed
    ([[0, 1e-300], [1e300, 0], [1e300, 1e300]], "1..2", [20, 200]),
])
def test_divider_counts_a_curve_far_from_the_origin(tmp_path, vertices, scales, counts):
    src = tmp_path / "far.json"
    src.write_text(json.dumps({"vertices": vertices}))
    proc = run_cli(["measure", "--input", str(src), "--method", "divider", "--scales", scales,
                    "--rho", "10", "--format", "csv"])
    assert (proc.returncode, proc.stderr) == (0, b"")
    got = [float(line.split(",")[2]) for line in proc.stdout.decode().splitlines()[1:]]
    assert all(math.isfinite(c) for c in got)
    assert [round(c) for c in got] == counts


@pytest.mark.parametrize("args,message", [
    (["--method", "divider", "--scales", "357..357"], "too short"),
    (["--method", "divider", "--scales", "200..200"], "too short"),
    (["--scales", "18..18"], "gridlines"),
    (["--scales", "40..40"], "2**53"),
], ids=["divider-357", "divider-200", "grid-18", "grid-40"])
def test_measure_refuses_scales_finer_than_it_can_count(tmp_path, args, message):
    res = split_runner().invoke(main, ["measure", "--input", str(koch_input(tmp_path, 2)),
                                       "--no-fit"] + args)
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a clean error, not a traceback
    assert res.stdout == ""
    assert message in res.stderr
    assert res.stderr.count("\n") == 1


@pytest.mark.parametrize("method", ["grid", "divider"])
def test_measure_refuses_a_scale_that_underflows(tmp_path, method):
    # L0 / 3^700 is below the smallest float64: the scale is refused by its k
    out = tmp_path / "out.json"
    res = split_runner().invoke(main, ["measure", "--input", str(koch_input(tmp_path, 2)),
                                       "--method", method, "--scales", "700..700",
                                       "--out", str(out)])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a clean error, not a traceback
    assert res.stderr == "Error: scale k=700 is too fine: L0 / rho^k underflows to 0\n"
    assert not out.exists()


def test_measure_refuses_a_huge_scale_range_without_building_it(tmp_path):
    # 10^8 scales are refused at the first that underflows, k=679, in
    # memory that does not grow with the length of the range
    path = koch_input(tmp_path, 2)
    tracemalloc.start()
    try:
        res = split_runner().invoke(main, ["measure", "--input", str(path),
                                           "--scales", "0..100000000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.exit_code == 1
    assert res.stderr == "Error: scale k=679 is too fine: L0 / rho^k underflows to 0\n"
    assert peak < 16 * 2**20


@pytest.mark.parametrize("args,message", [
    (["generate", "--generator", "koch", "--level", "1000000000"], "k must be <= 100000"),
    (["analyze", "--generator", "koch", "--k-max", "1000000000"], "k must be <= 100000"),
    (["analyze", "--generator", "koch", "--k-max", "1000000000", "--format", "csv"],
     "k must be <= 100000"),
    (["measure", "--rho", "1.0000001", "--scales", "1..100000000000"], "k must be <= 100000"),
    (["generate", "--generator", "koch", "--level", "10000"],
     "refinement to level 10000 needs more vertices than the cap of 100000000"),
], ids=["generate", "analyze", "analyze-csv", "measure", "generate-level-10000"])
def test_an_index_past_k_max_or_the_vertex_cap_is_one_error_line(tmp_path, args, message):
    # unbounded, analyze and measure ran on without end, and generate
    # printed advice on int_max_str_digits in place of the level; run_cli's
    # timeout fails a command that runs on again
    if args[0] == "measure":
        args = args + ["--input", str(koch_input(tmp_path, 2))]
    res = run_cli(args)
    assert res.returncode == 1
    assert res.stdout == b""
    assert res.stderr == f"Error: {message}\n".encode()


def test_measure_scales_comma_list(runner, tmp_path):
    res = invoke(runner, ["measure", "--input", str(koch_input(tmp_path, 2)),
                          "--scales", "1,3,2", "--format", "csv", "--no-fit"])
    assert res.exit_code == 0
    assert [line.split(",")[0] for line in res.output.strip().split("\n")] == ["k", "1", "2", "3"]


BAD_SCALES = '--scales must be "k0..k1" or a comma list of integers, got '


@pytest.mark.parametrize("scales,message", [
    ("3..1", BAD_SCALES + "'3..1'"),
    ("a..b", BAD_SCALES + "'a..b'"),
    ("1..2..3", BAD_SCALES + "'1..2..3'"),
    ("1,,2", BAD_SCALES + "'1,,2'"),
    ("-1..2", "scale indices must be >= 0"),
])
def test_measure_scales_usage_errors(tmp_path, scales, message):
    res = split_runner().invoke(main, ["measure", "--input", str(koch_input(tmp_path, 2)),
                                       "--scales", scales])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert res.stderr.endswith(f"\nError: {message}\n")


def test_generate_cesaro_svg(runner, tmp_path):
    out = tmp_path / "c.svg"
    res = invoke(runner, ["generate", "--generator", "cesaro", "--angle", "85",
                          "--level", "4", "--out", str(out)])
    assert res.exit_code == 0
    text = out.read_text()
    assert text.startswith("<svg ")
    assert "<path " in text


@pytest.mark.parametrize("generator,level,l0", [
    ("koch", "1", "1.7e308"), ("koch", "1", "1e-310"), ("line", "0", "5e-324"),
], ids=["1.7e308", "1e-310", "5e-324"])
def test_generate_svg_refuses_a_scale_that_is_not_finite(tmp_path, generator, level, l0):
    # exited 0 with d="Mnan nan..." or d="Minf ...", or raised ZeroDivisionError;
    # each left an empty k.svg behind
    out = tmp_path / "k.svg"
    res = split_runner().invoke(main, ["generate", "--generator", generator, "--level", level,
                                       "--l0", l0, "--out", str(out)])
    assert res.exit_code == 1
    assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1
    assert "cannot be drawn" in res.stderr
    assert not out.exists()


def test_a_refused_command_keeps_the_bytes_of_an_existing_out_file(tmp_path):
    # the --out file was opened, and so truncated, before the writer refused
    out = tmp_path / "e.svg"
    out.write_bytes(b"earlier bytes\n")
    res = split_runner().invoke(main, ["generate", "--generator", "koch", "--level", "1",
                                       "--l0", "1.7e308", "--out", str(out)])
    assert res.exit_code == 1
    assert res.stderr.startswith("Error: ") and res.stderr.count("\n") == 1
    assert out.read_bytes() == b"earlier bytes\n"


def test_generate_usage_errors(runner):
    res = runner.invoke(main, ["generate", "--generator", "koch", "--angle", "30",
                               "--level", "1"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["generate", "--generator", "cesaro", "--level", "1"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["generate", "--generator", "koch", "--level", "-2"])
    assert res.exit_code == 2
    for angle in ("95", "0"):
        res = runner.invoke(main, ["generate", "--generator", "cesaro", "--angle", angle,
                                   "--level", "1"])
        assert res.exit_code == 2


def test_analyze_peano_products_in_critical_band(runner):
    res = invoke(runner, ["analyze", "--generator", "peano", "--k-max", "20",
                          "--mass", "1", "--dt", "1", "--l0", "1"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    assert data["context"]["eta0"] == 0.5
    rows = data["bounds"]["rows"]
    assert len(rows) == 20
    for row in rows:
        assert row["pass"] is True
        assert 0.5 <= row["product"] < 1.0
    assert data["regime"]["regime"] == "critical"


def test_analyze_subnormal_eta0_keeps_products_inside_the_bounds(runner):
    # eta0 = (5.8e-162)^2 / 2 is subnormal: twice the rounded eta0 (3e-323)
    # lay below the products 3.5e-323 of k = 3..5, which passed all the same
    res = invoke(runner, ["analyze", "--generator", "peano", "--k-max", "5", "--l0", "5.8e-162"])
    assert res.exit_code == 0
    data = json.loads(res.output)
    eta0 = Fraction(5.8e-162) ** 2 / 2
    assert data["context"]["eta0"] == float(eta0) == 1.5e-323
    regime = data["regime"]
    assert (regime["lower"], regime["upper"]) == (float(eta0), float(2 * eta0))
    assert regime["upper"] == 3.5e-323
    rows = data["bounds"]["rows"]
    assert [row["product"] for row in rows[2:]] == [3.5e-323] * 3
    for row in rows:
        assert row["pass"] is True
        assert (row["lower"], row["upper"]) == (regime["lower"], regime["upper"])
        assert row["lower"] <= row["product"] <= row["upper"], row


def test_analyze_line_products_zero(runner):
    res = invoke(runner, ["analyze", "--generator", "line", "--k-max", "10"])
    data = json.loads(res.output)
    assert all(row["product"] == 0.0 for row in data["bounds"]["rows"])
    assert all(row["dP_k"] == 0.0 for row in data["uncertainty"])
    assert data["regime"]["regime"] == "classical"


def test_analyze_csv_row_count(runner):
    res = invoke(runner, ["analyze", "--generator", "koch", "--k-max", "10",
                          "--format", "csv"])
    lines = res.output.strip().split("\n")
    assert lines[0].startswith("k,dx_k,")
    assert len(lines) == 12  # header + 11 data rows


def test_analyze_overflowed_counts_are_standard_json(runner):
    args = ["analyze", "--generator", "peano", "--k-max", "330"]

    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    scales = json.loads(invoke(runner, args).output, parse_constant=reject)["scales"]
    assert [r["k"] for r in scales if r["N_k"] is None] == list(range(324, 331))
    assert scales == [{name: None if v == math.inf else v for name, v in vars(row).items()}
                      for row in scale_table(builtin("peano"), 1.0, 1.0, 330)]
    last = invoke(runner, args + ["--format", "csv"]).output.strip().split("\n")[-1]
    assert last.split(",")[2] == "inf"


@pytest.mark.parametrize("generator", ["koch", "peano", "line"])
def test_analyze_k_max_2000(runner, generator):
    # rho^k passes float64 at k = 647: dx_k underflows toward 0, peano's
    # L_k, v_k and dL_k become null, and every bound is still decided
    def reject(token):
        raise AssertionError(f"non-standard JSON token {token}")

    args = ["analyze", "--generator", generator, "--k-max", "2000"]
    doc = json.loads(invoke(runner, args).output, parse_constant=reject)
    assert len(doc["scales"]) == 2001
    assert [r["k"] for r in doc["bounds"]["rows"]] == list(range(1, 2001))
    assert all(r["pass"] for r in doc["bounds"]["rows"])


@pytest.mark.parametrize("generator,k_max", [
    (["peano"], 2000), (["koch"], 2000), (["cesaro", "--angle", "85"], 3000),
], ids=["peano", "koch", "cesaro-85"])
def test_analyze_uncertainty_products_equal_bound_products(runner, generator, k_max):
    # dP_k and the bounds product are both 2 eta0 gamma(k), correctly rounded
    args = ["analyze", "--generator", *generator, "--k-max", str(k_max),
            "--mass", "1.7", "--dt", "0.9", "--l0", "1.3"]
    doc = json.loads(invoke(runner, args).output)
    products = [row["product"] for row in doc["bounds"]["rows"]]
    assert len(products) == k_max
    assert [row["dP_k"] for row in doc["uncertainty"][1:]] == products


def test_measure_koch_level6(runner, tmp_path):
    poly = refine(base_segment(1.0), builtin("koch"), 6)
    src = tmp_path / "k6.json"
    src.write_text(json.dumps(polyline_to_dict(poly)))
    res = invoke(runner, ["measure", "--input", str(src), "--scales", "1..5",
                          "--rho", "3", "--fit"])
    assert res.exit_code == 0
    fit = json.loads(res.output)["fit"]
    assert 1.21 <= fit["ds_hat"] <= 1.31


def test_measure_koch_level8_full_ladder(runner, tmp_path):
    out = tmp_path / "k8.json"
    assert invoke(runner, ["generate", "--generator", "koch", "--level", "8",
                           "--out", str(out)]).exit_code == 0
    res = invoke(runner, ["measure", "--input", str(out), "--scales", "1..6",
                          "--rho", "3", "--fit"])
    assert res.exit_code == 0
    fit = json.loads(res.output)["fit"]
    assert 1.21 <= fit["ds_hat"] <= 1.31


def test_measure_brownian_dimension_two(runner, tmp_path):
    out = tmp_path / "walk.json"
    assert invoke(runner, ["brownian", "--n", "100000", "--seed", "20260810",
                           "--out", str(out)]).exit_code == 0
    res = invoke(runner, ["measure", "--input", str(out), "--scales", "4..8",
                          "--rho", "2", "--method", "divider"])
    assert res.exit_code == 0
    fit = json.loads(res.output)["fit"]
    assert 1.8 <= fit["ds_hat"] <= 2.0


def test_measure_straight_segment(runner, tmp_path):
    seg = np.array([[0.0013, 0.457], [0.9977, 0.457]])
    src = tmp_path / "seg.json"
    src.write_text(json.dumps({"level": None, "vertices": seg.tolist()}))
    res = invoke(runner, ["measure", "--input", str(src), "--scales", "1..6",
                          "--method", "divider"])
    fit = json.loads(res.output)["fit"]
    assert abs(fit["ds_hat"] - 1.0) < 1e-6
    # the grid route rides the bbox ladder, so the far endpoint claims one
    # extra column per scale; the slope still sits near 1
    res = invoke(runner, ["measure", "--input", str(src), "--scales", "1..6",
                          "--method", "grid"])
    fit = json.loads(res.output)["fit"]
    assert abs(fit["ds_hat"] - 1.0) < 0.06


def test_measure_divider_csv(runner, tmp_path):
    poly = refine(base_segment(1.0), builtin("koch"), 5)
    src = tmp_path / "k5.json"
    src.write_text(json.dumps(polyline_to_dict(poly)))
    res = invoke(runner, ["measure", "--input", str(src), "--scales", "1..4",
                          "--method", "divider", "--format", "csv"])
    lines = res.output.strip().split("\n")
    assert lines[0] == "k,dx,count,length"
    assert len(lines) == 5


def test_measure_divider_counts_koch_at_l0_2_300_as_at_l0_1(runner, tmp_path):
    # 2.037035976334486e+90 is 2^300; there the chord quadratic on raw
    # coordinates overflowed and the divider counted 3, 9 and 27
    columns = []
    for l0 in ("1", "2.037035976334486e+90"):
        path = tmp_path / f"koch_{l0}.json"
        invoke(runner, ["generate", "--generator", "koch", "--level", "3", "--l0", l0,
                        "--out", str(path)])
        res = invoke(runner, ["measure", "--input", str(path), "--method", "divider",
                              "--scales", "1..3", "--format", "csv"])
        columns.append([line.split(",")[2] for line in res.output.strip().split("\n")])
    assert columns[0] == columns[1]
    assert columns[1] == ["count", "4.0000000011250005", "16.000000001050566", "64.000000001050552"]


def test_measure_runtime_error_is_exit_1(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"level": None, "vertices": [[0.0, 0.0]]}))
    res = runner.invoke(main, ["measure", "--input", str(bad)])
    assert res.exit_code == 1


@pytest.mark.parametrize("text,message", [
    ("[1, 2]", "a polyline must be a JSON object with a 'vertices' list"),
    ('{"level": 1}', "a polyline must be a JSON object with a 'vertices' list"),
    ('{"level": null, "vertices": [[0, 0], ["1", 0]]}', "vertices must be numbers"),
    ('{"level": 2.5, "vertices": [[0, 0], [1, 0]]}',
     "polyline level must be an integer or null, got 2.5"),
    ('{"level": true, "vertices": [[0, 0], [1, 0]]}',
     "polyline level must be an integer or null, got true"),
    ('{"vertices": [[0, 0], [true, false]]}', "vertices must be numbers"),
    ('{"vertices": [[0.5, 0], [true, false]]}', "vertices must be numbers"),
    ('{"vertices": [[0, 0], true]}', "vertices must be an (n, 2) array"),
    ('{"vertices": [[0, 0], [1]]}', "vertices must be an (n, 2) array"),
    ('{"vertices": [[0, 0], "ab"]}', "vertices must be an (n, 2) array"),
    ('{"vertices": [[0, 0], [1, 2, 3]]}', "vertices must be an (n, 2) array"),
    ('{"vertices": [[0, 0], [1, {}]]}', "vertices must be numbers"),
    ('{"vertices": {"a": 1}}', "vertices must be an (n, 2) array"),
    ('{"vertices": [[0, 0], [1, null]]}', "vertices must be numbers"),
    ('{"vertices": 5}', "vertices must be an (n, 2) array"),
    ('{"vertices": "ab"}', "vertices must be an (n, 2) array"),
    ('{"vertices": [[0, 0], [1, [2]]]}', "vertices must be an (n, 2) array"),
    ('{"vertices": [[-1e308, 0], [1e308, 0]]}', "the polyline's extent overflows float64"),
], ids=["not-an-object", "no-vertices", "string-vertex", "float-level", "bool-level",
        "bool-vertex-among-ints", "bool-vertex-among-floats", "bool-row", "short-row",
        "string-row", "long-row", "dict-coordinate", "dict-vertices", "null-coordinate",
        "number-vertices", "string-vertices", "list-coordinate", "extent-overflow"])
def test_measure_refuses_a_malformed_polyline_with_one_line(tmp_path, text, message):
    # the first two raised AttributeError and KeyError; the next five were
    # read as 1.0, level 2, level 1 and the vertex (1, 0); the ragged rows
    # printed numpy's "inhomogeneous shape" message; a dict ended in a
    # TypeError traceback and a null coordinate was called not finite; an
    # extent past float64 printed "cannot convert Infinity to integer ratio"
    path = tmp_path / "bad.json"
    path.write_text(text)
    res = split_runner().invoke(main, ["measure", "--input", str(path), "--scales", "1..2"])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == f"Error: {message}\n"


def _relaid(doc: dict) -> dict[str, str]:
    """The polyline document `doc` in layouts other than the writer's."""
    front = {key: doc[key] for key in reversed(doc)}  # metadata, when present, first
    return {
        "one-line": json.dumps(doc),
        "indent-4": json.dumps(doc, indent=4),
        "compact": json.dumps(doc, separators=(",", ":")),
        "crlf": json_text(doc).replace("\n", "\r\n"),
        "keys-reversed": json_text(front),
        "no-final-newline": json_text(doc)[:-1],
    }


@pytest.mark.parametrize("make,scales", [
    (["generate", "--generator", "koch", "--level", "5"], ["--scales", "1..4"]),
    (["brownian", "--n", "3000", "--seed", "7"], ["--rho", "2", "--scales", "3..7"]),
], ids=["koch-l5", "walk-3000"])
@pytest.mark.parametrize("method", ["grid", "divider"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_measure_reads_any_layout_of_a_polyline_alike(runner, tmp_path, make, scales,
                                                       method, fmt):
    # the writer's own layout is read slab by slab, the others whole
    written = tmp_path / "written.json"
    invoke(runner, make + ["--out", str(written)])
    args = ["--method", method, "--format", fmt] + scales
    expected = invoke(runner, ["measure", "--input", str(written)] + args).output
    for name, text in _relaid(json.loads(written.read_text())).items():
        path = tmp_path / f"{name}.json"
        path.write_bytes(text.encode())
        assert invoke(runner, ["measure", "--input", str(path)] + args).output == expected, name


def test_analyze_float_overflow_is_exit_1(runner):
    res = runner.invoke(main, ["analyze", "--generator", "koch", "--k-max", "2",
                               "--mass", "1e308", "--dt", "0.1"])
    assert res.exit_code == 1
    assert isinstance(res.exception, SystemExit)  # a clean error, not a traceback
    assert "too large" in res.output


def test_analyze_eta0_underflow_is_exit_1():
    # eta0 = 0.0 made every regime interval the point 0 and every row pass
    res = split_runner().invoke(main, ["analyze", "--generator", "koch", "--k-max", "2",
                                       "--l0", "1e-200"])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and "too small" in res.stderr


def test_analyze_csv_builds_no_context(runner):
    # the CSV writes no eta0, E0 or V0: it was refused, exit 1, for an eta0
    # that underflows, which only the JSON bundle writes
    args = ["analyze", "--generator", "koch", "--k-max", "2", "--l0", "1e-170"]
    res = invoke(runner, args + ["--format", "csv"])
    assert res.exit_code == 0
    assert res.output == scale_rows_to_csv(scale_table(builtin("koch"), 1e-170, 1.0, 2))
    refused = split_runner().invoke(main, args)
    assert refused.exit_code == 1 and refused.stdout == ""
    assert refused.stderr == "Error: eta0 = m L0^2 / (2 dt) is too small for float64\n"


@pytest.mark.parametrize("angle", ["0.0001", "89.99999999999999"])
def test_analyze_cesaro_near_a_regime_line_is_sub(runner, angle):
    # D_s lies within 1e-12 of 1 (or 2), but N != rho (rho^2): a tolerance on
    # D_s called these classical (critical), and every bounds row failed
    args = ["analyze", "--generator", "cesaro", "--angle", angle, "--k-max", "50"]
    doc = json.loads(invoke(runner, args).output)
    assert doc["spec"]["name"] == f"cesaro-{angle}"
    assert doc["regime"]["regime"] == "sub"
    assert {row["regime"] for row in doc["uncertainty"]} == {"sub"}
    assert [row["pass"] for row in doc["bounds"]["rows"]] == [True] * 50


def test_analyze_refuses_a_critical_upper_end_past_float64():
    # eta0 = 1.62e308 fits but 2 eta0 does not: the regime and the bounds
    # rows were written with "upper": null, which marks the super regime
    res = split_runner().invoke(main, ["analyze", "--generator", "peano", "--k-max", "2",
                                       "--l0", "1.8e154"])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and "2 eta0" in res.stderr


@pytest.mark.parametrize("args", [
    ["analyze", "--generator", "koch", "--k-max", "2", "--mass", "nan"],
    ["analyze", "--generator", "koch", "--k-max", "2", "--mass", "inf"],
    ["generate", "--generator", "cesaro", "--angle", "nan", "--level", "1"],
    ["generate", "--generator", "koch", "--level", "1", "--l0", "inf"],
    ["measure", "--scales", "1..2", "--rho", "inf"],
    ["brownian", "--n", "5", "--step-std", "nan"],
], ids=["mass-nan", "mass-inf", "angle-nan", "l0-inf", "rho-inf", "step-std-nan"])
def test_non_finite_float_flags_are_usage_errors(tmp_path, args):
    if args[0] == "measure":
        src = tmp_path / "seg.json"
        src.write_text('{"level": null, "vertices": [[0, 0], [1, 0]]}')
        args = args + ["--input", str(src)]
    res = split_runner().invoke(main, args)
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "is not a finite number" in res.stderr


@pytest.mark.parametrize("bad", ["NaN", "Infinity"])
def test_measure_non_finite_vertex_message(runner, tmp_path, bad):
    path = tmp_path / "bad.json"
    path.write_text('{"level": null, "vertices": [[0, 0], [%s, 1], [2, 0]]}' % bad)
    res = runner.invoke(main, ["measure", "--input", str(path)])
    assert res.exit_code == 1
    assert "vertices must be finite" in res.output


def test_brownian_deterministic_files(runner, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    args = ["brownian", "--n", "1000", "--seed", "7", "--step-std", "1.0"]
    assert invoke(runner, args + ["--out", str(out1)]).exit_code == 0
    assert invoke(runner, args + ["--out", str(out2)]).exit_code == 0
    assert out1.read_bytes() == out2.read_bytes()
    data = json.loads(out1.read_text())
    assert data["metadata"]["seed"] == 7
    assert data["metadata"]["n"] == 1000
    assert "prng" in data["metadata"]
    assert len(data["vertices"]) == 1000


def test_brownian_svg_out_is_a_drawing(runner, tmp_path):
    # --out FILE.svg draws the walk, as generate does; the metadata goes
    # only into JSON
    out = tmp_path / "w.svg"
    args = ["brownian", "--n", "50", "--seed", "7"]
    assert invoke(runner, args + ["--out", str(out)]).exit_code == 0
    with open(tmp_path / "expected.svg", "w") as fp:
        render.write_svg(estimator.brownian_path(50, 7, 1.0), fp)
    assert out.read_bytes() == (tmp_path / "expected.svg").read_bytes()
    assert invoke(runner, args).output == (ROOT / "tests/data/brownian_n50_seed7.json").read_text()


@pytest.mark.parametrize("seed,std,message", [
    ("1", "1e308", "vertices must be finite"),
    ("5", "1e307", "the polyline's extent overflows float64"),
], ids=["not-finite", "extent-overflow"])
@pytest.mark.parametrize("suffix", [".json", ".svg"])
def test_brownian_refuses_a_walk_past_float64_with_one_line(tmp_path, seed, std, message, suffix):
    # 1e308 printed three numpy RuntimeWarnings before its Error line; 1e307
    # exited 0 and wrote a walk that measure refused (and an .svg said
    # "cannot be drawn"): a fresh interpreter shows every warning printed
    out = tmp_path / f"walk{suffix}"
    proc = run_cli(["brownian", "--n", "100", "--seed", seed, "--step-std", std,
                    "--out", str(out)])
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == f"Error: {message}\n".encode()
    assert not out.exists()


def test_brownian_n1_usage_error(runner):
    res = runner.invoke(main, ["brownian", "--n", "1"])
    assert res.exit_code == 2


def test_brownian_negative_seed_usage_error():
    # numpy refused it at run time, exit 1; a flag's range is a usage error
    res = split_runner().invoke(main, ["brownian", "--n", "5", "--seed", "-1"])
    assert res.exit_code == 2
    assert res.stdout == ""
    assert "--seed" in res.stderr


def test_brownian_refuses_past_vertex_cap(monkeypatch):
    monkeypatch.setattr(estimator, "DEFAULT_VERTEX_CAP", 50)
    res = split_runner().invoke(main, ["brownian", "--n", "51"])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr.count("\n") == 1 and "above the cap of 50" in res.stderr


def test_help_on_every_subcommand(runner):
    for cmd in ([], ["generate"], ["analyze"], ["measure"], ["brownian"]):
        res = invoke(runner, cmd + ["--help"])
        assert res.exit_code == 0
        assert "Usage" in res.output


def test_config_file_defaults_and_precedence(runner, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"generate": {"level": 2, "generator": "koch"}}))
    out = tmp_path / "out.json"
    res = invoke(runner, ["generate", "--config", str(cfg), "--generator", "koch",
                          "--out", str(out)])
    assert res.exit_code == 0
    assert len(json.loads(out.read_text())["vertices"]) == 4**2 + 1
    # explicit flag beats the config value
    res = invoke(runner, ["generate", "--config", str(cfg), "--generator", "koch",
                          "--level", "1", "--out", str(out)])
    assert len(json.loads(out.read_text())["vertices"]) == 5


def test_config_flat_section(runner, tmp_path):
    cfg = tmp_path / "flat.json"
    cfg.write_text(json.dumps({"level": 1}))
    res = invoke(runner, ["generate", "--generator", "peano", "--config", str(cfg)])
    assert res.exit_code == 0
    assert len(json.loads(res.output)["vertices"]) == 10


def test_generate_requires_level(runner):
    res = runner.invoke(main, ["generate", "--generator", "koch"])
    assert res.exit_code == 2


@pytest.mark.parametrize("text", [
    None,  # missing file
    "[1, 2]",
    '{"generate": [1]}',
    '{"level": "abc"}',
    '{"level": -1}',
    '{"level": null}',
    b'{"level": "\xff"}',  # not UTF-8: was a UnicodeDecodeError traceback
])
def test_config_errors_are_usage_errors(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    if isinstance(text, bytes):
        cfg.write_bytes(text)
    elif text is not None:
        cfg.write_text(text)
    res = split_runner().invoke(main, ["generate", "--generator", "koch",
                                       "--config", str(cfg)])
    assert res.exit_code == 2
    assert res.stdout == ""


def test_config_satisfies_required_options(runner, tmp_path):
    src = tmp_path / "k3.json"
    assert invoke(runner, ["generate", "--generator", "koch", "--level", "3",
                           "--out", str(src)]).exit_code == 0
    cases = [
        (["analyze", "--k-max", "2"], {"generator": "koch"}),
        (["measure", "--scales", "1..3"], {"input_path": str(src)}),
        (["brownian"], {"n": 5}),
    ]
    for args, config in cases:
        assert runner.invoke(main, args).exit_code == 2
        cfg = tmp_path / f"{args[0]}.json"
        cfg.write_text(json.dumps(config))
        res = invoke(runner, args + ["--config", str(cfg)])
        assert res.exit_code == 0, res.output
        json.loads(res.output)


# a locale whose preferred and file-system encodings are ASCII
ASCII_LOCALE = {"PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0", "LC_ALL": "C"}


def cli_env(**env):
    """This interpreter's environment with `src` on PYTHONPATH, `env` set on top."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])), **env)


def run_cli(args, **env):
    """`python -m fractalkin ARGS` in a fresh interpreter, `env` set on top
    of this one's environment."""
    return subprocess.run([sys.executable, "-m", "fractalkin", *args], env=cli_env(**env),
                          capture_output=True, timeout=120)


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_analyze_at_k_max_100000_peaks_under_its_pin(tmp_path):
    # peak RSS (os.wait4) of koch at k-max 100000: 377 MiB when each power's
    # bounds were kept at every index, 288-293 MiB without, 259-260 MiB
    # since rows past the float64 range share one inf and one 0.0 (x86-64,
    # Python 3.11, numpy 2.4); the pin leaves room for another interpreter,
    # not for kept bounds
    err = tmp_path / "stderr"
    with open(err, "wb") as stderr:
        proc = subprocess.Popen([sys.executable, "-m", "fractalkin", "analyze", "--generator",
                                 "koch", "--k-max", "100000", "--out", os.devnull],
                                env=cli_env(), stdout=subprocess.DEVNULL, stderr=stderr)
    deadline = time.monotonic() + 120
    while not (waited := os.wait4(proc.pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            proc.kill()
            waited = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    _, status, usage = waited
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped: Popen must not wait
    assert proc.returncode == 0, err.read_text()
    assert usage.ru_maxrss < 340 * 1024


def test_version_runs_from_a_source_checkout():
    # the version comes from the package, not its installed metadata:
    # without an install this was a RuntimeError traceback and exit 1
    res = run_cli(["--version"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.decode().endswith(f", version {fractalkin.__version__}\n")
    assert res.stderr == b""


def test_version_is_the_one_in_pyproject():
    # read as text: tomllib is not in Python 3.10
    versions = re.findall(r'(?m)^version = "([^"]*)"$', (ROOT / "pyproject.toml").read_text())
    assert versions == [fractalkin.__version__]


def test_config_is_read_as_utf8_whatever_the_locale(tmp_path):
    # under an ASCII locale the config file was decoded as ASCII: a
    # UnicodeDecodeError traceback at its first non-ASCII byte
    out = tmp_path / "k\u00f6ch.json"
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(json.dumps({"generator": "koch", "level": 2, "out": str(out)},
                               ensure_ascii=False).encode())
    utf8 = run_cli(["generate", "--config", str(cfg)], PYTHONUTF8="1")
    assert utf8.returncode == 0, utf8.stderr
    assert out.read_bytes() == (ROOT / "tests/data/generate_koch_l2.json").read_bytes()
    out.unlink()
    # the value is read; an ASCII file system cannot name that path, which
    # is one Error: line
    ascii_ = run_cli(["generate", "--config", str(cfg)], **ASCII_LOCALE)
    assert ascii_.returncode == 1
    assert ascii_.stderr.startswith(b"Error: Could not open file ")
    assert ascii_.stderr.count(b"\n") == 1
    assert not out.exists()


def test_measure_reads_non_ascii_metadata_whatever_the_locale(tmp_path):
    # under an ASCII locale the whole-document read decoded the file as
    # ASCII: "Error: 'ascii' codec can't decode byte 0xc3 ..."
    doc = polyline_to_dict(refine(base_segment(1.0), builtin("koch"), 4),
                           metadata={"note": "r\u00e9sum\u00e9"})
    path = tmp_path / "meta.json"
    path.write_bytes(json.dumps(doc, indent=2, ensure_ascii=False).encode())
    args = ["measure", "--input", str(path), "--scales", "1..4", "--format", "csv"]
    utf8 = run_cli(args, PYTHONUTF8="1")
    assert utf8.returncode == 0, utf8.stderr
    ascii_ = run_cli(args, **ASCII_LOCALE)
    assert ascii_.returncode == 0, ascii_.stderr
    assert ascii_.stdout == utf8.stdout


def _refuse(*args, **kwargs):
    raise AssertionError("the command ran its work")


OUT_COMMANDS = {
    "generate": ["generate", "--generator", "koch", "--level", "3"],
    "analyze": ["analyze", "--generator", "koch", "--k-max", "3"],
    "measure": ["measure", "--scales", "1..3"],
    "brownian": ["brownian", "--n", "10"],
}


@pytest.mark.parametrize("where,reason", [
    ("missing/x.json", "No such file or directory"),
    ("file/x.json", "Not a directory"),
    ("dir", "Is a directory"),
    ("", "No such file or directory"),
], ids=["missing-parent", "file-parent", "directory", "empty"])
@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_an_out_path_that_cannot_be_opened_is_refused_before_the_work(
        tmp_path, monkeypatch, command, where, reason):
    # was refused at the first write, after all the work: 1.6-2.6 s of a
    # divider on Koch L10 before the same Error: line
    args = OUT_COMMANDS[command]
    if command == "measure":
        args = args + ["--input", str(koch_input(tmp_path, 2))]
    (tmp_path / "file").write_text("kept")
    (tmp_path / "dir").mkdir()
    from fractalkin import cli, measures

    monkeypatch.setattr(cli, "refine", _refuse)
    monkeypatch.setattr(measures, "scale_table", _refuse)
    for name in ("measure_polyline", "brownian_path"):
        monkeypatch.setattr(estimator, name, _refuse)
    out = str(tmp_path / where) if where else ""
    res = split_runner().invoke(main, args + ["--out", out])
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == f"Error: Could not open file {out!r}: {reason}\n"
    assert (tmp_path / "file").read_text() == "kept"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["file", "dir"] + (["koch2.json"] if command == "measure" else []))


@pytest.mark.parametrize("out", [os.devnull, "/dev/stdout"])
def test_out_to_a_device_still_works(out):
    # these paths exist and are written, not created: /dev itself need not
    # be writable
    res = run_cli(["generate", "--generator", "koch", "--level", "2", "--out", out])
    assert res.returncode == 0, res.stderr
    expected = (ROOT / "tests/data/generate_koch_l2.json").read_bytes()
    assert res.stdout == (b"" if out == os.devnull else expected)


# `python -m fractalkin ARGS` in a fresh interpreter that writes, last on
# stderr, the library modules and the heavy dependencies it had loaded by
# the time it exited
MODULE_PROBE = ("import atexit, runpy, sys\n"
                "atexit.register(lambda: print(' '.join(sorted(\n"
                "    n for n in sys.modules if n.partition('.')[0] == 'fractalkin'\n"
                "    or n in ('decimal', 'fractions', 'json', 'numpy'))), file=sys.stderr))\n"
                "runpy.run_module('fractalkin', run_name='__main__', alter_sys=True)\n")


def loaded_modules(args, code=0, cwd=None) -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", MODULE_PROBE, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == code, proc.stderr
    return set(proc.stderr.splitlines()[-1].split())


@pytest.mark.parametrize("args,code", [
    (["--help"], 0),
    (["analyze", "--generator", "koch", "--k-max", "12"], 0),
    (["analyze", "--generator", "koch", "--k-max", "12", "--format", "csv"], 0),
    (["analyze", "--generator", "koch", "--k-max", "-1"], 2),
], ids=["help", "analyze-json", "analyze-csv", "usage-error"])
def test_closed_form_commands_leave_numpy_unloaded(args, code):
    assert "numpy" not in loaded_modules(args, code)


_CORE = {"fractalkin", "fractalkin.cli", "fractalkin.geometry"}
_WRITE = _CORE | {"fractalkin.serialize", "json", "numpy"}
_MEASURE = _WRITE | {"fractalkin.estimator", "fractalkin.measures", "decimal", "fractions"}
_ANALYZE = _CORE | {"fractalkin.kinematics", "fractalkin.measures", "fractalkin.serialize",
                    "decimal", "fractions", "json"}
KOCH = ["--generator", "koch"]


@pytest.mark.parametrize("args,code,expected", [
    (["--help"], 0, _CORE),
    (["analyze", *KOCH, "--k-max", "-1"], 2, _CORE),
    (["generate", *KOCH, "--level", "2"], 0, _WRITE),
    (["generate", *KOCH, "--level", "2", "--out", "k.svg"], 0, _WRITE | {"fractalkin.render"}),
    (["generate", "--config", "config.json", "--out", "k.json"], 0, _WRITE),
    (["measure", "--input", "koch2.json", "--scales", "1..3"], 0, _MEASURE),
    (["brownian", "--n", "10"], 0, _MEASURE),
    (["analyze", *KOCH, "--k-max", "12"], 0, _ANALYZE),
    (["analyze", *KOCH, "--k-max", "12", "--format", "csv"], 0, _ANALYZE),
], ids=["help", "usage-error", "generate-json", "generate-svg", "generate-config", "measure",
        "brownian", "analyze-json", "analyze-csv"])
def test_each_command_loads_only_the_modules_it_runs(tmp_path, args, code, expected):
    koch_input(tmp_path, 2)
    (tmp_path / "config.json").write_text('{"generator": "koch", "level": 2}')
    assert loaded_modules(args, code, tmp_path) == expected


def test_array_layer_exports_resolve_on_use():
    from fractalkin import measure_polyline, refine, render_svg

    assert measure_polyline is estimator.measure_polyline
    assert render_svg is render.render_svg
    assert refine(base_segment(1.0), builtin("koch"), 1).n_vertices == 5
    for name, module in fractalkin._LAZY.items():
        assert getattr(fractalkin, name) is getattr(
            sys.modules[f"fractalkin.{module}"], name), name
    # resolved on every access, never cached into the package namespace
    assert not set(fractalkin._LAZY) & set(vars(fractalkin))
    with pytest.raises(AttributeError):
        fractalkin.no_such_name


def test_the_package_lists_every_export():
    assert sorted(fractalkin.__all__) == sorted([*fractalkin._LAZY, "__version__"])
    assert set(fractalkin.__all__) <= set(dir(fractalkin))
    star = {}
    exec("from fractalkin import *", star)
    assert set(star) - {"__builtins__"} == set(fractalkin.__all__)
    assert not set(fractalkin._LAZY) & set(vars(fractalkin))
