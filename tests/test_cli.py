import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from fractalkin import estimator
from fractalkin.cli import main
from fractalkin.geometry import base_segment, builtin, refine
from fractalkin.measures import scale_table
from fractalkin.serialize import (
    json_text,
    polyline_to_dict,
    scale_rows_from_records,
    scale_rows_to_records,
)

LOG3_4 = math.log(4.0) / math.log(3.0)


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
def test_stdout_matches_out_file(tmp_path, args):
    if args[0] == "measure":
        args = args + ["--input", str(koch_input(tmp_path))]
    out = tmp_path / "out"
    runner = split_runner()
    res = invoke(runner, args)
    assert res.exit_code == 0
    assert invoke(runner, args + ["--out", str(out)]).exit_code == 0
    assert res.stdout_bytes == out.read_bytes()


def test_failing_command_leaves_no_out_file(tmp_path):
    # two scales are too few for the fit, which fails after the counts
    out = tmp_path / "out.json"
    res = split_runner().invoke(main, ["measure", "--input", str(koch_input(tmp_path)),
                                       "--scales", "1..2", "--out", str(out)])
    assert res.exit_code == 1
    assert not out.exists()


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
    rows = scale_rows_from_records(scales)
    assert rows == scale_table(builtin("peano"), 1.0, 1.0, 330)
    assert scale_rows_to_records(rows) == scales
    last = invoke(runner, args + ["--format", "csv"]).output.strip().split("\n")[-1]
    assert last.split(",")[2] == "inf"


@pytest.mark.parametrize("generator", ["koch", "peano"])
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
])
def test_config_errors_are_usage_errors(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    if text is not None:
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
