import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from fractalkin.cli import main
from fractalkin.geometry import base_segment, builtin, refine
from fractalkin.measures import scale_table
from fractalkin.serialize import (
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


def test_measure_runtime_error_is_exit_1(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"level": None, "vertices": [[0.0, 0.0]]}))
    res = runner.invoke(main, ["measure", "--input", str(bad)])
    assert res.exit_code == 1


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
