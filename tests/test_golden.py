"""CLI outputs pinned byte for byte against files in tests/data.

A change that alters one of these files on purpose regenerates it with
the command in its row (add ``--out tests/data/<file>``; a `measure` row
first writes its input polyline with the row's `generate` or `brownian`
command) and names every changed byte in its change notes.  The camera
figure is what ``scripts/camera_figures.py`` writes with its defaults.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from fractalkin.cli import main

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"

GOLDEN = [
    ("analyze_peano_k12.json",
     ["analyze", "--generator", "peano", "--k-max", "12", "--format", "json"]),
    ("analyze_cesaro85_k12.json",
     ["analyze", "--generator", "cesaro", "--angle", "85", "--k-max", "12",
      "--format", "json"]),
    ("analyze_koch_k12.csv",
     ["analyze", "--generator", "koch", "--k-max", "12", "--format", "csv"]),
    ("generate_koch_l2.json", ["generate", "--generator", "koch", "--level", "2"]),
    ("generate_koch_l4.svg", ["generate", "--generator", "koch", "--level", "4"]),
    ("brownian_n50_seed7.json", ["brownian", "--n", "50", "--seed", "7"]),
]


@pytest.mark.parametrize("name,args", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_cli_output_matches_golden_bytes(tmp_path, name, args):
    out = tmp_path / name
    res = CliRunner().invoke(main, args + ["--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


MEASURE_GOLDEN = [
    ("measure_koch_l6_grid.json",
     ["generate", "--generator", "koch", "--level", "6"],
     ["--method", "grid", "--scales", "0..6"]),
    # at these scales a segment crosses up to thousands of gridlines
    ("measure_koch_l2_grid.csv",
     ["generate", "--generator", "koch", "--level", "2"],
     ["--method", "grid", "--format", "csv", "--scales", "6..10"]),
    ("measure_brownian3000_grid.csv",
     ["brownian", "--n", "3000", "--seed", "7"],
     ["--method", "grid", "--format", "csv", "--rho", "2", "--scales", "2..8"]),
    ("measure_koch_l4_divider.csv",
     ["generate", "--generator", "koch", "--level", "4"],
     ["--method", "divider", "--format", "csv", "--scales", "1..3"]),
    ("measure_brownian3000_divider.csv",
     ["brownian", "--n", "3000", "--seed", "7"],
     ["--method", "divider", "--format", "csv", "--rho", "2", "--scales", "3..7"]),
    # at k=5 a fused multiply-add in the chord test would move the count's last bits
    ("measure_cesaro85_l5_divider.csv",
     ["generate", "--generator", "cesaro", "--angle", "85", "--level", "5"],
     ["--method", "divider", "--format", "csv", "--scales", "1..5"]),
]


@pytest.mark.parametrize("name,make,args", MEASURE_GOLDEN,
                         ids=[name for name, _, _ in MEASURE_GOLDEN])
def test_measure_output_matches_golden_bytes(tmp_path, name, make, args):
    runner = CliRunner()
    poly = tmp_path / "input.json"
    res = runner.invoke(main, make + ["--out", str(poly)], catch_exceptions=False)
    assert res.exit_code == 0
    out = tmp_path / name
    res = runner.invoke(main, ["measure", "--input", str(poly)] + args
                        + ["--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_camera_figure_matches_golden_bytes(tmp_path):
    # three koch panels with the level-2 grid overlay: <g>, <line> and <path>
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "camera_figures.py"),
                    "--out-dir", str(tmp_path)], env=env, check=True,
                   capture_output=True)
    golden = (DATA / "camera_koch.svg").read_bytes()
    assert (tmp_path / "koch_cameras.svg").read_bytes() == golden
