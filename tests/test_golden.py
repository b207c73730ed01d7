"""CLI outputs pinned byte for byte against files in tests/data.

A change that alters one of these files on purpose regenerates it with
the command in its row (add ``--out tests/data/<file>``; a `measure` row
first writes its input polyline with the row's `generate` or `brownian`
command) and names every changed byte in its change notes.  The camera
figure is what ``scripts/camera_figures.py`` writes with its defaults.
"""

import hashlib
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
    # 17 distinct values among 164 coordinates
    ("generate_peano_l2.json", ["generate", "--generator", "peano", "--level", "2"]),
    ("generate_koch_l4.svg", ["generate", "--generator", "koch", "--level", "4"]),
    ("brownian_n50_seed7.json", ["brownian", "--n", "50", "--seed", "7"]),
]


@pytest.mark.parametrize("name,args", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_cli_output_matches_golden_bytes(tmp_path, name, args):
    out = tmp_path / name
    res = CliRunner().invoke(main, args + ["--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_koch_l7_outputs_match_golden_digests(tmp_path):
    # 16385 vertices: two full chunks of each writer and one more vertex;
    # the file holds `sha256sum` lines
    digests = dict(line.split()[::-1] for line in
                   (DATA / "generate_koch_l7.sha256").read_text().splitlines())
    assert set(digests) == {"koch_l7.json", "koch_l7.svg"}
    for name, digest in digests.items():
        out = tmp_path / name
        res = CliRunner().invoke(main, ["generate", "--generator", "koch", "--level", "7",
                                        "--out", str(out)], catch_exceptions=False)
        assert res.exit_code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest, name


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


def _measure_input(tmp_path, make):
    poly = tmp_path / "input.json"
    res = CliRunner().invoke(main, make + ["--out", str(poly)], catch_exceptions=False)
    assert res.exit_code == 0
    return poly


@pytest.mark.parametrize("name,make,args", MEASURE_GOLDEN,
                         ids=[name for name, _, _ in MEASURE_GOLDEN])
def test_measure_output_matches_golden_bytes(tmp_path, name, make, args):
    poly = _measure_input(tmp_path, make)
    out = tmp_path / name
    res = CliRunner().invoke(main, ["measure", "--input", str(poly)] + args
                             + ["--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    assert out.read_bytes() == (DATA / name).read_bytes()


def _subprocess_env(**extra):
    """This environment with src importable and `extra` set on top."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])), **extra)


@pytest.mark.parametrize("name", ["measure_cesaro85_l5_divider.csv",
                                  "measure_koch_l6_grid.json"])
def test_measure_golden_bytes_under_the_nehalem_kernel(tmp_path, name):
    # the divider's chord test and the fit once went through OpenBLAS, whose
    # Haswell kernel fused a multiply-add that Nehalem's did not; OpenBLAS
    # picks its kernel as numpy loads, hence a fresh interpreter
    make, args = {n: (m, a) for n, m, a in MEASURE_GOLDEN}[name]
    poly = _measure_input(tmp_path, make)
    out = tmp_path / name
    subprocess.run([sys.executable, "-m", "fractalkin", "measure", "--input", str(poly),
                    *args, "--out", str(out)],
                   env=_subprocess_env(OPENBLAS_CORETYPE="Nehalem"), check=True,
                   capture_output=True, timeout=120)
    assert out.read_bytes() == (DATA / name).read_bytes()


def test_camera_figure_matches_golden_bytes(tmp_path):
    # three koch panels with the level-2 grid overlay: <g>, <line> and <path>
    subprocess.run([sys.executable, str(ROOT / "scripts" / "camera_figures.py"),
                    "--out-dir", str(tmp_path)], env=_subprocess_env(), check=True,
                   capture_output=True)
    golden = (DATA / "camera_koch.svg").read_bytes()
    assert (tmp_path / "koch_cameras.svg").read_bytes() == golden
