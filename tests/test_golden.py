"""CLI outputs pinned byte for byte against files in tests/data.

A change that alters one of these files on purpose regenerates it with
the command in its row (add ``--out tests/data/<file>``) and names every
changed byte in its change notes.
"""

from pathlib import Path

import pytest
from click.testing import CliRunner

from fractalkin.cli import main

DATA = Path(__file__).parent / "data"

GOLDEN = [
    ("analyze_peano_k12.json",
     ["analyze", "--generator", "peano", "--k-max", "12", "--format", "json"]),
    ("analyze_cesaro85_k12.json",
     ["analyze", "--generator", "cesaro", "--angle", "85", "--k-max", "12",
      "--format", "json"]),
    ("analyze_koch_k12.csv",
     ["analyze", "--generator", "koch", "--k-max", "12", "--format", "csv"]),
    ("generate_koch_l2.json", ["generate", "--generator", "koch", "--level", "2"]),
]


@pytest.mark.parametrize("name,args", GOLDEN, ids=[name for name, _ in GOLDEN])
def test_cli_output_matches_golden_bytes(tmp_path, name, args):
    out = tmp_path / name
    res = CliRunner().invoke(main, args + ["--out", str(out)], catch_exceptions=False)
    assert res.exit_code == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
