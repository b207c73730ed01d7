"""Tests of the benchmark's own checks, tracer and smoke mode.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, instrumented, self_times  # noqa: E402

KOCH9_GRID = [{"k": k, "count": float(c)} for k, c in
              enumerate(check.KOCH_GRID_COUNTS[9], start=1)]


def _divider_doc(counts, ds_hat):
    return {"rows": [{"k": k, "count": c} for k, c in enumerate(counts, start=1)],
            "fit": {"ds_hat": ds_hat}}


def test_koch_grid_counts_accept_the_reference_and_reject_a_wrong_count():
    assert check.koch_grid({"rows": KOCH9_GRID}, 9).ok
    wrong = [dict(r) for r in KOCH9_GRID]
    wrong[6]["count"] += 1
    assert not check.koch_grid({"rows": wrong}, 9).ok


def test_koch_divider_accepts_tolerance_leak_and_snapped_counts():
    leaky = [4.0000000011250005, 16.000000001050566, 64.00000000105055, 256.0000000010506]
    for counts, ds in ((leaky, 1.2618595070627514), ([4.0, 16.0, 64.0, 256.0], check.KOCH_DS)):
        assert all(c.ok for c in check.koch_divider(_divider_doc(counts, ds)))


def test_koch_divider_rejects_wrong_count_and_wrong_ds_hat():
    counts_check, ds_check = check.koch_divider(_divider_doc([4.0, 16.0, 64.0, 257.0], check.KOCH_DS))
    assert not counts_check.ok and ds_check.ok
    counts_check, ds_check = check.koch_divider(_divider_doc([4.0, 16.0, 64.0, 256.0], 1.2618))
    assert counts_check.ok and not ds_check.ok


def test_changed_bytes_fail_determinism(tmp_path):
    out = tmp_path / "walk.json"
    out.write_text('{"vertices": [[0.0, 0.0], [1.0, 0.0]]}\n')
    first = check.digests([out])
    assert check.same_bytes(first, check.digests([out])).ok
    out.write_text('{"vertices": [[0.0, 0.0], [1.0, 1e-17]]}\n')
    assert not check.same_bytes(first, check.digests([out])).ok


def test_brownian_counts_must_not_decrease():
    grid = {"rows": [{"k": 2, "count": 10.0}, {"k": 3, "count": 30.0}]}
    shrinking = {"rows": [{"k": 4, "count": 50.0}, {"k": 5, "count": 49.0}]}
    assert [c.ok for c in check.brownian_measures(grid, grid)] == [True, True]
    assert [c.ok for c in check.brownian_measures(grid, shrinking)] == [True, False]


def test_bounds_report_needs_every_row_to_pass_over_the_whole_range():
    rows = [{"k": k, "pass": True} for k in range(1, 4)]
    assert check.bounds_report("r", {"rows": rows}, 3).ok
    assert not check.bounds_report("r", {"rows": rows[:2]}, 3).ok
    rows[1]["pass"] = False
    assert not check.bounds_report("r", {"rows": rows}, 3).ok


def test_workload_checks_fail_on_a_wrong_output(tmp_path):
    from fractalkin import base_segment, builtin, measure_polyline, refine, render, serialize

    wl = workloads.KochLadder(smoke=True)
    poly = refine(base_segment(1.0), builtin("koch"), wl.level)
    (tmp_path / "koch.json").write_text(json.dumps(serialize.polyline_to_dict(poly)))
    (tmp_path / "koch.svg").write_text(render.render_svg(poly))
    for meas in wl.measures:
        res = measure_polyline(poly, meas.scales, rho=meas.rho, method=meas.method)
        (tmp_path / meas.out).write_text(json.dumps(serialize.measurement_to_dict(res)))
    assert all(c.ok for c in wl.checks(tmp_path))
    grid = json.loads((tmp_path / "grid.json").read_text())
    grid["rows"][-1]["count"] -= 1
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    failed = [c.name for c in wl.checks(tmp_path) if not c.ok]
    assert failed == ["koch_grid_counts"]


def test_self_times_add_up_and_instrumentation_is_undone():
    import fractalkin.geometry as geometry
    from fractalkin import base_segment, builtin, cli

    original = geometry.refine
    tracer = Tracer()
    with instrumented(tracer):
        assert geometry.refine is not original and cli.refine is geometry.refine
        with tracer.stage_span("stage.generate"):
            geometry.refine(base_segment(1.0), builtin("koch"), 3)
    assert geometry.refine is original and cli.refine is original
    spans = tracer.spans
    assert [s.name for s in spans] == ["stage.generate", "geometry.refine"]
    assert math.isclose(sum(self_times(spans)), spans[0].duration, rel_tol=1e-9)
    assert all(abs(gap) < 1e-9 for gap in layers.stage_accounting(spans).values())


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_smoke_mode_runs_every_workload_in_seconds(tmp_path):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "all", "--smoke",
         "--seconds", "1", "--out", str(tmp_path / "result.json")],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert time.perf_counter() - start < 60
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["failed"] == 0
    record = json.loads((tmp_path / "result.json").read_text())
    # the known-defect probes are recorded apart from the workload's checks
    for r in record["results"]:
        assert all("probe:" not in c["name"] for c in r["checks"])
        assert len(r["probes"]) == (3 if r["workload"] == "bounds-exact" else 0)


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "koch-ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_workload_sizes_are_recorded(name):
    sizes = workloads.make(name, False, workloads.DEFAULT_WALK_SEED).sizes()
    assert sizes and all(v is not None for v in sizes.values())
