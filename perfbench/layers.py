"""Per-layer metrics of a traced run, computed from its spans.

Function metrics sum the durations of the named spans; ``<layer>.self_s``
sums self times (span time less its main-thread children), so the self
times of one stage add up to the stage's in-process wall time.  The root
span of a stage is the ``cli`` layer for a CLI command and the ``bench``
layer for the library-driving job.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from statistics import mean

import bounds_job
import check
import workloads
from tracer import Span, self_times

LAYER_NAMES = ("geometry", "serialize", "render", "estimator", "measures",
               "kinematics", "cli", "bench")

#: every per-layer metric with its unit, in report order
PER_LAYER = {
    "geometry.refine_s": "s",
    "serialize.polyline_dump_s": "s",
    "serialize.polyline_bytes": "bytes",
    "serialize.polyline_load_s": "s",
    "serialize.report_dump_s": "s",
    "render.svg_s": "s",
    "render.svg_bytes": "bytes",
    "estimator.grid_s": "s",
    "estimator.grid_finest_s": "s",
    "estimator.grid_cells": "count",
    "estimator.grid_crossing_segments": "count",
    "estimator.divider_s": "s",
    "estimator.divider_steps": "count",
    "estimator.divider_segments_per_step": "ratio",
    "estimator.fit_s": "s",
    "estimator.brownian_s": "s",
    "estimator.pool_speedup": "ratio",
    "measures.scale_table_s": "s",
    "measures.gamma_exact_s": "s",
    **{f"kinematics.verify_bounds_s.{label}": "s" for label in workloads.BOUND_LABELS},
    "kinematics.uncertainty_table_s": "s",
    "cli.overhead_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYER_NAMES},
}

_POLYLINE_DUMP = {"serialize.polyline_to_dict"}
_POLYLINE_LOAD = {"serialize.polyline_from_dict"}


def _kind(span: Span) -> str:
    """Which serialize metric a serialize-layer span belongs to."""
    if span.name in _POLYLINE_DUMP or (span.name == "json.dumps" and span.tag == "polyline"):
        return "polyline_dump"
    if span.name in _POLYLINE_LOAD or (span.name == "json.loads" and span.tag == "polyline"):
        return "polyline_load"
    return "report_dump"


def stage_accounting(spans: list[Span]) -> dict[int, float]:
    """Per stage root: its wall time less the sum of the self times of the
    spans in it (0 up to rounding when the spans account for the stage)."""
    st = self_times(spans)
    covered = defaultdict(float)
    for i, s in enumerate(spans):
        root = i if s.parent is None else s.stage
        covered[root] += st[i]
    return {i: spans[i].duration - covered[i] for i, s in enumerate(spans) if s.parent is None}


def per_layer(wl, spans: list[Span], serial: list[Span], stage_lib: list[bool],
              cli_walls: list[float], traced_walls: list[float], plain_walls: list[float],
              work: Path) -> dict[str, float]:
    """Every PER_LAYER metric for one traced job of workload `wl`.

    `spans` are the traced replay's, `serial` the serial per-scale counts'.
    `stage_lib` and the wall lists are per stage, in stage order; the walls
    are the untraced CLI job's, the traced replay's and the untraced
    in-process replay's.
    """
    st = self_times(spans)
    roots = [i for i, s in enumerate(spans) if s.parent is None]
    stage_name = {i: spans[i].name.removeprefix("stage.") for i in roots}
    root_lib = dict(zip(roots, stage_lib))

    def dur(name: str, stage: str | None = None, tag=None) -> float:
        return sum((s.duration for s in spans if s.name == name
                    and (stage is None or stage_name.get(s.stage) == stage)
                    and (tag is None or s.tag == tag)), 0.0)

    layer_self = defaultdict(float)
    serialize_kind = defaultdict(float)
    estimator_stage = defaultdict(float)
    for i, s in enumerate(spans):
        if not s.main:
            continue
        if s.parent is None:
            layer = "bench" if root_lib[i] else "cli"
        else:
            layer = s.layer
        layer_self[layer] += st[i]
        if layer == "serialize":
            serialize_kind[_kind(s)] += st[i]
        if layer == "estimator" and s.parent is not None:
            estimator_stage[stage_name[s.stage]] += st[i]

    m = {name: 0.0 for name in PER_LAYER}
    m["geometry.refine_s"] = dur("geometry.refine")
    for kind in ("polyline_dump", "polyline_load", "report_dump"):
        m[f"serialize.{kind}_s"] = serialize_kind[kind]
    m["render.svg_s"] = dur("render.render_svg")
    m["estimator.fit_s"] = dur("estimator.estimate_dimension")
    m["estimator.brownian_s"] = dur("estimator.brownian_path") + dur("estimator.brownian_metadata")
    m["measures.scale_table_s"] = dur("measures.scale_table")
    m["measures.gamma_exact_s"] = dur("measures.gamma_exact", "verify")
    m["kinematics.uncertainty_table_s"] = dur("kinematics.uncertainty_table")

    for label, spec in bounds_job.generators():
        m[f"kinematics.verify_bounds_s.{label}"] = dur(
            "kinematics.verify_bounds", "verify", tag=spec.name)

    if wl.measures:  # the trajectory workloads
        m["serialize.polyline_bytes"] = (work / wl.polyline).stat().st_size
        svg = work / "koch.svg"
        m["render.svg_bytes"] = svg.stat().st_size if svg.exists() else 0
        vertices = json.loads((work / wl.polyline).read_text())["vertices"]
        threaded = sum(s.duration for s in spans if s.name == "estimator.measure_polyline")
        serial_sum = sum(s.duration for s in serial if s.name in
                         ("estimator.grid_count", "estimator.divider_count"))
        m["estimator.pool_speedup"] = serial_sum / threaded
        for meas in wl.measures:
            doc = json.loads((work / meas.out).read_text())
            fit = dur("estimator.estimate_dimension", f"measure_{meas.method}")
            m[f"estimator.{meas.method}_s"] = estimator_stage[f"measure_{meas.method}"] - fit
            if meas.method == "grid":
                m["estimator.grid_cells"] = int(sum(check.counts(doc)))
                m["estimator.grid_crossing_segments"] = workloads.crossing_segments(
                    vertices, meas.scales, meas.rho)
                finest = [s for s in serial if s.name == "estimator.grid_count"]
                m["estimator.grid_finest_s"] = min(finest, key=lambda s: s.tag).duration
            else:
                steps = workloads.divider_steps(doc)
                m["estimator.divider_steps"] = sum(steps)
                # a walk scans nseg + steps segments in all (each step rescans
                # the segment it stopped on), so per step nseg / steps + 1
                m["estimator.divider_segments_per_step"] = (len(vertices) - 1) / steps[-1] + 1

    cli_stages = [i for i, lib in enumerate(stage_lib) if not lib]
    m["cli.overhead_s"] = mean(cli_walls[i] - traced_walls[i] for i in cli_stages)
    m["trace.overhead_s"] = sum(traced_walls) - sum(plain_walls)
    for layer in LAYER_NAMES:
        m[f"{layer}.self_s"] = layer_self[layer]
    return m
