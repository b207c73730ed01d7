import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractalkin.estimator import (
    MeasurementRow,
    brownian_metadata,
    brownian_path,
    divider_count,
    estimate_dimension,
    grid_count,
    measure_polyline,
)
from fractalkin.geometry import Polyline, base_segment, builtin, refine

LOG3_4 = math.log(4.0) / math.log(3.0)


def koch_level(k: int) -> Polyline:
    return refine(base_segment(1.0), builtin("koch"), k)


# ---------------------------------------------------------------------------
# grid counting


def test_grid_count_three_columns():
    seg = Polyline(np.array([[0.001, 0.5], [0.999, 0.5]]))
    assert grid_count(seg, 1.0 / 3.0) == 3


def test_grid_count_single_cell():
    seg = Polyline(np.array([[0.1, 0.1], [0.2, 0.15]]))
    assert grid_count(seg, 1.0 / 3.0) == 1


def test_grid_count_validation():
    seg = Polyline(np.array([[0.0, 0.0], [1.0, 1.0]]))
    with pytest.raises(ValueError):
        grid_count(seg, 0.0)


def test_grid_count_corner_touch():
    # descending diagonal through the lattice corner (1, 1): the corner
    # point belongs to cell (1, 1), which the segment only touches there
    seg = Polyline(np.array([[0.5, 1.5], [1.5, 0.5]]))
    assert grid_count(seg, 1.0) == 3
    # ascending diagonal passes from (0,0) to (1,1) without extra touch
    seg_up = Polyline(np.array([[0.5, 0.5], [1.5, 1.5]]))
    assert grid_count(seg_up, 1.0) == 2


def test_grid_count_on_gridline_single_row():
    # a segment riding y = 0 occupies one row of cells, not two
    seg = Polyline(np.array([[0.1, 0.0], [0.9, 0.0]]))
    assert grid_count(seg, 1.0 / 3.0) == 3


def test_grid_count_refinement_monotone():
    # refining the ladder by the factor rho never loses cells
    polys = [
        koch_level(5),
        refine(base_segment(1.0), builtin("line"), 4),
        brownian_path(2000, seed=11, step_std=1.0),
    ]
    for poly in polys:
        for j in range(1, 5):
            c = poly.diameter() / 3.0**j
            assert grid_count(poly, c) <= grid_count(poly, c / 3.0)


def test_grid_count_translation_quasi_invariance():
    # statistical check: random offsets change the count by < factor 4
    poly = koch_level(5)
    cell = 3.0**-3
    base_count = grid_count(poly, cell)
    rng = np.random.default_rng(2026)
    for _ in range(20):
        offset = rng.uniform(-3.0, 3.0, size=2)
        shifted = Polyline(poly.vertices + offset)
        count = grid_count(shifted, cell)
        assert base_count / 4.0 <= count <= base_count * 4.0


def test_grid_count_koch_level6_slope():
    poly = koch_level(6)
    rows = []
    for j in range(1, 6):
        dx = 3.0**-j
        rows.append((j, dx, grid_count(poly, dx)))
    # independent regression oracle on the raw counts
    x = np.log([1.0 / dx for _, dx, _ in rows])
    y = np.log([c for _, _, c in rows])
    slope = np.polyfit(x, y, 1)[0]
    assert abs(slope - LOG3_4) < 0.05


# ---------------------------------------------------------------------------
# divider stepping


def test_divider_straight_segment():
    seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert divider_count(seg, 0.25) == pytest.approx(4.0, abs=1e-6)


def test_divider_koch_matches_cell_law():
    poly = refine(base_segment(1.0), builtin("koch"), 6)
    for j in range(1, 7):
        steps = divider_count(poly, 3.0**-j)
        assert abs(steps - 4**j) <= 1.0, j


def test_divider_degenerate_step_larger_than_diameter():
    closed = Polyline(
        np.array([[0.0, 0.0], [0.1, 0.0], [0.1, 0.1], [0.0, 0.1], [0.0, 0.0]])
    )
    assert divider_count(closed, 5.0) == 0.0  # end chord vanishes
    open_curve = Polyline(np.array([[0.0, 0.0], [0.3, 0.4]]))
    assert divider_count(open_curve, 5.0) == pytest.approx(0.1, rel=1e-9)
    assert divider_count(open_curve, 5.0) < 1.0


def test_divider_validation():
    seg = Polyline(np.array([[0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        divider_count(seg, -1.0)


# ---------------------------------------------------------------------------
# dimension regression


def test_estimate_dimension_exact_power_law():
    rows = [
        MeasurementRow(k=k, dx=dx, count=(1.0 / dx) ** 1.5, length=0.0)
        for k, dx in enumerate([1.0, 0.5, 0.25, 0.125, 0.0625])
    ]
    fit = estimate_dimension(rows)
    assert fit.ds_hat == pytest.approx(1.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    assert fit.k_fit_range == (0, 4)


def test_estimate_dimension_saturation_exclusion():
    # counts stall at 400 past k=2: saturated scales leave the fit
    dxs = [1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125]
    counts = [25.0, 100.0, 400.0, 404.0, 405.0, 406.0]
    rows = [
        MeasurementRow(k=k, dx=dx, count=c, length=0.0)
        for k, (dx, c) in enumerate(zip(dxs, counts))
    ]
    fit = estimate_dimension(rows)
    assert fit.k_fit_range == (0, 2)
    assert fit.ds_hat == pytest.approx(2.0, abs=1e-12)
    # override keeps every scale and drags the slope down
    full = estimate_dimension(rows, exclude_saturated=False)
    assert full.k_fit_range == (0, 5)
    assert full.ds_hat < 1.7


def test_estimate_dimension_needs_three_scales():
    rows = [
        MeasurementRow(k=0, dx=1.0, count=10.0, length=0.0),
        MeasurementRow(k=1, dx=0.5, count=20.0, length=0.0),
    ]
    with pytest.raises(ValueError):
        estimate_dimension(rows)


def test_estimate_dimension_rejects_counts_below_one():
    rows = [
        MeasurementRow(k=k, dx=dx, count=c, length=0.0)
        for k, (dx, c) in enumerate(zip([1.0, 0.5, 0.25], [0.5, 2.0, 4.0]))
    ]
    with pytest.raises(ValueError):
        estimate_dimension(rows)


def test_straight_segment_dimension_near_one():
    seg = Polyline(np.array([[0.0013, 0.457], [0.9977, 0.457]]))
    result = measure_polyline(seg, range(1, 7), rho=3.0, base_length=1.0)
    assert 0.98 <= result.fit.ds_hat <= 1.02


def test_koch_level6_dimension():
    result = measure_polyline(koch_level(6), range(1, 6), rho=3.0)
    assert abs(result.fit.ds_hat - LOG3_4) < 0.05


def test_divider_dimension_on_koch():
    result = measure_polyline(koch_level(6), range(1, 6), rho=3.0, method="divider")
    assert abs(result.fit.ds_hat - LOG3_4) < 0.01


def test_measure_polyline_validation():
    poly = koch_level(2)
    with pytest.raises(ValueError):
        measure_polyline(poly, [], rho=3.0)
    with pytest.raises(ValueError):
        measure_polyline(poly, [-1, 0], rho=3.0)
    with pytest.raises(ValueError):
        measure_polyline(poly, [1, 2, 3], rho=1.0)
    with pytest.raises(ValueError):
        measure_polyline(poly, [1, 2, 3], method="laser")


# ---------------------------------------------------------------------------
# brownian paths


def test_brownian_deterministic_given_seed():
    a = brownian_path(500, seed=77, step_std=2.0)
    b = brownian_path(500, seed=77, step_std=2.0)
    assert np.array_equal(a.vertices, b.vertices)
    c = brownian_path(500, seed=78, step_std=2.0)
    assert not np.array_equal(a.vertices, c.vertices)


def test_brownian_minimal_path():
    p = brownian_path(2, seed=0)
    assert p.n_vertices == 2
    assert np.all(np.isfinite(p.vertices))
    assert np.array_equal(p.vertices[0], [0.0, 0.0])


def test_brownian_validation():
    with pytest.raises(ValueError):
        brownian_path(1, seed=0)
    with pytest.raises(ValueError):
        brownian_path(10, seed=0, step_std=0.0)


def test_brownian_metadata_block():
    meta = brownian_metadata(100, 7, 0.5)
    assert set(meta) == {"seed", "n", "step_std", "prng"}
    assert meta["seed"] == 7 and meta["n"] == 100 and meta["step_std"] == 0.5
    assert "Philox" in meta["prng"]


def test_brownian_step_scale():
    p = brownian_path(20000, seed=5, step_std=3.0)
    steps = np.diff(p.vertices, axis=0)
    assert np.std(steps) == pytest.approx(3.0, rel=0.05)


@settings(max_examples=10, deadline=None)
@given(n=st.integers(min_value=2, max_value=200), seed=st.integers(min_value=0, max_value=2**32))
def test_brownian_shape_property(n, seed):
    p = brownian_path(n, seed=seed)
    assert p.n_vertices == n
    assert p.level is None
