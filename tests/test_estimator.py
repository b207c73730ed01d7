import itertools
import math
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fractalkin import estimator, measures
from fractalkin.estimator import (
    MeasurementRow,
    brownian_metadata,
    brownian_path,
    divider_count,
    estimate_dimension,
    grid_count,
    measure_polyline,
)
from fractalkin.geometry import K_MAX, Polyline, base_segment, builtin, refine
from fractalkin.measures import resolution

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
    for cell in (0.0, math.inf):  # inf counted 1 cell, with a RuntimeWarning
        with pytest.raises(ValueError, match=f"^cell must be positive and finite, got {cell}$"):
            grid_count(seg, cell)


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


def supercover_oracle(poly: Polyline, cell: float) -> int:
    """Reference grid count in plain Python, one segment at a time: cut the
    segment at its gridline crossings, then add the cell of every cut point
    (ends included) and of every open piece's midpoint."""
    cells = set()
    v = poly.vertices.tolist()
    for (ax, ay), (bx, by) in zip(v, v[1:]):
        dx, dy = bx - ax, by - ay
        ts = {0.0, 1.0}
        for a, b, d in ((ax, bx, dx), (ay, by, dy)):
            if d != 0.0:
                lo, hi = math.ceil(min(a, b) / cell), math.floor(max(a, b) / cell)
                for i in range(lo, hi + 1):
                    t = (i * cell - a) / d
                    if 0.0 < t < 1.0:
                        ts.add(t)
        params = sorted(ts)
        mids = [0.5 * (t0 + t1) for t0, t1 in zip(params, params[1:])]
        for t in params + mids:
            cells.add((math.floor((ax + t * dx) / cell), math.floor((ay + t * dy) / cell)))
    return len(cells)


def _unique_rows(ij: np.ndarray) -> np.ndarray:
    """The distinct rows of an (n, 2) array of cell indices."""
    ij = ij[np.lexsort((ij[:, 1], ij[:, 0]))]
    keep = np.ones(len(ij), dtype=bool)
    keep[1:] = (ij[1:] != ij[:-1]).any(axis=1)
    return ij[keep]


def rows_oracle(poly: Polyline, cell: float) -> int:
    """Reference grid count in whole-array numpy, the same supercover as
    `supercover_oracle`: every segment's ends and crossings go through one
    (segment, t) sort, the pieces' midpoints are added, and all those
    points are floored to (i, j) rows and deduplicated in one pass."""
    v = poly.vertices
    a, d = v[:-1], v[1:] - v[:-1]
    sx, tx = estimator._axis_crossings(a[:, 0], v[1:, 0], cell)
    sy, ty = estimator._axis_crossings(a[:, 1], v[1:, 1], cell)
    ends = np.arange(len(a))
    seg = np.concatenate([ends, ends, sx, sy])
    t = np.concatenate([np.zeros(len(a)), np.ones(len(a)), tx, ty])
    order = np.lexsort((t, seg))
    seg, t = seg[order], t[order]
    same = seg[1:] == seg[:-1]
    seg = np.concatenate([seg, seg[1:][same]])
    t = np.concatenate([t, 0.5 * (t[:-1][same] + t[1:][same])])
    cells = np.floor((a[seg] + t[:, None] * d[seg]) / cell).astype(np.int64)
    return len(_unique_rows(cells))


def test_grid_count_matches_rows_oracle_on_koch():
    # vertices on the ladder's gridlines, few crossings per segment
    poly = koch_level(7)
    for k in range(0, 9):
        dx = resolution(k, poly.diameter(), 3.0)
        assert grid_count(poly, dx) == rows_oracle(poly, dx), k


def test_grid_count_matches_rows_oracle_on_brownian():
    # off-lattice, and most segments cross gridlines at the finest scales
    poly = brownian_path(20000, 7)
    for k in range(2, 13):
        dx = resolution(k, poly.diameter(), 2.0)
        assert grid_count(poly, dx) == rows_oracle(poly, dx), k


# quarter-cell lattice coordinates hit gridlines and corners; the rest do not
_coord = st.one_of(
    st.integers(min_value=-12, max_value=12).map(lambda q: q / 4.0),
    st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
)

# offsets in cells: near the origin, and with cell indices near 2^32
_offset = st.one_of(
    st.integers(-1000, 1000),
    st.integers(-1000, 1000).map(lambda q: q + 2**32),
    st.integers(-1000, 1000).map(lambda q: q - 2**32),
)


@settings(deadline=None)
@given(
    points=st.lists(st.tuples(_coord, _coord), min_size=2, max_size=30),
    offset=st.tuples(_offset, _offset),
    cell=st.sampled_from([1.0, 0.5, 1.0 / 3.0, 0.1]),
    chunk=st.sampled_from([1, 2, 3, estimator._GRID_CHUNK]),
)
def test_grid_count_matches_supercover_oracle(points, offset, cell, chunk):
    v = (np.array(points) + np.array(offset, dtype=float)) * cell
    v = v[np.r_[True, np.any(v[1:] != v[:-1], axis=1)]]
    assume(len(v) >= 2)
    poly = Polyline(v)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(estimator, "_GRID_CHUNK", chunk)
        count = grid_count(poly, cell)
    assert count == supercover_oracle(poly, cell) == rows_oracle(poly, cell)


def test_grid_count_far_from_origin():
    # the cells (0, 2^32) and (1, 2^32): indices this large must stay apart
    y = 2.0**32
    poly = Polyline(np.array([[0.2, y + 0.2], [0.4, y + 0.4],
                              [1.2, y + 0.4], [1.4, y + 0.2]]))
    assert grid_count(poly, 1.0) == 2


@pytest.mark.parametrize("x0", [1e15, 1e18])
def test_grid_count_refuses_indices_past_float64_integers(x0):
    # 1024 x 1024 in cells of 1/16 counts 32769 at the origin; at these
    # offsets the indices pass 2^53 and the count came out 24577 and 16385
    poly = Polyline(np.array([[x0, 0.0], [x0 + 1024.0, 0.0], [x0 + 1024.0, 1024.0]]))
    with pytest.raises(ValueError, match="2\\*\\*53"):
        grid_count(poly, 1.0 / 16.0)


def test_grid_count_refuses_crossings_past_the_cap():
    # Koch L2 at dx = 3^-18 needs ~3.4e8 crossings per axis in one chunk
    with pytest.raises(ValueError, match="gridlines"):
        grid_count(koch_level(2), 3.0**-18)


def test_grid_count_holds_each_cell_once():
    # the chunks' distinct cells go into one buffer that grows in place:
    # Koch L9 at k = 9 traces 23 B per cell, where a list of chunk arrays
    # and their concatenation traced 32.5
    poly = koch_level(9)
    tracemalloc.start()
    try:
        count = grid_count(poly, resolution(9, 1.0, 3.0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 272229
    assert peak < 28 * count


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
    for step in (-1.0, math.inf):  # inf counted 0.0 steps
        with pytest.raises(ValueError, match=f"^step must be positive and finite, got {step}$"):
            divider_count(seg, step)


def test_divider_refuses_steps_past_the_cap():
    # the square of this step underflows to 0: the walk used to report
    # 2.149e170 steps and length 1 for a curve of length 16/9
    with pytest.raises(ValueError, match="too short"):
        divider_count(koch_level(2), 4.65e-171)


def test_divider_reads_column_major_vertices():
    # Polyline stores a column-major input row-major, as the divider's flat
    # float view of the vertices needs
    rows = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 0.0], [3.0, 1.5]])
    cols = Polyline(np.asfortranarray(rows))
    assert cols.vertices.flags.c_contiguous
    assert divider_count(cols, 0.7) == divider_count(Polyline(rows), 0.7)


def divider_oracle(poly: Polyline, step: float) -> float:
    """Reference divider count, one segment at a time: from the anchor, solve
    the chord quadratic on every segment in turn and take the first root
    t in (u, 1], u being the anchor's parameter on its own segment."""
    v = poly.vertices
    nseg = len(v) - 1
    anchor = v[0]
    seg = 0
    u = 0.0
    full_steps = 0
    step2 = (step * (1.0 - 1e-9)) ** 2
    while True:
        hit = None
        j, ulo = seg, u
        while j < nseg:
            a = v[j]
            # plain float64 sums of products, as in divider_count: `d @ d` goes
            # to BLAS, whose kernel may fuse the multiply-add
            d0, d1 = v[j + 1] - a
            w0, w1 = a - anchor
            qa = float(d0 * d0 + d1 * d1)
            qb = 2.0 * float(w0 * d0 + w1 * d1)
            qc = float(w0 * w0 + w1 * w1) - step2
            disc = qb * qb - 4.0 * qa * qc
            if qa == 0.0:  # |d|^2 underflowed: the equation is linear, qb t + qc = 0
                roots = (-qc / qb,) if qb != 0.0 else ()
            elif disc >= 0.0:
                root = math.sqrt(disc)
                roots = ((-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa))
            else:
                roots = ()
            best = None
            for t in roots:
                if ulo < t <= 1.0 and (best is None or t < best):
                    best = t
            if best is not None:
                hit = (j, best)
                break
            j += 1
            ulo = 0.0
        if hit is None:
            break
        seg, u = hit
        anchor = v[seg] + u * (v[seg + 1] - v[seg])
        full_steps += 1
    tail = float(np.hypot(*(v[-1] - anchor)))
    return full_steps + tail / step


@settings(deadline=None, max_examples=300)
@given(
    # quarter-lattice coordinates put step points on vertices; the rest do not
    points=st.lists(st.tuples(_coord, _coord), min_size=2, max_size=40),
    closed=st.booleans(),
    step=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0]),
                   st.floats(min_value=0.05, max_value=8.0)),
    seg_index=st.integers(min_value=0),
    stretch=st.sampled_from([None, 1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-12, 0.5]),
)
# step 2.25, whose binade scaling by 1/4 rounded the subnormal coordinate
@example(points=[(0.0, -0.25), (-0.25, 0.0), (2.0, 0.0), (2.2250738585e-313, -0.25)],
         closed=False, step=1.0, seg_index=1, stretch=1.0)
def test_divider_matches_oracle(points, closed, step, seg_index, stretch):
    v = np.array(points + points[:1] if closed else points, dtype=float)
    v = v[np.r_[True, np.any(v[1:] != v[:-1], axis=1)]]
    assume(len(v) >= 2)
    # the chord test divides by a segment's squared length, which underflows
    # to 0 on segments shorter than ~1e-162 and then raises ZeroDivisionError
    assume((np.diff(v, axis=0) ** 2).sum(axis=1).min() > 1e-300)
    if stretch is not None:  # a step at (or just off) some segment's length
        d = np.diff(v, axis=0)
        step = stretch * float(np.hypot(*d[seg_index % len(d)]))
    assume(step >= 0.05)  # a tiny step would take astronomically many steps
    poly = Polyline(v)
    assert divider_count(poly, step) == divider_oracle(poly, step)


@settings(deadline=None, max_examples=50)
@given(n=st.integers(min_value=2, max_value=400), seed=st.integers(0, 2**32),
       step=st.floats(min_value=0.3, max_value=20.0))
def test_divider_matches_oracle_on_brownian_walks(n, seed, step):
    poly = brownian_path(n, seed)
    assert divider_count(poly, step) == divider_oracle(poly, step)


# the oracle takes ~40 s on Peano's 531,441 segments at level 6, so Peano stops
# at level 4 here and its level-6 ladder is pinned below
@pytest.mark.parametrize("name,angle,levels",
                         [("koch", None, 6), ("peano", None, 4), ("cesaro", 85.0, 6)])
def test_divider_matches_oracle_on_ladders(name, angle, levels):
    spec = builtin(name, angle_deg=angle)
    for level in range(levels + 1):
        poly = refine(base_segment(1.0), spec, level)
        for k in range(level + 1):
            step = spec.rho**-k
            assert divider_count(poly, step) == divider_oracle(poly, step), (level, k)


def test_divider_ladder_pins():
    # values the oracle gives; the Koch level-9 ladder is the koch-ladder benchmark's
    koch = refine(base_segment(), builtin("koch"), 9)
    assert [divider_count(koch, 3.0**-k) for k in range(1, 5)] == [
        4.0000000011250005, 16.000000001050566, 64.00000000105055, 256.0000000010506]
    peano = refine(base_segment(), builtin("peano"), 6)
    assert [divider_count(peano, 3.0**-k) for k in range(6)] == [
        9**k + 1e-9 for k in range(6)]
    # the brownian-walk benchmark's divider ladder
    walk = measure_polyline(brownian_path(100_000, 7), range(4, 10), rho=2.0,
                            method="divider", fit=False)
    assert [r.count for r in walk.rows] == [
        97.5661789912328, 392.4624661848025, 1445.7522101083528, 5244.369584553512,
        17966.46717413154, 54737.91898612022]


def test_divider_count_is_plain_float64():
    # a BLAS dot product that fuses the multiply-add (OpenBLAS's Haswell ddot
    # does on some inputs) moves these counts in their last bits
    cesaro = refine(base_segment(), builtin("cesaro", angle_deg=85.0), 5)
    step = resolution(5, cesaro.diameter(), 3.0)
    assert divider_count(cesaro, step) == divider_oracle(cesaro, step) == 5120.000050043661
    koch = koch_level(3)
    step = resolution(2, koch.diameter(), 2.0)
    assert divider_count(koch, step) == divider_oracle(koch, step) == 4.66577383946962


@pytest.mark.parametrize("vertices,steps", [
    ([[0, 0], [0.3, 0], [0.3, 1e-170], [1, 0]], [0.3 * (1 + 1e-7) / (1 - 1e-9)]),
    ([[0, 0], [1, 0], [1, 1e-170], [3, 0]], [3.0 / 1.5**k for k in range(3)]),
    # the tiny segment is not orthogonal to the chord, so its linear equation is solved
    ([[1, 0], [0, 0], [1e-170, 1e-170], [0, 1]], [(1 + 1e-7) / (1 - 1e-9), 0.5]),
])
def test_divider_segment_shorter_than_underflow(vertices, steps):
    # |d|^2 underflows to 0 on the 1e-170 segment; the chord test must not
    # divide by it, and the segment changes no count
    poly = Polyline(np.array(vertices, dtype=float))
    without = Polyline(np.delete(poly.vertices, 2, axis=0))
    for step in steps:
        count = divider_count(poly, step)
        assert count == divider_oracle(poly, step) == divider_count(without, step), step


def test_divider_counts_a_curve_far_from_the_origin():
    # scaling by 2^34..2^44, the steps' binades, overflowed every x to inf: nan counts
    poly = Polyline(np.array([[1e300, 0], [1e300, 1e-10], [1e300, 3e-10]]))
    for k in range(1, 5):
        step = resolution(k, poly.diameter(), 10.0)
        assert divider_count(poly, step) == divider_oracle(poly, step), k


def test_divider_keeps_a_tiny_coordinate_that_the_steps_binade_would_round():
    # e stops at 2^25, where 1e-300 stays normal: at the steps' binades, 2^30 and 2^34,
    # it lost bits.  At 1e10 the curve is shorter than the step, so its count is
    # the end chord 1e-300 over the step
    v = np.array([[0, 0], [3e9, 0], [3e9, 3e9], [1e-300, 0]])
    poly, up = Polyline(v), Polyline(np.ldexp(v, 40))
    for step in (1e10, 1e9, 7.3e8):
        count = divider_count(poly, step)
        assert count == divider_oracle(poly, step) == divider_count(up, math.ldexp(step, 40)), step


def test_divider_keeps_the_scaled_step_within_its_span():
    # keeping 1e-300 normal would scale a step of 1e299 by only 2^-25, where the
    # chord quadratic overflows and the count falls back to the end chord over the
    # step (14.1, 141.4).  e stops 128 binades short of the step's instead, and
    # rounds 1e-300 to 0, as a copy scaled by 2^-994 does
    v = np.array([[0, 1e-300], [1e300, 0], [1e300, 1e300]])
    poly, down = Polyline(v), Polyline(np.ldexp(v, -994))
    for k in (1, 2):
        step = resolution(k, poly.diameter(), 10.0)
        count = divider_count(poly, step)
        assert count == divider_count(down, math.ldexp(step, -994)), k
        assert round(count) == 2 * 10**k, k


# coordinates that keep every bit under the scalings below: zero, or of
# magnitude >= 2^-20, so that they and their differences stay normal floats
# at 2^-900 (subnormal ones have already lost bits: Koch L3 scaled by 1e-310
# has 15 grid cells, not 16)
_normal_coord = st.one_of(
    st.integers(min_value=-12, max_value=12).map(lambda q: q / 4.0),
    st.floats(min_value=-3.0, max_value=3.0).filter(lambda c: c == 0.0 or abs(c) >= 2.0**-20),
)


@settings(deadline=None, max_examples=200)
@given(
    points=st.lists(st.tuples(_normal_coord, _normal_coord), min_size=2, max_size=30),
    step=st.one_of(st.sampled_from([0.25, 0.5, 1.0, 1.0 / 3.0]),
                   st.floats(min_value=0.05, max_value=8.0)),
    e=st.integers(min_value=-900, max_value=900),
)
def test_counts_do_not_change_under_power_of_two_scaling(points, step, e):
    v = np.array(points, dtype=float)
    v = v[np.r_[True, np.any(v[1:] != v[:-1], axis=1)]]
    assume(len(v) >= 2)
    poly, scaled = Polyline(v), Polyline(np.ldexp(v, e))
    assert divider_count(scaled, math.ldexp(step, e)) == divider_count(poly, step)
    assert grid_count(scaled, math.ldexp(step, e)) == grid_count(poly, step)


@pytest.mark.parametrize("l0", [2.0**300, 2.0**-300, 2.0**-1000])
def test_divider_koch_l3_at_extreme_scales(l0):
    # the chord quadratic on raw coordinates counted 3, 9, 27 at 2^300 and
    # 2.73, 5.58, 19.39 at 2^-300
    koch = refine(base_segment(l0), builtin("koch"), 3)
    assert [divider_count(koch, l0 / 3**k) for k in (1, 2, 3)] == [
        4.0000000011250005, 16.000000001050566, 64.00000000105055]


def test_divider_koch_l3_at_l0_1e80():
    # 1e80 is no power of two, so its vertices round apart from those at l0 = 1
    koch = refine(base_segment(1e80), builtin("koch"), 3)
    rows = measure_polyline(koch, [1, 2, 3], method="divider", fit=False).rows
    assert [r.count for r in rows] == [4.0000000011250005, 16.000000001050569, 64.00000000105055]


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
    # subnormal dx, where 1/dx overflows to inf but ln(1/dx) is finite
    tiny = [MeasurementRow(k=r.k, dx=r.dx * 2.0**-1030, count=r.count, length=0.0) for r in rows]
    assert estimate_dimension(tiny).ds_hat == pytest.approx(1.5, abs=1e-12)


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


def reference_fit(rows):
    """The saturation rule and the least-squares line of ln(count) against
    ln(1/dx), from the textbook normal equations in exact rationals of the
    same logs, each result rounded once; None below 3 usable scales."""
    ordered = sorted(rows, key=lambda r: -r.dx)
    usable = [ordered[0]] + [row for prev, row in zip(ordered, ordered[1:])
                             if row.count >= 1.05 * prev.count]
    if len(usable) < 3:
        return None
    x = [Fraction(-math.log(r.dx)) for r in usable]
    y = [Fraction(math.log(r.count)) for r in usable]
    n, sx, sy = len(x), sum(x), sum(y)
    sxx, sxy = sum(a * a for a in x), sum(a * b for a, b in zip(x, y))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    ss_res = sum((b - slope * a - intercept) ** 2 for a, b in zip(x, y))
    ss_tot = sum((b - sy / n) ** 2 for b in y)
    r2 = 1 if ss_tot == 0 else 1 - ss_res / ss_tot
    ks = [r.k for r in usable]
    return float(slope), float(intercept), float(r2), (min(ks), max(ks))


@settings(max_examples=200, deadline=None)
@given(
    rho=st.floats(min_value=1.5, max_value=10.0),
    k0=st.integers(min_value=0, max_value=30),
    first=st.floats(min_value=1.0, max_value=1e6),
    growth=st.lists(st.floats(min_value=0.0, max_value=12.0), min_size=2, max_size=12),
)
def test_estimate_dimension_matches_reference_fit(rho, k0, first, growth):
    # each scale multiplies the count by e^g, g in [0, 12]: some scales saturate
    counts = [first]
    for g in growth:
        counts.append(counts[-1] * math.exp(g))
    rows = [MeasurementRow(k=k0 + i, dx=resolution(k0 + i, 1.0, rho), count=c, length=0.0)
            for i, c in enumerate(counts)]
    want = reference_fit(rows)
    if want is None:
        with pytest.raises(ValueError, match="need at least 3 usable scales"):
            estimate_dimension(rows)
        return
    slope, intercept, r2, ks = want
    fit = estimate_dimension(rows)
    assert fit.k_fit_range == ks
    assert fit.ds_hat == pytest.approx(slope, rel=1e-9, abs=1e-9)
    assert fit.intercept == pytest.approx(intercept, rel=1e-9, abs=1e-9)
    assert fit.r2 == pytest.approx(r2, abs=1e-9)


def test_estimate_dimension_is_plain_float(monkeypatch):
    # np.polyfit and `@` go through LAPACK and OpenBLAS, whose kernel, picked
    # at run time, moved the fit in its last bits; the fit uses no numpy
    rows = [MeasurementRow(k=k, dx=3.0**-k, count=c, length=0.0)
            for k, c in enumerate([1.0, 4.0, 17.0, 68.0, 290.0, 1230.0, 4893.0])]
    want = estimate_dimension(rows)
    monkeypatch.setattr(estimator, "np", None)
    assert estimate_dimension(rows) == want


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
    # refused by resolution, the one rho check, which names the value
    with pytest.raises(ValueError, match=r"^rho must be > 1 and finite, got 1\.0$"):
        measure_polyline(poly, [1, 2, 3], rho=1.0)
    with pytest.raises(ValueError):
        measure_polyline(poly, [1, 2, 3], method="laser")


def test_measure_polyline_refuses_a_base_length_that_is_not_finite():
    # each raised OverflowError: cannot convert Infinity to integer ratio;
    # a polyline whose extent overflows is now refused as it is built
    with pytest.raises(ValueError, match="^base length must be positive and finite, got inf$"):
        measure_polyline(koch_level(2), [1, 2], base_length=math.inf, fit=False)
    with pytest.raises(ValueError, match="^the polyline's extent overflows float64$"):
        Polyline(np.array([[-1e308, 0.0], [1e308, 0.0]]))


def test_measure_polyline_rejects_fractional_scale_indices():
    # int() used to truncate them: [1.7, 2.2, 3.9] measured k = 1, 2, 3
    poly = koch_level(2)
    with pytest.raises(ValueError, match="integer"):
        measure_polyline(poly, [1.7, 2.2, 3.9], rho=3.0, fit=False)
    rows = measure_polyline(poly, [1.0, np.int64(2)], rho=3.0, fit=False).rows
    assert [row.k for row in rows] == [1, 2]


@pytest.mark.parametrize("rho,ks", [(2.5, range(0, 30)), (3.0, range(30, 60))])
def test_measure_polyline_dx_is_the_correctly_rounded_ladder(rho, ks):
    # L0 / rho**k rounded twice where rho^k is inexact in float64; a tiny
    # polyline keeps every scale countable
    seg = Polyline(np.array([[0.0, 0.0], [1e-30, 0.0]]))
    rows = measure_polyline(seg, ks, rho=rho, base_length=1.0, fit=False).rows
    assert [row.dx for row in rows] == [resolution(k, 1.0, rho) for k in ks]
    assert [row.dx for row in rows] == [float(1 / Fraction(rho) ** k) for k in ks]


def test_measure_polyline_refuses_an_underflowing_scale():
    with pytest.raises(ValueError, match="scale k=700 is too fine"):
        measure_polyline(koch_level(2), [1, 700], rho=3.0, fit=False)


def test_measure_polyline_reads_any_iterable_of_scales_in_one_pass():
    # repeats are skipped and the rows come out in ascending k
    poly = koch_level(3)
    want = measure_polyline(poly, [1, 2, 3], rho=3.0, fit=False)
    assert [row.k for row in want.rows] == [1, 2, 3]
    for ks in (iter([3, 1, 2, 1]), range(3, 0, -1), (2, 3, 1, 3)):
        assert measure_polyline(poly, ks, rho=3.0, fit=False) == want


@pytest.mark.parametrize("ks,message", [
    ([800, 700], "^scale k=800 is too fine"),
    ([700, -1], "^scale k=700 is too fine"),
    ([-1, 700], "^k must be >= 0$"),
])
def test_measure_polyline_names_the_first_bad_scale_in_the_callers_order(ks, message):
    with pytest.raises(ValueError, match=message):
        measure_polyline(koch_level(2), ks, rho=3.0, fit=False)


def test_measure_polyline_settles_few_scales_before_refusing_past_k_max(monkeypatch):
    # no dx underflows before K_MAX at rho = 1 + 1e-7: settling dx at each
    # index up to it took 100,000 settles and 2 s before the refusal
    settles = []
    settle = measures._settle
    monkeypatch.setattr(measures, "_settle", lambda *args: settles.append(args) or settle(*args))
    with pytest.raises(ValueError, match=r"^k must be <= 100000$"):
        measure_polyline(koch_level(2), range(1, 10**11 + 1), rho=1.0000001, fit=False)
    assert len(settles) <= K_MAX.bit_length() + 1


@pytest.mark.parametrize("l0", [5e-324, 1e-300, 1.0, 1e300, sys.float_info.max])
@pytest.mark.parametrize("rho", [1.5, 2.0, 3.0, 10.0, 1000.0, 1e300])
def test_first_underflow_is_the_first_zero_dx(l0, rho):
    first = next((k for k in range(K_MAX + 1) if resolution(k, l0, rho) == 0.0), K_MAX + 1)
    assert estimator._first_underflow(l0, rho) == first


def test_measure_polyline_ends_an_unbounded_ladder_at_k_max():
    # at rho = 1 + 1e-7 no dx underflows before k ~ 7e9; K_MAX ends the
    # endless iterator before any scale is counted
    with pytest.raises(ValueError, match=r"^k must be <= 100000$"):
        measure_polyline(koch_level(2), itertools.count(), rho=1.0000001, fit=False)


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


def test_brownian_refuses_past_vertex_cap(monkeypatch):
    # refused before numpy is asked for the (n - 1) x 2 increments
    monkeypatch.setattr(estimator, "DEFAULT_VERTEX_CAP", 50)
    assert brownian_path(50, seed=0).n_vertices == 50

    def unreachable(*args, **kwargs):
        raise AssertionError("sampled past the cap")

    monkeypatch.setattr(estimator.np.random, "Generator", unreachable)
    with pytest.raises(ValueError, match="51 vertices is above the cap of 50"):
        brownian_path(51, seed=0)


@pytest.mark.parametrize("n,seed,step_std", [(10**5, 7, 1.0), (3000, 1, 0.37), (10, 5, 1e-300)])
def test_brownian_walk_is_built_in_one_buffer(n, seed, step_std):
    # the walk is sampled, scaled and summed in place: the scaled steps,
    # their cumsum and the stacked copy traced 3.2x the walk's bytes
    brownian_path(2, seed=0)  # numpy's first-use allocations are not the walk's
    tracemalloc.start()
    try:
        walk = brownian_path(n, seed, step_std)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if n >= 10**5:
        assert peak < 2.5 * walk.vertices.nbytes
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    steps = rng.standard_normal((n - 1, 2)) * step_std
    expected = np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    assert walk.vertices.tobytes() == expected.tobytes()


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
