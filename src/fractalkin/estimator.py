"""Empirical multiscale measurement of arbitrary polylines.

The "camera" side of the library: count grid cells visited at a ladder of
resolutions, or step a divider (compass) along the curve, then regress
log count against log resolution to estimate the fractal dimension.
Also provides reproducible Brownian sample paths as a dimension-2 target.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .geometry import DEFAULT_VERTEX_CAP, K_MAX, Polyline, _check_k, _check_positive
from .measures import DimensionFit, MeasurementResult, MeasurementRow, resolution

#: PRNG contract for brownian_path, recorded in output metadata.
BROWNIAN_PRNG = "numpy Philox(4x64) via SeedSequence; standard_normal (ziggurat)"

#: minimum growth between consecutive scales before a scale counts as saturated
SATURATION_RATIO = 1.05

GRID_METHOD = "grid"
DIVIDER_METHOD = "divider"


# ---------------------------------------------------------------------------
# grid counting


#: segments per array pass of grid_count.  A pass lays out its cells in path
#: order, drops each cell equal to the one before it and keeps the distinct
#: rest, so the arrays alive at once stay bounded on long walks at fine scales
_GRID_CHUNK = 1 << 13


def _axis_crossings(a: np.ndarray, b: np.ndarray, cell: float):
    """Segment indices and parameters t in (0, 1) where the segments a -> b
    cross the gridlines of one axis; segments with a == b cross none.
    Raises ValueError past `DEFAULT_VERTEX_CAP` crossings."""
    d = b - a
    first = np.ceil(np.minimum(a, b) / cell)
    n = np.floor(np.maximum(a, b) / cell) - first + 1.0
    seg = np.flatnonzero((n > 0.0) & (d != 0.0))
    n = n[seg]
    if n.sum() > DEFAULT_VERTEX_CAP:  # summed as floats, which cannot wrap
        raise ValueError(
            f"cell {cell!r} is too fine: one chunk of segments crosses more "
            f"than {DEFAULT_VERTEX_CAP} gridlines"
        )
    first, n = first[seg], n.astype(np.int64)
    seg = np.repeat(seg, n)
    # ragged arange: a segment's k-th crossing lies on gridline first + k
    line = np.repeat(first - (np.cumsum(n) - n), n) + np.arange(n.sum())
    t = (line * cell - a[seg]) / d[seg]
    inside = (t > 0.0) & (t < 1.0)
    return seg[inside], t[inside]


def _drop_repeats(z: np.ndarray) -> np.ndarray:
    """z without each value that equals the one before it."""
    keep = np.ones(len(z), dtype=bool)
    np.not_equal(z[1:], z[:-1], out=keep[1:])
    return z[keep]


def _distinct(z: np.ndarray) -> np.ndarray:
    """The distinct values of z, sorted; sorts z in place."""
    z.sort(kind="stable")
    return _drop_repeats(z)


def _crossings(x: np.ndarray, y: np.ndarray, cell: float):
    """Segment indices and parameters t in (0, 1) of the gridline crossings
    of the polyline with vertices (x, y), sorted by segment, then t."""
    sx, tx = _axis_crossings(x[:-1], x[1:], cell)
    sy, ty = _axis_crossings(y[:-1], y[1:], cell)
    key = np.empty(len(sx) + len(sy), dtype=complex)  # segment + t*1j
    key.real = np.concatenate([sx, sy])
    key.imag = np.concatenate([tx, ty])
    # each axis comes ordered by segment, so the stable sort (timsort)
    # mostly merges runs
    key.sort(kind="stable")
    return key.real.astype(np.intp), key.imag.copy()


def _point_params(x: np.ndarray, y: np.ndarray, cell: float):
    """How many supercover points each segment of the polyline with
    vertices (x, y) gives, and the parameters t of all of them in path order.

    A segment with m gridline crossings gives 2m + 3 points: t = 0; for
    each crossing, the midpoint of the piece it closes and then the
    crossing itself; the midpoint of the last piece; t = 1.  Each t is
    written once, a midpoint as (t before + t after) * 0.5.
    """
    seg, t = _crossings(x, y, cell)
    reps = 2 * np.bincount(seg, minlength=len(x) - 1) + 3
    end = np.cumsum(reps) - 1
    p = np.empty(end[-1] + 1)
    p[end] = 1.0
    start = end - reps + 1
    p[start] = 0.0
    # the i-th crossing, on segment s, comes after the 3 points of each
    # segment up to s and the 2 of each crossing before it
    at = 3 * seg + np.arange(2, 2 * len(seg) + 1, 2)
    p[at] = t
    mid = np.concatenate([start, at]) + 1
    p[mid] = (p[mid - 1] + p[mid + 1]) * 0.5
    return reps, p


def _path_cells(x: np.ndarray, y: np.ndarray, cell: float) -> np.ndarray:
    """The supercover cells of the polyline with vertices (x, y), in path order.

    A cell (i, j) is held as the complex number i + j*1j: numpy sorts
    complex numbers by real part, then imaginary part, and float64 holds
    every index below 2**53 exactly, so no key is packed.  The cell of the
    point at parameter t of the segment a -> b is floor((d*t + a) / cell)
    per axis, d = b - a, taken for all the points of `_point_params` in
    one pass per axis.
    """
    reps, p = _point_params(x, y, cell)
    z = np.empty(len(p), dtype=complex)
    for part, v in ((z.real, x), (z.imag, y)):
        q = np.repeat(v[1:] - v[:-1], reps)
        q *= p
        q += np.repeat(v[:-1], reps)
        q /= cell
        part[:] = np.floor(q, out=q)
    return z


def grid_count(poly: Polyline, cell: float) -> int:
    """Number of distinct grid cells of side `cell` visited by the polyline.

    The grid is anchored at the origin and cells are half-open squares
    [i*cell, (i+1)*cell) x [j*cell, (j+1)*cell), so a point's cell index is
    floor(coord/cell) and points exactly on a boundary belong to the cell
    whose lower edge carries them.  Every cell a segment passes through is
    counted (supercover): each segment is cut at its gridline crossings,
    each open piece adds the cell of its midpoint, and each cut point, the
    segment's ends included, adds its own cell, which picks up cells
    touched only at their owned corner.

    The point at parameter t of the segment a -> b is a + t*(b - a), the
    end included (t = 1).  Only the crossings inside (0, 1) are sorted, by
    (segment, t); the parameters of all the points go into one array in
    path order, and their cells come from one pass over it per axis.  Each
    cell equal to the one before it is dropped, and the rest are sorted to
    count the distinct ones.  The segments go `_GRID_CHUNK` at a time, and
    each chunk's distinct cells are appended to one buffer that grows in
    place, so the cells are held once; one sort of that buffer merges the
    chunks' sorted runs.

    Raises ValueError where a cell index would reach 2**53, past which
    float64 no longer holds every integer, and where one chunk of
    segments crosses more than `DEFAULT_VERTEX_CAP` gridlines.
    """
    cell = _check_positive("cell", cell)
    v = poly.vertices
    reach = max(-float(v.min()), float(v.max()))  # max |coordinate|, no copy
    if reach / cell >= 2.0**53:
        raise ValueError(
            f"cell {cell!r} is too fine for coordinates up to {reach!r}: "
            "cell indices would reach 2**53"
        )
    from array import array  # an extension module, loaded only where cells are counted

    cells = array("d")  # each chunk's distinct cells, as the doubles of complex numbers
    for lo in range(0, len(v) - 1, _GRID_CHUNK):
        blk = v[lo : lo + _GRID_CHUNK + 1]
        x, y = np.ascontiguousarray(blk[:, 0]), np.ascontiguousarray(blk[:, 1])
        cells.frombytes(memoryview(_distinct(_drop_repeats(_path_cells(x, y, cell)))).cast("B"))
    z = np.frombuffer(cells, dtype=complex)
    z.sort(kind="stable")  # in place; merges the chunks' sorted runs
    return int(np.count_nonzero(z[1:] != z[:-1])) + 1


# ---------------------------------------------------------------------------
# divider (compass) stepping


#: vertices in the first slice of a far-vertex search; each further slice doubles
_DIVIDER_SLICE = 16

#: a segment is a candidate for a chord hit once one of its ends lies at squared
#: distance >= step2 * (1 - _DIVIDER_MARGIN) from the anchor.  The margin exceeds
#: the float error of the computed roots (relative ~4 eps) by a factor of about
#: 1e-6 / 4 eps ~ 1e9, so no skipped segment could have produced a hit.
_DIVIDER_MARGIN = 1e-6


#: the scaled step stays below 2^_DIVIDER_SPAN.  Every chord term is a product of
#: two lengths of at most the arc length, which is at most `DEFAULT_VERTEX_CAP`
#: (< 2^27) steps, and the discriminant multiplies two terms, so it stays below
#: about 2^(4 * (27 + 128) + 4) = 2^624 and never overflows
_DIVIDER_SPAN = 128


def _far_vertex(xy: memoryview, x: np.ndarray, y: np.ndarray, lo: int, ax: float,
                ay: float, far2: float) -> int:
    """Index of the first vertex at or after `lo` whose squared distance from
    (ax, ay) is >= far2, or len(x) if there is none.  `xy` is the flat float
    view of the vertices that `x` and `y` are the columns of."""
    n = len(x)
    hi = min(lo + _DIVIDER_SLICE, n)
    for i in range(lo, hi):
        dx = xy[2 * i] - ax
        dy = xy[2 * i + 1] - ay
        if dx * dx + dy * dy >= far2:
            return i
    lo = hi
    size = 2 * _DIVIDER_SLICE
    while lo < n:
        hi = min(lo + size, n)
        dx = x[lo:hi] - ax
        dy = y[lo:hi] - ay
        far = dx * dx + dy * dy >= far2
        i = int(far.argmax())
        if far[i]:
            return lo + i
        lo = hi
        size *= 2
    return n


def divider_count(poly: Polyline, step: float) -> float:
    """Step a fixed chord along the curve and count the steps.

    From the current anchor, advance to the first point along the curve
    (by arc parameter) at chord distance `step`; the final partial chord
    contributes fractionally as chord/step.  A curve whose diameter is
    below `step` therefore yields a single fractional step (zero for a
    closed curve, whose end chord vanishes).

    The chord comparison carries a relative tolerance of 1e-9: on
    self-similar curves the step points coincide with construction
    vertices, and demanding exact float equality there would make the
    walker drift past every near-tangency.

    Squared distance from the anchor is convex along a segment, so a
    segment whose two ends both lie well inside the chord circle cannot
    hold a hit.  Each step searches the vertices ahead for the first one
    at squared distance >= step2 * (1 - 1e-6): the first 16 one at a time
    on Python floats, then numpy slices of 32 vertices that double in
    size.  The chord quadratic is then solved only on the segment ending
    at that vertex and, after a miss, on each following segment that
    starts at such a vertex.  The first segment with a root t in (u, 1],
    u being the anchor's parameter on its own segment and 0 elsewhere,
    gives its smallest such root as the next anchor.  Counts are identical
    to solving the quadratic on every segment in turn.

    All chord arithmetic is plain float64, one rounding per operation:
    no fused multiply-add and no BLAS dot product, so the count is the
    same on every CPU and numpy build.  It runs on the vertices and step
    scaled by 2^-e, e being the step's binade, which brings the step into
    [1/2, 1), so a curve and step scaled together by a power of two count
    the same, bit for bit.  Where scaling up would overflow the largest
    |coordinate|, or scaling down would round a nonzero coordinate out of
    the normal range, e stops short of it, so the scaled copy is exact.
    Scaling down stops at most `_DIVIDER_SPAN` (128) binades short of the
    step's, so the chord arithmetic stays finite: a coordinate under about
    2^-1150 times the step is then rounded, as at the step's binade.

    The count cannot exceed arc length / step, so a step under arc length /
    `DEFAULT_VERTEX_CAP` raises ValueError before any stepping.
    """
    step = _check_positive("step", step)
    # count in units of 2^e, the step's binade, so the chord quadratic's
    # terms stay near 1 at any scale.  The cap's arc / step is taken in these
    # units too, so a curve whose length alone overflows float64 is counted;
    # each temporary is freed before the next
    e = math.frexp(step)[1]
    v = poly.vertices
    if e < 0:  # scaling up rounds nothing: keep the largest |coordinate| finite
        reach = max(-float(v.min()), float(v.max()))  # max |coordinate|, no copy
        e = max(e, math.frexp(reach)[1] - 1024)
    elif e > 0:  # scaling down: keep the smallest nonzero |coordinate| >= 2^-1022,
        # unless that leaves the scaled step at or above 2^_DIVIDER_SPAN
        size = np.abs(v)
        tiny = float(size.min(where=size > 0.0, initial=math.inf))
        del size
        e = min(e, max(math.frexp(tiny)[1] + 1021, 0, e - _DIVIDER_SPAN))
    d = np.diff(v, axis=0)
    with np.errstate(over="ignore"):  # an overflow here only ends in a refusal
        arc = float(np.hypot(*np.ldexp(d, -e, out=d).T).sum())
        del d
        if arc / math.ldexp(step, -e) > DEFAULT_VERTEX_CAP:
            raise ValueError(
                f"step {step!r} is too short: a curve of length {poly.arc_length()!r} "
                f"would take more than {DEFAULT_VERTEX_CAP} steps"
            )
    v = np.ldexp(v, -e)
    step = math.ldexp(step, -e)
    x, y = v.T
    # v is C-contiguous float64, so vertex i is xy[2i], xy[2i+1]
    xy = memoryview(v).cast("B").cast("d")
    nseg = len(v) - 1
    ax, ay = xy[0], xy[1]
    seg = 0
    u = 0.0
    full_steps = 0
    step2 = (step * (1.0 - 1e-9)) ** 2
    far2 = step2 * (1.0 - _DIVIDER_MARGIN)
    while True:
        hit = None
        j, lo = seg, seg + 1  # the anchor, not v[seg], starts segment seg
        while True:
            j = max(_far_vertex(xy, x, y, lo, ax, ay, far2) - 1, j)
            if j >= nseg:
                break
            ulo = u if j == seg else 0.0
            a0, a1 = xy[2 * j], xy[2 * j + 1]
            d0, d1 = xy[2 * j + 2] - a0, xy[2 * j + 3] - a1
            w0, w1 = a0 - ax, a1 - ay
            qa = d0 * d0 + d1 * d1
            qb = 2.0 * (w0 * d0 + w1 * d1)
            qc = (w0 * w0 + w1 * w1) - step2
            disc = qb * qb - 4.0 * qa * qc
            if qa == 0.0:  # |d|^2 underflowed: the equation is linear, qb t + qc = 0
                roots = (-qc / qb,) if qb != 0.0 else ()
            elif disc >= 0.0:  # qa > 0, so the roots come in ascending order
                root = math.sqrt(disc)
                roots = ((-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa))
            else:
                roots = ()
            for t in roots:
                if ulo < t <= 1.0:
                    hit = (j, t)
                    break
            if hit is not None:
                break
            j += 1
            lo = j
        if hit is None:
            break
        seg, u = hit
        a0, a1 = xy[2 * seg], xy[2 * seg + 1]
        ax = a0 + u * (xy[2 * seg + 2] - a0)
        ay = a1 + u * (xy[2 * seg + 3] - a1)
        full_steps += 1
    tail = float(np.hypot(xy[-2] - ax, xy[-1] - ay))
    return full_steps + tail / step


# ---------------------------------------------------------------------------
# dimension regression


def estimate_dimension(rows: Sequence[MeasurementRow]) -> DimensionFit:
    """OLS slope of ln(count) vs ln(1/dx) over the usable scales.

    Scales where the count stopped growing (count < 1.05x the previous
    scale's count) are saturated and left out of the fit.  Needs at least
    3 usable scales with distinct dx.  The fit is the closed-form centred
    least-squares line on Python floats (`math.log`, `math.fsum`), so its
    bytes depend on no BLAS kernel, SIMD path or Python version.
    """
    ordered = sorted(rows, key=lambda r: -r.dx)
    if any(r.count < 1.0 for r in ordered):
        raise ValueError("counts must be >= 1")
    usable = [ordered[0]]
    for prev, row in zip(ordered, ordered[1:]):
        if row.count >= SATURATION_RATIO * prev.count:
            usable.append(row)
    x = [-math.log(r.dx) for r in usable]  # ln(1/dx), with no 1/dx to overflow
    if len(set(x)) < 3:  # so that the spread of x cannot be 0
        raise ValueError(
            f"need at least 3 usable scales with distinct dx, have {len(usable)}"
        )
    y = [math.log(r.count) for r in usable]
    x_mean, y_mean = math.fsum(x) / len(x), math.fsum(y) / len(y)
    cx = [a - x_mean for a in x]
    cy = [b - y_mean for b in y]
    slope = math.fsum(a * b for a, b in zip(cx, cy)) / math.fsum(a * a for a in cx)
    intercept = y_mean - slope * x_mean
    resid = [b - (slope * a + intercept) for a, b in zip(x, y)]
    ss_res = math.fsum(e * e for e in resid)
    ss_tot = math.fsum(b * b for b in cy)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    ks = [r.k for r in usable]
    return DimensionFit(
        ds_hat=slope,
        intercept=intercept,
        r2=r2,
        k_fit_range=(min(ks), max(ks)),
    )


def _first_underflow(l0: float, rho: float) -> int:
    """The least k <= `K_MAX` whose dx_k = L0 / rho^k underflows to 0, or
    K_MAX + 1 if none does.  dx_0 = L0 > 0 and dx_k never grows with k, so
    a bisection of 0..K_MAX + 1 finds it in K_MAX.bit_length() settles,
    each O(log k)."""
    good, top = 0, K_MAX + 1  # dx_good > 0, and dx_top = 0 unless top = K_MAX + 1
    while top - good > 1:
        mid = (good + top) // 2
        if resolution(mid, l0, rho) == 0.0:
            top = mid
        else:
            good = mid
    return top


def measure_polyline(
    poly: Polyline,
    ks: Iterable[int],
    rho: float = 3.0,
    method: str = GRID_METHOD,
    base_length: float | None = None,
    fit: bool = True,
    workers: int | None = None,
) -> MeasurementResult:
    """Run a resolution-ladder sweep dx_k = L0 / rho^k, correctly rounded, over the polyline.

    L0 defaults to the largest axis-aligned extent of the polyline, which
    `Polyline` holds finite; `rho` is checked by `resolution` alone.  The
    indices `ks` are read in one lazy pass, in the caller's order: each is
    checked (`_check_k`, which bounds it by `K_MAX`), a repeat is skipped,
    and the first whose dx underflows to 0 is refused, so a long range ends
    at its first bad index without being built.  The least such index is
    found once, by bisection (`_first_underflow`).  Every scale is checked
    before any is counted, and the rows come out in ascending k.
    The scales are counted one after another.  `workers` is accepted and
    ignored: a thread pool made the sweep slower (the counters hold the
    GIL), and the benchmark's traced replay still passes `workers=1`.
    """
    if method not in (GRID_METHOD, DIVIDER_METHOD):
        raise ValueError(f"unknown method {method!r}")
    l0 = poly.diameter() if base_length is None else _check_positive("base length", base_length)
    zero = _first_underflow(l0, rho)  # dx_k > 0 for every k < zero
    scales = {}
    for k in map(_check_k, ks):
        if k >= zero:
            raise ValueError(f"scale k={k} is too fine: L0 / rho^k underflows to 0")
        scales[k] = None
    if not scales:
        raise ValueError("scale indices must be non-empty")
    counter = grid_count if method == GRID_METHOD else divider_count
    rows = []
    for k in sorted(scales):
        dx = resolution(k, l0, rho)
        c = float(counter(poly, dx))
        rows.append(MeasurementRow(k=k, dx=dx, count=c, length=c * dx))
    fitted = estimate_dimension(rows) if fit else None
    return MeasurementResult(method=method, rows=tuple(rows), fit=fitted)


# ---------------------------------------------------------------------------
# synthetic trajectories


def brownian_path(n: int, seed: int, step_std: float = 1.0) -> Polyline:
    """2D random walk with iid normal increments, deterministic per seed.

    Uses the Philox counter-based generator seeded through SeedSequence
    (splittable, so derived streams stay reproducible) and numpy's
    ziggurat normal sampler; see BROWNIAN_PRNG.  Raises ValueError, before
    anything is allocated, past `DEFAULT_VERTEX_CAP` vertices.
    """
    if int(n) != n or n < 2:
        raise ValueError("n must be an integer >= 2")
    if n > DEFAULT_VERTEX_CAP:
        raise ValueError(f"a walk of {int(n)} vertices is above the cap of {DEFAULT_VERTEX_CAP}")
    step_std = _check_positive("step_std", step_std)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    verts = np.zeros((int(n), 2))  # the origin, then the walk built in place
    with np.errstate(over="ignore", invalid="ignore"):  # Polyline refuses what overflows
        rng.standard_normal(out=verts[1:])
        verts[1:] *= step_std
        np.cumsum(verts[1:], axis=0, out=verts[1:])
    return Polyline(verts, level=None)


def brownian_metadata(n: int, seed: int, step_std: float) -> dict:
    """The metadata block recorded next to a serialized Brownian path."""
    return {"seed": int(seed), "n": int(n), "step_std": float(step_std), "prng": BROWNIAN_PRNG}
