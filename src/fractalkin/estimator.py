"""Empirical multiscale measurement of arbitrary polylines.

The "camera" side of the library: count grid cells visited at a ladder of
resolutions, or step a divider (compass) along the curve, then regress
log count against log resolution to estimate the fractal dimension.
Also provides reproducible Brownian sample paths as a dimension-2 target.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .geometry import Polyline

#: PRNG contract for brownian_path, recorded in output metadata.
BROWNIAN_PRNG = "numpy Philox(4x64) via SeedSequence; standard_normal (ziggurat)"

#: minimum growth between consecutive scales before a scale counts as saturated
SATURATION_RATIO = 1.05

GRID_METHOD = "grid"
DIVIDER_METHOD = "divider"


@dataclass(frozen=True)
class MeasurementRow:
    """One ladder scale: resolution, raw count, and measured length."""

    k: int
    dx: float
    count: float  # integer-valued for grid counts, fractional for divider
    length: float  # count * dx


@dataclass(frozen=True)
class DimensionFit:
    """OLS fit of ln(count) against ln(1/dx)."""

    ds_hat: float
    intercept: float
    r2: float
    k_fit_range: tuple[int, int]


@dataclass(frozen=True)
class MeasurementResult:
    method: str
    rows: tuple[MeasurementRow, ...]
    fit: DimensionFit | None = None


# ---------------------------------------------------------------------------
# grid counting


def _segment_cells(ax, ay, bx, by, cell, cells: set) -> None:
    """Add every cell whose half-open square the segment meets.

    The segment is cut at its gridline crossings; each open piece lies in
    exactly one cell (taken from its midpoint), and each cut point
    contributes the floor cell it belongs to, which is what picks up
    zero-measure corner touches.
    """
    dx = bx - ax
    dy = by - ay
    ts = {0.0, 1.0}
    if dx != 0.0:
        xlo, xhi = (ax, bx) if ax <= bx else (bx, ax)
        for i in range(math.ceil(xlo / cell), math.floor(xhi / cell) + 1):
            t = (i * cell - ax) / dx
            if 0.0 < t < 1.0:
                ts.add(t)
    if dy != 0.0:
        ylo, yhi = (ay, by) if ay <= by else (by, ay)
        for j in range(math.ceil(ylo / cell), math.floor(yhi / cell) + 1):
            t = (j * cell - ay) / dy
            if 0.0 < t < 1.0:
                ts.add(t)
    params = sorted(ts)
    for t0, t1 in zip(params, params[1:]):
        tm = 0.5 * (t0 + t1)
        cells.add(
            (math.floor((ax + tm * dx) / cell), math.floor((ay + tm * dy) / cell))
        )
    for t in params:
        cells.add(
            (math.floor((ax + t * dx) / cell), math.floor((ay + t * dy) / cell))
        )


def grid_count(poly: Polyline, cell: float) -> int:
    """Number of distinct grid cells of side `cell` visited by the polyline.

    The grid is anchored at the origin and cells are half-open squares
    [i*cell, (i+1)*cell) x [j*cell, (j+1)*cell), so a point's cell index is
    floor(coord/cell) and points exactly on a boundary belong to the cell
    whose lower edge carries them.  Every cell the segment passes through
    is counted (supercover), including cells touched only at their owned
    corner.
    """
    if not cell > 0.0:
        raise ValueError("cell must be positive")
    v = poly.vertices
    ax, ay = v[:-1, 0], v[:-1, 1]
    bx, by = v[1:, 0], v[1:, 1]
    ia = np.floor(ax / cell).astype(np.int64)
    ja = np.floor(ay / cell).astype(np.int64)
    ib = np.floor(bx / cell).astype(np.int64)
    jb = np.floor(by / cell).astype(np.int64)
    # half-open cells are convex: endpoints in one cell pin the segment there
    simple = (ia == ib) & (ja == jb)
    cells: set = set()
    if simple.any():
        keys = ia[simple] * np.int64(2**32) + (ja[simple] + np.int64(2**31))
        for key in np.unique(keys).tolist():
            i, rem = divmod(key, 2**32)
            cells.add((i, rem - 2**31))
    for idx in np.nonzero(~simple)[0].tolist():
        _segment_cells(
            float(ax[idx]), float(ay[idx]), float(bx[idx]), float(by[idx]), cell, cells
        )
    return len(cells)


# ---------------------------------------------------------------------------
# divider (compass) stepping


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
    """
    if not step > 0.0:
        raise ValueError("step must be positive")
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
            d = v[j + 1] - a
            w = a - anchor
            qa = float(d @ d)
            qb = 2.0 * float(w @ d)
            qc = float(w @ w) - step2
            disc = qb * qb - 4.0 * qa * qc
            if disc >= 0.0:
                root = math.sqrt(disc)
                best = None
                for t in ((-qb - root) / (2.0 * qa), (-qb + root) / (2.0 * qa)):
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


# ---------------------------------------------------------------------------
# dimension regression


def estimate_dimension(
    rows: Sequence[MeasurementRow], exclude_saturated: bool = True
) -> DimensionFit:
    """OLS slope of ln(count) vs ln(1/dx) over the usable scales.

    Scales where the count stopped growing (count < 1.05x the previous
    scale's count) are saturated and excluded by default; pass
    exclude_saturated=False to fit every scale.  Needs at least 3 usable
    scales with distinct dx.
    """
    ordered = sorted(rows, key=lambda r: -r.dx)
    if any(r.count < 1.0 for r in ordered):
        raise ValueError("counts must be >= 1")
    if exclude_saturated:
        usable = [ordered[0]]
        for prev, row in zip(ordered, ordered[1:]):
            if row.count >= SATURATION_RATIO * prev.count:
                usable.append(row)
    else:
        usable = list(ordered)
    if len({r.dx for r in usable}) < 3:
        raise ValueError(
            f"need at least 3 usable scales with distinct dx, have {len(usable)}"
        )
    x = np.log([1.0 / r.dx for r in usable])
    y = np.log([r.count for r in usable])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(resid @ resid)
    ss_tot = float(((y - y.mean()) @ (y - y.mean())))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    ks = [r.k for r in usable]
    return DimensionFit(
        ds_hat=float(slope),
        intercept=float(intercept),
        r2=r2,
        k_fit_range=(min(ks), max(ks)),
    )


def measure_polyline(
    poly: Polyline,
    ks: Iterable[int],
    rho: float = 3.0,
    method: str = GRID_METHOD,
    base_length: float | None = None,
    fit: bool = True,
    workers: int | None = None,
) -> MeasurementResult:
    """Run a resolution-ladder sweep dx_k = L0 / rho^k over the polyline.

    L0 defaults to the largest axis-aligned extent of the polyline.  The
    scales are counted one after another.  `workers` is accepted and
    ignored: a thread pool made the sweep slower (the counters hold the
    GIL), and the benchmark's traced replay still passes `workers=1`.
    """
    if method not in (GRID_METHOD, DIVIDER_METHOD):
        raise ValueError(f"unknown method {method!r}")
    if not rho > 1.0:
        raise ValueError("rho must be > 1")
    ks = sorted(set(int(k) for k in ks))
    if not ks or ks[0] < 0:
        raise ValueError("scale indices must be integers >= 0")
    l0 = poly.diameter() if base_length is None else float(base_length)
    if not l0 > 0.0:
        raise ValueError("base length must be positive")
    counter = grid_count if method == GRID_METHOD else divider_count
    scales = [l0 / rho**k for k in ks]
    counts = [float(counter(poly, dx)) for dx in scales]
    rows = tuple(
        MeasurementRow(k=k, dx=dx, count=c, length=c * dx)
        for k, dx, c in zip(ks, scales, counts)
    )
    fitted = estimate_dimension(rows) if fit else None
    return MeasurementResult(method=method, rows=rows, fit=fitted)


# ---------------------------------------------------------------------------
# synthetic trajectories


def brownian_path(n: int, seed: int, step_std: float = 1.0) -> Polyline:
    """2D random walk with iid normal increments, deterministic per seed.

    Uses the Philox counter-based generator seeded through SeedSequence
    (splittable, so derived streams stay reproducible) and numpy's
    ziggurat normal sampler; see BROWNIAN_PRNG.
    """
    if int(n) != n or n < 2:
        raise ValueError("n must be an integer >= 2")
    if not step_std > 0.0:
        raise ValueError("step_std must be positive")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    steps = rng.standard_normal((int(n) - 1, 2)) * step_std
    verts = np.vstack([np.zeros((1, 2)), np.cumsum(steps, axis=0)])
    return Polyline(verts, level=None)


def brownian_metadata(n: int, seed: int, step_std: float) -> dict:
    """The metadata block recorded next to a serialized Brownian path."""
    return {"seed": int(seed), "n": int(n), "step_std": float(step_std), "prng": BROWNIAN_PRNG}
