"""Self-similar generators and iterated polyline refinement.

A generator replaces one segment with N child segments, each 1/rho times
the parent length.  Iterating the replacement k times on a base segment
yields the level-k trajectory polyline.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

UNIT_TOL = 1e-9
DEFAULT_VERTEX_CAP = 10**8
#: the largest scale or refinement index any function takes (`_check_k`)
K_MAX = 10**5

BUILTIN_NAMES = ("line", "koch", "peano", "cesaro")


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """A segment-replacement rule.

    Displacements are expressed in child-segment units (each has length 1)
    and must chain from (0, 0) to (rho, 0), so the generator spans exactly
    one parent segment.  They are given as N (x, y) pairs, a list or an
    (N, 2) array, and kept as a tuple of float pairs: the closed-form
    layer reads a spec without numpy.
    """

    name: str
    rho: float
    displacements: tuple[tuple[float, float], ...]  # child units

    def __post_init__(self) -> None:
        rho = float(self.rho)
        try:
            d = tuple((float(x), float(y)) for x, y in self.displacements)
        except (TypeError, ValueError):  # a flat or ragged list, or a row of another length
            raise ValueError("displacements must be an (N, 2) array") from None
        n = len(d)
        if not rho > 1.0:
            raise ValueError(f"rho must be > 1, got {rho}")
        if n < 2:
            raise ValueError(f"need at least 2 displacements, got {n}")
        if n < rho:
            raise ValueError(f"N={n} must be >= rho={rho} to span the parent")
        if not all(abs(math.hypot(x, y) - 1.0) <= UNIT_TOL for x, y in d):  # nan fails too
            raise ValueError("every displacement must have unit length")
        total = (math.fsum(x for x, _ in d), math.fsum(y for _, y in d))
        if abs(total[0] - rho) > UNIT_TOL or abs(total[1]) > UNIT_TOL:
            raise ValueError(
                f"displacements must sum to (rho, 0), got {total}"
            )
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "displacements", d)

    @property
    def n(self) -> int:
        """Number of child segments per parent segment."""
        return len(self.displacements)

    @property
    def ds(self) -> float:
        """The similarity dimension ln N / ln rho."""
        return math.log(self.n) / math.log(self.rho)


@dataclass(frozen=True, eq=False)
class Polyline:
    """An ordered list of 2D vertices, optionally tagged with its level.

    `vertices` must be a numeric (integer or float, not bool) array of
    shape (n, 2), n >= 2, finite, with no two consecutive vertices equal
    and an extent (`diameter`) that fits float64; it is kept as a
    read-only C-ordered float64 copy.  Decoded JSON is checked before it
    gets here (`serialize._vertex_array`).
    """

    vertices: np.ndarray  # (n, 2) float
    level: int | None = None

    def __post_init__(self) -> None:
        import numpy as np

        # copied, not adopted: freeing the source lifts glibc's mmap threshold for grid_count
        v = np.array(self.vertices, order="C")  # divider_count reads it flat
        # astype would read the string "1" as 1.0 and True as 1.0
        if v.dtype.kind not in "iuf":
            raise ValueError("vertices must be numbers")
        v = v.astype(float, copy=False)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must be an (n, 2) array")
        if not np.isfinite(v).all():
            raise ValueError("vertices must be finite")
        if len(v) < 2:
            raise ValueError("a polyline needs at least 2 vertices")
        if np.any(np.all(v[1:] == v[:-1], axis=1)):
            raise ValueError("consecutive vertices must be distinct")
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        if self.diameter() == math.inf:  # every measure is taken against it
            raise ValueError("the polyline's extent overflows float64")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_segments(self) -> int:
        return len(self.vertices) - 1

    def arc_length(self) -> float:
        """Sum of Euclidean segment lengths."""
        import numpy as np

        d = np.diff(self.vertices, axis=0)
        with np.errstate(over="ignore"):  # a length past float64 is inf
            return float(np.hypot(d[:, 0], d[:, 1]).sum())

    def bounds(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the vertex set."""
        v = self.vertices
        return (
            float(v[:, 0].min()),
            float(v[:, 1].min()),
            float(v[:, 0].max()),
            float(v[:, 1].max()),
        )

    def diameter(self) -> float:
        """Largest axis-aligned extent (used as the resolution-ladder base)."""
        x0, y0, x1, y1 = self.bounds()
        return max(x1 - x0, y1 - y0)


def base_segment(l0: float = 1.0) -> Polyline:
    """The level-0 trajectory: one segment from (0, 0) to (l0, 0)."""
    return Polyline([[0.0, 0.0], [_check_positive("l0", l0), 0.0]], level=0)


def _check_positive(name: str, value) -> float:
    """A positive real that float64 holds, as a float: the one check of
    every length, step, time, mass and width.  nan, inf and an int past
    float64 fail it."""
    if not 0.0 < value <= sys.float_info.max:
        raise ValueError(f"{name} must be positive and finite, got {value}")
    return float(value)


def _check_k(k) -> int:
    """A scale or refinement index as an int: any integral value from 0 to
    `K_MAX` but a bool.  Every k passes here, so this bound alone ends a
    long ladder of scales."""
    if type(k) is int and 0 <= k <= K_MAX:  # the common case, spared the general checks
        return k
    try:
        integral = not isinstance(k, bool) and int(k) == k
    except (TypeError, ValueError, OverflowError):  # None, nan, inf
        integral = False
    if not integral:
        raise ValueError("k must be an integer")
    k = int(k)
    if k < 0:
        raise ValueError("k must be >= 0")
    if k > K_MAX:
        raise ValueError(f"k must be <= {K_MAX}")
    return k


def refine(base: Polyline, spec: GeneratorSpec, k: int) -> Polyline:
    """Apply the generator k times to every segment of `base`.

    Each pass replaces a segment with the generator scaled by 1/rho and
    rotated to the segment direction.  Segment endpoints are copied, never
    recomputed, so the endpoints of the result match `base` bitwise.

    Raises ValueError when the resulting vertex count would exceed
    `DEFAULT_VERTEX_CAP` (vertex count grows like N^k).
    """
    import numpy as np

    k = _check_k(k)
    n = spec.n
    if base.n_segments * n**k + 1 > DEFAULT_VERTEX_CAP:  # named by k, not by N^k's digits
        raise ValueError(f"refinement to level {k} needs more vertices than the cap of "
                         f"{DEFAULT_VERTEX_CAP}")
    v = base.vertices[:, 0] + 1j * base.vertices[:, 1]
    d = np.array(spec.displacements)
    cum = np.cumsum(d[:, 0] + 1j * d[:, 1])
    for _ in range(k):
        starts = v[:-1]
        ends = v[1:]
        scaled = (ends - starts) / spec.rho
        out = np.empty(len(starts) * n + 1, dtype=complex)
        out[0] = v[0]
        for j in range(1, n):
            out[j::n] = starts + cum[j - 1] * scaled
        out[n::n] = ends
        v = out
    if base.level is not None:
        level = base.level + k
    elif base.n_segments == 1:
        level = k
    else:
        level = None
    # v's (real, imag) pairs viewed as the (x, y) rows, not copied out
    return Polyline(v.view(np.float64).reshape(-1, 2), level=level)


_SQRT3_2 = math.sqrt(3.0) / 2.0


def builtin(name: str, angle_deg: float | None = None) -> GeneratorSpec:
    """One of the stock generators: line, koch, peano, or cesaro(angle).

    The cesaro family takes an opening angle in degrees, strictly between
    0 and 90; its scale factor is 2(1 + cos(angle)) with N = 4, so the
    similarity dimension sweeps (1, 2) continuously.  cesaro(60) coincides
    with koch.
    """
    if name != "cesaro" and angle_deg is not None:
        raise ValueError(f"angle_deg only applies to the cesaro family, not {name!r}")
    if name == "line":
        return GeneratorSpec("line", 3.0, [(1.0, 0.0)] * 3)
    if name == "koch":
        return GeneratorSpec(
            "koch",
            3.0,
            [(1.0, 0.0), (0.5, _SQRT3_2), (0.5, -_SQRT3_2), (1.0, 0.0)],
        )
    if name == "peano":
        # The original self-intersecting Peano sweep (touches itself at two
        # points); self-contact is fine, the measures never need simplicity.
        steps = [
            (1, 0), (0, 1), (1, 0), (0, -1), (-1, 0),
            (0, -1), (1, 0), (0, 1), (1, 0),
        ]
        return GeneratorSpec("peano", 3.0, steps)
    if name == "cesaro":
        if angle_deg is None:
            raise ValueError("cesaro requires an opening angle in degrees")
        if not 0.0 < angle_deg < 90.0:
            raise ValueError(
                f"cesaro angle must lie strictly inside (0, 90) degrees, "
                f"got {angle_deg}"
            )
        c = math.cos(math.radians(angle_deg))
        s = math.sin(math.radians(angle_deg))
        rho = 2.0 * (1.0 + c)
        disp = [(1.0, 0.0), (c, s), (c, -s), (1.0, 0.0)]
        return GeneratorSpec(f"cesaro-{float(angle_deg)!r}".removesuffix(".0"), rho, disp)
    raise ValueError(f"unknown generator {name!r}; choose from {BUILTIN_NAMES}")


def integer_generator(n: int, rho: int) -> GeneratorSpec:
    """A generator with N = n children at integer scale factor rho <= n.

    Its unit steps are rho forward steps (rho - 1 and the Koch tent pair
    when n - rho is odd), then (n - rho) // 2 up/down pairs.  The closed
    forms depend on n and rho alone, so every integer pair is realised.
    """
    if int(n) != n or int(rho) != rho or not 2 <= rho <= n:
        raise ValueError(f"need integers 2 <= rho <= N, got N={n}, rho={rho}")
    n, rho = int(n), int(rho)
    odd = (n - rho) % 2
    steps = ([(1.0, 0.0)] * (rho - odd) + [(0.5, _SQRT3_2), (0.5, -_SQRT3_2)] * odd
             + [(0.0, 1.0), (0.0, -1.0)] * ((n - rho) // 2))
    return GeneratorSpec(f"n{n}-rho{rho}", float(rho), steps)
