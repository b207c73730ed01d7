"""Self-similar generators and iterated polyline refinement.

A generator replaces one segment with N child segments, each 1/rho times
the parent length.  Iterating the replacement k times on a base segment
yields the level-k trajectory polyline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

UNIT_TOL = 1e-9
DEFAULT_VERTEX_CAP = 10**8

BUILTIN_NAMES = ("line", "koch", "peano", "cesaro")


@dataclass(frozen=True, eq=False)
class GeneratorSpec:
    """A segment-replacement rule.

    Displacements are expressed in child-segment units (each has length 1)
    and must chain from (0, 0) to (rho, 0), so the generator spans exactly
    one parent segment.
    """

    name: str
    rho: float
    displacements: np.ndarray  # (N, 2) float, child units

    def __post_init__(self) -> None:
        rho = float(self.rho)
        d = np.array(self.displacements, dtype=float)
        if d.ndim != 2 or d.shape[1] != 2:
            raise ValueError("displacements must be an (N, 2) array")
        n = len(d)
        if not rho > 1.0:
            raise ValueError(f"rho must be > 1, got {rho}")
        if n < 2:
            raise ValueError(f"need at least 2 displacements, got {n}")
        if n < rho:
            raise ValueError(f"N={n} must be >= rho={rho} to span the parent")
        norms = np.hypot(d[:, 0], d[:, 1])
        if np.any(np.abs(norms - 1.0) > UNIT_TOL):
            raise ValueError("every displacement must have unit length")
        total = d.sum(axis=0)
        if abs(total[0] - rho) > UNIT_TOL or abs(total[1]) > UNIT_TOL:
            raise ValueError(
                f"displacements must sum to (rho, 0), got {tuple(total)}"
            )
        d.setflags(write=False)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "displacements", d)

    @property
    def n(self) -> int:
        """Number of child segments per parent segment."""
        return len(self.displacements)

    @property
    def ds(self) -> float:
        return similarity_dimension(self)


@dataclass(frozen=True, eq=False)
class Polyline:
    """An ordered list of 2D vertices, optionally tagged with its level."""

    vertices: np.ndarray  # (n, 2) float
    level: int | None = None

    def __post_init__(self) -> None:
        v = np.array(self.vertices, dtype=float, order="C")  # divider_count reads it flat
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

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_segments(self) -> int:
        return len(self.vertices) - 1

    def arc_length(self) -> float:
        """Sum of Euclidean segment lengths."""
        d = np.diff(self.vertices, axis=0)
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
    if not l0 > 0.0:
        raise ValueError("l0 must be positive")
    return Polyline(np.array([[0.0, 0.0], [l0, 0.0]]), level=0)


def _check_k(k) -> int:
    """A scale or refinement index as an int: any integral value >= 0 but a bool."""
    try:
        integral = not isinstance(k, bool) and int(k) == k
    except (TypeError, ValueError, OverflowError):  # None, nan, inf
        integral = False
    if not integral:
        raise ValueError("k must be an integer")
    k = int(k)
    if k < 0:
        raise ValueError("k must be >= 0")
    return k


def similarity_dimension(spec: GeneratorSpec) -> float:
    """ln N / ln rho for a generator with N children at scale factor rho."""
    return math.log(spec.n) / math.log(spec.rho)


def refine(base: Polyline, spec: GeneratorSpec, k: int) -> Polyline:
    """Apply the generator k times to every segment of `base`.

    Each pass replaces a segment with the generator scaled by 1/rho and
    rotated to the segment direction.  Segment endpoints are copied, never
    recomputed, so the endpoints of the result match `base` bitwise.

    Raises ValueError when the resulting vertex count would exceed
    `DEFAULT_VERTEX_CAP` (vertex count grows like N^k).
    """
    k = _check_k(k)
    n = spec.n
    total = base.n_segments * n**k + 1
    if total > DEFAULT_VERTEX_CAP:
        raise ValueError(
            f"refinement to level {k} needs {total} vertices, "
            f"above the cap of {DEFAULT_VERTEX_CAP}"
        )
    v = base.vertices[:, 0] + 1j * base.vertices[:, 1]
    disp = spec.displacements[:, 0] + 1j * spec.displacements[:, 1]
    cum = np.cumsum(disp)
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
    verts = np.column_stack([v.real, v.imag])
    if base.level is not None:
        level = base.level + k
    elif base.n_segments == 1:
        level = k
    else:
        level = None
    return Polyline(verts, level=level)


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
        return GeneratorSpec("line", 3.0, np.array([[1.0, 0.0]] * 3))
    if name == "koch":
        return GeneratorSpec(
            "koch",
            3.0,
            np.array(
                [[1.0, 0.0], [0.5, _SQRT3_2], [0.5, -_SQRT3_2], [1.0, 0.0]]
            ),
        )
    if name == "peano":
        # The original self-intersecting Peano sweep (touches itself at two
        # points); self-contact is fine, the measures never need simplicity.
        steps = [
            (1, 0), (0, 1), (1, 0), (0, -1), (-1, 0),
            (0, -1), (1, 0), (0, 1), (1, 0),
        ]
        return GeneratorSpec("peano", 3.0, np.array(steps, dtype=float))
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
        disp = np.array([[1.0, 0.0], [c, s], [c, -s], [1.0, 0.0]])
        return GeneratorSpec(f"cesaro-{angle_deg:g}", rho, disp)
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
    return GeneratorSpec(f"n{n}-rho{rho}", float(rho), np.array(steps))
