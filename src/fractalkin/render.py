"""Static SVG rendering of trajectories, single panel or camera series.

Output is plain text built from the vertex data alone (17-significant-
digit coordinates, no timestamps, no generated ids), so identical inputs
produce byte-identical documents.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, TextIO

import numpy as np

from .geometry import DEFAULT_VERTEX_CAP, Polyline, _check_positive
from .serialize import _blocks, _vertex_text, fnum

_PANEL_GAP = 10.0
#: padding on every side of the drawing, as a fraction of its larger extent
_MARGIN = 0.05


@dataclass(frozen=True)
class RenderOptions:
    """Pixel geometry and optional resolution-grid overlay.  The drawing
    keeps a fixed margin of 5% of its larger extent on every side."""

    width: int = 640
    height: int = 480
    stroke_width: float = 1.0
    grid_step: float | None = None  # world units; lines at integer multiples

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("width and height must be positive")
        _check_positive("stroke_width", self.stroke_width)
        if self.grid_step is not None:
            _check_positive("grid_step", self.grid_step)


class _Viewport:
    """World-to-pixel mapping with aspect preserved and y flipped; refuses a
    scale that is not finite and an overlay of over `DEFAULT_VERTEX_CAP` lines."""

    def __init__(self, poly: Polyline, opts: RenderOptions):
        x0, y0, x1, y1 = poly.bounds()
        extent = max(x1 - x0, y1 - y0)
        pad = _MARGIN * extent
        # a straight-line bbox has zero height; pad flat axes so the
        # viewport keeps a finite span
        flat = 0.5 * extent
        if x1 - x0 == 0.0:
            x0, x1 = x0 - flat, x1 + flat
        if y1 - y0 == 0.0:
            y0, y1 = y0 - flat, y1 + flat
        self.wx0, self.wy0 = x0 - pad, y0 - pad
        self.wx1, self.wy1 = x1 + pad, y1 + pad
        w, h = self.wx1 - self.wx0, self.wy1 - self.wy0
        # the flat axis of the smallest subnormal extent pads to a zero span
        self.scale = min(opts.width / w, opts.height / h) if w and h else math.inf
        self.ox = 0.5 * (opts.width - self.scale * w)
        self.oy = 0.5 * (opts.height - self.scale * h)
        self.height = opts.height
        # an extent near float max overflows the padded span (scale 0, offsets
        # nan); a subnormal one overflows width / span (scale inf)
        if not (0.0 < self.scale < math.inf and math.isfinite(self.ox)
                and math.isfinite(self.oy)):
            raise ValueError(
                f"polyline extent {extent!r} cannot be drawn: "
                "its pixel scale is not a finite positive number"
            )
        step = opts.grid_step
        if step is not None:
            # floor(hi / step) - ceil(lo / step) + 1 lines per axis, in floats:
            # a count past float64 is inf or nan, never an OverflowError
            lines = sum(hi / step // 1.0 + -lo / step // 1.0 + 1.0
                        for lo, hi in ((self.wx0, self.wx1), (self.wy0, self.wy1)))
            if not lines <= DEFAULT_VERTEX_CAP:
                raise ValueError(f"grid_step {step!r} is too fine: the overlay would draw "
                                 f"more than {DEFAULT_VERTEX_CAP} lines")

    def to_px(self, x, y):
        """Pixel coordinates of world floats or of numpy arrays of them."""
        px = self.ox + (x - self.wx0) * self.scale
        py = self.height - self.oy - (y - self.wy0) * self.scale
        return px, py


def _path_d(poly: Polyline, view: _Viewport) -> Iterator[str]:
    """The path data in pieces: `to_px` on each block of vertices, then
    its text from `_vertex_text` with '%.17g', which is `fnum`."""
    px = (np.column_stack(view.to_px(blk[:, 0], blk[:, 1])) for blk in _blocks(poly.vertices))
    yield "M"
    yield from _vertex_text(px, "L%s %s", "%.17g")


def _grid_lines(view: _Viewport, step: float, stroke_width: float) -> Iterator[str]:
    """The vertical gridlines, then the horizontal ones, across the view, one at a time."""
    width = stroke_width * 0.5
    for lo, hi, ends in (
        (view.wx0, view.wx1, lambda c: ((c, view.wy0), (c, view.wy1))),
        (view.wy0, view.wy1, lambda c: ((view.wx0, c), (view.wx1, c))),
    ):
        for i in range(math.ceil(lo / step), math.floor(hi / step) + 1):
            (x0, y0), (x1, y1) = (view.to_px(*p) for p in ends(i * step))
            yield (f'<line x1="{fnum(x0)}" y1="{fnum(y0)}" x2="{fnum(x1)}" y2="{fnum(y1)}" '
                   f'stroke="#bbbbbb" stroke-width="{fnum(width)}"/>')


def _panel(poly: Polyline, view: _Viewport, opts: RenderOptions) -> Iterator[str]:
    """The lines of one panel in pieces, each line ending in a newline."""
    if opts.grid_step is not None:
        for line in _grid_lines(view, opts.grid_step, opts.stroke_width):
            yield line + "\n"
    yield '<path d="'
    yield from _path_d(poly, view)
    yield (
        f'" fill="none" stroke="#000000" stroke-width="{fnum(opts.stroke_width)}" '
        'stroke-linejoin="round"/>\n'
    )


def _svg_open(width, height: int) -> str:
    """The `<svg>` open tag; `width` goes in as given, text or number."""
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">\n'
    )


def write_svg(poly: Polyline, fp: TextIO, opts: RenderOptions = RenderOptions()) -> None:
    """Write the single-panel SVG document of `render_svg` to the text
    stream `fp` piece by piece, so the whole document is never in memory."""
    view = _Viewport(poly, opts)  # raises before anything is written
    fp.write(_svg_open(opts.width, opts.height))
    fp.writelines(_panel(poly, view, opts))
    fp.write("</svg>\n")


def render_svg(poly: Polyline, opts: RenderOptions = RenderOptions()) -> str:
    """A single-panel SVG document with one path for the polyline."""
    buf = io.StringIO()
    write_svg(poly, buf, opts)
    return buf.getvalue()


def render_panels(
    polys: Sequence[Polyline], opts: RenderOptions = RenderOptions()
) -> str:
    """Side-by-side panels, one per polyline (the camera-series layout)."""
    if not polys:
        raise ValueError("render_panels needs at least one polyline")
    total_w = opts.width * len(polys) + _PANEL_GAP * (len(polys) - 1)
    pieces = [_svg_open(fnum(total_w), opts.height)]
    for i, poly in enumerate(polys):
        dx = i * (opts.width + _PANEL_GAP)
        pieces.append(f'<g transform="translate({fnum(dx)} 0)">\n')
        pieces.extend(_panel(poly, _Viewport(poly, opts), opts))
        pieces.append("</g>\n")
    pieces.append("</svg>\n")
    return "".join(pieces)
