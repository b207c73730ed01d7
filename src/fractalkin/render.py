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

from .geometry import Polyline
from .serialize import fnum

_PANEL_GAP = 10.0
#: padding on every side of the drawing, as a fraction of its larger extent
_MARGIN = 0.05
#: vertices per formatted piece of path data
_PATH_CHUNK = 8192


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
        if not self.stroke_width > 0.0:
            raise ValueError("stroke width must be positive")
        if self.grid_step is not None and not self.grid_step > 0.0:
            raise ValueError("grid_step must be positive")


class _Viewport:
    """World-to-pixel mapping with aspect preserved and y flipped."""

    def __init__(self, poly: Polyline, opts: RenderOptions):
        x0, y0, x1, y1 = poly.bounds()
        extent = max(x1 - x0, y1 - y0)
        if extent == 0.0:
            raise ValueError("degenerate polyline: zero extent in both axes")
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
        self.scale = min(
            opts.width / (self.wx1 - self.wx0), opts.height / (self.wy1 - self.wy0)
        )
        self.ox = 0.5 * (opts.width - self.scale * (self.wx1 - self.wx0))
        self.oy = 0.5 * (opts.height - self.scale * (self.wy1 - self.wy0))
        self.height = opts.height

    def to_px(self, x, y):
        """Pixel coordinates of world floats or of numpy arrays of them."""
        px = self.ox + (x - self.wx0) * self.scale
        py = self.height - self.oy - (y - self.wy0) * self.scale
        return px, py


def _path_d(poly: Polyline, view: _Viewport) -> Iterator[str]:
    """The path data in pieces of `_PATH_CHUNK` vertices: `to_px` on the
    block's columns, and '%.17g', which is `fnum`."""
    v = poly.vertices
    for start in range(0, len(v), _PATH_CHUNK):
        blk = v[start:start + _PATH_CHUNK]
        px = np.column_stack(view.to_px(blk[:, 0], blk[:, 1]))
        fmt = "L%.17g %.17g" * len(blk)
        if start == 0:
            fmt = "M" + fmt[1:]
        yield fmt % tuple(px.ravel().tolist())


def _grid_lines(view: _Viewport, step: float, stroke_width: float) -> list[str]:
    """The vertical gridlines, then the horizontal ones, across the view."""
    lines = []
    width = stroke_width * 0.5
    for lo, hi, ends in (
        (view.wx0, view.wx1, lambda c: ((c, view.wy0), (c, view.wy1))),
        (view.wy0, view.wy1, lambda c: ((view.wx0, c), (view.wx1, c))),
    ):
        for i in range(math.ceil(lo / step), math.floor(hi / step) + 1):
            (x0, y0), (x1, y1) = (view.to_px(*p) for p in ends(i * step))
            lines.append(
                f'<line x1="{fnum(x0)}" y1="{fnum(y0)}" x2="{fnum(x1)}" y2="{fnum(y1)}" '
                f'stroke="#bbbbbb" stroke-width="{fnum(width)}"/>'
            )
    return lines


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
