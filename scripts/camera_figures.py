#!/usr/bin/env python3
"""Render the camera-series figures: a trajectory as seen at increasing
resolution, three panels per figure with the matching grid overlay."""

import argparse
from pathlib import Path

from fractalkin.geometry import base_segment, builtin, refine
from fractalkin.measures import resolution
from fractalkin.render import RenderOptions, render_panels


def camera_series(name: str, levels, l0: float, out_dir: Path) -> Path:
    spec = builtin(name)
    base = base_segment(l0)
    polys = [refine(base, spec, k) for k in levels]
    # one shared overlay at the finest camera's resolution
    opts = RenderOptions(
        width=320, height=240, stroke_width=1.2,
        grid_step=resolution(max(levels), l0, spec.rho),
    )
    path = out_dir / f"{name}_cameras.svg"
    path.write_text(render_panels(polys, opts))
    return path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path, default=Path("figures"))
    parser.add_argument("--levels", type=int, nargs="+", default=[0, 1, 2])
    args = parser.parse_args()
    args.out_dir.mkdir(parents=True, exist_ok=True)
    for name in ("line", "koch"):
        path = camera_series(name, args.levels, 1.0, args.out_dir)
        print(f"wrote {path}")


if __name__ == "__main__":
    main()
