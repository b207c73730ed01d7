"""Command-line interface: generate curves, analyze scales, measure, render.

Exit codes: 0 on success, 2 on flag/usage validation, 1 on runtime or IO
failure.  Every output is deterministic given the flags (seeds included).
"""

from __future__ import annotations

import errno
import functools
import math
import os
import stat
import sys
from pathlib import Path

import click

# each command imports the modules it runs: --help loads `geometry` alone
from . import __version__
from .geometry import BUILTIN_NAMES, base_segment, builtin, refine


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make a JSON config file the command's defaults; explicit flags win."""
    if path is None:
        return
    import json

    try:  # UTF-8 (or -16, -32) whatever the locale, as json.loads reads bytes
        data = json.loads(Path(path).read_bytes())
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError("config file must hold a JSON object")
    section = data.get(ctx.command.name, data)
    if not isinstance(section, dict):
        raise click.UsageError(
            f"config section {ctx.command.name!r} must be a JSON object"
        )
    # click hands a null default to the command with no type, range or
    # required check
    if None in section.values():
        raise click.UsageError("config values must not be null")
    ctx.default_map = section


def _runtime_errors(f):
    """Map library errors to exit code 1, keeping usage errors at 2."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except click.ClickException:
            raise
        except (ValueError, OSError, OverflowError) as exc:
            raise click.ClickException(str(exc))

    return wrapper


def _spec_from_flags(generator: str, angle: float | None):
    if generator == "cesaro":
        if angle is None:
            raise click.UsageError("--generator cesaro requires --angle")
        return builtin("cesaro", angle_deg=angle)
    if angle is not None:
        raise click.UsageError("--angle only applies to --generator cesaro")
    return builtin(generator)


class _FiniteRange(click.FloatRange):
    """A FloatRange that also rejects nan and inf, which pass its bounds."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv


_POSITIVE = _FiniteRange(min=0, min_open=True)


def _check_writable(path: str) -> None:
    """Raise the OSError that opening `path` to write would raise, as far
    as the file system tells without opening it: `path` is a directory or
    a file without write permission, or, where it does not exist, its
    parent is not a writable directory.  The empty path names no file."""
    try:
        st = os.stat(path)
    except FileNotFoundError:
        if not path:
            raise
        parent = os.path.dirname(path) or "."
        if not stat.S_ISDIR(os.stat(parent).st_mode):
            raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        path, mode = parent, os.W_OK | os.X_OK
    else:
        if stat.S_ISDIR(st.st_mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        mode = os.W_OK
    if not os.access(path, mode):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))


class _OutFile(click.File):
    """An output file opened at the first write: commands and writers
    refuse their input before they write, so a refused command leaves the
    path as it was.  A path it could not open is refused as the flag is
    read, with the error of that open, before any work."""

    def __init__(self) -> None:
        super().__init__("w", lazy=True)

    def convert(self, value, param, ctx):
        if isinstance(value, str) and value != "-":
            try:
                _check_writable(value)
            except (OSError, ValueError) as exc:  # ValueError: a path the OS cannot take
                hint = exc.strerror if isinstance(exc, OSError) else str(exc)
                raise click.FileError(value, hint=hint) from None
        return super().convert(value, param, ctx)


_OUT = _OutFile()


def _write_polyline(poly, out, metadata: dict | None = None) -> None:
    """Write `poly` to `out`: an SVG drawing where its name ends in .svg,
    polyline JSON with `metadata` otherwise."""
    if out.name.endswith(".svg"):
        from . import render

        render.write_svg(poly, out)
    else:
        from . import serialize

        serialize.write_polyline_json(poly, out, metadata)


_config_option = click.option(
    "--config", type=click.Path(), callback=_load_config, is_eager=True,
    expose_value=False, help="JSON file of flag defaults (flags > file > defaults).",
)
_generator_option = click.option(
    "--generator", type=click.Choice(BUILTIN_NAMES), required=True,
    help="Built-in generator family (flag or config file).",
)
_angle_option = click.option(
    "--angle", type=_FiniteRange(0, 90, min_open=True, max_open=True),
    default=None, help="Opening angle in degrees (cesaro only).",
)


@click.group()
@click.version_option(version=__version__)  # from the source, installed or not
def main() -> None:
    """Self-similar trajectory toolkit: build, analyze, measure, render."""


@main.command()
@_generator_option
@_angle_option
@click.option("--level", type=click.IntRange(min=0), required=True,
              help="Construction level k (flag or config file).")
@click.option("--l0", type=_POSITIVE, default=1.0, show_default=True,
              help="Base segment length.")
@click.option("--out", type=_OUT, default="-",
              help="Output file (.json polyline or .svg drawing); stdout JSON if omitted.")
@_config_option
@_runtime_errors
def generate(generator, angle, level, l0, out):
    """Produce the level-k polyline of a generator."""
    spec = _spec_from_flags(generator, angle)
    _write_polyline(refine(base_segment(l0), spec, level), out)


@main.command()
@_generator_option
@_angle_option
@click.option("--k-max", type=click.IntRange(min=0), default=10, show_default=True,
              help="Largest scale index.")
@click.option("--mass", type=_POSITIVE, default=1.0, show_default=True)
@click.option("--dt", type=_POSITIVE, default=1.0, show_default=True,
              help="Traversal time.")
@click.option("--l0", type=_POSITIVE, default=1.0, show_default=True,
              help="Base length.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="json", show_default=True)
@click.option("--out", type=_OUT, default="-", help="Output file; stdout if omitted.")
@_config_option
@_runtime_errors
def analyze(generator, angle, k_max, mass, dt, l0, fmt, out):
    """Scale table, uncertainty products, regime, and bound checks."""
    from . import kinematics, measures, serialize

    spec = _spec_from_flags(generator, angle)
    if fmt == "csv":  # CSV writes no eta0, E0 or V0, so it needs no context
        text = serialize.scale_rows_to_csv(measures.scale_table(spec, l0, dt, k_max))
    else:
        ctxp = kinematics.ParticleContext(m=mass, dt=dt, L0=l0)
        rows = measures.scale_table(spec, l0, dt, k_max)
        regime = kinematics.classify_regime(spec, ctxp)
        table = kinematics.uncertainty_table(spec, ctxp, k_max)
        ks = range(1, k_max + 1)
        bounds = kinematics.verify_bounds(spec, ctxp, ks) if ks else None
        bundle = serialize.analysis_to_dict(spec, ctxp, regime, rows, table, bounds)
        text = serialize.json_text(bundle)
    out.write(text)


def _parse_scales(text: str) -> range | list[int]:
    """The scale indices in ascending order.  "k0..k1" stays a range, which
    `measure_polyline` reads in one lazy pass: it stops at the first index
    that is too fine or above `K_MAX`, so a long range is never built."""
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return range(lo, hi + 1)
        return sorted(int(part) for part in text.split(","))
    except ValueError:
        raise click.UsageError(
            f'--scales must be "k0..k1" or a comma list of integers, got {text!r}'
        )


@main.command()
@click.option("--input", "input_path", type=click.Path(exists=True, dir_okay=False),
              required=True, help="Polyline JSON file (flag or config file).")
@click.option("--scales", default="1..5", show_default=True,
              help='Ladder indices "k0..k1" (dx_k = L0 / rho^k).')
@click.option("--rho", type=_FiniteRange(min=1, min_open=True), default=3.0,
              show_default=True, help="Resolution ladder factor.")
@click.option("--method", type=click.Choice(["grid", "divider"]),
              default="grid", show_default=True)
@click.option("--fit/--no-fit", default=True, show_default=True,
              help="Include the dimension regression (JSON only).")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", type=_OUT, default="-", help="Output file; stdout if omitted.")
@_config_option
@_runtime_errors
def measure(input_path, scales, rho, method, fit, fmt, out):
    """Cell-count or divider-step an arbitrary polyline over a ladder."""
    from . import serialize  # before estimator: the grid stage then peaks ~1 MB lower
    from . import estimator

    ks = _parse_scales(scales)
    if ks[0] < 0:
        raise click.UsageError("scale indices must be >= 0")
    poly = serialize.read_polyline_json(input_path)
    # CSV has no fit column, so it needs no fit
    result = estimator.measure_polyline(poly, ks, rho=rho, method=method,
                                        fit=fit and fmt == "json")
    if fmt == "csv":
        text = serialize.measurement_to_csv(result)
    else:
        text = serialize.json_text(serialize.measurement_to_dict(result))
    out.write(text)


@main.command()
@click.option("--n", type=click.IntRange(min=2), required=True,
              help="Number of vertices (flag or config file).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--step-std", type=_POSITIVE, default=1.0, show_default=True,
              help="Per-axis standard deviation of each increment.")
@click.option("--out", type=_OUT, default="-",
              help="Output file (.json polyline or .svg drawing); stdout JSON if omitted.")
@_config_option
@_runtime_errors
def brownian(n, seed, step_std, out):
    """Sample a reproducible 2D Brownian path."""
    from . import estimator

    poly = estimator.brownian_path(n, seed, step_std)
    _write_polyline(poly, out, estimator.brownian_metadata(n, seed, step_std))


if __name__ == "__main__":
    sys.exit(main())
