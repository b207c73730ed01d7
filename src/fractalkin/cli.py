"""Command-line interface: generate curves, analyze scales, measure, render.

Exit codes: 0 on success, 2 on flag/usage validation, 1 on runtime or IO
failure.  Every output is deterministic given the flags (seeds included).
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import sys
from pathlib import Path
from typing import Iterator, TextIO

import click

from . import estimator, kinematics, measures, render, serialize
from .geometry import BUILTIN_NAMES, base_segment, builtin, refine


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Make a JSON config file the command's defaults; explicit flags win."""
    if path is None:
        return
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
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


@contextlib.contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The command's output stream: stdout, or the `--out` file opened for
    writing.  Commands build their text first, so a failure leaves no file."""
    if out is None:
        yield sys.stdout
    else:
        with open(out, "w") as fp:
            yield fp


class _FiniteRange(click.FloatRange):
    """A FloatRange that also rejects nan and inf, which pass its bounds."""

    def convert(self, value, param, ctx):
        rv = super().convert(value, param, ctx)
        if not math.isfinite(rv):
            self.fail(f"{rv} is not a finite number.", param, ctx)
        return rv


_POSITIVE = _FiniteRange(min=0, min_open=True)

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
@click.version_option(package_name="fractalkin")
def main() -> None:
    """Self-similar trajectory toolkit: build, analyze, measure, render."""


@main.command()
@_generator_option
@_angle_option
@click.option("--level", type=click.IntRange(min=0), required=True,
              help="Construction level k (flag or config file).")
@click.option("--l0", type=_POSITIVE, default=1.0, show_default=True,
              help="Base segment length.")
@click.option("--out", type=click.Path(), default=None,
              help="Output file (.json polyline or .svg drawing); stdout JSON if omitted.")
@_config_option
@_runtime_errors
def generate(generator, angle, level, l0, out):
    """Produce the level-k polyline of a generator."""
    spec = _spec_from_flags(generator, angle)
    poly = refine(base_segment(l0), spec, level)
    with _output(out) as fp:
        if out is not None and out.endswith(".svg"):
            render.write_svg(poly, fp)
        else:
            serialize.write_polyline_json(poly, fp)


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
@click.option("--out", type=click.Path(), default=None,
              help="Output file; stdout if omitted.")
@_config_option
@_runtime_errors
def analyze(generator, angle, k_max, mass, dt, l0, fmt, out):
    """Scale table, uncertainty products, regime, and bound checks."""
    spec = _spec_from_flags(generator, angle)
    ctxp = kinematics.ParticleContext(m=mass, dt=dt, L0=l0)
    rows = measures.scale_table(spec, l0, dt, k_max)
    if fmt == "csv":
        text = serialize.scale_rows_to_csv(rows)
    else:
        regime = kinematics.classify_regime(spec.ds, ctxp)
        table = kinematics.uncertainty_table(spec, ctxp, k_max)
        ks = range(1, k_max + 1)
        bounds = kinematics.verify_bounds(spec, ctxp, ks) if ks else None
        bundle = serialize.analysis_to_dict(spec, ctxp, regime, rows, table, bounds)
        text = serialize.json_text(bundle)
    with _output(out) as fp:
        fp.write(text)


def _parse_scales(text: str) -> list[int]:
    try:
        if ".." in text:
            lo, hi = text.split("..")
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(part) for part in text.split(",")]
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
              help="Include the dimension regression.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", type=click.Path(), default=None)
@_config_option
@_runtime_errors
def measure(input_path, scales, rho, method, fit, fmt, out):
    """Cell-count or divider-step an arbitrary polyline over a ladder."""
    ks = _parse_scales(scales)
    if min(ks) < 0:
        raise click.UsageError("scale indices must be >= 0")
    poly = serialize.polyline_from_dict(json.loads(Path(input_path).read_text()))
    result = estimator.measure_polyline(poly, ks, rho=rho, method=method, fit=fit)
    if fmt == "csv":
        text = serialize.measurement_to_csv(result)
    else:
        text = serialize.json_text(serialize.measurement_to_dict(result))
    with _output(out) as fp:
        fp.write(text)


@main.command()
@click.option("--n", type=click.IntRange(min=2), required=True,
              help="Number of vertices (flag or config file).")
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
@click.option("--step-std", type=_POSITIVE, default=1.0, show_default=True,
              help="Per-axis standard deviation of each increment.")
@click.option("--out", type=click.Path(), default=None,
              help="Output polyline JSON; stdout if omitted.")
@_config_option
@_runtime_errors
def brownian(n, seed, step_std, out):
    """Sample a reproducible 2D Brownian path."""
    poly = estimator.brownian_path(n, seed, step_std)
    meta = estimator.brownian_metadata(n, seed, step_std)
    with _output(out) as fp:
        serialize.write_polyline_json(poly, fp, meta)


if __name__ == "__main__":
    sys.exit(main())
