"""Command-line interface: generate curves, analyze scales, measure, render.

Exit codes: 0 on success, 2 on flag/usage validation, 1 on runtime or IO
failure.  Every output is deterministic given the flags (seeds included).
The FK_THREADS environment variable caps parallelism of scale sweeps
(0 or unset = auto).
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

import click

from . import estimator, kinematics, measures, render, serialize
from .geometry import BUILTIN_NAMES, base_segment, builtin, refine


def _workers() -> int | None:
    raw = os.environ.get("FK_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise click.UsageError(f"FK_THREADS must be an integer, got {raw!r}")
    if value < 0:
        raise click.UsageError("FK_THREADS must be >= 0")
    if value == 0:
        return os.cpu_count()
    return value


def _apply_config(ctx: click.Context, config_path: str | None) -> None:
    """Fill parameters from a JSON config file; explicit flags win."""
    if config_path is None:
        return
    try:
        data = json.loads(Path(config_path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise click.UsageError(f"cannot read config file {config_path}: {exc}")
    if not isinstance(data, dict):
        raise click.UsageError("config file must hold a JSON object")
    section = data.get(ctx.command.name, data)
    if not isinstance(section, dict):
        raise click.UsageError(
            f"config section {ctx.command.name!r} must be a JSON object"
        )
    for param in ctx.command.params:
        if param.name in section and (
            ctx.get_parameter_source(param.name)
            != click.core.ParameterSource.COMMANDLINE
        ):
            ctx.params[param.name] = param.type.convert(
                section[param.name], param, ctx
            )


def _runtime_errors(f):
    """Map library errors to exit code 1, keeping usage errors at 2."""

    @functools.wraps(f)
    def wrapper(*args, **kwargs):
        try:
            return f(*args, **kwargs)
        except click.ClickException:
            raise
        except (ValueError, OSError) as exc:
            raise click.ClickException(str(exc))

    return wrapper


def _spec_from_flags(generator: str | None, angle: float | None):
    if generator is None:
        raise click.UsageError("--generator is required")
    if generator == "cesaro":
        if angle is None:
            raise click.UsageError("--generator cesaro requires --angle")
        return builtin("cesaro", angle_deg=angle)
    if angle is not None:
        raise click.UsageError("--angle only applies to --generator cesaro")
    return builtin(generator)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text)


_config_option = click.option(
    "--config", type=click.Path(), default=None,
    help="JSON file of flag defaults (flags > file > defaults).",
)
_generator_option = click.option(
    "--generator", type=click.Choice(BUILTIN_NAMES), default=None,
    help="Built-in generator family (required here or in the config).",
)
_angle_option = click.option(
    "--angle", type=float, default=None,
    help="Opening angle in degrees (cesaro only, open interval 0..90).",
)


@click.group()
@click.version_option(package_name="fractalkin")
def main() -> None:
    """Self-similar trajectory toolkit: build, analyze, measure, render."""


@main.command()
@_generator_option
@_angle_option
@click.option("--level", type=int, default=None,
              help="Construction level k >= 0 (required here or in the config file).")
@click.option("--l0", type=float, default=1.0, show_default=True,
              help="Base segment length.")
@click.option("--out", type=click.Path(), default=None,
              help="Output file (.json polyline or .svg drawing); stdout JSON if omitted.")
@_config_option
@click.pass_context
@_runtime_errors
def generate(ctx, generator, angle, level, l0, out, config):
    """Produce the level-k polyline of a generator."""
    _apply_config(ctx, config)
    generator, angle = ctx.params["generator"], ctx.params["angle"]
    level, l0, out = ctx.params["level"], ctx.params["l0"], ctx.params["out"]
    if level is None:
        raise click.UsageError("--level is required")
    if level < 0:
        raise click.UsageError("--level must be >= 0")
    if l0 <= 0:
        raise click.UsageError("--l0 must be positive")
    spec = _spec_from_flags(generator, angle)
    poly = refine(base_segment(l0), spec, level)
    if out is not None and out.endswith(".svg"):
        _emit(render.render_svg(poly), out)
    else:
        _emit(serialize.json_text(serialize.polyline_to_dict(poly)), out)


@main.command()
@_generator_option
@_angle_option
@click.option("--k-max", type=int, default=10, show_default=True,
              help="Largest scale index.")
@click.option("--mass", type=float, default=1.0, show_default=True)
@click.option("--dt", type=float, default=1.0, show_default=True,
              help="Traversal time.")
@click.option("--l0", type=float, default=1.0, show_default=True,
              help="Base length.")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]),
              default="json", show_default=True)
@click.option("--out", type=click.Path(), default=None,
              help="Output file; stdout if omitted.")
@_config_option
@click.pass_context
@_runtime_errors
def analyze(ctx, generator, angle, k_max, mass, dt, l0, fmt, out, config):
    """Scale table, uncertainty products, regime, and bound checks."""
    _apply_config(ctx, config)
    p = ctx.params
    generator, angle, k_max = p["generator"], p["angle"], p["k_max"]
    mass, dt, l0, fmt, out = p["mass"], p["dt"], p["l0"], p["fmt"], p["out"]
    if k_max < 0:
        raise click.UsageError("--k-max must be >= 0")
    for flag, value in (("--mass", mass), ("--dt", dt), ("--l0", l0)):
        if value <= 0:
            raise click.UsageError(f"{flag} must be positive")
    spec = _spec_from_flags(generator, angle)
    ctxp = kinematics.ParticleContext(m=mass, dt=dt, L0=l0)
    rows = measures.scale_table(spec, l0, dt, k_max)
    if fmt == "csv":
        _emit(serialize.scale_rows_to_csv(rows), out)
        return
    regime = kinematics.classify_regime(spec.ds, ctxp)
    table = kinematics.uncertainty_table(spec, ctxp, k_max)
    bounds = (
        kinematics.verify_bounds(spec, ctxp, range(1, k_max + 1))
        if k_max >= 1
        else None
    )
    bundle = serialize.analysis_to_dict(spec, ctxp, regime, rows, table, bounds)
    _emit(serialize.json_text(bundle), out)


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
              default=None, help="Polyline JSON file (required here or in the config).")
@click.option("--scales", default="1..5", show_default=True,
              help='Ladder indices "k0..k1" (dx_k = L0 / rho^k).')
@click.option("--rho", type=float, default=3.0, show_default=True,
              help="Resolution ladder factor.")
@click.option("--method", type=click.Choice(["grid", "divider"]),
              default="grid", show_default=True)
@click.option("--fit/--no-fit", default=True, show_default=True,
              help="Include the dimension regression.")
@click.option("--format", "fmt", type=click.Choice(["json", "csv"]),
              default="json", show_default=True)
@click.option("--out", type=click.Path(), default=None)
@_config_option
@click.pass_context
@_runtime_errors
def measure(ctx, input_path, scales, rho, method, fit, fmt, out, config):
    """Cell-count or divider-step an arbitrary polyline over a ladder."""
    _apply_config(ctx, config)
    p = ctx.params
    input_path, scales, rho = p["input_path"], p["scales"], p["rho"]
    method, fit, fmt, out = p["method"], p["fit"], p["fmt"], p["out"]
    if input_path is None:
        raise click.UsageError("--input is required")
    if rho <= 1:
        raise click.UsageError("--rho must be > 1")
    ks = _parse_scales(scales)
    if min(ks) < 0:
        raise click.UsageError("scale indices must be >= 0")
    poly = serialize.polyline_from_dict(json.loads(Path(input_path).read_text()))
    result = estimator.measure_polyline(
        poly, ks, rho=rho, method=method, fit=fit, workers=_workers()
    )
    if fmt == "csv":
        _emit(serialize.measurement_to_csv(result), out)
    else:
        _emit(serialize.json_text(serialize.measurement_to_dict(result)), out)


@main.command()
@click.option("--n", type=int, default=None,
              help="Number of vertices, >= 2 (required here or in the config).")
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--step-std", type=float, default=1.0, show_default=True,
              help="Per-axis standard deviation of each increment.")
@click.option("--out", type=click.Path(), default=None,
              help="Output polyline JSON; stdout if omitted.")
@_config_option
@click.pass_context
@_runtime_errors
def brownian(ctx, n, seed, step_std, out, config):
    """Sample a reproducible 2D Brownian path."""
    _apply_config(ctx, config)
    p = ctx.params
    n, seed, step_std, out = p["n"], p["seed"], p["step_std"], p["out"]
    if n is None or n < 2:
        raise click.UsageError("--n must be >= 2")
    if step_std <= 0:
        raise click.UsageError("--step-std must be positive")
    poly = estimator.brownian_path(n, seed, step_std)
    meta = estimator.brownian_metadata(n, seed, step_std)
    _emit(serialize.json_text(serialize.polyline_to_dict(poly, metadata=meta)), out)


if __name__ == "__main__":
    sys.exit(main())
