"""Self-similar trajectories: construction, multiscale measures,
uncertainty-product bounds, and empirical dimension estimation.

Every export is imported on first use, from the module `_LAZY` lists for
it, so that each command loads only the modules it runs: `--help` loads
`cli` and `geometry` alone, and only the commands that build, measure or
draw a polyline load numpy.
"""

import importlib

__version__ = "0.1.0"

#: every export and the module it comes from
_LAZY = {
    **dict.fromkeys(("GeneratorSpec", "Polyline", "base_segment", "builtin",
                     "integer_generator", "refine"), "geometry"),
    **dict.fromkeys(("BoundsReport", "BoundsRow", "ParticleContext", "UncertaintyRow",
                     "classify_regime", "uncertainty_table", "verify_bounds"), "kinematics"),
    **dict.fromkeys(("DimensionFit", "MeasurementResult", "MeasurementRow", "RegimeBound",
                     "ScaleRow", "classify", "resolution", "scale_table"), "measures"),
    **dict.fromkeys(("BROWNIAN_PRNG", "brownian_metadata", "brownian_path", "divider_count",
                     "estimate_dimension", "grid_count", "measure_polyline"), "estimator"),
    **dict.fromkeys(("RenderOptions", "render_panels", "render_svg"), "render"),
}

__all__ = [*_LAZY, "__version__"]


def __getattr__(name: str):
    # Looked up on every access, never stored in this namespace: a name
    # cached here would miss a later swap of the module's function.
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
