"""Self-similar trajectories: construction, multiscale measures,
uncertainty-product bounds, and empirical dimension estimation.

The closed-form layer (`geometry`, `measures`, `kinematics`, `serialize`,
`cli`) loads without numpy.  The array layer's exports (`estimator`,
`render`) are imported on first use, so that `--help` and `analyze` never
load it.
"""

import importlib

from .geometry import (
    GeneratorSpec,
    Polyline,
    base_segment,
    builtin,
    integer_generator,
    refine,
)
from .kinematics import (
    BoundsReport,
    BoundsRow,
    ParticleContext,
    UncertaintyRow,
    classify_regime,
    uncertainty_table,
    verify_bounds,
)
from .measures import (
    DimensionFit,
    MeasurementResult,
    MeasurementRow,
    RegimeBound,
    ScaleRow,
    classify,
    resolution,
    scale_table,
)

__version__ = "0.1.0"

#: array-layer exports and the module each comes from
_LAZY = {
    **dict.fromkeys(("BROWNIAN_PRNG", "brownian_metadata", "brownian_path", "divider_count",
                     "estimate_dimension", "grid_count", "measure_polyline"), "estimator"),
    **dict.fromkeys(("RenderOptions", "render_panels", "render_svg"), "render"),
}


def __getattr__(name: str):
    # Looked up on every access, never stored in this namespace: a name
    # cached here would miss a later swap of the module's function.
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)
