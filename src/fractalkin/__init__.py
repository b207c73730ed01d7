"""Self-similar trajectories: construction, multiscale measures,
uncertainty-product bounds, and empirical dimension estimation."""

from .estimator import (
    BROWNIAN_PRNG,
    DimensionFit,
    MeasurementResult,
    MeasurementRow,
    brownian_metadata,
    brownian_path,
    divider_count,
    estimate_dimension,
    grid_count,
    measure_polyline,
)
from .geometry import (
    GeneratorSpec,
    Polyline,
    base_segment,
    builtin,
    integer_generator,
    refine,
    similarity_dimension,
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
    RegimeBound,
    ScaleRow,
    classify_ds,
    resolution,
    scale_table,
)
from .render import RenderOptions, render_panels, render_svg

__version__ = "0.1.0"
