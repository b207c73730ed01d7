"""Particle kinematics on top of the geometric measures.

A particle of mass m traverses the trajectory in time dt; the per-scale
surface changes then become areolar velocity/momentum changes, and the
geometric bound regimes become bounds on the position-momentum product
in units of the base action eta0 = E0 * dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .geometry import GeneratorSpec
from .measures import (
    RegimeBound,
    classify_ds,
    delta_area,
    gamma_exact,
    regime_interval,
)


@dataclass(frozen=True)
class ParticleContext:
    """Mass, traversal time, and base length, with derived scales.

    Units are caller-supplied and unchecked beyond positivity; any
    consistent system works, including the normalized m = dt = L0 = 1.
    """

    m: float
    dt: float
    L0: float

    def __post_init__(self) -> None:
        for label, value in (("m", self.m), ("dt", self.dt), ("L0", self.L0)):
            if not value > 0.0:
                raise ValueError(f"{label} must be positive, got {value}")

    @property
    def V0(self) -> float:
        """Base-scale speed L0/dt."""
        return self.L0 / self.dt

    @property
    def E0(self) -> float:
        """Base-scale kinetic energy m V0^2 / 2."""
        return 0.5 * self.m * self.V0 * self.V0

    @property
    def eta0(self) -> float:
        """Action scale E0 * dt = m L0^2 / (2 dt)."""
        return self.E0 * self.dt

    def eta0_exact(self) -> Fraction:
        """eta0 as an exact rational of the (float, hence rational) inputs."""
        m, l0, dt = Fraction(self.m), Fraction(self.L0), Fraction(self.dt)
        return m * l0 * l0 / (2 * dt)


@dataclass(frozen=True)
class UncertaintyRow:
    """Per-scale areolar velocity and momentum changes."""

    k: int
    dV_k: float  # dx_k * dv_k, length^2 / time
    dP_k: float  # dx_k * dp_k = m * dV_k, action units
    regime: str


@dataclass(frozen=True)
class BoundsRow:
    k: int
    product: float
    lower: float
    upper: float
    passed: bool


@dataclass(frozen=True)
class BoundsReport:
    """Machine check of the regime inequality for a range of scales.

    `rho_ge_2` flags whether the eta0 lower bound of the super/critical
    regimes is actually in force (it needs rho >= 2 on top of k >= 1);
    `exact` records whether pass/fail was decided in exact rational
    arithmetic (integer-scaled generators) or in float64.
    """

    spec_name: str
    ds: float
    eta0: float
    rows: tuple[BoundsRow, ...]
    k_min: int
    rho_ge_2: bool
    exact: bool

    @property
    def violations(self) -> list[BoundsRow]:
        return [row for row in self.rows if not row.passed]

    @property
    def all_passed(self) -> bool:
        return not self.violations


def areolar_velocity_change(k: int, spec: GeneratorSpec, ctx: ParticleContext) -> float:
    """dx_k * dv_k = dx_k * dL_k / dt."""
    return delta_area(k, spec, ctx.L0) / ctx.dt


def uncertainty_product(k: int, spec: GeneratorSpec, ctx: ParticleContext) -> float:
    """Position-momentum product at scale k: m dx_k dL_k / dt = 2 eta0 gamma(k)."""
    return ctx.m * areolar_velocity_change(k, spec, ctx)


def uncertainty_product_exact(
    k: int, spec: GeneratorSpec, ctx: ParticleContext
) -> Fraction:
    """Exact product 2 eta0 gamma(k) for integer-scaled generators.

    This is the route that can decide the strict critical-regime bounds at
    large k, where the float product saturates at exactly 2 eta0.
    """
    if not spec.has_integer_scaling():
        raise ValueError("exact route needs an integer rho")
    g = gamma_exact(k, int(spec.rho), spec.n)
    return 2 * ctx.eta0_exact() * g


def classify_regime(ds: float, ctx: ParticleContext) -> RegimeBound:
    """Bounds on dx_k * dp_k in action units: the regime table with unit eta0.

    For example eta0 <= product < 2 eta0 on the D_s = 2 line.
    """
    return regime_interval(ds, ctx.eta0)


def uncertainty_table(
    spec: GeneratorSpec, ctx: ParticleContext, k_max: int
) -> list[UncertaintyRow]:
    """Rows of areolar velocity/momentum changes for k = 0..k_max."""
    regime = classify_ds(spec.ds)
    rows = []
    for k in range(int(k_max) + 1):
        dv = areolar_velocity_change(k, spec, ctx)
        rows.append(UncertaintyRow(k=k, dV_k=dv, dP_k=ctx.m * dv, regime=regime))
    return rows


def verify_bounds(
    spec: GeneratorSpec, ctx: ParticleContext, k_range: Iterable[int]
) -> BoundsReport:
    """Check the regime inequality for every k in `k_range` (all k >= 1).

    Violations are reported as data, not raised.  Integer-scaled
    generators are checked in exact rational arithmetic; others in float.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("k_range must be non-empty")
    if ks[0] < 1:
        raise ValueError("bound checking applies to k >= 1 only")
    bound = classify_regime(spec.ds, ctx)
    exact = spec.has_integer_scaling()
    if exact:
        judge = regime_interval(spec.ds, ctx.eta0_exact())
        product_at = uncertainty_product_exact
    else:
        judge, product_at = bound, uncertainty_product
    rows = []
    for k in ks:
        product = product_at(k, spec, ctx)
        rows.append(
            BoundsRow(
                k=k,
                product=float(product),
                lower=bound.lower,
                upper=bound.upper,
                passed=judge.contains(product),
            )
        )
    return BoundsReport(
        spec_name=spec.name,
        ds=spec.ds,
        eta0=ctx.eta0,
        rows=tuple(rows),
        k_min=1,
        rho_ge_2=spec.rho >= 2.0,
        exact=exact,
    )
