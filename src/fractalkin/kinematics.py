"""Particle kinematics on top of the geometric measures.

A particle of mass m traverses the trajectory in time dt; the per-scale
surface changes then become areolar velocity/momentum changes, and the
geometric bound regimes become bounds on the position-momentum product
in units of the base action eta0 = E0 * dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .geometry import GeneratorSpec
from .measures import RegimeBound, classify_ds, delta_area, regime_interval


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
        if self.eta0 == math.inf:  # V0, E0 and eta0 overflow together
            raise ValueError("eta0 = m L0^2 / (2 dt) is too large for float64")

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
    regimes is actually in force (it needs rho >= 2 on top of k >= 1).
    """

    spec_name: str
    ds: float
    eta0: float
    rows: tuple[BoundsRow, ...]
    k_min: int
    rho_ge_2: bool

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

    Violations are reported as data, not raised.  Every float rho is a
    rational a/b, so gamma(k) = (u - v) / w with the integers u = (N b^2)^k,
    v = (a b)^k and w = (a^2)^k.  eta0 > 0 cancels out of the regime
    inequality, so each row is decided exactly by comparing 2 (u - v) with
    the regime table in units of w; 1 - rho^-k, which rounds to 1.0 in
    float64, never has to be formed.  The displayed product is the
    correctly rounded 2 eta0 gamma(k), and inf past the float64 range.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("k_range must be non-empty")
    if ks[0] < 1:
        raise ValueError("bound checking applies to k >= 1 only")
    bound = classify_regime(spec.ds, ctx)
    a, b = spec.rho.as_integer_ratio()
    pn, pd = (2 * ctx.eta0_exact()).as_integer_ratio()
    u = v = w = 1
    rows = []
    prev = 0
    for k in ks:
        step = k - prev
        u *= (spec.n * b * b) ** step
        v *= (a * b) ** step
        w *= (a * a) ** step
        prev = k
        try:
            product = (pn * (u - v)) / (pd * w)
        except OverflowError:
            product = math.inf
        rows.append(
            BoundsRow(
                k=k,
                product=product,
                lower=bound.lower,
                upper=bound.upper,
                passed=regime_interval(spec.ds, w).contains(2 * (u - v)),
            )
        )
    return BoundsReport(
        spec_name=spec.name,
        ds=spec.ds,
        eta0=ctx.eta0,
        rows=tuple(rows),
        k_min=1,
        rho_ge_2=spec.rho >= 2.0,
    )
