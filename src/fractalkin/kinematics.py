"""Particle kinematics on top of the geometric measures.

A particle of mass m traverses the trajectory in time dt; the per-scale
surface changes then become areolar velocity/momentum changes, and the
geometric bound regimes become bounds on the position-momentum product
in units of the base action eta0 = E0 * dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Iterator

from .geometry import GeneratorSpec, _check_k
from .measures import DOWN, UP, Bounded, RegimeBound, classify_ds, gammas, regime_interval


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
        # JSON holds no inf, and the critical regime ends at 2 eta0; eta0 is
        # correctly rounded and doubling is exact, so 2 * eta0 overflows
        # exactly where the correctly rounded 2 eta0 does
        if math.inf in (2.0 * self.eta0, self.E0, self.V0):
            raise ValueError("2 eta0 = m L0^2 / dt, E0 or V0 is too large for float64")
        if self.eta0 == 0.0:  # every regime interval would collapse to 0
            raise ValueError("eta0 = m L0^2 / (2 dt) is too small for float64")

    @property
    def V0(self) -> float:
        """Base-scale speed L0/dt."""
        return Bounded.of(Fraction(self.L0) / Fraction(self.dt)).settle()

    @property
    def E0(self) -> float:
        """Base-scale kinetic energy m V0^2 / 2 = m L0^2 / (2 dt^2)."""
        return Bounded.of(self.eta0_exact() / Fraction(self.dt)).settle()

    @property
    def eta0(self) -> float:
        """Action scale E0 * dt = m L0^2 / (2 dt), correctly rounded like V0 and E0."""
        return Bounded.of(self.eta0_exact()).settle()

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


def classify_regime(ds: float, ctx: ParticleContext) -> RegimeBound:
    """Bounds on dx_k * dp_k in action units: the regime table with unit eta0.

    For example eta0 <= product < 2 eta0 on the D_s = 2 line.
    """
    return regime_interval(ds, ctx.eta0)


def _products(
    spec: GeneratorSpec, ctx: ParticleContext, ks: Iterable[int]
) -> Iterator[tuple[int, Bounded, Bounded, Bounded, Bounded]]:
    """(k, rho^-k, (N/rho^2)^k, gamma(k), 2 eta0 gamma(k)) for each k of `ks`,
    bounded: the one place the product dx_k * dp_k is formed."""
    per_product = Bounded.of(2 * ctx.eta0_exact())
    for k, res, area, g in gammas(spec, ks):
        yield k, res, area, g, g.times(per_product)


def uncertainty_table(
    spec: GeneratorSpec, ctx: ParticleContext, k_max: int
) -> list[UncertaintyRow]:
    """Rows of areolar velocity/momentum changes for k = 0..k_max."""
    k_max = _check_k(k_max)
    regime = classify_ds(spec.ds)
    per_dv = Bounded.of(2 * ctx.eta0_exact() / Fraction(ctx.m))
    rows = []
    for k, _, _, g, product in _products(spec, ctx, range(k_max + 1)):
        rows.append(UncertaintyRow(
            k=k, dV_k=g.times(per_dv).settle(), dP_k=product.settle(), regime=regime))
    return rows


def _passes(area: Bounded, res: Bounded, g: Bounded, ds: float, table: RegimeBound) -> bool:
    """Whether gamma(k) = g = area - res lies in `table`, the regime table
    in units of 1/2.  Settled from the bounds when, for each finite
    endpoint c, area - c lies strictly above or below res at both ends
    (bounds on g itself would cancel to 1 on the D_s = 2 line), and from
    the exact g where they admit g = c."""
    above = []  # whether gamma(k) lies above each finite endpoint
    for c in (table.lower, table.upper):
        if c == math.inf:
            continue
        if DOWN.subtract(area.lo, c) > res.hi:
            above.append(True)
        elif UP.subtract(area.hi, c) < res.lo:
            above.append(False)
        else:
            n, d = g.exact()  # gamma(k) = n / d, so 2 n in the table in units of d
            return regime_interval(ds, d).contains(2 * n)
    return above[0] and (table.upper == math.inf or not above[1])


def verify_bounds(
    spec: GeneratorSpec, ctx: ParticleContext, k_range: Iterable[int]
) -> BoundsReport:
    """Check the regime inequality for every k in `k_range` (all k >= 1).

    Violations are reported as data, not raised.  The product is the
    correctly rounded 2 eta0 gamma(k), inf past the float64 range, on the
    route of every closed form (`measures.Bounded`).  `passed` is exact:
    eta0 > 0 cancels out of the regime inequality, so a row passes when
    gamma(k) lies in the regime table in units of 1/2 (`_passes`).
    """
    ks = sorted(set(_check_k(k) for k in k_range))
    if not ks:
        raise ValueError("k_range must be non-empty")
    if ks[0] < 1:
        raise ValueError("bound checking applies to k >= 1 only")
    ds = spec.ds
    bound = classify_regime(ds, ctx)
    table = regime_interval(ds, Decimal("0.5"))
    rows = []
    for k, res, area, g, product in _products(spec, ctx, ks):
        passed = _passes(area, res, g, ds, table)
        rows.append(BoundsRow(k=k, product=product.settle(), lower=bound.lower,
                              upper=bound.upper, passed=passed))
    return BoundsReport(
        spec_name=spec.name,
        ds=ds,
        eta0=ctx.eta0,
        rows=tuple(rows),
        k_min=1,
        rho_ge_2=spec.rho >= 2.0,
    )
