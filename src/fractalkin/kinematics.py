"""Particle kinematics on top of the geometric measures.

A particle of mass m traverses the trajectory in time dt; the per-scale
surface changes then become areolar velocity/momentum changes, and the
geometric bound regimes become bounds on the position-momentum product
in units of the base action eta0 = E0 * dt.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .geometry import GeneratorSpec, _check_k, _check_positive
from .measures import RegimeBound, _rounded, _settled, classify, holds_from, ratios, regime_interval


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
        for label in ("m", "dt", "L0"):  # inf has no exact ratio for eta0_exact
            _check_positive(label, getattr(self, label))
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
        return _rounded(*(Fraction(self.L0) / Fraction(self.dt)).as_integer_ratio())

    @property
    def E0(self) -> float:
        """Base-scale kinetic energy m V0^2 / 2 = m L0^2 / (2 dt^2)."""
        return _rounded(*(self.eta0_exact() / Fraction(self.dt)).as_integer_ratio())

    @property
    def eta0(self) -> float:
        """Action scale E0 * dt = m L0^2 / (2 dt), correctly rounded like V0 and E0."""
        return _rounded(*self.eta0_exact().as_integer_ratio())

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

    `rho_ge_2` flags the domain on which the eta0 lower bound of the
    super/critical regimes is claimed for every k >= 1: with rho < 2, row
    k = 1 of a super generator can fail (`measures.holds_from`).
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


def classify_regime(spec: GeneratorSpec, ctx: ParticleContext) -> RegimeBound:
    """Bounds on dx_k * dp_k in action units: the table of the generator's
    regime (`measures.classify`) with unit eta0, each finite endpoint the
    correctly rounded eta0 or 2 eta0.

    For example eta0 <= product < 2 eta0 on the critical line N = rho^2.
    Twice the rounded eta0 is not the rounded 2 eta0 where eta0 is subnormal.
    """
    table = regime_interval(classify(spec), ctx.eta0_exact())
    return dataclasses.replace(table, lower=float(table.lower), upper=float(table.upper))


def uncertainty_table(
    spec: GeneratorSpec, ctx: ParticleContext, k_max: int
) -> list[UncertaintyRow]:
    """Rows of areolar velocity/momentum changes for k = 0..k_max, one `_settled` pass."""
    k_max = _check_k(k_max)
    regime = classify(spec)
    res, _, area = ratios(spec)
    c = 2 * ctx.eta0_exact()  # dP_k = m dV_k = 2 eta0 gamma(k)
    terms = [(c / Fraction(ctx.m), area, res), (c, area, res)]
    return [UncertaintyRow(k=k, dV_k=dv_k, dP_k=dp_k, regime=regime)
            for k, (dv_k, dp_k) in _settled(range(k_max + 1), terms)]


def verify_bounds(
    spec: GeneratorSpec, ctx: ParticleContext, k_range: Iterable[int]
) -> BoundsReport:
    """Check the regime inequality for every k in `k_range` (all k >= 1).

    Violations are reported as data, not raised.  The product is the
    correctly rounded 2 eta0 gamma(k), inf past the float64 range, settled
    in one `_settled` pass, and `passed` is exact: eta0 > 0 cancels out of
    the regime inequality, so a row passes when gamma(k) lies in the regime
    table in units of 1/2, which is when k >= `measures.holds_from(spec)`.
    """
    ks = sorted(set(_check_k(k) for k in k_range))
    if not ks:
        raise ValueError("k_range must be non-empty")
    if ks[0] < 1:
        raise ValueError("bound checking applies to k >= 1 only")
    bound = classify_regime(spec, ctx)
    k0 = holds_from(spec)
    res, _, area = ratios(spec)
    rows = [BoundsRow(k=k, product=product, lower=bound.lower, upper=bound.upper, passed=k >= k0)
            for k, (product,) in _settled(ks, [(2 * ctx.eta0_exact(), area, res)])]
    return BoundsReport(
        spec_name=spec.name,
        ds=spec.ds,
        eta0=ctx.eta0,
        rows=tuple(rows),
        k_min=1,
        rho_ge_2=spec.rho >= 2.0,
    )
