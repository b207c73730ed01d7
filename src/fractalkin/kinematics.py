"""Particle kinematics on top of the geometric measures.

A particle of mass m traverses the trajectory in time dt; the per-scale
surface changes then become areolar velocity/momentum changes, and the
geometric bound regimes become bounds on the position-momentum product
in units of the base action eta0 = E0 * dt.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from typing import Iterable

from .geometry import GeneratorSpec
from .measures import RegimeBound, classify_ds, delta_area, regime_interval

#: significant digits of the decimal bounds in `verify_bounds`
BOUND_DIGITS = 60


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


def _exact_row(
    spec: GeneratorSpec, k: int, a: int, b: int, pn: int, pd: int
) -> tuple[float, bool]:
    """The product 2 eta0 gamma(k) and the regime check at scale k, in exact
    integers.

    With rho = a/b, gamma(k) = (u - v) / w for u = (N b^2)^k, v = (a b)^k and
    w = (a^2)^k, and 2 eta0 = pn / pd.  The product is correctly rounded, and
    inf past the float64 range; the check compares 2 (u - v) with the regime
    table in units of w.
    """
    u, v, w = (spec.n * b * b) ** k, (a * b) ** k, (a * a) ** k
    try:
        product = (pn * (u - v)) / (pd * w)
    except OverflowError:
        product = math.inf
    return product, regime_interval(spec.ds, w).contains(2 * (u - v))


def _bounded_row(x1, x2, eta, table: RegimeBound, down: Context, up: Context):
    """The product and the regime check settled from (lower, upper) bounds on
    x1 = 2 g1^k, x2 = 2 g2^k and eta0, or None where the bounds cannot
    settle them.

    The product eta0 (x1 - x2) = 2 eta0 gamma(k) is settled when both of its
    ends are positive and round to the same float64 (float() of a Decimal
    is correctly rounded, and rounding is monotone); gamma(k) >= 0 since
    N >= rho, with equality for N = rho.  The check is settled when, for
    each finite endpoint c of `table` (in units of 1), x1 - c lies strictly
    above or strictly below x2 at both ends; bounds that admit
    2 gamma(k) = c settle nothing.
    """
    (lo1, hi1), (lo2, hi2), (e_lo, e_hi) = x1, x2, eta
    d_lo = down.subtract(lo1, hi2)
    if not d_lo > 0:
        return None
    product = float(down.multiply(e_lo, d_lo))
    if float(up.multiply(e_hi, up.subtract(hi1, lo2))) != product:
        return None
    above = []  # whether 2 gamma(k) lies above each finite endpoint
    for c in (table.lower, table.upper):
        if c == math.inf:
            continue
        if down.subtract(lo1, c) > hi2:
            above.append(True)
        elif up.subtract(hi1, c) < lo2:
            above.append(False)
        else:
            return None
    return product, above[0] and (table.upper == math.inf or not above[1])


def verify_bounds(
    spec: GeneratorSpec, ctx: ParticleContext, k_range: Iterable[int]
) -> BoundsReport:
    """Check the regime inequality for every k in `k_range` (all k >= 1).

    Violations are reported as data, not raised.  `passed` is exact and
    the displayed product is the correctly rounded 2 eta0 gamma(k), inf
    past the float64 range; 1 - rho^-k, which rounds to 1.0 in float64, is
    never formed.  With g1 = N / rho^2 and g2 = 1 / rho, gamma(k) =
    g1^k - g2^k, and eta0 > 0 cancels out of the regime inequality, so a
    row passes when 2 gamma(k) lies in the regime table in units of 1.
    Each row is first settled by `_bounded_row` from lower and upper
    decimal bounds on 2 g1^k and 2 g2^k, carried to `BOUND_DIGITS` digits
    with every operation rounded down or up.  A row the bounds cannot
    settle, such as one where 2 gamma(k) sits on an endpoint of the table
    or a classical row (gamma(k) = 0), is decided by `_exact_row` in exact
    integers.
    """
    ks = sorted(set(int(k) for k in k_range))
    if not ks:
        raise ValueError("k_range must be non-empty")
    if ks[0] < 1:
        raise ValueError("bound checking applies to k >= 1 only")
    bound = classify_regime(spec.ds, ctx)
    a, b = spec.rho.as_integer_ratio()
    eta0 = ctx.eta0_exact()
    pn, pd = (2 * eta0).as_integer_ratio()
    en, ed = eta0.as_integer_ratio()
    # each operation rounds toward the side its result bounds, and every
    # factor of a product is positive, so each lower bound stays below the
    # exact value and each upper bound above it
    down = Context(prec=BOUND_DIGITS, rounding=ROUND_FLOOR, Emin=MIN_EMIN, Emax=MAX_EMAX)
    up = Context(prec=BOUND_DIGITS, rounding=ROUND_CEILING, Emin=MIN_EMIN, Emax=MAX_EMAX)
    g1 = spec.n * b * b, a * a
    g1_lo, g1_hi = down.divide(*g1), up.divide(*g1)
    g2_lo, g2_hi = down.divide(b, a), up.divide(b, a)
    eta = down.divide(en, ed), up.divide(en, ed)
    table = regime_interval(spec.ds, 1)
    lo1 = hi1 = lo2 = hi2 = Decimal(2)  # bounds on 2 g1^k and 2 g2^k
    rows = []
    prev = 0
    for k in ks:
        for _ in range(k - prev):
            lo1, hi1 = down.multiply(lo1, g1_lo), up.multiply(hi1, g1_hi)
            lo2, hi2 = down.multiply(lo2, g2_lo), up.multiply(hi2, g2_hi)
        prev = k
        product, passed = (
            _bounded_row((lo1, hi1), (lo2, hi2), eta, table, down, up)
            or _exact_row(spec, k, a, b, pn, pd)
        )
        rows.append(
            BoundsRow(k=k, product=product, lower=bound.lower, upper=bound.upper, passed=passed)
        )
    return BoundsReport(
        spec_name=spec.name,
        ds=spec.ds,
        eta0=ctx.eta0,
        rows=tuple(rows),
        k_min=1,
        rho_ge_2=spec.rho >= 2.0,
    )
