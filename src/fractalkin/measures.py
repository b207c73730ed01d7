"""Closed-form multiscale measures of a self-similar trajectory.

Everything here is a pure function of (k, rho, N, L0, dt): the resolution
ladder, the scale table (length, area and the surface-change factor
gamma(k) = (N/rho^2)^k - rho^-k at every scale), and the
similarity-dimension bound regimes.  Every float is its exact closed form
correctly rounded (`Bounded.settle`).  gamma(k) is formed in `gammas`
alone; `kinematics.verify_bounds` decides the strict bounds on it exactly.

The rows of an empirical measurement (`MeasurementRow`, `DimensionFit`,
`MeasurementResult`) are declared here too, and re-exported by
`estimator`, so that `serialize` reads them without loading numpy.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from typing import Callable, Iterable, Iterator

from .geometry import GeneratorSpec, _check_k

#: absolute tolerance used when classifying D_s as exactly 1 or 2
DS_EQUALITY_TOL = 1e-12

REGIME_SUPER = "super"
REGIME_CRITICAL = "critical"
REGIME_SUB = "sub"
REGIME_CLASSICAL = "classical"
REGIMES = (REGIME_SUPER, REGIME_CRITICAL, REGIME_SUB, REGIME_CLASSICAL)

#: significant digits of every decimal bound
BOUND_DIGITS = 60
#: every operation on a lower (upper) bound rounds down (up), unbounded in exponent
DOWN = Context(prec=BOUND_DIGITS, rounding=ROUND_FLOOR, Emin=MIN_EMIN, Emax=MAX_EMAX)
UP = Context(prec=BOUND_DIGITS, rounding=ROUND_CEILING, Emin=MIN_EMIN, Emax=MAX_EMAX)


@dataclass(frozen=True)
class ScaleRow:
    """All per-scale quantities for one resolution index k.

    Field names match the CSV/JSON report schema:
    ``k,dx_k,N_k,L_k,A_k,v_k,gamma,dA_k0,dL_k``.
    """

    k: int
    dx_k: float
    N_k: float
    L_k: float
    A_k: float
    v_k: float
    gamma: float
    dA_k0: float
    dL_k: float


@dataclass(frozen=True)
class RegimeBound:
    """An interval bound for one similarity-dimension regime.

    `lower`/`upper` delimit the admissible values of the bounded quantity
    (dx_k * dp_k in action units, or gamma(k) itself);
    strictness flags say whether each endpoint is excluded.  The classical
    regime degenerates to the single point 0.
    """

    regime: str
    lower: float
    upper: float  # math.inf for the unbounded super regime
    lower_strict: bool
    upper_strict: bool

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")

    def contains(self, value) -> bool:
        """Interval membership; works for floats and exact ints or Fractions."""
        above = value > self.lower if self.lower_strict else value >= self.lower
        if self.upper == math.inf:
            return above
        below = value < self.upper if self.upper_strict else value <= self.upper
        return above and below


@dataclass(frozen=True)
class MeasurementRow:
    """One ladder scale: resolution, raw count, and measured length."""

    k: int
    dx: float
    count: float  # integer-valued for grid counts, fractional for divider
    length: float  # count * dx


@dataclass(frozen=True)
class DimensionFit:
    """OLS fit of ln(count) against ln(1/dx)."""

    ds_hat: float
    intercept: float
    r2: float
    k_fit_range: tuple[int, int]


@dataclass(frozen=True)
class MeasurementResult:
    method: str
    rows: tuple[MeasurementRow, ...]
    fit: DimensionFit | None = None


@dataclass(slots=True)
class Bounded:
    """A rational value >= 0 with decimal bounds lo <= value <= hi (every
    closed form here is >= 0, since N >= rho).  `exact()` returns it as an
    unreduced integer pair (numerator, denominator > 0); with thousands of
    digits at deep k, it is formed only where the bounds cannot settle a
    float."""

    lo: Decimal
    hi: Decimal
    exact: Callable[[], tuple[int, int]]

    @classmethod
    def of(cls, x: Fraction) -> Bounded:
        if x < 0:
            raise ValueError("lengths, times and masses must be positive")
        n, d = x.as_integer_ratio()
        return cls(DOWN.divide(n, d), UP.divide(n, d), lambda: (n, d))

    def times(self, c: Bounded) -> Bounded:
        """self * c, for c > 0 (a negative self.lo bounds a value >= 0 all
        the same once scaled)."""

        def exact():
            (n1, d1), (n2, d2) = self.exact(), c.exact()
            return n1 * n2, d1 * d2

        return Bounded(DOWN.multiply(self.lo, c.lo), UP.multiply(self.hi, c.hi), exact)

    def minus(self, other: Bounded) -> Bounded:
        """self - other, its exact value formed at most once."""
        formed = []

        def exact():
            if not formed:
                (n1, d1), (n2, d2) = self.exact(), other.exact()
                formed.append((n1 - n2, d1) if d1 == d2 else (n1 * d2 - n2 * d1, d1 * d2))
            return formed[0]

        return Bounded(DOWN.subtract(self.lo, other.hi), UP.subtract(self.hi, other.lo), exact)

    def settle(self) -> float:
        """The correctly rounded float64, inf past its range: float() of a
        Decimal and int / int are correctly rounded, and rounding is monotone,
        so bounds that round to one float settle it (-0.0 == 0.0 is no
        exception, as the value is >= 0 and hi gives +0.0)."""
        hi = float(self.hi)
        if float(self.lo) == hi:
            return hi
        n, d = self.exact()
        try:
            return n / d
        except OverflowError:
            return math.inf


@functools.lru_cache(maxsize=3)
def _ladder(ratio: Fraction, digits: int) -> Callable[[int], Bounded]:
    """Bounded ratio^k for any k >= 0, each bound one rounded multiply from
    the bound at k - 1.  Every bound reached is kept, in one ladder per
    ratio and precision: the tables and bound checks of one generator walk
    each of its three powers once."""
    n, d = ratio.as_integer_ratio()
    step, lo, hi = Bounded.of(ratio), [Decimal(1)], [Decimal(1)]

    def at(k: int) -> Bounded:
        while len(lo) <= k:
            lo.append(DOWN.multiply(lo[-1], step.lo))
            hi.append(UP.multiply(hi[-1], step.hi))
        return Bounded(lo[k], hi[k], lambda: (n**k, d**k))

    return at


def ladders(spec: GeneratorSpec) -> tuple[Callable[[int], Bounded], ...]:
    """The ladders of rho^-k, (N/rho)^k and (N/rho^2)^k: dx_k, L_k and A_k
    in units of L0 and L0^2."""
    rho = Fraction(spec.rho)
    return tuple(_ladder(x, DOWN.prec) for x in (1 / rho, spec.n / rho, spec.n / rho**2))


def gammas(
    spec: GeneratorSpec, ks: Iterable[int]
) -> Iterator[tuple[int, Bounded, Bounded, Bounded]]:
    """(k, rho^-k, (N/rho^2)^k, gamma(k)) for each k of `ks`, bounded: the one
    place gamma(k) = (N/rho^2)^k - rho^-k, dA_k0 in units of L0^2, is formed.
    Raises ValueError, as the tables do, on a k that is not an integer >= 0."""
    res_at, _, area_at = ladders(spec)
    for k in map(_check_k, ks):
        res, area = res_at(k), area_at(k)
        yield k, res, area, area.minus(res)


def resolution(k: int, dx0: float, rho: float) -> float:
    """Minimum detectable length at ladder index k: dx0 / rho^k."""
    k = _check_k(k)
    if not dx0 > 0.0:
        raise ValueError("dx0 must be positive")
    if not rho > 1.0:
        raise ValueError("rho must be > 1")
    return _ladder(1 / Fraction(rho), DOWN.prec)(k).times(Bounded.of(Fraction(dx0))).settle()


def cell_count(spec: GeneratorSpec, k: int) -> int:
    """Exact number of generator cells at level k: N^k (Python integer)."""
    return spec.n ** _check_k(k)


def classify_ds(ds: float) -> str:
    """Map a similarity dimension to its bound regime.

    Equality with 1 and 2 is tested at absolute tolerance 1e-12 (D_s is
    usually a ratio of logs).
    """
    if ds < 1.0 - DS_EQUALITY_TOL:
        raise ValueError(f"ds must be >= 1, got {ds}")
    if abs(ds - 1.0) <= DS_EQUALITY_TOL:
        return REGIME_CLASSICAL
    if abs(ds - 2.0) <= DS_EQUALITY_TOL:
        return REGIME_CRITICAL
    return REGIME_SUB if ds < 2.0 else REGIME_SUPER


def regime_interval(ds: float, unit) -> RegimeBound:
    """The regime table, with endpoints in multiples of `unit`.

    super (D_s > 2):      unit < x < inf
    critical (D_s = 2):   unit <= x < 2 unit
    sub (1 < D_s < 2):    0 < x < 2 unit
    classical (D_s = 1):  x = 0
    `unit` may be a float, an int or an exact Fraction; the finite
    endpoints keep its type.  The lower bounds of the first two regimes assume k >= 1 and
    rho >= 2.
    """
    regime = classify_ds(ds)
    zero, full = 0 * unit, 2 * unit
    if regime == REGIME_SUPER:
        return RegimeBound(regime, unit, math.inf, True, True)
    if regime == REGIME_CRITICAL:
        return RegimeBound(regime, unit, full, False, True)
    if regime == REGIME_SUB:
        return RegimeBound(regime, zero, full, True, True)
    return RegimeBound(regime, zero, zero, False, False)


def scale_table(
    spec: GeneratorSpec, l0: float, dt: float, k_max: int
) -> list[ScaleRow]:
    """Rows for k = 0..k_max with every per-scale quantity filled in, each
    float correctly rounded from its exact closed form."""
    k_max = _check_k(k_max)
    if not l0 > 0.0:
        raise ValueError("l0 must be positive")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    length_at = ladders(spec)[1]
    x = Fraction(l0)
    per_l0, per_area, per_speed = (Bounded.of(c) for c in (x, x * x, x / Fraction(dt)))
    rows = []
    for k, res, area, g in gammas(spec, range(k_max + 1)):
        length = length_at(k)
        lk = length.times(per_l0)
        try:
            n_k = float(cell_count(spec, k))
        except OverflowError:  # N^k beyond float range; the ladder keeps going
            n_k = math.inf
        rows.append(ScaleRow(
            k=k, dx_k=res.times(per_l0).settle(), N_k=n_k, L_k=lk.settle(),
            A_k=area.times(per_area).settle(), v_k=length.times(per_speed).settle(),
            gamma=g.settle(), dA_k0=g.times(per_area).settle(), dL_k=lk.minus(per_l0).settle()))
    return rows
