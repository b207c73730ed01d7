"""Closed-form multiscale measures of a self-similar trajectory.

Everything here is a pure function of (k, rho, N, L0, dt): the resolution
ladder, the scale table (length, area and the surface-change factor
gamma(k) = (N/rho^2)^k - rho^-k at every scale), and the
similarity-dimension bound regimes, each decided exactly from N and rho
(`classify`).  Every per-scale float, here or in `kinematics`, is its
exact closed form correctly rounded at one site (`_settled`): a table
names all its terms at once, each distinct power among rho^-k, N^k,
(N/rho)^k, (N/rho^2)^k and 1^k is walked once as 60-digit decimal bounds
(`_bounds`), each term is settled from them (`_settle`), and the exact
rational (`_exact`) is formed only where the bounds round to two floats.
No decimal bound leaves this module, and none outlives the call that
formed it.  Whether gamma(k) lies in its regime table needs no bound at
all: it holds for every k >= `holds_from(spec)`, read from the closed
form once per generator.

The rows of an empirical measurement (`MeasurementRow`, `DimensionFit`,
`MeasurementResult`) are declared here too, and re-exported by
`estimator`, so that `serialize` reads them without loading numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, MIN_EMIN, ROUND_CEILING, ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .geometry import GeneratorSpec, _check_k, _check_positive

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
    (dx_k * dp_k in action units); strictness flags say whether each
    endpoint is excluded.  The classical regime degenerates to the single
    point 0.
    """

    regime: str
    lower: float
    upper: float  # math.inf for the unbounded super regime
    lower_strict: bool
    upper_strict: bool

    def __post_init__(self) -> None:
        if self.regime not in REGIMES:
            raise ValueError(f"unknown regime {self.regime!r}")


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


def _rounded(n: int, d: int) -> float:
    """n / d as the correctly rounded float64 (int / int is), inf past its range."""
    try:
        return n / d
    except OverflowError:
        return math.inf


def _exact(
    k: int, c: Fraction | int, plus: tuple[int, int], minus: tuple[int, int] | None = None
) -> tuple[int, int]:
    """c (plus^k - minus^k), or c plus^k without `minus`, for ratios given as
    (numerator, denominator) pairs, as an unreduced integer pair (numerator,
    denominator > 0).  The one place an exact value is formed: with thousands
    of digits at deep k, it is formed only where the bounds cannot settle a
    float (`_settle`)."""
    n, d = plus[0] ** k, plus[1] ** k
    if minus is not None:
        n2, d2 = minus[0] ** k, minus[1] ** k
        n, d = (n - n2, d) if d == d2 else (n * d2 - n2 * d, d * d2)
    return c.numerator * n, c.denominator * d


def _settle(
    lo: Decimal, hi: Decimal, k: int, c: Fraction | int,
    plus: tuple[int, int], minus: tuple[int, int] | None = None,
) -> float:
    """The correctly rounded float64, inf past its range, of the value
    c (plus^k - minus^k) >= 0 that lies in [lo, hi]: float() of a Decimal is
    correctly rounded and rounding is monotone, so bounds that round to one
    float settle it (-0.0 == 0.0 is no exception, as the value is >= 0 and hi
    gives +0.0); where they round to two, the exact value decides.  Past the
    float64 range every row shares the one math.inf, and below it one 0.0."""
    f = float(hi)
    if float(lo) == f:
        return f if 0.0 < f < math.inf else (math.inf if f else 0.0)
    return _rounded(*_exact(k, c, plus, minus))


def _power(step: tuple[Decimal, Decimal], e: int) -> tuple[Decimal, Decimal]:
    """Bounds (lo, hi) on ratio^e, for an integer e >= 0, from the bounds
    `step` > 0 on ratio: square and multiply, O(log e) rounded multiplies,
    each lower bound rounded down and each upper bound up."""
    lo = hi = Decimal(1)
    base_lo, base_hi = step
    while e:
        if e & 1:
            lo, hi = DOWN.multiply(lo, base_lo), UP.multiply(hi, base_hi)
        base_lo, base_hi = DOWN.multiply(base_lo, base_lo), UP.multiply(base_hi, base_hi)
        e >>= 1
    return lo, hi


def _bounds(ratio: tuple[int, int], ks: Iterable[int]) -> Iterator[tuple[Decimal, Decimal]]:
    """Bounds (lo, hi) on ratio^k, the ratio given as the (numerator,
    denominator) pair of `_exact`, for each k of `ks` (each an integer >= 0).
    Only the last bounds are kept: each k is reached from the one before,
    times the bounds on ratio^gap (`_power`, formed again only when the gap
    changes, so a run of consecutive k costs one rounded multiply a side),
    and from ratio^0 = 1 where k falls."""
    step = DOWN.divide(*ratio), UP.divide(*ratio)
    mul_dn, mul_up = DOWN.multiply, UP.multiply
    at, lo, hi, gap = 0, Decimal(1), Decimal(1), None
    for k in ks:
        if k < at:
            at, lo, hi = 0, Decimal(1), Decimal(1)
        if k - at != gap:
            gap = k - at
            gap_lo, gap_hi = _power(step, gap)
        at, lo, hi = k, mul_dn(lo, gap_lo), mul_up(hi, gap_hi)
        yield lo, hi


def ratios(spec: GeneratorSpec) -> tuple[tuple[int, int], tuple[int, int], tuple[int, int]]:
    """rho^-1, N/rho and N/rho^2 as (numerator, denominator) pairs: their
    k-th powers are dx_k, L_k and A_k in units of L0 and L0^2."""
    rho = Fraction(spec.rho)
    return tuple(x.as_integer_ratio() for x in (1 / rho, spec.n / rho, spec.n / rho**2))


def _settled(
    ks: Sequence[int],
    terms: Sequence[tuple[Fraction | int, tuple[int, int], tuple[int, int] | None]],
) -> Iterator[tuple[int, list[float]]]:
    """(k, values) for each k of `ks` (each an integer >= 0): the one place
    a closed-form float is formed.  A term (c, plus, minus) stands for
    c (plus^k - minus^k), or c plus^k where `minus` is None, the ratios given
    as (numerator, denominator) pairs, and `values` holds each term
    correctly rounded (`_settle`), in the order of `terms`.  Each distinct
    ratio is walked once (`_bounds`).  A term's bounds are those on plus^k,
    less those on minus^k, times those on c, every lower bound rounded down
    and every upper bound up; where minus is plus the term is 0 exactly."""
    powers = list(dict.fromkeys(r for _, *pair in terms for r in pair if r is not None))
    plan = []
    for c, plus, minus in terms:
        n, d = c.as_integer_ratio()
        j = None if minus in (None, plus) else powers.index(minus)
        plan.append((c, plus, minus, DOWN.divide(n, d), UP.divide(n, d), powers.index(plus), j))
    mul_dn, mul_up, sub_dn, sub_up = DOWN.multiply, UP.multiply, DOWN.subtract, UP.subtract
    zero = Decimal(0)
    for k, bounds in zip(ks, zip(*(_bounds(r, ks) for r in powers))):
        values = []
        for c, plus, minus, c_lo, c_hi, i, j in plan:
            lo, hi = bounds[i]
            if j is not None:
                m_lo, m_hi = bounds[j]
                lo, hi = sub_dn(lo, m_hi), sub_up(hi, m_lo)
            elif minus is not None:  # minus is plus
                lo = hi = zero
            values.append(_settle(mul_dn(lo, c_lo), mul_up(hi, c_hi), k, c, plus, minus))
        yield k, values


def resolution(k: int, dx0: float, rho: float) -> float:
    """Minimum detectable length at ladder index k: dx0 / rho^k."""
    k = _check_k(k)
    dx0 = _check_positive("dx0", dx0)  # +inf has no exact ratio
    if not 1.0 < rho < math.inf:  # the one check of a ladder's rho
        raise ValueError(f"rho must be > 1 and finite, got {rho}")
    step = (1 / Fraction(rho)).as_integer_ratio()
    ((_, (dx,)),) = _settled([k], [(Fraction(dx0), step, None)])
    return dx


def classify(spec: GeneratorSpec) -> str:
    """The bound regime of a generator, decided exactly from N and rho read
    as its exact Fraction (as `ratios` reads it), never from the float D_s:
    classical where N = rho (D_s = 1), critical where N = rho^2 (D_s = 2),
    and sub or super where N lies below or above rho^2."""
    rho, n = Fraction(spec.rho), spec.n
    if n == rho:
        return REGIME_CLASSICAL
    if n == rho * rho:
        return REGIME_CRITICAL
    return REGIME_SUB if n < rho * rho else REGIME_SUPER


def regime_interval(regime: str, unit) -> RegimeBound:
    """The table of a regime as `classify` decides it, endpoints in multiples of `unit`.

    super (N > rho^2):        unit < x < inf
    critical (N = rho^2):     unit <= x < 2 unit
    sub (rho < N < rho^2):    0 < x < 2 unit
    classical (N = rho):      x = 0
    `unit` may be a float, an int or an exact Fraction; the finite
    endpoints keep its type.  gamma(k) lies in the table in units of 1/2
    for every k >= `holds_from(spec)`.  Any other `regime` raises ValueError.
    """
    zero, full = 0 * unit, 2 * unit
    if regime == REGIME_SUPER:
        return RegimeBound(regime, unit, math.inf, True, True)
    if regime == REGIME_CRITICAL:
        return RegimeBound(regime, unit, full, False, True)
    if regime == REGIME_SUB:
        return RegimeBound(regime, zero, full, True, True)
    return RegimeBound(regime, zero, zero, False, False)


def holds_from(spec: GeneratorSpec) -> int:
    """k0, the first k >= 1 at which gamma(k) lies in the table of its
    regime (`regime_interval`) in units of 1/2; it lies there at every
    k >= k0, so no row needs a decision of its own.

    With a = N/rho^2 and b = 1/rho < 1, gamma(k) = a^k - b^k:
    - classical (N = rho): a = b, so gamma(k) = 0 at every k.
    - sub (rho < N < rho^2): b < a < 1, so 0 < gamma(k) < a^k < 1.
    - critical (N = rho^2): rho is a rational whose square is an integer,
      so an integer >= 2, and gamma(k) = 1 - rho^-k lies in [1/2, 1).
    - super (N > rho^2): a > 1 > b, so gamma(k) strictly increases.  With
      x = rho^-2 in (1/N, 1), gamma(2) = x (N^2 x - 1) > (N - 1)/N >= 1/2,
      so every k >= 2 holds, and k = 1 holds iff gamma(1) = N/rho^2 - 1/rho
      > 1/2, that is iff 2 (N - rho) > rho^2.
    So k0 is 2 for a super generator with 2 (N - rho) <= rho^2, which needs
    rho < 2 and N <= 3, and 1 for every other; decided once, in exact
    Fractions, with no search over k.
    """
    rho = Fraction(spec.rho)
    return 2 if classify(spec) == REGIME_SUPER and 2 * (spec.n - rho) <= rho * rho else 1


def scale_table(
    spec: GeneratorSpec, l0: float, dt: float, k_max: int
) -> list[ScaleRow]:
    """Rows for k = 0..k_max with every per-scale quantity filled in, each
    float correctly rounded from its exact closed form, N_k = N^k inf past
    the float64 range: one `_settled` pass over the fields of `ScaleRow`."""
    k_max = _check_k(k_max)
    x = Fraction(_check_positive("l0", l0))
    per_area, per_speed = x * x, x / Fraction(_check_positive("dt", dt))
    res, length, area = ratios(spec)
    # in ScaleRow's field order; dL_k = L0 ((N/rho)^k - 1^k)
    terms = [(x, res, None), (1, (spec.n, 1), None), (x, length, None), (per_area, area, None),
             (per_speed, length, None), (1, area, res), (per_area, area, res),
             (x, length, (1, 1))]
    return [ScaleRow(k, *values) for k, values in _settled(range(k_max + 1), terms)]
