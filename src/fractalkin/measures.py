"""Closed-form multiscale measures of a self-similar trajectory.

Everything here is a pure function of (k, rho, N, L0, dt): the resolution
ladder, the scale table (length, area and the surface-change factor
gamma(k) = (N/rho^2)^k - rho^-k at every scale), and the
similarity-dimension bound regimes.  Every per-scale float, here or in
`kinematics`, is its exact closed form correctly rounded at one site
(`_settled`): it reads 60-digit decimal bounds off the `ladders` of the
three powers, and the exact rational (`_exact`) is formed only where the
bounds round to two floats.  gamma(k) is formed in `gammas` alone, which
yields it and its multiples as floats, and `_passes` decides exactly
whether it lies in the regime table; no decimal bound leaves this module.

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
from typing import Iterable, Iterator, Sequence

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
    float or a bound check."""
    if minus == plus:  # the classical line N = rho, where gamma(k) = 0
        return 0, 1
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
    gives +0.0); where they round to two, the exact value decides."""
    f = float(hi)
    if float(lo) == f:
        return f
    return _rounded(*_exact(k, c, plus, minus))


class Ladder:
    """Decimal bounds lo[k] <= ratio^k <= hi[k], each one rounded multiply
    from the bound at k - 1.  `ratio` is the (numerator, denominator) pair of
    `_exact`."""

    __slots__ = ("ratio", "lo", "hi")

    def __init__(self, ratio: Fraction) -> None:
        self.ratio = ratio.as_integer_ratio()
        self.lo, self.hi = [Decimal(1)], [Decimal(1)]

    def reach(self, k: int) -> None:
        """Extend both bound lists to index k."""
        lo, hi = self.lo, self.hi
        if len(lo) <= k:
            step_lo, step_hi = DOWN.divide(*self.ratio), UP.divide(*self.ratio)
            for _ in range(len(lo), k + 1):
                lo.append(DOWN.multiply(lo[-1], step_lo))
                hi.append(UP.multiply(hi[-1], step_hi))


@functools.lru_cache(maxsize=3)
def _ladder(ratio: Fraction, digits: int) -> Ladder:
    """One ladder per ratio and precision, every bound reached kept: the
    tables and bound checks of one generator walk each of its three powers
    once."""
    return Ladder(ratio)


def ladders(spec: GeneratorSpec) -> tuple[Ladder, Ladder, Ladder]:
    """The ladders of rho^-k, (N/rho)^k and (N/rho^2)^k: dx_k, L_k and A_k
    in units of L0 and L0^2."""
    rho = Fraction(spec.rho)
    return tuple(_ladder(x, DOWN.prec) for x in (1 / rho, spec.n / rho, spec.n / rho**2))


def _settled(
    ks: Sequence[int], c: Fraction | int, plus: Ladder, minus: Ladder | None = None
) -> Iterator[float]:
    """c (plus^k - minus^k), or c plus^k without `minus`, correctly rounded
    (`_settle`) for each k of `ks` (each an integer >= 0): the one place a
    closed-form float is formed.  The bounds are those of the ladders, less
    those of `minus`, times those of c, every lower bound rounded down and
    every upper bound up."""
    n, d = c.as_integer_ratio()
    c_lo, c_hi = DOWN.divide(n, d), UP.divide(n, d)
    top = max(ks, default=0)
    plus.reach(top)
    p_lo, p_hi, m_ratio = plus.lo, plus.hi, None
    if minus is not None:
        minus.reach(top)
        m_ratio = minus.ratio
        # one ladder on both sides (gamma(k) on the classical line N = rho) is 0
        # exactly: pairing each bound with itself makes the bounds on it 0 too
        m_lo, m_hi = (minus.lo, minus.hi) if minus is not plus else (p_hi, p_lo)
    mul_dn, mul_up, sub_dn, sub_up = DOWN.multiply, UP.multiply, DOWN.subtract, UP.subtract
    for k in ks:
        lo, hi = p_lo[k], p_hi[k]
        if minus is not None:
            lo, hi = sub_dn(lo, m_hi[k]), sub_up(hi, m_lo[k])
        yield _settle(mul_dn(lo, c_lo), mul_up(hi, c_hi), k, c, plus.ratio, m_ratio)


def gammas(
    spec: GeneratorSpec, ks: Iterable[int], cs: Iterable[Fraction | int]
) -> Iterator[tuple[int, list[float]]]:
    """(k, [c gamma(k) for c in cs]) for each k of `ks`, each value correctly
    rounded: the one place gamma(k) = (N/rho^2)^k - rho^-k, dA_k0 in units
    of L0^2, is formed.  Raises ValueError, as the tables do, on a k that is
    not an integer >= 0."""
    ks = [_check_k(k) for k in ks]
    res, _, area = ladders(spec)
    for k, *values in zip(ks, *[_settled(ks, c, area, res) for c in cs]):
        yield k, values


def _passes(spec: GeneratorSpec, ks: Sequence[int]) -> Iterator[bool]:
    """For each k of `ks` (each an integer >= 0), whether gamma(k) =
    area^k - res^k of the `ladders` lies in the regime table in units of
    1/2.  Settled from the bounds when, for each finite endpoint c, area^k - c
    lies strictly above or below res^k at both ends (bounds on gamma(k) itself
    would cancel to 1 on the D_s = 2 line), and from the exact gamma(k) where
    they admit gamma(k) = c."""
    ds = spec.ds
    table = regime_interval(ds, Decimal("0.5"))
    ends = tuple(c for c in (table.lower, table.upper) if c != math.inf)
    res, _, area = ladders(spec)
    top = max(ks, default=0)
    res.reach(top)
    area.reach(top)
    for k in ks:
        a_lo, a_hi, r_lo, r_hi = area.lo[k], area.hi[k], res.lo[k], res.hi[k]
        for inside_above, c in zip((True, False), ends):
            if DOWN.subtract(a_lo, c) > r_hi:
                above = True
            elif UP.subtract(a_hi, c) < r_lo:
                above = False
            else:
                n, d = _exact(k, 1, area.ratio, res.ratio)  # 2 n in the table in units of d
                yield regime_interval(ds, d).contains(2 * n)
                break
            if above != inside_above:
                yield False
                break
        else:
            yield True


def resolution(k: int, dx0: float, rho: float) -> float:
    """Minimum detectable length at ladder index k: dx0 / rho^k."""
    k = _check_k(k)
    if not dx0 > 0.0:
        raise ValueError("dx0 must be positive")
    if not rho > 1.0:
        raise ValueError("rho must be > 1")
    return next(_settled([k], Fraction(dx0), _ladder(1 / Fraction(rho), DOWN.prec)))


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
    ks = range(k_max + 1)
    res, length, area = ladders(spec)
    x = Fraction(l0)
    per_area, per_speed = x * x, x / Fraction(dt)
    one = Ladder(Fraction(1))  # 1^k: dL_k = L0 ((N/rho)^k - 1)
    columns = zip(_settled(ks, x, res), _settled(ks, x, length), _settled(ks, per_area, area),
                  _settled(ks, per_speed, length), gammas(spec, ks, (1, per_area)),
                  _settled(ks, x, length, one))
    n_k = 1.0
    rows = []
    for dx_k, l_k, a_k, v_k, (k, (gamma, da_k0)), dl_k in columns:
        if n_k < math.inf:
            try:
                n_k = float(cell_count(spec, k))
            except OverflowError:  # N^k beyond float range, and so every later power
                n_k = math.inf
        rows.append(ScaleRow(k=k, dx_k=dx_k, N_k=n_k, L_k=l_k, A_k=a_k, v_k=v_k, gamma=gamma,
                             dA_k0=da_k0, dL_k=dl_k))
    return rows
