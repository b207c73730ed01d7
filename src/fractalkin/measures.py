"""Closed-form multiscale measures of a self-similar trajectory.

Everything here is a pure function of (k, rho, N, L0, dt): the resolution
ladder, length/area at scale, the surface-change factor gamma, and the
similarity-dimension bound regimes.  Float results follow the stated
closed forms.  On the D_s = 2 line, 1 - rho^-k is not representable in
float64 once rho^-k drops below the epsilon of 1.0, so the strict bounds
are decided in exact arithmetic: `gamma_exact_critical` here, and
`kinematics.verify_bounds` for the products of any generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import GeneratorSpec

#: absolute tolerance used when classifying D_s as exactly 1 or 2
DS_EQUALITY_TOL = 1e-12

REGIME_SUPER = "super"
REGIME_CRITICAL = "critical"
REGIME_SUB = "sub"
REGIME_CLASSICAL = "classical"
REGIMES = (REGIME_SUPER, REGIME_CRITICAL, REGIME_SUB, REGIME_CLASSICAL)


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
    (dx_k * dL_k in length^2 units, or dx_k * dp_k in action units);
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


def _scaled_power(x: float, ratio: Fraction, k: int) -> float:
    """x * ratio^k, correctly rounded, for when the float power overflows.

    The result underflows toward 0.0 or, past float64, is math.inf.  The
    exact k-th power is formed only where log2 of the result lies within
    a unit of the float64 range; outside it the result is 0.0 or inf
    without that cost (thousands of digits at large k).
    """
    log2 = math.log2(x) + k * (math.log2(ratio.numerator) - math.log2(ratio.denominator))
    if log2 < -1076:  # below half the smallest subnormal, 2^-1075
        return 0.0
    if log2 > 1025:  # past the largest finite float, just under 2^1024
        return math.inf
    try:
        return float(Fraction(x) * ratio**k)
    except OverflowError:
        return math.inf


def _check_k(k) -> int:
    if isinstance(k, bool) or int(k) != k:
        raise ValueError("k must be an integer")
    k = int(k)
    if k < 0:
        raise ValueError("k must be >= 0")
    return k


def resolution(k: int, dx0: float, rho: float) -> float:
    """Minimum detectable length at ladder index k: dx0 / rho^k."""
    k = _check_k(k)
    if not dx0 > 0.0:
        raise ValueError("dx0 must be positive")
    if not rho > 1.0:
        raise ValueError("rho must be > 1")
    try:
        return dx0 / rho**k
    except OverflowError:  # rho^k past float64; the quotient underflows toward 0
        return _scaled_power(dx0, 1 / Fraction(rho), k)


def cell_count(spec: GeneratorSpec, k: int) -> int:
    """Exact number of generator cells at level k: N^k (Python integer)."""
    return spec.n ** _check_k(k)


def length_at_scale(k: int, spec: GeneratorSpec, l0: float) -> float:
    """Trajectory length as measured at scale k: L0 * (N/rho)^k.

    inf once the length passes the float64 range (peano from k = 647).
    """
    k = _check_k(k)
    try:
        return l0 * (spec.n / spec.rho) ** k
    except OverflowError:
        return _scaled_power(l0, spec.n / Fraction(spec.rho), k)


def velocity_at_scale(k: int, spec: GeneratorSpec, l0: float, dt: float) -> float:
    """Scale velocity: length at scale k over the traversal time."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    return length_at_scale(k, spec, l0) / dt


def area_at_scale(k: int, spec: GeneratorSpec, l0: float) -> float:
    """Area measure at scale k: L0^2 * rho^(k (D_s - 2)).

    Identically N^k * dx_k^2 and dx_k * L_k; the closed form is the
    implemented route, the identities are checked by the test suite.
    inf only once the area itself passes the float64 range (a super-regime
    generator at large k): where the power alone overflows, the product is
    formed in log space, so a small L0 can still give a finite area.
    """
    k = _check_k(k)
    e = k * (spec.ds - 2.0)
    try:
        return l0 * l0 * spec.rho**e
    except OverflowError:
        try:
            return math.exp(2.0 * math.log(l0) + e * math.log(spec.rho))
        except OverflowError:
            return math.inf


def gamma(k: int, rho: float, ds: float) -> float:
    """Surface-change factor rho^(k (D_s - 2)) - rho^-k.

    Exactly 0.0 for ds == 1 (both powers reduce to the same expression).
    For ds == 2 the true value 1 - rho^-k collapses to 1.0 in float64 once
    rho^-k < eps; `verify_bounds` decides the strict upper bound exactly.
    inf where rho^(k (D_s - 2)) passes the float64 range (ds > 2 at large
    k): rho^-k < 1 cannot bring the difference back into range.
    """
    k = _check_k(k)
    if not rho > 1.0:
        raise ValueError("rho must be > 1")
    if ds < 1.0 - 1e-12:
        raise ValueError("ds must be >= 1")
    try:
        return rho ** (k * (ds - 2.0)) - rho ** (-k)
    except OverflowError:
        return math.inf


def gamma_exact_critical(k: int, rho: float) -> Fraction:
    """Exact gamma on the D_s = 2 line, 1 - rho^-k, for any float rho > 1.

    Every float is a rational, so the strict bounds 1/2 <= gamma < 1 can
    be decided exactly even for non-integer rho.
    """
    k = _check_k(k)
    if not rho > 1.0:
        raise ValueError("rho must be > 1")
    return 1 - Fraction(rho) ** (-k)


def delta_area(k: int, spec: GeneratorSpec, l0: float) -> float:
    """Per-scale surface change dx_k * dL_k = L0^2 * gamma(k, rho, D_s).

    Where gamma is inf, L0^2 rho^-k lies far below the rounding of
    L0^2 rho^(k (D_s - 2)), so the change is the area measure itself.
    """
    g = gamma(k, spec.rho, spec.ds)
    if g == math.inf:
        return area_at_scale(k, spec, l0)
    return l0 * l0 * g


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


def regime_bounds(ds: float, l0: float) -> RegimeBound:
    """Bounds on dx_k * dL_k implied by the similarity dimension.

    The regime table with unit L0^2/2: for example L0^2/2 <= dx_k dL_k < L0^2
    on the D_s = 2 line.  With l0 = 1 these are the bounds on gamma.
    """
    if not l0 > 0.0:
        raise ValueError("l0 must be positive")
    return regime_interval(ds, 0.5 * l0 * l0)


def scale_table(
    spec: GeneratorSpec, l0: float, dt: float, k_max: int
) -> list[ScaleRow]:
    """Rows for k = 0..k_max with every per-scale quantity filled in."""
    k_max = _check_k(k_max)
    if not l0 > 0.0:
        raise ValueError("l0 must be positive")
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    rows = []
    for k in range(k_max + 1):
        lk = length_at_scale(k, spec, l0)
        try:
            n_k = float(cell_count(spec, k))
        except OverflowError:  # N^k beyond float range; the ladder keeps going
            n_k = math.inf
        rows.append(
            ScaleRow(
                k=k,
                dx_k=resolution(k, l0, spec.rho),
                N_k=n_k,
                L_k=lk,
                A_k=area_at_scale(k, spec, l0),
                v_k=lk / dt,
                gamma=gamma(k, spec.rho, spec.ds),
                dA_k0=delta_area(k, spec, l0),
                dL_k=lk - l0,
            )
        )
    return rows
