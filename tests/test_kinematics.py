import hashlib
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from fractalkin import kinematics, measures, serialize
from fractalkin.geometry import GeneratorSpec, base_segment, builtin, integer_generator, refine
from fractalkin.kinematics import (
    ParticleContext,
    classify_regime,
    uncertainty_table,
    verify_bounds,
)
from fractalkin.measures import classify, resolution, scale_table

UNIT_CTX = ParticleContext(m=1.0, dt=1.0, L0=1.0)
C06_CTX = ParticleContext(m=1.7, dt=0.9, L0=1.3)
CESARO85_RHO = builtin("cesaro", angle_deg=85.0).rho


def regime_oracle(spec: GeneratorSpec) -> str:
    """The regime from N against the exact rho and rho^2 in Fraction arithmetic."""
    rho = Fraction(spec.rho)
    if spec.n == rho:
        return "classical"
    return {-1: "sub", 0: "critical", 1: "super"}[(spec.n > rho**2) - (spec.n < rho**2)]


def bounds_oracle(spec: GeneratorSpec, ctx: ParticleContext, k: int) -> tuple[Fraction, bool]:
    """The product 2 eta0 gamma(k) at scale k in Fraction arithmetic, and
    whether it satisfies the regime inequality, each regime written out."""
    rho, eta0 = Fraction(spec.rho), ctx.eta0_exact()
    p = 2 * eta0 * (Fraction(spec.n) ** k / rho ** (2 * k) - rho**-k)
    passed = {
        "super": eta0 < p,
        "critical": eta0 <= p < 2 * eta0,
        "sub": 0 < p < 2 * eta0,
        "classical": p == 0,
    }[regime_oracle(spec)]
    return p, passed


def oracle_float(p: Fraction) -> float:
    """float(p), or inf where p is past the float64 range."""
    try:
        return float(p)
    except OverflowError:
        return math.inf


def spec_for(rho: float, n: int) -> GeneratorSpec:
    """A generator with scale factor rho and N = n unit displacements: pairs
    at +-theta, plus one along the axis when n is odd."""
    head = [[1.0, 0.0]] if n % 2 else []
    c = (rho - len(head)) / (n - len(head))
    s = math.sqrt(1.0 - c * c)
    disp = head + [[c, s], [c, -s]] * (n // 2)
    return GeneratorSpec(f"rho{rho!r}-n{n}", rho, np.array(disp))


TABLE_SPECS = {
    "line": builtin("line"),
    "koch": builtin("koch"),
    "peano": builtin("peano"),
    "cesaro-85": builtin("cesaro", angle_deg=85.0),
    "cesaro-30": builtin("cesaro", angle_deg=30.0),
    "super-2-5": spec_for(2.0, 5),
}


def test_context_derived_quantities():
    ctx = ParticleContext(m=2.0, dt=4.0, L0=8.0)
    assert ctx.V0 == 2.0
    assert ctx.E0 == 4.0
    assert ctx.eta0 == 16.0
    assert ctx.eta0 == pytest.approx(ctx.m * ctx.L0**2 / (2 * ctx.dt), rel=1e-12)
    assert ctx.eta0_exact() == Fraction(16)


# inf passed the positivity check, then eta0_exact raised OverflowError
@pytest.mark.parametrize("bad", [dict(m=0), dict(dt=-1), dict(L0=0),
                                 dict(m=math.inf), dict(dt=math.inf), dict(L0=math.inf)])
def test_context_validation(bad):
    kwargs = dict(m=1.0, dt=1.0, L0=1.0)
    kwargs.update(bad)
    ((label, value),) = bad.items()
    with pytest.raises(ValueError, match=f"^{label} must be positive and finite, got {value}$"):
        ParticleContext(**kwargs)


@pytest.mark.parametrize("kwargs", [dict(L0=1e-200), dict(m=1e-300, L0=1e-20), dict(dt=1e300, L0=1e-20)])
def test_context_rejects_eta0_underflow(kwargs):
    # eta0 = 0.0 collapses every regime interval to the point 0
    with pytest.raises(ValueError, match="too small"):
        ParticleContext(**{**dict(m=1.0, dt=1.0, L0=1.0), **kwargs})
    assert ParticleContext(m=1.0, dt=1.0, L0=1e-150).eta0 > 0.0


@pytest.mark.parametrize("kwargs,eta0", [
    (dict(m=1e-320, dt=1e100, L0=1e90), 4.9999443359134144e-241),
    (dict(m=1e-300, dt=1e100, L0=1e90), 5e-221),
])
def test_context_judges_the_exact_eta0(kwargs, eta0):
    # a chain of float products underflowed here, though eta0 is a normal float
    assert ParticleContext(**kwargs).eta0 == eta0


def test_context_refuses_any_scale_past_float64():
    # eta0 = 5e299 fits, E0 = eta0 / dt does not
    with pytest.raises(ValueError, match="too large"):
        ParticleContext(m=1.0, dt=1e-300, L0=1.0)


@pytest.mark.parametrize("dt,refused", [(1.0 + 2.0**-51, False), (1.0 + 2.0**-52, True)])
def test_context_judges_the_exact_critical_upper_end(dt, refused):
    # the D_s = 2 regime ends at 2 eta0 = m L0^2 / dt, which rounds past
    # float64 from the midpoint between the largest float64 and 2**1024 on.
    # Here it lies a hair above the largest float64 (kept, rounding to it)
    # or past that midpoint (refused), while eta0, E0 and V0 all fit
    m, l0 = sys.float_info.max, 1.0 + 2.0**-52
    exact = Fraction(m) * Fraction(l0) ** 2 / Fraction(dt)
    assert (exact >= 2**1024 - 2**970) == refused
    if refused:
        with pytest.raises(ValueError, match="2 eta0 = m L0\\^2 / dt, .* too large"):
            ParticleContext(m=m, dt=dt, L0=l0)
    else:
        assert 2.0 * ParticleContext(m=m, dt=dt, L0=l0).eta0 == m


#: m, dt and L0 each take one of these values: 1,728 contexts
CONTEXT_GRID = (0.1, 0.3, 0.5, 0.7, 0.9, 1.1, 1.3, 1.7, 2.3, 3.1, 4.9, 7.7)


def test_context_scales_and_bounds_share_one_eta0():
    peano = builtin("peano")
    assert C06_CTX.E0 == 1.7734567901234568  # m V0^2 / 2 in floats gives ...566
    for m, dt, l0 in itertools.product(CONTEXT_GRID, repeat=3):
        ctx = ParticleContext(m=m, dt=dt, L0=l0)
        x = Fraction(l0) / Fraction(dt)
        assert (ctx.V0, ctx.E0, ctx.eta0) == (
            float(x), float(Fraction(m) * x * x / 2), float(ctx.eta0_exact())), ctx
        # on the D_s = 2 line eta0 <= product < 2 eta0, so no row rounds outside
        report = verify_bounds(peano, ctx, range(1, 80))
        assert report.eta0 == ctx.eta0
        assert all(row.lower <= row.product <= row.upper for row in report.rows), ctx


@settings(deadline=None, max_examples=120)
@given(
    name=st.sampled_from(sorted(TABLE_SPECS)),
    m=st.floats(0.1, 10.0),
    dt=st.floats(0.1, 10.0),
    # eta0 subnormal (from 0 or a few ulps up) or normal
    l0=st.one_of(st.floats(1e-162, 2e-154), st.floats(0.01, 100.0)),
    k_max=st.integers(1, 60),
)
@example(name="peano", m=1.0, dt=1.0, l0=5.8e-162, k_max=5)
def test_passing_rows_lie_inside_their_bounds(name, m, dt, l0, k_max):
    # lower and upper are the correctly rounded eta0 and 2 eta0, so rounding,
    # being monotone, keeps every passing product inside them, subnormal
    # eta0 included
    try:
        ctx = ParticleContext(m=m, dt=dt, L0=l0)
    except ValueError:  # eta0 rounds to 0
        assume(False)
    spec, eta0 = TABLE_SPECS[name], ctx.eta0_exact()
    ends = {"super": (eta0, math.inf), "critical": (eta0, 2 * eta0),
            "sub": (0, 2 * eta0), "classical": (0, 0)}[regime_oracle(spec)]
    bound = classify_regime(spec, ctx)
    assert (bound.lower, bound.upper) == tuple(map(oracle_float, ends))
    for row in verify_bounds(spec, ctx, range(1, k_max + 1)).rows:
        assert (row.lower, row.upper) == (bound.lower, bound.upper)
        if row.passed:
            assert row.lower <= row.product <= row.upper, (name, row)


def test_areolar_velocity_examples():
    line, koch = builtin("line"), builtin("koch")
    for row in uncertainty_table(line, UNIT_CTX, 14):
        assert row.dV_k == 0.0
    # oracle: dA_k0 at k = 1 is (1/3)(4/3 - 1) = 1/9, divided by dt
    assert uncertainty_table(koch, UNIT_CTX, 1)[1].dV_k == pytest.approx(1 / 9, rel=1e-12)
    ctx3 = ParticleContext(m=1.0, dt=3.0, L0=1.0)
    assert uncertainty_table(koch, ctx3, 1)[1].dV_k == pytest.approx(1 / 27, rel=1e-12)


def test_uncertainty_product_examples():
    line, koch, peano = builtin("line"), builtin("koch"), builtin("peano")
    for row in uncertainty_table(line, UNIT_CTX, 9):
        assert row.dP_k == 0.0
    # peano k=1: 2 * (1/2) * (2/3), inside [eta0, 2 eta0) = [1/2, 1)
    p = uncertainty_table(peano, UNIT_CTX, 1)[1].dP_k
    assert p == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert 0.5 <= p < 1.0
    # koch k=1 oracle from the refined polyline: m dx_1 (L_1 - L_0) / dt
    poly = refine(base_segment(1.0), koch, 1)
    oracle = 1.0 * (1.0 / 3.0) * (poly.arc_length() - 1.0) / 1.0
    assert uncertainty_table(koch, UNIT_CTX, 1)[1].dP_k == pytest.approx(oracle, rel=1e-12)


def test_dual_route_identity():
    # (a) m dx_k dL_k / dt from the scale table's dx_k and L_k vs (b) the
    # uncertainty table's 2 eta0 gamma(k)
    specs = [builtin(n) for n in ("line", "koch", "peano")]
    specs += [builtin("cesaro", angle_deg=a) for a in (30.0, 60.0, 85.0)]
    ctx = ParticleContext(m=1.3, dt=0.7, L0=2.1)
    for spec in specs:
        scale, unc = scale_table(spec, ctx.L0, ctx.dt, 40), uncertainty_table(spec, ctx, 40)
        for k in range(41):
            dl = scale[k].L_k - ctx.L0
            route_a = ctx.m * scale[k].dx_k * dl / ctx.dt
            route_b = unc[k].dP_k
            if route_a == 0.0:
                assert route_b == 0.0
            else:
                assert route_b == pytest.approx(route_a, rel=1e-12), (spec.name, k)


@settings(max_examples=40)
@given(
    alpha=st.floats(min_value=0.1, max_value=10.0),
    beta=st.floats(min_value=0.1, max_value=10.0),
    k=st.integers(min_value=0, max_value=30),
)
def test_scale_invariance_of_products(alpha, beta, k):
    # rescale (m, dt, L0) holding eta0 fixed: products must not move
    koch = builtin("koch")
    base = ParticleContext(m=1.0, dt=1.0, L0=1.0)
    scaled = ParticleContext(
        m=alpha, dt=beta, L0=math.sqrt(beta / alpha)
    )
    assert scaled.eta0 == pytest.approx(base.eta0, rel=1e-12)
    p0 = uncertainty_table(koch, base, k)[k].dP_k
    p1 = uncertainty_table(koch, scaled, k)[k].dP_k
    if p0 == 0.0:
        assert p1 == 0.0
    else:
        assert p1 == pytest.approx(p0, rel=1e-12)


def test_classify_regime_examples():
    bound = classify_regime(builtin("peano"), UNIT_CTX)
    assert (bound.regime, bound.lower, bound.upper) == ("critical", 0.5, 1.0)
    assert not bound.lower_strict and bound.upper_strict

    zero = classify_regime(builtin("line"), UNIT_CTX)
    assert (zero.regime, zero.lower, zero.upper) == ("classical", 0.0, 0.0)

    ctx_eta1 = ParticleContext(m=2.0, dt=1.0, L0=1.0)  # eta0 = 1
    sup = classify_regime(integer_generator(5, 2), ctx_eta1)
    assert sup.regime == "super"
    assert sup.lower == 1.0 and math.isinf(sup.upper) and sup.lower_strict

    sub = classify_regime(builtin("koch"), UNIT_CTX)
    assert (sub.regime, sub.lower, sub.upper) == ("sub", 0.0, 1.0)


def test_verify_bounds_builtins():
    for name in ("koch", "peano", "line"):
        report = verify_bounds(builtin(name), UNIT_CTX, range(1, 31))
        assert report.all_passed, name
        assert report.k_min == 1
        assert report.rho_ge_2
        assert len(report.rows) == 30
    line_report = verify_bounds(builtin("line"), UNIT_CTX, range(1, 31))
    assert all(row.product == 0.0 for row in line_report.rows)
    koch_report = verify_bounds(builtin("koch"), UNIT_CTX, range(1, 31))
    assert all(0.0 < row.product < 2 * UNIT_CTX.eta0 for row in koch_report.rows)
    peano_report = verify_bounds(builtin("peano"), UNIT_CTX, range(1, 31))
    assert all(UNIT_CTX.eta0 <= row.product for row in peano_report.rows)


def test_verify_bounds_float_route_for_cesaro():
    # cesaro's rho is not an integer; it is decided exactly all the same
    spec = builtin("cesaro", angle_deg=70.0)
    report = verify_bounds(spec, UNIT_CTX, range(1, 31))
    assert report.all_passed
    for row in report.rows:
        p, passed = bounds_oracle(spec, UNIT_CTX, row.k)
        assert (row.product, row.passed) == (float(p), passed)


@st.composite
def rho_and_n(draw):
    """(rho, N) over all four regimes, with the exact classical (N = rho)
    and critical (N = rho^2) cases drawn often."""
    rho = draw(st.one_of(st.sampled_from([2.0, 3.0]),
                         st.floats(1.0, 10.0, exclude_min=True)))
    lo = max(2, math.ceil(rho))
    n = draw(st.one_of(st.sampled_from([lo, max(lo, round(rho * rho))]),
                       st.integers(lo, 120)))
    return rho, n


@settings(deadline=None, max_examples=150)
@given(
    rn=rho_and_n(),
    ks=st.lists(st.integers(1, 400), min_size=1, max_size=6),
    ctx=st.sampled_from([UNIT_CTX, C06_CTX]),
)
# every regime at deep k: classical N = rho, sub, critical rho^2 = N, super
@example(rn=(2.0, 2), ks=list(range(1, 400, 7)), ctx=C06_CTX)
@example(rn=(3.0, 4), ks=list(range(1, 400, 7)), ctx=C06_CTX)
@example(rn=(2.0, 4), ks=list(range(1, 400, 7)), ctx=C06_CTX)
@example(rn=(3.0, 9), ks=list(range(1, 400, 7)), ctx=C06_CTX)
@example(rn=(2.0, 5), ks=list(range(1, 400, 7)), ctx=C06_CTX)
# deep k, where the decimal bounds carry thousands of roundings: cesaro-85
# (a 49-bit numerator in rho) and the super 2/5 spec past float64
@example(rn=(CESARO85_RHO, 4), ks=list(range(2990, 3001)), ctx=C06_CTX)
@example(rn=(2.0, 5), ks=list(range(3180, 3191)), ctx=C06_CTX)
# rho = sqrt(N) in float64 has D_s within 1e-12 of 2, but N != rho^2: the
# product leaves [eta0, 2 eta0) between k = 10 and k = 100 for N = 6 and 12,
# so these are sub or super, never critical
@example(rn=(math.sqrt(5), 5), ks=[1, 10, 100, 1000, 3000], ctx=C06_CTX)
@example(rn=(math.sqrt(6), 6), ks=[1, 10, 100, 1000, 3000], ctx=C06_CTX)
@example(rn=(math.sqrt(12), 12), ks=[1, 10, 100, 1000, 3000], ctx=C06_CTX)
# super with rho < 2, where row k = 1 fails: 2 (N - rho) <= rho^2
@example(rn=(1.3, 2), ks=[1, 2, 3, 100], ctx=C06_CTX)
@example(rn=(1.7, 3), ks=[1, 2, 3, 100], ctx=UNIT_CTX)
# rho just below sqrt(2N + 1) - 1, where row k = 1 passes by a hair
@example(rn=(math.nextafter(math.sqrt(5) - 1, 0), 2), ks=[1, 2, 1000], ctx=C06_CTX)
@example(rn=(math.nextafter(math.sqrt(7) - 1, 0), 3), ks=[1, 2, 1000], ctx=UNIT_CTX)
# rho just below sqrt(N), where a = N/rho^2 -> 1+ and gamma(2) -> (N - 1)/N
@example(rn=(math.nextafter(math.sqrt(2), 0), 2), ks=[1, 2, 3, 1000], ctx=UNIT_CTX)
@example(rn=(math.nextafter(math.sqrt(3), 0), 3), ks=[1, 2, 3, 1000], ctx=C06_CTX)
def test_verify_bounds_matches_fraction_oracle(rn, ks, ctx):
    spec = spec_for(*rn)
    report = verify_bounds(spec, ctx, ks)
    assert [row.k for row in report.rows] == sorted(set(ks))
    for row in report.rows:
        p, passed = bounds_oracle(spec, ctx, row.k)
        assert row.passed == passed, (spec.name, row.k)
        assert row.product == oracle_float(p), (spec.name, row.k)


@st.composite
def near_k1_edges(draw):
    """(rho, N) within a few million ulps of a super generator's k = 1
    edges, for N = 2 and 3, the only N at which row k = 1 can fail: rho
    near sqrt(2N + 1) - 1, where row k = 1 starts to pass, and near
    sqrt(N), where a = N/rho^2 -> 1+."""
    n = draw(st.sampled_from([2, 3]))
    edge = draw(st.sampled_from([math.sqrt(2 * n + 1) - 1, math.sqrt(n)]))
    return edge + draw(st.integers(-2**22, 2**22)) * math.ulp(edge), n


@settings(deadline=None, max_examples=150)
@given(rn=st.one_of(rho_and_n(), near_k1_edges()))
@example(rn=(1.3, 2))
@example(rn=(2.0, 5))
def test_holds_from_is_the_first_k_the_oracle_passes(rn):
    spec = spec_for(*rn)
    first = next(k for k in range(1, 10) if bounds_oracle(spec, UNIT_CTX, k)[1])
    assert measures.holds_from(spec) == first, spec.name
    assert all(bounds_oracle(spec, UNIT_CTX, k)[1] for k in range(first, first + 3))


@st.composite
def integer_pair(draw):
    """(N, rho) with integers rho = 2..10 and N = rho..rho^3, the regime
    edges N = rho, rho^2 and their neighbours drawn often."""
    rho = draw(st.integers(2, 10))
    edges = [rho, rho + 1, rho * rho - 1, rho * rho, rho * rho + 1, rho**3]
    return draw(st.one_of(st.sampled_from(edges), st.integers(rho, rho**3))), rho


def cesaro(angle: float) -> GeneratorSpec:
    return builtin("cesaro", angle_deg=angle)


@settings(deadline=None, max_examples=120)
@given(spec=st.one_of(
    # D_s within about 1e-6 of 1 (rho = 4.0 exactly below about 1e-6 degrees)
    st.floats(0.0, 1e-3, exclude_min=True).map(cesaro),
    # D_s within about 1e-10 of 2, N = 4 < rho^2 at every angle below 90
    st.floats(90.0 - 1e-9, 90.0, exclude_max=True).map(cesaro),
    integer_pair().map(lambda pair: integer_generator(*pair)),
))
@example(spec=cesaro(1e-4))
@example(spec=cesaro(1e-5))
@example(spec=cesaro(89.99999999999))
@example(spec=cesaro(89.99999999999999))
@example(spec=cesaro(1e-300))
def test_regime_and_bounds_match_the_fraction_oracle_near_the_lines(spec):
    # a tolerance of 1e-12 on D_s called the angles nearest 0 classical and
    # those nearest 90 critical, and their bounds rows failed
    ks = range(1, 51)
    assert classify(spec) == classify_regime(spec, UNIT_CTX).regime == regime_oracle(spec)
    assert {row.regime for row in uncertainty_table(spec, UNIT_CTX, 3)} == {regime_oracle(spec)}
    report = verify_bounds(spec, UNIT_CTX, ks)
    assert report.all_passed == all(bounds_oracle(spec, UNIT_CTX, k)[1] for k in ks)
    assert report.all_passed, spec.name


# the float gamma of a continuous D_s underflowed to 0.0 from k = 360 and
# read as a violation of the sub regime; these k reach past that
DEEP_KS = [1, 2, 50, 359, 360, 361, 480, 599, 600]


@settings(deadline=None, max_examples=80)
@given(pair=integer_pair(), ks=st.lists(st.integers(1, 600), max_size=3),
       ctx=st.sampled_from([UNIT_CTX, C06_CTX]))
@example(pair=(11, 10), ks=[], ctx=UNIT_CTX)  # D_s ~ 1.04, the sub edge
@example(pair=(3, 2), ks=[], ctx=C06_CTX)
@example(pair=(100, 10), ks=[], ctx=C06_CTX)
def test_integer_generator_realises_every_pair(pair, ks, ctx):
    n, rho = pair
    spec = integer_generator(n, rho)
    assert (spec.n, spec.rho) == (n, rho)
    regime = classify(spec)
    assert (regime == "classical") == (n == rho)
    assert (regime == "critical") == (n == rho * rho)
    report = verify_bounds(spec, ctx, DEEP_KS + ks)
    assert [row.k for row in report.rows] == sorted(set(DEEP_KS + ks))
    for row in report.rows:
        p, passed = bounds_oracle(spec, ctx, row.k)
        assert (row.product, row.passed) == (oracle_float(p), passed), (spec.name, row.k)
        assert passed, (spec.name, row.k)


#: sha256 of the bounds rows over k = 1..3000, generator by generator
ROW_PINS = {
    ("line", "unit"): "e23d91f824c755e3b733b155cb6df9c0044dd8ccb2ace0140b4d6124e237544d",
    ("line", "c06"): "e23d91f824c755e3b733b155cb6df9c0044dd8ccb2ace0140b4d6124e237544d",
    ("koch", "unit"): "4909820e8a168a22c0ad5cd70c42dc8ea720671deebb9530f30b940af91767e9",
    ("koch", "c06"): "50d7d1e76bfda9db941c47ce6014d1039ab754fa32bd6737d0ba1b85cdd758ad",
    ("peano", "unit"): "00e532564a808e9a385e4138774016a6281d09fa9e1f5c27711f9980344e4825",
    ("peano", "c06"): "1ddac26247b9c5d639769a40c30580ab3cbbcf94429a432e5d3d8226f60bb94d",
    ("super-2-5", "unit"): "a8df1f032ace31300cdd9f4782b68ceb5d90ed5ada6a7fa4a430415b9b2109db",
    ("super-2-5", "c06"): "d86b6df931161bdce7a20ad5077d73fc321fb33961e1b7d86aa9ab488c32d1ed",
    ("cesaro-85", "unit"): "9dd77ab24a439c71ee6b4acbdab049856cfe13da165669ee26d2778732562e1c",
    ("cesaro-85", "c06"): "14b095f996b1e2fcee8b37ab4acfad058eb230b5be9b8d63d1956d96bba6e876",
}
PIN_CONTEXTS = {"unit": UNIT_CTX, "c06": C06_CTX}


@pytest.mark.parametrize("name,ctx_name", sorted(ROW_PINS),
                         ids=[f"{name}-{ctx}" for name, ctx in sorted(ROW_PINS)])
def test_verify_bounds_rows_pinned_to_k3000(name, ctx_name):
    # the bytes of every row over k = 1..3000, deep in each regime (cesaro-85
    # has a 49-bit numerator in rho, super-2-5 passes float64 at k = 3181);
    # only the rows are hashed, since ds comes from libm
    report = verify_bounds(TABLE_SPECS[name], PIN_CONTEXTS[ctx_name], range(1, 3001))
    rows = serialize.bounds_report_to_dict(report)["rows"]
    digest = hashlib.sha256(serialize.json_text(rows).encode()).hexdigest()
    assert digest == ROW_PINS[name, ctx_name]


#: sha256 of the scale and uncertainty rows over k = 0..2000 in context c06
TABLE_PINS = {
    "line": ("6d15a446ada822a24d0f148f9edae37b447700e7d13c6e2ec7f7ef50b56dd88d",
             "2cede3b07236fbae9a4edb462ab9cc8d340e333cd473834fd36d96a3b8d228c9"),
    "koch": ("61b5651ee2ddc81c82153e42242d20df57e9f20e66e08080bbedae77793942dd",
             "a639d063758a4deda10d1b8bcc44e0c16b26a4178247e8354f77e6113b10a0ce"),
    "peano": ("478edb6326fa34e20f057a5d2dd1b155433973f6ee9cd6fd4ec36d48127fc3a0",
              "e1861d69be4a6e763774c5d1423dc9b677fc1f23f50b64f4fc31e5d9363aadab"),
    "cesaro-85": ("d3d94b51c3473b6c9ec68e16ca92af91f2f01ea127c04070259dce0029a1f733",
                  "57fb7ff9b52c3719890b70aa7b28a9752c09d6322545af7d1dba9f2392be833d"),
}


@pytest.mark.parametrize("name", sorted(TABLE_PINS))
def test_table_rows_pinned_to_k2000(name):
    # the bytes of both tables past the float64 range of rho^k (from k = 647
    # at rho = 3), where dx_k underflows toward 0 and peano's L_k is null
    spec, ctx = TABLE_SPECS[name], C06_CTX
    bundle = serialize.analysis_to_dict(
        spec, ctx, classify_regime(spec, ctx), scale_table(spec, ctx.L0, ctx.dt, 2000),
        uncertainty_table(spec, ctx, 2000), None)
    digests = tuple(hashlib.sha256(serialize.json_text(bundle[key]).encode()).hexdigest()
                    for key in ("scales", "uncertainty"))
    assert digests == TABLE_PINS[name]


def test_verify_bounds_cesaro30_at_deep_k():
    # 1 - rho^-k was 1.0 in float64 and read as violations from k = 598
    report = verify_bounds(builtin("cesaro", angle_deg=30.0), UNIT_CTX, range(590, 611))
    assert report.all_passed


def test_verify_bounds_rejects_k0():
    with pytest.raises(ValueError):
        verify_bounds(builtin("koch"), UNIT_CTX, range(0, 5))
    with pytest.raises(ValueError):
        verify_bounds(builtin("koch"), UNIT_CTX, [])


def test_verify_bounds_rejects_fractional_k():
    # int() used to truncate them: [1.5, 2.9] reported k = 1, 2
    with pytest.raises(ValueError, match="integer"):
        verify_bounds(builtin("koch"), UNIT_CTX, [1.5, 2.9])
    with pytest.raises(ValueError):
        verify_bounds(builtin("koch"), UNIT_CTX, [-1, 2])
    report = verify_bounds(builtin("koch"), UNIT_CTX, [1.0, np.int64(2)])
    assert [row.k for row in report.rows] == [1, 2]


@pytest.mark.parametrize("k_max", [-1, 2.5, True])
def test_uncertainty_table_rejects_bad_k_max(k_max):
    # -1 gave [] and 2.5 gave rows k = 0..2, where scale_table refuses both
    with pytest.raises(ValueError):
        uncertainty_table(builtin("koch"), UNIT_CTX, k_max)
    with pytest.raises(ValueError):
        scale_table(builtin("koch"), 1.0, 1.0, k_max)


def test_critical_products_increase_below_2eta0():
    # exact products: strictly increasing in k and < 2 eta0 for all k <= 50,
    # and every row passes, although in float64 the product saturates at
    # exactly 2 eta0 near k ~ 34
    peano = builtin("peano")
    report = verify_bounds(peano, UNIT_CTX, range(1, 51))
    assert report.all_passed
    two_eta0 = 2 * UNIT_CTX.eta0_exact()
    prev = None
    for row in report.rows:
        p, passed = bounds_oracle(peano, UNIT_CTX, row.k)
        assert passed and p < two_eta0
        assert row.product == float(p)
        if prev is not None:
            assert p > prev
        prev = p
    assert report.rows[-1].product == 2 * UNIT_CTX.eta0  # the float saturation
    assert uncertainty_table(peano, UNIT_CTX, 50)[50].dP_k == 2 * UNIT_CTX.eta0


def test_critical_lower_bound_attained_at_rho2_k1():
    # rho = 2, N = 4: gamma(1) = 1/2 exactly, so the product equals eta0 on the nose
    spec = integer_generator(4, 2)
    assert spec.ds == pytest.approx(2.0, abs=1e-12)
    assert scale_table(spec, 1.0, 1.0, 1)[1].gamma == 0.5
    assert uncertainty_table(spec, UNIT_CTX, 1)[1].dP_k == UNIT_CTX.eta0
    assert bounds_oracle(spec, UNIT_CTX, 1) == (UNIT_CTX.eta0_exact(), True)
    report = verify_bounds(spec, UNIT_CTX, [1])
    assert report.all_passed
    assert report.rows[0].product == UNIT_CTX.eta0


@pytest.fixture
def exact_route_ks(monkeypatch):
    """The k of every exact value formed (`measures._exact`, the one seam
    for them); in a bound check, where every exact value is gamma(k) or
    2 eta0 gamma(k), the rows that the bounds leave to the exact route."""
    ks = []
    seam = measures._exact

    def counted(k, *args):
        ks.append(k)
        return seam(k, *args)

    monkeypatch.setattr(measures, "_exact", counted)
    return ks


@pytest.fixture
def fallbacks(monkeypatch):
    """One flag per `measures._settle` call, in call order: whether the
    bounds left the float to the exact value.  `_settle` is the only
    caller of `_exact`: no pass flag forms an exact value."""
    flags = []
    settle, seam = measures._settle, measures._exact

    def recorded(*args):
        flags.append(False)
        return settle(*args)

    def formed(*args):
        flags[-1] = True
        return seam(*args)

    monkeypatch.setattr(measures, "_exact", formed)
    monkeypatch.setattr(measures, "_settle", recorded)
    return flags


#: in the order each table settles the fields of a row
SCALE_FIELDS = ("dx_k", "N_k", "L_k", "A_k", "v_k", "gamma", "dA_k0", "dL_k")
UNCERTAINTY_FIELDS = ("dV_k", "dP_k")


def tables_oracle(spec: GeneratorSpec, ctx: ParticleContext, k: int) -> dict[str, float]:
    """Every float field of the scale and uncertainty rows at scale k: its
    closed form as an exact quotient of integers, rounded once (int / int
    is correctly rounded), or inf past the float64 range."""
    a, b = spec.rho.as_integer_ratio()  # rho = a / b
    (lp, lq), (tp, tq), (mp, mq) = (x.as_integer_ratio() for x in (ctx.L0, ctx.dt, ctx.m))
    # rho^-k = res / d, (N/rho)^k = length / d, (N/rho^2)^k = area / d^2
    res, length, d = b**k, (spec.n * b) ** k, a**k
    area = (spec.n * b * b) ** k
    g = area - res * d  # gamma(k) = g / d^2

    def _rounded(num: int, den: int) -> float:
        try:
            return num / den
        except OverflowError:
            return math.inf

    return {
        "dx_k": _rounded(lp * res, lq * d),
        "N_k": _rounded(spec.n**k, 1),
        "L_k": _rounded(lp * length, lq * d),
        "A_k": _rounded(lp * lp * area, lq * lq * d * d),
        "v_k": _rounded(lp * length * tq, lq * d * tp),
        "gamma": _rounded(g, d * d),
        "dA_k0": _rounded(lp * lp * g, lq * lq * d * d),
        "dL_k": _rounded(lp * (length - d), lq * d),
        "dV_k": _rounded(lp * lp * g * tq, lq * lq * d * d * tp),
        "dP_k": _rounded(mp * lp * lp * g * tq, mq * lq * lq * d * d * tp),
    }


def test_verify_bounds_takes_exact_route_only_where_bounds_cannot_settle(exact_route_ks):
    ks = exact_route_ks
    for ctx in (UNIT_CTX, C06_CTX):
        for spec in (builtin("cesaro", angle_deg=85.0), spec_for(2.0, 5)):
            assert verify_bounds(spec, ctx, range(1, 3001)).all_passed
    assert ks == []
    # 2 gamma(1) = 1 exactly for rho = 2, N = 4: the critical lower endpoint,
    # passed by the closed form, and a product its bounds settle
    report = verify_bounds(integer_generator(4, 2), UNIT_CTX, [1])
    assert ks == []
    assert report.all_passed
    assert report.rows[0].product == UNIT_CTX.eta0


def test_verify_bounds_exact_at_any_bound_precision(monkeypatch, exact_route_ks, fallbacks):
    # with 19 digits the bounds often straddle a float64 rounding boundary,
    # so both routes run; every bounds row and every float field of both
    # tables must still match the oracle, and every field takes each route
    monkeypatch.setattr(measures.DOWN, "prec", 19)
    monkeypatch.setattr(measures.UP, "prec", 19)
    ks = exact_route_ks
    specs = [spec_for(CESARO85_RHO, 4), spec_for(2.0, 5), spec_for(3.0, 4),
             spec_for(math.sqrt(6), 6), spec_for(3.0, 9), builtin("line")]
    rows = verify_ks = 0
    took = dict.fromkeys(SCALE_FIELDS + UNCERTAINTY_FIELDS, 0)
    for spec in specs:
        for ctx in (UNIT_CTX, C06_CTX):
            del ks[:]
            report = verify_bounds(spec, ctx, range(1, 121))
            verify_ks += len(ks)
            rows += len(report.rows)
            for row in report.rows:
                p, passed = bounds_oracle(spec, ctx, row.k)
                assert (row.product, row.passed) == (oracle_float(p), passed), (spec.name, row.k)
            # each table settles the fields of a row in the order of its tuple
            for fields, table in ((SCALE_FIELDS, lambda: scale_table(spec, ctx.L0, ctx.dt, 120)),
                                  (UNCERTAINTY_FIELDS, lambda: uncertainty_table(spec, ctx, 120))):
                del fallbacks[:]
                got = table()
                assert len(fallbacks) == len(fields) * len(got)
                for i, field in enumerate(fields):
                    took[field] += sum(fallbacks[i::len(fields)])
                for row in got:
                    want = tables_oracle(spec, ctx, row.k)
                    for field in fields:
                        assert getattr(row, field) == want[field], (spec.name, row.k, field)
    assert 0 < verify_ks < rows / 2
    assert all(0 < n < rows for n in took.values()), took


def test_correspondence_monotonicity():
    # products shrink with the opening angle (D_s -> 1 limit): strictly
    # increasing over theta in {61, 70, 80, 89} at k = 5, tending to 0
    products = [
        uncertainty_table(builtin("cesaro", angle_deg=a), UNIT_CTX, 5)[5].dP_k
        for a in (61.0, 70.0, 80.0, 89.0)
    ]
    assert all(b > a for a, b in zip(products, products[1:]))
    assert uncertainty_table(builtin("cesaro", angle_deg=1.0), UNIT_CTX, 5)[5].dP_k < 1e-5


@settings(deadline=None, max_examples=25)
@given(
    name=st.sampled_from(sorted(TABLE_SPECS)),
    k=st.integers(0, 3000),
    l0=st.floats(0.01, 100.0),
    m=st.floats(0.01, 100.0),
    dt=st.floats(0.01, 100.0),
)
# deep k: koch L_k drifted ~600 ulp at k = 2437 on the float route; cesaro-85
# carries a 49-bit numerator in rho; super 2/5 passes float64 at k = 3181
@example(name="koch", k=2437, l0=1.0, m=1.0, dt=1.0)
@example(name="cesaro-85", k=2993, l0=1.3, m=1.7, dt=0.9)
@example(name="cesaro-85", k=2997, l0=1.3, m=1.7, dt=0.9)
@example(name="cesaro-85", k=3000, l0=1.3, m=1.7, dt=0.9)
@example(name="super-2-5", k=3183, l0=1.3, m=1.7, dt=0.9)
@example(name="super-2-5", k=3187, l0=1.3, m=1.7, dt=0.9)
@example(name="super-2-5", k=3190, l0=1.3, m=1.7, dt=0.9)
def test_tables_match_exact_oracle(name, k, l0, m, dt):
    # every float field of the last rows of both tables, and the resolution
    # dx_k, is the correctly rounded closed form, and dP_k is the bounds
    # product of the same k
    spec, ctx = TABLE_SPECS[name], ParticleContext(m=m, dt=dt, L0=l0)
    scale = scale_table(spec, l0, dt, k)
    unc = uncertainty_table(spec, ctx, k)
    ks = range(max(0, k - 3), k + 1)
    for j in ks:
        got = {**{f: getattr(scale[j], f) for f in SCALE_FIELDS},
               **{f: getattr(unc[j], f) for f in UNCERTAINTY_FIELDS}}
        assert got == tables_oracle(spec, ctx, j), (name, j)
    assert resolution(k, l0, spec.rho) == got["dx_k"]
    if k >= 1:
        bounds = verify_bounds(spec, ctx, range(max(1, k - 3), k + 1)).rows
        assert all(row.product == unc[row.k].dP_k for row in bounds)


def test_uncertainty_table_forms_no_exact_pass_decision(monkeypatch):
    # k = 1 of N = 4, rho = 2 lies on the critical endpoint gamma = 1/2,
    # which no decimal bound can place on either side; the table reads no
    # pass flag, and its bounds settle every float, so it forms no exact value
    def refused(*args):
        raise AssertionError("an exact value was formed")

    monkeypatch.setattr(measures, "_exact", refused)
    rows = uncertainty_table(integer_generator(4, 2), UNIT_CTX, 3)
    assert [(row.dV_k, row.dP_k, row.regime) for row in rows] == [
        (0.0, 0.0, "critical"), (0.5, 0.5, "critical"), (0.75, 0.75, "critical"),
        (0.875, 0.875, "critical")]


def test_uncertainty_table_rows():
    rows = uncertainty_table(builtin("koch"), UNIT_CTX, 10)
    assert len(rows) == 11
    for row in rows:
        assert row.regime == "sub"
        if row.dV_k == 0.0:
            assert row.dP_k == 0.0
        else:
            assert row.dP_k == pytest.approx(UNIT_CTX.m * row.dV_k, rel=1e-12)

