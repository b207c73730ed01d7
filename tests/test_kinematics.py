import hashlib
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from fractalkin import measures, serialize
from fractalkin.geometry import GeneratorSpec, base_segment, builtin, integer_generator, refine
from fractalkin.kinematics import (
    ParticleContext,
    classify_regime,
    uncertainty_table,
    verify_bounds,
)
from fractalkin.measures import classify_ds, resolution, scale_table

UNIT_CTX = ParticleContext(m=1.0, dt=1.0, L0=1.0)
C06_CTX = ParticleContext(m=1.7, dt=0.9, L0=1.3)
CESARO85_RHO = builtin("cesaro", angle_deg=85.0).rho


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
    }[classify_ds(spec.ds)]
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


def test_context_derived_quantities():
    ctx = ParticleContext(m=2.0, dt=4.0, L0=8.0)
    assert ctx.V0 == 2.0
    assert ctx.E0 == 4.0
    assert ctx.eta0 == 16.0
    assert ctx.eta0 == pytest.approx(ctx.m * ctx.L0**2 / (2 * ctx.dt), rel=1e-12)
    assert ctx.eta0_exact() == Fraction(16)


@pytest.mark.parametrize("bad", [dict(m=0), dict(dt=-1), dict(L0=0)])
def test_context_validation(bad):
    kwargs = dict(m=1.0, dt=1.0, L0=1.0)
    kwargs.update(bad)
    with pytest.raises(ValueError):
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
    bound = classify_regime(2.0, UNIT_CTX)
    assert (bound.lower, bound.upper) == (0.5, 1.0)
    assert not bound.lower_strict and bound.upper_strict

    zero = classify_regime(1.0, UNIT_CTX)
    assert (zero.lower, zero.upper) == (0.0, 0.0)

    ctx_eta1 = ParticleContext(m=2.0, dt=1.0, L0=1.0)  # eta0 = 1
    sup = classify_regime(2.5, ctx_eta1)
    assert sup.lower == 1.0 and math.isinf(sup.upper) and sup.lower_strict

    with pytest.raises(ValueError):
        classify_regime(0.5, UNIT_CTX)


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
# rho = sqrt(N) in float64 is classified critical, but N != rho^2: the
# product leaves [eta0, 2 eta0) between k = 10 and k = 100 for N = 6 and 12
@example(rn=(math.sqrt(5), 5), ks=[1, 10, 100, 1000, 3000], ctx=C06_CTX)
@example(rn=(math.sqrt(6), 6), ks=[1, 10, 100, 1000, 3000], ctx=C06_CTX)
@example(rn=(math.sqrt(12), 12), ks=[1, 10, 100, 1000, 3000], ctx=C06_CTX)
def test_verify_bounds_matches_fraction_oracle(rn, ks, ctx):
    spec = spec_for(*rn)
    report = verify_bounds(spec, ctx, ks)
    assert [row.k for row in report.rows] == sorted(set(ks))
    for row in report.rows:
        p, passed = bounds_oracle(spec, ctx, row.k)
        assert row.passed == passed, (spec.name, row.k)
        assert row.product == oracle_float(p), (spec.name, row.k)


@st.composite
def integer_pair(draw):
    """(N, rho) with integers rho = 2..10 and N = rho..rho^3, the regime
    edges N = rho, rho^2 and their neighbours drawn often."""
    rho = draw(st.integers(2, 10))
    edges = [rho, rho + 1, rho * rho - 1, rho * rho, rho * rho + 1, rho**3]
    return draw(st.one_of(st.sampled_from(edges), st.integers(rho, rho**3))), rho


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
    regime = classify_ds(spec.ds)
    assert (regime == "classical") == (n == rho)
    assert (regime == "critical") == (n == rho * rho)
    report = verify_bounds(spec, ctx, DEEP_KS + ks)
    assert [row.k for row in report.rows] == sorted(set(DEEP_KS + ks))
    for row in report.rows:
        p, passed = bounds_oracle(spec, ctx, row.k)
        assert (row.product, row.passed) == (oracle_float(p), passed), (spec.name, row.k)
        assert passed, (spec.name, row.k)


@pytest.mark.parametrize("ctx,digest", [
    (UNIT_CTX, "9dd77ab24a439c71ee6b4acbdab049856cfe13da165669ee26d2778732562e1c"),
    (C06_CTX, "14b095f996b1e2fcee8b37ab4acfad058eb230b5be9b8d63d1956d96bba6e876"),
], ids=["unit", "c06"])
def test_verify_bounds_cesaro85_rows_pinned_to_k3000(ctx, digest):
    # the bytes of every cesaro-85 row over k = 1..3000, where rho has a
    # 49-bit numerator; only the rows are hashed, since ds comes from libm
    report = verify_bounds(builtin("cesaro", angle_deg=85.0), ctx, range(1, 3001))
    rows = serialize.bounds_report_to_dict(report)["rows"]
    assert hashlib.sha256(serialize.json_text(rows).encode()).hexdigest() == digest


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
    """The k of every row whose exact gamma(k) is formed (once a row at
    most): the rows that the bounds leave to the exact route."""
    ks = []
    ladders = measures.ladders

    def counted(spec):
        res, length, area = ladders(spec)

        def area_at(k):
            bounded = area(k)

            def exact():
                ks.append(k)
                return bounded.exact()

            return measures.Bounded(bounded.lo, bounded.hi, exact)

        return res, length, area_at

    monkeypatch.setattr(measures, "ladders", counted)
    return ks


@pytest.fixture
def fallbacks(monkeypatch):
    """One flag per `Bounded.settle` call, in call order: whether the
    bounds left the float to the exact value."""
    flags = []
    settle = measures.Bounded.settle

    def recorded(self):
        took = []

        def exact():
            took.append(True)
            return self.exact()

        value = settle(measures.Bounded(self.lo, self.hi, exact))
        flags.append(bool(took))
        return value

    monkeypatch.setattr(measures.Bounded, "settle", recorded)
    return flags


SCALE_FIELDS = ("dx_k", "L_k", "A_k", "v_k", "gamma", "dA_k0", "dL_k")
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

    def rounded(num: int, den: int) -> float:
        try:
            return num / den
        except OverflowError:
            return math.inf

    return {
        "dx_k": rounded(lp * res, lq * d),
        "L_k": rounded(lp * length, lq * d),
        "A_k": rounded(lp * lp * area, lq * lq * d * d),
        "v_k": rounded(lp * length * tq, lq * d * tp),
        "gamma": rounded(g, d * d),
        "dA_k0": rounded(lp * lp * g, lq * lq * d * d),
        "dL_k": rounded(lp * (length - d), lq * d),
        "dV_k": rounded(lp * lp * g * tq, lq * lq * d * d * tp),
        "dP_k": rounded(mp * lp * lp * g * tq, mq * lq * lq * d * d * tp),
    }


def test_verify_bounds_takes_exact_route_only_where_bounds_cannot_settle(exact_route_ks):
    ks = exact_route_ks
    for ctx in (UNIT_CTX, C06_CTX):
        for spec in (builtin("cesaro", angle_deg=85.0), spec_for(2.0, 5)):
            assert verify_bounds(spec, ctx, range(1, 3001)).all_passed
    assert ks == []
    # 2 gamma(1) = 1 exactly for rho = 2, N = 4: the critical lower endpoint
    report = verify_bounds(integer_generator(4, 2), UNIT_CTX, [1])
    assert ks == [1]
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
            # each table settles the fields of a row in field order
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


TABLE_SPECS = {
    "line": builtin("line"),
    "koch": builtin("koch"),
    "peano": builtin("peano"),
    "cesaro-85": builtin("cesaro", angle_deg=85.0),
    "cesaro-30": builtin("cesaro", angle_deg=30.0),
    "super-2-5": spec_for(2.0, 5),
}


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


def test_uncertainty_table_rows():
    rows = uncertainty_table(builtin("koch"), UNIT_CTX, 10)
    assert len(rows) == 11
    for row in rows:
        assert row.regime == "sub"
        if row.dV_k == 0.0:
            assert row.dP_k == 0.0
        else:
            assert row.dP_k == pytest.approx(UNIT_CTX.m * row.dV_k, rel=1e-12)

