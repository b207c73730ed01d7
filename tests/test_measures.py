import math
import tracemalloc
from decimal import MAX_EMAX, MAX_PREC, MIN_EMIN, Context, Decimal, Inexact, Rounded
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from fractalkin import measures
from fractalkin.geometry import K_MAX, base_segment, builtin, integer_generator, refine
from fractalkin.kinematics import ParticleContext, uncertainty_table, verify_bounds
from fractalkin.measures import (
    ScaleRow,
    _exact,
    classify,
    ratios,
    regime_interval,
    resolution,
    scale_table,
)

# conditioned test specs: gamma and the dA identities involve the
# difference (N/rho)^k - 1, so float checks at 1e-12 need D_s far enough
# from 1; cesaro angles below ~5 degrees leave that regime
CESARO_ANGLES = (30.0, 60.0, 85.0)


def all_test_specs():
    specs = [builtin(n) for n in ("line", "koch", "peano")]
    specs += [builtin("cesaro", angle_deg=a) for a in CESARO_ANGLES]
    return specs


# ---------------------------------------------------------------------------
# resolution ladder


def test_resolution_examples():
    assert resolution(0, 2.5, 3.0) == 2.5
    assert resolution(1, 1.0, 3.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert resolution(5, 1.0, 3.0) == pytest.approx(1.0 / 243.0, rel=1e-15)


def test_resolution_validation():
    with pytest.raises(ValueError):
        resolution(-1, 1.0, 3.0)
    with pytest.raises(ValueError):
        resolution(2, 0.0, 3.0)
    with pytest.raises(ValueError):
        resolution(2, 1.0, 1.0)


@pytest.mark.parametrize("dx0,rho,message", [
    (math.inf, 3.0, "dx0 must be positive and finite, got inf"),
    (1.0, math.inf, "rho must be > 1 and finite, got inf"),
])
def test_resolution_refuses_a_non_finite_input_by_name(dx0, rho, message):
    # each raised OverflowError: cannot convert Infinity to integer ratio
    with pytest.raises(ValueError, match=f"^{message}$"):
        resolution(1, dx0, rho)


#: decimal arithmetic on integers that traps any rounding: exact
EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[Inexact, Rounded])

#: indices in any order, with repeats, gaps and descents, and at most two
#: sparse ones up to K_MAX (the exact check at K_MAX takes up to 0.5 s)
_walk = st.tuples(st.lists(st.integers(0, 40), max_size=10),
                  st.lists(st.integers(0, K_MAX), max_size=2)).flatmap(
    lambda parts: st.permutations(parts[0] + parts[1]))


@settings(max_examples=15, deadline=None)
@given(rho=st.floats(min_value=1.0, max_value=1000.0, exclude_min=True),
       n=st.integers(min_value=1, max_value=1000), which=st.integers(0, 2), ks=_walk)
def test_bounds_enclose_every_power_walked(rho, n, which, ks):
    # 1/rho, N/rho or N/rho^2; lo <= (a/b)^k <= hi checked as lo b^k <= a^k <= hi b^k
    ratio = (Fraction(n) ** min(which, 1) / Fraction(rho) ** max(which, 1)).as_integer_ratio()
    a, b = ratio
    walked = list(measures._bounds(ratio, ks))
    assert len(walked) == len(ks)
    for k, (lo, hi) in zip(ks, walked):
        num, den = EXACT.power(Decimal(a), k), EXACT.power(Decimal(b), k)
        assert EXACT.multiply(lo, den) <= num <= EXACT.multiply(hi, den), (ratio, k)


def test_resolution_at_k_max_takes_o_log_k_rounded_multiplies(monkeypatch):
    # a walk of every index up to K_MAX took 200,002
    count = 0

    class Counting(Context):
        def multiply(self, a, b):
            nonlocal count
            count += 1
            return super().multiply(a, b)

    want = resolution(K_MAX, 1.0, 1.0000001)
    for name in ("DOWN", "UP"):
        ctx = getattr(measures, name)
        monkeypatch.setattr(measures, name, Counting(
            prec=ctx.prec, rounding=ctx.rounding, Emin=ctx.Emin, Emax=ctx.Emax))
    assert resolution(K_MAX, 1.0, 1.0000001) == want
    assert 0 < count <= 4 * K_MAX.bit_length() + 2


def test_measures_keeps_nothing_between_calls():
    # the kept bounds of every index walked once held 4.2 MB here
    koch = builtin("koch")
    scale_table(koch, 1.0, 1.0, 1)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        resolution(K_MAX, 1.0, 1.0000001)
        scale_table(koch, 1.0, 1.0, 5000)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < 64 * 1024


@pytest.mark.parametrize("name,walks", [("koch", 5), ("peano", 4), ("line", 3)])
def test_each_table_walks_each_distinct_power_once(monkeypatch, name, walks):
    # the scale table walked 8 powers a call, (N/rho)^k three times, and
    # the area and resolution powers twice; koch's five are rho^-k, N^k,
    # (N/rho)^k, (N/rho^2)^k and 1^k, and peano's and the line's coincide
    walked = []
    bounds = measures._bounds
    monkeypatch.setattr(measures, "_bounds",
                        lambda ratio, ks: walked.append(ratio) or bounds(ratio, ks))
    spec, ctx = builtin(name), ParticleContext(1.0, 1.0, 1.0)
    scale_table(spec, 1.0, 1.0, 30)
    assert len(walked) == len(set(walked)) == walks
    if name == "koch":
        for table in (lambda: uncertainty_table(spec, ctx, 30),
                      lambda: verify_bounds(spec, ctx, range(1, 31))):
            del walked[:]
            table()
            assert sorted(walked) == sorted(ratios(spec)[::2])


def _overflows(base, k):
    try:
        base**k
    except OverflowError:
        return True
    return False


@pytest.mark.parametrize("name", ["koch", "peano", "cesaro"])
def test_powers_past_float_range_match_fraction_oracle(name):
    # where the float power overflows, resolution and the scale table's L_k
    # are still the correctly rounded x * ratio^k; bands of k straddle log2
    # of the result at the edges of float64, 0.0 (-1076) and inf (1025)
    spec = builtin(name, angle_deg=85.0) if name == "cesaro" else builtin(name)
    rho = Fraction(spec.rho)
    outcomes = set()
    for x in (1.0, 1.3, 1e-300, 1e16, 5e-324):
        # rows up to the top of the highest band of L_k
        top = round((1025 - math.log2(x)) / math.log2(spec.n / rho)) + 25
        rows = scale_table(spec, x, 1.0, top)
        for fn, ratio, base in (
            (lambda k: resolution(k, x, spec.rho), 1 / rho, spec.rho),
            (lambda k: rows[k].L_k, spec.n / rho, spec.n / spec.rho),
        ):
            step = math.log2(ratio)
            for cut in (-1076, 1025):
                mid = round((cut - math.log2(x)) / step)
                for k in range(max(mid - 25, 0), mid + 26):
                    if not _overflows(base, k):
                        continue
                    try:
                        want = float(Fraction(x) * ratio**k)
                    except OverflowError:
                        want = math.inf
                    assert fn(k) == want, (x, k)
                    outcomes.add("0" if want == 0.0 else "inf" if want == math.inf else "finite")
    assert outcomes == {"0", "inf", "finite"}


# ---------------------------------------------------------------------------
# length / velocity / area


def test_line_length_invariant_exact():
    line = builtin("line")
    for row in scale_table(line, 1.0, 1.0, 20):
        assert row.L_k == 1.0


def test_koch_length_example():
    assert scale_table(builtin("koch"), 1.0, 1.0, 3)[3].L_k == pytest.approx(
        64.0 / 27.0, rel=1e-12
    )


def test_peano_length_against_polyline_oracle():
    # oracle: sum the segment lengths of the level-2 refinement
    poly = refine(base_segment(1.0), builtin("peano"), 2)
    assert poly.arc_length() == pytest.approx(9.0, rel=1e-12)
    assert scale_table(builtin("peano"), 1.0, 1.0, 2)[2].L_k == pytest.approx(9.0, rel=1e-12)


def test_velocity_examples():
    line, koch = builtin("line"), builtin("koch")
    for row in scale_table(line, 1.0, 1.0, 9):
        assert row.v_k == 1.0
    assert scale_table(koch, 1.0, 1.0, 1)[1].v_k == pytest.approx(4.0 / 3.0, rel=1e-12)
    # repeated-multiplication oracle for (4/3)^10 / 2
    expected = 1.0
    for _ in range(10):
        expected *= 4.0 / 3.0
    expected /= 2.0
    assert scale_table(koch, 1.0, 2.0, 10)[10].v_k == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        scale_table(koch, 1.0, 0.0, 1)


def test_area_examples():
    koch, peano, line = builtin("koch"), builtin("peano"), builtin("line")
    assert scale_table(koch, 1.0, 1.0, 1)[1].A_k == pytest.approx(4.0 / 9.0, rel=1e-12)
    peano_rows = scale_table(peano, 1.0, 1.0, 17)
    for k in (0, 3, 17):
        assert peano_rows[k].A_k == pytest.approx(1.0, rel=1e-12)
    # oracle: N^k (dx_k)^2 = 3^4 * (3^-4)^2
    oracle = 3**4 * (3.0**-4) ** 2
    assert scale_table(line, 1.0, 1.0, 4)[4].A_k == pytest.approx(oracle, rel=1e-12)


def test_area_identity_with_cell_count():
    # the area measure must equal N^k (dx_k)^2, its cell-count route
    for spec in all_test_specs():
        rows = scale_table(spec, 1.0, 1.0, 40)
        for k in range(0, 41, 5):
            direct = spec.n**k * resolution(k, 1.0, spec.rho) ** 2
            assert rows[k].A_k == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------------------
# gamma


def exact_gammas(spec, ks):
    """gamma(k) for each k of `ks` as an exact Fraction, from the exact value
    of the ratios whose powers `measures._settled` bounds, after checking it
    against (N/rho^2)^k - rho^-k in Fractions and the floats `_settled`
    settles against it: gamma(k) and 3 gamma(k), each correctly rounded."""
    rho = Fraction(spec.rho)
    res, _, area = ratios(spec)
    out = []
    for k, (once, thrice) in measures._settled(ks, [(1, area, res), (3, area, res)]):
        g = Fraction(*_exact(k, 1, area, res))
        assert g == Fraction(spec.n) ** k / rho ** (2 * k) - rho**-k, (spec.name, k)
        assert (once, thrice) == (float(g), float(3 * g)), (spec.name, k)
        out.append(g)
    return out


def test_classical_line_forms_no_exact_value(monkeypatch):
    # on N = rho, gamma(k) = 0 is settled from equal powers and its bound
    # check read from the regime: the tables and the bounds never reach _exact
    def refuse(*args):
        raise AssertionError(f"_exact{args} formed on the classical line")

    monkeypatch.setattr(measures, "_exact", refuse)
    line, ctx = builtin("line"), ParticleContext(1.0, 1.0, 1.0)
    rows = scale_table(line, 1.0, 1.0, 3000)
    assert {(row.gamma, row.dA_k0) for row in rows} == {(0.0, 0.0)}
    table = uncertainty_table(line, ctx, 3000)
    assert {(row.dV_k, row.dP_k) for row in table} == {(0.0, 0.0)}
    report = verify_bounds(line, ctx, range(1, 3001))
    assert report.all_passed
    assert {row.product for row in report.rows} == {0.0}


def test_gamma_classical_is_exact_zero():
    for spec in (builtin("line"), integer_generator(7, 7)):
        for row in scale_table(spec, 1.0, 1.0, 50):
            assert row.gamma == 0.0


def test_gamma_critical_example():
    assert scale_table(builtin("peano"), 1.0, 1.0, 1)[1].gamma == pytest.approx(
        2.0 / 3.0, rel=1e-15)


def test_gamma_koch_against_polyline_oracle():
    # oracle: dx_1 * (L_1 - L_0) from the measured level-1 polyline
    poly = refine(base_segment(1.0), builtin("koch"), 1)
    oracle = (1.0 / 3.0) * (poly.arc_length() - 1.0)
    assert scale_table(builtin("koch"), 1.0, 1.0, 1)[1].gamma == pytest.approx(oracle, rel=1e-12)
    assert oracle == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_gamma_validation():
    # gamma(k) exists only for a realisable generator: integers 2 <= rho <= N
    for n, rho in ((3, 1), (2, 3), (4.5, 2), (9, 3.5)):
        with pytest.raises(ValueError):
            integer_generator(n, rho)
    with pytest.raises(ValueError):
        scale_table(integer_generator(4, 2), 1.0, 1.0, -1)


def test_gamma_at_k0_is_exact_zero():
    koch = builtin("koch")
    assert exact_gammas(koch, [0]) == [0]
    assert scale_table(koch, 1.0, 1.0, 0)[0].gamma == 0.0


def test_gamma_exact_matches_float_at_small_k():
    # with eta0 = 1/2 the bounds product 2 eta0 gamma(k) is gamma itself;
    # both it and the scale table's gamma are correctly rounded
    koch = builtin("koch")
    rows = verify_bounds(koch, ParticleContext(1.0, 1.0, 1.0), range(1, 12)).rows
    table = scale_table(koch, 1.0, 1.0, 11)
    for row, g in zip(rows, exact_gammas(koch, range(1, 12))):
        exact = Fraction(4**row.k, 9**row.k) - Fraction(1, 3**row.k)
        assert g == exact
        assert row.product == table[row.k].gamma == float(exact)


def test_gamma_critical_strict_upper_bound():
    # at k = 50 the float value saturates at 1.0 but the exact one must not
    peano = builtin("peano")
    assert scale_table(peano, 1.0, 1.0, 50)[50].gamma == 1.0
    (g,) = exact_gammas(peano, [50])
    assert g == 1 - Fraction(1, 3**50) < 1
    assert verify_bounds(peano, ParticleContext(1.0, 1.0, 1.0), [50]).all_passed


def test_delta_area_examples():
    line, koch = builtin("line"), builtin("koch")
    for row in scale_table(line, 1.0, 1.0, 19):
        assert row.dA_k0 == 0.0
    koch_rows = scale_table(koch, 1.0, 1.0, 2)
    assert koch_rows[1].dA_k0 == pytest.approx((1 / 3) * (4 / 3 - 1), rel=1e-12)
    assert koch_rows[2].dA_k0 == pytest.approx((1 / 9) * (16 / 9 - 1), rel=1e-12)
    assert koch_rows[2].dA_k0 == pytest.approx(7.0 / 81.0, rel=1e-12)
    # the exact value: with L0 = 1 and eta0 = 1/2 the bounds product is dA
    row = verify_bounds(koch, ParticleContext(1.0, 1.0, 1.0), [2]).rows[0]
    assert row.product == float(Fraction(7, 81))


def test_rows_past_the_float64_range_share_one_inf_and_one_zero():
    # a fresh float per settle made every row hold its own inf (and 0.0):
    # about 18 MiB over koch's 100,001 rows
    rows = scale_table(builtin("koch"), 1.0, 1.0, 1000)
    infs = [row.N_k for row in rows if row.N_k == math.inf]
    zeros = [row.dx_k for row in rows if row.dx_k == 0.0]
    assert infs and zeros
    assert all(x is math.inf for x in infs)
    assert len({id(x) for x in zeros}) == 1


# ---------------------------------------------------------------------------
# regime table


def test_regime_interval_shapes():
    crit = regime_interval("critical", 0.5)
    assert (crit.regime, crit.lower, crit.upper) == ("critical", 0.5, 1.0)
    assert (crit.lower_strict, crit.upper_strict) == (False, True)

    classical = regime_interval("classical", 2.0)
    assert (classical.regime, classical.lower, classical.upper) == ("classical", 0.0, 0.0)

    sub = regime_interval("sub", 0.5)
    assert (sub.regime, sub.lower, sub.upper) == ("sub", 0.0, 1.0)
    assert sub.lower_strict and sub.upper_strict

    sup = regime_interval("super", 0.5)
    assert (sup.regime, sup.lower) == ("super", 0.5)
    assert math.isinf(sup.upper)

    exact = regime_interval("critical", Fraction(1, 2))
    assert (exact.lower, exact.upper) == (Fraction(1, 2), 1)
    assert isinstance(exact.lower, Fraction)


def test_regime_is_exact_and_rejection():
    # D_s within 1e-12 of 1 or 2 decides nothing: only N = rho and N = rho^2
    # are the classical and critical lines
    assert [classify(integer_generator(n, 3)) for n in (3, 4, 9, 10)] == [
        "classical", "sub", "critical", "super"]
    near_line = builtin("cesaro", angle_deg=1e-4)
    near_critical = builtin("cesaro", angle_deg=89.99999999999999)
    assert abs(near_line.ds - 1) < 1e-12 and abs(near_critical.ds - 2) < 1e-12
    assert classify(near_line) == classify(near_critical) == "sub"
    assert classify(builtin("cesaro", angle_deg=1e-300)) == "classical"  # rho rounds to 4.0
    with pytest.raises(ValueError):
        regime_interval("hyper", 0.5)


# ---------------------------------------------------------------------------
# gamma regime properties (the four dimension bands, with their preconditions),
# on the integer generators: rho >= 2 and k >= 1


_rho = st.integers(min_value=2, max_value=10)
_k = st.integers(min_value=1, max_value=50)


@given(rho=_rho, k=_k)
def test_gamma_critical_band(rho, k):
    # N = rho^2: gamma in [1 - 1/rho, 1), increasing in k
    g_prev, g = exact_gammas(integer_generator(rho * rho, rho), [k - 1, k])
    assert 1 - Fraction(1, rho) <= g < 1
    assert g > g_prev


@settings(max_examples=60)
@given(rho=_rho, extra=st.integers(min_value=0), k=_k)
def test_gamma_super_lower_bound(rho, extra, k):
    # N in rho^2 + 1..rho^3
    n = rho * rho + 1 + extra % (rho**3 - rho * rho)
    g_prev, g = exact_gammas(integer_generator(n, rho), [k - 1, k])
    assert g > Fraction(1, 2)
    assert g > g_prev


def test_gamma_super_unbounded():
    # rho = 3, N = 16: D_s = ln 16 / ln 3 ~ 2.52
    assert scale_table(integer_generator(16, 3), 1.0, 1.0, 200)[200].gamma > 1e40


@settings(max_examples=60)
@given(rho=st.integers(min_value=3, max_value=10), extra=st.integers(min_value=0), k=_k)
def test_gamma_sub_band(rho, extra, k):
    # N in rho + 1..rho^2 - 1 (rho = 2 has no such N)
    n = rho + 1 + extra % (rho * rho - rho - 1)
    (g,) = exact_gammas(integer_generator(n, rho), [k])
    assert 0 < g < 1


@settings(max_examples=40)
@given(rho=st.integers(min_value=3, max_value=10), extra=st.integers(min_value=0))
def test_gamma_sub_vanishes(rho, extra):
    # gamma -> 0: past k* = ln(1e-9) / ln(N / rho^2) the leading power is
    # below 1e-9; k* reaches ~2,000 at N = 99, rho = 10
    n = rho + 1 + extra % (rho * rho - rho - 1)
    k_star = math.ceil(math.log(1e-9) / math.log(n / rho**2)) + 1
    g = scale_table(integer_generator(n, rho), 1.0, 1.0, k_star)[k_star].gamma
    assert 0.0 < g < 1e-9


@settings(max_examples=60)
@given(rho=_rho, n_lo=st.integers(min_value=0), bump=st.integers(min_value=1, max_value=50), k=_k)
def test_gamma_monotone_in_ds(rho, n_lo, bump, k):
    # at fixed rho, D_s = ln N / ln rho grows with N, and so does gamma(k)
    n_lo = rho + n_lo % (rho**3 - rho)
    n_hi = min(n_lo + bump, rho**3)
    (lo,) = exact_gammas(integer_generator(n_lo, rho), [k])
    (hi,) = exact_gammas(integer_generator(n_hi, rho), [k])
    assert hi > lo


# ---------------------------------------------------------------------------
# scale table


def test_scale_table_k0():
    rows = scale_table(builtin("koch"), 2.0, 1.0, 0)
    assert len(rows) == 1
    row = rows[0]
    assert (row.k, row.dx_k, row.N_k, row.L_k) == (0, 2.0, 1.0, 2.0)
    assert row.A_k == pytest.approx(4.0, rel=1e-15)
    assert row.gamma == 0.0
    assert row.dA_k0 == 0.0


def test_scale_table_koch_row3():
    rows = scale_table(builtin("koch"), 1.0, 1.0, 3)
    row = rows[3]
    assert row.L_k == pytest.approx(64.0 / 27.0, rel=1e-12)
    assert row.A_k == pytest.approx((4.0 / 9.0) ** 3, rel=1e-12)
    assert row.N_k == 64.0


def test_scale_table_line_rows():
    rows = scale_table(builtin("line"), 1.5, 2.0, 5)
    assert len(rows) == 6
    for row in rows:
        assert row.L_k == 1.5
        assert row.v_k == 0.75
        assert row.dA_k0 == 0.0
        assert row.dL_k == 0.0


def test_scale_table_row_identities():
    # the per-row identities A_k = dx_k L_k and dA_k0 = A_k - dx_k L0
    for spec in all_test_specs():
        for row in scale_table(spec, 1.25, 0.5, 40):
            assert row.A_k == pytest.approx(row.dx_k * row.L_k, rel=1e-12)
            ref = row.A_k - row.dx_k * 1.25
            if ref == 0.0:
                assert row.dA_k0 == 0.0
            else:
                assert row.dA_k0 == pytest.approx(ref, rel=1e-12)
            if row.dL_k == 0.0:
                assert row.dA_k0 == 0.0
            else:
                assert row.dA_k0 == pytest.approx(row.dx_k * row.dL_k, rel=1e-12)


@pytest.mark.parametrize("l0", [0.0, -1.0])
@pytest.mark.parametrize(
    "field",
    ["L_k", "A_k", "dA_k0"],
    # the ids keep the names of the per-k functions these fields replaced
    ids=["length_at_scale", "area_at_scale", "delta_area"],
)
def test_per_k_measures_refuse_nonpositive_l0(field, l0):
    with pytest.raises(ValueError, match="l0 must be positive"):
        getattr(scale_table(builtin("koch"), l0, 1.0, 1)[1], field)


def test_scale_table_validation():
    with pytest.raises(ValueError):
        scale_table(builtin("koch"), 0.0, 1.0, 3)
    with pytest.raises(ValueError):
        scale_table(builtin("koch"), 1.0, -1.0, 3)


@pytest.mark.parametrize("l0,dt,name", [(math.inf, 1.0, "l0"), (1.0, math.inf, "dt")])
def test_scale_table_refuses_a_non_finite_input_by_name(l0, dt, name):
    # each raised OverflowError: cannot convert Infinity to integer ratio
    with pytest.raises(ValueError, match=f"^{name} must be positive and finite, got inf$"):
        scale_table(builtin("koch"), l0, dt, 3)


# ---------------------------------------------------------------------------
# closed form vs refined-polyline measurement (brute-force equivalence)


@pytest.mark.parametrize("name,kmax", [("line", 8), ("koch", 8), ("peano", 5)])
def test_closed_forms_match_polyline_measurement(name, kmax):
    spec = builtin(name)
    base = base_segment(1.0)
    rows = scale_table(spec, 1.0, 1.0, kmax)
    for k in range(kmax + 1):
        poly = refine(base, spec, k)
        measured_l = poly.arc_length()
        assert rows[k].L_k == pytest.approx(measured_l, rel=1e-9)
        dx = resolution(k, 1.0, spec.rho)
        measured_a = poly.n_segments * dx * dx
        assert rows[k].A_k == pytest.approx(measured_a, rel=1e-9)
