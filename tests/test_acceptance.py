"""Acceptance suite: every criterion checked at its stated tolerance.

Each test prints one `[acceptance] C<n> PASS/FAIL` line (run pytest with
-s to watch them stream by).
"""

import dataclasses
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from click.testing import CliRunner

from fractalkin.cli import main as cli_main
from fractalkin.estimator import brownian_path, measure_polyline
from fractalkin.geometry import base_segment, builtin, integer_generator, refine
from fractalkin.kinematics import (
    ParticleContext,
    classify_regime,
    uncertainty_table,
    verify_bounds,
)
from fractalkin.measures import classify, scale_table
from fractalkin.serialize import (
    analysis_to_dict,
    bounds_report_to_dict,
    measurement_from_dict,
    measurement_to_dict,
    polyline_from_dict,
    polyline_to_dict,
    spec_from_dict,
    spec_to_dict,
)

LOG3_4 = math.log(4.0) / math.log(3.0)
UNIT_CTX = ParticleContext(m=1.0, dt=1.0, L0=1.0)
BROWNIAN_SEED = 20260810


class criterion:
    """Prints the one-line verdict for an acceptance criterion."""

    def __init__(self, num, text):
        self.num = num
        self.text = text

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] C{self.num} {verdict}: {self.text}")
        return False


def test_c01_koch_length_law():
    with criterion(1, "koch arc length (4/3)^k, k=0..10, 1e-9 rel, < 5 s"):
        start = time.perf_counter()
        koch = builtin("koch")
        base = base_segment(1.0)
        for k in range(11):
            measured = refine(base, koch, k).arc_length()
            expected = (4.0 / 3.0) ** k
            assert abs(measured - expected) <= 1e-9 * expected, k
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_c02_line_invariance():
    with criterion(2, "line L_k = L0 and v_k = V0 to 1e-12 for k <= 20"):
        line = builtin("line")
        l0, dt = 2.5, 0.5
        v0 = l0 / dt
        rows = scale_table(line, l0, dt, 20)
        for k in range(21):
            assert abs(rows[k].L_k - l0) <= 1e-12 * l0
            assert abs(rows[k].v_k - v0) <= 1e-12 * v0


def test_c03_area_law():
    with criterion(3, "koch A_k = (4/9)^k, A_k = dx_k L_k, monotone to 0, k <= 40"):
        rows = scale_table(builtin("koch"), 1.0, 1.0, 40)
        prev = math.inf
        for k in range(41):
            a = rows[k].A_k
            closed = (4.0 / 9.0) ** k
            assert abs(a - closed) <= 1e-12 * closed
            identity = rows[k].dx_k * rows[k].L_k
            assert abs(a - identity) <= 1e-12 * identity
            assert a < prev
            prev = a
        assert prev < 1e-13  # (4/9)^40 ~ 8.7e-15: the limit is 0


def test_c04_gamma_regime_sweep():
    with criterion(4, "every regime at each rho 2..10 (N in rho, rho+1, rho^2-1, rho^2, "
                      "rho^2+1, rho^3), bounds decided exactly for k 1..50, < 1 s"):
        start = time.perf_counter()
        for rho in range(2, 11):
            regimes = set()
            for n in {rho, rho + 1, rho * rho - 1, rho * rho, rho * rho + 1, rho**3}:
                spec = integer_generator(n, rho)
                assert verify_bounds(spec, UNIT_CTX, range(1, 51)).all_passed, spec.name
                regimes.add(classify(spec))
            assert regimes == {"classical", "sub", "critical", "super"}, rho
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_c05_uncertainty_regimes():
    with criterion(5, "products: peano [1/2,1) increasing, koch (0,1) -> 0, "
                      "line = 0, eta0 attained at rho=2 k=1"):
        peano, koch, line = builtin("peano"), builtin("koch"), builtin("line")
        eta0 = UNIT_CTX.eta0_exact()
        assert eta0 == Fraction(1, 2)
        report = verify_bounds(peano, UNIT_CTX, range(1, 51))
        assert report.all_passed
        prev = None
        for row in report.rows:
            p = 2 * eta0 * (1 - Fraction(1, 3**row.k))  # peano: N = rho^2
            assert row.product == float(p), row.k
            assert eta0 <= p < 2 * eta0, row.k
            if prev is not None:
                assert p > prev, row.k
            prev = p
        prev = math.inf
        for row in uncertainty_table(koch, UNIT_CTX, 50)[1:]:
            p = row.dP_k
            assert 0.0 < p < 1.0, row.k
            assert p < prev, row.k
            prev = p
        assert prev < 1e-15  # koch products vanish with k
        for row in uncertainty_table(line, UNIT_CTX, 50)[1:]:
            assert row.dP_k == 0.0
        # attainment of the critical lower bound: rho = 2, N = 4 gives gamma(1) = 1/2
        limit_spec = integer_generator(4, 2)
        assert scale_table(limit_spec, 1.0, 1.0, 1)[1].gamma == 0.5
        assert uncertainty_table(limit_spec, UNIT_CTX, 1)[1].dP_k == UNIT_CTX.eta0


def test_c06_dual_route_identity():
    with criterion(6, "m dx_k dL_k / dt == 2 eta0 gamma(k) to 1e-12, k <= 40"):
        specs = [builtin(n) for n in ("line", "koch", "peano")]
        specs += [builtin("cesaro", angle_deg=a) for a in (30.0, 60.0, 85.0)]
        ctx = ParticleContext(m=1.7, dt=0.9, L0=1.3)
        for spec in specs:
            # (a) from the scale table's dx_k and L_k, (b) the uncertainty table's dP_k
            scale, unc = scale_table(spec, ctx.L0, ctx.dt, 40), uncertainty_table(spec, ctx, 40)
            for k in range(41):
                dl = scale[k].L_k - ctx.L0
                route_a = ctx.m * scale[k].dx_k * dl / ctx.dt
                route_b = unc[k].dP_k
                if route_a == 0.0:
                    assert route_b == 0.0, (spec.name, k)
                else:
                    assert abs(route_b - route_a) <= 1e-12 * abs(route_a), (spec.name, k)


def test_c07_empirical_dimension_recovery():
    with criterion(7, "grid fit: koch level-8 = log3(4) +/- 0.05, "
                      "segment = 1.0 +/- 0.02, < 10 s"):
        start = time.perf_counter()
        koch8 = refine(base_segment(1.0), builtin("koch"), 8)
        res = measure_polyline(koch8, range(1, 7), rho=3.0, method="grid")
        assert abs(res.fit.ds_hat - LOG3_4) <= 0.05, res.fit.ds_hat
        from fractalkin.geometry import Polyline

        seg = Polyline(np.array([[0.0013, 0.457], [0.9977, 0.457]]))
        res_seg = measure_polyline(seg, range(1, 7), rho=3.0, base_length=1.0)
        assert abs(res_seg.fit.ds_hat - 1.0) <= 0.02, res_seg.fit.ds_hat
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_c08_brownian_dimension_two_check():
    with criterion(8, "brownian n=1e5 divider fit in [1.8, 2.0], deterministic, < 30 s"):
        start = time.perf_counter()
        path = brownian_path(100000, seed=BROWNIAN_SEED, step_std=1.0)
        res = measure_polyline(
            path, range(2, 7), rho=2.0, method="divider", base_length=256.0
        )
        assert 1.8 <= res.fit.ds_hat <= 2.0, res.fit.ds_hat
        again = brownian_path(100000, seed=BROWNIAN_SEED, step_std=1.0)
        assert np.array_equal(path.vertices, again.vertices)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"


def test_c09_correspondence_monotonicity():
    with criterion(9, "cesaro products at k=5 increase with theta and vanish "
                      "toward the D_s -> 1 end"):
        thetas = (61.0, 70.0, 80.0, 89.0)
        products = [
            uncertainty_table(builtin("cesaro", angle_deg=t), UNIT_CTX, 5)[5].dP_k
            for t in thetas
        ]
        for a, b in zip(products, products[1:]):
            assert b > a
        tail = [
            uncertainty_table(builtin("cesaro", angle_deg=t), UNIT_CTX, 5)[5].dP_k
            for t in (30.0, 10.0, 3.0, 1.0)
        ]
        for a, b in zip(tail, tail[1:]):
            assert b < a
        assert tail[-1] < 1e-5


def test_c10_determinism_and_round_trip(tmp_path):
    with criterion(10, "CLI outputs byte-identical across runs; JSON round-trips"):
        runner = CliRunner()
        commands = [
            ["generate", "--generator", "koch", "--level", "4"],
            ["generate", "--generator", "cesaro", "--angle", "72.5", "--level", "3"],
            ["analyze", "--generator", "peano", "--k-max", "12"],
            ["analyze", "--generator", "koch", "--k-max", "8", "--format", "csv"],
            ["brownian", "--n", "500", "--seed", "99"],
        ]
        for args in commands:
            first = runner.invoke(cli_main, args, catch_exceptions=False)
            second = runner.invoke(cli_main, args, catch_exceptions=False)
            assert first.exit_code == 0 and second.exit_code == 0
            assert first.output == second.output, args
        # svg output determinism goes through files
        for name in ("one.svg", "two.svg"):
            res = runner.invoke(
                cli_main,
                ["generate", "--generator", "koch", "--level", "3",
                 "--out", str(tmp_path / name)],
                catch_exceptions=False,
            )
            assert res.exit_code == 0
        assert (tmp_path / "one.svg").read_bytes() == (tmp_path / "two.svg").read_bytes()

        # lossless JSON round-trips for every data type
        poly = refine(base_segment(1.0), builtin("koch"), 4)
        back = polyline_from_dict(json.loads(json.dumps(polyline_to_dict(poly))))
        assert np.array_equal(back.vertices, poly.vertices)
        assert back.level == poly.level

        spec = builtin("cesaro", angle_deg=33.3)
        spec_back = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
        assert spec_back.rho == spec.rho
        assert np.array_equal(spec_back.displacements, spec.displacements)

        koch = builtin("koch")
        rows = scale_table(koch, 1.0, 1.0, 20)
        bundle = analysis_to_dict(koch, UNIT_CTX, classify_regime(koch, UNIT_CTX), rows, [], None)
        assert json.loads(json.dumps(bundle))["scales"] == [dataclasses.asdict(r) for r in rows]

        meas = measure_polyline(poly, range(1, 5), rho=3.0)
        assert measurement_from_dict(
            json.loads(json.dumps(measurement_to_dict(meas)))
        ) == meas

        from fractalkin.kinematics import verify_bounds

        report = verify_bounds(builtin("peano"), UNIT_CTX, range(1, 21))
        data = json.loads(json.dumps(bounds_report_to_dict(report)))
        assert [tuple(r.values()) for r in data["rows"]] == [
            dataclasses.astuple(r) for r in report.rows]
        assert data["eta0"] == report.eta0
