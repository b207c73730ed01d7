import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fractalkin.estimator import brownian_path, divider_count, grid_count, measure_polyline
from fractalkin.geometry import (
    K_MAX,
    GeneratorSpec,
    Polyline,
    _check_k,
    _check_positive,
    base_segment,
    builtin,
    refine,
)
from fractalkin.kinematics import ParticleContext
from fractalkin.measures import resolution, scale_table
from fractalkin.render import RenderOptions

LOG3_4 = math.log(4.0) / math.log(3.0)

# per-builtin refinement depth that stays inside a sane test budget
DEPTH_BUDGET = {"line": 10, "koch": 10, "peano": 6}


@pytest.mark.parametrize(
    "name,expected",
    [("line", 1.0), ("koch", LOG3_4), ("peano", 2.0)],
)
def test_similarity_dimension_builtins(name, expected):
    assert builtin(name).ds == pytest.approx(expected, abs=1e-12)


def test_line_spec_shape():
    line = builtin("line")
    assert line.rho == 3.0
    assert line.n == 3
    assert np.allclose(line.displacements, [[1.0, 0.0]] * 3)


def test_koch_spec_displacements():
    koch = builtin("koch")
    s = math.sqrt(3.0) / 2.0
    assert koch.rho == 3.0
    assert np.allclose(
        koch.displacements,
        [[1.0, 0.0], [0.5, s], [0.5, -s], [1.0, 0.0]],
        atol=1e-15,
    )


def test_peano_spec_invariants():
    peano = builtin("peano")
    assert peano.n == 9
    assert peano.ds == pytest.approx(2.0, abs=1e-12)
    assert tuple(map(math.fsum, zip(*peano.displacements))) == (3.0, 0.0)


def test_spec_stores_float_pairs_from_a_list_or_an_array():
    koch = builtin("koch")
    from_array = GeneratorSpec("koch", 3.0, np.array(koch.displacements))
    assert from_array.displacements == koch.displacements
    assert all(type(c) is float for d in from_array.displacements for c in d)
    assert builtin("peano").displacements[1] == (0.0, 1.0)


def test_spec_refuses_nan_displacements():
    with pytest.raises(ValueError, match="unit length"):
        GeneratorSpec("nan", 3.0, [[math.nan, 0.0]] * 3)


def test_cesaro_60_matches_koch():
    # direct-construction oracle: at 60 degrees the cesaro rule must
    # reproduce the koch rule (rho = 2(1 + 1/2) = 3)
    ces = builtin("cesaro", angle_deg=60.0)
    koch = builtin("koch")
    assert ces.rho == pytest.approx(3.0, abs=1e-12)
    assert ces.n == koch.n
    assert np.allclose(ces.displacements, koch.displacements, atol=1e-12)
    assert ces.ds == pytest.approx(koch.ds, abs=1e-12)


@pytest.mark.parametrize("angle", [0.0, 90.0, -5.0, 180.0])
def test_cesaro_angle_open_interval(angle):
    with pytest.raises(ValueError):
        builtin("cesaro", angle_deg=angle)


@pytest.mark.parametrize("angle,name", [
    (85, "cesaro-85"), (85.0, "cesaro-85"), (85.00001, "cesaro-85.00001"), (12.5, "cesaro-12.5"),
    (1e-05, "cesaro-1e-05"), (89.99999999999999, "cesaro-89.99999999999999"),
])
def test_cesaro_names_each_angle_apart(angle, name):
    # six significant digits named 85.00001 "cesaro-85", and the largest
    # float below 90 "cesaro-90", an angle the family refuses
    assert builtin("cesaro", angle_deg=angle).name == name


def test_cesaro_ds_sweeps_one_to_two():
    angles = np.linspace(60.0, 89.99, 40)
    ds = [builtin("cesaro", angle_deg=a).ds for a in angles]
    assert ds[0] == pytest.approx(1.26186, abs=1e-5)
    assert ds[-1] > 1.999
    assert all(b > a for a, b in zip(ds, ds[1:]))


def test_angle_rejected_for_non_cesaro():
    with pytest.raises(ValueError):
        builtin("koch", angle_deg=30.0)


def test_unknown_generator():
    with pytest.raises(ValueError):
        builtin("sierpinski")


def test_refine_k0_is_identity():
    base = base_segment(2.5)
    out = refine(base, builtin("koch"), 0)
    assert np.array_equal(out.vertices, base.vertices)
    assert out.level == 0


@pytest.mark.parametrize("k,nverts,length", [(1, 5, 4.0 / 3.0), (2, 17, 16.0 / 9.0)])
def test_refine_koch_levels(k, nverts, length):
    poly = refine(base_segment(1.0), builtin("koch"), k)
    assert poly.n_vertices == nverts
    assert poly.arc_length() == pytest.approx(length, rel=1e-12)
    assert poly.level == k


def test_refine_vertex_count_law():
    for name in ("line", "koch", "peano"):
        spec = builtin(name)
        poly = refine(base_segment(1.0), spec, 3)
        assert poly.n_vertices == spec.n**3 + 1


def test_refine_endpoints_bitwise():
    base = base_segment(1.0)
    for name in ("line", "koch", "peano"):
        poly = refine(base, builtin(name), 4)
        assert np.array_equal(poly.vertices[0], base.vertices[0])
        assert np.array_equal(poly.vertices[-1], base.vertices[-1])
    # an arbitrarily rotated base keeps exact endpoints too
    tilted = Polyline(np.array([[0.3, -0.2], [1.7, 2.9]]))
    poly = refine(tilted, builtin("koch"), 3)
    assert np.array_equal(poly.vertices[0], tilted.vertices[0])
    assert np.array_equal(poly.vertices[-1], tilted.vertices[-1])


def test_refine_memory_cap():
    with pytest.raises(ValueError, match="cap"):
        refine(base_segment(1.0), builtin("peano"), 10)  # 9^10 + 1 vertices
    with pytest.raises(ValueError, match="cap"):
        refine(base_segment(1.0), builtin("koch"), 14)  # 4^14 + 1 vertices
    # named by its level: 4^10000 + 1 has more digits than str() of an int may take
    with pytest.raises(ValueError, match="^refinement to level 10000 needs more "
                                         "vertices than the cap of 100000000$"):
        refine(base_segment(1.0), builtin("koch"), 10_000)


def test_check_k_bounds_every_index_by_k_max():
    assert K_MAX == 100_000
    assert _check_k(K_MAX) == K_MAX
    assert _check_k(float(K_MAX)) == K_MAX
    for k in (K_MAX + 1, 10**9, 10**9 + 0.0, np.int64(K_MAX + 1)):
        with pytest.raises(ValueError, match=r"^k must be <= 100000$"):
            _check_k(k)


def test_refine_rejects_bad_k():
    base = base_segment(1.0)
    with pytest.raises(ValueError):
        refine(base, builtin("koch"), -1)
    with pytest.raises(ValueError):
        refine(base, builtin("koch"), 1.5)
    with pytest.raises(ValueError):
        refine(base, builtin("koch"), True)


@pytest.mark.parametrize("k", [math.inf, math.nan, None])
def test_refine_refuses_non_integral_k_with_one_message(k):
    # int(k) raised OverflowError, "cannot convert float NaN to integer"
    # and TypeError for these three
    with pytest.raises(ValueError, match="^k must be an integer$"):
        refine(base_segment(1.0), builtin("koch"), k)


@pytest.mark.parametrize("k", [2.0, np.int64(2)])
def test_refine_takes_any_integral_k(k):
    # the one scale-index rule of scale_table and refine alike
    poly = refine(base_segment(1.0), builtin("koch"), k)
    assert poly.level == 2 and poly.n_segments == 16


def test_arc_length_law_builtins():
    # arc length of the level-k polyline must match L0 (N/rho)^k
    for name, depth in DEPTH_BUDGET.items():
        spec = builtin(name)
        base = base_segment(1.0)
        for k in range(depth + 1):
            expected = (spec.n / spec.rho) ** k
            measured = refine(base, spec, k).arc_length()
            assert measured == pytest.approx(expected, rel=1e-9), (name, k)


@settings(max_examples=20, deadline=None)
@given(
    angle=st.floats(min_value=5.0, max_value=89.0),
    k=st.integers(min_value=0, max_value=6),
)
def test_arc_length_law_cesaro(angle, k):
    spec = builtin("cesaro", angle_deg=angle)
    measured = refine(base_segment(1.0), spec, k).arc_length()
    assert measured == pytest.approx((spec.n / spec.rho) ** k, rel=1e-9)


@pytest.mark.parametrize("name,a,b", [("koch", 2, 3), ("line", 3, 2), ("peano", 1, 2)])
def test_refine_composition(name, a, b):
    spec = builtin(name)
    base = base_segment(1.0)
    two_step = refine(refine(base, spec, a), spec, b)
    one_step = refine(base, spec, a + b)
    assert two_step.n_vertices == one_step.n_vertices
    assert np.allclose(two_step.vertices, one_step.vertices, atol=1e-9)
    assert two_step.level == one_step.level


def test_generator_validation():
    with pytest.raises(ValueError, match="unit"):
        GeneratorSpec("bad", 3.0, np.array([[2.0, 0.0], [0.5, 0.0], [0.5, 0.0]]))
    with pytest.raises(ValueError, match="sum"):
        GeneratorSpec("bad", 3.0, np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="rho"):
        GeneratorSpec("bad", 1.0, np.array([[1.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="span"):
        # N = 2 < rho = 3 cannot bridge the parent with unit steps
        GeneratorSpec("bad", 3.0, np.array([[1.5, 0.0], [1.5, 0.0]]))


def test_polyline_validation():
    with pytest.raises(ValueError):
        Polyline(np.array([[0.0, 0.0]]))
    with pytest.raises(ValueError, match="distinct"):
        Polyline(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]))
    with pytest.raises(ValueError):
        Polyline(np.zeros((3, 3)))


@pytest.mark.parametrize("vertices", [
    np.array([[0.0, 0.0], [1.0, 2.0]], dtype=object),
    np.array([[0.0, 0.0], [1.0, {}]], dtype=object),
    np.array([[False, False], [True, False]]),
    np.array([[0, 0], [1, 2j]]),
    np.array([["0", "0"], ["1", "2"]]),
], ids=["object-floats", "object-dict", "bool", "complex", "string"])
def test_polyline_refuses_an_array_that_is_not_numeric(vertices):
    # an object array of floats was read as numbers, and one holding a dict
    # raised TypeError
    with pytest.raises(ValueError, match="^vertices must be numbers$"):
        Polyline(vertices)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_polyline_rejects_non_finite_vertices(bad):
    with pytest.raises(ValueError, match="vertices must be finite"):
        Polyline(np.array([[0.0, 0.0], [bad, 1.0], [2.0, 0.0]]))


MAX_FLOAT = 1.7976931348623157e308


@pytest.mark.parametrize("vertices", [
    [[-1e308, 0.0], [1e308, 0.0]],
    [[0.0, MAX_FLOAT], [1.0, -MAX_FLOAT]],
    [[0.0, 0.0], [MAX_FLOAT, 1.0], [-1e300, 2.0]],
], ids=["x", "y", "past-max"])
def test_polyline_refuses_an_extent_past_float64(vertices):
    # grid_count counted 2 cells for a segment that crosses 21, and only
    # measure_polyline refused such a set
    with pytest.raises(ValueError, match="^the polyline's extent overflows float64$"):
        Polyline(np.array(vertices))


def test_polyline_takes_an_extent_of_float_max():
    assert Polyline(np.array([[-MAX_FLOAT / 2, 0.0], [MAX_FLOAT / 2, 1.0]])).diameter() == MAX_FLOAT
    assert Polyline(np.array([[0.0, 0.0], [MAX_FLOAT, 1.0]])).diameter() == MAX_FLOAT


def test_arc_length_past_float64_is_inf_without_a_warning():
    # it warned "overflow encountered in reduce", which the suite's
    # error::RuntimeWarning filter turns into a failure
    zigzag = Polyline(np.array([[0, 0], [1e308, 0], [0, 1], [1e308, 1], [0, 2]]))
    assert zigzag.arc_length() == math.inf


def test_polyline_is_immutable():
    poly = base_segment(1.0)
    with pytest.raises(ValueError):
        poly.vertices[0, 0] = 5.0


def test_polyline_geometry_helpers():
    poly = Polyline(np.array([[0.0, 0.0], [3.0, 4.0], [3.0, 5.0]]))
    assert poly.arc_length() == pytest.approx(6.0)
    assert poly.bounds() == (0.0, 0.0, 3.0, 5.0)
    assert poly.diameter() == 5.0
    assert poly.n_segments == 2


KOCH = builtin("koch")

#: every positive, finite real the library takes: the name its refusal
#: gives, and a call that passes a value to it
POSITIVE_INPUTS = {
    "base_segment": ("l0", lambda x: base_segment(x)),
    "resolution": ("dx0", lambda x: resolution(1, x, 3.0)),
    "scale_table-l0": ("l0", lambda x: scale_table(KOCH, x, 1.0, 2)),
    "scale_table-dt": ("dt", lambda x: scale_table(KOCH, 1.0, x, 2)),
    "ParticleContext-m": ("m", lambda x: ParticleContext(m=x, dt=1.0, L0=1.0)),
    "ParticleContext-dt": ("dt", lambda x: ParticleContext(m=1.0, dt=x, L0=1.0)),
    "ParticleContext-L0": ("L0", lambda x: ParticleContext(m=1.0, dt=1.0, L0=x)),
    "grid_count": ("cell", lambda x: grid_count(base_segment(1.0), x)),
    "divider_count": ("step", lambda x: divider_count(base_segment(1.0), x)),
    "brownian_path": ("step_std", lambda x: brownian_path(10, 0, x)),
    "measure_polyline": ("base length",
                         lambda x: measure_polyline(base_segment(1.0), [1], base_length=x, fit=False)),
    "RenderOptions-stroke_width": ("stroke_width", lambda x: RenderOptions(stroke_width=x)),
    "RenderOptions-grid_step": ("grid_step", lambda x: RenderOptions(grid_step=x)),
}


@pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf], ids=str)
@pytest.mark.parametrize("name,call", POSITIVE_INPUTS.values(), ids=POSITIVE_INPUTS)
def test_every_positive_input_is_refused_by_one_check(name, call, value):
    # three wordings before; base_segment and brownian_path let inf on to
    # "vertices must be finite", and RenderOptions into the SVG as "inf"
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be positive and finite, "
                                         f"got {value}$"):
        call(value)


def test_check_positive_returns_a_float():
    assert _check_positive("x", 3) == 3.0 and type(_check_positive("x", 3)) is float
    assert type(_check_positive("x", np.float64(0.5))) is float
    with pytest.raises(ValueError, match="^x must be positive and finite, got 1000"):
        _check_positive("x", 10**400)  # an int past float64
