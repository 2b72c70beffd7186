"""Model-surface trigonometry: kernels, validated operations, invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmpk import kernels, model, vector
from cmpk.errors import DegenerateConfigError, ModelDomainError

from oracles import angle_from_sides, third_side

PI = math.pi


def sample_admissible(rng, k_range=(-4.0, 4.0)):
    """Random (k, a, b, gamma) admissible with perimeter headroom."""
    k = rng.uniform(*k_range)
    cap = 1.2 if k <= 0 else min(1.2, 0.22 * model.max_perimeter(k))
    a = rng.uniform(0.02, cap)
    b = rng.uniform(0.02, cap)
    gamma = rng.uniform(0.01, PI - 0.01)
    return k, a, b, gamma


# ---------------------------------------------------------------------------
# generalized cos / sin


def test_quarter_circle():
    assert model.generalized_cos(1.0, PI / 2) == pytest.approx(0.0, abs=1e-15)
    assert model.generalized_sin(1.0, PI / 2) == pytest.approx(1.0, rel=1e-15)


def test_flat_limit_matches_series():
    # k = 0 exactly takes the series branch
    assert model.generalized_cos(0.0, 3.0) == 1.0
    assert model.generalized_sin(0.0, 3.0) == 3.0


def test_hyperbolic_cos_is_cosh():
    assert model.generalized_cos(-1.0, 1.0) == pytest.approx(math.cosh(1.0), rel=1e-15)
    assert model.generalized_sin(-1.0, 1.0) == pytest.approx(math.sinh(1.0), rel=1e-15)


def test_series_branch_is_continuous():
    d = 1.0
    for k_mag in (0.9e-8, 1.1e-8):  # straddle the cutoff |k| d^2 = 1e-8
        for k in (k_mag, -k_mag):
            assert kernels.cs(k, d) == pytest.approx(math.cos(math.sqrt(abs(k))) if k > 0 else math.cosh(math.sqrt(-k)), abs=1e-14)
            assert kernels.sn(k, d) == pytest.approx(d, abs=1e-8)


def test_length_domain_errors():
    with pytest.raises(ModelDomainError):
        model.generalized_cos(1.0, PI)  # d >= pi/sqrt(k)
    with pytest.raises(ModelDomainError):
        model.generalized_cos(0.0, -0.1)
    with pytest.raises(ModelDomainError):
        model.generalized_cos(float("nan"), 1.0)
    with pytest.raises(ModelDomainError):
        model.generalized_sin(0.0, float("inf"))
    with pytest.raises(ModelDomainError):
        model.generalized_cos(-1e6, 1.0)  # overflow guard


# ---------------------------------------------------------------------------
# side_from_angle


def test_gougu_3_4_5():
    assert model.side_from_angle(0.0, 3.0, 4.0, PI / 2) == pytest.approx(5.0, abs=1e-12)


@pytest.mark.parametrize("k", [-2.0, -1.0, 0.0, 1.0, 2.0])
def test_straight_concatenation(k):
    a, b = 0.4, 0.7
    assert model.side_from_angle(k, a, b, PI) == pytest.approx(a + b, rel=1e-13)


def test_spherical_quarter_legs_reduce_to_angle():
    # cos c = cos gamma when both legs are quarter circles; checked against
    # the rotation-construction oracle as well
    for gamma in (0.3, 0.7, 1.2, 2.4):
        c = model.side_from_angle(1.0, PI / 2, PI / 2, gamma)
        assert c == pytest.approx(gamma, rel=1e-12)
        assert c == pytest.approx(third_side(1.0, PI / 2, PI / 2, gamma), rel=1e-12)


def test_side_matches_construction_oracle(rng):
    for _ in range(300):
        k, a, b, gamma = sample_admissible(rng)
        c = model.side_from_angle(k, a, b, gamma)
        assert c == pytest.approx(third_side(k, a, b, gamma), abs=1e-11)


def test_side_domain_errors():
    with pytest.raises(ModelDomainError):
        model.side_from_angle(0.0, 1.0, 1.0, 3.5)  # gamma > pi
    with pytest.raises(ModelDomainError):
        # gamma = pi with a + b > pi/sqrt(k): concatenation is not minimal and
        # the would-be triple sits exactly on the 2 pi perimeter bound
        model.side_from_angle(1.0, 2.0, 2.0, PI)
    with pytest.raises(ModelDomainError):
        model.side_from_angle(1.0, 3.2, 0.1, 1.0)  # leg beyond pi/sqrt(k)


# ---------------------------------------------------------------------------
# comparison_angle


def test_euclidean_pythagoras_triple():
    assert model.comparison_angle(0.0, (3.0, 4.0, 5.0)) == pytest.approx(PI / 2, abs=1e-12)


def test_octant_equilateral_all_right_angles():
    assert model.comparison_angle(1.0, (PI / 2, PI / 2, PI / 2)) == pytest.approx(PI / 2, abs=1e-12)


def test_collinear_triple_gives_pi():
    assert model.comparison_angle(0.0, (1.0, 2.0, 3.0)) == pytest.approx(PI, abs=1e-12)


def test_hyperbolic_right_angle_triple():
    hyp = math.acosh(math.cosh(1.0) ** 2)
    assert model.comparison_angle(-1.0, (1.0, 1.0, hyp)) == pytest.approx(PI / 2, abs=1e-12)


def test_angle_matches_bisection_oracle(rng):
    for _ in range(120):
        k, a, b, gamma = sample_admissible(rng)
        c = third_side(k, a, b, gamma)
        got = model.comparison_angle(k, (a, b, c))
        assert got == pytest.approx(angle_from_sides(k, a, b, c), abs=1e-9)


def test_angle_degenerate_and_domain_errors():
    with pytest.raises(DegenerateConfigError):
        model.comparison_angle(0.0, (0.0, 1.0, 1.0))
    with pytest.raises(ModelDomainError):
        model.comparison_angle(0.0, (1.0, 1.0, 2.1))  # triangle inequality
    with pytest.raises(ModelDomainError):
        model.comparison_angle(1.0, (2.5, 2.5, 2.0))  # perimeter bound
    # passes the (relative) triangle-inequality slack but exceeds the clamp
    # tolerance: must be reported, not silently clamped
    with pytest.raises(ModelDomainError):
        model.comparison_angle(0.0, (1.0, 1.0, 2.0 + 3e-9))


def test_zero_opposite_side_gives_zero_angle():
    assert model.comparison_angle(0.0, (0.5, 0.5, 0.0)) == pytest.approx(0.0, abs=1e-12)


# ---------------------------------------------------------------------------
# pythagorean_defect


def test_defect_signs():
    assert model.pythagorean_defect(0.0, 3.0, 4.0, 5.0) == pytest.approx(0.0, abs=1e-12)
    # spherical hypotenuse of legs (0.3, 0.4) is shorter than 0.5
    assert third_side(1.0, 0.3, 0.4, PI / 2) < 0.5
    assert model.pythagorean_defect(1.0, 0.3, 0.4, 0.5) > 0.0
    # hyperbolic hypotenuse is longer than 0.5
    assert third_side(-1.0, 0.3, 0.4, PI / 2) > 0.5
    assert model.pythagorean_defect(-1.0, 0.3, 0.4, 0.5) < 0.0


# ---------------------------------------------------------------------------
# comparison_distances at one t


def distance_at(k, d_qp, d_qr, d_pr, t):
    return model.comparison_distances(k, d_qp, d_qr, d_pr, (t,))[0]


def test_distance_at_endpoints():
    assert distance_at(0.7, 0.3, 0.4, 0.5, 0.0) == 0.3
    assert distance_at(0.7, 0.3, 0.4, 0.5, 0.5) == 0.4


def test_distance_at_planar_right_angle():
    d = distance_at(0.0, 1.0, math.sqrt(2.0), 1.0, 0.5)
    assert d == pytest.approx(math.sqrt(1.25), rel=1e-12)


def test_distance_at_octant_apex():
    # every point of the far side of an octant is a quarter circle from the apex
    d = distance_at(1.0, PI / 2, PI / 2, PI / 2, PI / 4)
    assert d == pytest.approx(PI / 2, rel=1e-12)


def test_distance_at_rejects_t_outside_the_segment():
    with pytest.raises(ModelDomainError, match=r"^t=0\.6 outside \[0, 0\.5\]$"):
        distance_at(0.7, 0.3, 0.4, 0.5, 0.6)
    # within GEO of an endpoint clamps onto it
    assert distance_at(0.7, 0.3, 0.4, 0.5, 0.5 + 5e-10) == 0.4


def _distances_or_error(fn):
    try:
        return fn()
    except Exception as e:  # the same exception either way, whatever it is
        return type(e), str(e)


@given(
    k=st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0, 30.0, -1e4])),
    sides=st.tuples(st.floats(0.0, 1.5), st.floats(0.0, 1.5), st.floats(0.0, 1.5)),
    fractions=st.lists(st.floats(-0.01, 1.01), max_size=6),
    endpoints=st.lists(st.sampled_from([0.0, 1.0]), max_size=2),
)
@settings(max_examples=300, deadline=None)
def test_comparison_distances_equal_a_loop_of_distance_at(k, sides, fractions, endpoints):
    d_qp, d_qr, d_pr = sides
    ts = [f * d_pr for f in fractions + endpoints]  # t = 0 and t = d_pr included
    batched = _distances_or_error(lambda: model.comparison_distances(k, d_qp, d_qr, d_pr, ts))
    looped = _distances_or_error(
        lambda: [distance_at(k, d_qp, d_qr, d_pr, t) for t in ts])
    assert batched == looped


# ---------------------------------------------------------------------------
# invariants


@given(st.floats(-4.0, 4.0), st.floats(0.05, 1.0), st.floats(0.05, 1.0),
       st.floats(0.02, PI - 0.02))
@settings(max_examples=200, deadline=None)
def test_round_trip_property(k, a, b, gamma):
    if k > 0:
        cap = 0.22 * model.max_perimeter(k)
        a, b = min(a, cap), min(b, cap)
    c = model.side_from_angle(k, a, b, gamma)
    assert abs(model.comparison_angle(k, (a, b, c)) - gamma) <= 1e-9


def test_monotonicity_in_k(rng):
    ks = np.linspace(-4.0, 4.0, 9)
    for _ in range(200):
        a, b, gamma = rng.uniform(0.05, 0.6), rng.uniform(0.05, 0.6), rng.uniform(0.2, PI - 0.2)
        c = model.side_from_angle(0.0, a, b, gamma)
        angles = [model.comparison_angle(k, (a, b, c)) for k in ks]
        diffs = np.diff(angles)
        assert (diffs >= -1e-12).all()


def test_continuity_at_zero(rng):
    for _ in range(100):
        a, b, gamma = rng.uniform(0.05, 1.0), rng.uniform(0.05, 1.0), rng.uniform(0.1, PI - 0.1)
        c = model.side_from_angle(0.0, a, b, gamma)
        for k in (1e-8, -1e-8):
            d = abs(model.comparison_angle(k, (a, b, c)) - model.comparison_angle(0.0, (a, b, c)))
            assert d < 1e-7


def test_right_angle_identity_relative(rng):
    for _ in range(300):
        k, a, b, _ = sample_admissible(rng)
        c = model.side_from_angle(k, a, b, PI / 2)
        lhs = model.generalized_cos(k, c)
        rhs = model.generalized_cos(k, a) * model.generalized_cos(k, b)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def model_angles(k, a, b, c):
    """The model triangle's angles opposite the sides a, b and c."""
    return (model.comparison_angle(k, (b, c, a)), model.comparison_angle(k, (c, a, b)),
            model.comparison_angle(k, (a, b, c)))


def test_angle_sum_sign_matches_k(rng):
    for k in (-2.0, -0.5, 0.5, 2.0):
        for _ in range(50):
            cap = 0.8 if k < 0 else min(0.8, 0.2 * model.max_perimeter(k))
            a, b = rng.uniform(0.2, cap), rng.uniform(0.2, cap)
            gamma = rng.uniform(0.5, PI - 0.5)
            c = model.side_from_angle(k, a, b, gamma)
            excess = sum(model_angles(k, a, b, c)) - PI
            assert math.copysign(1.0, excess) == math.copysign(1.0, k)
    # flat triangles sum to pi
    assert sum(model_angles(0.0, 3.0, 4.0, 5.0)) - PI == pytest.approx(0.0, abs=1e-12)


def test_comparison_triangle_reproduces_sides():
    a, b, c = 0.3, 0.4, 0.5
    angles = model_angles(0.7, a, b, c)
    assert model.side_from_angle(0.7, b, c, angles[0]) == pytest.approx(a, abs=1e-12)
    assert model.side_from_angle(0.7, c, a, angles[1]) == pytest.approx(b, abs=1e-12)
    assert model.side_from_angle(0.7, a, b, angles[2]) == pytest.approx(c, abs=1e-12)


# ---------------------------------------------------------------------------
# the kernels on floats and on arrays


def kernel_grid(rng):
    """(k, d) pairs over both signs of k, k = 0 and the series branches."""
    for i in range(300):
        k = (0.0, 1e-12, -1e-12)[i % 3] if i % 5 == 0 else rng.uniform(-4.0, 4.0)
        cap = 1.2 if k <= 0 else 0.9 * PI / math.sqrt(k)
        d = rng.uniform(0.0, cap, 24)
        d[:4] = rng.uniform(0.0, 1e-5, 4)  # |k| d^2 under SERIES_EPS
        d[4] = 0.0
        yield k, d


def parity_grid(rng):
    """`kernel_grid`, and k = +-0, subnormal k and d either side of |k| d^2 = SERIES_EPS."""
    yield from kernel_grid(rng)
    for k in (0.0, -0.0, 5e-324, -5e-324, 1e-3, -1e-3, 2.5, -2.5):
        d = rng.uniform(0.0, 1.2, 24)
        d[0] = 0.0
        if abs(k) > 1e-300:
            cut = math.sqrt(kernels.SERIES_EPS / abs(k))
            d[1:5] = cut * np.array([1.0 - 1e-6, 1.0 - 1e-15, 1.0 + 1e-15, 1.0 + 1e-6])
        yield k, d


def arc_inputs(k, d):
    """vcs of every d, and for normal k > 0 values with x2 = k v / 2 at 0.5 +- ILL and near 1."""
    v = [kernels.vcs(k, float(x)) for x in d] + [-1e-18, 0.0]
    if k > 1e-300:
        ill = vector.ILL
        x2 = [0.5 - 2 * ill, 0.5 - ill, 0.5, 0.5 + ill, 0.5 + 2 * ill,
              1.0 - 2 * ill, 1.0 - ill, 1.0 - 1e-12, 1.0, 1.0 + 1e-12]
        v += [2.0 * x / k for x in x2]
    return np.array(v)


def kernel_args(fn, k, d, rng):
    """Arrays of arguments of the named kernel at k, from the grid's d."""
    a = d[d > 0.0]
    b, c = rng.permutation(a), rng.permutation(a)
    return {"arc_from_vcs": (arc_inputs(k, d),), "cos_angle_from_sides": (a, b, c),
            "side_from_angle_cos": (a, b, rng.uniform(-1.0, 1.0, a.size))}.get(fn, (d,))


@pytest.mark.parametrize("fn", ["cs", "sn", "vcs", "arc_from_vcs", "cos_angle_from_sides",
                                "side_from_angle_cos"])
def test_vector_kernels_match_scalar_kernels(rng, fn):
    # one kernel on floats (SCALAR, the scalar evaluator's) and on arrays: bit for
    # bit with vector.MATH (the exact pass's), to a few roundings with vector.NUMPY
    # (the screens'), where the composites may cancel
    kernel = getattr(kernels, fn)
    for k, d in parity_grid(rng):
        args = kernel_args(fn, k, d, rng)
        want = np.array([kernel(k, *map(float, xs)) for xs in zip(*args)])
        got = kernel(k, *args, vector.MATH)
        assert got.view(np.int64).tolist() == want.view(np.int64).tolist(), f"k={k}"
        if fn in ("cs", "sn", "vcs", "arc_from_vcs"):
            np.testing.assert_allclose(kernel(k, *args, vector.NUMPY), want,
                                       rtol=2e-15, atol=0.0, err_msg=f"k={k}")


@pytest.mark.parametrize("k", [0.0, -0.0])
def test_scalar_kernels_take_the_series_at_k_zero(k):
    assert (kernels.cs(k, 3.0), kernels.sn(k, 3.0), kernels.vcs(k, 3.0)) == (1.0, 3.0, 4.5)
    assert kernels.arc_from_vcs(k, 4.5) == 3.0
    assert kernels.cos_angle_from_sides(k, 3.0, 4.0, 5.0) == 0.0
    assert kernels.side_from_angle_cos(k, 3.0, 4.0, 0.0) == 5.0


def test_arcs_near_the_branch_switch_or_the_antipodal_clamp_are_ill_conditioned():
    ill = vector.ILL
    x2 = np.array([0.25, 0.5 - 2 * ill, 0.5 - ill / 2, 0.5 + ill / 2, 0.5 + 2 * ill,
                   1.0 - 2 * ill, 1.0 - ill / 2, 1.0, 1.5, np.nan])
    want = [False, False, True, True, False, False, True, True, True, False]
    for k in (0.5, 2.0):
        assert vector._ill(k, 2.0 * x2 / k).tolist() == want
    for k in (0.0, -0.0, -2.0):  # no branch switch, no clamp
        assert not vector._ill(k, 2.0 * x2).any()


def test_arc_from_vcs_inverts_vcs(rng):
    for k, d in kernel_grid(rng):
        back = [kernels.arc_from_vcs(k, kernels.vcs(k, float(v))) for v in d]
        np.testing.assert_allclose(back, d, rtol=2e-15, atol=0.0, err_msg=f"k={k}")


# ---------------------------------------------------------------------------
# validation: exception type and exact message for each rejected input

NAN, INF = math.nan, math.inf

VALIDATION_CASES = [
    (model.generalized_cos, (NAN, 0.5), ModelDomainError, "k must be finite, got nan"),
    (model.generalized_cos, (INF, 0.5), ModelDomainError, "k must be finite, got inf"),
    (model.generalized_cos, (-INF, 0.5), ModelDomainError, "k must be finite, got -inf"),
    (model.generalized_cos, (1.0, NAN), ModelDomainError, "d must be finite, got nan"),
    (model.generalized_cos, (1.0, INF), ModelDomainError, "d must be finite, got inf"),
    (model.generalized_cos, (NAN, NAN), ModelDomainError, "k must be finite, got nan"),
    (model.generalized_cos, (1.0, -0.5), ModelDomainError, "d must be >= 0, got -0.5"),
    (model.generalized_cos, (4.0, PI / 2), ModelDomainError,
     "d=1.5707963267948966 violates d < pi/sqrt(k) = 1.5707963267948966 for k=4.0"),
    (model.generalized_cos, (-1.0, 100.5), ModelDomainError,
     "sqrt(-k)*d = 100 exceeds the representable range"),
    (model.generalized_sin, (0.0, -INF), ModelDomainError, "d must be finite, got -inf"),
    (model.comparison_angle, (NAN, (0.3, 0.4, 0.5)), ModelDomainError, "k must be finite, got nan"),
    (model.comparison_angle, (-INF, (0.3, 0.4, 0.5)), ModelDomainError,
     "k must be finite, got -inf"),
    (model.comparison_angle, (0.0, (NAN, 0.4, 0.5)), ModelDomainError, "a must be finite, got nan"),
    (model.comparison_angle, (0.0, (0.3, INF, 0.5)), ModelDomainError, "b must be finite, got inf"),
    (model.comparison_angle, (0.0, (0.3, 0.4, -INF)), ModelDomainError,
     "c must be finite, got -inf"),
    (model.comparison_angle, (0.0, (-0.3, 0.4, 0.5)), ModelDomainError,
     "sides must be >= 0, got (-0.3, 0.4, 0.5)"),
    (model.comparison_angle, (0.0, (1.0, 1.0, 3.0)), ModelDomainError,
     "triangle inequality violated by (1.0, 1.0, 3.0)"),
    (model.comparison_angle, (0.0, (3.0, 1.0, 1.0)), ModelDomainError,
     "triangle inequality violated by (3.0, 1.0, 1.0)"),
    (model.comparison_angle, (0.0, (1.0, 3.0, 1.0)), ModelDomainError,
     "triangle inequality violated by (1.0, 3.0, 1.0)"),
    (model.comparison_angle, (1.0, (3.2, 0.5, 3.0)), ModelDomainError,
     "a=3.2 violates a < pi/sqrt(k) = 3.141592653589793 for k=1.0"),
    (model.comparison_angle, (1.0, (2.5, 2.5, 2.5)), ModelDomainError,
     "perimeter 7.5 >= admissible bound 6.283184307179586 for k=1.0"),
    (model.comparison_angle, (1.0, (3.0, 3.0, 0.5)), ModelDomainError,
     "perimeter 6.5 >= admissible bound 6.283184307179586 for k=1.0"),
    (model.comparison_angle, (-4.0, (60.0, 50.0, 20.0)), ModelDomainError,
     "sqrt(-k)*a = 120 exceeds the representable range"),
    (model.comparison_angle, (0.0, (0.0, 1.0, 1.0)), DegenerateConfigError,
     "sides adjacent to the angle must be > 0, got (0.0, 1.0, 1.0)"),
    (model.comparison_angle, (0.0, (1.0, 1.0, 2.0 + 3e-9)), ModelDomainError,
     "cosine argument -1.0000000059999996 below -1 beyond clamp tolerance"),
    (model.side_from_angle, (NAN, 0.3, 0.4, 1.0), ModelDomainError, "k must be finite, got nan"),
    (model.side_from_angle, (INF, 0.3, 0.4, 1.0), ModelDomainError, "k must be finite, got inf"),
    (model.side_from_angle, (0.0, NAN, 0.4, 1.0), ModelDomainError, "a must be finite, got nan"),
    (model.side_from_angle, (0.0, 0.3, -INF, 1.0), ModelDomainError,
     "b must be finite, got -inf"),
    (model.side_from_angle, (0.0, -0.3, 0.4, 1.0), ModelDomainError, "a must be >= 0, got -0.3"),
    (model.side_from_angle, (0.0, 0.3, -0.4, 1.0), ModelDomainError, "b must be >= 0, got -0.4"),
    (model.side_from_angle, (0.0, 0.3, 0.4, NAN), ModelDomainError,
     "gamma must be finite, got nan"),
    (model.side_from_angle, (0.0, 0.3, 0.4, INF), ModelDomainError,
     "gamma must be finite, got inf"),
    (model.side_from_angle, (0.0, 0.3, 0.4, -0.1), ModelDomainError,
     "gamma must lie in [0, pi], got -0.1"),
    (model.side_from_angle, (0.0, 0.3, 0.4, 3.2), ModelDomainError,
     "gamma must lie in [0, pi], got 3.2"),
    (model.side_from_angle, (1.0, 3.2, 0.4, 1.0), ModelDomainError,
     "a=3.2 violates a < pi/sqrt(k) = 3.141592653589793 for k=1.0"),
    (model.side_from_angle, (1.0, 0.4, PI, 1.0), ModelDomainError,
     "b=3.141592653589793 violates b < pi/sqrt(k) = 3.141592653589793 for k=1.0"),
    (model.side_from_angle, (-1.0, 0.4, 101.0, 1.0), ModelDomainError,
     "sqrt(-k)*b = 101 exceeds the representable range"),
    (model.side_from_angle, (1.0, 3.0, 3.0, PI), ModelDomainError,
     "resulting triangle perimeter 6.283185307179587 is inadmissible for k=1.0"),
    (model.comparison_angle, (0.0, (NAN, 1.0, 1.0)), ModelDomainError,
     "a must be finite, got nan"),
    (model.comparison_angle, (0.0, (1.0, INF, 1.0)), ModelDomainError,
     "b must be finite, got inf"),
    (model.comparison_angle, (0.0, (1.0, 1.0, -INF)), ModelDomainError,
     "c must be finite, got -inf"),
    (model.comparison_angle, (0.0, (-1.0, 1.0, 1.0)), ModelDomainError,
     "sides must be >= 0, got (-1.0, 1.0, 1.0)"),
    (model.comparison_angle, (0.0, (1.0, 1.0, -0.1)), ModelDomainError,
     "sides must be >= 0, got (1.0, 1.0, -0.1)"),
    (model.comparison_angle, (0.0, (1.0, 1.0, 2.1)), ModelDomainError,
     "triangle inequality violated by (1.0, 1.0, 2.1)"),
    (model.comparison_angle, (0.0, (2.1, 1.0, 1.0)), ModelDomainError,
     "triangle inequality violated by (2.1, 1.0, 1.0)"),
    (model.comparison_angle, (0.0, (1.0, 2.1, 1.0)), ModelDomainError,
     "triangle inequality violated by (1.0, 2.1, 1.0)"),
    # just beyond the relative slack of 1e-9 * perimeter (4e-9 here)
    (model.comparison_angle, (0.0, (1.0, 1.0, 2.0 + 5e-9)), ModelDomainError,
     "triangle inequality violated by (1.0, 1.0, 2.000000005)"),
]


@pytest.mark.parametrize("fn, args, exc, message", VALIDATION_CASES)
def test_validation_exception_and_message(fn, args, exc, message):
    with pytest.raises(exc) as info:
        fn(*args)
    assert type(info.value) is exc
    assert str(info.value) == message


def test_side_triple_accepts_the_triangle_inequality_slack():
    assert model._check_sides(0.0, 1.0, 1.0, 2.0 + 3e-9) is None
