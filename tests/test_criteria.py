"""Criteria: foot finding, Pythagorean/point-segment/triangle tests, angles."""

import copy
import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmpk import config, criteria, estimator, spaces
from cmpk.errors import (
    DegenerateConfigError,
    FootOnBoundary,
    RightAngleUnavailable,
)

import oracles


PI = math.pi


@pytest.fixture
def plane():
    return spaces.EuclideanPlane()


@pytest.fixture
def sphere():
    return spaces.Sphere(1.0)


@pytest.fixture
def hyper():
    return spaces.Hyperbolic(-1.0)


@pytest.fixture
def tripod():
    return spaces.Tripod()


# ---------------------------------------------------------------------------
# foot of perpendicular


def test_foot_plane_midpoint(plane):
    seg = plane.geodesic(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    foot = criteria.foot_of_perpendicular(plane, np.array([0.0, 1.0]), seg)
    assert foot.t_star == pytest.approx(1.0, abs=1e-9)
    assert foot.d_star == pytest.approx(1.0, abs=1e-12)


def test_foot_polish_reaches_below_golden_floor(plane):
    # the parabolic polish must land far below the sqrt(eps)*L golden floor
    seg = plane.geodesic(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    foot = criteria.foot_of_perpendicular(plane, np.array([0.123456, 0.7]), seg)
    assert abs(foot.t_star - 1.123456) < 5e-10


def test_foot_sphere_pole_over_equator(sphere):
    a = np.array([1.0, 0.0, 0.0])
    b = np.array([0.0, 1.0, 0.0])
    seg = sphere.geodesic(a, b)
    foot = criteria.foot_of_perpendicular(sphere, np.array([0.0, 0.0, 1.0]), seg)
    assert foot.d_star == pytest.approx(PI / 2, abs=1e-12)


# every space whose segments have a row, at curvatures or perimeters of either kind
ROW_SPACES = [lambda: spaces.Sphere(1.0), lambda: spaces.Sphere(4.0),
              lambda: spaces.Hyperbolic(-1.0), lambda: spaces.Hyperbolic(-0.5),
              lambda: spaces.Cone(PI), lambda: spaces.Cone(7.0)]
ROW_SPACE_IDS = ["sphere", "sphere-k4", "hyperbolic", "hyperbolic-k0.5", "pi-cone", "7-cone"]


def _looping(space, seg):
    """Copies of space and seg that measure through the scalar loops only."""
    loop = copy.copy(space)
    loop.distances = types.MethodType(spaces.GeodesicSpace.distances, loop)
    return loop, dataclasses.replace(seg, space=loop, row=None)


def _foot_or_error(space, q, seg):
    try:
        return criteria.foot_of_perpendicular(space, q, seg)
    except (FootOnBoundary, DegenerateConfigError) as e:
        return type(e)


@pytest.mark.parametrize("make", ROW_SPACES, ids=ROW_SPACE_IDS)
@given(seed=st.integers(0, 2**32 - 1), radius=st.floats(0.05, 1.2))
@settings(max_examples=60, deadline=None)
def test_batched_foot_search_matches_looping(make, seed, radius):
    space = make()
    rng = np.random.default_rng(seed)
    c = space.default_center()
    a, b, q = (space.sample_ball(c, radius, rng) for _ in range(3))
    seg = space.geodesic(a, b)
    if seg.length <= 0.0:
        return
    batched = _foot_or_error(space, q, seg)
    loop_space, loop_seg = _looping(space, seg)
    looped = _foot_or_error(loop_space, q, loop_seg)
    if isinstance(batched, type):
        assert looped is batched
        return
    target = config.FOOT_REFINE_REL * seg.length
    assert looped.t_star == pytest.approx(batched.t_star, abs=target)
    assert looped.d_star == pytest.approx(batched.d_star, abs=target)


def test_batched_foot_search_matches_looping_on_a_plateau(sphere):
    # every point of the equator arc is at distance pi/2 from the pole
    seg = sphere.geodesic(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    pole = np.array([0.0, 0.0, 1.0])
    batched = criteria.foot_of_perpendicular(sphere, pole, seg)
    loop_space, loop_seg = _looping(sphere, seg)
    looped = criteria.foot_of_perpendicular(loop_space, pole, loop_seg)
    assert batched.t_star == looped.t_star


_OUTCOME = {FootOnBoundary: criteria.FOOT_BOUNDARY, DegenerateConfigError: criteria.FOOT_DEGENERATE}


def _check_feet_against_scalar(space, qs, segs):
    """feet_of_perpendicular of the segments with a row against
    foot_of_perpendicular, pair by pair: rows searched in lockstep keep the
    scalar outcome and agree within the golden-section target."""
    idx = [i for i, seg in enumerate(segs) if seg.row is not None and seg.length > 0.0]
    if not idx:
        return
    t, d, outcome = criteria.feet_of_perpendicular(
        space, [qs[i] for i in idx], [segs[i].row for i in idx],
        np.array([segs[i].length for i in idx]))
    for k, i in enumerate(idx):
        scalar = _foot_or_error(space, qs[i], segs[i])
        if isinstance(scalar, type):
            assert outcome[k] == _OUTCOME[scalar]
            assert math.isnan(t[k]) and math.isnan(d[k])
            continue
        assert outcome[k] == criteria.FOOT_OK
        target = config.FOOT_REFINE_REL * segs[i].length
        assert t[k] == pytest.approx(scalar.t_star, abs=target)
        assert d[k] == pytest.approx(scalar.d_star, abs=target)


@pytest.mark.parametrize("make", ROW_SPACES, ids=ROW_SPACE_IDS)
@given(seed=st.integers(0, 2**32 - 1), radius=st.floats(0.05, 1.2), size=st.integers(1, 6))
@settings(max_examples=60, deadline=None)
def test_lockstep_feet_match_the_scalar_search(make, seed, radius, size):
    space = make()
    rng = np.random.default_rng(seed)
    c = space.default_center()
    qs, segs = [], []
    for _ in range(size):
        a, b, q = (space.sample_ball(c, radius, rng) for _ in range(3))
        qs.append(q)
        segs.append(space.geodesic(a, b))
    _check_feet_against_scalar(space, qs, segs)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a lockstep foot can stop outside the golden-section target "
                          "where the distance is flat to rounding")
def test_lockstep_foot_on_a_flat_stretch_misses_the_target():
    # the hyperbolic plane k = -0.5, radius 1: a 0.0061-long segment with q
    # 0.80 away, where both searches find d* bit for bit but their feet lie
    # 9.3e-10 apart, 15 times the target
    space = spaces.Hyperbolic(-0.5)
    rng = np.random.default_rng(1348484)
    a, b, q = (space.sample_ball(space.default_center(), 1.0, rng) for _ in range(3))
    _check_feet_against_scalar(space, [q, q], [space.geodesic(a, b)] * 2)


def test_lockstep_feet_on_the_pole_over_equator_plateau(sphere):
    pole = np.array([0.0, 0.0, 1.0])
    equator = sphere.geodesic(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))
    other = sphere.geodesic(sphere.point_from_data([0.3, 0.0, 0.95]),
                            sphere.point_from_data([0.0, 0.3, 0.95]))
    t, d, outcome = criteria.feet_of_perpendicular(sphere, [pole, pole], [equator.row] * 2,
                                                   np.array([equator.length] * 2))
    scalar = criteria.foot_of_perpendicular(sphere, pole, equator)
    assert t.tolist() == [scalar.t_star] * 2 and d.tolist() == [scalar.d_star] * 2
    assert outcome.tolist() == [criteria.FOOT_OK] * 2
    # with a q on its segment (degenerate) in the same block
    _check_feet_against_scalar(sphere, [pole, pole, equator.midpoint()], [equator, other, equator])


# the row spaces above, the cones also around a point off their apex
BLOCK_CASES = {
    **{name: (make(), None) for make, name in zip(ROW_SPACES, ROW_SPACE_IDS)},
    "pi-cone-off-apex": (spaces.Cone(PI), (1.0, 0.5)),
    "7-cone-off-apex": (spaces.Cone(7.0), (1.0, 0.5)),
}


def _row_block(space, center, rng, n, radius=0.6):
    """n (q, row, length) of segments with a row, drawn from the ball."""
    center = space.default_center() if center is None else center
    qs, rows, lengths = [], [], []
    while len(rows) < n:
        a, b, q = (space.sample_ball(center, radius, rng) for _ in range(3))
        seg = space.geodesic(a, b)
        if seg.row is not None and seg.length > 0.0:
            qs.append(q)
            rows.append(seg.row)
            lengths.append(seg.length)
    return qs, rows, np.array(lengths)


@pytest.mark.parametrize("case", list(BLOCK_CASES))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_golden_rows_equal_the_masked_loop_bitwise(case, seed):
    space, center = BLOCK_CASES[case]
    rng = np.random.default_rng(seed)
    qs, rows, lengths = _row_block(space, center, rng, 30)
    f = space.row_distances(qs, rows)
    # brackets from a whole segment down to below the target: rows stop at different steps
    a = rng.uniform(0.0, 1.0, len(lengths)) * lengths
    b = a + 10.0 ** rng.uniform(-10.0, 0.0, len(lengths)) * (lengths - a)
    target = config.FOOT_REFINE_REL * lengths
    got = criteria._golden_rows(f, a, b, target)
    want = oracles.golden_rows_masked(f, a, b, target)
    assert repr([x.tolist() for x in got]) == repr([x.tolist() for x in want])


@pytest.mark.parametrize("case", list(BLOCK_CASES))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10, deadline=None)
def test_feet_of_a_block_equal_the_feet_of_its_sub_blocks(case, seed):
    # what a row's foot is cannot depend on how many rows a round searches with it
    space, center = BLOCK_CASES[case]
    qs, rows, lengths = _row_block(space, center, np.random.default_rng(seed), 21)
    whole = criteria.feet_of_perpendicular(space, qs, rows, lengths)
    for size in (2, 3, 7):
        parts = [criteria.feet_of_perpendicular(space, qs[i:i + size], rows[i:i + size],
                                                lengths[i:i + size])
                 for i in range(0, len(lengths), size)]
        for j, column in enumerate(whole):
            assert repr(np.concatenate([p[j] for p in parts]).tolist()) == repr(column.tolist())


def test_blocks_with_scalar_rows_equal_the_scalar_search():
    # around the 7-cone's apex many pairs are joined through the apex, a route
    # with no row: in a round searched over arrays those tries take the scalar
    # search itself, and the chords of the same rounds the lockstep one
    cone, center, radius = spaces.Cone(7.0), (0.0, 0.0), 0.5
    n = 40
    new = list(criteria.foot_configs(cone, center, radius, np.random.default_rng(4), n))
    rng = np.random.default_rng(4)
    old = [oracles.sample_foot_config(cone, center, radius, rng) for _ in range(n)]
    assert sum(seg.row is None for _, seg, _ in new) >= 3
    assert sum(seg.row is not None for _, seg, _ in new) >= 3
    for (q, seg, foot), (q_old, seg_old, foot_old) in zip(new, old):
        assert q == q_old and (seg.start, seg.end, seg.row) == (seg_old.start, seg_old.end,
                                                                 seg_old.row)
        if seg.row is None:
            assert foot == foot_old
        else:
            target = config.FOOT_REFINE_REL * seg.length
            assert foot.t_star == pytest.approx(foot_old.t_star, abs=target)


def test_foot_tripod_branch_kink(tripod):
    seg = tripod.geodesic((0, 1.0), (1, 1.0))
    foot = criteria.foot_of_perpendicular(tripod, (2, 1.0), seg)
    assert foot.t_star == pytest.approx(1.0, abs=1e-7)
    assert foot.d_star == pytest.approx(1.0, abs=1e-7)


def test_foot_boundary_raises(plane):
    seg = plane.geodesic(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(FootOnBoundary):
        criteria.foot_of_perpendicular(plane, np.array([-1.0, 0.5]), seg)


def test_foot_on_segment_raises(plane):
    seg = plane.geodesic(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
    with pytest.raises(DegenerateConfigError):
        criteria.foot_of_perpendicular(plane, np.array([0.5, 0.0]), seg)


# ---------------------------------------------------------------------------
# pythagorean test


def test_pythagorean_plane_rigidity(plane, rng):
    for _ in range(20):
        a = rng.uniform(-1, 1, 2)
        b = rng.uniform(-1, 1, 2)
        if np.linalg.norm(a - b) < 0.5:
            continue
        q = rng.uniform(-1, 1, 2)
        seg = plane.geodesic(a, b)
        try:
            out = criteria.evaluate_pythagorean(criteria.measure_pythagorean(plane, q, seg), 0.0)
        except (FootOnBoundary, DegenerateConfigError):
            continue
        assert out.verdict == "pass_both"
        assert abs(out.cbb_defect) <= 1e-9
        assert abs(out.cba_defect) <= 1e-9


def test_pythagorean_plane_fails_cbb_of_positive_k(plane):
    seg = plane.geodesic(np.array([-0.3, 0.0]), np.array([0.3, 0.0]))
    m = criteria.measure_pythagorean(plane, np.array([0.0, 0.4]), seg)
    out = criteria.evaluate_pythagorean(m, 1.0)
    assert out.cbb_defect > 0.0
    assert not out.passes("cbb")
    assert out.passes("cba")


def test_pythagorean_tripod_branch_collinear(tripod):
    seg = tripod.geodesic((0, 1.0), (1, 1.0))
    out = criteria.evaluate_pythagorean(criteria.measure_pythagorean(tripod, (2, 1.0), seg), 0.0)
    # comparison angles are pi: defect pi/2 on both sides
    assert out.cbb_defect == pytest.approx(PI / 2, abs=1e-6)
    assert out.verdict == "pass_CBA"
    assert out.cba_defect <= 1e-9


def test_pythagorean_sphere_signs(sphere, rng):
    # CBB holds below the true curvature, fails above it
    for _ in range(10):
        q, seg, foot = next(criteria.foot_configs(sphere, sphere.default_center(), 0.15, rng, 1))
        m = criteria.measure_pythagorean(sphere, q, seg, foot=foot)
        assert criteria.evaluate_pythagorean(m, 0.5).passes("cbb")
        assert not criteria.evaluate_pythagorean(m, 1.5).passes("cbb")
        assert criteria.evaluate_pythagorean(m, 1.5).passes("cba")
        rigid = criteria.evaluate_pythagorean(m, 1.0)
        assert abs(rigid.cbb_defect) <= 1e-7 and abs(rigid.cba_defect) <= 1e-7


def test_pythagorean_defect_monotone_in_k(sphere, rng):
    q, seg, foot = next(criteria.foot_configs(sphere, sphere.default_center(), 0.2, rng, 1))
    m = criteria.measure_pythagorean(sphere, q, seg, foot=foot)
    ks = np.linspace(-2.0, 2.0, 9)
    defects = [criteria.evaluate_pythagorean(m, k).cbb_defect for k in ks]
    assert (np.diff(defects) >= -1e-12).all()


# ---------------------------------------------------------------------------
# right-angle test


def test_right_angle_sphere_rigidity(sphere):
    p = sphere.default_center()
    cfg = criteria.build_right_angle_config(sphere, p, 0.3, 0.3 + PI / 2, 0.3, 0.4)
    out = criteria.evaluate_right_angle(cfg, 1.0)
    assert out.verdict == "pass_both"
    assert abs(out.cbb_defect) <= 1e-8


def test_right_angle_sphere_at_flat_k(sphere):
    p = sphere.default_center()
    cfg = criteria.build_right_angle_config(sphere, p, 0.0, PI / 2, 0.3, 0.4)
    out = criteria.evaluate_right_angle(cfg, 0.0)
    assert out.cbb_defect < 0.0
    assert out.verdict == "pass_CBB"


def test_right_angle_hyperbolic_at_flat_k(hyper):
    p = hyper.default_center()
    cfg = criteria.build_right_angle_config(hyper, p, 0.0, PI / 2, 0.3, 0.4)
    out = criteria.evaluate_right_angle(cfg, 0.0)
    assert out.cbb_defect > 0.0
    assert out.verdict == "pass_CBA"


def test_right_angle_unavailable_on_tripod(tripod):
    with pytest.raises(RightAngleUnavailable):
        criteria.build_right_angle_config(tripod, (0, 1.0), 0.0, PI / 2, 0.3, 0.3)


def test_right_angle_rejected_when_leg_crosses_apex():
    cone = spaces.Cone(PI)
    # a leg aimed at the apex overshoots it; the wrapped path is shorter than
    # the shot length, so the construction must refuse
    with pytest.raises(RightAngleUnavailable):
        criteria.build_right_angle_config(cone, (0.01, 0.0), PI, PI / 2, 0.5, 0.5)


def test_right_angle_near_apex_feels_the_cone():
    cone = spaces.Cone(PI)
    # both legs minimal, genuine right angle at p, but [qr] wraps behind the
    # apex: the squared-ratio defect is strictly positive
    cfg = criteria.build_right_angle_config(cone, (0.2, 1.0), 2.0, 2.0 + PI / 2, 0.19, 0.19)
    assert cfg.angle_deviation <= 1e-9
    assert cfg.ratio_defect > 0.05


def test_right_angle_accepted_far_from_apex():
    cone = spaces.Cone(PI)
    cfg = criteria.build_right_angle_config(cone, (2.0, 0.5), 1.0, 1.0 + PI / 2, 0.1, 0.1)
    assert cfg.d_qr == pytest.approx(math.hypot(0.1, 0.1), rel=1e-9)


# ---------------------------------------------------------------------------
# point-segment test


def test_point_segment_plane_rigidity(plane):
    seg = plane.geodesic(np.array([-0.4, 0.0]), np.array([0.5, 0.0]))
    m = criteria.measure_point_segment(plane, np.array([0.1, 0.6]), seg)
    out = criteria.evaluate_point_segment(m, 0.0)
    assert out.verdict == "pass_both"
    assert abs(out.cbb_defect) <= 1e-12


def test_point_segment_sphere_cbb_at_zero(sphere, rng):
    for _ in range(10):
        q, seg, _ = next(criteria.foot_configs(sphere, sphere.default_center(), 0.2, rng, 1))
        m = criteria.measure_point_segment(sphere, q, seg)
        assert criteria.evaluate_point_segment(m, 0.0).passes("cbb")
        assert not criteria.evaluate_point_segment(m, 1.5).passes("cbb")


def test_point_segment_cone_cbb_near_apex():
    cone = spaces.Cone(PI)
    seg = cone.geodesic((0.5, 0.2), (0.5, PI / 2 + 0.2))
    m = criteria.measure_point_segment(cone, (0.8, PI - 0.5), seg)
    out = criteria.evaluate_point_segment(m, 0.0)
    assert out.cbb_defect <= 1e-9  # cone is a lower-bound-0 space
    # far from the apex the cone is flat: equality
    seg2 = cone.geodesic((3.0, 0.1), (3.0, 0.25))
    m2 = criteria.measure_point_segment(cone, (3.2, 0.18), seg2)
    out2 = criteria.evaluate_point_segment(m2, 0.0)
    assert abs(out2.cbb_defect) <= 1e-9 and abs(out2.cba_defect) <= 1e-9


# ---------------------------------------------------------------------------
# angle estimation


def test_angle_at_plane_orthogonal(plane):
    p = np.zeros(2)
    sx = plane.geodesic(p, np.array([1.0, 0.0]))
    sy = plane.geodesic(p, np.array([0.0, 1.0]))
    assert criteria.angle_at(plane, p, sx, sy, 0.0) == pytest.approx(PI / 2, abs=1e-12)


def test_angle_at_octant_vertex(sphere):
    p = np.array([0.0, 0.0, 1.0])
    sx = sphere.geodesic(p, np.array([1.0, 0.0, 0.0]))
    sy = sphere.geodesic(p, np.array([0.0, 1.0, 0.0]))
    assert criteria.angle_at(sphere, p, sx, sy, 1.0) == pytest.approx(PI / 2, abs=1e-10)


def test_angle_at_cone_apex_sector(rng):
    cone = spaces.Cone(PI)
    apex = (0.0, 0.0)
    for dth in (0.4, PI / 2, 1.2):
        sa = cone.geodesic(apex, (1.0, 0.0))
        sb = cone.geodesic(apex, (1.0, dth))
        assert criteria.angle_at(cone, apex, sa, sb, 0.0) == pytest.approx(dth, abs=1e-9)


def test_angle_at_overlapping_geodesics_gives_zero(tripod):
    tip = (0, 1.0)
    sa = tripod.geodesic(tip, (1, 1.0))
    sb = tripod.geodesic(tip, (2, 1.0))
    assert criteria.angle_at(tripod, tip, sa, sb, 0.0) == pytest.approx(0.0, abs=1e-9)


def test_angle_at_richardson_improves_on_sphere(sphere):
    # vertex angle of a right spherical triangle evaluated at k0 = 0: the
    # comparison angle at scale t is off by O(t^2), small enough at the one
    # scale measured that no extrapolation is needed
    p = sphere.default_center()
    q = sphere.shoot(p, 0.0, 0.8)
    r = sphere.shoot(p, PI / 2, 0.8)
    angle = criteria.angle_at(sphere, p, sphere.geodesic(p, q), sphere.geodesic(p, r), 0.0)
    assert angle == pytest.approx(PI / 2, abs=1e-5)


# ---------------------------------------------------------------------------
# triangle comparison


def test_triangle_plane_345(plane):
    m = criteria.measure_triangle(plane, np.zeros(2), np.array([3.0, 0.0]), np.array([0.0, 4.0]))
    out = criteria.evaluate_triangle(m, 0.0)
    assert out.verdict == "pass_both"
    assert abs(out.cbb_defect) <= 1e-6 and abs(out.cba_defect) <= 1e-6


def test_triangle_octant_cbb_at_zero(sphere):
    e = np.eye(3)
    m = criteria.measure_triangle(sphere, e[2], e[0], e[1])
    out = criteria.evaluate_triangle(m, 0.0)
    # every vertex angle is pi/2 and the flat comparison angle is pi/3
    assert out.cbb_defect == pytest.approx(PI / 3 - PI / 2, abs=1e-6)
    assert out.passes("cbb") and not out.passes("cba")
    rigid = criteria.evaluate_triangle(m, 1.0)
    assert rigid.verdict == "pass_both"


def test_triangle_tripod_tips(tripod):
    m = criteria.measure_triangle(tripod, (0, 1.0), (1, 1.0), (2, 1.0))
    out = criteria.evaluate_triangle(m, 0.0)
    # tip angles are 0, comparison angles pi/3: no lower bound, upper holds
    assert out.cbb_defect == pytest.approx(PI / 3, abs=1e-6)
    assert out.verdict == "pass_CBA"


def test_triangle_rigidity_on_sphere(sphere, rng):
    for _ in range(5):
        c = sphere.default_center()
        p, q, r = (sphere.sample_ball(c, 0.3, rng) for _ in range(3))
        try:
            out = criteria.evaluate_triangle(criteria.measure_triangle(sphere, p, q, r), 1.0)
        except DegenerateConfigError:
            continue
        assert abs(out.cbb_defect) <= 1e-7
        assert abs(out.cba_defect) <= 1e-7


# ---------------------------------------------------------------------------
# first variation


def _decaying(errors):
    """Each finite-difference error below the one before it, or that one zero."""
    return all(b < a or a == 0.0 for a, b in zip(errors, errors[1:]))


def test_first_variation_at_foot_is_flat(plane):
    seg = plane.geodesic(np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
    q = np.array([0.0, 1.0])
    foot = criteria.foot_of_perpendicular(plane, q, seg)
    # the forward difference carries an h/(2 d*) bias, so reach h = 1e-6
    rep = criteria.first_variation_check(plane, q, seg, foot.t_star, steps=(1e-4, 1e-5, 1e-6))
    assert abs(rep.slopes[-1]) <= 1e-6
    assert rep.angle == pytest.approx(PI / 2, abs=1e-6)
    assert _decaying(rep.errors)


def test_first_variation_plane_pi_over_3(plane):
    seg = plane.geodesic(np.array([-1.0, 0.0]), np.array([2.0, 0.0]))
    t_star = 1.0  # p = (0, 0)
    q = np.array([math.cos(PI / 3), math.sin(PI / 3)])
    rep = criteria.first_variation_check(plane, q, seg, t_star, steps=(1e-2, 1e-3, 1e-4))
    assert rep.target == pytest.approx(-0.5, abs=1e-9)
    assert abs(rep.slopes[-1] - (-0.5)) <= 1e-4
    assert _decaying(rep.errors)
    # observed convergence order >= 1: error ratios track the step ratio 0.1
    assert all(b <= 0.3 * a for a, b in zip(rep.errors, rep.errors[1:]))


def test_first_variation_sphere_pi_over_4(sphere):
    p = sphere.default_center()
    r2 = sphere.shoot(p, 0.0, 0.9)
    r1 = sphere.shoot(p, PI, 0.9)
    seg = sphere.geodesic(r1, r2)
    q = sphere.shoot(p, PI / 4, 0.7)
    rep = criteria.first_variation_check(sphere, q, seg, 0.9, steps=(1e-3, 1e-4))
    assert rep.target == pytest.approx(-math.sqrt(2.0) / 2.0, abs=1e-6)
    assert abs(rep.slopes[-1] - rep.target) <= 1e-3


# ---------------------------------------------------------------------------
# angle sums


def test_angle_sum_plane(plane, rng):
    seg = plane.geodesic(np.array([-1.0, -0.2]), np.array([1.0, 0.4]))
    rep = criteria.angle_sum_check(plane, np.array([0.3, 1.0]), seg, 0.8)
    assert rep.excess == pytest.approx(0.0, abs=1e-5)


def test_angle_sum_sphere_and_hyperbolic(sphere, hyper):
    for space in (sphere, hyper):
        p = space.default_center()
        seg = space.geodesic(space.shoot(p, 0.0, 0.5), space.shoot(p, PI, 0.5))
        q = space.shoot(p, PI / 3, 0.4)
        rep = space and criteria.angle_sum_check(space, q, seg, 0.5)
        assert rep.excess == pytest.approx(0.0, abs=1e-4)


def test_angle_sum_tripod_branch(tripod):
    seg = tripod.geodesic((0, 1.0), (1, 1.0))
    rep = criteria.angle_sum_check(tripod, (2, 0.7), seg, 1.0)
    assert rep.total == pytest.approx(2.0 * PI, abs=1e-6)
    assert rep.excess >= PI - 1e-6  # upper-bound branch: sum >= pi


@pytest.mark.parametrize(
    "make,k_true",
    [(lambda: spaces.Sphere(1.0), 1.0), (lambda: spaces.Hyperbolic(-1.0), -1.0)],
    ids=("sphere", "hyperbolic"),
)
def test_all_three_criteria_flip_at_the_true_curvature(make, k_true, rng, monkeypatch):
    monkeypatch.setattr(criteria, "MIN_HEIGHT_REL", 0.3)
    space = make()
    center = space.default_center()
    below, above = k_true - 0.2, k_true + 0.2
    for _ in range(30):
        q, seg, foot = next(criteria.foot_configs(space, center, 0.14, rng, 1))
        measured = [
            (criteria.evaluate_pythagorean, criteria.measure_pythagorean(space, q, seg, foot=foot)),
            (criteria.evaluate_point_segment, criteria.measure_point_segment(space, q, seg)),
            (criteria.evaluate_triangle, criteria.measure_triangle(space, seg.start, q, seg.end)),
        ]
        outs_below = [evaluate(m, below) for evaluate, m in measured]
        outs_above = [evaluate(m, above) for evaluate, m in measured]
        for out in outs_below:
            assert out.passes("cbb") and not out.passes("cba"), out
        for out in outs_above:
            assert out.passes("cba") and not out.passes("cbb"), out


def test_known_curvature_spaces_pass_their_own_bound(rng):
    # cross-module property: every space advertising its curvature passes the
    # criteria at that curvature, with equality on the smooth ones
    for space in (
        spaces.EuclideanPlane(),
        spaces.Sphere(1.0),
        spaces.Sphere(4.0),
        spaces.Hyperbolic(-1.0),
        spaces.make_octant(1.0),
    ):
        k0 = space.known_curvature
        radius = 0.1 if k0 and k0 > 1.0 else 0.15
        for _ in range(5):
            q, seg, foot = next(criteria.foot_configs(
                space, space.default_center(), radius, rng, 1))
            m = criteria.measure_pythagorean(space, q, seg, foot=foot)
            assert criteria.evaluate_pythagorean(m, k0).verdict == "pass_both"
            ps = criteria.evaluate_point_segment(criteria.measure_point_segment(space, q, seg), k0)
            assert ps.passes("cbb") and ps.passes("cba")


def test_interior_foot_is_perpendicular_on_smooth_spaces(rng):
    for space in (spaces.EuclideanPlane(), spaces.Sphere(1.0), spaces.Hyperbolic(-1.0)):
        for _ in range(5):
            q, seg, foot = next(criteria.foot_configs(space, space.default_center(), 0.3, rng, 1))
            rep = criteria.angle_sum_check(space, q, seg, foot.t_star)
            assert rep.angle_r1 == pytest.approx(PI / 2, abs=1e-4)
            assert rep.angle_r2 == pytest.approx(PI / 2, abs=1e-4)


# ---------------------------------------------------------------------------
# Riemannian-point profile


def test_profile_plane_vanishing(plane):
    prof = criteria.riemannian_point_profile(plane, np.zeros(2), (0.2, 0.1, 0.05, 0.025), 16, 7)
    assert prof.classification == "vanishing"
    assert max(prof.chi) <= 1e-10


def test_profile_sphere_vanishing_by_decay(sphere):
    prof = criteria.riemannian_point_profile(
        sphere, sphere.default_center(), (0.2, 0.1, 0.05, 0.025), 16, 7
    )
    assert prof.classification == "vanishing"
    assert prof.chi[0] > 1e-6  # large-scale rung carries genuine curvature signal


def test_profile_cone_apex_non_vanishing():
    cone = spaces.Cone(PI)
    prof = criteria.riemannian_point_profile(cone, (0.0, 0.0), (0.2, 0.1, 0.05, 0.025), 32, 7)
    assert prof.classification == "non_vanishing"
    assert prof.chi[-1] > 0.05
    v0, v1 = prof.chi[-2], prof.chi[-1]
    assert abs(v1 - v0) <= 0.2 * max(v0, v1)


def test_profile_cone_off_apex_vanishing():
    cone = spaces.Cone(PI)
    prof = criteria.riemannian_point_profile(cone, (1.0, 0.5), (0.2, 0.1, 0.05, 0.025), 16, 7)
    assert prof.classification == "vanishing"


def test_profile_tripod_inconclusive_all_skipped(tripod):
    prof = criteria.riemannian_point_profile(tripod, (0, 0.0), (0.2, 0.1), 8, 7)
    assert prof.classification == "inconclusive"
    assert all(s == 1.0 for s in prof.skip_fraction)


@pytest.mark.parametrize("ladder", [
    (0.1, -0.1), (0.1, math.nan), (math.inf, 0.1), (0.1, 0.0), (0.1,), (0.1, 0.2), (0.1, 0.1),
])
def test_profile_rejects_a_bad_eps_ladder(plane, ladder):
    with pytest.raises(ValueError, match="eps ladder must have >= 2 radii"):
        criteria.riemannian_point_profile(plane, np.zeros(2), ladder, 4, 7)


# ---------------------------------------------------------------------------
# the Riemannian-point rung over arrays against the rung that built one
# configuration at a time

RUNG_CASES = {
    "pi-cone-apex": (spaces.Cone(PI), (0.0, 0.0)),
    "pi-cone-off": (spaces.Cone(PI), (1.0, 0.5)),
    "pi-cone-near-apex": (spaces.Cone(PI), (0.04, 3.0)),
    "7-cone-apex": (spaces.Cone(7.0), (0.0, 0.0)),
    "7-cone-near-apex": (spaces.Cone(7.0), (0.04, 0.2)),
    "sphere": (spaces.Sphere(1.0), np.array([0.0, 0.0, 1.0])),
    "hyperbolic": (spaces.Hyperbolic(-1.0), np.array([0.0, 0.0, 1.0])),
}
# at 1e-4 and 5e-5 the ladder's sides straddle 10 GEO; at 3e-6 the legs
# are near 1e-6 and every ladder is under it
RUNG_EPS = (1.0, 0.25, 0.03, 1e-4, 5e-5, 3e-6)


def rung(chi, space, x, eps, n, rng):
    """(repr of chi, skipped, the generator's state after), or what it raised."""
    try:
        value, skipped = chi(space, x, eps, n, rng)
    except Exception as e:  # whatever it is, both rungs must raise the same
        return type(e), str(e)
    return repr(value), skipped, rng.bit_generator.state


def array_rung(space, x, eps, n, rng):
    return criteria._chi_rows(space, x, eps, n, rng)


@pytest.mark.parametrize("case", list(RUNG_CASES))
@given(eps=st.sampled_from(RUNG_EPS), doubles=st.data())
@settings(max_examples=30, deadline=None)
def test_array_rung_equals_the_loop_on_replayed_draws(case, eps, doubles):
    space, x = RUNG_CASES[case]
    n = doubles.draw(st.integers(1, 24))
    # 5 doubles a configuration, and 2 more where p is drawn by sample_ball
    us = doubles.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                               min_size=7 * n, max_size=7 * n))
    want = rung(oracles.chi_at_scale, space, x, eps, n, oracles.Replay(us))
    assert rung(array_rung, space, x, eps, n, oracles.Replay(us)) == want


@pytest.mark.parametrize("case", list(RUNG_CASES))
@pytest.mark.parametrize("eps", RUNG_EPS)
def test_array_rung_equals_the_loop_on_seeded_generators(case, eps):
    space, x = RUNG_CASES[case]
    for seed in (0, 7, 61000):
        want = rung(oracles.chi_at_scale, space, x, eps, 40, np.random.default_rng(seed))
        assert rung(array_rung, space, x, eps, 40, np.random.default_rng(seed)) == want
        assert criteria.chi_at_scale(space, x, eps, 40, seed) == (float(want[0]), want[1])


# the spaces that are not row spaces, whose rungs are the loop itself: the
# plane's shots all land, some of the octant's leave it, and the tripod
# shoots none, so each of its p is drawn from the ball and each rung skipped
LOOP_RUNG_CASES = {
    "plane": (spaces.EuclideanPlane(), np.zeros(2)),
    "octant": (spaces.make_octant(1.0), spaces.make_octant(1.0).default_center()),
    "tripod": (spaces.Tripod(), (0, 0.5)),
}


def loop_rung(space, x, eps, n, rng):
    return criteria._chi_loop(space, x, eps, n, rng)


@pytest.mark.parametrize("case", list(LOOP_RUNG_CASES))
@given(eps=st.sampled_from(RUNG_EPS), doubles=st.data())
@settings(max_examples=30, deadline=None)
def test_loop_rung_equals_the_reference_loop_on_replayed_draws(case, eps, doubles):
    space, x = LOOP_RUNG_CASES[case]
    n = doubles.draw(st.integers(1, 24))
    # the octant's ball draw repeats until its point lies inside: plenty more
    us = [*doubles.draw(st.lists(st.floats(0.0, 1.0, exclude_max=True),
                                 min_size=7 * n, max_size=7 * n)),
          *np.random.default_rng(n).random(2000).tolist()]
    want = rung(oracles.chi_at_scale, space, x, eps, n, oracles.Replay(us))
    assert rung(loop_rung, space, x, eps, n, oracles.Replay(us)) == want


@pytest.mark.parametrize("case", list(LOOP_RUNG_CASES))
@pytest.mark.parametrize("eps", RUNG_EPS)
def test_loop_rung_equals_the_reference_loop_on_seeded_generators(case, eps):
    space, x = LOOP_RUNG_CASES[case]
    for seed in (0, 7, 61000):
        want = rung(oracles.chi_at_scale, space, x, eps, 40, np.random.default_rng(seed))
        assert rung(loop_rung, space, x, eps, 40, np.random.default_rng(seed)) == want
        assert criteria.chi_at_scale(space, x, eps, 40, seed) == (float(want[0]), want[1])
        if case == "tripod":
            assert want[:2] == (repr(0.0), 40)


def test_array_rung_draws_p_from_the_ball_where_its_shot_is_unavailable():
    # p shot from (0.5, 0) in direction pi over 0.5 ends 6e-17 from the apex
    cone, x = spaces.Cone(7.0), (0.5, 0.0)
    u = 0.5
    eps = 0.5 / (0.1 + (0.45 - 0.1) * u)
    with pytest.raises(criteria.ShootUnavailable):
        cone.shoot(x, 2.0 * PI * 0.5, (0.1 + (0.45 - 0.1) * u) * eps)
    normal = [0.1, 0.3, 0.7, 0.9, 0.5]
    unavailable = [0.5, u, 0.2, 0.4, 0.6]
    # p drawn from the ball: the rung ends after four configurations and the
    # two doubles of sample_ball; or sample_ball's shot is unavailable too,
    # and the rung raises it
    for drawn, ends in (([0.35, 0.5], 22), ([0.5, 0.5 / (0.45 * eps)], None)):
        doubles = [*normal, *unavailable, *drawn, *normal, *normal]
        want = rung(oracles.chi_at_scale, cone, x, eps, 4, oracles.Replay(doubles))
        assert rung(array_rung, cone, x, eps, 4, oracles.Replay(doubles)) == want
        assert want[2] == ends if ends else want[0] is criteria.ShootUnavailable


def decided_rows(space, p, beta, l1, l2):
    """`_right_angle_rows`' outcomes, after checking each row it decides
    against `build_right_angle_config`."""
    angle, ratio, outcome = criteria._right_angle_rows(space, p, beta, l1, l2)
    assert np.isnan(angle[outcome == criteria.RA_BACK]).all()
    assert np.isnan(ratio[outcome != criteria.RA_BUILT]).all()
    for i in np.flatnonzero(outcome != criteria.RA_BACK).tolist():
        b = float(beta[i])
        try:
            cfg = criteria.build_right_angle_config(space, p[i], b, b + PI / 2, l1[i], l2[i])
        except RightAngleUnavailable:
            assert outcome[i] == criteria.RA_SKIPPED
            continue
        assert repr(float(ratio[i])) == repr(cfg.ratio_defect)
        assert abs(angle[i] - PI / 2) == cfg.angle_deviation
    return outcome.tolist()


def test_array_rows_leave_routes_through_the_apex_to_the_scalar_build():
    # from (0.5, 0) in direction pi the leg of 0.5 + 1e-9 ends just past the
    # 7-cone's apex, so its geodesic is the apex route; the leg of 0.5 exactly
    # ends 6e-17 from the apex and is unavailable
    cone = spaces.Cone(7.0)
    p = np.array([[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.8, 1.0]])
    beta, l2 = np.array([PI, PI, 0.3, 2.0]), np.full(4, 0.3)
    l1 = np.array([0.5 + 1e-9, 0.5, 0.2, 0.1])
    assert decided_rows(cone, p, beta, l1, l2) == [
        criteria.RA_BACK, criteria.RA_SKIPPED, criteria.RA_BUILT, criteria.RA_BUILT]


def test_array_rows_decide_the_minimality_threshold_as_the_scalar_build():
    # from (0.5, 0) on the pi-cone, legs of 0.8 in these directions turn just
    # far enough round the apex that the other way round is shorter: by 1e-7
    # of the leg, and by 1e-9 of it within 1.4e-16; both are not minimal
    cone = spaces.Cone(PI)
    p = np.array([[0.5, 0.0]] * 3)
    beta = np.array([2.2459279622139454, 2.2459278607567486, 2.0])
    assert decided_rows(cone, p, beta, np.full(3, 0.8), np.full(3, 0.3)) == [
        criteria.RA_SKIPPED, criteria.RA_SKIPPED, criteria.RA_BUILT]
    with pytest.raises(RightAngleUnavailable, match="not a minimal geodesic"):
        criteria.build_right_angle_config(cone, (0.5, 0.0), beta[1], beta[1] + PI / 2, 0.8, 0.3)


def test_chi_at_scale_raises_what_the_loop_raises():
    # shots over 710 units out on the hyperboloid overflow cosh
    space, x = RUNG_CASES["hyperbolic"]
    want = rung(oracles.chi_at_scale, space, x, 8000.0, 8, np.random.default_rng(1))
    assert want[0] is OverflowError
    with pytest.raises(OverflowError, match="math range error"):
        criteria.chi_at_scale(space, x, 8000.0, 8, 1)


def test_far_hyperbolic_rungs_keep_their_points_on_the_sheet():
    # shots 4-36 units out: the handle check is relative to x2^2 and the
    # tangent frame of points past x2 = FAR is the polar one
    space, x = RUNG_CASES["hyperbolic"]
    for eps in (40.0, 20.0):
        want = rung(oracles.chi_at_scale, space, x, eps, 24, np.random.default_rng(7))
        assert want[0] != repr(None) and isinstance(want[1], int)
        assert rung(array_rung, space, x, eps, 24, np.random.default_rng(7)) == want
    prof = criteria.riemannian_point_profile(space, x, (40.0, 20.0, 10.0), 24, 7)
    assert prof.classification == "inconclusive" and prof.skip_fraction[0] == 1.0
    far = space.shoot(x, 0.3, 18.0)
    assert far[2] > 1e7 and space._check(far) is far
    for phi in (0.0, 1.0, 2.0, 4.0):  # the Gram-Schmidt frame rounds v onto -2 u here
        space._check(space.shoot(far, phi, 1.0))
