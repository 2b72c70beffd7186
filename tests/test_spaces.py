"""Geodesic spaces: metric axioms, minimality, analytic ground truths."""

import functools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmpk import config, criteria, spaces
from cmpk.errors import ShootUnavailable, SpaceDescriptorError

import oracles
from oracles import (
    Replay, cone_distance_windings, cone_graph_distance, cone_minimal_geodesics, third_side,
)

PI = math.pi


def all_analytic_spaces():
    return [
        spaces.EuclideanPlane(),
        spaces.Sphere(1.0),
        spaces.Sphere(4.0),
        spaces.Hyperbolic(-1.0),
        spaces.Hyperbolic(-0.5),
        spaces.Cone(PI),
        spaces.Cone(7.0),
        spaces.Tripod(),
        spaces.make_octant(1.0),
    ]


def sample_points(space, n, rng, radius=0.8):
    c = space.default_center()
    return [space.sample_ball(c, radius, rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# shared metric / geodesic properties


@pytest.mark.parametrize("space", all_analytic_spaces(), ids=lambda s: s.descriptor().__str__())
def test_metric_axioms(space, rng):
    pts = sample_points(space, 100, rng)
    d = {}
    for a in range(len(pts)):
        for b in range(len(pts)):
            d[a, b] = space.distance(pts[a], pts[b])
    for a in range(len(pts)):
        assert d[a, a] == pytest.approx(0.0, abs=config.GEO)
    for _ in range(10_000):
        i, j, k = rng.integers(0, len(pts), 3)
        assert d[i, j] >= 0.0
        assert d[i, j] == pytest.approx(d[j, i], abs=config.GEO)
        assert d[i, j] <= d[i, k] + d[k, j] + config.GEO


@pytest.mark.parametrize("space", all_analytic_spaces(), ids=lambda s: s.descriptor().__str__())
def test_geodesic_minimality_along_segments(space, rng):
    pts = sample_points(space, 30, rng)
    for _ in range(150):
        i, j = rng.integers(0, len(pts), 2)
        x, y = pts[i], pts[j]
        for seg in space.minimal_geodesics(x, y):
            assert seg.length == pytest.approx(space.distance(x, y), abs=config.GEO)
            assert space.distance(seg.at(0.0), x) <= config.PT
            assert space.distance(seg.at(seg.length), y) <= config.PT
            if seg.length == 0.0:
                continue
            s, t = sorted(rng.uniform(0.0, seg.length, 2))
            d = space.distance(seg.at(s), seg.at(t))
            assert d == pytest.approx(t - s, abs=config.GEO * (1.0 + seg.length))


_HYP = spaces.Hyperbolic(-1.0)
# (space, center, radius): regions where angles are read, 10 units out on the
# hyperbolic plane among them, and on the pi-cone at and off its apex
EMANATING = {
    "plane": (spaces.EuclideanPlane(), np.zeros(2), 0.5),
    "sphere": (spaces.Sphere(1.0), np.array([0.0, 0.0, 1.0]), 1.6),
    "hyperbolic": (_HYP, np.array([0.0, 0.0, 1.0]), 0.5),
    "hyperbolic-far": (_HYP, _HYP.shoot(np.array([0.0, 0.0, 1.0]), 1.0, 10.0), 0.3),
    "pi-cone-apex": (spaces.Cone(PI), (0.0, 0.0), 0.25),
    "pi-cone-off": (spaces.Cone(PI), (1.0, 0.5), 0.25),
    "tripod": (spaces.Tripod(), spaces.Tripod().default_center(), 0.8),
    "octant": (spaces.make_octant(1.0), spaces.make_octant(1.0).default_center(), 0.8),
}


@pytest.mark.parametrize("case", list(EMANATING))
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_a_geodesic_starts_at_its_first_point(case, seed):
    # angles are read on geodesics that leave the vertex: measure_angle_ladder
    # and its array form take at(0) to be the vertex itself
    space, center, radius = EMANATING[case]
    rng = np.random.default_rng(seed)
    for _ in range(10):
        v, a = space.sample_ball(center, radius, rng), space.sample_ball(center, radius, rng)
        for x in (v, center):
            assert space.distance(space.geodesic(x, a).at(0.0), x) == 0.0


@pytest.mark.parametrize("space", all_analytic_spaces(), ids=lambda s: s.descriptor().__str__())
def test_sample_ball_stays_in_ball(space, rng):
    c = space.default_center()
    for radius in (0.05, 0.4):
        for _ in range(200):
            p = space.sample_ball(c, radius, rng)
            assert space.distance(c, p) <= radius + config.GEO


# ---------------------------------------------------------------------------
# plane / sphere / hyperbolic ground truth


def test_plane_345():
    plane = spaces.EuclideanPlane()
    assert plane.distance(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == 5.0


def test_sphere_pole_to_equator():
    sph = spaces.Sphere(1.0)
    assert sph.distance(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])) == pytest.approx(
        PI / 2, rel=1e-14
    )


def test_sphere_scaling():
    sph = spaces.Sphere(4.0)
    assert sph.distance(np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])) == pytest.approx(
        PI / 4, rel=1e-14
    )


def test_hyperbolic_orthogonal_unit_legs():
    # Pythagorean ground truth: cosh(c) = cosh(1) * cosh(1)
    hyp = spaces.Hyperbolic(-1.0)
    p = hyp.default_center()
    q = hyp.shoot(p, 0.0, 1.0)
    r = hyp.shoot(p, PI / 2, 1.0)
    assert hyp.distance(q, r) == pytest.approx(math.acosh(math.cosh(1.0) ** 2), rel=1e-12)


@pytest.mark.parametrize("k", [1.0, 2.5, -1.0, -0.3])
def test_shoot_right_angle_matches_model_oracle(k, rng):
    space = spaces.Sphere(k) if k > 0 else spaces.Hyperbolic(k)
    for _ in range(50):
        p = space.sample_ball(space.default_center(), 0.5, rng)
        phi = rng.uniform(0.0, 2.0 * PI)
        a, b = rng.uniform(0.05, 0.6, 2)
        q = space.shoot(p, phi, a)
        r = space.shoot(p, phi + PI / 2, b)
        assert space.distance(p, q) == pytest.approx(a, abs=1e-12)
        assert space.distance(q, r) == pytest.approx(third_side(k, a, b, PI / 2), abs=1e-11)


def test_sphere_antipodal_multiplicity():
    sph = spaces.Sphere(1.0)
    n = np.array([0.0, 0.0, 1.0])
    segs = sph.minimal_geodesics(n, -n)
    assert len(segs) == 2
    mids = [seg.midpoint() for seg in segs]
    assert sph.distance(mids[0], mids[1]) > 0.1


# ---------------------------------------------------------------------------
# cone


def test_minimal_geodesic_counts_of_crafted_pairs():
    """Antipodes, cone chords tied in length, apex points and coincident points."""
    sphere, hyp = spaces.Sphere(1.0), spaces.Hyperbolic(-1.0)
    n, o = np.array([0.0, 0.0, 1.0]), hyp.default_center()
    cases = [
        (sphere, n, n, 1),
        *((sphere, n, sphere.shoot(n, 0.3, PI - d), count)
          for d, count in ((0.0, 2), (1e-10, 2), (2e-9, 1), (1e-8, 1))),
        # geodesics of the hyperbolic plane are unique
        (hyp, o, o, 1), (hyp, o, hyp.shoot(o, 1.0, 1e-10), 1), (hyp, o, hyp.shoot(o, 1.0, 2.0), 1),
    ]
    # the two chords round a cone to a point d past half its perimeter tie when
    # their lengths are within TIE = 1e-9: they differ by 1.15-1.41 d on the
    # pi-cone and by 0.52-0.63 d on the 5-cone; on the 7-cone a half turn,
    # 3.5 > pi, goes through the apex
    for L, window in ((PI, 1e-10), (5.0, 1e-9), (7.0, -1.0)):
        cone = spaces.Cone(L)
        cases += [(cone, x, y, 1) for x, y in (
            ((0.0, 0.0), (0.0, 0.0)), ((0.0, 0.0), (0.5, 1.0)), ((0.5, 1.0), (0.0, 0.0)),
            ((1.0, 0.3), (1.0, 0.3)), ((1.0, 0.3), (1.0, 0.3 + L)))]
        cases += [(cone, (1.0, 0.3), (r, 0.3 + L / 2 + d), 1 + (abs(d) <= window))
                  for r in (1.0, 0.7) for d in (0.0, 1e-10, -1e-10, 1e-9, -1e-9, 2e-9)]
    for space, x, y, count in cases:
        assert len(space.minimal_geodesics(x, y)) == count, (space.name, x, y)


@pytest.mark.parametrize("space, center, radius", [
    (spaces.EuclideanPlane(), np.zeros(2), 1.0),
    (spaces.Cone(PI), (0.0, 0.0), 0.5),
    (spaces.Tripod(), (0, 0.0), 1.0),
    (spaces.Sphere(1.0), np.array([0.0, 0.0, 1.0]), 1.5),
], ids=["plane", "pi-cone-apex", "tripod", "sphere"])
def test_random_point_pairs_have_one_minimal_geodesic(space, center, radius):
    """A second minimal geodesic between two random ball points is a null-set
    event, so no criterion counts them; the ties are the crafted pairs above."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        x, y = space.sample_ball(center, radius, rng), space.sample_ball(center, radius, rng)
        assert len(space.minimal_geodesics(x, y)) == 1, (x, y)


def test_cone_same_ray():
    cone = spaces.Cone(PI)
    assert cone.distance((1.0, 0.3), (2.0, 0.3)) == pytest.approx(1.0, abs=1e-15)


def test_cone_quarter_turn_matches_oracles():
    cone = spaces.Cone(PI)
    p1, p2 = (1.0, 0.0), (1.0, PI / 2)
    d = cone.distance(p1, p2)
    assert d == pytest.approx(math.sqrt(2.0), rel=1e-12)  # law of cosines at sep pi/2
    assert d == pytest.approx(cone_distance_windings(PI, p1, p2), rel=1e-12)
    assert d == pytest.approx(cone_graph_distance(PI, p1, p2), rel=0.02)


def test_cone_distance_matches_winding_oracle(rng):
    for L in (1.5, PI, 5.0, 7.5):
        cone = spaces.Cone(L)
        for _ in range(300):
            p1 = (rng.uniform(0.0, 2.0), rng.uniform(0.0, L))
            p2 = (rng.uniform(0.0, 2.0), rng.uniform(0.0, L))
            assert cone.distance(p1, p2) == pytest.approx(
                cone_distance_windings(L, p1, p2), abs=1e-12
            )


def test_cone_apex_routes():
    cone = spaces.Cone(7.0)  # L > 2 pi: separations beyond pi go through the apex
    p1, p2 = (1.0, 0.0), (2.0, 3.49)  # sep ~ 3.49 > pi
    assert cone.distance(p1, p2) == pytest.approx(3.0, abs=1e-12)
    seg = cone.geodesic(p1, p2)
    assert seg.at(1.0)[0] == pytest.approx(0.0, abs=1e-12)  # passes the apex


def test_cone_tie_pair_two_geodesics():
    cone = spaces.Cone(PI)
    segs = cone.minimal_geodesics((1.0, 0.0), (1.0, PI / 2))  # sep = L/2 both ways
    assert len(segs) == 2
    m1, m2 = segs[0].midpoint(), segs[1].midpoint()
    assert cone.distance(m1, m2) > 0.5


def assert_same_routes(cone, x, y):
    new, ref = cone.minimal_geodesics(x, y), cone_minimal_geodesics(cone, x, y)
    assert [s.length for s in new] == [s.length for s in ref]
    assert [s.midpoint() for s in new] == [s.midpoint() for s in ref]
    return new


CONE_ANGLE = st.one_of(st.floats(0.0, 8.0), st.sampled_from([0.0, 1e-17, -1e-17, PI / 2, PI]))


@settings(max_examples=200, deadline=None)
@given(P=st.sampled_from([PI, 2.0, 5.0, 7.0]), r1=st.sampled_from([0.0, 0.3, 1.0]) | st.floats(0.0, 2.0),
       r2=st.floats(0.0, 2.0), a1=CONE_ANGLE, a2=CONE_ANGLE)
def test_cone_geodesics_equal_the_all_routes_reference(P, r1, r2, a1, a2):
    assert_same_routes(spaces.Cone(P), (r1, a1), (r2, a2))


def test_cone_builds_only_the_routes_it_returns(monkeypatch):
    cone = spaces.Cone(PI)
    built = []
    route = cone._unrolled_route
    monkeypatch.setattr(cone, "_unrolled_route", lambda *a: built.append(a) or route(*a))
    cases = [
        ((1.0, 0.2), (0.8, 1.3), 1),         # both separations under pi, one chord shorter
        ((1.0, 0.05), (0.9, PI - 0.05), 1),  # the shorter chord crosses the seam
        ((1.0, 0.0), (1.0, PI / 2), 2),      # exact two-route tie: sep = L/2 both ways
        ((0.0, 0.0), (0.7, 1.1), 1),         # apex route only
    ]
    for x, y, n_routes in cases:
        built.clear()
        segs = cone.minimal_geodesics(x, y)
        assert len(segs) == n_routes
        # one chord built per returned chord; the all-routes reference built both
        assert len(built) == sum(s.length != x[0] + y[0] for s in segs)
        assert_same_routes(cone, x, y)


def test_cone_apex_point_handles():
    cone = spaces.Cone(PI)
    apex = (0.0, 0.0)
    assert cone.distance(apex, (0.7, 1.1)) == pytest.approx(0.7)
    seg = cone.geodesic((0.5, 0.2), apex)
    assert seg.length == pytest.approx(0.5)
    assert cone.distance(seg.at(0.5), apex) <= config.PT


def test_cone_separation_below_rounding_gives_a_point_segment():
    # ccw = (0 - 1e-17) mod pi rounds to pi, so the clockwise chord has no length
    cone = spaces.Cone(PI)
    (seg,) = cone.minimal_geodesics((1.0, 1e-17), (1.0, 0.0))
    assert seg.length == 0.0
    assert seg.at(0.0) == (1.0, 1e-17)
    # its row walks nowhere: every arclength reads the start
    assert seg.row == (1.0, 1e-17, 0.0, 0.0)
    q = (0.5, 2.0)
    got = cone.pair_distances([q, q], cone.segment_rows([seg.row] * 2)(np.array([0.0, 1e-3])))
    assert got.tolist() == [cone.distance(q, seg.at(0.0))] * 2


# ---------------------------------------------------------------------------
# tripod


def test_tripod_distances():
    tri = spaces.Tripod()
    assert tri.distance((0, 2.0), (0, 5.0)) == 3.0
    assert tri.distance((0, 2.0), (1, 3.0)) == 5.0


def test_tripod_midpoint_through_branch():
    tri = spaces.Tripod()
    seg = tri.geodesic((0, 1.0), (1, 1.0))
    assert tri.distance(seg.midpoint(), (0, 0.0)) <= config.PT


def test_tripod_no_shoot():
    with pytest.raises(ShootUnavailable):
        spaces.Tripod().shoot((0, 1.0), 0.3, 0.5)


def test_tripod_ball_draw_crosses_the_branch_point():
    # from 0.25 out on ray 0, a radius of 0.75 drawn inward passes the branch
    # point and ends 0.5 out on the other ray the third double picks
    tri, center = spaces.Tripod(), (0, 0.25)
    for pick, ray in ((0.2, 1), (0.6, 2)):
        replay = Replay([0.75, 0.9, pick])
        point = tri.sample_ball(center, 1.0, replay)
        assert point == (ray, 0.5) and replay.state == 3
        assert tri.distance(center, point) == 0.75


# ---------------------------------------------------------------------------
# spherical triangle domain


def test_octant_interior_distances_are_ambient():
    oct_dom = spaces.make_octant(1.0)
    sph = spaces.Sphere(1.0)
    a = oct_dom.point_from_data([1.0, 1.0, 1.0])
    b = oct_dom.point_from_data([1.0, 2.0, 1.5])
    assert oct_dom.distance(a, b) == pytest.approx(sph.distance(a, b), rel=1e-14)


def test_octant_edge_midpoints_distance():
    oct_dom = spaces.make_octant(1.0)
    m1 = oct_dom.point_from_data([1.0, 1.0, 0.0])
    m2 = oct_dom.point_from_data([1.0, 0.0, 1.0])
    assert oct_dom.distance(m1, m2) == pytest.approx(PI / 3, rel=1e-12)


def test_octant_vertex_ball_sampling_stays_inside(rng):
    oct_dom = spaces.make_octant(1.0)
    v = oct_dom.point_from_data([0.0, 0.0, 1.0])
    for _ in range(100):
        p = oct_dom.sample_ball(v, 0.3, rng)
        assert oct_dom.contains(p)


def test_octant_rejects_exterior_points():
    oct_dom = spaces.make_octant(1.0)
    with pytest.raises(ValueError):
        oct_dom.distance(np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, -1.0]))
    inside = np.array([0.0, 0.0, 1.0])
    with pytest.raises(ValueError):
        oct_dom.distances(inside, [inside, np.array([0.0, 0.0, -1.0])])


def test_triangle_domain_sums_match_blas_products():
    """The edge normals, summed term by term, match those of np.cross, np.dot
    and np.linalg.norm to 1 ulp per coordinate, and `contains` agrees with
    np.dot's half-spaces at points more than 1e-9 from every edge."""
    rng = np.random.default_rng(7)
    skewed = [[0.9, 0.1, 0.2], [0.2, -0.5, 1.2], [-0.3, 1.0, 0.4]]  # clockwise: normals flip
    for space in (spaces.make_octant(1.0), spaces.SphericalTriangleDomain(2.0, skewed)):
        vs = space.vertices
        normals = []
        for i in range(3):
            n = np.cross(vs[(i + 1) % 3], vs[(i + 2) % 3])
            if np.dot(n, vs[i]) < 0.0:
                n = -n
            normals.append(n / np.linalg.norm(n))
        normals = np.array(normals)
        np.testing.assert_array_max_ulp(np.array(space._normals), normals, maxulp=1)
        xs = rng.normal(size=(4000, 3))
        xs /= np.linalg.norm(xs, axis=1, keepdims=True)
        dots = np.array([[np.dot(n, x) for n in normals] for x in xs])
        far = (np.abs(dots) > 1e-9).all(axis=1)  # asin |n . x| is the distance to edge n
        inside = [space.contains(x) for x in xs[far]]
        assert inside == (dots[far] >= -1e-12).all(axis=1).tolist()
        assert 100 < sum(inside) < len(inside)


def test_degenerate_vertices_rejected():
    with pytest.raises(SpaceDescriptorError):
        spaces.SphericalTriangleDomain(
            1.0, [[1, 0, 0], [0, 1, 0], [-1, 1e-4, 0]]
        )


def test_bad_vertices_rejected_before_any_arithmetic():
    good = [[0, 1, 0], [0, 0, 1]]
    for vertices in ([[0, 0, 0], *good], [[0, 1], *good], [[0, 0, math.inf], *good],
                     [[math.nan, 0, 1], *good], good, [[1, 0, 0], *good, [1, 1, 1]]):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpaceDescriptorError, match="vertices"):
                spaces.SphericalTriangleDomain(1.0, vertices)


# ---------------------------------------------------------------------------
# descriptors


def test_descriptor_round_trip():
    for space in all_analytic_spaces():
        rebuilt = spaces.space_from_descriptor(json.dumps(space.descriptor()))
        assert rebuilt.descriptor() == space.descriptor()


def test_descriptor_validation():
    with pytest.raises(SpaceDescriptorError):
        spaces.space_from_descriptor('{"type": "sphere", "k": 1.0, "bogus": 2}')
    with pytest.raises(SpaceDescriptorError):
        spaces.space_from_descriptor('{"type": "nonsense"}')
    with pytest.raises(SpaceDescriptorError):
        spaces.space_from_descriptor('{"type": "sphere"}')
    with pytest.raises(SpaceDescriptorError):
        spaces.space_from_descriptor('{"type": "sphere", "k": 0.0}')
    with pytest.raises(SpaceDescriptorError):
        spaces.space_from_descriptor('{"type": "plane", "version": 99}')
    with pytest.raises(SpaceDescriptorError):
        spaces.space_from_descriptor("not json")
    # mistyped parameters
    for desc in ('{"type": "sphere", "k": "1"}', '{"type": "sphere", "k": null}',
                 '{"type": "sphere", "k": [1]}', '{"type": "cone", "perimeter": "3"}',
                 '{"type": "spherical_triangle", "k": 1, "vertices": 5}',
                 # checked before the OBJ file is read: this one does not exist
                 '{"type": "mesh", "path": "missing.obj", "steiner": -1}'):
        with pytest.raises(SpaceDescriptorError, match="must be"):
            spaces.space_from_descriptor(desc)


def test_hyperbolic_point_from_data_leaves_input_unchanged():
    hyp = spaces.Hyperbolic(-1.0)
    data = np.array([0.3, -0.2, 5.0])
    p = hyp.point_from_data(data)
    assert data.tolist() == [0.3, -0.2, 5.0]
    assert p[2] == pytest.approx(math.sqrt(1.0 + 0.3**2 + 0.2**2), rel=1e-15)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_point_from_data_rejects_non_finite_data(bad):
    for space in all_analytic_spaces():
        data = space.point_to_data(space.default_center())
        for i in range(len(data)):
            with pytest.raises(ValueError):
                space.point_from_data([*data[:i], bad, *data[i + 1:]])


def test_handle_checks_fail_on_nan():
    # each check is written so that a nan comparison fails it
    with pytest.raises(ValueError, match="sphere handle must be a unit 3-vector"):
        spaces.Sphere(1.0)._check([math.nan, 0.0, 1.0])
    with pytest.raises(ValueError, match="hyperboloid handle"):
        spaces.Hyperbolic(-1.0)._check([math.nan, 0.0, 1.0])
    with pytest.raises(ValueError, match="cone radius must be >= 0"):
        spaces.Cone(PI)._norm((math.nan, 0.0))
    with pytest.raises(ValueError, match="tripod radius must be >= 0"):
        spaces.Tripod()._norm((0, math.nan))
    # the cases that used to come back as nan handles
    with pytest.raises(ValueError, match="sphere point data must be finite"):
        spaces.Sphere(1.0).point_from_data([math.nan, 0.0, 1.0])
    with pytest.raises(ValueError, match="cone point data must be finite"):
        spaces.Cone(PI).point_from_data([1.0, math.inf])


def test_point_data_round_trip(rng):
    for space in all_analytic_spaces():
        p = space.sample_ball(space.default_center(), 0.5, rng)
        q = space.point_from_data(space.point_to_data(p))
        assert space.distance(p, q) <= config.PT


# ---------------------------------------------------------------------------
# segments


def test_subsegment_and_reversal():
    plane = spaces.EuclideanPlane()
    seg = plane.geodesic(np.array([0.0, 0.0]), np.array([4.0, 0.0]))
    sub = seg.subsegment(1.0, 3.0)
    assert sub.length == 2.0
    assert np.allclose(sub.at(0.0), [1.0, 0.0])
    assert np.allclose(sub.at(2.0), [3.0, 0.0])
    rev = seg.subsegment(3.0, 1.0)
    assert np.allclose(rev.at(0.0), [3.0, 0.0])
    assert np.allclose(rev.at(2.0), [1.0, 0.0])
    with pytest.raises(ValueError, match="t=4.5"):
        seg.at(4.5)
    with pytest.raises(ValueError, match="t=-0.5"):
        sub.at(-0.5)


# ---------------------------------------------------------------------------
# batched measurement: the feet over rows and the `distances` overrides against
# the scalar calls

# A foot is checked against the scalar distances to a grid of its segment: its
# distance is at most each of theirs, to the rounding of two distances.
ROW_ATOL = 1e-13
seeds = st.integers(0, 2**32 - 1)


def row_spaces():
    """The spaces whose segments have a row form: sphere, hyperbolic plane, cone."""
    return [s for s in all_analytic_spaces() if isinstance(s, spaces.RowSpace)]


@functools.cache
def _mesh(name):
    # imported here: cmpk.mesh pulls in scipy
    from cmpk import mesh
    from meshgen import icosphere, octahedron

    if name == "octahedron":
        return mesh.MeshSpace(mesh.TriMesh(*octahedron()), 3)
    return mesh.MeshSpace(mesh.TriMesh(*icosphere(2)), 4)


# only the meshes override the looping `GeodesicSpace.distances`; a mesh foot
# reads it on its path
@pytest.mark.parametrize("name", ["octahedron", "icosphere2"])
@given(seed=seeds, n=st.integers(0, 40), radius=st.floats(0.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_distances_match_scalar_distance(name, seed, n, radius):
    space = _mesh(name)
    assert type(space).distances is not spaces.GeodesicSpace.distances
    rng = np.random.default_rng(seed)
    c = space.default_center()
    x = space.sample_ball(c, radius, rng)
    ys = [space.sample_ball(c, radius, rng) for _ in range(n)]
    if n:
        ys[int(rng.integers(n))] = x  # a coincident pair
    got = space.distances(x, ys)
    assert got.shape == (n,)
    assert got.tolist() == [space.distance(x, y) for y in ys]


def _nearest_on_grid(space, qs, segs, ts, t, d):
    """Each foot (t[i], d[i]) is the scalar distance at seg.at(t[i]) and no
    farther from q than any point of the grid ts (rows of arclengths)."""
    for i, (q, seg) in enumerate(zip(qs, segs)):
        assert d[i] == space.distance(q, seg.at(t[i]))
        grid = [space.distance(q, seg.at(x)) for x in ts[:, i].tolist()]
        assert d[i] <= min(grid) + ROW_ATOL


@pytest.mark.parametrize("space", row_spaces(), ids=lambda s: s.descriptor().__str__())
@given(seed=seeds, size=st.integers(1, 6), n=st.integers(0, 8), radius=st.floats(0.05, 1.5))
@settings(max_examples=40, deadline=None)
def test_row_feet_are_the_nearest_points_of_their_segments(space, seed, size, n, radius):
    rng = np.random.default_rng(seed)
    c = space.default_center()
    qs, segs = [], []
    for _ in range(size):
        a, b, q = (space.sample_ball(c, radius, rng) for _ in range(3))
        seg = space.geodesic(a, b)
        if seg.row is not None:  # on the cone, routes through the apex have none
            qs.append(q)
            segs.append(seg)
    if not segs:
        return
    L = np.array([seg.length for seg in segs])
    t, d = criteria._row_feet(space, np.array(qs, dtype=float),
                              np.array([seg.row for seg in segs]), L)
    # a grid of 64 intervals, its two endpoints among them, then random arclengths
    ts = np.concatenate([np.linspace(0.0, L, 65), rng.uniform(0.0, 1.0, (n, len(L))) * L])
    _nearest_on_grid(space, qs, segs, ts, t.tolist(), d.tolist())


def test_every_segment_off_the_cone_apex_has_a_row(rng):
    for space in (spaces.Sphere(1.0), spaces.Hyperbolic(-1.0)):
        for _ in range(20):
            a, b = sample_points(space, 2, rng, radius=1.5)
            assert all(seg.row is not None for seg in space.minimal_geodesics(a, b))
    # off the apex every cone geodesic is an unrolled chord
    for space in (spaces.Cone(PI), spaces.Cone(7.0)):
        for _ in range(20):
            a, b = (space.sample_ball((1.0, 0.5), 0.5, rng) for _ in range(2))
            assert all(seg.row is not None for seg in space.minimal_geodesics(a, b))
        # routes through the apex have none
        assert space.geodesic((0.0, 0.0), (0.6, 1.0)).row is None
    assert spaces.Cone(7.0).geodesic((1.0, 0.0), (1.0, 3.5)).row is None


def test_cone_feet_normalize_as_scalar_distance():
    cone = spaces.Cone(PI)
    qs = [
        (0.0, 0.0), (0.0, 2.5),         # the apex, with any theta
        (1.0, 0.25 + PI / 2),           # separation pi/2 = P/2, the largest on the pi-cone
        (0.5, 0.25 - 1e-13), (0.5, -1e-13), (0.5, PI - 1e-13),  # across the seam
        (2.0, 1.0 + 2 * PI), (1.5, 1.0 - 2 * PI),                  # theta outside [0, P)
        (1.0, 0.25),
    ]
    # a chord from (1, 0.25) and one across the seam theta ~ 0 ~ P; on the
    # 7-cone, separation >= pi goes through the apex
    wide = spaces.Cone(7.0)
    far = [(1.0, 0.0), (1.0, 14.0), (2.0, -7.0), (1.0, 0.3), (1.0, 6.9)]
    for space, points, (a, b) in ((cone, qs, ((1.0, 0.25), (0.7, 1.4))),
                                  (cone, qs, ((0.8, PI - 0.1), (0.9, 0.2))),
                                  (wide, far, ((1.0, 3.2), (2.0, 3.8)))):
        seg = space.geodesic(a, b)
        t, d = criteria._row_feet(space, np.array(points, dtype=float),
                                  np.array([seg.row] * len(points)),
                                  np.full(len(points), seg.length))
        ts = np.repeat(np.linspace(0.0, seg.length, 65)[:, None], len(points), axis=1)
        _nearest_on_grid(space, points, [seg] * len(points), ts, t.tolist(), d.tolist())
        # the foot of a handle is the foot of its normal form
        normal = [space.point_from_data(space.point_to_data(p)) for p in points]
        assert criteria._row_feet(space, np.array(normal, dtype=float),
                                  np.array([seg.row] * len(points)),
                                  np.full(len(points), seg.length))[1].tolist() == d.tolist()
    with pytest.raises(ValueError, match="radius"):
        cone.foot_rows([(-1.0, 0.0)], [seg.row], [seg.length])


def _old_sphere_distance(sphere, x, y):
    return sphere.radius * math.atan2(np.linalg.norm(np.cross(x, y)), float(np.dot(x, y)))


unit_vectors = (
    st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
    .map(np.array)
    .filter(lambda v: np.linalg.norm(v) > 1e-3)
    .map(lambda v: v / np.linalg.norm(v))
)


@given(x=unit_vectors, v=unit_vectors, eps=st.floats(0.0, 1e-3),
       kind=st.sampled_from(["any", "same", "antipode"]), k=st.sampled_from([1.0, 4.0, 0.01]))
@settings(max_examples=300, deadline=None)
def test_sphere_distance_matches_cross_product_formula(x, v, eps, kind, k):
    sphere = spaces.Sphere(k)
    if kind == "any":
        y = v
    else:
        y = (x if kind == "same" else -x) + eps * v  # coincident or (near-)antipodal
        y = y / np.linalg.norm(y)
    old = _old_sphere_distance(sphere, x, y)
    assert sphere.distance(x, y) == pytest.approx(old, rel=1e-15, abs=1e-15 * sphere.radius)
    assert sphere.distance(x, x) == 0.0


@given(p=unit_vectors)
@settings(max_examples=200, deadline=None)
def test_sphere_basis_matches_cross_product_formula(p):
    sphere = spaces.Sphere(1.0)
    ref = np.array([0.0, 0.0, 1.0]) if abs(p[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    u_old = np.cross(ref, p) / np.linalg.norm(np.cross(ref, p))
    u, v = sphere._basis(p)
    np.testing.assert_allclose(u, u_old, rtol=0, atol=1e-15)
    np.testing.assert_allclose(v, np.cross(p, u_old), rtol=0, atol=1e-15)


# ---------------------------------------------------------------------------
# float-math point evaluators against the numpy formulas they replaced


def _ulps(a: float, b: float) -> float:
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


cone_perimeters = st.sampled_from([PI, 2.0, 7.0])
cone_radii = st.one_of(st.just(0.0), st.floats(1e-3, 3.0))
# fractions of the perimeter; the tiny ones land on either side of the seam theta ~ 0 ~ P
cone_turns = st.one_of(st.floats(0.0, 1.0), st.floats(-1e-12, 1e-12))


def _old_unrolled_ev(cone, x, signed_sep, r2, length):
    """The numpy evaluator `Cone._unrolled_route` used, on the route's own length."""
    r1, t1 = cone._norm(x)
    p1 = np.array([r1, 0.0])
    u = (np.array([r2 * math.cos(signed_sep), r2 * math.sin(signed_sep)]) - p1) / length

    def ev(t):
        q = p1 + t * u
        return float(np.hypot(q[0], q[1])), (t1 + math.atan2(q[1], q[0])) % cone.perimeter

    return ev


@given(P=cone_perimeters, r1=cone_radii, r2=cone_radii, a1=cone_turns, a2=cone_turns,
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@settings(max_examples=300, deadline=None)
def test_cone_route_evaluators_match_numpy_formula(P, r1, r2, a1, a2, fracs):
    cone = spaces.Cone(P)
    x, y = (r1, a1 * P), (r2, a2 * P)
    routes = []
    if r1 > 0.0 and r2 > 0.0 and cone.distance(x, y) > 0.0:  # as `minimal_geodesics` calls it
        ccw = (cone._norm(y)[1] - cone._norm(x)[1]) % P
        # both unrolled directions: counterclockwise and clockwise
        routes = [s for s in (ccw, ccw - P) if abs(s) < PI]
    for signed in routes:
        seg = cone._unrolled_route(x, y, signed)
        p2 = np.array([r2 * math.cos(signed), r2 * math.sin(signed)])
        old_length = float(np.linalg.norm(p2 - np.array([r1, 0.0])))
        if old_length < 1e-150:
            continue  # the squares under numpy's norm underflow; hypot's do not
        assert _ulps(seg.length, old_length) <= 2.0
        old = _old_unrolled_ev(cone, x, signed, r2, seg.length)
        ts = [f * seg.length for f in [0.0, 1.0, *fracs]]
        for t in ts:
            (rho, th), (rho_old, th_old) = seg._eval(t), old(t)
            assert _ulps(rho, rho_old) <= 2.0 and th == th_old
        # the row reaches the points `at` reaches
        got = cone.pair_distances([seg.at(t) for t in ts],
                                  cone.segment_rows([seg.row] * len(ts))(np.array(ts)))
        assert (got <= config.PT).all()
    # every minimal geodesic with a row, as `minimal_geodesics` builds it
    for seg in cone.minimal_geodesics(x, y):
        if seg.row is not None:
            ts = [f * seg.length for f in fracs]
            got = cone.pair_distances([seg.at(t) for t in ts],
                                      cone.segment_rows([seg.row] * len(ts))(np.array(ts)))
            assert (got <= config.PT).all()


@given(P=cone_perimeters, r=cone_radii, a=cone_turns, phi=st.floats(-7.0, 7.0),
       length=st.floats(0.0, 3.0))
@settings(max_examples=300, deadline=None)
def test_cone_shoot_matches_numpy_formula(P, r, a, phi, length):
    cone = spaces.Cone(P)
    p = (r, a * P)
    try:
        rho, th = cone.shoot(p, phi, length)
    except ShootUnavailable:
        rho = None
    r0, th0 = cone._norm(p)
    if r0 == 0.0:
        assert (rho, th) == (length, phi % P)
        return
    q = np.array([r0 + length * math.cos(phi), length * math.sin(phi)])
    rho_old = float(np.hypot(q[0], q[1]))
    if rho_old <= config.PT:
        assert rho is None
        return
    assert _ulps(rho, rho_old) <= 2.0
    assert th == (th0 + math.atan2(q[1], q[0])) % P


def _mdot(u, v):
    return float(u[0] * v[0] + u[1] * v[1] - u[2] * v[2])


def _old_hyperbolic_basis(p):
    u = np.array([1.0, 0.0, 0.0])
    u = u + _mdot(u, p) * p
    u = u / math.sqrt(_mdot(u, u))
    v = np.array([0.0, 1.0, 0.0])
    v = v + _mdot(v, p) * p - _mdot(v, u) * u
    v = v / math.sqrt(_mdot(v, v))
    return u, v


def _old_shoot(space, p, phi, length, u, v, cos, sin):
    w = math.cos(phi) * u + math.sin(phi) * v
    a = length / space.radius
    return cos(a) * p + sin(a) * w


@pytest.mark.parametrize("k", [1.0, 4.0, -1.0, -0.5])
@given(seed=seeds, phi=st.floats(-7.0, 7.0), length=st.floats(0.0, 3.0),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@settings(max_examples=100, deadline=None)
def test_sphere_and_hyperbolic_evaluators_are_bit_equal_to_numpy_formula(
        k, seed, phi, length, fracs):
    space = spaces.Sphere(k) if k > 0 else spaces.Hyperbolic(k)
    cos, sin = (math.cos, math.sin) if k > 0 else (math.cosh, math.sinh)
    rng = np.random.default_rng(seed)
    p = space.sample_ball(space.default_center(), 1.0, rng)
    if k > 0:
        u, v = (np.array(b) for b in space._basis(p))
    else:
        u, v = _old_hyperbolic_basis(p)
        np.testing.assert_array_equal(np.array(space._basis(p)), np.array([u, v]))
    np.testing.assert_array_equal(
        space.shoot(p, phi, length), _old_shoot(space, p, phi, length, u, v, cos, sin))
    # the arc along the unit tangent u, as `minimal_geodesics` builds it
    arc = space._arc(p, u, length)
    for t in [0.0, length, *(f * length for f in fracs)]:
        a = t / space.radius
        np.testing.assert_array_equal(arc.at(t), cos(a) * p + sin(a) * u)


# ---------------------------------------------------------------------------
# batched ball draws against the scalar sample_ball


BELOW_ONE = np.nextafter(1.0, 0.0)
uniforms = st.one_of(st.just(0.0), st.just(BELOW_ONE),
                     st.floats(0.0, 1.0, exclude_max=True))
_hyperbolic_off_origin = spaces.Hyperbolic(-1.0).point_from_data([0.3, -1.2, 0.0])
BALL_CASES = {
    "sphere-k1-pole": (spaces.Sphere(1.0), np.array([0.0, 0.0, 1.0])),
    "sphere-k4-equator": (spaces.Sphere(4.0), np.array([1.0, 0.0, 0.0])),
    "sphere-k4-pole": (spaces.Sphere(4.0), np.array([0.0, 0.0, 1.0])),
    "sphere-k1-equator": (spaces.Sphere(1.0), np.array([1.0, 0.0, 0.0])),
    "hyperbolic-k-1-origin": (spaces.Hyperbolic(-1.0), np.array([0.0, 0.0, 1.0])),
    "hyperbolic-k-1-off": (spaces.Hyperbolic(-1.0), _hyperbolic_off_origin),
    "hyperbolic-k-0.5-origin": (spaces.Hyperbolic(-0.5), np.array([0.0, 0.0, 1.0])),
    "hyperbolic-k-0.5-off": (spaces.Hyperbolic(-0.5), _hyperbolic_off_origin),
    "pi-cone-apex": (spaces.Cone(PI), (0.0, 0.0)),
    "pi-cone-off": (spaces.Cone(PI), (1.0, 0.5)),
    "pi-cone-near-apex": (spaces.Cone(PI), (0.04, 3.0)),
    "7-cone-apex": (spaces.Cone(7.0), (0.0, 0.0)),
    "7-cone-off": (spaces.Cone(7.0), (1.0, 6.9)),
    "7-cone-near-apex": (spaces.Cone(7.0), (0.04, 0.2)),
}


def _scalar_draw(space, center, radius, rng, draw=None):
    """What sample_ball, or a copy `draw` of it, draws from rng, or the
    ShootUnavailable it raises."""
    try:
        if draw is None:
            return space.sample_ball(center, radius, rng)
        return draw(space, center, radius, rng)
    except ShootUnavailable as e:
        return e


def _same_point(space, row, ok, want):
    """A row and flag of sample_balls against what sample_ball drew or raised."""
    if isinstance(want, ShootUnavailable):
        return not ok
    got = space.handle(row)
    if isinstance(want, tuple):
        return ok and got == want
    return ok and np.array_equal(got, want)


def test_sample_balls_on_exactly_the_row_spaces():
    assert [s.name for s in row_spaces()] == ["sphere", "sphere", "hyperbolic", "hyperbolic",
                                             "cone", "cone"]
    for space in all_analytic_spaces():
        assert hasattr(space, "sample_balls") == isinstance(space, spaces.RowSpace)


@pytest.mark.parametrize("case", list(BALL_CASES))
@given(pairs=st.lists(st.tuples(uniforms, uniforms), min_size=1, max_size=50),
       radius=st.floats(0.05, 1.5))
@settings(max_examples=60, deadline=None)
def test_sample_balls_equal_sample_ball_bitwise(case, pairs, radius):
    space, center = BALL_CASES[case]
    us = np.array(pairs, dtype=float).ravel()
    points, available = space.sample_balls(center, radius, us)
    replay = Replay(us)
    want = [_scalar_draw(space, center, radius, replay) for _ in pairs]
    assert len(points) == len(available) == len(want)
    assert all(_same_point(space, *got, w) for *got, w in zip(points, available, want))


def test_batched_draw_raises_at_the_unavailable_shot():
    # phi = pi exactly from the center (0.5, 0): the shot of length 0.5 ends
    # 6e-17 from the apex, within PT, so `shoot` raises there
    cone, center = spaces.Cone(7.0), (0.5, 0.0)
    doubles = [0.1, 0.3, 0.7, 0.9, 0.5, 0.5, 0.2, 0.2, 0.4, 0.6, 0.8, 0.1]
    scalar = Replay(doubles)
    want = [cone.sample_ball(center, 1.0, scalar) for _ in range(2)]
    with pytest.raises(ShootUnavailable):
        cone.sample_ball(center, 1.0, scalar)
    points, available = cone.sample_balls(center, 1.0, np.array(doubles))
    assert available.tolist() == [True, True, False, True, True, True]
    assert [cone.handle(p) for p in points[:2]] == want
    # a round of two searches maps these six points ahead in one call, and
    # raises at the third, where the one-at-a-time draw does
    batched = Replay(doubles + [0.5] * 20)
    with pytest.raises(ShootUnavailable):
        list(criteria.foot_configs(cone, center, 1.0, batched, 2))
    assert batched.state == scalar.state == 6


# ---------------------------------------------------------------------------
# the array forms of shoot, distance and geodesic against the scalar methods

SHOT_CASES = {
    **BALL_CASES,
    # a shot in direction pi over 0.5 ends 6e-17 from the apex: unavailable
    "pi-cone-half": (spaces.Cone(PI), (0.5, 0.0)),
    "7-cone-half": (spaces.Cone(7.0), (0.5, 0.0)),
}
directions = st.one_of(st.just(0.0), st.just(PI), st.floats(-7.0, 7.0))
lengths = st.one_of(st.just(0.0), st.just(0.5), st.floats(0.0, 3.0))


def _bits(point):
    return repr(np.asarray(point, dtype=float).tolist())  # tells -0.0 from 0.0


def _handle(space, row):
    return tuple(row.tolist()) if space.name == "cone" else row


def _shot(space, p, phi, length):
    try:
        return space.shoot(p, phi, length)
    except ShootUnavailable:
        return None


def assert_rows_equal_the_scalar_methods(space, starts, ends, fracs):
    """pair_distances and geodesic_rows of the rows against distance and geodesic."""
    d = space.pair_distances(starts, ends)
    lengths, at, exact = space.geodesic_rows(starts, ends)
    ts = np.where(exact, fracs * lengths, 0.0)
    points = at(ts)
    assert np.isfinite(points).all()
    row_lengths, rows, row_starts, row_ends, row_exact = space.row_segments(starts, ends)
    assert _bits(row_lengths) == _bits(lengths) and row_exact.tolist() == exact.tolist()
    for i, (x, y) in enumerate(zip(starts, ends)):
        x, y = _handle(space, x), _handle(space, y)
        assert repr(float(d[i])) == repr(space.distance(x, y))
        if exact[i]:
            assert len(space.minimal_geodesics(x, y)) == 1
            seg = space.geodesic(x, y)
            assert repr(float(lengths[i])) == repr(seg.length)
            assert _bits(points[i]) == _bits(seg.at(float(ts[i])))
            # what a segment is built from, and the segment built from it
            assert repr(tuple(rows[i].tolist())) == repr(seg.row)
            assert _bits(row_starts[i]) == _bits(seg.start)
            assert _bits(row_ends[i]) == _bits(seg.end)
            built = space.segment_of_row(space.handle(row_starts[i]), space.handle(row_ends[i]),
                                         float(row_lengths[i]), tuple(rows[i].tolist()))
            assert _bits(built.at(float(ts[i]))) == _bits(seg.at(float(ts[i])))


@pytest.mark.parametrize("case", list(SHOT_CASES))
@given(shots=st.lists(st.tuples(directions, lengths, directions, st.floats(0.0, 1.0)),
                      min_size=1, max_size=30))
@settings(max_examples=40, deadline=None)
def test_shots_equal_shoot_bitwise(case, shots):
    space, center = SHOT_CASES[case]
    phis, ls, phis2, fracs = (np.array(c, dtype=float) for c in zip(*shots))
    points, available = space.shots(center, phis, ls)
    for row, ok, phi, length in zip(points, available, phis.tolist(), ls.tolist()):
        want = _shot(space, center, phi, length)
        assert ok == (want is not None)
        if ok:
            assert _bits(row) == _bits(want)
    # one start per shot: the points just shot, shot from again
    starts = points[available]
    phis2, ls2, fracs = phis2[available], 0.5 * ls[available][::-1], fracs[available]
    ends, available = space.shots(starts, phis2, ls2)
    for row, ok, start, phi, length in zip(ends, available, starts, phis2.tolist(), ls2.tolist()):
        want = _shot(space, _handle(space, start), phi, length)
        assert ok == (want is not None)
        if ok:
            assert _bits(row) == _bits(want)
    assert_rows_equal_the_scalar_methods(space, starts[available], ends[available],
                                         fracs[available])


def test_shots_mark_the_shot_through_the_apex_unavailable():
    for perimeter in (PI, 7.0):
        cone = spaces.Cone(perimeter)
        starts = np.array([[0.5, 0.0], [0.5, 0.0], [0.0, 0.0]])
        points, available = cone.shots(starts, np.array([PI, 0.0, PI]), np.array([0.5, 0.5, 0.5]))
        assert available.tolist() == [False, True, True]
        with pytest.raises(ShootUnavailable):
            cone.shoot((0.5, 0.0), PI, 0.5)
        assert _bits(points[1:]) == _bits([cone.shoot(tuple(s), phi, 0.5)
                                           for s, phi in ((starts[1], 0.0), (starts[2], PI))])


def test_geodesic_rows_leave_apex_routes_and_antipodes_inexact():
    cone7, cone_pi, sphere = spaces.Cone(7.0), spaces.Cone(PI), spaces.Sphere(1.0)
    cases = [
        # 3.5 either way round the 7-cone: the route through the apex
        (cone7, [[0.3, 0.0], [0.3, 3.5]], False),
        (cone7, [[0.0, 0.0], [0.3, 1.0]], False),  # from the apex
        (cone7, [[0.3, 1.0], [0.3, 1.0]], False),  # zero length
        (cone_pi, [[1.0, 0.0], [1.0, PI / 2]], False),  # two chords tie: not the only one
        (cone_pi, [[1.0, 0.0], [0.7, 1.0]], True),
        # -1e-20 reduces to the perimeter, which the chord's start reduces to 0
        (cone_pi, [[0.5, -1e-20], [0.7, 1.0]], True),
        (sphere, [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]], False),
        (sphere, [[0.0, 0.0, 1.0], [0.0, 0.6, 0.8]], True),
    ]
    for space, (x, y), exact in cases:
        starts, ends = np.array([x], dtype=float), np.array([y], dtype=float)
        assert space.geodesic_rows(starts, ends)[2].tolist() == [exact]
        assert_rows_equal_the_scalar_methods(space, starts, ends, np.array([0.3]))
    (a, b) = cone_pi.minimal_geodesics((1.0, 0.0), (1.0, PI / 2))
    assert a.length == b.length


def _sphere_pairs(space, rng, n):
    """Pairs of sphere points where rounding is hardest on the row forms: in
    the polar caps (the e1 frame of `_basis`), a shot just short of the
    antipodal TIE, and separations near 1e-8."""
    cap = [space.point_from_data([*rng.uniform(-0.3, 0.3, 2), rng.choice([-1.0, 1.0])])
           for _ in range(n)]
    starts, ends = [], []
    for x in cap:
        phi, tie = rng.uniform(0.0, spaces.TWO_PI), config.TIE
        for length in (rng.uniform(0.0, 0.3), PI * space.radius - tie * rng.uniform(1.5, 50.0),
                       1e-8 * rng.uniform(0.5, 2.0)):
            starts.append(x)
            ends.append(space.shoot(x, phi, length))
    return np.array(starts), np.array(ends)


@pytest.mark.parametrize("k", [1.0, 4.0, 0.3])
@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_sphere_rows_equal_the_scalar_methods_at_caps_ties_and_short_pairs(k, seed):
    space, rng = spaces.Sphere(k), np.random.default_rng(seed)
    starts, ends = _sphere_pairs(space, rng, 5)
    assert (np.abs(starts[:, 2]) >= 0.9).all()
    assert_rows_equal_the_scalar_methods(space, starts, ends, rng.uniform(0.0, 1.0, len(starts)))
    # both orders: caps at the end too
    assert_rows_equal_the_scalar_methods(space, ends, starts, rng.uniform(0.0, 1.0, len(starts)))


def test_sphere_check_rows_raises_where_check_does():
    sphere, rng = spaces.Sphere(1.0), np.random.default_rng(5)
    outcomes = set()
    for side in (-1.0, 1.0):
        for j in range(-40, 41):
            u = rng.normal(size=3)
            x = u / math.sqrt(float(u @ u)) * math.sqrt(1.0 + side * (1e-10 + j * 2e-17))
            try:
                sphere._check(x)
                want = True
            except ValueError:
                want = False
            try:
                sphere._check_rows(np.array([[0.0, 0.0, 1.0], x]))
                got = True
            except ValueError:
                got = False
            assert got == want
            outcomes.add(want)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the sphere's and the hyperbolic plane's shared methods, and the default
# sample_ball, against each space's own copy before they were merged

_plane, _s1, _s4 = spaces.EuclideanPlane(), spaces.Sphere(1.0), spaces.Sphere(4.0)
_h1, _h05 = spaces.Hyperbolic(-1.0), spaces.Hyperbolic(-0.5)
_sphere_off = _s1.point_from_data([0.3, -0.5, 0.8])
MERGED_CASES = {
    "plane-origin": (_plane, np.zeros(2)),
    "plane-off": (_plane, np.array([0.7, -1.3])),
    "sphere-k1-pole": (_s1, np.array([0.0, 0.0, 1.0])),
    "sphere-k1-off": (_s1, _sphere_off),
    "sphere-k4-pole": (_s4, np.array([0.0, 0.0, 1.0])),
    "sphere-k4-off": (_s4, _sphere_off),
    "hyperbolic-k-1-origin": (_h1, np.array([0.0, 0.0, 1.0])),
    "hyperbolic-k-1-off": (_h1, _hyperbolic_off_origin),
    "hyperbolic-k-0.5-origin": (_h05, np.array([0.0, 0.0, 1.0])),
    "hyperbolic-k-0.5-off": (_h05, _hyperbolic_off_origin),
}
OLD_SHOOT = {"sphere": oracles.sphere_shoot, "hyperbolic": oracles.hyperbolic_shoot}
OLD_ARC = {"sphere": oracles.sphere_arc_segment, "hyperbolic": oracles.hyperbolic_arc_segment}
# the plane's and the cone's shoot are their own, unchanged
OLD_BALL = {"plane": oracles.plane_sample_ball, "cone": oracles.cone_sample_ball}
DRAW_CASES = {
    **MERGED_CASES,
    **{name: BALL_CASES[name] for name in BALL_CASES if "cone" in name},
}


@pytest.mark.parametrize("case", list(DRAW_CASES))
@given(phi=st.floats(-7.0, 7.0), length=st.floats(0.0, 3.0), u=st.tuples(uniforms, uniforms),
       radius=st.floats(0.05, 1.5))
@settings(max_examples=60, deadline=None)
def test_shoot_and_sample_ball_equal_the_unmerged_copies_bitwise(case, phi, length, u, radius):
    space, center = DRAW_CASES[case]
    got = _scalar_draw(space, center, radius, Replay(u))
    if space.name in OLD_BALL:
        want = _scalar_draw(space, center, radius, Replay(u), OLD_BALL[space.name])
        if isinstance(want, ShootUnavailable):
            assert isinstance(got, ShootUnavailable)
            return
    else:  # each space's own sample_ball had the plane's body, with its own shoot
        old_shoot = OLD_SHOOT[space.name]
        np.testing.assert_array_equal(
            space.shoot(center, phi, length), old_shoot(space, center, phi, length))
        replay = Replay(u)
        phi0 = replay.uniform(0.0, spaces.TWO_PI)
        want = old_shoot(space, center, phi0, radius * replay.uniform())
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("case", [c for c in MERGED_CASES if not c.startswith("plane")])
@given(psi=st.floats(-7.0, 7.0), length=st.floats(1e-3, 3.0),
       fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_arc_equals_the_unmerged_copies_bitwise(case, psi, length, fracs):
    space, x = MERGED_CASES[case]
    u, v = (np.array(b) for b in space._basis(x.tolist()))
    w = math.cos(psi) * u + math.sin(psi) * v
    old_arc = OLD_ARC[space.name]
    got, want = space._arc(x, w, length), old_arc(space, x, w, length)
    assert (got.length, got.row) == (want.length, want.row)
    np.testing.assert_array_equal(got.end, want.end)
    for t in [0.0, length, *(f * length for f in fracs)]:
        np.testing.assert_array_equal(got.at(t), want.at(t))
    if space.name == "hyperbolic":
        # `minimal_geodesics` with the tangent toward y written inline
        y = space.shoot(x, psi, length)
        (seg,) = space.minimal_geodesics(x, y)
        tangent = oracles.hyperbolic_tangent_toward(space, x, y)
        assert seg.row == old_arc(space, x, tangent, space.distance(x, y)).row
