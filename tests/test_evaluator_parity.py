"""Measure -> evaluate against the references in `oracles`.

The package measures each angle at one scale, the last rung of the 8-rung
ladder the references measure and evaluate in full, and `evaluate_point_segment`
checks the triple and computes the comparison angle once per call.  Both
must give equal outcomes, every field compared, or raise the same exception
with the same message; the angles the right-angle constructions read must be
bit-equal, or both sides raise the same exception type.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cmpk import criteria, spaces
from cmpk.config import DEFAULT_TOL, SPHERE_MARGIN
from cmpk.criteria import PointSegmentMeasurement, TriangleMeasurement
from cmpk.kernels import SERIES_EPS

import oracles

PI = math.pi

EVALUATORS = {
    "triangle": (criteria.evaluate_triangle, oracles.evaluate_triangle),
    "point_segment": (criteria.evaluate_point_segment, oracles.evaluate_point_segment),
}

SPACES = {
    "sphere": (spaces.Sphere(1.0), None, 0.3),
    "hyperbolic": (spaces.Hyperbolic(-1.0), None, 0.3),
    "tripod": (spaces.Tripod(), (0, 0.0), 0.5),
    "cone": (spaces.Cone(PI), (0.0, 0.0), 0.25),
}


def outcome_or_error(evaluate, m, k, tol_cfg=DEFAULT_TOL):
    try:
        return repr(vars(evaluate(m, k, tol_cfg=tol_cfg)))
    except Exception as e:  # whatever it is, both sides must raise the same
        return type(e), str(e)


def assert_parity(criterion, m, k, tol_cfg=DEFAULT_TOL, ref_m=None):
    """`ref_m` is the reference's measurement, where it differs from `m`."""
    new, ref = EVALUATORS[criterion]
    got = outcome_or_error(new, m, k, tol_cfg)
    assert got == outcome_or_error(ref, m if ref_m is None else ref_m, k, tol_cfg)
    return got


def region(kind):
    sp, center, radius = SPACES[kind]
    return sp, sp.default_center() if center is None else center, radius


def first_geodesics(ref_m):
    """The reference measurement read on the first minimal geodesic of each
    side: the first ladder it measures at each vertex, its only one where
    each side has one minimal geodesic."""
    first = {v: raws[:1] for v, raws in ref_m.ladders.items()}
    return oracles.TriangleMeasurement(ref_m.sides, first, ref_m.scale, False)


@functools.cache
def stored(kind):
    """Ten foot configurations measured by the package, and each triangle also
    by the reference (under "reference triangle").  The cone adds a triangle
    with two minimal geodesics from p to q, a quarter turn apart, whose
    reference is read on the first."""
    sp, center, radius = region(kind)
    rng = np.random.default_rng(3)
    out = {"triangle": [], "point_segment": [], "reference triangle": []}
    configs = [next(criteria.foot_configs(sp, center, radius, rng, 1))[:2] for _ in range(10)]
    for q, seg in configs:
        out["point_segment"].append(criteria.measure_point_segment(sp, q, seg))
    triangles = [(seg.start, q, seg.end) for q, seg in configs]
    if kind == "cone":
        triangles.append(((0.2, 0.0), (0.2, PI / 2), (0.3, 0.4)))
    for p, q, r in triangles:
        out["triangle"].append(criteria.measure_triangle(sp, p, q, r))
        out["reference triangle"].append(first_geodesics(oracles.measure_triangle(sp, p, q, r)))
    return out


def lengths(m, criterion):
    """(perimeter of the main triple, lengths whose k * d^2 picks a kernel branch)."""
    if criterion == "triangle":
        ds = [*m.sides, *(d for sides in m.ladders for d in sides)]
        return sum(m.sides), [d for d in ds if d > 0.0]
    ds = [m.d_qp, m.d_qr, m.length, *(t for t, _ in m.probes)]
    return m.d_qp + m.length + m.d_qr, [d for d in ds if d > 0.0]


def curvatures(m, criterion):
    """Random k, signed zeros, k within a few ulps of the admissible-perimeter
    bound, and k * d^2 just either side of the kernels' series cut-off."""
    perimeter, ds = lengths(m, criterion)
    k_bound = ((2.0 * PI - SPHERE_MARGIN) / perimeter) ** 2
    near_bound = st.integers(-3, 3).map(lambda n: k_bound * (1.0 + n * 2.0**-52))
    series = st.tuples(st.sampled_from(ds), st.sampled_from([-1.0, 1.0]),
                       st.sampled_from([1.0 - 1e-6, 1.0 + 1e-6])).map(
        lambda x: x[1] * x[2] * SERIES_EPS / (x[0] * x[0]))
    return st.one_of(st.floats(-4.0, 4.0), st.sampled_from([0.0, -0.0]), near_bound, series)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(sorted(SPACES)),
    criterion=st.sampled_from(["triangle", "point_segment"]),
    data=st.data(),
)
def test_stored_measurements_match_the_references(kind, criterion, data):
    ms = stored(kind)
    index = data.draw(st.integers(0, len(ms[criterion]) - 1))
    m = ms[criterion][index]
    ref_m = ms["reference triangle"][index] if criterion == "triangle" else None
    assert_parity(criterion, m, data.draw(curvatures(m, criterion)), ref_m=ref_m)


def test_triangle_evaluation_makes_one_comparison_angle_per_triple(monkeypatch):
    # one comparison angle per main vertex and one per ladder triple, at any k
    calls = []
    real = criteria.model.comparison_angle
    monkeypatch.setattr(criteria.model, "comparison_angle",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    m = stored("sphere")["triangle"][0]
    criteria.evaluate_triangle(m, 0.5)
    assert len(calls) == 6


@pytest.mark.parametrize("kind", ["cone", "tripod"])
def test_right_angle_constructions_read_the_reference_angle(kind, monkeypatch):
    """Every angle `build_right_angle_config` and `right_angle_from_foot` read,
    on the pi-cone (around and at the apex) and on the tripod, and every angle
    and skip the array rungs of `chi_at_scale` decide on the cone."""
    real = criteria.angle_at
    read, raised = [], []

    def checked(*args, **kwargs):
        try:
            ref = oracles.angle_at(*args, **kwargs).angle
        except Exception as e:
            with pytest.raises(Exception) as got:
                real(*args, **kwargs)
            assert got.type is type(e)
            raised.append(got.type)
            raise
        angle = real(*args, **kwargs)
        assert repr(angle) == repr(ref)
        read.append(angle)
        return angle

    real_rows = criteria._right_angle_rows

    def rows_built_one_at_a_time(space, p, beta, l1, l2):
        # the cone rungs of `chi_at_scale` decide their angles over arrays: each
        # row the arrays decide is built again one at a time, reading its angle
        # through `checked`, and must have the same outcome, angle and ratio
        angle, ratio, outcome = real_rows(space, p, beta, l1, l2)
        for i in np.flatnonzero(outcome != criteria.RA_BACK).tolist():
            b, n_read = float(beta[i]), len(read)
            try:
                cfg = criteria.build_right_angle_config(
                    space, p[i], b, b + PI / 2, float(l1[i]), float(l2[i]))
                assert outcome[i] == criteria.RA_BUILT
                assert repr(float(ratio[i])) == repr(cfg.ratio_defect)
            except criteria.RightAngleUnavailable:
                assert outcome[i] == criteria.RA_SKIPPED
            want = read[-1] if len(read) > n_read else math.nan
            assert repr(float(angle[i])) == repr(want)
        return angle, ratio, outcome

    monkeypatch.setattr(criteria, "angle_at", checked)
    monkeypatch.setattr(criteria, "_right_angle_rows", rows_built_one_at_a_time)
    sp, center, radius = region(kind)
    rng = np.random.default_rng(5)
    for _ in range(40):
        try:
            criteria.sample_right_angle_config(sp, center, radius, rng)
        except criteria.RightAngleUnavailable:
            pass
        q, seg, foot = next(criteria.foot_configs(sp, center, radius, rng, 1))
        try:
            criteria.right_angle_from_foot(sp, q, seg, foot=foot)
        except criteria.RightAngleUnavailable:
            pass
    if kind == "cone":
        for eps in (0.25, 0.03):
            criteria.chi_at_scale(sp, (0.5, 1.0), eps, 40, 7)
            criteria.chi_at_scale(sp, center, eps, 40, 7)
        # legs of 1e-6 put the measuring scale under the distance resolution
        for p in ((0.0, 0.0), (0.05, 1.0)):
            for beta in np.linspace(0.0, PI, 9):
                for legs in ((0.2, 0.1), (2e-6, 1e-6)):
                    try:
                        criteria.build_right_angle_config(sp, p, beta, beta + PI / 2, *legs)
                    except criteria.RightAngleUnavailable:
                        pass
        assert raised
    assert len(read) >= 80


# ---------------------------------------------------------------------------
# hand-built triangles whose stored triple raises, or might, at some k

KS = (-1e4, -4.0, -0.7, -0.5, 0.0, 0.5, 4.3, 30.0, 1e4, math.nan)


def triangle(triple, side=1.0):
    """Equilateral main triangle whose q vertex carries `triple`, and the
    reference measurement that reads each triple as a one-rung ladder."""
    good = (0.1 * side,) * 3
    sides = (good, triple, good)
    ladders = {v: [((0.0, *s),)] for v, s in zip("pqr", sides)}
    return (TriangleMeasurement((side,) * 3, sides, side),
            oracles.TriangleMeasurement((side,) * 3, ladders, side, False))


HAND_BUILT = {
    "one-rung ladder": ((0.025, 0.025, 0.025), None),
    "triple breaks the triangle inequality": (
        (0.05, 0.01, 0.01), "triangle inequality violated"),
    "triple on the adjacent-side floor": (
        (0.0, 0.01, 0.01), "sides adjacent to the angle must be > 0"),
    "triple inside the triangle-inequality slack": (
        (0.01, 0.01, 0.02 + 3e-11), "below -1 beyond clamp tolerance"),
    "triple with adjacent sides far apart": (
        (1e-7, 1.0, 1.0000001), "below -1 beyond clamp tolerance"),
    "triple larger than the main triangle": (
        (1.2, 1.2, 1.2), "perimeter 3.5999999999999996 >= admissible bound"),
    "triple whose sn_k product underflows": (
        (1e-200, 1e-200, 1e-200), "float division by zero"),
}


@pytest.mark.parametrize("case", HAND_BUILT)
def test_hand_built_triangles_match_the_reference(case):
    triple, message = HAND_BUILT[case]
    m, ref_m = triangle(triple, side=10.0 if "far apart" in case else 1.0)
    results = [assert_parity("triangle", m, k, ref_m=ref_m) for k in KS]
    raised = [r[1] for r in results if isinstance(r, tuple)]
    if message is None:
        assert isinstance(results[KS.index(0.0)], str)
    else:
        assert any(message in r for r in raised), raised


# ---------------------------------------------------------------------------
# hand-built point-segment measurements


def point_segment(probes, d_qp=0.3, d_qr=0.4, length=0.5):
    return PointSegmentMeasurement(d_qp, d_qr, length, tuple(probes), max(d_qp, d_qr, length))


@pytest.mark.parametrize("m", [
    point_segment([(0.0, 0.3), (0.25, 0.3), (0.5, 0.4)]),
    point_segment([(0.0, 0.3), (0.5, 0.4)]),
    point_segment([(-5e-10, 0.3), (0.5 + 5e-10, 0.4)]),
    point_segment([(0.25, 0.3), (0.5 + 1e-6, 0.4)]),
    point_segment([(-1e-6, 0.3), (0.25, 0.3)]),
    point_segment([]),
    point_segment([(0.25, 0.3)], d_qp=0.1, d_qr=0.1, length=0.5),
    point_segment([(0.25, 0.3)], d_qp=math.nan),
    point_segment([(0.25, 0.0)], d_qp=0.0, d_qr=0.5),
    point_segment([(0.0, 0.0), (0.5, 0.5)], d_qp=0.0, d_qr=0.5),
    point_segment([(0.25, 0.3)], length=0.0),
], ids=["interior", "endpoints", "endpoints-within-tol", "t-past-end", "t-before-start",
        "no-probes", "triangle-inequality", "nan-side", "q-at-p", "q-at-p-endpoints-only",
        "zero-length"])
def test_hand_built_point_segments_match_the_reference(m):
    for k in KS:
        assert_parity("point_segment", m, k)
