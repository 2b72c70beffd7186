"""The triangle and point-segment evaluators against their per-k references.

`evaluate_triangle` reads each ladder's angle off its last rung and
`evaluate_point_segment` checks the triple and computes the comparison angle
once per call.  The references in `oracles` evaluate every rung and every
probe in full.  Both must give equal outcomes, `config` included, or raise
the same exception with the same message.
"""

import functools
import math

import pytest
from hypothesis import given, settings, strategies as st

from cmpk import criteria, estimator, spaces
from cmpk._scalar_py import SERIES_EPS
from cmpk.config import DEFAULT_TOL, SPHERE_MARGIN, Tolerances
from cmpk.criteria import PointSegmentMeasurement, TriangleMeasurement

import oracles

PI = math.pi

EVALUATORS = {
    "triangle": (criteria.evaluate_triangle, oracles.evaluate_triangle),
    "point_segment": (criteria.evaluate_point_segment, oracles.evaluate_point_segment),
}


def outcome_or_error(evaluate, m, k, tol_cfg=DEFAULT_TOL):
    try:
        return repr(vars(evaluate(m, k, tol_cfg=tol_cfg)))
    except Exception as e:  # whatever it is, both sides must raise the same
        return type(e), str(e)


def assert_parity(criterion, m, k, tol_cfg=DEFAULT_TOL):
    new, ref = EVALUATORS[criterion]
    got = outcome_or_error(new, m, k, tol_cfg)
    assert got == outcome_or_error(ref, m, k, tol_cfg)
    return got


@functools.cache
def stored(kind):
    sp, center, radius = {
        "sphere": (spaces.make_sphere(1.0), None, 0.3),
        "hyperbolic": (spaces.make_hyperbolic(-1.0), None, 0.3),
        "tripod": (spaces.make_tripod(), (0, 0.0), 0.5),
        "cone": (spaces.make_cone(PI), (0.0, 0.0), 0.25),
    }[kind]
    center = sp.default_center() if center is None else center
    return estimator.sample_measurements(
        sp, center, radius, ("triangle", "point_segment"), 10, 3)


def lengths(m, criterion):
    """(perimeter of the main triple, lengths whose k * d^2 picks a kernel branch)."""
    if criterion == "triangle":
        last_rungs = [raw[-1][1:] for raws in m.ladders.values() for raw in raws]
        ds = [*m.sides, *(d for rung in last_rungs for d in rung)]
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
    kind=st.sampled_from(["sphere", "hyperbolic", "tripod", "cone"]),
    criterion=st.sampled_from(["triangle", "point_segment"]),
    index=st.integers(0, 9),
    data=st.data(),
)
def test_stored_measurements_match_the_references(kind, criterion, index, data):
    m = stored(kind)[criterion][index]
    assert_parity(criterion, m, data.draw(curvatures(m, criterion)))


def test_stored_triangles_take_the_last_rung_shortcut(monkeypatch):
    for kind in ("sphere", "hyperbolic", "tripod", "cone"):
        assert all(m.last_rungs_suffice for m in stored(kind)["triangle"])
    # one comparison angle per main vertex and one per ladder, at any k
    calls = []
    real = criteria.model.comparison_angle
    monkeypatch.setattr(criteria.model, "comparison_angle",
                        lambda *a, **kw: calls.append(a) or real(*a, **kw))
    m = stored("sphere")["triangle"][0]
    criteria.evaluate_triangle(m, 0.5)
    assert len(calls) == 3 + sum(len(raws) for raws in m.ladders.values())


# ---------------------------------------------------------------------------
# hand-built triangles whose early rungs raise, or might, at some k

KS = (-1e4, -4.0, -0.7, -0.5, 0.0, 0.5, 4.3, 30.0, 1e4, math.nan)


def ladder(scale=1.0):
    """An equilateral ladder: rung j is (t, t, t, t) with t = 0.1 * scale / 2**j."""
    return tuple((t, t, t, t) for t in (0.1 * scale * 0.5**j for j in range(8)))


def triangle(bad_ladder, side=1.0):
    """Equilateral main triangle whose q vertex carries `bad_ladder` second."""
    good = ladder(side)
    return TriangleMeasurement(
        (side, side, side), {"p": [good], "q": [good, bad_ladder], "r": [good]},
        side, False, {"case": "hand-built"})


def with_rung(rung, at=2, side=1.0):
    raw = list(ladder(side))
    raw[at] = rung
    return tuple(raw)


HAND_BUILT = {
    "early rung breaks the triangle inequality": (
        with_rung((0.025, 0.05, 0.01, 0.01)), "triangle inequality violated"),
    "next-to-last rung breaks the triangle inequality": (
        with_rung((0.0015625, 0.003, 0.001, 0.001), at=-2), "triangle inequality violated"),
    "early rung on the adjacent-side floor": (
        with_rung((0.025, 0.0, 0.01, 0.01)), "sides adjacent to the angle must be > 0"),
    "early rung inside the triangle-inequality slack": (
        with_rung((0.025, 0.01, 0.01, 0.02 + 3e-11)), "below -1 beyond clamp tolerance"),
    "early rung with adjacent sides far apart": (
        with_rung((2.5, 1e-7, 1.0, 1.0000001), side=10.0), "below -1 beyond clamp tolerance"),
    "early rung larger than the main triangle": (
        with_rung((0.025, 1.2, 1.2, 1.2)), "perimeter 3.5999999999999996 >= admissible bound"),
    "early rung whose sn_k product underflows": (
        with_rung((0.025, 1e-200, 1e-200, 1e-200)), "float division by zero"),
    "early rung with three entries": (
        with_rung((0.025, 0.025, 0.025)), "not enough values to unpack"),
    "repeated last scale": (
        with_rung(ladder()[-1], at=-2), "float division by zero"),
    "last scale zero": (
        with_rung((0.0, 1e-3, 1e-3, 1e-3), at=-1), "float division by zero"),
    "empty ladder": ((), "list index out of range"),
    "one-rung ladder": (ladder()[:1], None),
}


@pytest.mark.parametrize("case", HAND_BUILT)
def test_hand_built_triangles_match_the_reference(case):
    raw, message = HAND_BUILT[case]
    m = triangle(raw, side=10.0 if "far apart" in case else 1.0)
    results = [assert_parity("triangle", m, k) for k in KS]
    raised = [r[1] for r in results if isinstance(r, tuple)]
    if message is None:
        assert isinstance(results[KS.index(0.0)], str)
    else:
        assert any(message in r for r in raised), raised


def test_low_clamp_tolerance_evaluates_every_rung():
    # the rounded cosine of this collinear rung is -1 - 4e-16 at k = -0.7
    rung = (0.025, 0.0022092781970116113, 0.008626903632435096, 0.010836181829446706)
    m = triangle(with_rung(rung))
    strict = Tolerances(clamp=0.0)
    for k in KS:
        assert_parity("triangle", m, k)
        assert_parity("triangle", m, k, strict)
    assert isinstance(outcome_or_error(criteria.evaluate_triangle, m, -0.7, strict), tuple)
    assert isinstance(outcome_or_error(criteria.evaluate_triangle, m, -0.7), str)


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
