"""Estimator: bisection bounds, determinism, region reports."""

import copy
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cmpk import config, criteria, estimator, mesh as mesh_mod, spaces, vector
from cmpk.config import DEFAULT_TOL
from cmpk.errors import (
    CmpkError,
    DegenerateConfigError,
    DegenerateRegionError,
    LadderError,
    ShootUnavailable,
)
from cmpk.kernels import SERIES_EPS
from meshgen import icosphere

PI = math.pi


def estimate(sp, center, radius, n_samples, seed, names=("pythagorean",), **kw):
    ms = estimator.sample_measurements(sp, center, radius, names, n_samples, seed)
    return estimator.estimate_bounds(sp, center, radius, ms, seed=seed, **kw)


def test_sphere_bounds_bracket_unit_curvature():
    sp = spaces.Sphere(1.0)
    est = estimate(sp, sp.default_center(), 0.2, 120, 3)
    assert est.k_cbb is not None and abs(est.k_cbb - 1.0) <= 0.05
    assert est.k_cba is not None and abs(est.k_cba - 1.0) <= 0.05
    assert est.k_cbb <= est.k_cba + est.resolution


def test_plane_bounds_near_zero():
    sp = spaces.EuclideanPlane()
    est = estimate(sp, sp.default_center(), 0.2, 120, 3)
    assert abs(est.k_cbb) <= 0.05 and abs(est.k_cba) <= 0.05


def test_hyperbolic_bounds_near_minus_one():
    sp = spaces.Hyperbolic(-1.0)
    est = estimate(sp, sp.default_center(), 0.2, 120, 3)
    assert abs(est.k_cbb + 1.0) <= 0.05 and abs(est.k_cba + 1.0) <= 0.05


def test_bisection_soundness_on_fixed_samples():
    sp = spaces.Sphere(1.0)
    ms = estimator.sample_measurements(sp, sp.default_center(), 0.2, ("pythagorean",), 80, 5)
    est = estimator.estimate_bounds(sp, sp.default_center(), 0.2, ms, seed=5)
    assert estimator._orientation_pass(ms, est.k_cbb, "cbb", DEFAULT_TOL)
    assert not estimator._orientation_pass(ms, est.k_cbb + est.resolution, "cbb", DEFAULT_TOL)
    assert estimator._orientation_pass(ms, est.k_cba, "cba", DEFAULT_TOL)
    assert not estimator._orientation_pass(ms, est.k_cba - est.resolution, "cba", DEFAULT_TOL)


def test_bisection_below_the_float_spacing_stops_at_adjacent_floats():
    # at a resolution finer than the spacing of floats near the flip, the
    # midpoint of two adjacent floats is one of them: bisection stops there
    probes = []

    def passes(k):
        probes.append(k)
        return k < 0.7

    k_pass, k_fail = estimator._bisect(passes, -2.0, 2.0, 1e-300)
    assert len(probes) < 100
    assert k_pass < 0.7 <= k_fail and math.nextafter(k_pass, math.inf) == k_fail
    # at a resolution the floats resolve, bisection stops at the resolution
    probes.clear()
    k_pass, k_fail = estimator._bisect(passes, -2.0, 2.0, 0.01)
    assert len(probes) == 9 and 0.0 < k_fail - k_pass <= 0.01


@functools.cache
def region(kind):
    sp, center, radius = {
        "sphere": (spaces.Sphere(1.0), None, 0.2),
        "hyperbolic": (spaces.Hyperbolic(-1.0), None, 0.2),
        "cone": (spaces.Cone(PI), (0.0, 0.0), 0.25),
    }[kind]
    return sp, sp.default_center() if center is None else center, radius


@functools.cache
def stored_measurements(kind):
    sp, center, radius = region(kind)
    return estimator.sample_measurements(sp, center, radius, estimator.ESTIMATE_CRITERIA, 16, 8)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["sphere", "hyperbolic", "cone"]),
    ks=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6),
)
def test_orientation_pass_is_monotone_in_k(kind, ks):
    ms = stored_measurements(kind)
    ks = sorted([-4.0, *ks, 4.0])
    cbb = [estimator._orientation_pass(ms, k, "cbb", DEFAULT_TOL) for k in ks]
    cba = [estimator._orientation_pass(ms, k, "cba", DEFAULT_TOL) for k in ks]
    # the lower-bound claim passes below a threshold, the upper-bound claim above one
    assert cbb == sorted(cbb, reverse=True) and cbb[0]
    assert cba == sorted(cba)
    # the cone apex has no upper curvature bound
    assert cba[-1] == (kind != "cone")


@functools.cache
def property_set(kind, degenerate=False):
    """(space, center, radius, measurements) for the vector-path property tests.

    The pi-cone set adds triangles with a tie pair, whose vertices carry two
    geodesic pairs; `degenerate` puts a Pythagorean sample with a zero leg,
    whose evaluation raises DegenerateConfigError, in the middle of the list.
    """
    if kind == "icosphere":
        v, f = icosphere(2)
        sp = mesh_mod.MeshSpace(mesh_mod.TriMesh(v, f), steiner=4)
        center, radius = 0, 0.5
        ms = estimator.sample_measurements(sp, center, radius, ("pythagorean",), 16, 8)
    else:
        sp, center, radius = region(kind)
        ms = stored_measurements(kind)
    ms = estimator.Measurements({name: list(batch) for name, batch in ms.items()})
    if kind == "cone":
        for p, q, r in (((0.2, 0.0), (0.2, PI / 2), (0.1, 0.3)),
                        ((0.15, 0.1), (0.15, 0.1 + PI / 2), (0.1, 1.0))):
            m = criteria.measure_triangle(sp, p, q, r)
            assert max(len(t) for t in m.angle_sides.values()) == 2
            ms["triangle"].append(m)
    if degenerate:
        pyth = ms["pythagorean"]
        pyth.insert(len(pyth) // 2, criteria.PythagoreanMeasurement(0.1, 0.0, 0.1, 0.1, 0.15, 0.2))
    return sp, center, radius, ms


PROPERTY_SETS = ("sphere", "hyperbolic", "cone", "icosphere")
# either side of |k d^2| = SERIES_EPS for sides of 0.03-0.5 (ladder sides cross it at
# |k| ~ 0.2), signed zeros, and k past the side, perimeter and hyperbolic-range bounds
K_VALUES = st.one_of(
    st.floats(-4.0, 4.0),
    st.floats(-1e-5, 1e-5),
    st.sampled_from([0.0, -0.0, 1e-9, -1e-9, SERIES_EPS / 0.04, -SERIES_EPS / 0.04,
                     30.0, 120.0, 1e3, -500.0, -2e5]),
)


def outcome(f, *args):
    """f's result, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:  # compared with the other path, not handled
        return type(e), str(e)


@settings(max_examples=200, deadline=None)
@given(kind=st.sampled_from(PROPERTY_SETS), degenerate=st.booleans(), k=K_VALUES,
       orientation=st.sampled_from(["cbb", "cba"]))
def test_vector_decision_equals_scalar_reference(kind, degenerate, k, orientation):
    ms = property_set(kind, degenerate)[3]
    assert (outcome(estimator._orientation_pass, ms, k, orientation, DEFAULT_TOL)
            == outcome(oracles.orientation_pass, ms, k, orientation, DEFAULT_TOL))


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(PROPERTY_SETS), degenerate=st.booleans(), k=K_VALUES)
def test_residual_pass_equals_scalar_reference(kind, degenerate, k):
    ms = property_set(kind, degenerate)[3]

    def both():
        return tuple(r for r, _ in estimator._worst_defect(ms, k, DEFAULT_TOL))

    def reference():
        return tuple(oracles.worst_defect(ms, k, o, DEFAULT_TOL) for o in ("cbb", "cba"))

    assert outcome(both) == outcome(reference)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(PROPERTY_SETS), degenerate=st.booleans(), k=K_VALUES)
def test_residual_prescreen_equals_the_first_in_order_reference(kind, degenerate, k):
    # every measurement twice in a row, so each defect ties with its copy's and
    # the witness must be the first of the two
    ms = {name: [m for m in batch for _ in range(2)]
          for name, batch in property_set(kind, degenerate)[3].items()}

    def reference():
        return tuple(oracles.first_worst_defect(ms, k, o, DEFAULT_TOL) for o in ("cbb", "cba"))

    assert outcome(estimator._worst_defect, ms, k, DEFAULT_TOL) == outcome(reference)


@pytest.mark.parametrize("kind", PROPERTY_SETS)
def test_residual_pass_walks_every_sample_when_a_vector_defect_strays(kind, monkeypatch):
    ms = property_set(kind)[3]
    defects = vector.Batch.defects

    def strayed(batch, k):
        # the sample with the least cbb defect reads far above every other one
        cbb, cba = defects(batch, k)
        cbb[np.nanargmin(cbb)] = np.nanmax(cbb) + 1.0
        return cbb, cba

    monkeypatch.setattr(vector.Batch, "defects", strayed)
    for k in (-1.0, 0.0, 0.5):
        assert estimator._worst_defect(ms, k, DEFAULT_TOL) == tuple(
            oracles.first_worst_defect(ms, k, o, DEFAULT_TOL) for o in ("cbb", "cba"))


class _SureBatch:
    """A stand-in `vector.Batch` whose margins call every sample a sure pass,
    and the samples that fail the claim the surest of all."""

    def __init__(self, name, ms):
        self.name, self.ms = name, ms

    def margins(self, k, orientation):
        return np.array([-0.5 if not oracles.orientation_pass({self.name: [m]}, k, orientation,
                                                               DEFAULT_TOL) else -1.0
                         for m in self.ms])


@pytest.mark.parametrize("kind", PROPERTY_SETS)
def test_orientation_pass_walks_every_sample_when_a_sure_pass_fails(kind):
    ms = property_set(kind)[3]
    batches = {name: _SureBatch(name, batch) for name, batch in ms.items()}
    decisions = []
    for k in (-2.0, 0.0, 2.0):
        for orientation in ("cbb", "cba"):
            want = oracles.orientation_pass(ms, k, orientation, DEFAULT_TOL)
            assert estimator._orientation_pass(ms, k, orientation, DEFAULT_TOL, batches) == want
            decisions.append(want)
    assert False in decisions  # some confirmed sure pass failed


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(PROPERTY_SETS), k=K_VALUES)
def test_vector_margins_match_scalar_far_inside_the_guard(kind, k):
    ms = property_set(kind)[3]
    batches = estimator.batch_measurements(ms, DEFAULT_TOL)
    worst = 0.0
    for name, batch_ms in ms.items():
        for orientation in ("cbb", "cba"):
            margins = batches[name].margins(k, orientation)
            for m, margin in zip(batch_ms, margins, strict=True):
                if math.isnan(margin):
                    continue
                # a sample the vector path decides never raises in the scalar path
                out = estimator.evaluate_measurement(name, m, k)
                scalar = (out.cbb_defect if orientation == "cbb" else out.cba_defect)
                worst = max(worst, abs(margin - (scalar - out.tolerance)))
    assert worst < estimator.MARGIN_GUARD / 100


@pytest.mark.parametrize("kind", PROPERTY_SETS)
def test_vector_path_decides_most_samples_at_moderate_k(kind):
    ms = property_set(kind)[3]
    batches = estimator.batch_measurements(ms, DEFAULT_TOL)
    for k in (-1.0, 0.0, 0.5):
        for name, batch in batches.items():
            decided = ~np.isnan(batch.margins(k, "cbb"))
            assert decided.mean() >= 0.75, (k, name, decided)


def pythagorean(d_qp, d_pr, d_qr):
    return criteria.PythagoreanMeasurement(d_qp, d_pr, d_qr, d_pr, d_qr, max(d_pr, d_qr))


def point_segment(probes, d_qp=0.3, d_qr=0.3, length=0.4):
    return criteria.PointSegmentMeasurement(d_qp, d_qr, length, probes, 0.4)


def triangle(p, q=((0.01, 0.01, 0.01),), sides=(0.3, 0.3, 0.3)):
    return criteria.TriangleMeasurement(sides, {"p": list(p), "q": list(q), "r": [(0.01,) * 3]}, 0.3)


RIGHT = (0.5, 0.5, math.hypot(0.5, 0.5))
# (criterion, measurement, k): each sample's scalar evaluation raises at k, or it
# reads a value the vector path must not decide (a cosine next to -1, an endpoint probe)
UNDECIDED = {
    "perimeter at the bound, every side under it": ("pythagorean", pythagorean(*RIGHT), 16.0),
    "side past pi/sqrt(k)": ("pythagorean", pythagorean(*RIGHT), 100.0),
    "past the hyperbolic range": ("pythagorean", pythagorean(*RIGHT), -1e5),
    # these two have a cosine well inside (-1, 1): only the bound keeps them undecided
    "60 degrees past the hyperbolic range": (
        "pythagorean", pythagorean(0.35, 0.35, 0.6956161523114132), -1e5),
    "perimeter inside the antipodal margin": (
        "pythagorean", pythagorean(*(2.0943947857265286,) * 3), 1.0),
    "triangle inequality violated": ("pythagorean", pythagorean(0.1, 0.1, 0.3), 0.5),
    "adjacent side on the floor": ("pythagorean", pythagorean(0.1, 1e-14, 0.1), 0.5),
    "non-finite side": ("pythagorean", pythagorean(0.1, math.nan, 0.1), 0.5),
    "cosine next to -1": ("pythagorean", pythagorean(0.1, 0.1, 0.2 - 1e-13), 0.5),
    "probe before the segment": ("point_segment", point_segment(((-0.1, 0.3), (0.2, 0.25))), 0.5),
    "probe at an endpoint": ("point_segment", point_segment(((0.0, 0.3), (0.2, 0.25))), 0.5),
    "no probes": ("point_segment", point_segment(()), 0.5),
    "point-segment triple past the side bound": (
        "point_segment", point_segment(((0.2, 0.25),)), 100.0),
    "ladder triple on the adjacent-side floor": (
        "triangle", triangle([(0.01, 0.01, 0.01), (1e-16, 0.01, 0.01)]), 0.5),
    "vertex without a ladder triple": ("triangle", triangle([]), 0.5),
    "main triangle past the perimeter bound": (
        "triangle", triangle([(0.01,) * 3], sides=(0.6, 0.6, 0.6)), 16.0),
}


@pytest.mark.parametrize("case", UNDECIDED)
def test_vector_path_leaves_raising_and_ill_conditioned_samples_to_the_scalar_path(case):
    name, m, k = UNDECIDED[case]
    batch = estimator.CRITERIA[name].batch([m], DEFAULT_TOL)
    for orientation in ("cbb", "cba"):
        assert math.isnan(batch.margins(k, orientation)[0])
        # alone, the sample decides the claim: the answer or error is the scalar path's
        ms = {name: [m]}
        assert (outcome(estimator._orientation_pass, ms, k, orientation, DEFAULT_TOL)
                == outcome(oracles.orientation_pass, ms, k, orientation, DEFAULT_TOL))


def test_degenerate_sample_raises_as_the_scalar_path_does():
    ms = property_set("sphere", True)[3]
    # every sample before it passes the lower-bound claim at k = 0 on the unit sphere
    with pytest.raises(DegenerateConfigError) as new:
        estimator._orientation_pass(ms, 0.0, "cbb", DEFAULT_TOL)
    with pytest.raises(DegenerateConfigError) as ref:
        oracles.orientation_pass(ms, 0.0, "cbb", DEFAULT_TOL)
    assert str(new.value) == str(ref.value)


@pytest.mark.parametrize("kind", PROPERTY_SETS)
def test_estimate_equals_the_all_scalar_bisection(kind, monkeypatch):
    sp, center, radius, ms = property_set(kind)
    est = estimator.estimate_bounds(sp, center, radius, ms, seed=8)
    monkeypatch.setattr(estimator, "_orientation_pass",
                        lambda ms, k, o, tol_cfg, batches=None:
                        oracles.orientation_pass(ms, k, o, tol_cfg))
    ref = estimator.estimate_bounds(sp, center, radius, ms, seed=8)
    assert est == ref
    for k, residual, o in ((est.k_cbb, est.cbb_residual, "cbb"), (est.k_cba, est.cba_residual, "cba")):
        if k is not None:
            assert residual == oracles.worst_defect(ms, k, o, DEFAULT_TOL)


@pytest.mark.parametrize("kind", PROPERTY_SETS)
def test_witness_sample_fixes_the_residual(kind):
    sp, center, radius, ms = property_set(kind)
    est = estimator.estimate_bounds(sp, center, radius, ms, seed=8)
    for o in ("cbb", "cba"):
        k, residual, witness = (getattr(est, f"k_{o}"), getattr(est, f"{o}_residual"),
                                getattr(est, f"{o}_witness"))
        if k is None:
            assert residual is None and witness is None
            continue
        name, i = witness["criterion"], witness["sample"]
        assert getattr(estimator.evaluate_measurement(name, ms[name][i], k), f"{o}_defect") == residual
        # ties go to the first sample in evaluation order
        for earlier, batch in ms.items():
            for m in batch[: i if earlier == name else len(batch)]:
                assert getattr(estimator.evaluate_measurement(earlier, m, k), f"{o}_defect") < residual
            if earlier == name:
                break


def test_no_bound_has_no_witness():
    tri = spaces.Tripod()
    est = estimate(tri, (0, 0.0), 0.5, 40, 3)
    assert est.k_cbb is None and est.cbb_witness is None
    assert est.k_cba is None and est.cba_witness is None


def test_estimates_deterministic_for_fixed_seed():
    sp = spaces.Sphere(1.0)
    a = estimate(sp, sp.default_center(), 0.2, 40, 9)
    b = estimate(sp, sp.default_center(), 0.2, 40, 9)
    assert a == b
    c = estimate(sp, sp.default_center(), 0.2, 40, 10)
    assert c.cbb_residual != a.cbb_residual


def test_criterion_sets_agree_on_sphere():
    sp = spaces.Sphere(1.0)
    kw = dict(resolution=0.01)
    by_pyth = estimate(sp, sp.default_center(), 0.2, 40, 4, ("pythagorean",), **kw)
    by_tri = estimate(sp, sp.default_center(), 0.2, 40, 4, ("triangle",), **kw)
    by_seg = estimate(sp, sp.default_center(), 0.2, 40, 4, ("point-segment",), **kw)
    for other in (by_tri, by_seg):
        assert abs(by_pyth.k_cbb - other.k_cbb) <= 2 * 0.01 + 1e-12
        assert abs(by_pyth.k_cba - other.k_cba) <= 2 * 0.01 + 1e-12


def test_tripod_has_no_lower_bound_and_cba_never_fails():
    tri = spaces.Tripod()
    est = estimate(tri, (0, 0.0), 0.5, 40, 3)
    assert est.k_cbb is None and "no pass endpoint" in est.cbb_note
    assert est.k_cba is None and "no fail endpoint" in est.cba_note


def test_a_sample_that_raises_a_skip_error_is_left_out_of_every_list(monkeypatch):
    sp = spaces.Sphere(1.0)
    center = sp.default_center()
    names = ("pythagorean", "triangle")
    full = estimator.sample_measurements(sp, center, 0.2, names, 9, 4)
    calls = itertools.count()
    triangle = estimator.CRITERIA["triangle"]

    def measure(space, c, columns=None):
        if next(calls) % 3 == 0:
            raise LadderError("sides degenerate")
        return triangle.measure(space, c, columns)

    monkeypatch.setitem(estimator.CRITERIA, "triangle", triangle._replace(measure=measure))
    ms = estimator.sample_measurements(sp, center, 0.2, names, 9, 4)
    # samples 0, 3 and 6 are skipped; the others are drawn from the same stream as before
    for name in names:
        assert ms[name] == [m for i, m in enumerate(full[name]) if i % 3]
    est = estimator.estimate_bounds(sp, center, 0.2, ms, seed=4)
    assert (est.n_samples, est.skipped) == (6, 3)
    assert ms.skipped_by == est.skipped_by == {"LadderError": 3}
    assert est.rejected == ms.rejected == full.rejected



def test_every_sample_skipped_leaves_nothing_to_bisect():
    sp = spaces.Sphere(1.0)
    ms = estimator.Measurements({"pythagorean": []})
    for _ in range(5):
        ms.skip(LadderError("sides degenerate"))
    est = estimator.estimate_bounds(sp, sp.default_center(), 0.2, ms, seed=1)
    assert (est.k_cbb, est.k_cba, est.n_samples, est.skipped) == (None, None, 0, 5)
    assert est.skipped_by == {"LadderError": 5}
    assert est.cbb_note == est.cba_note == "no measured samples to bisect over (5 skipped)"


def test_check_reports_are_cells_and_defects():
    """A check (no `evaluate`) reports a row of its header's cells and its
    defects, and no verdict: the CLI counts verdicts of verdict criteria only."""
    sp = spaces.Sphere(1.0)
    checks = [n for n, c in estimator.CRITERIA.items() if c.evaluate is None]
    assert sorted(checks) == ["angle_sum", "first_variation"]
    for name in checks:
        crit = estimator.CRITERIA[name]
        ms = estimator.sample_measurements(sp, sp.default_center(), 0.3, (name,), 4, 5)
        assert len(ms[name]) == 4
        for m in ms[name]:
            cells, defects = crit.report(m)
            assert len(cells) == len(crit.header)
            assert len(defects) == 1 and math.isfinite(defects[0])


def test_unknown_criterion_rejected():
    sp = spaces.EuclideanPlane()
    with pytest.raises(ValueError):
        estimator.sample_measurements(sp, sp.default_center(), 0.2, ("bogus",), 1, 0)
    # a criterion without a batch is measured alone
    for names in (("pythagorean", "right_angle"), ("angle_sum", "first_variation")):
        with pytest.raises(ValueError, match="measured alone"):
            estimator.sample_measurements(sp, sp.default_center(), 0.2, names, 1, 0)


def test_region_report_cone_apex_vs_off_apex():
    cone = spaces.Cone(PI)
    rows = estimator.region_report(
        cone, [(0.0, 0.0), (1.0, 0.5)], 0.25,
        n_samples=30, seed=6, n_per_eps=128,
    )
    apex, off = rows
    assert apex["profile"]["classification"] == "non_vanishing"
    assert off["profile"]["classification"] == "vanishing"
    # flat away from the apex: both bounds near zero
    assert abs(off["estimate"]["k_cbb"]) <= 0.05
    assert abs(off["estimate"]["k_cba"]) <= 0.05
    for row in rows:
        assert set(row) == {"index", "center", "estimate", "profile"}
        assert set(row["estimate"]["rejected"]) == set(criteria.REJECTIONS)
        assert row["estimate"]["skipped_by"] == {}


def test_region_report_records_errors_and_continues():
    tri = spaces.Tripod()
    rows = estimator.region_report(
        tri, [(0, 0.0), (0, 3.0)], 0.4, n_samples=10, seed=2, n_per_eps=8
    )
    assert len(rows) == 2
    # branch-point region: estimate exists but has no finite bounds
    assert rows[0]["estimate"]["k_cbb"] is None
    # profile skipped everywhere on a tripod
    assert rows[0]["profile"]["classification"] == "inconclusive"


def test_sphere_region_report_profiles_vanish():
    sp = spaces.Sphere(1.0)
    rows = estimator.region_report(
        sp, [sp.default_center()], 0.2, n_samples=20, seed=6, n_per_eps=32
    )
    assert rows[0]["profile"]["classification"] == "vanishing"
    assert abs(rows[0]["estimate"]["k_cbb"] - 1.0) <= 0.05


# ---------------------------------------------------------------------------
# the try stream against the one-try-at-a-time sampler

# (space, center data or None for the default center, radius); the off-apex
# cone and the off-origin hyperbolic center take the draws' hypot, atan2 and
# tangent basis paths, which the apex and the origin skip or simplify
STREAM_CASES = {
    "sphere": (lambda: spaces.Sphere(1.0), None, 0.3),
    "hyperbolic": (lambda: spaces.Hyperbolic(-1.0), None, 0.2),
    "hyperbolic-off-origin": (lambda: spaces.Hyperbolic(-1.0), [0.3, -0.2, 0.0], 0.2),
    "pi-cone-apex": (lambda: spaces.Cone(PI), [0.0, 0.0], 0.25),
    "pi-cone-off-apex": (lambda: spaces.Cone(PI), [1.0, 0.5], 0.25),
    "tripod": (spaces.Tripod, None, 0.5),
}
LOCKSTEP_CASES = [name for name in STREAM_CASES if name != "tripod"]  # with row_distances


def _case(name):
    make, data, radius = STREAM_CASES[name]
    space = make()
    return space, space.default_center() if data is None else space.point_from_data(data), radius


def _same_try(new, old):
    """Bitwise equal q and segment endpoints."""
    return all(np.array_equal(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
               for x, y in ((new[0], old[0]), (new[1].start, old[1].start),
                            (new[1].end, old[1].end)))


@pytest.mark.parametrize("name", LOCKSTEP_CASES)
@pytest.mark.parametrize("seed", [3, 61000])
def test_foot_stream_accepts_the_tries_of_the_one_at_a_time_loop(name, seed):
    space, center, radius = _case(name)
    n = 80
    rng = np.random.default_rng(seed)
    new = list(criteria.foot_configs(space, center, radius, rng, n))
    rng_old = np.random.default_rng(seed)
    old = [oracles.sample_foot_config(space, center, radius, rng_old) for _ in range(n)]
    # the rounds draw ahead, and the stream puts the rng back after the n-th acceptance
    assert rng.bit_generator.state == rng_old.bit_generator.state
    assert len(new) == n
    for a, b in zip(new, old):
        assert _same_try(a, b)
        target = config.FOOT_REFINE_REL * a[1].length
        assert a[2].t_star == pytest.approx(b[2].t_star, abs=target)
        assert a[2].d_star == pytest.approx(b[2].d_star, abs=target)


@pytest.mark.parametrize("name", list(STREAM_CASES))
def test_first_foot_config_leaves_the_rng_where_the_old_loop_did(name):
    space, center, radius = _case(name)
    rng_new, rng_old = np.random.default_rng(11), np.random.default_rng(11)
    for _ in range(12):
        new = next(criteria.foot_configs(space, center, radius, rng_new, 1))
        old = oracles.sample_foot_config(space, center, radius, rng_old)
        # one try per round: the scalar search, so the feet are equal too
        assert _same_try(new, old) and new[2] == old[2]
        assert rng_new.bit_generator.state == rng_old.bit_generator.state


@pytest.mark.parametrize("name", list(STREAM_CASES))
@pytest.mark.parametrize("n", [1, 5])
def test_foot_stream_raises_at_the_try_the_old_loop_raised(name, n, monkeypatch):
    # no foot is 10 radii above its segment: every try fails, and after
    # max_tries of them both samplers give up with the rng at the same place
    monkeypatch.setattr(criteria, "MIN_HEIGHT_REL", 10.0)
    space, center, radius = _case(name)
    rng_new, rng_old = np.random.default_rng(5), np.random.default_rng(5)
    rejected = dict.fromkeys(criteria.REJECTIONS, 0)
    with pytest.raises(DegenerateRegionError) as new:
        list(criteria.foot_configs(space, center, radius, rng_new, n, max_tries=37,
                                   rejected=rejected))
    with pytest.raises(DegenerateRegionError) as old:
        oracles.sample_foot_config(space, center, radius, rng_old, min_height_rel=10.0,
                                   max_tries=37)
    assert str(new.value) == str(old.value)
    assert rng_new.bit_generator.state == rng_old.bit_generator.state
    assert sum(rejected.values()) == 37


BIT_GENERATORS = {"MT19937": np.random.MT19937, "Philox": np.random.Philox}


def _same_next_draws(rng_a, rng_b):
    # a generator's state may hold arrays (MT19937's key): compare what comes next
    return np.array_equal(rng_a.random(8), rng_b.random(8))


@pytest.mark.parametrize("bits", list(BIT_GENERATORS))
@pytest.mark.parametrize("name", ["sphere", "hyperbolic-off-origin", "pi-cone-off-apex",
                                  "tripod"])
@pytest.mark.parametrize("seed", [2, 61000])
def test_foot_stream_on_other_bit_generators(bits, name, seed, monkeypatch):
    space, center, radius = _case(name)

    def make():
        return np.random.Generator(BIT_GENERATORS[bits](seed))

    rng_new, rng_old = make(), make()
    for _ in range(5):
        new = next(criteria.foot_configs(space, center, radius, rng_new, 1))
        old = oracles.sample_foot_config(space, center, radius, rng_old)
        assert _same_try(new, old) and new[2] == old[2]
        assert _same_next_draws(rng_new, rng_old)
    new = list(criteria.foot_configs(space, center, radius, make(), 20))
    rng_old = make()
    old = [oracles.sample_foot_config(space, center, radius, rng_old) for _ in range(20)]
    assert all(_same_try(a, b) for a, b in zip(new, old))
    rng_new, rng_old = make(), make()
    monkeypatch.setattr(criteria, "MIN_HEIGHT_REL", 10.0)
    with pytest.raises(DegenerateRegionError):
        list(criteria.foot_configs(space, center, radius, rng_new, 5, max_tries=37))
    with pytest.raises(DegenerateRegionError):
        oracles.sample_foot_config(space, center, radius, rng_old, min_height_rel=10.0,
                                   max_tries=37)
    assert _same_next_draws(rng_new, rng_old)


def _counting(space, counts):
    """A copy of space that counts its sample_ball and minimal_geodesics calls."""
    proxy = copy.copy(space)
    for name in counts:
        def counted(*args, _method=getattr(space, name), _name=name, **kwargs):
            counts[_name] += 1
            return _method(*args, **kwargs)
        setattr(proxy, name, counted)
    return proxy


@pytest.mark.parametrize("name", ["sphere", "hyperbolic", "pi-cone-apex"])
def test_rejected_tries_and_samples_add_up_to_the_tries_drawn(name):
    space, center, radius = _case(name)
    n, seed = 60, 7
    rejected = estimator.sample_measurements(space, center, radius, ("pythagorean",), n,
                                             seed).rejected
    assert list(rejected) == list(criteria.REJECTIONS)
    counts = {"sample_ball": 0, "minimal_geodesics": 0}
    proxy, rng = _counting(space, counts), np.random.default_rng(seed)
    for _ in range(n):
        oracles.sample_foot_config(proxy, center, radius, rng)
    tries = sum(rejected.values()) + n
    # every try that is long enough asks for its geodesics; every try draws a
    # and b, and q when its geodesic is unique
    assert counts["minimal_geodesics"] == tries - rejected["short_segment"]
    searched = counts["minimal_geodesics"] - rejected["several_geodesics"]
    assert counts["sample_ball"] == 2 * tries + searched


# ---------------------------------------------------------------------------
# rounds decided over arrays against the one-at-a-time loop, try by try


def _stream_against_the_loop(space, center, radius, make_rng, n, *,
                             min_height_rel=criteria.MIN_HEIGHT_REL, max_tries=200):
    """foot_configs, with MIN_HEIGHT_REL set to min_height_rel, and the
    one-at-a-time loop from equal generators: the same configurations (q and
    segment ends bit for bit, feet within the golden-section target), the same
    rejections by reason, the same error at the end if any, and the generators
    left alike.  Returns the configurations and the rejections."""
    rng_new, rng_old = make_rng(), make_rng()
    rejected = dict.fromkeys(criteria.REJECTIONS, 0)
    old_rejected = dict.fromkeys(criteria.REJECTIONS, 0)
    new, new_error = [], None
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(criteria, "MIN_HEIGHT_REL", min_height_rel)
            for drawn in criteria.foot_configs(space, center, radius, rng_new, n,
                                               max_tries=max_tries, rejected=rejected):
                new.append(drawn)
    except CmpkError as e:
        new_error = e
    old, old_error = [], None
    try:
        for _ in range(n):
            old.append(oracles.sample_foot_config(space, center, radius, rng_old,
                                                  min_height_rel=min_height_rel,
                                                  max_tries=max_tries, rejected=old_rejected))
    except CmpkError as e:
        old_error = e
    assert type(new_error) is type(old_error) and str(new_error) == str(old_error)
    assert len(new) == len(old)
    for (q, seg, foot), b in zip(new, old):
        assert _same_try((q, seg, foot), b)
        target = config.FOOT_REFINE_REL * seg.length
        assert foot.t_star == pytest.approx(b[2].t_star, abs=target)
        assert foot.d_star == pytest.approx(b[2].d_star, abs=target)
    assert rejected == old_rejected
    if isinstance(rng_new, oracles.Replay):
        assert rng_new.state == rng_old.state
    else:
        assert rng_new.bit_generator.state == rng_old.bit_generator.state
    return new, rejected


def _replay(prefix, seed=0):
    """A Replay of the given doubles followed by plenty of random ones."""
    return lambda: oracles.Replay([*prefix, *np.random.default_rng(seed).random(20000).tolist()])


def test_round_with_an_antipodal_sphere_pair():
    # a quarter turn each way from the pole: a and b are antipodal, joined by
    # a continuum of minimal geodesics
    sphere, radius = spaces.Sphere(1.0), 1.6
    quarter = (PI / 2) / radius
    for n in (2, 5):
        _, rejected = _stream_against_the_loop(sphere, sphere.default_center(), radius,
                                               _replay([0.0, quarter, 0.5, quarter], n), n)
        assert rejected["several_geodesics"] >= 1


@pytest.mark.parametrize("space, center, radius, prefix", [
    # from the pi-cone apex, points at angles pi/4 and 3pi/4 and one radius:
    # the chords both ways round are equally short
    (spaces.Cone(PI), (0.0, 0.0), 0.25, [0.25, 0.8, 0.75, 0.8]),
    # a quarter turn each way from the pole: antipodes
    (spaces.Sphere(1.0), np.array([0.0, 0.0, 1.0]), 1.6,
     [0.0, (PI / 2) / 1.6, 0.5, (PI / 2) / 1.6]),
])
def test_one_search_stream_rejects_a_pair_with_several_geodesics(space, center, radius, prefix):
    # one configuration wanted: the stream's first round is one search, the
    # one-at-a-time loop
    (rng_new, rejected_new), (rng_old, rejected_old) = (
        (_replay(prefix)(), dict.fromkeys(criteria.REJECTIONS, 0)) for _ in range(2))
    new = next(criteria.foot_configs(space, center, radius, rng_new, 1, rejected=rejected_new))
    old = oracles.sample_foot_config(space, center, radius, rng_old, rejected=rejected_old)
    assert _same_try(new, old)
    assert rejected_new == rejected_old and rejected_new["several_geodesics"] == 1
    assert rng_new.state == rng_old.state


@pytest.mark.parametrize("center, radius, prefix, max_tries", [
    # from the apex of the pi-cone, points at angles pi/4 and 3pi/4 and one
    # radius: the chords both ways round are equally short
    ((0.0, 0.0), 0.25, [0.25, 0.8, 0.75, 0.8] * 3, 200),
    # from (0.25, 0), radius 0.5: a quarter turn each way at length 0.25 gives
    # tied chords, and the next point, at that length straight back, lands on
    # the apex.  The loop rejects the pair before it draws that point, as the
    # next try's a, where it raises
    ((0.25, 0.0), 0.5, [0.25, 0.5, 0.75, 0.5, 0.5, 0.5], 1),
    ((0.25, 0.0), 0.5, [0.25, 0.5, 0.75, 0.5, 0.5, 0.5], 200),
])
def test_round_with_a_pi_cone_chord_tie(center, radius, prefix, max_tries):
    cone = spaces.Cone(PI)
    for n in (2, 5):
        _, rejected = _stream_against_the_loop(cone, cone.point_from_data(center), radius,
                                               _replay(prefix, n), n, max_tries=max_tries)
        assert rejected["several_geodesics"] >= 1


def test_round_with_cone_apex_routes():
    # a pair from the apex itself, and a pair on opposite sides of the
    # 7-cone's apex: both are joined through the apex, a route with no row,
    # whose foot takes the scalar search within a round searched over arrays.
    # Each q is placed so that its try is accepted
    cases = [(spaces.Cone(PI), [0.3, 0.0, 0.6, 0.9, (0.6 * PI + 0.3) / PI, 0.6]),
             (spaces.Cone(7.0), [0.0, 0.8, 0.5, 0.8, 0.25, 0.4])]
    for cone, prefix in cases:
        for n in (2, 5):
            new, _ = _stream_against_the_loop(cone, (0.0, 0.0), 0.25, _replay(prefix, n), n)
            assert new[0][1].row is None


def test_round_with_a_short_pair_where_its_uniforms_run_out():
    # a round of two searches maps six points ahead: a long pair and its q,
    # a short pair, then a short pair of the sixth point and the first one
    # mapped after it
    sphere = spaces.Sphere(1.0)
    long_pair, q, short = [0.0, 0.9, 0.5, 0.9], [0.3, 0.4], [0.1, 0.5, 0.1, 0.5]
    prefix = [*long_pair, *q, *short, 0.2, 0.5, 0.2, 0.5]
    for n in (2, 3):
        _, rejected = _stream_against_the_loop(sphere, sphere.default_center(), 0.3,
                                               _replay(prefix, n), n)
        assert rejected["short_segment"] >= 2


STREAM_PROPERTY_CASES = {
    "sphere-0.3": (lambda: spaces.Sphere(1.0), None, 0.3),
    "sphere-1.6": (lambda: spaces.Sphere(1.0), None, 1.6),
    "hyperbolic-off-origin": STREAM_CASES["hyperbolic-off-origin"],
    "pi-cone-apex": STREAM_CASES["pi-cone-apex"],
    "pi-cone-off-apex": STREAM_CASES["pi-cone-off-apex"],
}


@pytest.mark.parametrize("name", list(STREAM_PROPERTY_CASES))
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30), fussy=st.booleans())
@settings(max_examples=12, deadline=None)
def test_foot_stream_equals_the_loop_try_by_try(name, seed, n, fussy):
    make, data, radius = STREAM_PROPERTY_CASES[name]
    space = make()
    center = space.default_center() if data is None else space.point_from_data(data)
    # a fussy height bound rejects most searched tries, and may exhaust the region
    kwargs = {"min_height_rel": 0.45, "max_tries": 25} if fussy else {}
    _stream_against_the_loop(space, center, radius, lambda: np.random.default_rng(seed), n,
                             **kwargs)


@pytest.mark.parametrize("name", ["sphere", "hyperbolic-off-origin", "pi-cone-off-apex"])
def test_foot_stream_snaps_and_degenerates_as_the_loop_does_at_a_tiny_radius(name):
    # 1e-7 across, GEO (1e-9) is more than the interior margin of a segment:
    # feet near an end snap onto it, and some q lie on their segment
    make, data, _ = STREAM_CASES[name]
    space = make()
    center = space.default_center() if data is None else space.point_from_data(data)
    _, rejected = _stream_against_the_loop(space, center, 1e-7,
                                           lambda: np.random.default_rng(1), 100)
    assert rejected["endpoint_snap"] >= 1 and rejected["degenerate"] >= 1


class _BlockedSphere(spaces.Sphere):
    """The unit sphere with the shots of one length unavailable, to `shoot` and
    to `shots` alike; `seen` records that `shots` met that length."""

    def __init__(self, blocked):
        super().__init__(1.0)
        self.blocked, self.seen = blocked, False

    def shoot(self, p, phi, length):
        if length == self.blocked:
            raise ShootUnavailable("blocked")
        return super().shoot(p, phi, length)

    def shots(self, p, phis, lengths):
        points, available = super().shots(p, phis, lengths)
        blocked = lengths == self.blocked
        self.seen |= bool(blocked.any())
        return points, available & ~blocked


def test_unavailable_draw_raises_at_its_try_and_not_past_the_last_acceptance():
    radius, doubles = 0.3, np.random.default_rng(12).random(20000).tolist()
    free, center = _BlockedSphere(None), np.array([0.0, 0.0, 1.0])
    replay, ends = oracles.Replay(doubles), []
    for _ in range(8):
        oracles.sample_foot_config(free, center, radius, replay)
        ends.append(replay.state)  # the doubles up to each acceptance
    # the point right after the n-th acceptance: rounds that reach it map it
    # ahead, and the stream returns before it
    drawn_past = 0
    for n in range(2, 9):
        blocked = _BlockedSphere(radius * doubles[ends[n - 1] + 1])
        _stream_against_the_loop(blocked, center, radius, lambda: oracles.Replay(doubles), n)
        drawn_past += blocked.seen
    assert drawn_past >= 1
    # the point right after the second acceptance: the stream yields two
    # configurations, then raises where the loop's third draw raised
    blocked = _BlockedSphere(radius * doubles[ends[1] + 1])
    _stream_against_the_loop(blocked, center, radius, lambda: oracles.Replay(doubles), 5)
    rng = oracles.Replay(doubles)
    stream = criteria.foot_configs(blocked, center, radius, rng, 5)
    assert len([next(stream), next(stream)]) == 2
    with pytest.raises(ShootUnavailable):
        next(stream)
    assert rng.state == ends[1] + 2


def test_a_long_stream_hands_the_lockstep_search_no_more_than_a_round(monkeypatch):
    sizes = []

    def recorded(space, qs, rows, lengths, _feet=criteria.feet_of_perpendicular):
        sizes.append(len(lengths))
        return _feet(space, qs, rows, lengths)

    monkeypatch.setattr(criteria, "feet_of_perpendicular", recorded)
    space, center, radius = _case("sphere")
    stream = criteria.foot_configs(space, center, radius, np.random.default_rng(8), 5000)
    assert sum(1 for _ in stream) == 5000
    assert max(sizes) == criteria.ROUND_SEARCHES
