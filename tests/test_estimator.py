"""Estimator: bisection bounds, determinism, region reports."""

import functools
import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from cmpk import estimator, spaces
from cmpk.config import DEFAULT_TOL
from cmpk.errors import LadderError

PI = math.pi


def estimate(sp, center, radius, n_samples, seed, names=("pythagorean",), **kw):
    ms = estimator.sample_measurements(sp, center, radius, names, n_samples, seed)
    return estimator.estimate_bounds(sp, center, radius, ms, seed=seed, **kw)


def test_sphere_bounds_bracket_unit_curvature():
    sp = spaces.make_sphere(1.0)
    est = estimate(sp, sp.default_center(), 0.2, 120, 3)
    assert est.k_cbb is not None and abs(est.k_cbb - 1.0) <= 0.05
    assert est.k_cba is not None and abs(est.k_cba - 1.0) <= 0.05
    assert est.k_cbb <= est.k_cba + est.resolution


def test_plane_bounds_near_zero():
    sp = spaces.make_euclidean_plane()
    est = estimate(sp, sp.default_center(), 0.2, 120, 3)
    assert abs(est.k_cbb) <= 0.05 and abs(est.k_cba) <= 0.05


def test_hyperbolic_bounds_near_minus_one():
    sp = spaces.make_hyperbolic(-1.0)
    est = estimate(sp, sp.default_center(), 0.2, 120, 3)
    assert abs(est.k_cbb + 1.0) <= 0.05 and abs(est.k_cba + 1.0) <= 0.05


def test_bisection_soundness_on_fixed_samples():
    sp = spaces.make_sphere(1.0)
    ms = estimator.sample_measurements(sp, sp.default_center(), 0.2, ("pythagorean",), 80, 5)
    est = estimator.estimate_bounds(sp, sp.default_center(), 0.2, ms, seed=5)
    assert estimator._orientation_pass(ms, est.k_cbb, "cbb", DEFAULT_TOL)
    assert not estimator._orientation_pass(ms, est.k_cbb + est.resolution, "cbb", DEFAULT_TOL)
    assert estimator._orientation_pass(ms, est.k_cba, "cba", DEFAULT_TOL)
    assert not estimator._orientation_pass(ms, est.k_cba - est.resolution, "cba", DEFAULT_TOL)


@functools.cache
def stored_measurements(kind):
    sp, center, radius = {
        "sphere": (spaces.make_sphere(1.0), None, 0.2),
        "hyperbolic": (spaces.make_hyperbolic(-1.0), None, 0.2),
        "cone": (spaces.make_cone(PI), (0.0, 0.0), 0.25),
    }[kind]
    center = sp.default_center() if center is None else center
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


def test_estimates_deterministic_for_fixed_seed():
    sp = spaces.make_sphere(1.0)
    a = estimate(sp, sp.default_center(), 0.2, 40, 9)
    b = estimate(sp, sp.default_center(), 0.2, 40, 9)
    assert a == b
    c = estimate(sp, sp.default_center(), 0.2, 40, 10)
    assert c.cbb_residual != a.cbb_residual


def test_criterion_sets_agree_on_sphere():
    sp = spaces.make_sphere(1.0)
    kw = dict(resolution=0.01)
    by_pyth = estimate(sp, sp.default_center(), 0.2, 40, 4, ("pythagorean",), **kw)
    by_tri = estimate(sp, sp.default_center(), 0.2, 40, 4, ("triangle",), **kw)
    by_seg = estimate(sp, sp.default_center(), 0.2, 40, 4, ("point-segment",), **kw)
    for other in (by_tri, by_seg):
        assert abs(by_pyth.k_cbb - other.k_cbb) <= 2 * 0.01 + 1e-12
        assert abs(by_pyth.k_cba - other.k_cba) <= 2 * 0.01 + 1e-12


def test_tripod_has_no_lower_bound_and_cba_never_fails():
    tri = spaces.make_tripod()
    est = estimate(tri, (0, 0.0), 0.5, 40, 3)
    assert est.k_cbb is None and "no pass endpoint" in est.cbb_note
    assert est.k_cba is None and "no fail endpoint" in est.cba_note


def test_a_sample_that_raises_a_skip_error_is_left_out_of_every_list(monkeypatch):
    sp = spaces.make_sphere(1.0)
    center = sp.default_center()
    names = ("pythagorean", "triangle")
    full = estimator.sample_measurements(sp, center, 0.2, names, 9, 4)
    calls = itertools.count()
    triangle = estimator.CRITERIA["triangle"]

    def measure(space, c, tol_cfg):
        if next(calls) % 3 == 0:
            raise LadderError("sides degenerate")
        return triangle.measure(space, c, tol_cfg)

    monkeypatch.setitem(estimator.CRITERIA, "triangle", triangle._replace(measure=measure))
    ms = estimator.sample_measurements(sp, center, 0.2, names, 9, 4)
    # samples 0, 3 and 6 are skipped; the others are drawn from the same stream as before
    for name in names:
        assert ms[name] == [m for i, m in enumerate(full[name]) if i % 3]
    est = estimator.estimate_bounds(sp, center, 0.2, ms, seed=4, skipped=3)
    assert (est.n_samples, est.skipped) == (6, 3)


def test_every_sample_skipped_leaves_nothing_to_bisect():
    sp = spaces.make_sphere(1.0)
    est = estimator.estimate_bounds(sp, sp.default_center(), 0.2, {"pythagorean": []},
                                    seed=1, skipped=5)
    assert (est.k_cbb, est.k_cba, est.n_samples, est.skipped) == (None, None, 0, 5)
    assert est.cbb_note == est.cba_note == "no measured samples to bisect over (5 skipped)"


def test_unknown_criterion_rejected():
    sp = spaces.make_euclidean_plane()
    with pytest.raises(ValueError):
        estimator.sample_measurements(sp, sp.default_center(), 0.2, ("bogus",), 1, 0)


def test_noise_floor_is_tiny():
    floor = estimator.estimate_profile_noise_floor((0.2, 0.1, 0.05), 16, 2)
    assert floor <= 1e-10


def test_region_report_cone_apex_vs_off_apex():
    cone = spaces.make_cone(PI)
    rows = estimator.region_report(
        cone, [(0.0, 0.0), (1.0, 0.5)], 0.25,
        n_samples=30, seed=6, n_per_eps=128, probe_pairs=50,
    )
    apex, off = rows
    assert apex["profile"]["classification"] == "non_vanishing"
    assert off["profile"]["classification"] == "vanishing"
    # flat away from the apex: both bounds near zero
    assert abs(off["estimate"]["k_cbb"]) <= 0.05
    assert abs(off["estimate"]["k_cba"]) <= 0.05
    # the apex region carries tie pairs on the cut locus occasionally; the
    # row structure must be intact either way
    assert {"index", "center", "multiplicity"} <= set(apex)


def test_region_report_records_errors_and_continues():
    tri = spaces.make_tripod()
    rows = estimator.region_report(
        tri, [(0, 0.0), (0, 3.0)], 0.4, n_samples=10, seed=2, n_per_eps=8, probe_pairs=20
    )
    assert len(rows) == 2
    # branch-point region: estimate exists but has no finite bounds
    assert rows[0]["estimate"]["k_cbb"] is None
    # profile skipped everywhere on a tripod
    assert rows[0]["profile"]["classification"] == "inconclusive"


def test_sphere_region_report_profiles_vanish():
    sp = spaces.make_sphere(1.0)
    rows = estimator.region_report(
        sp, [sp.default_center()], 0.2, n_samples=20, seed=6, n_per_eps=32, probe_pairs=30
    )
    assert rows[0]["profile"]["classification"] == "vanishing"
    assert abs(rows[0]["estimate"]["k_cbb"] - 1.0) <= 0.05