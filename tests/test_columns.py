"""Foot configurations measured as columns, against the scalar probes.

Each criterion's `columns` must give, for every configuration it does not
leave to the scalar probes, the measurement `measure_*` gives without them,
bit for bit (compared by repr), or the same error; `sample_measurements`
must equal the pass that measured each configuration as it was drawn, and a
traced estimate must pass the benchmark's tracer cross-check.
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from cmpk import criteria, estimator, spaces
from cmpk.errors import DegenerateRegionError

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import metrics  # noqa: E402
from spans import Tracer, summarize  # noqa: E402

PI = math.pi
NAMES = estimator.ESTIMATE_CRITERIA
_hyp = spaces.Hyperbolic(-1.0)
_origin = np.array([0.0, 0.0, 1.0])
# (space, center, radius) of regions of every kind: smooth, wide enough for
# antipodes, 10 units out on the hyperboloid (coordinates near 1e4, where
# short distances lose digits), and at, near and off cone apexes
CASES = {
    "plane": (spaces.EuclideanPlane(), np.zeros(2), 0.5),
    "sphere": (spaces.Sphere(1.0), _origin, 0.3),
    "sphere-wide": (spaces.Sphere(1.0), _origin, 1.6),
    "hyperbolic": (_hyp, _origin, 0.3),
    "hyperbolic-far": (_hyp, _hyp.shoot(_origin, 1.0, 10.0), 0.3),
    "pi-cone-apex": (spaces.Cone(PI), (0.0, 0.0), 0.25),
    "pi-cone-near-apex": (spaces.Cone(PI), (0.04, 3.0), 0.25),
    "pi-cone-off": (spaces.Cone(PI), (1.0, 0.5), 0.25),
    "7-cone-apex": (spaces.Cone(7.0), (0.0, 0.0), 0.25),
    "7-cone-near-apex": (spaces.Cone(7.0), (0.04, 0.2), 0.25),
    "7-cone-off": (spaces.Cone(7.0), (1.0, 0.5), 0.25),
}


def drawn(space, center, radius, seed, n):
    """The configurations foot_configs yields before it ends or raises."""
    out = []
    try:
        out.extend(criteria.foot_configs(space, center, radius, np.random.default_rng(seed), n))
    except DegenerateRegionError:
        pass
    return out


def measured(name, space, config, columns=None):
    """repr of the criterion's measurement, or what measuring it raised."""
    try:
        return repr(estimator.CRITERIA[name].measure(space, config, columns))
    except Exception as e:
        return type(e), str(e)


def check_columns(space, configs):
    """Every configuration's column measurement against its scalar one; returns
    the number of configurations each criterion leaves to the scalar probes."""
    left = {}
    for name in NAMES:
        columns = estimator.CRITERIA[name].columns(space, configs)
        assert len(columns) == len(configs)
        for config, cols in zip(configs, columns):
            if cols is not None:
                assert measured(name, space, config, cols) == measured(name, space, config)
        left[name] = columns.count(None)
    return left


def outcome(sample, *args):
    """The measurement lists and counts of a sampling pass, or what it raised."""
    try:
        ms = sample(*args)
    except Exception as e:
        return type(e), str(e)
    return repr(dict(ms)), ms.skipped_by, ms.rejected


@pytest.mark.parametrize("case", list(CASES))
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12))
@settings(max_examples=12, deadline=None)
def test_column_measurements_equal_the_scalar_probes(case, seed, n):
    space, center, radius = CASES[case]
    check_columns(space, drawn(space, center, radius, seed, n))


@pytest.mark.parametrize("case", list(CASES))
def test_sampling_pass_equals_measuring_each_sample_as_drawn(case):
    space, center, radius = CASES[case]
    for seed in (1000, 61000):
        args = (space, center, radius, NAMES, 40, seed)
        want = outcome(oracles.sample_measurements, *args)
        assert outcome(estimator.sample_measurements, *args) == want


def test_columns_cover_the_smooth_rows_and_leave_the_others():
    # configurations off the row spaces (the plane's) and triangles with a
    # route through a cone apex are measured one at a time; 10 units out on
    # the hyperboloid every triangle is measured from the columns
    cases = {name: CASES[name] for name in ("plane", "sphere", "hyperbolic", "hyperbolic-far",
                                            "pi-cone-off", "7-cone-apex")}
    left = {name: check_columns(space, drawn(space, center, radius, 61000, 30))
            for name, (space, center, radius) in cases.items()}
    assert left["plane"] == dict.fromkeys(NAMES, 30)
    for name in ("sphere", "hyperbolic", "hyperbolic-far", "pi-cone-off"):
        assert left[name] == dict.fromkeys(NAMES, 0)
    assert left["7-cone-apex"]["triangle"] > 0  # routes through the apex


def test_columns_that_raise_leave_their_batch_to_the_scalar_probes(monkeypatch):
    calls = []

    def raising(space, configs):
        calls.append(len(configs))
        raise ValueError("columns raised")

    for name in NAMES:
        monkeypatch.setitem(estimator.CRITERIA, name,
                            estimator.CRITERIA[name]._replace(columns=raising))
    for case in ("sphere", "pi-cone-off"):
        space, center, radius = CASES[case]
        args = (space, center, radius, NAMES, 40, 61000)
        want = outcome(oracles.sample_measurements, *args)
        assert isinstance(want[0], str)  # measured, not raised
        assert outcome(estimator.sample_measurements, *args) == want
    assert calls == [40] * (2 * len(NAMES))


# crafted configurations (q, seg, foot) on which a measurement raises

def _config(space, a, b, q, t_frac=0.5):
    seg = space.geodesic(a, b)
    return q, seg, criteria.FootResult(t_frac * seg.length, space.distance(q, seg.at(t_frac * seg.length)))


def _crafted():
    plane, sphere, cone = spaces.EuclideanPlane(), spaces.Sphere(1.0), spaces.Cone(PI)
    far = _hyp.shoot(_origin, 1.0, 16.0)
    hyp_far = [_hyp.shoot(far, phi, 0.3) for phi in (4.0, 1.7, 0.3)]
    unit = sphere.point_from_data
    return {
        # the foot 1e-10 from the segment's start: DegenerateConfigError in pythagorean
        "foot-at-endpoint": (sphere, _config(sphere, unit([0.3, 0.0, 1.0]), unit([0.0, 0.3, 1.0]),
                                             unit([0.2, 0.2, 1.0]), 1e-10 / 0.42)),
        # q 1e-9 from the start: a vanishing triangle side, DegenerateConfigError
        "vanishing-side": (plane, _config(plane, np.array([0.0, 0.0]), np.array([1.0, 0.0]),
                                          np.array([0.0, 1e-9]))),
        # a side of 5e-8: the ladder's sides are below 10 GEO, LadderError
        "degenerate-ladder": (cone, _config(cone, (1.0, 0.2), (1.3, 0.5), (1.0, 0.2 + 5e-8))),
        # 16 units out the coordinates keep too few digits for the ladder's
        # scale: a ladder's sides round below 10 GEO, LadderError
        "far-degenerate-ladder": (_hyp, _config(_hyp, hyp_far[0], hyp_far[1], hyp_far[2])),
    }


CRAFTED = _crafted()
RAISES = {"foot-at-endpoint": ("pythagorean", "DegenerateConfigError"),
          "vanishing-side": ("triangle", "DegenerateConfigError"),
          "degenerate-ladder": ("triangle", "LadderError"),
          "far-degenerate-ladder": ("triangle", "LadderError")}


@pytest.mark.parametrize("kind", list(CRAFTED))
def test_crafted_rows_raise_what_the_scalar_probes_raise(kind):
    space, config = CRAFTED[kind]
    name, error = RAISES[kind]
    want = measured(name, space, config)
    assert want[0].__name__ == error
    columns = estimator.CRITERIA[name].columns(space, [config] * 3)
    for cols in columns:  # raised from its columns, or left to the scalar probes
        assert measured(name, space, config, cols) == want


def feeding(configs, error=None):
    """A stand-in for criteria.foot_configs that yields configs, then raises error."""
    def foot_configs(space, center, radius, rng, n, *, rejected=None):
        yield from configs
        if error is not None:
            raise error
    return foot_configs


@pytest.mark.parametrize("kind", list(CRAFTED))
@pytest.mark.parametrize("draw_error", [None, DegenerateRegionError("no valid foot configuration")])
def test_measurement_and_draw_errors_keep_their_order(monkeypatch, kind, draw_error):
    space, bad = CRAFTED[kind]
    # the good configurations of the far crafted row are drawn near the
    # origin: 16 units out, some of them skip with LadderError too
    center, radius = CASES["hyperbolic" if space is _hyp else "sphere"][1:]
    if space.name == "plane":
        center = np.zeros(2)
    elif space.name == "cone":
        center = (1.0, 0.3)
    good = drawn(space, center, radius, 7, 3)
    assert len(good) == 3
    for configs in ([*good, bad, *good], [bad, *good], [*good, bad]):
        monkeypatch.setattr(criteria, "foot_configs", feeding(configs, draw_error))
        args = (space, center, radius, NAMES, len(configs), 1)
        want = outcome(oracles.sample_measurements, *args)
        assert outcome(estimator.sample_measurements, *args) == want
        raised = want[0] if isinstance(want[0], type) else None
        if draw_error is not None:
            assert raised is DegenerateRegionError
        else:
            assert want[1] == {RAISES[kind][1]: 1}


def test_traced_estimate_passes_the_tracer_cross_check():
    # the benchmark's tracer sees the measurements only through measure_*: a
    # measuring path that bypassed them would leave k_probes x measurements
    # below the evaluations and fail this
    space, center, radius = CASES["hyperbolic"]
    tracer = Tracer()
    tracer.install()
    try:
        ms = estimator.sample_measurements(space, center, radius, NAMES, 20, 61000)
        estimator.estimate_bounds(space, center, radius, ms, seed=61000)
    finally:
        tracer.uninstall()
    assert metrics.trace_problems(tracer.spans, tracer.leaves) == []
    by = summarize(tracer.spans, tracer.leaves)
    assert by["estimator.orientation_pass"]["calls"] > 0
    for fn in ("measure_pythagorean", "measure_point_segment", "measure_triangle"):
        assert by[f"criteria.{fn}"]["calls"] == 20
    assert "criteria.measure_angle_ladder" not in by  # every ladder came from the columns

