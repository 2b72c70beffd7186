"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Tolerances are pinned here, not configurable.
"""

import json
import math
import time

import numpy as np

from cmpk import cli, criteria, estimator, model, spaces
from cmpk import mesh as mesh_mod

from meshgen import icosphere, write_obj

PI = math.pi


def report(criterion: str, ok: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[acceptance] {criterion}: {status} ({detail}; {elapsed:.1f}s/{budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget}s"


# ---------------------------------------------------------------------------
# 1. model rigidity


def test_01_model_rigidity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_round = 0.0
    worst_identity = 0.0
    for _ in range(10_000):
        k = rng.uniform(-4.0, 4.0)
        cap = 1.2 if k <= 0 else min(1.2, 0.22 * model.max_perimeter(k))
        a = rng.uniform(0.02, cap)
        b = rng.uniform(0.02, cap)
        gamma = rng.uniform(0.01, PI - 0.01)
        c = model.side_from_angle(k, a, b, gamma)
        worst_round = max(worst_round, abs(model.comparison_angle(k, (a, b, c)) - gamma))
        c_right = model.side_from_angle(k, a, b, PI / 2)
        lhs = model.generalized_cos(k, c_right)
        rhs = model.generalized_cos(k, a) * model.generalized_cos(k, b)
        worst_identity = max(worst_identity, abs(lhs - rhs) / max(1.0, abs(rhs)))
    ok = worst_round <= 1e-9 and worst_identity <= 1e-12
    report(
        "1 model rigidity", ok,
        f"round-trip {worst_round:.2e} <= 1e-9 rad, identity {worst_identity:.2e} <= 1e-12",
        time.perf_counter() - t0, 5.0,
    )


# ---------------------------------------------------------------------------
# 2. comparison-angle monotonicity in k


def test_02_monotonicity_in_k():
    t0 = time.perf_counter()
    rng = np.random.default_rng(102)
    ks = np.linspace(-4.0, 4.0, 9)
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(0.05, 0.65)
        b = rng.uniform(0.05, 0.65)
        gamma = rng.uniform(0.2, PI - 0.2)
        c = model.side_from_angle(4.0, a, b, gamma)  # admissible at the strictest k
        angles = [model.comparison_angle(k, (a, b, c)) for k in ks]
        worst = max(worst, -float(np.diff(angles).min()))
    report(
        "2 angle monotonicity in k", worst <= 1e-12,
        f"worst decrease {worst:.2e} <= 1e-12 rad over 1000 triples x 9 k",
        time.perf_counter() - t0, 30.0,
    )


# ---------------------------------------------------------------------------
# 3. sphere / hyperbolic ground truth


def _ground_truth_suite(space, k_true, k_pass_list, k_fail, seed):
    center = space.default_center()
    ms = estimator.sample_measurements(
        space, center, 0.095, ("pythagorean",), 300, seed
    )["pythagorean"]
    assert max(m.scale for m in ms) <= 0.2
    for k in k_pass_list:
        fails = sum(not criteria.evaluate_pythagorean(m, k).passes("cbb") for m in ms)
        if fails:
            return False, f"{fails} CBB({k}) failures"
    failed = sum(not criteria.evaluate_pythagorean(m, k_fail).passes("cbb") for m in ms)
    if failed < 0.95 * len(ms):
        return False, f"only {failed}/{len(ms)} fail CBB({k_fail})"
    worst = max(
        max(abs(criteria.evaluate_pythagorean(m, k_true).cbb_defect),
            abs(criteria.evaluate_pythagorean(m, k_true).cba_defect))
        for m in ms
    )
    if worst > 1e-7:
        return False, f"rigidity defect {worst:.2e} > 1e-7 at k={k_true}"
    return True, f"rigidity {worst:.2e}"


def test_03_sphere_hyperbolic_ground_truth():
    t0 = time.perf_counter()
    ok_s, msg_s = _ground_truth_suite(
        spaces.Sphere(1.0), 1.0, (0.0, 0.5, 0.9), 1.2, seed=103
    )
    ok_h, msg_h = _ground_truth_suite(
        spaces.Hyperbolic(-1.0), -1.0, (-2.0, -1.5, -1.1), -0.8, seed=203
    )
    report(
        "3 ground truth both directions", ok_s and ok_h,
        f"sphere[{msg_s}] hyperbolic[{msg_h}]",
        time.perf_counter() - t0, 20.0,
    )


# ---------------------------------------------------------------------------
# 4. criterion equivalence


def _direction(verdict: str) -> frozenset:
    return {
        "pass_both": frozenset(("cbb", "cba")),
        "pass_CBB": frozenset(("cbb",)),
        "pass_CBA": frozenset(("cba",)),
        "fail": frozenset(),
    }[verdict]


def _compatible(a: str, b: str) -> bool:
    da, db = _direction(a), _direction(b)
    return bool(da & db) or da == db


def test_04_criterion_equivalence():
    t0 = time.perf_counter()
    cases = [
        (spaces.EuclideanPlane(), None),
        (spaces.Sphere(1.0), None),
        (spaces.Hyperbolic(-1.0), None),
        (spaces.Cone(PI), (2.0, 0.5)),
        (spaces.Tripod(), (0, 0.0)),
        (spaces.make_octant(1.0), None),
    ]
    total = agreements = 0
    stray = []
    for space, center in cases:
        center = space.default_center() if center is None else center
        ms = estimator.sample_measurements(
            space, center, 0.15, ("pythagorean", "point_segment", "triangle"), 40, 104
        )
        for k in estimator.DEFAULT_K_GRID:
            for i in range(40):
                outs = [
                    criteria.evaluate_pythagorean(ms["pythagorean"][i], k),
                    criteria.evaluate_point_segment(ms["point_segment"][i], k),
                    criteria.evaluate_triangle(ms["triangle"][i], k),
                ]
                total += 1
                pairs = [(0, 1), (0, 2), (1, 2)]
                if all(_compatible(outs[x].verdict, outs[y].verdict) for x, y in pairs):
                    agreements += 1
                else:
                    # disagreements must sit within tolerance of zero defect
                    near_zero = all(
                        min(abs(o.cbb_defect), abs(o.cba_defect)) <= 2.0 * o.tolerance
                        for o in outs
                    )
                    if not near_zero:
                        stray.append((space.name, k, [o.verdict for o in outs]))
    rate = agreements / total
    ok = rate >= 0.99 and not stray
    report(
        "4 criterion equivalence", ok,
        f"agreement {rate:.4f} >= 0.99 over {total} shared configs, stray={stray[:3]}",
        time.perf_counter() - t0, 120.0,
    )


# ---------------------------------------------------------------------------
# 5. estimator accuracy


def test_05_estimator_accuracy():
    t0 = time.perf_counter()
    targets = [
        (spaces.Sphere(1.0), 1.0),
        (spaces.EuclideanPlane(), 0.0),
        (spaces.Hyperbolic(-1.0), -1.0),
    ]
    details = []
    ok = True
    for space, k_true in targets:
        ms = estimator.sample_measurements(
            space, space.default_center(), 0.2, ("pythagorean",), 300, 105
        )
        est = estimator.estimate_bounds(
            space, space.default_center(), 0.2, ms, seed=105, resolution=0.01
        )
        good = (
            est.k_cbb is not None and abs(est.k_cbb - k_true) <= 0.05
            and est.k_cba is not None and abs(est.k_cba - k_true) <= 0.05
        )
        ok = ok and good
        details.append(f"{space.name}: [{est.k_cbb}, {est.k_cba}] vs {k_true}")
    report("5 estimator accuracy", ok, "; ".join(details), time.perf_counter() - t0, 60.0)


# ---------------------------------------------------------------------------
# 6. counterexample behavior


def test_06a_tripod():
    t0 = time.perf_counter()
    tripod = spaces.Tripod()
    pyth = estimator.sample_measurements(tripod, (0, 0.0), 0.5, ("pythagorean",), 60, 106)
    est = estimator.estimate_bounds(tripod, (0, 0.0), 0.5, pyth, seed=106)
    no_lower = est.k_cbb is None and "no pass endpoint" in est.cbb_note
    ms = estimator.sample_measurements(
        tripod, (0, 0.0), 0.5, ("pythagorean", "point_segment"), 60, 106
    )
    worst = -math.inf
    passes = True
    for name in ("pythagorean", "point_segment"):
        for m in ms[name]:
            out = estimator.evaluate_measurement(name, m, 0.0)
            passes = passes and out.passes("cba")
            worst = max(worst, out.cba_defect)
    ok = no_lower and passes and worst <= 1e-9
    report(
        "6a tripod counterexample", ok,
        f"CBB expansion failed={no_lower}, CBA(0) violation {worst:.2e} <= 1e-9",
        time.perf_counter() - t0, 30.0,
    )


def test_06b_cone_profile():
    t0 = time.perf_counter()
    cone = spaces.Cone(PI)
    ladder = (0.25, 0.125, 0.0625, 0.03125)
    apex = criteria.riemannian_point_profile(cone, (0.0, 0.0), ladder, 128, 106)
    v0, v1 = apex.chi[-2], apex.chi[-1]
    apex_ok = (
        apex.classification == "non_vanishing"
        and abs(v1 - v0) <= 0.2 * max(v0, v1)
    )
    off_ok = all(
        criteria.riemannian_point_profile(cone, c, ladder, 128, 106).classification
        == "vanishing"
        for c in ((1.0, 0.5), (0.8, 2.5), (1.5, 1.0))
    )
    report(
        "6b cone apex profile", apex_ok and off_ok,
        f"apex chi {apex.chi[-2]:.3f}/{apex.chi[-1]:.3f} non-vanishing, off-apex vanishing",
        time.perf_counter() - t0, 60.0,
    )


def test_06c_octant_rigidity():
    t0 = time.perf_counter()
    oct_dom = spaces.make_octant(1.0)
    ms = estimator.sample_measurements(
        oct_dom, oct_dom.default_center(), 0.12, ("pythagorean",), 40, 306
    )["pythagorean"]
    worst = max(
        max(abs(criteria.evaluate_pythagorean(m, 1.0).cbb_defect),
            abs(criteria.evaluate_pythagorean(m, 1.0).cba_defect))
        for m in ms
    )
    report(
        "6c octant interior rigidity", worst <= 1e-7,
        f"worst |defect| {worst:.2e} <= 1e-7 at k=1",
        time.perf_counter() - t0, 30.0,
    )


# ---------------------------------------------------------------------------
# 7. first variation and angle sums


def test_07_first_variation_and_angle_sum(monkeypatch):
    monkeypatch.setattr(criteria, "MIN_HEIGHT_REL", 0.3)
    t0 = time.perf_counter()
    smooth = [
        spaces.EuclideanPlane(),
        spaces.Sphere(1.0),
        spaces.Hyperbolic(-1.0),
    ]
    rng = np.random.default_rng(107)
    worst_slope = 0.0
    worst_sum = 0.0
    n_configs = 0
    while n_configs < 100:
        space = smooth[n_configs % 3]
        q, seg, foot = next(criteria.foot_configs(space, space.default_center(), 0.5, rng, 1))
        t_star = float(rng.uniform(0.25, 0.6)) * seg.length
        rep = criteria.first_variation_check(
            space, q, seg, t_star, steps=(1e-2, 1e-3, 1e-4)
        )
        worst_slope = max(worst_slope, rep.errors[-1])
        sums = criteria.angle_sum_check(space, q, seg, foot.t_star)
        worst_sum = max(worst_sum, abs(sums.excess))
        n_configs += 1
    ok = worst_slope <= 1e-3 and worst_sum <= 1e-4
    report(
        "7 first variation + angle sum", ok,
        f"max slope error {worst_slope:.2e} <= 1e-3 at h=1e-4, "
        f"max |angle sum - pi| {worst_sum:.2e} <= 1e-4",
        time.perf_counter() - t0, 60.0,
    )


# ---------------------------------------------------------------------------
# 8. mesh diagnostics


def test_08_mesh_diagnostics(tmp_path):
    t0 = time.perf_counter()
    v, f = icosphere(3)
    space = mesh_mod.MeshSpace(mesh_mod.TriMesh(v, np.asarray(f)), steiner=4)
    rng = np.random.default_rng(108)
    nv = len(v)
    pairs = rng.integers(0, nv, size=(520, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]][:500]
    sources = np.unique(pairs[:, 0])
    table = space.graph.distances_from(sources)
    src_index = {int(s): i for i, s in enumerate(sources)}
    errs = []
    for a, b in pairs:
        graph_d = table[src_index[int(a)], int(b)]
        true_d = math.atan2(
            float(np.linalg.norm(np.cross(v[a], v[b]))), float(np.dot(v[a], v[b]))
        )
        errs.append(abs(graph_d - true_d) / true_d)
    median = float(np.median(errs))

    obj = tmp_path / "ico3.obj"
    write_obj(obj, v, f)
    out = tmp_path / "report"
    code = cli.main([
        "mesh", "--obj", str(obj), "--steiner", "4", "--pairs", "50",
        "--seed", "8", "--out", str(out),
    ])
    with open(out / "mesh_summary.json") as fh:
        payload = json.load(fh)
    cli.validate_report(payload)
    ok = median <= 0.08 and code == 0 and payload["results"]["diagnostic_only"]
    report(
        "8 mesh diagnostics", ok,
        f"median graph-distance error {median:.4f} <= 0.08 over {len(pairs)} pairs, "
        f"cmd_mesh exit {code} with schema-valid report",
        time.perf_counter() - t0, 30.0,
    )


# ---------------------------------------------------------------------------
# 9. determinism


def test_09_byte_determinism(tmp_path):
    t0 = time.perf_counter()
    ok = True
    runs = [
        (
            "test",
            ["test", "--space", '{"type":"sphere","k":1.0}', "--criterion",
             "pythagorean", "--k", "0.5", "--samples", "25", "--seed", "9"],
        ),
        (
            "estimate",
            ["estimate", "--space", '{"type":"hyperbolic","k":-1.0}',
             "--samples", "40", "--seed", "9"],
        ),
    ]
    for name, argv in runs:
        out1 = tmp_path / f"{name}_a"
        out2 = tmp_path / f"{name}_b"
        assert cli.main(argv + ["--out", str(out1)]) == 0
        assert cli.main(argv + ["--out", str(out2)]) == 0
        for fname in (f"{name}_rows.csv", f"{name}_summary.json"):
            ok = ok and (out1 / fname).read_bytes() == (out2 / fname).read_bytes()
    report(
        "9 determinism", ok, "byte-identical CSV/JSON on rerun",
        time.perf_counter() - t0, 60.0,
    )
