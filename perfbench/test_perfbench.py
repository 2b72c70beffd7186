"""Self-tests of the benchmark: span arithmetic, ratio bases, output checks, wrapping.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from spans import ROOT, Tracer, calls_under, summarize  # noqa: E402


def span(sid, name, start, end, parent, ok=True):
    return (sid, name, start, end, parent, ok)


# ---------------------------------------------------------------------------
# self-time arithmetic


def test_self_time_is_duration_minus_child_coverage():
    # a [0, 10] contains b [1, 4] and c [5, 9]; c contains d [6, 7];
    # folded leaves: 3 calls of x under a (0.5 s), 2 calls of x under d (0.2 s)
    spans = [
        span(3, "d", 6.0, 7.0, 2),
        span(2, "c", 5.0, 9.0, 1),
        span(4, "b", 1.0, 4.0, 1),
        span(1, "a", 0.0, 10.0, ROOT),
    ]
    leaves = {(1, "x"): [3, 0.5, 0], (3, "x"): [2, 0.2, 1]}
    by = summarize(spans, leaves)
    assert by["a"]["self_s"] == pytest.approx(10.0 - 3.0 - 4.0 - 0.5)
    assert by["b"]["self_s"] == pytest.approx(3.0)
    assert by["c"]["self_s"] == pytest.approx(4.0 - 1.0)
    assert by["d"]["self_s"] == pytest.approx(1.0 - 0.2)
    assert by["x"] == {"calls": 5, "errors": 1, "total_s": pytest.approx(0.7),
                       "self_s": pytest.approx(0.7)}
    total_self = sum(v["self_s"] for k, v in by.items() if k != "x") + by["x"]["self_s"]
    assert total_self == pytest.approx(10.0)  # self times partition the root span
    assert calls_under(spans, leaves, "x", "d") == (2, pytest.approx(0.2))
    assert calls_under(spans, leaves, "c", "a") == (1, pytest.approx(4.0))


def test_tracer_folds_leaves_and_keeps_parents():
    tr = Tracer()
    leaf = tr.wrap("m.leaf", lambda: None)

    def boom():
        raise ValueError("x")

    failing = tr.wrap("m.fail", boom)

    def outer():
        leaf()
        leaf()
        with pytest.raises(ValueError):
            failing()

    tr.wrap("m.outer", outer)()
    assert [s[1] for s in tr.spans] == ["m.outer"]
    sid = tr.spans[0][0]
    assert tr.leaves[(sid, "m.leaf")][0] == 2
    assert tr.leaves[(sid, "m.fail")][2] == 1  # the raising call is counted as an error


# ---------------------------------------------------------------------------
# ratio bases


def _sampling_trace():
    """Two accepted configurations and one failed draw loop, on a mesh."""
    spans = [
        span(2, "criteria.sample_foot_config", 0.0, 1.0, 1),
        span(3, "criteria.sample_foot_config", 1.0, 2.0, 1),
        span(4, "criteria.sample_foot_config", 2.0, 3.0, 1, ok=False),
        span(5, "estimator.orientation_pass", 3.0, 3.5, 1),
        span(6, "estimator.orientation_pass", 3.5, 4.0, 1),
        span(1, "estimator.sample_measurements", 0.0, 4.0, ROOT),
    ]
    leaves = {
        (2, "spaces.sample_ball"): [6, 0.1, 0],
        (3, "spaces.sample_ball"): [3, 0.1, 0],
        (4, "spaces.sample_ball"): [9, 0.1, 0],
        (1, "spaces.sample_ball"): [4, 0.1, 0],  # not a foot-config draw
        (2, "criteria.foot_of_perpendicular"): [3, 0.1, 0],
        (3, "criteria.foot_of_perpendicular"): [1, 0.1, 0],
        (2, "spaces.distance"): [500, 0.1, 0],
        (3, "spaces.distance"): [300, 0.1, 0],
        (5, "criteria.evaluate_pythagorean"): [2, 0.1, 0],
        (6, "criteria.evaluate_pythagorean"): [1, 0.1, 0],
        (1, "criteria.measure_pythagorean"): [2, 0.1, 0],
    }
    return spans, leaves


def test_ratio_bases():
    spans, leaves = _sampling_trace()
    m = metrics.solve_layer_metrics(spans, leaves, {"mesh.dijkstra_rows": 8})
    assert m["criteria.sample_foot_config.calls"] == 3
    assert m["criteria.accepted_configs"] == 2  # base: calls that returned a config
    assert m["criteria.draws_per_config"] == (6 + 3 + 9) / 2
    assert m["criteria.foot_searches_per_config"] == 4 / 2
    assert m["criteria.distance_calls_per_config"] == 800 / 2
    assert m["estimator.k_probes"] == 2
    assert m["estimator.evaluations_per_probe"] == 3 / 2
    assert m["mesh.row_hit_ratio"] == 1.0 - 8 / 800
    assert metrics.trace_problems(spans, leaves) == []


def test_ratio_without_base_reads_zero():
    m = metrics.solve_layer_metrics([], {}, {})
    assert m["criteria.draws_per_config"] == 0.0
    assert m["mesh.row_hit_ratio"] == 0.0
    assert m["estimator.evaluations_per_probe"] == 0.0


def test_unwrapped_evaluator_is_caught():
    spans, leaves = _sampling_trace()
    del leaves[(5, "criteria.evaluate_pythagorean")], leaves[(6, "criteria.evaluate_pythagorean")]
    assert metrics.trace_problems(spans, leaves)


# ---------------------------------------------------------------------------
# output checks


def _validate():
    from cmpk.cli import validate_report

    return validate_report


def _estimate_summary(k_cbb=1.0, k_cba=1.0):
    return {"schema": 1, "tool": "cmpk", "version": "0.1.0", "command": "estimate",
            "config": {}, "results": {"k_cbb": k_cbb, "k_cba": k_cba}}


def test_correct_summary_passes():
    w = workloads.WORKLOADS["sphere-estimate"]
    assert workloads.check_outputs(w, json.dumps(_estimate_summary()), "", _validate()) == []


@pytest.mark.parametrize("doctor", [
    lambda s: s["results"].update(k_cbb=0.9),    # moved bound
    lambda s: s["results"].update(k_cba=None),   # missing bound
    lambda s: s.pop("tool"),                     # missing key
    lambda s: s.update(schema=2),                # wrong schema
])
def test_doctored_summary_fails(doctor):
    w = workloads.WORKLOADS["sphere-estimate"]
    summary = _estimate_summary()
    doctor(summary)
    assert workloads.check_outputs(w, json.dumps(summary), "", _validate())


def test_cone_and_mesh_checks():
    cone = workloads.WORKLOADS["cone-profile"]
    rows = [
        {"index": 0, "estimate": {"k_cba": None}, "profile": {"classification": "non_vanishing"}},
        {"index": 1, "estimate": {"k_cba": 0.0}, "profile": {"classification": "vanishing"}},
        {"index": 2, "estimate": {"k_cba": 0.0}, "profile": {"classification": "vanishing"}},
    ]
    summary = {"schema": 1, "tool": "cmpk", "version": "0.1.0", "command": "profile",
               "config": {}, "results": {"rows": rows}}
    assert workloads.check_outputs(cone, json.dumps(summary), "", _validate()) == []
    rows[0]["estimate"]["k_cba"] = 0.5
    assert workloads.check_outputs(cone, json.dumps(summary), "", _validate())

    mesh = workloads.WORKLOADS["mesh-test-kgrid"]
    n = workloads.MESH_SAMPLES * len(workloads.MESH_K_GRID)
    summary = {"schema": 1, "tool": "cmpk", "version": "0.1.0", "command": "test",
               "config": {}, "results": {"rows": n}}
    csv = "header\n" + "row\n" * n
    assert workloads.check_outputs(mesh, json.dumps(summary), csv, _validate()) == []
    assert workloads.check_outputs(mesh, json.dumps(summary), "header\n", _validate())


def test_icosphere_size():
    verts, faces = workloads.icosphere(workloads.ICOSPHERE_LEVEL)
    assert (len(verts), len(faces)) == (162, 320)
    assert all(abs(math.dist(v, (0, 0, 0)) - 1.0) < 1e-12 for v in verts)
    edges = {tuple(sorted(e)) for a, b, c in faces for e in ((a, b), (b, c), (c, a))}
    # Steiner graph nodes: vertices plus steiner points on every edge
    assert len(verts) + workloads.MESH_STEINER * len(edges) == 2082


# ---------------------------------------------------------------------------
# wrapping the real package


def test_install_wraps_what_the_estimator_calls_and_uninstall_restores():
    import cmpk.cli  # noqa: F401
    from cmpk import criteria, estimator, model

    before = (model.comparison_angle, dict(estimator._EVALUATORS))
    tr = Tracer()
    tr.install()
    try:
        assert estimator._EVALUATORS["pythagorean"] is not criteria.evaluate_pythagorean.__wrapped__
        assert estimator._EVALUATORS["pythagorean"].__wrapped__ is before[1]["pythagorean"]
        model.pythagorean_defect(0.0, 3.0, 4.0, 5.0)
    finally:
        tr.uninstall()
    assert (model.comparison_angle, estimator._EVALUATORS) == before
    by = summarize(tr.spans, tr.leaves)
    assert by["model.comparison_angle"]["calls"] == 1
    assert by["kernels.cos_angle_from_sides"]["calls"] == 1


# ---------------------------------------------------------------------------
# BENCHMARK.json and result comparison


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_compare_refuses_mixed_backends(tmp_path):
    def result(backend):
        return {"detail": {"workload": "w", "env": {"kernels_backend": backend}},
                "metrics": {"solve_s": {"value": 1.0, "unit": "s"}}}

    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.write_text(json.dumps(result("python")) + "\n")
    b.write_text(json.dumps(result("cython")) + "\n")
    assert compare.main([str(a), str(b)]) == 2
    b.write_text(json.dumps(result("python")) + "\n")
    assert compare.main([str(a), str(b)]) == 0
