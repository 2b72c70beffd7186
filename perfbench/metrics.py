"""Metric names and units, and the per-layer metrics of one traced invocation.

The names here are the benchmark's contract with BENCHMARK.json and with
every later performance claim; the self-tests check that the two agree.
"""

from __future__ import annotations

from spans import calls_under, summarize

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    # cli: import in a fresh interpreter (set-up), report writing and the rest
    "cli.import_s": "s",
    "cli.write_s": "s",
    "cli.self_s": "s",
    # spaces: every GeodesicSpace method and GeodesicSegment.at
    "spaces.distance.calls": "count",
    "spaces.distance.self_s": "s",
    "spaces.segment_at.calls": "count",
    "spaces.segment_at.self_s": "s",
    "spaces.minimal_geodesics.calls": "count",
    "spaces.minimal_geodesics.self_s": "s",
    "spaces.sample_ball.calls": "count",
    "spaces.shoot.calls": "count",
    "spaces.self_s": "s",
    # criteria: sampling, foot search, measurement and evaluation
    "criteria.accepted_configs": "count",
    "criteria.sample_foot_config.calls": "count",
    "criteria.sample_foot_config.self_s": "s",
    "criteria.foot_of_perpendicular.calls": "count",
    "criteria.foot_of_perpendicular.self_s": "s",
    "criteria.foot_searches_per_config": "ratio",
    "criteria.draws_per_config": "ratio",
    "criteria.distance_calls_per_config": "ratio",
    "criteria.measure.self_s": "s",
    "criteria.evaluate.calls": "count",
    "criteria.evaluate.self_s": "s",
    "criteria.right_angle.calls": "count",
    "criteria.right_angle.self_s": "s",
    "criteria.profile.self_s": "s",
    "criteria.self_s": "s",
    # model trigonometry (domain validation, SideTriple) and the raw kernels
    "model.comparison_angle.calls": "count",
    "model.calls": "count",
    "model.self_s": "s",
    "kernels.calls": "count",
    "kernels.self_s": "s",
    # estimator: measuring a sample set, bisection over k
    "estimator.measure_s": "s",
    "estimator.bisect_s": "s",
    "estimator.k_probes": "count",
    "estimator.evaluations_per_probe": "ratio",
    "estimator.self_s": "s",
    # mesh: OBJ load and graph build (set-up), graph searches (solve)
    "mesh.load_obj_s": "s",
    "mesh.graph_build_s": "s",
    "mesh.shortest_path.calls": "count",
    "mesh.shortest_path.self_s": "s",
    "mesh.dijkstra_rows": "count",
    "mesh.row_hit_ratio": "ratio",
    "mesh.self_s": "s",
    # the tracing itself
    "trace.solve_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "trace.leaf_calls": "count",
}

# Metrics that are counts of work (or ratios of counts): they must repeat
# exactly between invocations with the same inputs.
DETERMINISTIC = tuple(n for n, unit in PER_LAYER.items() if unit in ("count", "ratio"))

MEASURE_FNS = ("criteria.measure_pythagorean", "criteria.measure_point_segment",
               "criteria.measure_triangle", "criteria.measure_angle_ladder")
EVALUATE_FNS = ("criteria.evaluate_pythagorean", "criteria.evaluate_point_segment",
                "criteria.evaluate_triangle")
RIGHT_ANGLE_FNS = ("criteria.build_right_angle_config", "criteria.right_angle_from_foot",
                   "criteria.sample_right_angle_config")
PROFILE_FNS = ("criteria.riemannian_point_profile", "criteria.chi_at_scale",
               "criteria.classify_profile")


def _ratio(num: float, base: float) -> float:
    """num / base, or 0 when the base is 0 (the layer did not run)."""
    return num / base if base else 0.0


def solve_layer_metrics(spans, leaves, counters) -> dict[str, float]:
    """Per-layer metrics of one traced `cmpk` invocation.

    Ratio bases: the three `*_per_config` ratios divide by
    `criteria.accepted_configs`, the sample_foot_config calls that returned a
    configuration; `estimator.evaluations_per_probe` divides the criterion
    evaluations made inside the bisection predicate by `estimator.k_probes`;
    `mesh.row_hit_ratio` is 1 - Dijkstra rows / `spaces.distance` calls.
    """
    by = summarize(spans, leaves)

    def calls(*names):
        return sum(by[n]["calls"] for n in names if n in by)

    def self_s(*names):
        return sum(by[n]["self_s"] for n in names if n in by)

    def total_s(*names):
        return sum(by[n]["total_s"] for n in names if n in by)

    def layer(prefix):
        return [n for n in by if n.startswith(prefix + ".")]

    sfc = by.get("criteria.sample_foot_config", {"calls": 0, "errors": 0})
    accepted = sfc["calls"] - sfc["errors"]
    draws, _ = calls_under(spans, leaves, "spaces.sample_ball", "criteria.sample_foot_config")
    sampled_in_estimate = calls_under(
        spans, leaves, "estimator.sample_measurements", "estimator.estimate_bounds")[1]
    k_probes = calls("estimator.orientation_pass")
    evaluations = sum(
        calls_under(spans, leaves, name, "estimator.orientation_pass")[0] for name in EVALUATE_FNS
    )
    distance_calls = calls("spaces.distance")
    rows = counters.get("mesh.dijkstra_rows", 0)
    return {
        "cli.write_s": total_s("cli.write_rows", "cli.write_summary"),
        "cli.self_s": self_s(*layer("cli")),
        "spaces.distance.calls": distance_calls,
        "spaces.distance.self_s": self_s("spaces.distance"),
        "spaces.segment_at.calls": calls("spaces.segment_at"),
        "spaces.segment_at.self_s": self_s("spaces.segment_at"),
        "spaces.minimal_geodesics.calls": calls("spaces.minimal_geodesics"),
        "spaces.minimal_geodesics.self_s": self_s("spaces.minimal_geodesics"),
        "spaces.sample_ball.calls": calls("spaces.sample_ball"),
        "spaces.shoot.calls": calls("spaces.shoot"),
        "spaces.self_s": self_s(*layer("spaces")),
        "criteria.accepted_configs": accepted,
        "criteria.sample_foot_config.calls": sfc["calls"],
        "criteria.sample_foot_config.self_s": self_s("criteria.sample_foot_config"),
        "criteria.foot_of_perpendicular.calls": calls("criteria.foot_of_perpendicular"),
        "criteria.foot_of_perpendicular.self_s": self_s("criteria.foot_of_perpendicular"),
        "criteria.foot_searches_per_config":
            _ratio(calls("criteria.foot_of_perpendicular"), accepted),
        "criteria.draws_per_config": _ratio(draws, accepted),
        "criteria.distance_calls_per_config": _ratio(distance_calls, accepted),
        "criteria.measure.self_s": self_s(*MEASURE_FNS),
        "criteria.evaluate.calls": calls(*EVALUATE_FNS),
        "criteria.evaluate.self_s": self_s(*EVALUATE_FNS),
        "criteria.right_angle.calls": calls(*RIGHT_ANGLE_FNS),
        "criteria.right_angle.self_s": self_s(*RIGHT_ANGLE_FNS),
        "criteria.profile.self_s": self_s(*PROFILE_FNS),
        "criteria.self_s": self_s(*layer("criteria")),
        "model.comparison_angle.calls": calls("model.comparison_angle"),
        "model.calls": calls(*layer("model")),
        "model.self_s": self_s(*layer("model")),
        "kernels.calls": calls(*layer("kernels")),
        "kernels.self_s": self_s(*layer("kernels")),
        "estimator.measure_s": total_s("estimator.sample_measurements"),
        "estimator.bisect_s": total_s("estimator.estimate_bounds") - sampled_in_estimate,
        "estimator.k_probes": k_probes,
        "estimator.evaluations_per_probe": _ratio(evaluations, k_probes),
        "estimator.self_s": self_s(*layer("estimator")),
        "mesh.shortest_path.calls": calls("mesh.shortest_path"),
        "mesh.shortest_path.self_s": self_s("mesh.shortest_path"),
        "mesh.dijkstra_rows": rows,
        "mesh.row_hit_ratio": 1.0 - _ratio(rows, distance_calls) if rows else 0.0,
        "mesh.self_s": self_s(*layer("mesh")),
        "trace.spans": len(spans),
        "trace.leaf_calls": sum(c for c, _s, _e in leaves.values()),
    }


def setup_layer_metrics(import_s: float, spans, leaves) -> dict[str, float]:
    """Per-layer metrics of one traced set-up (import and space construction)."""
    by = summarize(spans, leaves)
    return {
        "cli.import_s": import_s,
        "mesh.load_obj_s": by.get("mesh.load_obj", {}).get("total_s", 0.0),
        "mesh.graph_build_s": by.get("mesh.graph_build", {}).get("total_s", 0.0),
    }


def trace_problems(spans, leaves) -> list[str]:
    """Cross-checks that the wrappers saw what the estimator actually calls."""
    by = summarize(spans, leaves)
    k_probes = by.get("estimator.orientation_pass", {}).get("calls", 0)
    if not k_probes:
        return []
    evaluations = sum(
        calls_under(spans, leaves, name, "estimator.orientation_pass")[0] for name in EVALUATE_FNS
    )
    measured = sum(
        calls_under(spans, leaves, name, "estimator.sample_measurements")[0] for name in MEASURE_FNS
    )
    # each probe evaluates at least one stored measurement and at most all of them
    if not k_probes <= evaluations <= k_probes * measured:
        return [
            f"criterion evaluations inside the bisection ({evaluations}) outside "
            f"[k_probes, k_probes x measurements] = [{k_probes}, {k_probes * measured}]"
        ]
    return []
