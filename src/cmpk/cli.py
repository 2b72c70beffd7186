"""Command-line front end: space descriptors in, deterministic CSV/JSON out.

Exit codes: 0 ok, 1 I/O, 2 config/usage (incl. model-domain violations),
3 space construction.  Set CMPK_LOG to a logging level name for diagnostics.
Reports embed the resolved config, seed and tool version; no timestamps, so
identical (config, seed, version) runs are byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import math
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from cmpk import __version__, criteria, estimator, model
from cmpk.config import DEFAULT_TOL, Tolerances
from cmpk.errors import (
    CmpkError,
    DegenerateConfigError,
    DegenerateRegionError,
    DisconnectedGraphError,
    MeshFormatError,
    ModelDomainError,
    SpaceDescriptorError,
)
from cmpk.spaces import space_from_descriptor

log = logging.getLogger("cmpk")

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_SPACE = 3


# ---------------------------------------------------------------------------
# report plumbing


def _fmt(value):
    if isinstance(value, float):
        return repr(value)
    return value


def write_rows(out_dir: Path, name: str, header: list[str], rows: list[list]) -> Path:
    path = out_dir / f"{name}_rows.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path


def write_summary(out_dir: Path, name: str, payload: dict) -> Path:
    path = out_dir / f"{name}_summary.json"
    with path.open("w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    return path


def envelope(command: str, config: dict, results: dict) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "tool": "cmpk",
        "version": __version__,
        "command": command,
        "config": config,
        "results": results,
    }


def validate_report(payload: dict) -> None:
    """Raise ValueError unless the payload matches the report schema."""
    required = {"schema", "tool", "version", "command", "config", "results"}
    missing = required - set(payload)
    if missing:
        raise ValueError(f"report missing keys: {sorted(missing)}")
    if payload["schema"] != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema {payload['schema']}")
    if not isinstance(payload["config"], dict) or not isinstance(payload["results"], dict):
        raise ValueError("config/results must be objects")


# ---------------------------------------------------------------------------
# argument helpers


def _load_space_arg(text: str):
    text = text.strip()
    if text.startswith("{"):
        return space_from_descriptor(text)
    return space_from_descriptor(Path(text).read_text())


def _point_arg(space, data, option: str):
    """A point of the space from command-line point data, which must be all finite numbers."""
    try:
        finite = bool(np.isfinite(np.asarray(data, dtype=float)).all())
    except (TypeError, ValueError):
        finite = False
    if not finite:
        raise ValueError(f"{option} point data must be finite numbers, got {json.dumps(data)}")
    return space.point_from_data(data)


def _parse_region(space, text: str | None, default_radius: float = 0.2):
    if text is None:
        return space.default_center(), default_radius
    if not text.startswith("center=") or ",radius=" not in text:
        raise ValueError("--region must look like center=<json>,radius=<float>")
    center_text, radius_text = text[len("center="):].rsplit(",radius=", 1)
    center = _point_arg(space, json.loads(center_text), "--region center")
    radius = float(radius_text)
    if not (math.isfinite(radius) and radius > 0.0):
        raise ValueError(f"--region radius must be finite and > 0, got {radius_text}")
    return center, radius


def _at_least_one(value: int, option: str) -> int:
    if value < 1:
        raise ValueError(f"{option} must be >= 1, got {value}")
    return value


def _parse_floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def _tolerances(args) -> Tolerances:
    scale = getattr(args, "tol_scale", None)
    if scale is None:
        return DEFAULT_TOL
    if not (math.isfinite(scale) and scale >= 0.0):
        raise ValueError(f"--tol-scale must be finite and >= 0, got {scale}")
    return Tolerances(scale)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# cmpk model


def cmd_model(args) -> int:
    if args.model_op == "angle":
        sides = _parse_floats(args.sides)
        if len(sides) != 3:
            raise ValueError("--sides needs three comma-separated lengths")
        angle = model.comparison_angle(args.k, tuple(sides))
        print(f"{angle:.11g}  defect={angle - math.pi / 2:.11g}")
    else:
        legs = _parse_floats(args.legs)
        if len(legs) != 2:
            raise ValueError("--legs needs two comma-separated lengths")
        side = model.side_from_angle(args.k, legs[0], legs[1], args.gamma)
        print(f"{side:.11g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# cmpk test


def _verdict_rows(name: str, m, ks: list[float], tol: Tolerances):
    """The cells and defects of a measurement's row at each k, the verdict its
    last cell; at a k where its model triangle is inadmissible (a side or the
    perimeter beyond what curvature k allows) the row has no defects and reads
    inadmissible."""
    for k in ks:
        try:
            out = estimator.evaluate_measurement(name, m, k, tol_cfg=tol)
        except ModelDomainError as e:
            log.debug("k=%r inadmissible: %s", k, e)
            yield (k, m.scale, None, None, None, "inadmissible"), ()
            continue
        yield ((out.k, out.scale, out.cbb_defect, out.cba_defect, out.tolerance, out.verdict),
               (out.cbb_defect, out.cba_defect))


def cmd_test(args) -> int:
    tol = _tolerances(args)
    space = _load_space_arg(args.space)
    center, radius = _parse_region(space, args.region)
    ks = _parse_floats(args.k_grid) if args.k_grid else [args.k]
    if not ks:
        raise ValueError(f"--k-grid needs one or more comma-separated k values, got {args.k_grid}")
    if not all(map(math.isfinite, ks)):
        option = "--k-grid" if args.k_grid else "--k"
        raise ValueError(f"{option} must be finite, got {args.k_grid or args.k}")
    name = args.criterion.replace("-", "_")
    crit = estimator.CRITERIA[name]
    ms = estimator.sample_measurements(space, center, radius, (name,),
                                       _at_least_one(args.samples, "--samples"), args.seed)
    rows: list[list] = []
    verdict_counts: dict[str, int] = {}
    defects: list[float] = []
    # a verdict criterion's measurement is read at every k, a check's reported once
    for i, m in zip(ms.index, ms[name]):
        for cells, ds in (_verdict_rows(name, m, ks, tol) if crit.evaluate
                          else [crit.report(m)]):
            rows.append([i, *cells])
            defects.extend(ds)
            if crit.evaluate:
                verdict_counts[cells[-1]] = verdict_counts.get(cells[-1], 0) + 1

    out_dir = _out_dir(args)
    config = {
        "space": space.descriptor(),
        "criterion": args.criterion,
        "k": ks if len(ks) > 1 else ks[0],
        "region": {"center": space.point_to_data(center), "radius": radius},
        "samples": args.samples,
        "seed": args.seed,
        "tol_scale": getattr(args, "tol_scale", None),
    }
    results = {
        "rows": len(rows),
        "skipped": sum(ms.skipped_by.values()),
        "skipped_by": ms.skipped_by,
        "rejected": ms.rejected,
        "verdicts": verdict_counts,
        "fail_count": verdict_counts.get("fail", 0),
        "min_defect": min(defects) if defects else None,
        "max_defect": max(defects) if defects else None,
    }
    write_rows(out_dir, "test", ["sample", *crit.header], rows)
    write_summary(out_dir, "test", envelope("test", config, results))
    return EXIT_OK


# ---------------------------------------------------------------------------
# cmpk estimate


def cmd_estimate(args) -> int:
    tol = _tolerances(args)
    space = _load_space_arg(args.space)
    center, radius = _parse_region(space, args.region)
    names = tuple(args.criteria.split(",")) if args.criteria else ("pythagorean",)
    bracket = tuple(_parse_floats(args.bracket)) if args.bracket else (-2.0, 2.0)
    if len(bracket) != 2:
        raise ValueError("--bracket needs k_lo,k_hi")
    estimator.check_bracket(bracket, args.resolution)  # before the sampling pass
    for name in names:
        if name.replace("-", "_") not in estimator.ESTIMATE_CRITERIA:
            raise ValueError(f"criterion {name!r} cannot be estimated; choose from "
                             f"{estimator.ESTIMATE_CRITERIA}")
    measurements = estimator.sample_measurements(
        space, center, radius, names, _at_least_one(args.samples, "--samples"), args.seed,
    )
    first = names[0].replace("-", "_")
    # the first criterion's defects at each bound, from the pass that gives its residuals
    at: dict[float, dict] = {}
    est = estimator.estimate_bounds(
        space, center, radius, measurements, seed=args.seed, k_bracket=bracket,
        resolution=args.resolution, tol_cfg=tol, defects=at,
    )
    columns, n = [], len(measurements.index)
    for k in (est.k_cbb, est.k_cba):
        columns += [[None] * n] * 2 if k is None else [d.tolist() for d in at[k][first]]
    rows = [[sample, *cells] for sample, *cells in zip(measurements.index, *columns)]
    out_dir = _out_dir(args)
    config = {
        "space": space.descriptor(),
        "criteria": list(names),
        "region": {"center": space.point_to_data(center), "radius": radius},
        "samples": args.samples,
        "seed": args.seed,
        "resolution": args.resolution,
        "bracket": list(bracket),
    }
    write_rows(
        out_dir, "estimate",
        ["sample", "cbb_defect_at_k_cbb", "cba_defect_at_k_cbb",
         "cbb_defect_at_k_cba", "cba_defect_at_k_cba"],
        rows,
    )
    write_summary(out_dir, "estimate", envelope("estimate", config, asdict(est)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# cmpk profile


def cmd_profile(args) -> int:
    tol = _tolerances(args)
    space = _load_space_arg(args.space)
    center, radius = _parse_region(space, args.region)
    if args.centers:
        data = json.loads(args.centers)
        if not isinstance(data, list) or not data:
            raise ValueError(
                f"--centers must be a JSON list of point data, one or more, got {args.centers}")
        centers = [_point_arg(space, c, "--centers") for c in data]
    else:
        centers = [center]
    ladder = criteria.check_eps_ladder(_parse_floats(args.eps_ladder)) if args.eps_ladder else None
    rows_data = estimator.region_report(
        space, centers, radius, n_samples=_at_least_one(args.samples, "--samples"),
        seed=args.seed, eps_ladder=ladder,
        n_per_eps=_at_least_one(args.per_eps, "--per-eps"), tol_cfg=tol,
    )
    csv_rows = []
    for row in rows_data:
        prof = row.get("profile")
        if not prof:
            continue
        for eps, chi, skip in zip(prof["eps_ladder"], prof["chi"], prof["skip_fraction"]):
            csv_rows.append([row["index"], eps, chi, skip, prof["classification"]])
    out_dir = _out_dir(args)
    config = {
        "space": space.descriptor(),
        "centers": [space.point_to_data(c) for c in centers],
        "radius": radius,
        "samples": args.samples,
        "per_eps": args.per_eps,
        "seed": args.seed,
    }
    write_rows(out_dir, "profile",
               ["center", "eps", "chi", "skip_fraction", "classification"], csv_rows)
    write_summary(out_dir, "profile", envelope("profile", config, {"rows": rows_data}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# cmpk mesh


def cmd_mesh(args) -> int:
    from cmpk import mesh as mesh_mod

    n_pairs = _at_least_one(args.pairs, "--pairs")
    tri = mesh_mod.load_obj(args.obj)
    space = mesh_mod.MeshSpace(tri, args.steiner, path=str(args.obj))
    rng = np.random.default_rng(args.seed)
    n = space.graph.n_nodes
    pairs = rng.integers(0, n, size=(n_pairs, 2))
    sources = np.unique(pairs[:, 0])
    table = space.graph.distances_from(sources)
    src_index = {int(s): i for i, s in enumerate(sources)}
    rows = [
        [int(a), int(b), float(table[src_index[int(a)], int(b)])]
        for a, b in pairs
    ]
    dists = [r[2] for r in rows if r[0] != r[1]]
    out_dir = _out_dir(args)
    config = {
        "space": space.descriptor(),
        "obj": str(args.obj),
        "steiner": args.steiner,
        "pairs": args.pairs,
        "seed": args.seed,
    }
    results = {
        "diagnostic_only": True,
        "vertices": int(len(tri.vertices)),
        "faces": int(len(tri.faces)),
        "nodes": int(n),
        "error_bar": space.resolution,
        "mean_pair_distance": float(np.mean(dists)) if dists else None,
        "max_pair_distance": float(np.max(dists)) if dists else None,
    }
    write_rows(out_dir, "mesh", ["src", "dst", "distance"], rows)
    write_summary(out_dir, "mesh", envelope("mesh", config, results))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache  # built once per process, however many commands `main` runs
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cmpk",
        description="Curvature-bound comparison tests on geodesic metric spaces",
    )
    parser.add_argument("--version", action="version", version=f"cmpk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_model = sub.add_parser("model", help="one-shot model-surface trig queries")
    msub = p_model.add_subparsers(dest="model_op", required=True)
    p_angle = msub.add_parser("angle", help="comparison angle from three sides")
    p_angle.add_argument("--k", type=float, required=True)
    p_angle.add_argument("--sides", required=True, help="a,b,c (angle between a and b)")
    p_angle.set_defaults(func=cmd_model)
    p_side = msub.add_parser("side", help="third side from two legs and the angle")
    p_side.add_argument("--k", type=float, required=True)
    p_side.add_argument("--legs", required=True, help="a,b")
    p_side.add_argument("--gamma", type=float, required=True)
    p_side.set_defaults(func=cmd_model)

    def common(p, samples_default: int):
        p.add_argument("--space", required=True, help="descriptor JSON or a path to one")
        p.add_argument("--region", help="center=<json>,radius=<float>")
        p.add_argument("--samples", type=int, default=samples_default)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--tol-scale", type=float, dest="tol_scale",
                       help="override the quadratic verdict-tolerance coefficient")

    p_test = sub.add_parser("test", help="run a sampled criterion batch")
    common(p_test, 100)
    p_test.add_argument("--criterion", required=True,
                        choices=[n.replace("_", "-") for n in estimator.CRITERIA])
    p_test.add_argument("--k", type=float, default=0.0)
    p_test.add_argument("--k-grid", dest="k_grid", help=(
        "comma list of k values; write --k-grid=-1,0,1 when the first is negative"))
    p_test.set_defaults(func=cmd_test)

    p_est = sub.add_parser("estimate", help="bisection curvature-bound estimate")
    common(p_est, 300)
    p_est.add_argument("--criteria", help="comma list of " + ",".join(
        n.replace("_", "-") for n in estimator.ESTIMATE_CRITERIA))
    p_est.add_argument("--resolution", type=float, default=0.01)
    p_est.add_argument("--bracket", help=(
        "k_lo,k_hi (default -2,2); write --bracket=-3,3 when k_lo is negative"))
    p_est.set_defaults(func=cmd_estimate)

    p_prof = sub.add_parser("profile", help="region report with Riemannian-point profiles")
    common(p_prof, 120)
    p_prof.add_argument("--centers", help="JSON list of point data (default: region center)")
    p_prof.add_argument("--eps-ladder", dest="eps_ladder", help="comma list, decreasing")
    p_prof.add_argument("--per-eps", dest="per_eps", type=int, default=128)
    p_prof.set_defaults(func=cmd_profile)

    p_mesh = sub.add_parser("mesh", help="mesh ingestion diagnostics")
    p_mesh.add_argument("--obj", required=True, help="Wavefront OBJ path")
    p_mesh.add_argument("--steiner", type=int, default=4)
    p_mesh.add_argument("--pairs", type=int, default=200)
    p_mesh.add_argument("--seed", type=int, default=0)
    p_mesh.add_argument("--out", required=True)
    p_mesh.set_defaults(func=cmd_mesh)

    return parser


def main(argv=None) -> int:
    level = os.environ.get("CMPK_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpaceDescriptorError, MeshFormatError, DisconnectedGraphError) as e:
        print(f"space construction error: {e}", file=sys.stderr)
        return EXIT_SPACE
    except (ModelDomainError, DegenerateConfigError, DegenerateRegionError,
            ValueError, json.JSONDecodeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except CmpkError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"I/O error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
