"""The four fixed CLI workloads: their inputs, their arguments and their output checks.

This module uses the standard library only, so the orchestrating process can
generate inputs without importing cmpk. Why each workload exists is written
in README.md next to this file.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

# Acceptance tolerance of tests/test_acceptance.py (bound estimates within
# 0.05 of the true curvature), reused unchanged.
BOUND_TOL = 0.05

ICOSPHERE_LEVEL = 2
MESH_STEINER = 4
MESH_SAMPLES = 40
MESH_K_GRID = (0.5, 1.0, 1.5)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # cmpk sub-command
    space: dict           # space descriptor, before input paths are filled in
    options: tuple        # remaining CLI options, without --space/--seed/--out
    k_true: float | None  # known curvature for the bound check, or None
    mesh: bool = False    # needs the generated icosphere OBJ


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sphere-estimate", "estimate", {"type": "sphere", "k": 1.0},
            ("--region", "center=[0.0,0.0,1.0],radius=0.3", "--samples", "300"),
            k_true=1.0,
        ),
        Workload(
            "hyperbolic-3crit-estimate", "estimate", {"type": "hyperbolic", "k": -1.0},
            ("--criteria", "pythagorean,point-segment,triangle",
             "--region", "center=[0.0,0.0,1.0],radius=0.2", "--samples", "300"),
            k_true=-1.0,
        ),
        Workload(
            "cone-profile", "profile", {"type": "cone", "perimeter": math.pi},
            ("--centers", "[[0.0,0.0],[1.0,0.5],[2.0,1.5]]",
             "--region", "center=[0.0,0.0],radius=0.25"),
            k_true=None,
        ),
        Workload(
            "mesh-test-kgrid", "test", {"type": "mesh", "steiner": MESH_STEINER},
            ("--criterion", "pythagorean",
             "--k-grid", ",".join(str(k) for k in MESH_K_GRID),
             "--region", "center=0,radius=0.8", "--samples", str(MESH_SAMPLES)),
            k_true=None, mesh=True,
        ),
    )
}


def mesh_path(work_dir: str) -> str:
    return f"{work_dir}/icosphere{ICOSPHERE_LEVEL}.obj"


def space_text(w: Workload, work_dir: str) -> str:
    """The --space argument: descriptor JSON with generated input paths filled in."""
    desc = dict(w.space)
    if w.mesh:
        desc["path"] = mesh_path(work_dir)
    return json.dumps(desc, sort_keys=True)


def cli_argv(w: Workload, seed: int, work_dir: str) -> list[str]:
    """Arguments of the one `cmpk` invocation the workload runs."""
    return [
        w.command, "--space", space_text(w, work_dir), *w.options,
        "--seed", str(seed), "--out", f"{work_dir}/out",
    ]


def report_paths(w: Workload, work_dir: str) -> tuple[Path, Path]:
    out = Path(work_dir) / "out"
    return out / f"{w.command}_summary.json", out / f"{w.command}_rows.csv"


# ---------------------------------------------------------------------------
# icosphere generator (independent of the test suite's mesh helpers)


def icosphere(level: int) -> tuple[list[tuple[float, float, float]], list[tuple[int, int, int]]]:
    """Unit icosphere: the icosahedron with each face split in four `level` times."""
    phi = (1.0 + math.sqrt(5.0)) / 2.0
    raw = [
        (-1, phi, 0), (1, phi, 0), (-1, -phi, 0), (1, -phi, 0),
        (0, -1, phi), (0, 1, phi), (0, -1, -phi), (0, 1, -phi),
        (phi, 0, -1), (phi, 0, 1), (-phi, 0, -1), (-phi, 0, 1),
    ]
    verts = [_normalized(v) for v in raw]
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    for _ in range(level):
        midpoints: dict[tuple[int, int], int] = {}

        def mid(i: int, j: int) -> int:
            key = (min(i, j), max(i, j))
            if key not in midpoints:
                a, b = verts[i], verts[j]
                verts.append(_normalized(tuple(0.5 * (x + y) for x, y in zip(a, b))))
                midpoints[key] = len(verts) - 1
            return midpoints[key]

        split = []
        for a, b, c in faces:
            ab, bc, ca = mid(a, b), mid(b, c), mid(c, a)
            split.extend([(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)])
        faces = split
    return verts, faces


def _normalized(v) -> tuple[float, float, float]:
    n = math.sqrt(sum(x * x for x in v))
    return tuple(float(x) / n for x in v)


def write_obj(path: Path, verts, faces) -> None:
    lines = [f"v {x!r} {y!r} {z!r}" for x, y, z in verts]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in faces]
    path.write_text("\n".join(lines) + "\n")


def prepare_inputs(w: Workload, root: Path, work_dir: str) -> None:
    """Write the workload's generated input files under the checkout."""
    (root / work_dir / "out").mkdir(parents=True, exist_ok=True)
    if w.mesh:
        verts, faces = icosphere(ICOSPHERE_LEVEL)
        write_obj(root / mesh_path(work_dir), verts, faces)


# ---------------------------------------------------------------------------
# output checks


def bound_error(summary: dict, k_true: float) -> float:
    """max(|k_cbb - k_true|, |k_cba - k_true|); inf when a bound is missing."""
    res = summary["results"]
    ks = (res.get("k_cbb"), res.get("k_cba"))
    if any(k is None for k in ks):
        return math.inf
    return max(abs(k - k_true) for k in ks)


def check_outputs(w: Workload, summary_text: str, rows_text: str, validate_report) -> list[str]:
    """Problems with one invocation's reports; empty when they are correct.

    `validate_report` is cmpk.cli.validate_report, passed in so this module
    stays importable without cmpk.
    """
    try:
        summary = json.loads(summary_text)
        validate_report(summary)
    except ValueError as e:
        return [f"summary rejected: {e}"]
    if summary["command"] != w.command:
        return [f"summary is for command {summary['command']!r}, not {w.command!r}"]
    res = summary["results"]
    problems = []
    if w.k_true is not None:
        err = bound_error(summary, w.k_true)
        if not err <= BOUND_TOL:
            problems.append(
                f"bounds k_cbb={res.get('k_cbb')} k_cba={res.get('k_cba')} miss "
                f"k_true={w.k_true} by {err} > {BOUND_TOL}"
            )
    elif w.command == "profile":
        rows = res.get("rows") or []
        if len(rows) != 3:
            return [f"profile has {len(rows)} center rows, expected 3"]
        apex, *others = rows
        if apex.get("estimate", {}).get("k_cba", 0.0) is not None:
            problems.append("apex row has a k_cba; the cone apex has no upper bound")
        if apex.get("profile", {}).get("classification") != "non_vanishing":
            problems.append("apex profile is not non_vanishing")
        for row in others:
            if row.get("profile", {}).get("classification") != "vanishing":
                problems.append(f"off-apex row {row.get('index')} profile is not vanishing")
    elif w.command == "test":
        expected = MESH_SAMPLES * len(MESH_K_GRID)
        n_csv = max(len(rows_text.splitlines()) - 1, 0)
        if res.get("rows") != expected or n_csv != expected:
            problems.append(
                f"test wrote {res.get('rows')} rows ({n_csv} in the CSV), "
                f"expected samples x |k-grid| = {expected}"
            )
    return problems
