"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the package's kernel formulas: side lengths come
from explicit point constructions (rotations on the embedded sphere,
Minkowski hyperboloid vectors, planar coordinates) and angles from bisection
against those constructions.  The exceptions are reference copies of code
the package has since rewritten (the heap Dijkstra search, the mesh's full
Dijkstra rows, the chord graph built one face at a time, the per-k
evaluators, the angle ladders, the all-scalar bisection predicate and
residual, the cone geodesics that built every candidate route, the
one-try-at-a-time foot sampler, the foot search by grid, golden section
and parabolic polish, on one segment and in lockstep over rows, with the
numpy row distances it read, the sampling pass that measured each configuration as it was
drawn, the sphere's and the hyperbolic plane's own shots and arcs, and the
Riemannian-point rung that built one right-angle configuration at a time),
which tests compare the rewrites against; and
`Replay`, a generator stand-in that hands out given doubles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix

from cmpk import config, criteria, estimator, mesh, model, spaces
from cmpk.config import DEFAULT_TOL, Tolerances
from cmpk.criteria import (
    PI,
    PointSegmentMeasurement,
    TestOutcome,
    _outcome,
    build_right_angle_config,
    foot_of_perpendicular,
)
from cmpk.estimator import _EVALUATORS
from cmpk.errors import (
    DegenerateConfigError,
    DegenerateRegionError,
    DisconnectedGraphError,
    FootOnBoundary,
    LadderError,
    ModelDomainError,
    RightAngleUnavailable,
    ShootUnavailable,
)
from cmpk.spaces import TWO_PI, GeodesicSegment, GeodesicSpace


def sphere_triangle_points(k: float, a: float, b: float, gamma: float):
    """Vertices (p, q, r) on the embedded sphere of curvature k > 0.

    q sits at arc distance a from p along a meridian; r at arc distance b
    along the direction rotated by gamma at p.
    """
    rk = math.sqrt(k)
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([math.sin(a * rk), 0.0, math.cos(a * rk)])
    r = np.array(
        [
            math.sin(b * rk) * math.cos(gamma),
            math.sin(b * rk) * math.sin(gamma),
            math.cos(b * rk),
        ]
    )
    return p, q, r


def sphere_arc(k: float, u: np.ndarray, v: np.ndarray) -> float:
    return math.atan2(float(np.linalg.norm(np.cross(u, v))), float(np.dot(u, v))) / math.sqrt(k)


def hyperboloid_triangle_points(k: float, a: float, b: float, gamma: float):
    """Vertices on the unit hyperboloid for curvature k < 0."""
    rk = math.sqrt(-k)
    p = np.array([0.0, 0.0, 1.0])
    q = np.array([math.sinh(a * rk), 0.0, math.cosh(a * rk)])
    r = np.array(
        [
            math.sinh(b * rk) * math.cos(gamma),
            math.sinh(b * rk) * math.sin(gamma),
            math.cosh(b * rk),
        ]
    )
    return p, q, r


def hyperboloid_arc(k: float, u: np.ndarray, v: np.ndarray) -> float:
    m = float(u[0] * v[0] + u[1] * v[1] - u[2] * v[2])
    return math.acosh(max(-m, 1.0)) / math.sqrt(-k)


def third_side(k: float, a: float, b: float, gamma: float) -> float:
    """Model third side by explicit point construction (no law of cosines)."""
    if k > 0.0:
        _, q, r = sphere_triangle_points(k, a, b, gamma)
        return sphere_arc(k, q, r)
    if k < 0.0:
        _, q, r = hyperboloid_triangle_points(k, a, b, gamma)
        return hyperboloid_arc(k, q, r)
    qx, qy = a, 0.0
    rx, ry = b * math.cos(gamma), b * math.sin(gamma)
    return math.hypot(qx - rx, qy - ry)


def angle_from_sides(k: float, a: float, b: float, c: float, tol: float = 1e-14) -> float:
    """Angle between sides a and b by bisection of the third-side construction."""
    lo, hi = 0.0, math.pi
    if third_side(k, a, b, lo) > c:
        return 0.0
    if third_side(k, a, b, hi) < c:
        return math.pi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if third_side(k, a, b, mid) < c:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def cone_distance_windings(perimeter: float, p1, p2) -> float:
    """Cone distance as a minimum over developing-map windings plus the apex route."""
    r1, t1 = p1
    r2, t2 = p2
    best = r1 + r2
    if r1 > 0.0 and r2 > 0.0:
        delta = t2 - t1
        for m in range(-4, 5):
            ang = delta + m * perimeter
            if abs(ang) < math.pi:
                best = min(
                    best,
                    math.sqrt(r1 * r1 + r2 * r2 - 2.0 * r1 * r2 * math.cos(ang)),
                )
    return best


def cone_graph_distance(
    perimeter: float, p1, p2, n_r: int = 30, n_t: int = 90, window: int = 9
) -> float:
    """Dijkstra on a dense chord graph over a polar grid of the cone.

    Chords connect every ring pair within `window` angular steps; each chord
    weight is the exact local (unrolled) distance, so the graph distance
    upper-bounds the true one with only the inscribed-polyline deficit.
    """
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import dijkstra

    r_max = 1.5 * max(p1[0], p2[0], 0.1)
    radii = np.linspace(0.0, r_max, n_r + 1)[1:]
    dth = perimeter / n_t
    thetas = np.arange(n_t) * dth
    apex = n_r * n_t
    J = np.arange(n_t)

    rows, cols, vals = [], [], []
    ri = radii[:, None]
    rk = radii[None, :]
    for dj in range(window + 1):
        ang = dj * dth
        if ang >= math.pi:
            break
        chord = np.sqrt(np.maximum(ri**2 + rk**2 - 2.0 * ri * rk * math.cos(ang), 0.0))
        if dj == 0:
            iu, ku = np.triu_indices(n_r, k=1)
            c = chord[iu, ku]
            src = iu[:, None] * n_t + J[None, :]
            dst = ku[:, None] * n_t + J[None, :]
        else:
            ii, kk = np.meshgrid(np.arange(n_r), np.arange(n_r), indexing="ij")
            c = chord.ravel()
            src = ii.ravel()[:, None] * n_t + J[None, :]
            dst = kk.ravel()[:, None] * n_t + (J[None, :] + dj) % n_t
        rows.append(src.ravel())
        cols.append(dst.ravel())
        vals.append(np.repeat(c[:, None], n_t, axis=1).ravel())
    # apex spokes to every node (exact radial distances)
    all_nodes = np.arange(n_r * n_t)
    rows.append(np.full(n_r * n_t, apex))
    cols.append(all_nodes)
    vals.append(np.repeat(radii, n_t))

    g = coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(apex + 1, apex + 1),
    ).tocsr()

    def snap(p):
        r, t = p
        if r == 0.0:
            return apex
        i = int(np.argmin(np.abs(radii - r)))
        j = int(np.argmin(np.abs((thetas - t % perimeter))))
        return i * n_t + j

    d = dijkstra(g, directed=False, indices=[snap(p1)])[0, snap(p2)]
    return float(d)


def heap_shortest_path(matrix, src: int, dst: int) -> tuple[list[int], float]:
    """Heap Dijkstra on a CSR graph with lexicographic (distance, node-id)
    tie-breaking: the search `GeodesicGraph.shortest_path` used before it
    read paths off compiled Dijkstra rows.
    """
    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    n = matrix.shape[0]
    dist = np.full(n, np.inf)
    pred = np.full(n, -1, dtype=np.int64)
    done = np.zeros(n, dtype=bool)
    dist[src] = 0.0
    heap: list[tuple[float, int]] = [(0.0, src)]
    while heap:
        d, u = heappop(heap)
        if done[u]:
            continue
        done[u] = True
        if u == dst:
            break
        for off in range(indptr[u], indptr[u + 1]):
            v = indices[off]
            nd = d + data[off]
            # strict lexicographic: prefer smaller predecessor id on ties
            if nd < dist[v] or (nd == dist[v] and pred[v] > u):
                dist[v] = nd
                pred[v] = u
                heappush(heap, (nd, v))
    if not done[dst]:
        raise DisconnectedGraphError(f"no path {src} -> {dst}")
    path = [dst]
    while path[-1] != src:
        path.append(int(pred[path[-1]]))
    return path[::-1], float(dist[dst])


def chord_graph(tri: mesh.TriMesh, steiner: int):
    """(matrix, max_arc) of `GeodesicGraph(tri, steiner)`, its arcs gathered
    one face at a time: the build before it was done over arrays."""
    nv, s = len(tri.vertices), steiner
    edges = tri.edges
    edge_index = {tuple(e): i for i, e in enumerate(edges.tolist())}
    pos = [tri.vertices]
    if s > 0:
        frac = (np.arange(1, s + 1) / (s + 1.0))[None, :, None]
        v0 = tri.vertices[edges[:, 0]][:, None, :]
        v1 = tri.vertices[edges[:, 1]][:, None, :]
        pos.append((v0 + frac * (v1 - v0)).reshape(-1, 3))
    positions = np.vstack(pos)

    def edge_nodes(i: int, j: int) -> list[int]:
        a, b = (i, j) if i < j else (j, i)
        k = edge_index[(a, b)]
        ids = [nv + k * s + m for m in range(s)]
        return ids if (i, j) == (a, b) else ids[::-1]

    rows: list[np.ndarray] = []
    cols: list[np.ndarray] = []
    for f in tri.faces.tolist():
        nodes = list(f)
        for i, j in ((0, 1), (1, 2), (2, 0)):
            nodes.extend(edge_nodes(f[i], f[j]))
        nodes = np.array(nodes)
        ii, jj = np.triu_indices(len(nodes), k=1)
        rows.append(nodes[ii])
        cols.append(nodes[jj])
    r = np.concatenate(rows)
    c = np.concatenate(cols)
    w = np.linalg.norm(positions[r] - positions[c], axis=1)
    n = len(positions)
    key = np.minimum(r, c) * n + np.maximum(r, c)
    _, keep = np.unique(key, return_index=True)
    r, c, w = r[keep], c[keep], w[keep]
    matrix = csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([r, c]), np.concatenate([c, r]))),
        shape=(n, n),
    )
    return matrix, float(w.max())


class MeshSpace(mesh.MeshSpace):
    """The mesh space as it was before rows were computed only as far as they
    are read: every Dijkstra row is the full single-source run over the graph,
    cached least recently used within ROW_CACHE_BYTES. The readers are the
    package's; a full row reaches every node, so `reach` is not read."""

    def _row(self, src: int, reach: float = math.inf) -> np.ndarray:
        src = int(src)
        row = self._cache.get(src)
        if row is None:
            if len(self._cache) >= max(self.ROW_CACHE_BYTES // (8 * self.graph.n_nodes), 1):
                self._cache.popitem(last=False)
            row = self._cache[src] = self.graph.distances_from([src])[0]
        else:
            self._cache.move_to_end(src)
        return row

    def _row_to(self, x: int, ys) -> np.ndarray:
        return self._row(x)


# Angles and triangles as they were measured and evaluated before each angle
# was measured at one scale: an 8-rung ladder of comparison triangles per
# angle, every rung evaluated at k, and the triple re-checked and the
# comparison angle recomputed for every point-segment probe.  Tests require
# the package's measure -> evaluate results to agree with these exactly.


@dataclass(frozen=True)
class AngleEstimate:
    vertex: object
    toward: tuple[object, object]
    ladder: tuple[tuple[float, float], ...]  # (scale t_j, comparison angle)
    angle: float           # last-rung value
    extrapolated: float    # Richardson extrapolation of the last two rungs
    monotone: bool
    k0: float


def measure_angle_ladder(
    space: GeodesicSpace, p, toward_q: GeodesicSegment, toward_r: GeodesicSegment, *,
    t0: float | None = None, ratio: float = 0.5, rungs: int = 8,
) -> tuple[tuple[float, float, float, float], ...]:
    """Raw ladder of (t_j, |p a_j|, |p b_j|, |a_j b_j|) on two segments from p."""
    if t0 is None:
        t0 = 0.1 * min(toward_q.length, toward_r.length)
    if t0 <= 0.0:
        raise LadderError("zero-length segment")
    out = []
    for j in range(rungs):
        t = t0 * ratio**j
        a = toward_q.at(t)
        b = toward_r.at(t)
        d_pa = space.distance(p, a)
        d_pb = space.distance(p, b)
        if min(d_pa, d_pb) < 10.0 * config.GEO:
            raise LadderError(f"ladder distances degenerate at rung {j}")
        out.append((t, d_pa, d_pb, space.distance(a, b)))
    return tuple(out)


def evaluate_angle_ladder(
    raw: Sequence[tuple[float, float, float, float]], k0: float, *,
    vertex=None, toward=(None, None),
) -> AngleEstimate:
    ladder = tuple(
        (t, model.comparison_angle(k0, (d_pa, d_pb, d_ab)))
        for t, d_pa, d_pb, d_ab in raw
    )
    values = [v for _, v in ladder]
    monotone = all(values[j + 1] >= values[j] - 1e-9 for j in range(len(values) - 1))
    angle = values[-1]
    extrapolated = _richardson(raw, values) if len(values) >= 2 else angle
    return AngleEstimate(vertex, toward, ladder, angle, extrapolated, monotone, k0)


def _richardson(raw, values) -> float:
    """Richardson extrapolation of the last two rungs, clamped to [0, pi]."""
    r2 = (raw[-2][0] / raw[-1][0]) ** 2
    extrapolated = (r2 * values[-1] - values[-2]) / (r2 - 1.0)
    return min(max(extrapolated, 0.0), PI)


def angle_at(
    space: GeodesicSpace, p, toward_q: GeodesicSegment, toward_r: GeodesicSegment,
    k0: float = 0.0, *, t0: float | None = None, ratio: float = 0.5, rungs: int = 8,
) -> AngleEstimate:
    """Angle between two segments at p as the small-scale comparison-angle limit."""
    raw = measure_angle_ladder(space, p, toward_q, toward_r, t0=t0, ratio=ratio, rungs=rungs)
    return evaluate_angle_ladder(
        raw, k0, vertex=space.point_to_data(p),
        toward=(space.point_to_data(toward_q.end), space.point_to_data(toward_r.end)),
    )


@dataclass(frozen=True)
class TriangleMeasurement:
    sides: tuple[float, float, float]  # (d_qr, d_pr, d_pq): side opposite p, q, r
    ladders: dict  # vertex name -> list of raw ladders (one per geodesic combo)
    scale: float
    multi_geodesic: bool


def measure_triangle(space: GeodesicSpace, p, q, r, *, rungs: int = 8) -> TriangleMeasurement:
    """The sides are the first minimal geodesics' lengths from p to q and r and
    from q to r; each vertex has a ladder for every pair of minimal geodesics
    that leave it toward the other two, the first pair's first."""
    g_pq = space.minimal_geodesics(p, q)
    g_pr = space.minimal_geodesics(p, r)
    g_qr = space.minimal_geodesics(q, r)
    d_pq, d_pr, d_qr = g_pq[0].length, g_pr[0].length, g_qr[0].length
    if min(d_pq, d_pr, d_qr) <= 10.0 * config.GEO:
        raise DegenerateConfigError("triangle has a vanishing side")
    multi = max(len(g_pq), len(g_pr), len(g_qr)) > 1
    ladders = {}
    for name, v, a, b in (("p", p, q, r), ("q", q, p, r), ("r", r, p, q)):
        ladders[name] = [measure_angle_ladder(space, v, ga, gb, rungs=rungs)
                         for ga in space.minimal_geodesics(v, a)
                         for gb in space.minimal_geodesics(v, b)]
    scale = max(d_pq, d_pr, d_qr)
    return TriangleMeasurement((d_qr, d_pr, d_pq), ladders, scale, multi)


def comparison_distance_at(k: float, d_qp: float, d_qr: float, d_pr: float, t: float) -> float:
    """Model distance from q~ to the point at arclength t along [p~ r~]."""
    model._check_sides(k, d_qp, d_pr, d_qr)
    if not -config.GEO <= t <= d_pr + config.GEO:
        raise ModelDomainError(f"t={t} outside [0, {d_pr}]")
    t = min(max(t, 0.0), d_pr)
    if t == 0.0:
        return d_qp
    if t == d_pr:
        return d_qr
    alpha = model.comparison_angle(k, (d_qp, d_pr, d_qr))
    return model.side_from_angle(k, d_qp, t, alpha)


def evaluate_point_segment(
    m: PointSegmentMeasurement, k: float, *, tol_cfg: Tolerances = DEFAULT_TOL,
) -> TestOutcome:
    defects = [
        d_real - comparison_distance_at(k, m.d_qp, m.d_qr, m.length, t)
        for t, d_real in m.probes
    ]
    cbb = -min(defects)  # lower bound requires real >= model everywhere
    cba = max(defects)
    return _outcome("point_segment", k, m.scale, cbb, cba, tol_cfg)


def evaluate_triangle(
    m: TriangleMeasurement, k: float, *, tol_cfg: Tolerances = DEFAULT_TOL,
) -> TestOutcome:
    d_qr, d_pr, d_pq = m.sides
    model_angles = {
        "p": model.comparison_angle(k, (d_pq, d_pr, d_qr)),
        "q": model.comparison_angle(k, (d_pq, d_qr, d_pr)),
        "r": model.comparison_angle(k, (d_pr, d_qr, d_pq)),
    }
    cbb = -math.inf
    cba = -math.inf
    for v, raws in m.ladders.items():
        angles = [evaluate_angle_ladder(raw, k).angle for raw in raws]
        # lower bound needs angle >= model angle for every geodesic pair
        cbb = max(cbb, model_angles[v] - min(angles))
        cba = max(cba, max(angles) - model_angles[v])
    return _outcome("triangle", k, m.scale, cbb, cba, tol_cfg)


def orientation_pass(measurements: dict[str, list], k: float, orientation: str,
                     tol_cfg: Tolerances) -> bool:
    """Reference bisection predicate: every sample through the scalar evaluator."""
    for name, ms in measurements.items():
        ev = _EVALUATORS[name]
        for m in ms:
            try:
                if not ev(m, k, tol_cfg=tol_cfg).passes(orientation):
                    return False
            except ModelDomainError:
                return False
    return True


def worst_defect(measurements: dict[str, list], k: float, orientation: str,
                 tol_cfg: Tolerances) -> float:
    """Reference residual: one scalar pass per orientation."""
    worst = -math.inf
    for name, ms in measurements.items():
        ev = _EVALUATORS[name]
        for m in ms:
            out = ev(m, k, tol_cfg=tol_cfg)
            worst = max(worst, out.cbb_defect if orientation == "cbb" else out.cba_defect)
    return worst


def first_worst_defect(measurements: dict[str, list], k: float, orientation: str,
                       tol_cfg: Tolerances) -> tuple[float, dict | None]:
    """Reference residual and witness: one scalar pass over every sample, the
    witness the first sample in evaluation order whose defect is the residual."""
    worst, witness = -math.inf, None
    for name, ms in measurements.items():
        ev = _EVALUATORS[name]
        for i, m in enumerate(ms):
            out = ev(m, k, tol_cfg=tol_cfg)
            defect = out.cbb_defect if orientation == "cbb" else out.cba_defect
            if defect > worst:
                worst, witness = defect, {"criterion": name, "sample": i}
    return worst, witness


def cone_minimal_geodesics(cone, x, y) -> list[GeodesicSegment]:
    """Reference `Cone.minimal_geodesics` that builds every candidate route."""
    r1, t1 = cone._norm(x)
    r2, t2 = cone._norm(y)
    if cone.distance((r1, t1), (r2, t2)) == 0.0:
        return [cone._segment((r1, t1), (r2, t2), 0.0, lambda t: (r1, t1))]
    if r1 == 0.0 or r2 == 0.0:
        return [cone._apex_route((r1, t1), (r2, t2))]
    ccw = (t2 - t1) % cone.perimeter
    candidates: list[tuple[float, GeodesicSegment]] = []
    for mag, signed in ((ccw, ccw), (cone.perimeter - ccw, ccw - cone.perimeter)):
        if mag < math.pi:
            seg = cone._unrolled_route((r1, t1), (r2, t2), signed)
            candidates.append((seg.length, seg))
    apex_len = r1 + r2
    if not candidates or apex_len <= min(c[0] for c in candidates) + config.TIE:
        candidates.append((apex_len, cone._apex_route((r1, t1), (r2, t2))))
    best = min(c[0] for c in candidates)
    out = [seg for length, seg in candidates if length <= best + config.TIE]
    dedup: list[GeodesicSegment] = []
    for seg in out:
        if not any(cone.distance(seg.midpoint(), other.midpoint()) <= config.PT
                   for other in dedup):
            dedup.append(seg)
    return dedup


# The foot search that `criteria.foot_of_perpendicular` ran before every
# foot was exact: a grid of FOOT_GRID intervals, golden-section refinement to
# FOOT_REFINE_REL of the segment around the grid minimum and a guarded
# parabolic polish, one foot at a time or in lockstep over rows, reading the
# distances along a row through `row_distances`.
FOOT_GRID = 64
INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
FOOT_REFINE_REL = 1e-8  # golden-section bracket target, fraction of length
FOOT_POLISH_REL = 5e-6  # parabolic-polish probe spacing, fraction of length


def golden(f, a: float, b: float, target: float) -> tuple[float, float]:
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > target:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + INVPHI * (b - a)
            fd = f(d)
    return (c, fc) if fc <= fd else (d, fd)


def parabolic_polish(f, t: float, ft: float, lo: float, hi: float, h: float):
    """One guarded parabolic step; keeps t when the fit does not help."""
    t1, t3 = t - h, t + h
    if t1 < lo or t3 > hi:
        return t, ft
    f1, f3 = f(t1), f(t3)
    denom = (t - t1) * (ft - f3) - (t - t3) * (ft - f1)
    if denom == 0.0:
        return t, ft
    tv = t - 0.5 * (((t - t1) ** 2) * (ft - f3) - ((t - t3) ** 2) * (ft - f1)) / denom
    if not (t1 <= tv <= t3):
        return t, ft
    fv = f(tv)
    noise = 4.0 * 2.2e-16 * (abs(ft) + (hi - lo))
    if fv <= ft + noise:
        return tv, fv
    return t, ft


def row_distances(space: GeodesicSpace, qs, rows):
    """The map f with f(ts) the distance from qs[i] to the point at arclength
    ts[..., i] of the segment whose `row` is rows[i], in numpy's trig: the
    sphere's, the hyperbolic plane's and the cone's formulas of `distance` and
    of their segments' points, over arrays."""
    radius = getattr(space, "radius", None)
    if isinstance(space, spaces.Cone):
        qr, qt = np.array([space._norm(q) for q in qs], dtype=float).T
        r1, t1, u0, u1 = np.array(rows, dtype=float).T
        period = space.perimeter

        def f(ts):
            p0, p1 = r1 + ts * u0, ts * u1
            r2 = np.hypot(p0, p1)
            t2 = np.where(r2 == 0.0, 0.0, ((t1 + np.arctan2(p1, p0)) % period) % period)
            sep = np.abs(qt - t2)
            sep = np.minimum(sep, period - sep)
            chord = np.hypot(qr - r2, np.sqrt(qr * r2) * (2.0 * np.sin(0.5 * sep)))
            return np.where((qr == 0.0) | (r2 == 0.0) | (sep >= math.pi), qr + r2, chord)

        return f
    q0, q1, q2 = np.array(qs, dtype=float).T
    x0, x1, x2, w0, w1, w2 = np.array(rows, dtype=float).T
    if isinstance(space, spaces.Sphere):
        def f(ts):
            a = ts / radius
            c, s = np.cos(a), np.sin(a)
            y0, y1, y2 = c * x0 + s * w0, c * x1 + s * w1, c * x2 + s * w2
            c0 = q1 * y2 - q2 * y1
            c1 = q2 * y0 - q0 * y2
            c2 = q0 * y1 - q1 * y0
            return radius * np.arctan2(
                np.sqrt(c0 * c0 + c1 * c1 + c2 * c2), q0 * y0 + q1 * y1 + q2 * y2)

        return f

    def f(ts):
        a = ts / radius
        c, s = np.cosh(a), np.sinh(a)
        d0 = c * x0 + s * w0 - q0
        d1 = c * x1 + s * w1 - q1
        d2 = c * x2 + s * w2 - q2
        q = np.maximum(d0 * d0 + d1 * d1 - d2 * d2, 0.0)
        return radius * 2.0 * np.arcsinh(0.5 * np.sqrt(q))

    return f


def searched_foot(space: GeodesicSpace, q, seg: GeodesicSegment) -> criteria.FootResult:
    """`criteria.foot_of_perpendicular` as it searched every segment, a mesh
    path too: the grid minimum, golden-section refinement around it and a
    guarded parabolic polish, with the same checks."""
    L = seg.length
    if L <= 0.0:
        raise DegenerateConfigError("segment has zero length")

    def f(t: float) -> float:
        return space.distance(q, seg.at(t))

    ts = np.linspace(0.0, L, FOOT_GRID + 1)
    if seg.row is not None:
        grid = row_distances(space, [q], [seg.row])(ts[:, None])[:, 0]
    else:
        grid = space.distances(q, [seg.at(t) for t in ts.tolist()])
    i = int(np.argmin(grid))
    t_g, f_g = golden(f, ts[max(i - 1, 0)], ts[min(i + 1, FOOT_GRID)], FOOT_REFINE_REL * L)
    t_star, d_star = parabolic_polish(f, t_g, f_g, 0.0, L, FOOT_POLISH_REL * L)
    if d_star <= config.GEO:
        raise DegenerateConfigError("q lies on the segment")
    margin = config.FOOT_MARGIN_REL * L
    if not margin <= t_star <= L - margin:
        raise FootOnBoundary(t_star, d_star, L)
    return criteria.FootResult(t_star, d_star)


def lockstep_search(space: GeodesicSpace, qs, rows, lengths: np.ndarray):
    """The (t, distance) at which the lockstep search of `lockstep_feet` stops
    on each row, before its checks."""
    f, L = row_distances(space, qs, rows), lengths
    ts = np.linspace(0.0, L, FOOT_GRID + 1)
    i = np.argmin(f(ts), axis=0)
    cols = np.arange(len(L))
    t, ft = golden_rows(f, ts[np.maximum(i - 1, 0), cols],
                        ts[np.minimum(i + 1, FOOT_GRID), cols], FOOT_REFINE_REL * L)
    return polish_rows(f, t, ft, L, FOOT_POLISH_REL * L)


def lockstep_feet(space: GeodesicSpace, qs, rows, lengths: np.ndarray):
    """`criteria.feet_of_perpendicular` as it searched in lockstep over rows:
    the scalar search's grid, bracket, target, comparisons, polish and checks
    applied row by row.  Returns t*, d* (nan unless FOOT_OK) and outcomes."""
    L = lengths
    t, ft = lockstep_search(space, qs, rows, L)
    margin = config.FOOT_MARGIN_REL * L
    interior = (margin <= t) & (t <= L - margin)
    outcome = np.where(ft <= config.GEO, criteria.FOOT_DEGENERATE,
                       np.where(interior, criteria.FOOT_OK, criteria.FOOT_BOUNDARY))
    failed = outcome != criteria.FOOT_OK
    t[failed] = ft[failed] = np.nan
    return t, ft, outcome


def golden_rows(f, a: np.ndarray, b: np.ndarray, target: np.ndarray):
    """`golden` on every row: all rows step together, and each row's result is
    what `golden` returns at the step where its bracket is first within its target."""
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc, fd = f(c), f(d)
    t, ft = np.empty_like(c), np.empty_like(fc)
    todo = np.ones(len(c), dtype=bool)
    while True:
        done = todo & ~((b - a) > target)
        if done.any():
            pick = fc <= fd
            t[done], ft[done] = np.where(pick, c, d)[done], np.where(pick, fc, fd)[done]
            todo &= ~done
        if not todo.any():
            return t, ft
        lower = fc < fd
        a, b = np.where(lower, a, c), np.where(lower, d, b)
        step = INVPHI * (b - a)
        new = np.where(lower, b - step, a + step)
        fnew = f(new)
        c, d = np.where(lower, new, d), np.where(lower, c, new)
        fc, fd = np.where(lower, fnew, fd), np.where(lower, fc, fnew)


def polish_rows(f, t: np.ndarray, ft: np.ndarray, L: np.ndarray, h: np.ndarray):
    """`parabolic_polish` on [0, L] on every row: a row keeps t wherever the scalar step would."""
    t1, t3 = t - h, t + h
    f1, f3 = f(t1), f(t3)
    denom = (t - t1) * (ft - f3) - (t - t3) * (ft - f1)
    ok = ~(t1 < 0.0) & ~(t3 > L) & (denom != 0.0)
    tv = t - 0.5 * (((t - t1) ** 2) * (ft - f3) - ((t - t3) ** 2) * (ft - f1)) / np.where(
        ok, denom, 1.0)
    ok &= (t1 <= tv) & (tv <= t3)
    tv = np.where(ok, tv, t)
    fv = f(tv)
    ok &= fv <= ft + 4.0 * 2.2e-16 * (np.abs(ft) + L)
    return np.where(ok, tv, t), np.where(ok, fv, ft)


def sample_foot_config(
    space: GeodesicSpace, center, radius: float, rng: np.random.Generator, *,
    min_seg_rel: float = 0.7,
    min_height_rel: float = 0.15, unique_only: bool = True, max_tries: int = 200,
    rejected: dict | None = None, search=foot_of_perpendicular,
):
    """Draw (q, seg, foot) with an interior foot and non-degenerate height;
    `rejected`, when given, counts the rejected tries by reason, and
    `search(space, q, seg)` finds the foot."""
    counts = {} if rejected is None else rejected

    def reject(reason):
        counts[reason] = counts.get(reason, 0) + 1

    for _ in range(max_tries):
        a = space.sample_ball(center, radius, rng)
        b = space.sample_ball(center, radius, rng)
        if space.distance(a, b) < min_seg_rel * radius:
            reject("short_segment")
            continue
        geods = space.minimal_geodesics(a, b)
        if unique_only and len(geods) > 1:
            reject("several_geodesics")
            continue
        seg = geods[0]
        q = space.sample_ball(center, radius, rng)
        try:
            foot = search(space, q, seg)
        except FootOnBoundary:
            reject("foot_on_boundary")
            continue
        except DegenerateConfigError:
            reject("degenerate")
            continue
        if foot.d_star < min_height_rel * radius:
            reject("low_height")
            continue
        p = seg.at(foot.t_star)
        # node-resolution spaces can snap an interior t* onto an endpoint
        if min(space.distance(p, seg.start), space.distance(p, seg.end)) <= config.GEO:
            reject("endpoint_snap")
            continue
        return q, seg, foot
    raise DegenerateRegionError(
        f"no valid foot configuration in {max_tries} tries (radius {radius})"
    )


def sample_measurements(space: GeodesicSpace, center, radius: float, names: Sequence[str],
                        n_samples: int, seed: int):
    """`estimator.sample_measurements` as it measured each configuration by the
    scalar probes as soon as `criteria.foot_configs` yielded it."""
    names = estimator._normalize_criteria(names)
    rng = np.random.default_rng(seed)
    out = estimator.Measurements({name: [] for name in names})
    for drawn in criteria.foot_configs(space, center, radius, rng, n_samples,
                                       rejected=out.rejected):
        try:
            sample = [estimator.CRITERIA[name].measure(space, drawn) for name in names]
        except estimator.SKIPPED_SAMPLE as e:
            kind = type(e).__name__
            out.skipped_by[kind] = out.skipped_by.get(kind, 0) + 1
            continue
        for ms, m in zip(out.values(), sample):
            ms.append(m)
    return out


# The sphere's and the hyperbolic plane's shots, arcs and tangents, and the
# plane's and the cone's ball draws, as each space wrote them out before the
# sphere and the hyperbolic plane shared one copy and `sample_ball` one
# default.  `self` is the space.


def sphere_shoot(self, p, phi: float, length: float):
    p0, p1, p2 = self._check(p).tolist()
    (u0, u1, u2), (v0, v1, v2) = self._basis((p0, p1, p2))
    cp, sp = math.cos(phi), math.sin(phi)
    w0, w1, w2 = cp * u0 + sp * v0, cp * u1 + sp * v1, cp * u2 + sp * v2
    a = length / self.radius
    c, s = math.cos(a), math.sin(a)
    return np.array([c * p0 + s * w0, c * p1 + s * w1, c * p2 + s * w2])


def sphere_arc_segment(self, x, w, length) -> GeodesicSegment:
    x0, x1, x2 = x.tolist()
    w0, w1, w2 = w.tolist()
    radius = self.radius

    def ev(t):
        a = t / radius
        c, s = math.cos(a), math.sin(a)
        return np.array([c * x0 + s * w0, c * x1 + s * w1, c * x2 + s * w2])

    return self._segment(x, ev(length), length, ev, (x0, x1, x2, w0, w1, w2))


def _mdot(u: np.ndarray, v: np.ndarray) -> float:
    return float(u[0] * v[0] + u[1] * v[1] - u[2] * v[2])


def hyperbolic_shoot(self, p, phi: float, length: float):
    p0, p1, p2 = self._check(p).tolist()
    (u0, u1, u2), (v0, v1, v2) = self._basis((p0, p1, p2))
    cp, sp = math.cos(phi), math.sin(phi)
    w0, w1, w2 = cp * u0 + sp * v0, cp * u1 + sp * v1, cp * u2 + sp * v2
    a = length / self.radius
    c, s = math.cosh(a), math.sinh(a)
    return np.array([c * p0 + s * w0, c * p1 + s * w1, c * p2 + s * w2])


def hyperbolic_arc_segment(self, x, w, length) -> GeodesicSegment:
    x0, x1, x2 = x.tolist()
    w0, w1, w2 = w.tolist()
    radius = self.radius

    def ev(t):
        a = t / radius
        c, s = math.cosh(a), math.sinh(a)
        return np.array([c * x0 + s * w0, c * x1 + s * w1, c * x2 + s * w2])

    return self._segment(x, ev(length), length, ev, (x0, x1, x2, w0, w1, w2))


def hyperbolic_tangent_toward(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    c = -_mdot(x, y)  # cosh(theta)
    w = y - c * x
    n = math.sqrt(max(_mdot(w, w), 0.0))
    return w / n


def plane_sample_ball(self, center, radius, rng):
    return self.shoot(center, rng.uniform(0.0, TWO_PI), radius * rng.uniform())


def cone_sample_ball(self, center, radius, rng):
    r, _ = self._norm(center)
    phi = rng.uniform(0.0, self.perimeter if r == 0.0 else TWO_PI)
    return self.shoot(center, phi, radius * rng.uniform())



# `criteria.chi_at_scale` as it built every configuration of a rung one at a
# time, drawing from the given generator instead of one seeded from `seed`.


def chi_at_scale(space: GeodesicSpace, x, eps: float, n: int, rng) -> tuple[float, int]:
    chi_max = 0.0
    skipped = 0
    for _ in range(n):
        omega = rng.uniform(0.0, 2.0 * PI)
        u = rng.uniform(0.1, 0.45)
        beta = rng.uniform(0.0, 2.0 * PI)
        l1 = eps * rng.uniform(0.1, 0.45)
        l2 = eps * rng.uniform(0.1, 0.45)
        try:
            try:
                p = space.shoot(x, omega, u * eps)
            except ShootUnavailable:
                p = space.sample_ball(x, 0.45 * eps, rng)
            cfg = build_right_angle_config(space, p, beta, beta + PI / 2, l1, l2)
        except RightAngleUnavailable:
            skipped += 1
            continue
        chi_max = max(chi_max, cfg.ratio_defect)
    return chi_max, skipped


class Replay:
    """A generator stand-in that hands out the given doubles in order: `random`
    as numpy's does, `uniform(low, high)` as low + (high - low) * random(), and
    `integers(high)` as int(high * random())."""

    def __init__(self, doubles):
        self.doubles = list(doubles)
        self.bit_generator = self  # `state` is the number of doubles handed out
        self.state = 0

    def random(self, n):
        out = np.array(self.doubles[self.state:self.state + n], dtype=float)
        self.state += n
        return out

    def uniform(self, low=0.0, high=1.0):
        return low + (high - low) * float(self.random(1)[0])

    def integers(self, high):
        return int(high * float(self.random(1)[0]))
