"""Independent brute-force oracles used to freeze expected values.

These deliberately avoid the package's kernel formulas: side lengths come
from explicit point constructions (rotations on the embedded sphere,
Minkowski hyperboloid vectors, planar coordinates) and angles from bisection
against those constructions.  The exceptions are reference copies of code
the package has since rewritten (the heap Dijkstra search and the per-k
evaluators), which tests compare the rewrites against.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush

import numpy as np

from cmpk import model
from cmpk.config import DEFAULT_TOL, Tolerances
from cmpk.criteria import (
    PointSegmentMeasurement,
    TestOutcome,
    TriangleMeasurement,
    _outcome,
    evaluate_angle_ladder,
)
from cmpk.errors import DisconnectedGraphError, ModelDomainError


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


# The per-(sample, k) evaluators as they were before they stopped repeating
# per-k work: every rung of every angle ladder evaluated at k, and the triple
# re-checked and the comparison angle recomputed for every probe.  Tests
# require the package's evaluators to agree with these exactly.


def comparison_distance_at(k: float, d_qp: float, d_qr: float, d_pr: float,
                           t: float, *, tol: Tolerances = DEFAULT_TOL) -> float:
    """Model distance from q~ to the point at arclength t along [p~ r~]."""
    triple = model.SideTriple(d_qp, d_pr, d_qr)
    model._check_triple(k, triple)
    if not -tol.geo <= t <= d_pr + tol.geo:
        raise ModelDomainError(f"t={t} outside [0, {d_pr}]")
    t = min(max(t, 0.0), d_pr)
    if t == 0.0:
        return d_qp
    if t == d_pr:
        return d_qr
    alpha = model.comparison_angle(k, triple, tol=tol)
    return model.side_from_angle(k, d_qp, t, alpha)


def evaluate_point_segment(
    m: PointSegmentMeasurement, k: float, *,
    tol_cfg: Tolerances = DEFAULT_TOL, tol: float | None = None,
) -> TestOutcome:
    defects = [
        d_real - comparison_distance_at(k, m.d_qp, m.d_qr, m.length, t, tol=tol_cfg)
        for t, d_real in m.probes
    ]
    cbb = -min(defects)  # lower bound requires real >= model everywhere
    cba = max(defects)
    config = dict(m.snapshot, defects=defects)
    return _outcome("point_segment", k, m.scale, cbb, cba, tol_cfg, tol, config)


def evaluate_triangle(
    m: TriangleMeasurement, k: float, *,
    tol_cfg: Tolerances = DEFAULT_TOL, tol: float | None = None,
) -> TestOutcome:
    d_qr, d_pr, d_pq = m.sides
    model_angles = {
        "p": model.comparison_angle(k, (d_pq, d_pr, d_qr), tol=tol_cfg),
        "q": model.comparison_angle(k, (d_pq, d_qr, d_pr), tol=tol_cfg),
        "r": model.comparison_angle(k, (d_pr, d_qr, d_pq), tol=tol_cfg),
    }
    cbb = -math.inf
    cba = -math.inf
    estimates = {}
    for v, raws in m.ladders.items():
        angles = [evaluate_angle_ladder(raw, k, tol_cfg=tol_cfg).angle for raw in raws]
        estimates[v] = angles
        # lower bound needs angle >= model angle for every geodesic pair
        cbb = max(cbb, model_angles[v] - min(angles))
        cba = max(cba, max(angles) - model_angles[v])
    config = dict(m.snapshot, model_angles=model_angles, vertex_angles=estimates)
    return _outcome("triangle", k, m.scale, cbb, cba, tol_cfg, tol, config)
