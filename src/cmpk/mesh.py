"""Triangulated-surface ingestion and graph-approximated geodesic distances.

Mesh distances come from a Steiner-point chord graph (vertices plus evenly
spaced points on each edge, complete chords within every triangle) and are
therefore upper bounds at graph resolution; criteria on meshes are
diagnostic only and reports carry an error-bar field.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from cmpk.errors import DisconnectedGraphError, MeshFormatError
from cmpk.spaces import GeodesicSegment, GeodesicSpace


@dataclass(frozen=True)
class TriMesh:
    vertices: np.ndarray  # (nv, 3) float
    faces: np.ndarray     # (nf, 3) int

    @property
    def edges(self) -> np.ndarray:
        e = np.vstack([self.faces[:, [0, 1]], self.faces[:, [1, 2]], self.faces[:, [2, 0]]])
        return np.unique(np.sort(e, axis=1), axis=0)

    def bbox_diag(self) -> float:
        return float(np.linalg.norm(self.vertices.max(0) - self.vertices.min(0)))


def _validate_mesh(vertices: np.ndarray, faces: np.ndarray) -> TriMesh:
    nv = len(vertices)
    if faces.min(initial=0) < 0 or faces.max(initial=-1) >= nv:
        raise MeshFormatError(f"face index out of range (nv={nv})")
    if len(np.unique(np.sort(faces, axis=1), axis=0)) != len(faces):
        raise MeshFormatError("duplicate faces")
    mesh = TriMesh(vertices, faces)
    # manifold edges: each undirected edge in at most two triangles
    e = np.sort(
        np.vstack([faces[:, [0, 1]], faces[:, [1, 2]], faces[:, [2, 0]]]), axis=1
    )
    uniq, counts = np.unique(e, axis=0, return_counts=True)
    bad = uniq[counts > 2]
    if len(bad):
        raise MeshFormatError(f"non-manifold edges: {bad[:8].tolist()}")
    # degenerate triangles
    a = vertices[faces[:, 1]] - vertices[faces[:, 0]]
    b = vertices[faces[:, 2]] - vertices[faces[:, 0]]
    areas = 0.5 * np.linalg.norm(np.cross(a, b), axis=1)
    floor = 1e-12 * mesh.bbox_diag() ** 2
    if (areas <= floor).any():
        idx = int(np.argmax(areas <= floor))
        raise MeshFormatError(f"degenerate triangle at face {idx} (area {areas[idx]:.3g})")
    return mesh


def load_obj(path) -> TriMesh:
    """Wavefront OBJ reader: v/f records only, other records ignored."""
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    path = Path(path)
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts or parts[0].startswith("#"):
                continue
            tag = parts[0]
            if tag == "v":
                if len(parts) < 4:
                    raise MeshFormatError("vertex needs 3 coordinates", lineno)
                try:
                    vertices.append([float(x) for x in parts[1:4]])
                except ValueError as e:
                    raise MeshFormatError(f"bad vertex coordinate: {e}", lineno) from e
            elif tag == "f":
                refs = parts[1:]
                if len(refs) != 3:
                    raise MeshFormatError(
                        f"non-triangular face with {len(refs)} vertices", lineno
                    )
                try:
                    idx = [int(r.split("/")[0]) for r in refs]
                except ValueError as e:
                    raise MeshFormatError(f"bad face index: {e}", lineno) from e
                faces.append([i - 1 if i > 0 else len(vertices) + i for i in idx])
    if not vertices or not faces:
        raise MeshFormatError(f"{path} contains no triangulated geometry")
    return _validate_mesh(
        np.asarray(vertices, dtype=float), np.asarray(faces, dtype=np.int64)
    )


class GeodesicGraph:
    """Chord graph: mesh vertices plus `steiner` points per edge.

    Arcs join every pair of nodes sharing a triangle with the straight
    3-space chord as weight (exact in-surface length for coplanar pairs).
    """

    def __init__(self, mesh: TriMesh, steiner: int = 4):
        if steiner < 0:
            raise ValueError("steiner count must be >= 0")
        self.mesh = mesh
        self.steiner = int(steiner)
        nv = len(mesh.vertices)
        edges = mesh.edges
        s = self.steiner

        pos = [mesh.vertices]
        if s > 0:
            frac = (np.arange(1, s + 1) / (s + 1.0))[None, :, None]
            v0 = mesh.vertices[edges[:, 0]][:, None, :]
            v1 = mesh.vertices[edges[:, 1]][:, None, :]
            pos.append((v0 + frac * (v1 - v0)).reshape(-1, 3))
        self.positions = np.vstack(pos)

        # each face's nodes: its vertices, then the Steiner points of its three
        # edges (edge k's are nv + k s ...); every pair of them is an arc, so
        # their order within the face does not matter
        faces = mesh.faces
        ends = np.sort(np.stack([faces, np.roll(faces, -1, axis=1)], axis=2), axis=2)
        k = np.searchsorted(edges[:, 0] * nv + edges[:, 1], ends[..., 0] * nv + ends[..., 1])
        steiner_ids = nv + k[..., None] * s + np.arange(s)
        nodes = np.concatenate([faces, steiner_ids.reshape(len(faces), -1)], axis=1)
        ii, jj = np.triu_indices(nodes.shape[1], k=1)
        r, c = nodes[:, ii].ravel(), nodes[:, jj].ravel()
        w = np.linalg.norm(self.positions[r] - self.positions[c], axis=1)
        # drop duplicate arcs (pairs on a shared edge appear once per face)
        n = len(self.positions)
        key = np.minimum(r, c) * n + np.maximum(r, c)
        _, keep = np.unique(key, return_index=True)
        r, c, w = r[keep], c[keep], w[keep]
        self.matrix = csr_matrix(
            (np.concatenate([w, w]), (np.concatenate([r, c]), np.concatenate([c, r]))),
            shape=(n, n),
        )
        self.max_arc = float(w.max())
        comp = csgraph_dijkstra(self.matrix, indices=[0])[0]
        if not np.isfinite(comp).all():
            raise DisconnectedGraphError(
                f"{int(np.isinf(comp).sum())} nodes unreachable from node 0"
            )

    @property
    def n_nodes(self) -> int:
        return self.matrix.shape[0]

    def distances_from(self, sources) -> np.ndarray:
        """Exact shortest-path distances, one row per source (batched, compiled)."""
        return csgraph_dijkstra(self.matrix, indices=list(sources))

    def distances_within(self, source: int, limit: float) -> np.ndarray:
        """The Dijkstra row of `source` computed only out to distance `limit`.

        Nodes farther than `limit` read inf; a node exactly at it is finite.
        Every finite value is the unbounded row's (`distances_from`) bit for
        bit: Dijkstra settles nodes in order of distance, so by the time it
        stops at `limit` it has relaxed every arc into a node within it.
        """
        return csgraph_dijkstra(self.matrix, indices=source, limit=limit)

    def shortest_path(self, src: int, dst: int,
                      row: np.ndarray | None = None) -> tuple[list[int], float]:
        """Shortest path src -> dst recovered from the Dijkstra row of `src`.

        `row` is `distances_from([src])[0]` (computed here when not given), or
        a row from `distances_within` that is finite at `dst`: each step goes
        to a node closer to `src`, whose value is exact, never to one beyond
        the row's limit, which reads inf.
        The path is walked back from `dst`: the predecessor of node v is the
        smallest-id neighbour u with ``row[u] + w(u, v) == row[v]``, which is
        the path a heap Dijkstra with lexicographic (distance, node-id)
        tie-breaking finds, with the same float length ``row[dst]``.
        """
        if row is None:
            row = self.distances_from([src])[0]
        if not np.isfinite(row[dst]):
            raise DisconnectedGraphError(f"no path {src} -> {dst}")
        indptr, indices, data = self.matrix.indptr, self.matrix.indices, self.matrix.data
        path = [dst]
        v = dst
        while v != src:
            lo, hi = indptr[v], indptr[v + 1]
            nbrs = indices[lo:hi]
            v = int(nbrs[row[nbrs] + data[lo:hi] == row[v]].min())
            path.append(v)
        return path[::-1], float(row[dst])


def nearest_index(cum: list[float], t: float) -> int:
    """Index of the entry of the ascending list `cum` nearest to `t`.

    Equal to ``np.argmin(np.abs(np.array(cum) - t))``: on a tie, including
    differences that round to the same float, the lowest index wins.
    """
    i = min(bisect_left(cum, t), len(cum) - 1)
    while i > 0 and abs(t - cum[i - 1]) <= abs(t - cum[i]):
        i -= 1
    return i


# factor by which a Dijkstra row's limit exceeds the distance a read needs it to reach
_ROW_GROWTH = 1.25


class MeshSpace(GeodesicSpace):
    """Geodesic space over a GeodesicGraph; point handles are node ids."""

    name = "mesh"
    point_shape, point_ints, point_form = (), (0,), "one integer node id"
    # Dijkstra rows kept up to this many bytes of rows (8 per node), least recently
    # used evicted first: a few thousand rows of a benchmark-sized mesh, so a run
    # evicts none, and computes a row again only to extend its limit
    ROW_CACHE_BYTES = 32 * 2**20

    def __init__(self, mesh: TriMesh, steiner: int = 4, *, path: str | None = None):
        self.graph = GeodesicGraph(mesh, steiner)
        self.steiner = int(steiner)
        self.source_path = path
        self._cache: OrderedDict[int, tuple[np.ndarray, float]] = OrderedDict()
        self.known_curvature = None

    @property
    def resolution(self) -> float:
        """Length scale below which graph geodesics cannot resolve anything."""
        return self.graph.max_arc

    def _row(self, src: int, reach: float) -> np.ndarray:
        """The Dijkstra row of `src`, exact at every node within `reach` of it.

        Rows are computed only out to a limit (`GeodesicGraph.distances_within`)
        and read inf beyond it: the probes read distances in a small region, and
        a bounded row costs a fraction of a full one. Each row is cached with its
        limit, least recently used evicted first. A row whose limit falls short
        of `reach` is computed again out to _ROW_GROWTH times `reach` (and at
        least one longest arc, so that a row read only at its source still
        grows). Finite values equal the full row's, so no answer depends on the
        limits or on the order of the reads.
        """
        entry = self._cache.get(src)
        if entry is None:
            if len(self._cache) >= max(self.ROW_CACHE_BYTES // (8 * self.graph.n_nodes), 1):
                self._cache.popitem(last=False)
        else:
            self._cache.move_to_end(src)
            if entry[1] >= reach:
                return entry[0]
        limit = _ROW_GROWTH * max(reach, self.graph.max_arc)
        row = self.graph.distances_within(src, limit)
        self._cache[src] = (row, limit)
        return row

    def _chord(self, x: int, ys) -> float:
        """Longest 3-space chord from node x to node(s) ys: arcs are chords, so
        no graph distance is shorter."""
        pos = self.graph.positions
        return float(np.sqrt(((pos[ys] - pos[x]) ** 2).sum(axis=-1)).max(initial=0.0))

    def _row_to(self, x: int, ys) -> np.ndarray:
        """The row of x, finite at node ys (an int) or at every node of ys.

        A new row reaches the longest chord to ys; a read that lands beyond a
        row's limit computes the row again past that limit.
        """
        entry = self._cache.get(x)
        if entry is None:
            row = self._row(x, self._chord(x, ys))
        else:
            self._cache.move_to_end(x)
            row = entry[0]
        while row[ys] == math.inf if isinstance(ys, int) else np.isinf(row[ys]).any():
            beyond = math.nextafter(self._cache[x][1], math.inf)
            row = self._row(x, max(self._chord(x, ys), beyond))
        return row

    def distance(self, x, y) -> float:
        x, y = int(x), int(y)
        return float(self._row_to(x, y)[y])

    def distances(self, x, ys) -> np.ndarray:
        return self._row_to(int(x), ys)[ys]

    def minimal_geodesics(self, x, y) -> list[GeodesicSegment]:
        x, y = int(x), int(y)
        if x == y:
            return [GeodesicSegment(self, x, y, 0.0, lambda t: x)]
        path, total = self.graph.shortest_path(x, y, self._row_to(x, y))
        pos = self.graph.positions
        cum = np.concatenate(
            [[0.0], np.cumsum(np.linalg.norm(np.diff(pos[path], axis=0), axis=1))]
        ).tolist()

        def ev(t, path=path, cum=cum):
            return path[nearest_index(cum, t)]

        return [GeodesicSegment(self, x, y, total, ev, nodes=(path, cum))]

    def sample_ball(self, center, radius, rng):
        row = self._row(int(center), radius)
        nodes = np.flatnonzero(row <= radius)
        return int(nodes[int(rng.integers(len(nodes)))])

    def point_to_data(self, x):
        return int(x)

    def point_from_data(self, data):
        node = int(self._finite(data))
        if not 0 <= node < self.graph.n_nodes:
            raise ValueError(f"node id {node} out of range")
        return node

    def default_center(self):
        return 0

    def descriptor(self) -> dict:
        d = {"type": "mesh", "steiner": self.steiner}
        if self.source_path is not None:
            d["path"] = self.source_path
        return d

