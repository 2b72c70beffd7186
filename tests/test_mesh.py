"""Mesh ingestion, Steiner graphs, graph-distance quality."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cmpk import config, criteria, mesh as mesh_mod, rounds
from cmpk.errors import (
    DegenerateConfigError,
    DisconnectedGraphError,
    FootOnBoundary,
    MeshFormatError,
)
from cmpk.spaces import space_from_descriptor

from meshgen import grid_mesh, icosphere, octahedron, write_obj
from oracles import (
    MeshSpace as FullRowMeshSpace,
    chord_graph,
    heap_shortest_path,
    sample_foot_config,
    searched_foot,
)


@pytest.fixture
def octa_path(tmp_path):
    v, f = octahedron()
    p = tmp_path / "octa.obj"
    write_obj(p, v, f)
    return p


# ---------------------------------------------------------------------------
# OBJ loading


def test_load_octahedron_euler_counts(octa_path):
    m = mesh_mod.load_obj(octa_path)
    assert len(m.vertices) == 6
    assert len(m.faces) == 8
    assert len(m.edges) == 12  # V - E + F = 2


def test_load_rejects_quad_faces(tmp_path):
    p = tmp_path / "quad.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshFormatError, match="non-triangular face"):
        mesh_mod.load_obj(p)
    with pytest.raises(MeshFormatError, match="line 5"):
        mesh_mod.load_obj(p)


def test_load_icosphere_level3_counts(tmp_path):
    v, f = icosphere(3)
    p = tmp_path / "ico3.obj"
    write_obj(p, v, f)
    m = mesh_mod.load_obj(p)
    assert len(m.vertices) == 642
    assert len(m.faces) == 1280


def test_load_ignores_comments_and_other_records(tmp_path):
    p = tmp_path / "extra.obj"
    p.write_text(
        "# comment\nvn 0 0 1\nvt 0 0\no thing\n"
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1/1/1 2/2/2 3/3/3\n"
    )
    m = mesh_mod.load_obj(p)
    assert len(m.faces) == 1


def test_load_rejects_bad_vertex(tmp_path):
    p = tmp_path / "bad.obj"
    p.write_text("v 0 0\n")
    with pytest.raises(MeshFormatError, match="line 1"):
        mesh_mod.load_obj(p)


def test_non_manifold_rejected(tmp_path):
    p = tmp_path / "nm.obj"
    # three triangles sharing one edge
    p.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\nv 0 -1 0\nv 0 0 1\n"
        "f 1 2 3\nf 1 2 4\nf 1 2 5\n"
    )
    with pytest.raises(MeshFormatError, match="non-manifold"):
        mesh_mod.load_obj(p)


def test_degenerate_triangle_rejected(tmp_path):
    p = tmp_path / "deg.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
    with pytest.raises(MeshFormatError, match="degenerate"):
        mesh_mod.load_obj(p)


def test_out_of_range_index_rejected(tmp_path):
    p = tmp_path / "oob.obj"
    p.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 9\n")
    with pytest.raises(MeshFormatError, match="out of range"):
        mesh_mod.load_obj(p)


# ---------------------------------------------------------------------------
# graph distances


def test_octahedron_opposite_vertices_two_edges(octa_path):
    m = mesh_mod.load_obj(octa_path)
    space = mesh_mod.MeshSpace(m, steiner=0)
    # antipodal vertices: two graph edges of length sqrt(2)
    assert space.distance(0, 1) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)


def test_grid_diagonal(tmp_path):
    v, f = grid_mesh(8)
    p = tmp_path / "grid.obj"
    write_obj(p, v, f)
    space = mesh_mod.MeshSpace(mesh_mod.load_obj(p), steiner=4)
    corner_a = 0
    corner_b = len(v) - 1
    assert space.distance(corner_a, corner_b) == pytest.approx(math.sqrt(2.0), rel=0.05)


def test_graph_distance_monotone_in_steiner(octa_path):
    m = mesh_mod.load_obj(octa_path)
    prev = None
    for s in (0, 2, 4, 8):
        space = mesh_mod.MeshSpace(m, steiner=s)
        d = space.distance(0, 1)
        if prev is not None:
            assert d <= prev + 1e-12
        prev = d


def test_graph_built_over_arrays_equals_the_face_by_face_build():
    # the face-by-face build reads an edge's Steiner points in the order each
    # face runs along it; the arrays read them in one order
    cases = [octahedron(), grid_mesh(4), icosphere(1), icosphere(2), icosphere(3)]
    for v, f in cases:
        tri = mesh_mod.TriMesh(v, f)
        for steiner in (0, 1, 4):
            graph = mesh_mod.GeodesicGraph(tri, steiner)
            want, max_arc = chord_graph(tri, steiner)
            for name in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(graph.matrix, name), getattr(want, name))
            assert graph.max_arc == max_arc


def test_icosphere_distance_error_vs_analytic(rng):
    v, f = icosphere(2)
    space = mesh_mod.MeshSpace(mesh_mod.TriMesh(v, f), steiner=4)
    nv = len(v)
    pairs = rng.integers(0, nv, size=(100, 2))
    pairs = pairs[pairs[:, 0] != pairs[:, 1]]
    errs = []
    for a, b in pairs:
        graph_d = space.distance(a, b)
        true_d = math.atan2(np.linalg.norm(np.cross(v[a], v[b])), float(np.dot(v[a], v[b])))
        errs.append(abs(graph_d - true_d) / true_d)
    assert float(np.median(errs)) <= 0.08


def test_metric_axioms_exact(octa_path, rng):
    space = mesh_mod.MeshSpace(mesh_mod.load_obj(octa_path), steiner=2)
    n = space.graph.n_nodes
    for _ in range(200):
        x, y, z = (int(v) for v in rng.integers(0, n, 3))
        dxy = space.distance(x, y)
        assert dxy == pytest.approx(space.distance(y, x), abs=1e-12)
        assert dxy <= space.distance(x, z) + space.distance(z, y) + 1e-12


def test_geodesic_paths_and_resolution(octa_path, rng):
    space = mesh_mod.MeshSpace(mesh_mod.load_obj(octa_path), steiner=3)
    seg = space.geodesic(0, 1)
    assert seg.length == pytest.approx(space.distance(0, 1), abs=1e-12)
    # node-resolution evaluation: positions along the path are within one arc
    for t in np.linspace(0.0, seg.length, 7):
        node = seg.at(t)
        assert space.distance(0, node) <= t + space.resolution + 1e-12


def test_distances_equal_scalar_distances(octa_path, rng):
    space = mesh_mod.MeshSpace(mesh_mod.load_obj(octa_path), steiner=3)
    n = space.graph.n_nodes
    for _ in range(20):
        x = int(rng.integers(n))
        ys = [int(y) for y in rng.integers(0, n, int(rng.integers(0, 30)))]
        assert space.distances(x, ys).tolist() == [space.distance(x, y) for y in ys]
    # a mesh segment has no row: the foot search's grid is one `distances` call
    seg = space.geodesic(0, 1)
    assert seg.row is None
    grid = [seg.at(t) for t in np.linspace(0.0, seg.length, 65).tolist()]
    assert space.distances(5, grid).tolist() == [space.distance(5, y) for y in grid]


def _counted_rows(space, limits: list[float] | None = None) -> list[int]:
    """Record the source of every Dijkstra row the space computes from now on,
    and its limit in `limits` when given."""
    sources: list[int] = []
    compute = space.graph.distances_within

    def counted(src, limit):
        sources.append(int(src))
        if limits is not None:
            limits.append(limit)
        return compute(src, limit)

    space.graph.distances_within = counted
    return sources


def test_row_cache_evicts_least_recently_used(octa_path):
    space = mesh_mod.MeshSpace(mesh_mod.load_obj(octa_path), steiner=6)
    cap = 65
    space.ROW_CACHE_BYTES = 8 * space.graph.n_nodes * (cap + 1) - 1  # room for 65 rows, not 66
    assert space.graph.n_nodes > cap + 1
    for node in range(cap):
        space.distance(node, 0)
    space.distance(0, 1)  # node 0 becomes the most recently used row
    space.distance(cap, 0)  # a new row evicts node 1, the least recently used
    assert list(space._cache) == [*range(2, cap), 0, cap]
    computed = _counted_rows(space)
    space.distance(0, 5)
    space.distance(2, 5)
    assert computed == []
    space.distance(1, 5)  # evicted earlier: recomputed, evicting node 3
    assert computed == [1]
    assert 3 not in space._cache and len(space._cache) == cap


def test_default_row_cache_recomputes_a_row_only_to_extend_it(tmp_path):
    # the benchmark's icosphere (level 2, steiner 4): 2,082 nodes, so the
    # default cap keeps 2,014 rows
    path = tmp_path / "ico2.obj"
    write_obj(path, *icosphere(2))
    space = mesh_mod.MeshSpace(mesh_mod.load_obj(path), steiner=4)
    assert space.ROW_CACHE_BYTES // (8 * space.graph.n_nodes) == 2014
    limits: list[float] = []
    computed = _counted_rows(space, limits)
    rng = np.random.default_rng(61004)
    for _ in range(40):
        q, seg, foot = next(criteria.foot_configs(space, 0, 0.8, rng, 1))
        criteria.measure_pythagorean(space, q, seg, foot=foot)
    assert len(set(computed)) > 65
    assert set(space._cache) == set(computed)  # none evicted
    # each source's rows were computed out to ever larger limits, the last
    # of them the cached one
    for src in set(computed):
        own = [limit for s, limit in zip(computed, limits) if s == src]
        assert own == sorted(set(own)) and space._cache[src][1] == own[-1], src


def test_read_beyond_the_limit_extends_the_row():
    space = mesh_mod.MeshSpace(mesh_mod.TriMesh(*icosphere(2)), steiner=4)
    full = space.graph.distances_from([0])[0]
    limits: list[float] = []
    computed = _counted_rows(space, limits)
    near = int(np.argsort(full)[5])
    far = int(np.argmax(full))  # the antipode, about pi away
    assert space.distance(0, near) == full[near]
    (first,) = limits
    row = space._cache[0][0]
    assert first < full[far] and np.isinf(row[far])
    assert (row[np.isfinite(row)] == full[np.isfinite(row)]).all()
    assert space.distance(0, far) == full[far]
    assert computed == [0] * len(limits) and len(limits) >= 2
    assert limits == sorted(limits) and limits[-2] < full[far] <= limits[-1]
    assert space._cache[0][0].tolist() == full.tolist()  # the limit passed the farthest node
    n_rows = len(computed)
    assert space.distances(0, [near, far]).tolist() == [full[near], full[far]]
    assert len(computed) == n_rows


@given(st.lists(st.integers(0, 77), max_size=400))  # the 78 nodes of the octahedron, steiner 6
@settings(max_examples=40, deadline=None)
def test_row_cache_hits_whenever_clearing_cache_would(sources):
    # reference: the replaced policy, a dict emptied whenever a 66th row is added
    space = mesh_mod.MeshSpace(mesh_mod.TriMesh(*octahedron()), steiner=6)
    assert space.graph.n_nodes == 78
    computed = _counted_rows(space)
    old: set[int] = set()
    for src in sources:
        hit_before = src in old
        if not hit_before:
            if len(old) > 64:
                old.clear()
            old.add(src)
        n_rows = len(computed)
        space.distance(src, 0)
        if hit_before:
            assert len(computed) == n_rows, f"row {src} recomputed"


# Bounded rows against full rows: every answer of the space, whose Dijkstra
# rows reach only as far as the reads so far needed, equals the answer of the
# full-row space, whatever the order of the reads and the cache's cap.

_OCTA_NODE = st.integers(0, 77)  # the 78 nodes of the octahedron, steiner 6
_ROW_READS = st.one_of(
    st.tuples(st.just("distance"), _OCTA_NODE, _OCTA_NODE),
    st.tuples(st.just("distances"), _OCTA_NODE, st.lists(_OCTA_NODE, max_size=6)),
    st.tuples(st.just("geodesic"), _OCTA_NODE, _OCTA_NODE),
    st.tuples(st.just("ball"), _OCTA_NODE, st.floats(0.0, 3.5)),
    # a ball through a node: the radius is a graph distance, exactly
    st.tuples(st.just("ball_to"), _OCTA_NODE, _OCTA_NODE),
)


def _octahedron_spaces(rows: int | None):
    """The space under test and the full-row reference, with room for `rows`
    rows (the default cap when None)."""
    pair = []
    for cls in (mesh_mod.MeshSpace, FullRowMeshSpace):
        space = cls(mesh_mod.TriMesh(*octahedron()), steiner=6)
        if rows is not None:
            space.ROW_CACHE_BYTES = 8 * space.graph.n_nodes * rows
        pair.append(space)
    return pair


@given(st.lists(_ROW_READS, max_size=30), st.sampled_from([None, 2]))
@example([("distance", 0, 0), ("distance", 0, 1)], None)  # first read at the source
@example([("distance", 0, 2), ("ball", 0, 2.9)], None)  # a ball past the limit
# a far read after the row of 0 was evicted
@example([("distance", 0, 4), ("distance", 2, 0), ("distance", 3, 0), ("distance", 0, 1)], 2)
@settings(max_examples=120, deadline=None)
def test_bounded_rows_answer_as_full_rows_do(reads, rows):
    space, full = _octahedron_spaces(rows)
    for i, (op, x, arg) in enumerate(reads):
        if op == "distance":
            assert space.distance(x, arg) == full.distance(x, arg), (i, op, x, arg)
        elif op == "distances":
            assert space.distances(x, arg).tolist() == full.distances(x, arg).tolist(), i
        elif op == "geodesic":
            (seg,) = space.minimal_geodesics(x, arg)
            (want,) = full.minimal_geodesics(x, arg)
            assert seg.length == want.length, (i, op, x, arg)
            if x != arg:
                cum, nearest = _argmin_nodes(full, x, arg)
                path = [nearest(t) for t in cum]
                assert [seg.at(t) for t in cum] == [want.at(t) for t in cum] == path, i
        else:
            radius = arg if op == "ball" else full.distance(x, arg)
            rng, rng_full = np.random.default_rng(i), np.random.default_rng(i)
            node = space.sample_ball(x, radius, rng)
            assert node == full.sample_ball(x, radius, rng_full), (i, op, x, arg)
            assert rng.bit_generator.state == rng_full.bit_generator.state, i
            if op == "ball_to":
                assert space.distance(x, arg) == radius


def test_row_first_read_at_its_source_still_grows():
    space, full = _octahedron_spaces(None)
    limits: list[float] = []
    computed = _counted_rows(space, limits)
    assert space.distance(0, 0) == 0.0  # the read reaches no distance at all
    assert limits[0] > 0.0
    assert space.distance(0, 1) == full.distance(0, 1)  # the antipode
    assert computed == [0] * len(limits) and len(limits) >= 2
    assert limits == sorted(limits) and limits[-2] < full.distance(0, 1) <= limits[-1]


def test_ball_beyond_the_limit_extends_the_row():
    space, full = _octahedron_spaces(None)
    limits: list[float] = []
    computed = _counted_rows(space, limits)
    space.distance(0, 2)
    radius = 2.9  # past the first limit: the antipode, 2 sqrt(2) away, is inside
    assert limits[-1] < radius
    rng, rng_full = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(20):
        assert space.sample_ball(0, radius, rng) == full.sample_ball(0, radius, rng_full)
    assert computed == [0, 0] and limits[-1] >= radius
    row = space._cache[0][0]
    assert np.flatnonzero(row <= radius).tolist() == np.flatnonzero(full._row(0) <= radius).tolist()


def test_node_exactly_at_the_limit_is_read_without_extending():
    space, full = _octahedron_spaces(None)
    row = full._row(0)
    # a node whose distance d is the limit of the row of a ball of radius d / growth
    growth = mesh_mod._ROW_GROWTH
    node = next(
        k for k in np.argsort(row).tolist()
        if row[k] / growth >= space.resolution and growth * (row[k] / growth) == row[k]
    )
    d = float(row[node])
    limits: list[float] = []
    computed = _counted_rows(space, limits)
    rng, rng_full = np.random.default_rng(3), np.random.default_rng(3)
    assert space.sample_ball(0, d / growth, rng) == full.sample_ball(0, d / growth, rng_full)
    assert limits == [d] and space._cache[0][1] == d
    assert space.distance(0, node) == d
    for _ in range(20):
        assert space.sample_ball(0, d, rng) == full.sample_ball(0, d, rng_full)
    assert computed == [0]  # the node at the limit is finite: nothing recomputed


def test_far_read_after_eviction_recomputes_the_row():
    space, full = _octahedron_spaces(2)
    computed = _counted_rows(space)
    space.distance(0, 4)  # a short read: the row of 0 stops well short of node 1
    assert np.isinf(space._cache[0][0][1])
    space.distance(2, 0)
    space.distance(3, 0)  # evicts the row of 0
    assert 0 not in space._cache
    assert space.distance(0, 1) == full.distance(0, 1)
    assert computed[:3] == [0, 2, 3] and set(computed[3:]) == {0}
    assert np.isfinite(space._cache[0][0][1])


def test_shortest_path_deterministic_ties():
    # paths read off Dijkstra rows equal the heap search's, ties included
    # (the octahedron has many equal-length paths between antipodes)
    cases = [(octahedron(), s) for s in (0, 1, 2)]
    cases += [(grid_mesh(6), 1), (icosphere(1), 0), (icosphere(1), 1)]
    for (v, f), steiner in cases:
        graph = mesh_mod.GeodesicGraph(mesh_mod.TriMesh(v, f), steiner)
        n = graph.n_nodes
        for src in sorted({0, 1, n // 3, n - 1}):
            row = graph.distances_from([src])[0]
            for dst in range(n):
                want = heap_shortest_path(graph.matrix, src, dst)
                assert graph.shortest_path(src, dst) == want, (steiner, src, dst)
                assert graph.shortest_path(src, dst, row) == want, (steiner, src, dst)


def _argmin_nodes(space, x, y):
    """The segment's nodes and arclengths, and the reference nearest-node rule."""
    path, _ = space.graph.shortest_path(x, y)
    pos = space.graph.positions
    cum = np.concatenate(
        [[0.0], np.cumsum(np.linalg.norm(np.diff(pos[path], axis=0), axis=1))]
    )
    return cum, lambda t: path[int(np.argmin(np.abs(cum - t)))]


def test_segment_evaluator_matches_argmin(octa_path, rng):
    space = mesh_mod.MeshSpace(mesh_mod.load_obj(octa_path), steiner=3)
    slack = config.GEO
    n = space.graph.n_nodes
    pairs = [(0, 1), (2, 3)] + [tuple(int(a) for a in rng.integers(0, n, 2)) for _ in range(20)]
    for x, y in pairs:
        (seg,) = space.minimal_geodesics(x, y)
        cum, nearest = _argmin_nodes(space, x, y)
        mids = (cum[:-1] + cum[1:]) / 2
        ts = [0.0, seg.length, *cum, *mids, *rng.uniform(0.0, seg.length, 20)]
        for t in ts:
            assert seg.at(t) == nearest(min(max(t, 0.0), seg.length)), (x, y, t)
        assert seg.at(-0.5 * slack) == nearest(0.0) == x
        assert seg.at(seg.length + 0.5 * slack) == nearest(seg.length)
        with pytest.raises(ValueError):
            seg.at(seg.length + 2 * slack)


# ---------------------------------------------------------------------------
# the graph foot: the path node nearest q


def _benchmark_icosphere():
    """The benchmark's mesh: the level-2 icosphere with 4 Steiner points per edge."""
    return mesh_mod.MeshSpace(mesh_mod.TriMesh(*icosphere(2)), steiner=4)


def _foot(search, space, q, seg):
    """(t*, d*) of a foot search, read off FootOnBoundary too; None where the
    search finds q on the segment."""
    try:
        foot = search(space, q, seg)
    except FootOnBoundary as e:
        return e.t_star, e.d_star
    except DegenerateConfigError:
        return None
    return foot.t_star, foot.d_star


@pytest.mark.parametrize("make, radius", [
    (_benchmark_icosphere, 0.8),
    (lambda: mesh_mod.MeshSpace(mesh_mod.TriMesh(*octahedron()), steiner=4), 3.0),
])
def test_graph_foot_is_the_nearest_path_node(make, radius):
    space = make()
    rng = np.random.default_rng(30)
    for _ in range(150):
        x, y, q = (space.sample_ball(0, radius, rng) for _ in range(3))
        seg = space.geodesic(x, y)
        if seg.length == 0.0:
            continue
        path, cum = seg.nodes
        d = space.distances(q, path)
        found = _foot(criteria.foot_of_perpendicular, space, q, seg)
        if found is None:
            assert d.min() <= config.GEO and q in path
            continue
        t, d_star = found
        i = int(np.argmin(d))
        assert seg.at(t) == path[i] and t == cum[i]
        assert d_star == d.min()
        searched = _foot(searched_foot, space, q, seg)
        assert searched is not None and d_star <= searched[1], (x, y, q)


def test_graph_foot_takes_the_first_of_tied_path_nodes():
    # the octahedron's vertex 0 to the Steiner point (0.2, 0.8, 0) on its edge
    # to vertex 2 runs through (0.8, 0.2, 0), and the apex (0, 0, 1) is as far
    # from both Steiner points
    space = mesh_mod.MeshSpace(mesh_mod.TriMesh(*octahedron()), steiner=4)
    seg = space.geodesic(0, 9)
    path, cum = seg.nodes
    assert path == [0, 6, 9]
    assert np.allclose(space.graph.positions[path], [[1, 0, 0], [0.8, 0.2, 0], [0.2, 0.8, 0]])
    d = space.distances(4, path)
    assert d[1] == d[2] < d[0]
    foot = criteria.foot_of_perpendicular(space, 4, seg)
    assert (foot.t_star, foot.d_star) == (cum[1], d[1])


@pytest.mark.parametrize("seed", [3, 1000, 61004])
def test_foot_stream_accepts_what_the_searched_foot_accepts(seed):
    # on the benchmark's mesh, every try of the graph foot ends as the searched
    # foot's did, but for one whose nearest node is an end: the graph foot
    # rejects that as foot_on_boundary, where the search's golden section
    # stopped inside the margin and the try snapped onto the end
    space, n, radius = _benchmark_icosphere(), 20, 0.8
    rng, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    rejected = dict.fromkeys(criteria.REJECTIONS, 0)
    got = [(q, seg.start, seg.end, seg.at(foot.t_star), foot.d_star)
           for q, seg, foot in criteria.foot_configs(space, 0, radius, rng, n,
                                                     rejected=rejected)]
    rejected_ref: dict = {}
    want = []
    for _ in range(n):
        q, seg, foot = sample_foot_config(space, 0, radius, rng_ref, rejected=rejected_ref,
                                          search=searched_foot)
        want.append((q, seg.start, seg.end, seg.at(foot.t_star), foot.d_star))
    assert got == want
    assert sum(rejected.values()) == sum(rejected_ref.values())
    assert rejected["endpoint_snap"] == 0 < rejected_ref["endpoint_snap"]
    assert rng.random() == rng_ref.random()


def test_endpoint_snap_check_computes_the_foot_nodes_row_at_most_once():
    space = _benchmark_icosphere()
    computed = _counted_rows(space)
    min_height = criteria.MIN_HEIGHT_REL * 0.8
    twice = 0  # tries whose two one-end reads would compute the foot's row twice
    for q, seg, foot in criteria.foot_configs(space, 0, 0.8, np.random.default_rng(61000), 30):
        p = seg.at(foot.t_star)
        space._cache.clear()
        computed.clear()
        assert rounds._searched_try(space, q, seg, min_height)[0] is None
        assert computed.count(p) == 1
        space._cache.clear()
        computed.clear()
        min(space.distance(p, seg.start), space.distance(p, seg.end))
        twice += computed.count(p) == 2
    assert twice >= 1


@given(
    st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12),
    st.lists(st.floats(-1.0, 11.0), max_size=8),
)
@example([0.0, 1.0, 2.0, 3.0], [0.5, 1.5, 2.5, 7.0])  # exact ties: lower index
@example([0.0, 1e-17, 1e-16], [2.0])  # distances that round to the same float
@settings(max_examples=200, deadline=None)
def test_nearest_index_matches_argmin(cum, extra):
    cum = sorted(cum)
    arr = np.array(cum)
    ts = [*cum, *((arr[:-1] + arr[1:]) / 2).tolist(), *extra]
    for t in ts:
        assert mesh_mod.nearest_index(cum, t) == int(np.argmin(np.abs(arr - t))), t


def test_sample_ball_within_radius(octa_path, rng):
    space = mesh_mod.MeshSpace(mesh_mod.load_obj(octa_path), steiner=2)
    for _ in range(50):
        node = space.sample_ball(0, 1.2, rng)
        assert space.distance(0, node) <= 1.2


def test_disconnected_graph_rejected(tmp_path):
    p = tmp_path / "two.obj"
    p.write_text(
        "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
        "v 5 5 5\nv 6 5 5\nv 5 6 5\n"
        "f 1 2 3\nf 4 5 6\n"
    )
    with pytest.raises(DisconnectedGraphError):
        mesh_mod.MeshSpace(mesh_mod.load_obj(p), steiner=1)


def test_point_from_data_rejects_non_finite_node_ids(octa_path):
    space = mesh_mod.MeshSpace(mesh_mod.load_obj(octa_path))
    assert space.point_from_data(3.0) == 3
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="mesh point data must be finite"):
            space.point_from_data(bad)


def test_mesh_descriptor_round_trip(octa_path):
    desc = {"type": "mesh", "path": str(octa_path), "steiner": 2}
    space = space_from_descriptor(desc)
    assert space.steiner == 2
    assert space.descriptor()["path"] == str(octa_path)


def test_cli_import_leaves_mesh_unloaded_until_a_mesh_is_built(octa_path):
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    import cmpk

    # The child imports the same cmpk as this process, installed or not.
    src_root = str(Path(cmpk.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_root, os.environ.get("PYTHONPATH")) if p
    )
    code = (
        "import json, sys; import cmpk.cli; "
        "before = ['cmpk.mesh' in sys.modules, 'scipy.sparse' in sys.modules]; "
        "from cmpk.spaces import space_from_descriptor; "
        f"sp = space_from_descriptor({{'type': 'mesh', 'path': {str(octa_path)!r}}}); "
        "print(json.dumps([*before, type(sp).__name__, sp.graph.n_nodes]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    n_nodes = mesh_mod.MeshSpace(mesh_mod.load_obj(octa_path)).graph.n_nodes
    assert json.loads(proc.stdout) == [False, False, "MeshSpace", n_nodes]
