"""Mesh generators, Delaunay/normal predicates, and Triangle-format I/O."""

import hashlib
import math

import numpy as np
import pytest

from fracpos import mesh
from fracpos.errors import InvalidParameter, ParseError


def total_area(m):
    a = m.nodes[m.triangles[:, 0]]
    b = m.nodes[m.triangles[:, 1]]
    c = m.nodes[m.triangles[:, 2]]
    cross = (b[:, 0] - a[:, 0]) * (c[:, 1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (
        c[:, 0] - a[:, 0]
    )
    return float(np.sum(cross) / 2.0)


# uniform family: squares cut by parallel diagonals


def test_uniform_smallest():
    m = mesh.gen_uniform_square(2)
    assert m.n_nodes == 9
    assert m.n_triangles == 8
    assert m.interior_count == 1
    np.testing.assert_allclose(m.nodes[0], [0.5, 0.5])
    assert m.h0 == pytest.approx(0.5)


def test_uniform_m10_counts_and_size():
    m = mesh.gen_uniform_square(10)
    assert m.n_nodes == 121
    assert m.n_triangles == 200
    assert m.interior_count == 81
    assert m.h0 == pytest.approx(0.100)
    assert mesh.mesh_size(m) == pytest.approx(0.1 * math.sqrt(2.0))


@pytest.mark.parametrize("m_val", [2, 3, 7, 16, 40])
def test_uniform_is_delaunay(m_val):
    assert mesh.is_delaunay(mesh.gen_uniform_square(m_val))


def test_uniform_normality_needs_m4():
    # a strictly interior node (all neighbors interior) first exists at m=4
    assert not mesh.is_normal(mesh.gen_uniform_square(2))
    assert not mesh.is_normal(mesh.gen_uniform_square(3))
    assert mesh.is_normal(mesh.gen_uniform_square(4))
    assert mesh.is_normal(mesh.gen_uniform_square(10))


def test_uniform_area_and_validation():
    m = mesh.gen_uniform_square(6)
    mesh.validate_mesh(m)
    assert total_area(m) == pytest.approx(1.0, abs=1e-12)


def test_uniform_rejects_bad_m():
    with pytest.raises(InvalidParameter):
        mesh.gen_uniform_square(1)


# crossed family: rectangles with both diagonals drawn


def test_crossed_counts():
    m = mesh.gen_crossed_rectangles(5)
    # (2m+1)(m+1) grid nodes plus 2m*m crossing nodes, four triangles per cell
    assert m.n_nodes == 66 + 50
    assert m.n_triangles == 200
    assert m.interior_count == 36 + 50
    assert m.h0 == pytest.approx(0.100)
    assert mesh.mesh_size(m) == pytest.approx(0.200)


def test_crossed_vertical_interior_edges_not_delaunay():
    m = mesh.gen_crossed_rectangles(5)
    assert not mesh.is_delaunay(m)
    edges, angles, delaunay = mesh.delaunay_edges(m)
    bad = ~delaunay
    assert bad.any(), "expected non-Delaunay edges"
    # every failing edge is interior: it sees two angles
    assert not np.isnan(angles[bad]).any()
    for a, b in edges[bad]:
        pa, pb = m.nodes[a], m.nodes[b]
        # every failing edge is a vertical rectangle side (the long one)
        assert pa[0] == pytest.approx(pb[0])
        assert abs(pa[1] - pb[1]) == pytest.approx(2.0 * m.h0)
    # all (2m-1) interior grid lines fail along their m segments
    assert np.count_nonzero(bad) == 9 * 5


def test_crossed_normality_edge_case():
    assert not mesh.is_normal(mesh.gen_crossed_rectangles(2))
    assert mesh.is_normal(mesh.gen_crossed_rectangles(3))
    assert mesh.is_normal(mesh.gen_crossed_rectangles(5))


def test_crossed_area():
    m = mesh.gen_crossed_rectangles(4)
    mesh.validate_mesh(m)
    assert total_area(m) == pytest.approx(1.0, abs=1e-12)


# sliver family: uniform squares retriangulated with a flat interior vertex


def test_sliver_counts_and_delaunay_failure():
    m = mesh.gen_sliver_square(10)
    assert m.n_nodes == 124
    assert m.interior_count == 83
    assert not mesh.is_delaunay(m)
    assert mesh.is_normal(m)
    mesh.validate_mesh(m)
    assert total_area(m) == pytest.approx(1.0, abs=1e-12)


def test_sliver_extra_node_coordinates():
    m = mesh.gen_sliver_square(10)
    interior = m.nodes[: m.interior_count]
    bound = m.nodes[m.interior_count :]

    def present(pts, xy):
        return bool(np.any(np.all(np.abs(pts - xy) < 1e-12, axis=1)))

    # P splits the boundary edge; Q and R sit eps*h0 above its quarter points
    assert present(bound, (0.55, 0.0))
    assert present(interior, (0.525, 1e-4))
    assert present(interior, (0.575, 1e-4))


def test_sliver_failing_edges_hug_the_flat_triangle():
    m = mesh.gen_sliver_square(10)
    edges, angles, delaunay = mesh.delaunay_edges(m)
    bad = ~delaunay
    assert not np.isnan(angles[bad]).any()
    # the QR edge and the diagonal passing just above Q both fail; nothing
    # away from the subdivided cell does
    assert 1 <= np.count_nonzero(bad) <= 3
    for pair in edges[bad]:
        ends = m.nodes[pair]
        assert np.all(ends[:, 0] >= 0.5 - 1e-12)
        assert np.all(ends[:, 0] <= 0.6 + 1e-12)
        assert np.all(ends[:, 1] <= 0.1 + 1e-12)
    qr = [
        k
        for k in np.flatnonzero(bad)
        if np.allclose(sorted(m.nodes[edges[k], 0]), [0.525, 0.575])
        and np.allclose(m.nodes[edges[k], 1], 1e-4)
    ]
    assert len(qr) == 1
    # seen from the sliver apex the edge subtends almost a straight angle
    assert angles[qr[0]].max() > 3.1


def test_sliver_rejects_fat_eps_and_odd_m():
    with pytest.raises(InvalidParameter):
        mesh.gen_sliver_square(10, eps=0.3)
    with pytest.raises(InvalidParameter):
        mesh.gen_sliver_square(5)
    with pytest.raises(InvalidParameter):
        mesh.gen_sliver_square(2)


# equilateral rhombus


def test_equilateral_all_angles_sixty_degrees():
    m = mesh.gen_equilateral_rhombus(4)
    for tri in m.triangles:
        pts = m.nodes[tri]
        for k in range(3):
            va = pts[(k + 1) % 3] - pts[k]
            vb = pts[(k + 2) % 3] - pts[k]
            ang = math.atan2(
                abs(va[0] * vb[1] - va[1] * vb[0]), float(va @ vb)
            )
            assert ang == pytest.approx(math.pi / 3.0, abs=1e-12)
    assert mesh.is_delaunay(m)
    assert m.interior_count == 9


# predicates on tiny hand-made meshes


def test_single_triangle_all_boundary_and_delaunay():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2]])
    m = mesh.TriMesh(nodes=nodes, triangles=tris, boundary=np.ones(3, dtype=bool))
    edges, angles, delaunay = mesh.delaunay_edges(m)
    np.testing.assert_array_equal(edges, [[0, 1], [0, 2], [1, 2]])
    # each edge is on the boundary: one angle, nan beside it
    assert np.isnan(angles[:, 1]).all()
    np.testing.assert_allclose(angles[:, 0], [math.pi / 4, math.pi / 4, math.pi / 2])
    assert delaunay.all()
    assert m.interior_count == 0
    assert mesh.is_delaunay(m)


def test_edge_shared_by_three_triangles_is_rejected():
    # three triangles on the edge (0, 1): one above, one below, one overlapping
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0], [0.5, -1.0], [0.5, 2.0]])
    tris = np.array([[0, 1, 2], [1, 0, 3], [0, 1, 4]])
    m = mesh.TriMesh(nodes=nodes, triangles=tris, boundary=np.ones(5, dtype=bool))
    with pytest.raises(InvalidParameter, match="shared by"):
        mesh.validate_mesh(m)
    with pytest.raises(InvalidParameter, match="shared by"):
        mesh.delaunay_edges(m)


def test_delaunay_tie_counts_as_delaunay():
    # two right triangles in a square: opposite angles sum to exactly pi
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])
    m = mesh.TriMesh(nodes=nodes, triangles=tris, boundary=np.ones(4, dtype=bool))
    assert mesh.is_delaunay(m)


# edge table


@pytest.mark.parametrize("name", sorted(mesh.FAMILIES) + mesh.bundled_mesh_names())
def test_edge_table_obeys_euler(name):
    m = mesh.FAMILIES[name](6) if name in mesh.FAMILIES else mesh.bundled_mesh(name)
    edges, of_half = mesh.edge_table(m.triangles)
    # V - E + F = 1 on a simply connected domain
    assert edges.shape[0] == m.n_nodes + m.n_triangles - 1
    assert np.all(edges[:, 0] < edges[:, 1])
    # one boundary edge per boundary node, since the boundary is one cycle
    counts = np.bincount(of_half.ravel())
    assert counts.max() == 2
    assert np.count_nonzero(counts == 1) == np.count_nonzero(m.boundary)
    # half-edge (t, k) joins the two vertices of triangle t other than k
    sides = edges[of_half]
    tri = m.triangles[:, None, :]
    assert np.all((sides[..., :1] == tri).any(-1) & (sides[..., 1:] == tri).any(-1))
    assert not np.any(sides == m.triangles[:, :, None])


EDGE_TABLE_MESHES = [
    (family, m) for family in ("uniform", "crossed", "equilateral") for m in (2, 5, 20, 40)
] + [("sliver", 10)] + [(name, None) for name in mesh.bundled_mesh_names()]


@pytest.mark.parametrize(
    "name, m", EDGE_TABLE_MESHES, ids=["%s%s" % (n, m or "") for n, m in EDGE_TABLE_MESHES]
)
def test_edge_table_matches_row_unique(name, m):
    # the reference: unique rows of the sorted node pairs
    tri = (mesh.FAMILIES[name](m) if m else mesh.bundled_mesh(name)).triangles
    sides = np.sort(np.stack([tri[:, [1, 2, 0]], tri[:, [2, 0, 1]]], axis=2), axis=2)
    want_edges, want_of_half = np.unique(sides.reshape(-1, 2), axis=0, return_inverse=True)
    want_of_half = want_of_half.reshape(tri.shape)
    edges, of_half = mesh.edge_table(tri)
    for got, want in ((edges, want_edges), (of_half, want_of_half)):
        assert got.dtype == want.dtype and got.shape == want.shape
        np.testing.assert_array_equal(got, want)


DELAUNAY_MESHES = [
    pytest.param(lambda f=family, m=m: mesh.FAMILIES[f](m), id="%s%d" % (family, m))
    for family in ("uniform", "crossed", "equilateral") for m in (2, 5, 20)
] + [
    pytest.param(lambda: mesh.gen_sliver_square(10), id="sliver10"),
    pytest.param(lambda: mesh.gen_sliver_square(4, eps=0.2), id="sliver4-eps0.2"),
] + [
    pytest.param(lambda n=name: mesh.bundled_mesh(n), id=name)
    for name in mesh.bundled_mesh_names()
]


@pytest.mark.parametrize("make", DELAUNAY_MESHES)
def test_delaunay_edges_match_a_per_edge_loop(make):
    # the reference: each triangle's angles collected edge by edge
    m = make()
    opposite = {}
    for tri in m.triangles.tolist():
        pts = m.nodes[tri].tolist()
        for k in range(3):
            (x0, y0), (x1, y1), (x2, y2) = pts[k], pts[(k + 1) % 3], pts[(k + 2) % 3]
            va, vb = (x1 - x0, y1 - y0), (x2 - x0, y2 - y0)
            ang = math.atan2(abs(va[0] * vb[1] - va[1] * vb[0]), va[0] * vb[0] + va[1] * vb[1])
            a, b = sorted((tri[(k + 1) % 3], tri[(k + 2) % 3]))
            opposite.setdefault((a, b), []).append(ang)
    pairs = sorted(opposite)
    want_angles = np.array([opposite[p] + [math.nan] * (2 - len(opposite[p])) for p in pairs])
    want_delaunay = [sum(opposite[p]) <= math.pi + 1e-12 for p in pairs]
    edges, angles, delaunay = mesh.delaunay_edges(m)
    np.testing.assert_array_equal(edges, pairs)
    np.testing.assert_allclose(angles, want_angles, rtol=1e-15, atol=0, equal_nan=True)
    np.testing.assert_array_equal(delaunay, want_delaunay)
    assert mesh.is_delaunay(m) == all(want_delaunay)


# node and triangle order: assembly sums in that order, so it fixes the
# matrix bits


@pytest.mark.parametrize("make, digest", [
    pytest.param(lambda: mesh.gen_uniform_square(10), "22e946d3d17dc996", id="uniform"),
    pytest.param(lambda: mesh.gen_crossed_rectangles(5), "dbc0e9b343f3a403", id="crossed"),
    pytest.param(lambda: mesh.gen_sliver_square(10), "9ac6b02585a000cd", id="sliver"),
    pytest.param(
        lambda: mesh.gen_sliver_square(10, eps=1e-9), "cfe9ecf78834f258", id="sliver-1e-9"
    ),
    pytest.param(
        lambda: mesh.gen_equilateral_rhombus(6), "74bea3397a945fb0", id="equilateral"
    ),
])
def test_generated_meshes_are_pinned(make, digest):
    m = make()
    data = m.nodes.tobytes() + m.triangles.astype("<i8").tobytes() + m.boundary.tobytes()
    assert hashlib.sha256(data).hexdigest()[:16] == digest


# Triangle-format I/O


def test_save_load_roundtrip(tmp_path):
    m = mesh.gen_sliver_square(4)
    node, ele = tmp_path / "t.node", tmp_path / "t.ele"
    mesh.save_triangle_format(m, node, ele)
    back = mesh.load_triangle_format(node, ele)
    np.testing.assert_allclose(back.nodes, m.nodes, atol=1e-12)
    np.testing.assert_array_equal(back.triangles, m.triangles)
    np.testing.assert_array_equal(back.boundary, m.boundary)


def test_load_reorders_interior_first(tmp_path):
    # 4 nodes, 2 triangles, boundary markers: every node on the hull
    (tmp_path / "q.node").write_text(
        "4 2 0 1\n1 0.0 0.0 1\n2 1.0 0.0 1\n3 1.0 1.0 1\n4 0.0 1.0 1\n"
    )
    (tmp_path / "q.ele").write_text("2 3 0\n1 1 2 3\n2 1 3 4\n")
    m = mesh.load_triangle_format(tmp_path / "q.node", tmp_path / "q.ele")
    assert m.n_nodes == 4
    assert m.interior_count == 0
    assert m.n_triangles == 2


# the unit square cut into four triangles at its center (0-based ids)
SQUARE_NODES = "0 0 0\n1 1 0\n2 1 1\n3 0 1\n4 0.5 0.5\n"
SQUARE_CCW = "0 0 1 4\n1 1 2 4\n2 2 3 4\n3 3 0 4\n"


def _load(tmp_path, name, node, ele):
    (tmp_path / (name + ".node")).write_text(node)
    (tmp_path / (name + ".ele")).write_text(ele)
    return mesh.load_triangle_format(tmp_path / (name + ".node"), tmp_path / (name + ".ele"))


def test_load_without_markers_takes_the_boundary_from_the_edges(tmp_path):
    marked = "".join(
        line + (" 0\n" if line.startswith("4") else " 1\n")
        for line in SQUARE_NODES.splitlines()
    )
    want = _load(tmp_path, "marked", "5 2 0 1\n" + marked, "4 3 0\n" + SQUARE_CCW)
    m = _load(tmp_path, "bare", "5 2 0 0\n" + SQUARE_NODES, "4 3 0\n" + SQUARE_CCW)
    assert m.interior_count == 1
    np.testing.assert_array_equal(m.nodes[0], [0.5, 0.5])
    np.testing.assert_array_equal(m.boundary, [False, True, True, True, True])
    np.testing.assert_array_equal(m.nodes, want.nodes)
    np.testing.assert_array_equal(m.triangles, want.triangles)


def test_load_flips_clockwise_triangles(tmp_path):
    want = _load(tmp_path, "ccw", "5 2 0 0\n" + SQUARE_NODES, "4 3 0\n" + SQUARE_CCW)
    # the same triangles listed clockwise, each with one attribute
    clockwise = "".join(
        "%s %s %s %s 7\n" % (t, a, c, b)
        for t, a, b, c in (line.split() for line in SQUARE_CCW.splitlines())
    )
    m = _load(tmp_path, "cw", "5 2 0 0\n" + SQUARE_NODES, "4 3 1\n" + clockwise)
    assert np.all(mesh.triangle_areas(m.nodes, m.triangles) > 0.0)
    np.testing.assert_array_equal(m.triangles, want.triangles)
    np.testing.assert_array_equal(m.nodes, want.nodes)


def test_load_rejects_triangles_on_one_side_of_an_edge(tmp_path):
    # both triangles lie above the edge (0, 1), so they overlap next to it
    node = "4 2 0 0\n0 0 0\n1 1 0\n2 0 1\n3 0.8 0.8\n"
    with pytest.raises(InvalidParameter, match="overlap along edge"):
        _load(tmp_path, "fold", node, "2 3 0\n0 0 1 2\n1 0 1 3\n")


def test_load_rejects_out_of_range_index(tmp_path):
    (tmp_path / "b.node").write_text(
        "3 2 0 1\n1 0.0 0.0 1\n2 1.0 0.0 1\n3 0.0 1.0 1\n"
    )
    (tmp_path / "b.ele").write_text("1 3 0\n1 1 2 999\n")
    with pytest.raises(ParseError):
        mesh.load_triangle_format(tmp_path / "b.node", tmp_path / "b.ele")


def test_load_rejects_degenerate_triangle(tmp_path):
    (tmp_path / "d.node").write_text(
        "3 2 0 1\n1 0.0 0.0 1\n2 1.0 0.0 1\n3 2.0 0.0 1\n"
    )
    (tmp_path / "d.ele").write_text("1 3 0\n1 1 2 3\n")
    with pytest.raises(InvalidParameter, match="degenerate"):
        mesh.load_triangle_format(tmp_path / "d.node", tmp_path / "d.ele")


def _rows(path, kind, fields, supported):
    return mesh._read_table(path, kind, fields, supported, "rows")


def _write(tmp_path, name, text):
    (tmp_path / name).write_text(text)
    return tmp_path / name


@pytest.mark.parametrize("name", mesh.bundled_mesh_names() + ["sliver0", "cw-attributes"])
def test_array_parse_matches_the_line_loop(tmp_path, name):
    if name in mesh.bundled_mesh_names():
        node, ele = mesh._MESH_DIR / (name + ".node"), mesh._MESH_DIR / (name + ".ele")
    elif name == "sliver0":  # 0-based, no markers, nodes listed in reverse
        m = mesh.gen_sliver_square(4)
        node, ele = tmp_path / "s.node", tmp_path / "s.ele"
        node.write_text("%d 2 0 0\n" % m.n_nodes + "".join(
            "%d %.17g %.17g\n" % (i, *m.nodes[i]) for i in range(m.n_nodes)[::-1]))
        ele.write_text("%d 3 0\n" % m.n_triangles + "".join(
            "%d %d %d %d\n" % (i, *t) for i, t in enumerate(m.triangles)))
    else:
        node, ele = tmp_path / "cw.node", tmp_path / "cw.ele"
        node.write_text("5 2 1 0\n" + "".join(
            line + " 0.25\n" for line in SQUARE_NODES.splitlines()))
        ele.write_text("4 3 1\n" + "".join(
            "%s %s %s %s 7\n" % (t, a, c, b)
            for t, a, b, c in (line.split() for line in SQUARE_CCW.splitlines())))
    (count, _, nattr, nmark), rows = _rows(node, "node", 4, (2, ""))
    want = 3 + nattr + (1 if nmark else 0)
    fast = mesh._nodes_from_arrays(rows, want, nmark, count)
    slow = mesh._nodes_by_line(node, rows, want, nmark, count)
    assert fast is not None
    np.testing.assert_array_equal(fast[0], slow[0])
    np.testing.assert_array_equal(fast[1], slow[1])
    assert fast[2] == slow[2]
    (tcount, _, _), rows = _rows(ele, "ele", 3, (3, ""))
    tris = mesh._triangles_from_arrays(rows, fast[2], count)
    assert tris is not None and tris.dtype == np.int64
    np.testing.assert_array_equal(tris, mesh._triangles_by_line(ele, rows, fast[2], count, tcount))


# SQUARE_NODES with markers: the center is the one interior node
SQUARE_MARKED = "5 2 0 1\n" + "".join(
    line + (" 0\n" if line.startswith("4") else " 1\n") for line in SQUARE_NODES.splitlines()
)


@pytest.mark.parametrize("node, ele, message", [
    (SQUARE_MARKED.replace("2 1 1 1", "2 1 1"), None, ":4: expected 4 fields, got 3"),
    (SQUARE_MARKED.replace("2 1 1 1", "2 1 x 1"), None, ":4: bad coordinate"),
    (SQUARE_MARKED.replace("2 1 1 1", "2.0 1 1 1"), None, ":4: expected integers"),
    (SQUARE_MARKED.replace("3 0 1 1", "3 0 1 m"), None, ":5: expected integers"),
    (SQUARE_MARKED.replace("3 0 1 1", "2 0 1 1"), None, "node indices must cover 0..4"),
    (SQUARE_MARKED.replace("0 0 0 1", "5 0 0 1").replace("1 1 0 1", "6 1 0 1"), None,
     "node indices must start at 0 or 1"),
    (None, SQUARE_CCW.replace("2 2 3 4", "2 2 3"), ":4: expected 4 fields"),
    (None, "0 1 4\n1 2 4\n2 3 4\n3 0 4\n", ":2: expected 4 fields"),
    (None, SQUARE_CCW.replace("2 2 3 4", "2 2 3 9"), ":4: node index out of range"),
    (None, SQUARE_CCW.replace("1 1 2 4", "1 1 2 -1"), ":3: node index out of range"),
    (None, SQUARE_CCW.replace("3 3 0 4", "x 3 0 4"), ":5: expected integers"),
    (None, SQUARE_CCW.replace("3 3 0 4", "3 3 0 99999999999999999999"), ":5: node index"),
], ids=["node-fields", "coordinate", "node-id", "marker", "cover", "base",
        "ele-fields", "ele-all-three-fields", "index", "negative", "element-id", "huge-index"])
def test_array_parse_leaves_offending_lines_to_the_line_loop(tmp_path, node, ele, message):
    # every file the arrays do not accept is read again line by line, which
    # names the first offending line as before
    with pytest.raises(ParseError, match=message):
        _load(tmp_path, "bad", node or SQUARE_MARKED, "4 3 0\n" + (ele or SQUARE_CCW))


def test_line_loop_reads_what_the_arrays_cannot(tmp_path):
    # rows of different widths and a marker past int64 are valid: the
    # arrays leave them to the line loop, which reads the same mesh
    want = _load(tmp_path, "plain", SQUARE_MARKED, "4 3 0\n" + SQUARE_CCW)
    node = SQUARE_MARKED.replace("1 1 0 1", "1 1 0 99999999999999999999")
    ele = "4 3 0\n" + SQUARE_CCW.replace("1 1 2 4", "1 1 2 4 7")
    (count, _, _, nmark), rows = _rows(_write(tmp_path, "big.node", node), "node", 4, (2, ""))
    assert mesh._nodes_from_arrays(rows, 4, nmark, count) is None
    _, rows = _rows(_write(tmp_path, "wide.ele", ele), "ele", 3, (3, ""))
    assert mesh._triangles_from_arrays(rows, 0, count) is None
    m = _load(tmp_path, "mixed", node, ele)
    for got, expected in ((m.nodes, want.nodes), (m.triangles, want.triangles),
                          (m.boundary, want.boundary)):
        np.testing.assert_array_equal(got, expected)


def test_load_missing_file_is_parse_error(tmp_path):
    with pytest.raises(ParseError):
        mesh.load_triangle_format(tmp_path / "no.node", tmp_path / "no.ele")


# bundled meshes


def test_bundled_names_cover_both_domains():
    names = mesh.bundled_mesh_names()
    assert "lshape_coarse" in names and "disk_fine" in names
    assert len(names) == 6


@pytest.mark.parametrize("name", ["lshape_coarse", "disk_coarse"])
def test_bundled_meshes_are_valid_delaunay(name):
    m = mesh.bundled_mesh(name)
    mesh.validate_mesh(m)
    assert mesh.is_delaunay(m)
    assert mesh.is_normal(m)


def test_bundled_lshape_area():
    m = mesh.bundled_mesh("lshape_coarse")
    assert total_area(m) == pytest.approx(0.75, abs=1e-10)


def test_bundled_unknown_name():
    with pytest.raises(InvalidParameter):
        mesh.bundled_mesh("moebius")
