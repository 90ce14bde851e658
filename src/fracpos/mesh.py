"""Planar triangulations: generators, file import/export, edge predicates.

Node ordering convention: interior nodes come first (indices 0..N-1), then
boundary nodes.  All assembly code relies on this, so every construction
path funnels through the same finalizer which reorders nodes, orients
triangles counterclockwise, derives boundary flags from the edge topology
when no markers are given, and returns only meshes that pass validate_mesh.
The edge predicates are array operations over one edge table per mesh
(TriMesh._edges, built on first read); delaunay_edges gives each edge's
opposite angles and verdict as arrays.

Mesh families built here:

  uniform      unit square, right triangles with parallel diagonals
  crossed      unit square cut into 1x2 rectangles, both diagonals drawn,
               crossing node added at each rectangle center; every interior
               vertical edge violates the Delaunay angle condition
  sliver       uniform square where one boundary triangle is subdivided by
               three extra nodes into six triangles, two of them slivers of
               height eps*h0 hugging the boundary edge
  equilateral  rhombus tiled by equilateral triangles
"""

import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import InvalidParameter, ParseError

__all__ = [
    "TriMesh",
    "gen_uniform_square",
    "gen_crossed_rectangles",
    "gen_sliver_square",
    "gen_equilateral_rhombus",
    "FAMILIES",
    "load_triangle_format",
    "save_triangle_format",
    "bundled_mesh",
    "bundled_mesh_names",
    "triangle_areas",
    "edge_table",
    "delaunay_edges",
    "is_delaunay",
    "is_normal",
    "normal_witness",
    "mesh_size",
    "validate_mesh",
]

_AREA_TOL = 1e-14
# |x|, |y| <= _COORD_MAX keeps areas, squared edge lengths and the
# stiffness entries of triangles of area >= _AREA_TOL finite
_COORD_MAX = 1e100
_ANGLE_SUM_TOL = 1e-12


@dataclass(eq=False)
class TriMesh:
    """Triangulation with interior-first node ordering.

    nodes: (n, 2) float array.  triangles: (m, 3) int array, counterclockwise.
    boundary: (n,) bool flags.  family/h0 carry provenance for generated
    meshes and stay empty/None for imported ones.
    """

    nodes: np.ndarray
    triangles: np.ndarray
    boundary: np.ndarray
    family: str = ""
    h0: float = None

    @property
    def n_nodes(self):
        return self.nodes.shape[0]

    @property
    def n_triangles(self):
        return self.triangles.shape[0]

    @property
    def interior_count(self):
        return int(np.count_nonzero(~self.boundary))

    @cached_property
    def _edges(self):
        """_edge_counts of the triangles, built once: validate_mesh and
        every edge predicate read this one table."""
        return _edge_counts(self.triangles)


def triangle_areas(nodes, triangles):
    """Signed area of each triangle, positive when counterclockwise."""
    p = nodes[triangles]
    d1 = p[:, 1] - p[:, 0]
    d2 = p[:, 2] - p[:, 0]
    return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def edge_table(triangles):
    """Unique edges of a triangulation and the edge of each half-edge.

    Half-edge (t, k) is the side of triangle t opposite its local vertex
    k.  Returns (edges, of_half): edges is an (E, 2) array of node pairs
    a < b in lexicographic order, and of_half[t, k] is the row of edges
    that half-edge (t, k) lies on.
    """
    tri = np.asarray(triangles, dtype=np.int64)
    sides = np.sort(np.stack([tri[:, [1, 2, 0]], tri[:, [2, 0, 1]]], axis=2), axis=2)
    # a * n + b sorts as the pair (a, b) does, so one 1-d unique gives the row order
    n = int(tri.max(initial=0)) + 1
    codes, of_half = np.unique(sides[..., 0] * n + sides[..., 1], return_inverse=True)
    return np.stack(np.divmod(codes, n), axis=1), of_half.reshape(tri.shape)


def _finalize(nodes, triangles, boundary=None, family="", h0=None):
    nodes = np.asarray(nodes, dtype=float)
    triangles = np.asarray(triangles, dtype=np.int64)
    # before any area is formed; validate_mesh below checks everything else
    _check_coordinates(nodes)
    flip = triangle_areas(nodes, triangles) < 0.0
    if np.any(flip):
        triangles = triangles.copy()
        triangles[flip, 1], triangles[flip, 2] = (
            triangles[flip, 2].copy(),
            triangles[flip, 1].copy(),
        )
    if boundary is None:
        edges, of_half = edge_table(triangles)
        boundary = np.zeros(nodes.shape[0], dtype=bool)
        boundary[edges[np.bincount(of_half.ravel()) == 1]] = True
    else:
        boundary = np.asarray(boundary, dtype=bool)
    # reorder interior nodes first, preserving creation order within groups
    order = np.concatenate([np.nonzero(~boundary)[0], np.nonzero(boundary)[0]])
    rank = np.empty_like(order)
    rank[order] = np.arange(order.shape[0])
    mesh = TriMesh(
        nodes=nodes[order],
        triangles=rank[triangles],
        boundary=boundary[order],
        family=family,
        h0=h0,
    )
    validate_mesh(mesh)
    return mesh


# ---------------------------------------------------------------------------
# generators


def _lattice(nx, ny):
    """Index lattice of (nx + 1) x (ny + 1) nodes, row by row from the bottom.

    Returns the grid indices i and j of every node and the corners
    (bl, br, tr, tl) of the nx * ny cells in the same row-major order.
    """
    j, i = np.divmod(np.arange((nx + 1) * (ny + 1)), nx + 1)
    cell_j, cell_i = np.divmod(np.arange(nx * ny), nx)
    bl = cell_j * (nx + 1) + cell_i
    tl = bl + nx + 1
    return i, j, (bl, bl + 1, tl + 1, tl)


def _triangles(*corners):
    """Triangles cell by cell, one per corner triple in the given order."""
    return np.stack([np.stack(t, axis=1) for t in corners], axis=1).reshape(-1, 3)


def _unit_square(m):
    """Nodes and triangles of the uniform mesh, h0 = 1/m."""
    h0 = 1.0 / m
    i, j, (a, b, c, d) = _lattice(m, m)
    return np.column_stack([i * h0, j * h0]), _triangles((a, b, c), (a, c, d))


def gen_uniform_square(m):
    """Uniform right-triangle mesh of the unit square, h0 = 1/m.

    Each cell is split along the diagonal of positive slope, so diagonal
    grid neighbors share two triangles but no stiffness coupling.
    """
    if m < 2:
        raise InvalidParameter("need m >= 2, got %r" % (m,))
    nodes, tris = _unit_square(m)
    return _finalize(nodes, tris, family="uniform(M=%d)" % m, h0=1.0 / m)


def gen_crossed_rectangles(m):
    """Unit square cut into 2m x m rectangles of size h0 x 2h0, h0 = 1/(2m).

    Both diagonals of every rectangle are drawn; keeping the triangulation
    simplicial forces a crossing node at each rectangle center, giving four
    triangles per rectangle.  The longest edges are the vertical rectangle
    sides (length 2h0), and each interior one is shared by two triangles
    whose opposite angles sum to about 253 degrees: not Delaunay.
    """
    if m < 2:
        raise InvalidParameter("need m >= 2, got %r" % (m,))
    h0 = 0.5 / m
    i, j, (bl, br, tr, tl) = _lattice(2 * m, m)
    # the centers follow the lattice nodes in cell order
    centers = i.size + np.arange(bl.size)
    nodes = np.concatenate([
        np.column_stack([i * h0, j * 2.0 * h0]),
        np.column_stack([i[bl] * h0 + 0.5 * h0, j[bl] * 2.0 * h0 + h0]),
    ])
    tris = _triangles(
        (bl, br, centers), (br, tr, centers), (tr, tl, centers), (tl, bl, centers)
    )
    return _finalize(nodes, tris, family="crossed(M=%d)" % m, h0=h0)


def gen_sliver_square(m, eps=1e-3):
    """Uniform mesh with one boundary triangle subdivided into slivers.

    The lower boundary triangle with vertices A=(1/2, 0), B=(1/2+h0, 0),
    C=(1/2+h0, h0) gains three nodes: P at the midpoint of AB on the
    boundary, and Q, R at heights eps*h0 above the quarter points of AB.
    It is replaced by the six triangles APQ, PRQ, PBR, BCR, QRC, AQC;
    eps < 1/4 keeps AQC oriented.  The edge QR fails the Delaunay test by
    nearly the full possible margin.
    """
    if m < 4 or m % 2:
        raise InvalidParameter("need even m >= 4, got %r" % (m,))
    if not 0.0 < eps < 0.25:
        raise InvalidParameter("eps must lie in (0, 1/4), got %r" % (eps,))
    h0 = 1.0 / m
    nodes, tris = _unit_square(m)
    # ABC is the lower triangle of cell (m/2, 0), row m of the uniform mesh
    a, b, c = tris[m]
    p, q, r = range(nodes.shape[0], nodes.shape[0] + 3)
    nodes = np.concatenate([
        nodes,
        [(0.5 + 0.5 * h0, 0.0), (0.5 + 0.25 * h0, eps * h0), (0.5 + 0.75 * h0, eps * h0)],
    ])
    tris = np.concatenate([
        np.delete(tris, m, axis=0),
        [(a, p, q), (p, r, q), (p, b, r), (b, c, r), (q, r, c), (a, q, c)],
    ])
    return _finalize(nodes, tris, family="sliver(M=%d,eps=%g)" % (m, eps), h0=h0)


def gen_equilateral_rhombus(m):
    """Rhombus spanned by (1,0) and (1/2, sqrt(3)/2), equilateral triangles."""
    if m < 2:
        raise InvalidParameter("need m >= 2, got %r" % (m,))
    h0 = 1.0 / m
    i, j, (a, b, c, d) = _lattice(m, m)
    nodes = np.column_stack([(i + 0.5 * j) * h0, 0.5 * math.sqrt(3.0) * j * h0])
    tris = _triangles((a, b, d), (b, c, d))
    return _finalize(nodes, tris, family="equilateral(M=%d)" % m, h0=h0)


# generated families by name; each takes the level m (sliver also eps=)
FAMILIES = {
    "uniform": gen_uniform_square,
    "crossed": gen_crossed_rectangles,
    "sliver": gen_sliver_square,
    "equilateral": gen_equilateral_rhombus,
}


# ---------------------------------------------------------------------------
# Triangle-format files (.node / .ele)


def _read_table(path, kind, fields, supported, noun):
    """Header integers and data rows of a Triangle-format file.

    Drops # comments and blank lines and checks the header: `fields`
    integers, the second equal to supported = (value, what it allows)
    (the dimension, the nodes per triangle), the first the number of rows
    (noun, at least 1) that follow.  Returns the header and each row's
    (line number, text).
    """
    lines = []
    try:
        fh = open(path)
    except OSError as exc:
        raise ParseError("cannot open %s: %s" % (path, exc.strerror)) from exc
    with fh:
        try:
            for lineno, raw in enumerate(fh, start=1):
                stripped = raw.split("#", 1)[0].strip()
                if stripped:
                    lines.append((lineno, stripped))
        except UnicodeDecodeError as exc:
            raise ParseError("%s: not a text file (%s)" % (path, exc.reason)) from exc
    if not lines:
        raise ParseError("%s: empty file" % path)
    lineno, header = lines[0]
    head = header.split()
    if len(head) != fields:
        raise ParseError("%s:%d: %s header needs %d fields" % (path, lineno, kind, fields))
    head = _ints(head, path, lineno)
    if head[1] != supported[0]:
        raise ParseError("%s:%d: only %s supported" % (path, lineno, supported[1]))
    if head[0] < 1:
        raise ParseError(
            "%s:%d: header says %d %s, need at least 1" % (path, lineno, head[0], noun)
        )
    if len(lines) - 1 != head[0]:
        raise ParseError(
            "%s: header says %d %s, found %d" % (path, head[0], noun, len(lines) - 1)
        )
    return head, lines[1:]


def _ints(tokens, path, lineno):
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise ParseError("%s:%d: expected integers" % (path, lineno)) from exc


def load_triangle_format(node_path, ele_path):
    """Read a .node/.ele pair; node indices may be 0- or 1-based.

    Each file's rows are parsed as arrays first (_nodes_from_arrays,
    _triangles_from_arrays); a file they do not accept is read again line
    by line, which raises the error of its first offending line.
    """
    (count, _, nattr, nmark), rows = _read_table(
        node_path, "node", 4, (2, "2-d meshes"), "nodes"
    )
    want = 3 + nattr + (1 if nmark else 0)
    parsed = _nodes_from_arrays(rows, want, nmark, count)
    if parsed is None:
        parsed = _nodes_by_line(node_path, rows, want, nmark, count)
    nodes, boundary, base = parsed

    (tcount, _, _), rows = _read_table(
        ele_path, "ele", 3, (3, "3-node triangles"), "triangles"
    )
    tris = _triangles_from_arrays(rows, base, count)
    if tris is None:
        tris = _triangles_by_line(ele_path, rows, base, count, tcount)
    return _finalize(nodes, tris, boundary)


def _fields(rows):
    """(fields, width): every row's fields in one flat list and the number
    per row, or None when the rows differ in it."""
    lines = [line for _, line in rows]
    # no per-row lists are kept: a million live ones keep the collector busy
    widths = set(map(len, map(str.split, lines)))
    if len(widths) != 1:
        return None
    return " ".join(lines).split(), widths.pop()


def _column(fields, width, k, convert):
    """Field k of every row of width fields, read by convert (int or float,
    as the line loop reads it) into int64 or float64; raises ValueError or
    OverflowError where a field does not convert or fit."""
    dtype = np.int64 if convert is int else float
    return np.fromiter(map(convert, fields[k::width]), dtype=dtype)


def _nodes_from_arrays(rows, want, nmark, count):
    """(nodes, boundary, base) from the node rows, or None where the line
    loop must read them."""
    parsed = _fields(rows)
    if parsed is None or parsed[1] != want:
        return None
    fields = parsed[0]
    try:
        raw_ids = _column(fields, want, 0, int)
        coords = np.column_stack([_column(fields, want, k, float) for k in (1, 2)])
        markers = _column(fields, want, want - 1, int) if nmark else None
    except (ValueError, OverflowError):
        return None
    base = int(raw_ids.min())
    if base not in (0, 1):
        return None
    ids = raw_ids - base
    if not np.array_equal(np.sort(ids), np.arange(count)):
        return None
    nodes = np.empty((count, 2))
    nodes[ids] = coords
    boundary = None
    if nmark:
        boundary = np.zeros(count, dtype=bool)
        boundary[ids] = markers != 0
    return nodes, boundary, base


def _nodes_by_line(node_path, rows, want, nmark, count):
    """(nodes, boundary, base) from the node rows, one line at a time."""
    raw_ids = []
    coords = []
    markers = []
    for lineno, line in rows:
        toks = line.split()
        if len(toks) != want:
            raise ParseError(
                "%s:%d: expected %d fields, got %d" % (node_path, lineno, want, len(toks))
            )
        raw_ids.append(_ints(toks[:1], node_path, lineno)[0])
        try:
            coords.append((float(toks[1]), float(toks[2])))
        except ValueError as exc:
            raise ParseError("%s:%d: bad coordinate" % (node_path, lineno)) from exc
        if nmark:
            markers.append(_ints(toks[-1:], node_path, lineno)[0])
    base = min(raw_ids)
    if base not in (0, 1):
        raise ParseError("%s: node indices must start at 0 or 1" % node_path)
    ids = [r - base for r in raw_ids]
    if sorted(ids) != list(range(count)):
        raise ParseError("%s: node indices must cover 0..%d" % (node_path, count - 1))
    nodes = np.empty((count, 2))
    boundary = np.zeros(count, dtype=bool) if nmark else None
    for pos, nid in enumerate(ids):
        nodes[nid] = coords[pos]
        if nmark:
            boundary[nid] = markers[pos] != 0
    return nodes, boundary, base


def _triangles_from_arrays(rows, base, count):
    """The triangles' 0-based node indices from the element rows, or None
    where the line loop must read them."""
    parsed = _fields(rows)
    if parsed is None or parsed[1] < 4:
        return None
    fields, width = parsed
    try:
        # the line loop reads the element number as an integer too
        cols = [_column(fields, width, k, int) for k in range(4)]
    except (ValueError, OverflowError):
        return None
    tris = np.column_stack(cols[1:]) - base
    if not np.all((tris >= 0) & (tris < count)):
        return None
    return tris


def _triangles_by_line(ele_path, rows, base, count, tcount):
    """The triangles' 0-based node indices, one element row at a time."""
    tris = np.empty((tcount, 3), dtype=np.int64)
    for row, (lineno, line) in enumerate(rows):
        toks = line.split()
        if len(toks) < 4:
            raise ParseError("%s:%d: expected 4 fields" % (ele_path, lineno))
        vals = _ints(toks[:4], ele_path, lineno)
        for k in range(3):
            v = vals[1 + k] - base
            if not 0 <= v < count:
                raise ParseError("%s:%d: node index out of range" % (ele_path, lineno))
            tris[row, k] = v
    return tris


def save_triangle_format(mesh, node_path, ele_path):
    """Write a 1-based .node/.ele pair with boundary markers."""
    with open(node_path, "w") as fh:
        fh.write("%d 2 0 1\n" % mesh.n_nodes)
        for i, (x, y) in enumerate(mesh.nodes, start=1):
            fh.write("%d %.17g %.17g %d\n" % (i, x, y, int(mesh.boundary[i - 1])))
    with open(ele_path, "w") as fh:
        fh.write("%d 3 0\n" % mesh.n_triangles)
        for i, tri in enumerate(mesh.triangles, start=1):
            fh.write("%d %d %d %d\n" % (i, tri[0] + 1, tri[1] + 1, tri[2] + 1))


_MESH_DIR = Path(__file__).parent / "meshes"


def bundled_mesh_names():
    return sorted(p.stem for p in _MESH_DIR.glob("*.node"))


def bundled_mesh(name):
    node = _MESH_DIR / (name + ".node")
    ele = _MESH_DIR / (name + ".ele")
    if not node.exists() or not ele.exists():
        raise InvalidParameter(
            "no bundled mesh %r (have: %s)" % (name, ", ".join(bundled_mesh_names()))
        )
    mesh = load_triangle_format(node, ele)
    mesh.family = name
    return mesh


# ---------------------------------------------------------------------------
# edge predicates


def _edge_counts(triangles):
    """edge_table and the triangles per edge; no edge may border three."""
    edges, of_half = edge_table(triangles)
    counts = np.bincount(of_half.ravel())
    if counts.max(initial=0) > 2:
        k = int(np.argmax(counts))
        raise InvalidParameter(
            "edge (%d, %d) shared by %d triangles" % (edges[k, 0], edges[k, 1], counts[k])
        )
    return edges, of_half, counts


def delaunay_edges(mesh):
    """Every edge's opposite angles and the angle-sum test, as arrays.

    Returns (edges, angles, delaunay).  edges is edge_table's.  angles is
    (E, 2): the angle opposite each edge in each triangle it borders, in
    triangle order, nan in the second column of a boundary edge.  An edge
    is Delaunay when its angles sum to at most pi (plus 1e-12 slack, so
    edges of cocircular quads count as Delaunay); a boundary edge's single
    angle is below pi, so it always passes.
    """
    edges, of_half, counts = mesh._edges
    # the angle at local vertex k faces half-edge (t, k)
    p = mesh.nodes[mesh.triangles]
    va = p[:, [1, 2, 0]] - p
    vb = p[:, [2, 0, 1]] - p
    cross = va[..., 0] * vb[..., 1] - va[..., 1] * vb[..., 0]
    dot = va[..., 0] * vb[..., 0] + va[..., 1] * vb[..., 1]
    half = np.arctan2(np.abs(cross), dot).ravel()
    # the half-edges edge by edge, each edge's in triangle order
    by_edge = half[np.argsort(of_half.ravel(), kind="stable")]
    first = np.cumsum(counts) - counts
    inner = counts == 2
    angles = np.full((edges.shape[0], 2), np.nan)
    angles[:, 0] = by_edge[first]
    angles[inner, 1] = by_edge[first[inner] + 1]
    return edges, angles, np.nansum(angles, axis=1) <= math.pi + _ANGLE_SUM_TOL


def is_delaunay(mesh):
    """True when every interior edge satisfies the angle-sum condition."""
    return bool(delaunay_edges(mesh)[2].all())


def _adjacency(mesh):
    nbrs = [set() for _ in range(mesh.n_nodes)]
    for a, b in mesh._edges[0].tolist():
        nbrs[a].add(b)
        nbrs[b].add(a)
    return nbrs


def normal_witness(mesh):
    """A strictly interior node all of whose neighbors can see past it.

    Returns the index of an interior node whose neighbors are all interior
    and where every neighbor has a further neighbor not adjacent to the
    node itself; None when no such node exists.
    """
    nbrs = _adjacency(mesh)
    for j in range(mesh.n_nodes):
        if mesh.boundary[j]:
            continue
        ring = nbrs[j]
        if any(mesh.boundary[i] for i in ring):
            continue
        if all(any(k != j and k not in ring for k in nbrs[i]) for i in ring):
            return j
    return None


def is_normal(mesh):
    return normal_witness(mesh) is not None


def mesh_size(mesh):
    """Longest edge length."""
    edges = mesh._edges[0]
    d = mesh.nodes[edges[:, 0]] - mesh.nodes[edges[:, 1]]
    return float(np.hypot(d[:, 0], d[:, 1]).max(initial=0.0))


def _check_coordinates(nodes):
    """Reject coordinates that are not finite or exceed _COORD_MAX in size."""
    if not np.all(np.isfinite(nodes)):
        raise InvalidParameter("non-finite node coordinates")
    size = np.abs(nodes).max(initial=0.0)
    if size > _COORD_MAX:
        raise InvalidParameter("node coordinate of size %.3g, above %g" % (size, _COORD_MAX))


def validate_mesh(mesh):
    """Raise InvalidParameter when a structural invariant is broken."""
    nodes, tris = mesh.nodes, mesh.triangles
    _check_coordinates(nodes)
    # sorted and compared by hand: np.unique(axis=0) on floats imports
    # numpy.ma, about 15 ms and 0.5 MB in a fresh process
    rounded = np.round(nodes / 1e-12) * 1e-12
    rounded = rounded[np.lexsort(rounded.T)]
    if np.all(rounded[1:] == rounded[:-1], axis=1).any():
        raise InvalidParameter("duplicate nodes within 1e-12")
    if tris.min() < 0 or tris.max() >= nodes.shape[0]:
        raise InvalidParameter("triangle index out of range")
    unused = np.bincount(tris.ravel(), minlength=nodes.shape[0]) == 0
    if unused.any():
        raise InvalidParameter("%d node(s) in no triangle" % np.count_nonzero(unused))
    tiny = triangle_areas(nodes, tris) < _AREA_TOL
    if tiny.any():
        raise InvalidParameter(
            "degenerate or clockwise triangle(s) at index %s" % np.nonzero(tiny)[0][:5]
        )
    interior = mesh.interior_count
    if mesh.boundary[:interior].any() or not mesh.boundary[interior:].all():
        raise InvalidParameter("nodes are not ordered interior-first")
    edges, of_half, counts = mesh._edges
    # counterclockwise neighbours run their shared edge in opposite
    # directions; two that run it the same way overlap
    ahead = tris[:, [1, 2, 0]] < tris[:, [2, 0, 1]]
    folded = np.flatnonzero((counts == 2) & (np.bincount(of_half.ravel(), ahead.ravel()) != 1))
    if folded.size:
        pair = np.nonzero(of_half == folded[0])[0]
        raise InvalidParameter(
            "triangles at index %d and %d overlap along edge (%d, %d) "
            "(0-based node ids, interior nodes first)" % (*pair, *edges[folded[0]])
        )
    topological = np.zeros(nodes.shape[0], dtype=bool)
    topological[edges[counts == 1]] = True
    if not np.array_equal(topological, mesh.boundary):
        raise InvalidParameter("boundary flags disagree with edge topology")
