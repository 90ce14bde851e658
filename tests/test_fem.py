"""Element assembly for the three mass inner products and matrix predicates."""

import math
import tracemalloc

import numpy as np
import pytest

from fracpos import fem, linalg, mesh
from fracpos.errors import DegenerateTriangle, InvalidParameter


def fve_mass_by_quadrature(m):
    """Independent control-volume assembly of the fve mass matrix.

    Integrates each hat function over the barycentric control volumes by
    splitting every vertex quadrilateral (vertex, edge midpoint, centroid,
    edge midpoint) into two triangles and applying the vertex-average rule,
    which is exact for linear integrands.  Used as the oracle for the
    closed-form local matrix.
    """
    out = np.zeros((m.n_nodes, m.n_nodes))

    def tri_integral(corners, values):
        (x0, y0), (x1, y1), (x2, y2) = corners
        area = 0.5 * abs((x1 - x0) * (y2 - y0) - (y1 - y0) * (x2 - x0))
        return area * sum(values) / 3.0

    for tri in m.triangles:
        pts = m.nodes[tri]
        centroid = pts.mean(axis=0)
        for a in range(3):
            nxt, prv = (a + 1) % 3, (a + 2) % 3
            mid_n = 0.5 * (pts[a] + pts[nxt])
            mid_p = 0.5 * (pts[a] + pts[prv])
            for b in range(3):
                # hat function of node tri[b] at the quadrature corners
                at_vertex = 1.0 if b == a else 0.0
                at_mid_n = 0.5 * ((b == a) + (b == nxt))
                at_mid_p = 0.5 * ((b == a) + (b == prv))
                at_centroid = 1.0 / 3.0
                val = tri_integral(
                    (pts[a], mid_n, centroid), (at_vertex, at_mid_n, at_centroid)
                ) + tri_integral(
                    (pts[a], centroid, mid_p), (at_vertex, at_centroid, at_mid_p)
                )
                out[tri[a], tri[b]] += val
    return out


def all_interior(m):
    """The mesh with every node flagged interior: assembly covers all nodes."""
    return mesh.TriMesh(
        nodes=m.nodes, triangles=m.triangles, boundary=np.zeros(m.n_nodes, dtype=bool)
    )


def mass_of(method):
    return lambda m: fem.assemble_mass(m, method)


# stiffness


def test_stiffness_uniform_stencil():
    m = mesh.gen_uniform_square(4)
    s = fem.assemble_stiffness(all_interior(m))
    np.testing.assert_allclose(s.sum(axis=1), 0.0, atol=1e-12)
    n = m.interior_count
    for i in range(n):
        assert s[i, i] == pytest.approx(4.0)
        for j in range(n):
            if i == j:
                continue
            gap = m.nodes[i] - m.nodes[j]
            d = np.abs(gap) / m.h0
            if np.allclose(sorted(d), [0, 1]):
                assert s[i, j] == pytest.approx(-1.0)  # axis neighbor
            elif np.allclose(d, [1, 1]):
                assert abs(s[i, j]) < 1e-14  # diagonal neighbor decouples
            else:
                assert abs(s[i, j]) < 1e-14


def test_stiffness_equilateral_couplings():
    m = mesh.gen_equilateral_rhombus(4)
    s = fem.assemble_stiffness(all_interior(m))
    np.testing.assert_allclose(s.sum(axis=1), 0.0, atol=1e-12)
    inv_rt3 = 1.0 / math.sqrt(3.0)
    n = m.interior_count
    off = s[:n, :n][~np.eye(n, dtype=bool)]
    assert set(np.round(off, 12)) <= {0.0, -round(inv_rt3, 12)}
    for i in range(n):
        assert s[i, i] == pytest.approx(2.0 * math.sqrt(3.0))


def test_stiffness_rejects_degenerate_triangle():
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    m = mesh.TriMesh(
        nodes=nodes,
        triangles=np.array([[0, 1, 2]]),
        boundary=np.zeros(3, dtype=bool),
    )
    with pytest.raises(DegenerateTriangle):
        fem.assemble_stiffness(m)


@pytest.mark.parametrize("assemble", [
    pytest.param(fem.assemble_stiffness, id="assemble_stiffness"),
    pytest.param(mass_of("lm"), id="assemble_mass-lm"),
])
def test_interior_assembly_needs_an_interior_node(assemble):
    nodes = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    m = mesh.TriMesh(
        nodes=nodes,
        triangles=np.array([[0, 1, 2]]),
        boundary=np.ones(3, dtype=bool),
    )
    assert assemble(all_interior(m)).shape == (3, 3)
    with pytest.raises(InvalidParameter):
        assemble(m)


@pytest.mark.parametrize("assemble", [
    pytest.param(mass_of("sg"), id="assemble_mass-sg"),
    pytest.param(fem.assemble_stiffness, id="assemble_stiffness"),
])
def test_assembly_allocates_only_the_interior_block(assemble):
    # uniform M=40: N = 1521 unknowns among 1681 nodes; an all-node matrix
    # would be 1.22 times the N x N block
    m = mesh.gen_uniform_square(40)
    n = m.interior_count
    tracemalloc.start()
    try:
        assemble(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * n * n * 8


# mass matrices


def test_single_interior_node_systems():
    m = mesh.gen_uniform_square(2)
    s = fem.assemble_stiffness(m)
    assert s.shape == (1, 1)
    assert s[0, 0] == pytest.approx(4.0)
    assert fem.assemble_mass(m, "sg")[0, 0] == pytest.approx(0.125)
    assert fem.assemble_mass(m, "lm")[0, 0] == pytest.approx(0.25)
    assert fem.assemble_mass(m, "fve")[0, 0] == pytest.approx(11.0 / 72.0)
    assert fem.build_fem_system(m, "lm").eigen.eigenvalues[0] == pytest.approx(16.0)
    assert fem.build_fem_system(m, "sg").eigen.eigenvalues[0] == pytest.approx(32.0)
    assert fem.build_fem_system(m, "fve").eigen.eigenvalues[0] == pytest.approx(
        288.0 / 11.0
    )


def test_interior_diagonals_on_uniform_mesh():
    m = mesh.gen_uniform_square(10)
    sg = fem.assemble_mass(m, "sg")
    lm = fem.assemble_mass(m, "lm")
    h0 = m.h0
    np.testing.assert_allclose(np.diag(sg), h0 * h0 / 2.0, rtol=1e-12)
    np.testing.assert_allclose(np.diag(lm), h0 * h0, rtol=1e-12)
    assert np.allclose(lm, np.diag(np.diag(lm)))


def test_lm_equals_row_lumped_sg():
    m = all_interior(mesh.gen_sliver_square(4))
    sg = fem.assemble_mass(m, "sg")
    lm = fem.assemble_mass(m, "lm")
    np.testing.assert_allclose(np.diag(lm), sg.sum(axis=1), rtol=1e-12)
    assert np.allclose(lm, np.diag(np.diag(lm)))


@pytest.mark.parametrize("make", [
    lambda: mesh.gen_sliver_square(4),
    lambda: mesh.gen_equilateral_rhombus(3),
    lambda: mesh.gen_crossed_rectangles(3),
])
def test_fve_matches_control_volume_quadrature(make):
    m = all_interior(make())
    fve = fem.assemble_mass(m, "fve")
    oracle = fve_mass_by_quadrature(m)
    np.testing.assert_allclose(fve, oracle, atol=1e-14)


def test_fve_structure():
    m = mesh.gen_uniform_square(6)
    fve = fem.assemble_mass(all_interior(m), "fve")
    lm = fem.assemble_mass(all_interior(m), "lm")
    assert np.abs(fve - fve.T).max() < 1e-15
    # row sums are the control volume areas, which is what lm lumps
    np.testing.assert_allclose(fve.sum(axis=1), np.diag(lm), rtol=1e-12)
    # nondiagonal: every edge couples with strictly positive weight
    edges, _ = mesh.edge_table(m.triangles)
    for (a, b) in edges[edges[:, 1] < m.interior_count]:
        assert fve[a, b] > 0.0


def test_sg_mass_nondiagonal():
    m = mesh.gen_uniform_square(6)
    sg = fem.assemble_mass(all_interior(m), "sg")
    edges, _ = mesh.edge_table(m.triangles)
    for (a, b) in edges[edges[:, 1] < m.interior_count]:
        assert sg[a, b] > 0.0


def test_unknown_method_rejected():
    with pytest.raises(InvalidParameter):
        fem.assemble_mass(mesh.gen_uniform_square(2), "dg")


# spectra


def test_method_spectra_agree_to_a_small_factor():
    m = mesh.gen_uniform_square(10)
    smallest = [
        fem.build_fem_system(m, method).eigen.eigenvalues[0]
        for method in fem.METHODS
    ]
    assert max(smallest) / min(smallest) < 4.0
    # all sit near the continuum value 2*pi^2
    for lam in smallest:
        assert lam == pytest.approx(2.0 * math.pi**2, rel=0.15)


def test_system_from_matrices_wraps_synthetic_pair():
    mass, stiffness = np.eye(2), np.array([[2.0, -1.0], [-1.0, 2.0]])
    sys = fem.system_from_matrices(mass, stiffness)
    assert sys.size == 2
    assert sys.mesh is None
    assert sys.mass is mass and sys.stiffness is stiffness
    np.testing.assert_allclose(sys.eigen.eigenvalues, [1.0, 3.0], rtol=1e-12)


# the lean pencil: a built system holds its eigensystem, not (S, M)


@pytest.mark.parametrize("method", fem.METHODS)
def test_built_system_assembles_its_matrices_on_first_read(method):
    # disk_coarse: N = 135 > linalg.BLOCK_ROWS, so L^{-1} is blocked
    m = mesh.bundled_mesh("disk_coarse")
    sys = fem.build_fem_system(m, method)
    np.testing.assert_array_equal(sys.mass, fem.assemble_mass(m, method))
    np.testing.assert_array_equal(sys.stiffness, fem.assemble_stiffness(m))
    assert sys.mass is sys.mass and sys.stiffness is sys.stiffness
    want = linalg.gen_sym_eigen(sys.stiffness, sys.mass)
    for name in ("eigenvalues", "back_transform", "forward_transform"):
        np.testing.assert_array_equal(getattr(sys.eigen, name), getattr(want, name))


@pytest.mark.parametrize("method", fem.METHODS)
def test_built_system_peak_and_held_memory(method):
    # each matrix lives only while the reduction needs it: a numpy-visible
    # peak of about 3 N x N arrays, where holding S and M throughout gives
    # 5, and the system keeps back, forward and the eigenvalues
    m = mesh.bundled_mesh("disk_medium")
    n = m.interior_count
    tracemalloc.start()
    try:
        sys = fem.build_fem_system(m, method)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sys.size == n
    assert peak <= 4 * n * n * 8
    assert held <= (2 * n * n + 8 * n) * 8


@pytest.mark.parametrize("method", ["sg", "fve"])
def test_full_mass_holds_only_c_at_eigh(method, monkeypatch):
    # eigh never reads L^{-1}, so it is dropped once C is formed and
    # rebuilt afterwards: C is the one numpy-visible N x N array at eigh
    m = mesh.bundled_mesh("disk_medium")
    n = m.interior_count
    eigh = np.linalg.eigh
    live = []

    def traced_eigh(a):
        live.append(tracemalloc.get_traced_memory()[0])
        return eigh(a)

    monkeypatch.setattr(linalg.np.linalg, "eigh", traced_eigh)
    tracemalloc.start()
    try:
        fem.build_fem_system(m, method)
    finally:
        tracemalloc.stop()
    assert len(live) == 1
    assert live[0] < 1.5 * n * n * 8


# predicates


def test_stieltjes_tracks_delaunay():
    cases = [
        (mesh.gen_uniform_square(4), True),
        (mesh.gen_equilateral_rhombus(4), True),
        (mesh.gen_crossed_rectangles(3), False),
        (mesh.gen_sliver_square(10), False),
    ]
    for m, expect in cases:
        s = fem.assemble_stiffness(m)
        assert mesh.is_delaunay(m) is expect
        assert fem.is_stieltjes(s) is expect


def test_stieltjes_basic_matrices():
    assert fem.is_stieltjes(np.eye(3))
    assert fem.is_stieltjes(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    assert not fem.is_stieltjes(np.array([[1.0, 0.1], [0.1, 1.0]]))
    assert not fem.is_stieltjes(np.array([[1.0, -2.0], [-2.0, 1.0]]))  # indefinite


def test_diagonal_dominance():
    assert not fem.is_diagonally_dominant(np.array([[1.0, 2.0], [2.0, 1.0]]))
    assert fem.is_diagonally_dominant(np.array([[2.0, -1.0], [-1.0, 2.0]]))
    m = mesh.gen_uniform_square(8)
    assert fem.is_diagonally_dominant(fem.assemble_stiffness(m))
