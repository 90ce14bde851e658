"""P1 finite element matrices on triangulations, three mass inner products.

Methods:

  sg   standard Galerkin: exact L2 mass, local matrix |K|/12 * (I + ones)
  lm   lumped mass: diagonal, node weight = third of the adjacent area
  fve  finite volume element: mass entry (i, j) integrates basis function j
       over the control volume around node i (barycentric dual: barycenter
       joined to edge midpoints), local matrix |K|/108 * (15 I + 7 ones)

Homogeneous Dirichlet conditions: assembly keeps only the contributions
between the N interior nodes, which the interior-first node ordering
places in the leading block.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import linalg
from .errors import DegenerateTriangle, InvalidParameter, NotPositiveDefinite
from .mesh import triangle_areas

__all__ = [
    "METHODS",
    "FemSystem",
    "assemble_stiffness",
    "assemble_mass",
    "build_fem_system",
    "system_from_matrices",
    "is_stieltjes",
    "is_diagonally_dominant",
]

METHODS = ("sg", "lm", "fve")

# local mass matrices over |K|; lm is the diagonal of sg's row sums
_LOCAL = {
    "sg": (np.eye(3) + np.ones((3, 3))) / 12.0,
    "fve": (15.0 * np.eye(3) + 7.0 * np.ones((3, 3))) / 108.0,
}


def _geometry(mesh):
    """Triangle corners, triangle areas and the number N of interior nodes."""
    areas = triangle_areas(mesh.nodes, mesh.triangles)
    if np.any(areas < 1e-14):
        raise DegenerateTriangle(
            "triangle area below 1e-14 at index %d" % int(np.argmin(areas))
        )
    n = mesh.interior_count
    if n == 0:
        raise InvalidParameter("mesh has no interior nodes")
    return mesh.nodes[mesh.triangles], areas, n


def _scatter(n, tri, local_blocks):
    # entries that touch a boundary node are dropped before the scatter;
    # add.at keeps the order of the remaining contributions, so the
    # interior block is the same to the bit as a slice of the full matrix
    out = np.zeros((n, n))
    for a in range(3):
        for b in range(3):
            keep = (tri[:, a] < n) & (tri[:, b] < n)
            np.add.at(out, (tri[keep, a], tri[keep, b]), local_blocks[keep, a, b])
    return out


def assemble_stiffness(mesh):
    """Stiffness matrix of the Dirichlet Laplacian (P1 elements).

    Row sums over all nodes vanish; the interior block is SPD whenever the
    mesh has at least one interior node.
    """
    p, areas, n = _geometry(mesh)
    # gradients of barycentric coordinates: rotated opposite edges / (2|K|)
    edges = np.stack(
        [p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1
    )
    rot = np.empty_like(edges)
    rot[:, :, 0] = -edges[:, :, 1]
    rot[:, :, 1] = edges[:, :, 0]
    grads = rot / (2.0 * areas)[:, None, None]
    local = np.einsum("tad,tbd->tab", grads, grads) * areas[:, None, None]
    return _scatter(n, mesh.triangles, local)


def assemble_mass(mesh, method):
    """Mass matrix of one method over the interior nodes.

    sg is the consistent L2 mass.  lm is diagonal and equals the row sums
    of the sg mass.  fve is symmetric with row sum |V_i| (the control
    volume area) and the sparsity of the sg mass.
    """
    if method not in METHODS:
        raise InvalidParameter("unknown method %r (have %s)" % (method, METHODS))
    _, areas, n = _geometry(mesh)
    if method == "lm":
        diag = np.zeros(mesh.n_nodes)
        np.add.at(diag, mesh.triangles.ravel(), np.repeat(areas / 3.0, 3))
        return np.diag(diag[:n])
    return _scatter(n, mesh.triangles, _LOCAL[method][None, :, :] * areas[:, None, None])


def is_stieltjes(a):
    """Symmetric positive definite with nonpositive off-diagonal entries."""
    a = np.asarray(a, dtype=float)
    off = a - np.diag(np.diag(a))
    if off.max(initial=0.0) > 1e-14:
        return False
    try:
        linalg.cholesky(a)
    except NotPositiveDefinite:
        return False
    return True


def is_diagonally_dominant(a):
    """Rows satisfy sum of off-diagonal magnitudes <= diagonal (1e-14 slack)."""
    a = np.asarray(a, dtype=float)
    diag = np.diag(a)
    off = np.abs(a).sum(axis=1) - np.abs(diag)
    return bool(np.all(off <= diag + 1e-14))


@dataclass(eq=False)
class FemSystem:
    """A method's generalized eigensystem of the interior pencil (S, M).

    The dense mass and stiffness matrices are not kept: mass and
    stiffness assemble them from the mesh on first read and cache them,
    and the threshold scans never read them.  A system built by
    system_from_matrices holds the pair it was given instead.
    """

    method: str
    eigen: linalg.EigenSystem
    mesh: object = None

    @property
    def size(self):
        return self.eigen.size

    @cached_property
    def mass(self):
        return assemble_mass(self.mesh, self.method)

    @cached_property
    def stiffness(self):
        return assemble_stiffness(self.mesh)


def build_fem_system(mesh, method):
    """Factor a method's pencil, assembling each matrix only while needed.

    gen_sym_eigen gets the assemblers, not the matrices, so it frees each
    one once used; the system holds only the eigensystem, 2 N^2 + N floats
    (and N more for lm: its diagonal mass).
    """
    eigen = linalg.gen_sym_eigen(
        lambda: assemble_stiffness(mesh), lambda: assemble_mass(mesh, method)
    )
    return FemSystem(method=method, eigen=eigen, mesh=mesh)


def system_from_matrices(mass, stiffness):
    """Wrap explicit matrices (synthetic test systems) as an "sg" FemSystem."""
    mass = np.asarray(mass, dtype=float)
    stiffness = np.asarray(stiffness, dtype=float)
    eigen = linalg.gen_sym_eigen(stiffness, mass)
    system = FemSystem(method="sg", eigen=eigen)
    system.mass, system.stiffness = mass, stiffness
    return system
