"""Dense symmetric linear algebra for systems up to a few thousand unknowns.

Everything here works on plain float64 numpy arrays.  The generalized
symmetric eigenproblem S*phi = lambda*M*phi is reduced with a Cholesky
factor of M to a standard symmetric problem, so the returned transforms
are exact inverses of each other up to roundoff:

    back_transform    = L^{-T} W        (columns are M-orthonormal eigenvectors)
    forward_transform = W^T L^T         (its inverse, no matrix inversion needed)

The reduction runs on numpy's LAPACK alone (cholesky, solve, eigh), and
every dense operator, H^{-1} included, is a matrix function through it, so
nothing here imports scipy.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite

__all__ = [
    "EigenSystem",
    "cholesky",
    "sym_eigen",
    "gen_sym_eigen",
]


# float64 entries of one block of EigenSystem.min_entries' wide product
BLOCK_ENTRIES = 2 ** 15


def _check_square(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotPositiveDefinite("matrix must be square, got shape %s" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise NotPositiveDefinite("matrix has non-finite entries")
    return a


def _check_symmetric(a, rel=1e-12):
    scale = max(np.abs(a).max(), 1e-300)
    skew = np.abs(a - a.T).max()
    if skew > rel * scale:
        raise NotPositiveDefinite(
            "matrix not symmetric: asymmetry %.3e relative to %.3e" % (skew, scale)
        )


@dataclass(frozen=True)
class EigenSystem:
    """Spectral factorization of M^{-1}S with M-orthonormal eigenvectors.

    eigenvalues are ascending and strictly positive.  For any coefficient
    vector c(lambda_i), back_transform @ diag(c) @ forward_transform is the
    matrix function c(M^{-1}S).
    """

    eigenvalues: np.ndarray
    back_transform: np.ndarray
    forward_transform: np.ndarray

    @property
    def size(self):
        return self.eigenvalues.shape[0]

    def matrix_function(self, coeffs):
        """Assemble back @ diag(coeffs) @ forward for given per-mode values."""
        coeffs = np.asarray(coeffs, dtype=float)
        return self.back_transform @ (coeffs[:, None] * self.forward_transform)

    def min_entries(self, rows):
        """Smallest entry of back @ diag(c) @ forward for each row c of rows.

        Rows go BLOCK_ENTRIES // N^2 at a time (at least one) through one
        wide product back @ [diag(c_1) forward | diag(c_2) forward | ...],
        so a scan costs a few large GEMMs instead of one small GEMM per
        point.  A block of one row is exactly matrix_function's product.
        A row of ones gives the identity's smallest entry exactly (0, or 1
        when N = 1), since c = 1 makes the matrix function I.
        """
        rows = np.asarray(rows, dtype=float)
        n = self.size
        per_block = max(1, BLOCK_ENTRIES // (n * n))
        out = np.empty(rows.shape[0])
        for start in range(0, rows.shape[0], per_block):
            block = rows[start:start + per_block]
            # (N, k, N): entry [i, j, :] is c_j[i] * forward[i, :]
            scaled = block.T[:, :, None] * self.forward_transform[:, None, :]
            wide = self.back_transform @ scaled.reshape(n, -1)
            out[start:start + block.shape[0]] = wide.reshape(n, -1, n).min(axis=(0, 2))
        out[(rows == 1.0).all(axis=1)] = 1.0 if n == 1 else 0.0
        return out


def cholesky(a):
    """Lower Cholesky factor of a symmetric positive definite matrix.

    Raises NotPositiveDefinite if the matrix is not symmetric to 1e-12
    (relative) or a pivot fails.
    """
    a = _check_square(a)
    _check_symmetric(a)
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(str(exc)) from exc


def sym_eigen(a):
    """Eigenvalues (ascending) and orthonormal eigenvectors of symmetric A."""
    a = _check_square(a)
    _check_symmetric(a)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    return w, v


def gen_sym_eigen(s, m):
    """Solve S*phi = lambda*M*phi for symmetric S and SPD M.

    Reduces to the standard problem on L^{-1} S L^{-T} where M = L L^T,
    then maps the orthonormal eigenvectors back.  Eigenvalues must come
    out strictly positive (S is expected SPD as well).
    """
    s = _check_square(s)
    m = _check_square(m)
    if s.shape != m.shape:
        raise NotPositiveDefinite(
            "operand shapes differ: %s vs %s" % (s.shape, m.shape)
        )
    _check_symmetric(s)
    ell = cholesky(m)
    # C = L^{-1} S L^{-T}, symmetrized to kill roundoff skew
    c = np.linalg.solve(ell, s)
    c = np.linalg.solve(ell, c.T)
    c = 0.5 * (c + c.T)
    w, vecs = sym_eigen(c)
    if w[0] <= 0.0:
        raise NotPositiveDefinite("smallest eigenvalue %.3e is not positive" % w[0])
    back = np.linalg.solve(ell.T, vecs)
    forward = (ell @ vecs).T
    return EigenSystem(eigenvalues=w, back_transform=back, forward_transform=forward)
