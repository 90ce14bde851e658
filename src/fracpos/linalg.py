"""Dense symmetric linear algebra for systems up to a few thousand unknowns.

Everything here works on plain float64 numpy arrays.  The generalized
symmetric eigenproblem S*phi = lambda*M*phi is reduced with a Cholesky
factor of M to a standard symmetric problem, so the returned transforms
are exact inverses of each other up to roundoff:

    back_transform    = L^{-T} W        (columns are M-orthonormal eigenvectors)
    forward_transform = W^T L^T         (its inverse, no matrix inversion needed)

The reduction runs on numpy's LAPACK alone (cholesky, solve, eigh), and
every dense operator, H^{-1} included, is a matrix function through it.
A diagonal (lumped) M has L = diag(sqrt(m)), and L^{-1} is then a
scaling of rows by 1/sqrt(m) instead of a solve.

Three reductions read a batch of coefficient rows without keeping its
matrices: min_entries (smallest entry, exact products in blocks) and,
through one loop over a skeleton of the rows, max_norms (max-norm) and
skeleton_min_entries (smallest entry and its error bound).  A skeleton
entry moves by at most SKELETON_TOL * (|back| |forward|)_ij plus roundoff.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, NumericalError

__all__ = [
    "EigenSystem",
    "cholesky",
    "sym_eigen",
    "gen_sym_eigen",
]


# float64 entries of one block of EigenSystem.min_entries' wide product
BLOCK_ENTRIES = 2 ** 15

# largest residual entry a skeleton of coefficient rows leaves unfitted
SKELETON_TOL = 1e-15


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

    def max_norms(self, rows):
        """max_i sum_j |(back @ diag(c) @ forward)_ij| for each row c of rows.

        Read through a skeleton of the rows (_skeleton_reduce): an entry
        moves by at most SKELETON_TOL * (|back| |forward|)_ij plus roundoff.
        """
        out = np.zeros(len(rows))
        self._skeleton_reduce(rows, out, lambda block, part: np.maximum(
            part, np.abs(block, out=block).sum(axis=2).max(axis=1), out=part))
        return out

    def skeleton_min_entries(self, rows):
        """(mins, bound): min_entries through a skeleton, within bound of it.

        The bound is _skeleton_reduce's times max (|back| |forward|), one
        GEMM of absolute values.  Rows of ones read the identity exactly.
        """
        out = np.full(len(rows), np.inf)
        bound = self._skeleton_reduce(rows, out, lambda block, part: np.minimum(
            part, block.min(axis=(1, 2)), out=part), exact=self.min_entries)
        ones = np.all(np.equal(rows, 1.0), axis=1)
        out[ones], bound[ones] = (1.0 if self.size == 1 else 0.0), 0.0
        if bound.any():
            bound *= (np.abs(self.back_transform) @ np.abs(self.forward_transform)).max()
        return out, bound

    def _skeleton_reduce(self, rows, out, fold, exact=None):
        """Fold every row's matrix back @ diag(c) @ forward into out.

        Rows go min(k, N) at a time.  Each batch is written as an
        interpolative decomposition c_n = sum_s X_ns c_s over skeleton rows
        S (Cheng, Gimbutas, Martinsson & Rokhlin, SIAM J. Sci. Comput. 26,
        2005; see _skeleton), so every matrix is sum_s X_ns E_s and only the
        r = |S| matrices E_s = back diag(c_s) forward are products.  When
        exact is given, a batch whose skeleton saves no products,
        r (1 + k/N) >= k, goes to exact(batch) instead.

        E_s is formed for b = N // r rows of back at a time, all r in one
        (r b) x N by N x N product; against it, k' = N // b rows of X (both
        at least one) combine into a k' x b x N block, which fold(block,
        part) folds into their k' entries of out.  No array exceeds N^2.

        Returns each row's error bound in units of max (|back| |forward|):
        its skeleton residual plus (N + 2r + 2) eps (|c|_inf + |X| |c_S|_inf),
        the rounding of the products, the combine and that residual; 0 for
        rows that went to exact.
        """
        rows = np.asarray(rows, dtype=float)
        n = self.size
        per_batch = max(1, min(rows.shape[0], n))
        err = np.zeros(rows.shape[0])
        for first in range(0, rows.shape[0], per_batch):
            batch = rows[first:first + per_batch]
            skeleton, x, resid = _skeleton(batch)
            r = skeleton.shape[0]
            part = out[first:first + per_batch]
            if exact is not None and not r * (1 + batch.shape[0] / n) < batch.shape[0]:
                part[:] = exact(batch)
                continue
            scale = np.abs(batch).max(axis=1) + np.abs(x) @ np.abs(skeleton).max(axis=1)
            err[first:first + per_batch] = resid + (n + 2 * r + 2) * np.finfo(float).eps * scale
            per_block = max(1, n // max(r, 1))
            per_combine = max(1, n // per_block)
            for start in range(0, n, per_block):
                back = self.back_transform[start:start + per_block]
                # entry [s, i, :] is row i of back diag(c_s) forward
                wide = ((skeleton[:, None, :] * back).reshape(-1, n)
                        @ self.forward_transform).reshape(r, back.shape[0] * n)
                for c0 in range(0, batch.shape[0], per_combine):
                    block = (x[c0:c0 + per_combine] @ wide).reshape(-1, back.shape[0], n)
                    fold(block, part[c0:c0 + per_combine])
                    del block  # before the next one is formed: it sets peak memory
        return err


def _skeleton(rows):
    """Skeleton rows S of rows and X with rows = X @ rows[S] to SKELETON_TOL.

    Greedy row-pivoted Gram-Schmidt: take the row whose residual has the
    largest 2-norm, orthogonalise it against the basis again, then remove
    the new direction from every residual twice; stop once no residual
    entry exceeds SKELETON_TOL.  The stop is entrywise, like the check
    below: a residual row's 2-norm is up to sqrt(N) times its largest
    entry, so stopping on it would keep rows that only chase roundoff.
    X is the least-squares fit in the basis, coef @ coef[S]^-1 with
    coef = rows @ basis^T.  The fit is checked a posteriori, entrywise:
    |c_n - X_n rows[S]| <= SKELETON_TOL plus (|S| + 1) eps (|c_n|_2 +
    |X_n| |rows[S]|), the rounding of the projections (which spreads over
    the whole row, hence its 2-norm) and of the check itself.  A zero row
    gets a zero row of X; rows must be finite.  The third value is each
    row's largest residual entry.
    """
    res = rows.copy()
    picked = []
    basis = np.empty((0, rows.shape[1]))
    for _ in range(min(rows.shape)):
        if not np.abs(res).max() > SKELETON_TOL:
            break
        p = int(np.argmax(np.einsum("ij,ij->i", res, res)))
        q = res[p] - basis.T @ (basis @ res[p])
        basis = np.vstack([basis, q / np.linalg.norm(q)])
        for _ in range(2):
            res -= np.outer(res @ basis[-1], basis[-1])
        res[p] = 0.0
        picked.append(p)
    del res
    coef = rows @ basis.T
    x = np.linalg.solve(coef[picked].T, coef.T).T
    skeleton = rows[picked]
    err = x @ skeleton
    err -= rows
    np.abs(err, out=err)
    bound = np.abs(x) @ np.abs(skeleton)
    bound += np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    bound *= (len(picked) + 1) * np.finfo(float).eps
    bound += SKELETON_TOL
    if not np.all(err <= bound):
        raise NumericalError(
            "skeleton of %d rows misses a row by %.3e" % (len(picked), err.max())
        )
    return skeleton, x, err.max(axis=1, initial=0.0)


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
    out strictly positive (S is expected SPD as well).  A diagonal M (the
    lumped mass) takes L = diag(sqrt(m)) and applies L^{-1} as a product
    with the reciprocals 1/sqrt(m); under numpy's OpenBLAS that gives the
    Cholesky route's eigensystem bit for bit, where dividing by sqrt(m)
    does not.
    """
    s = _check_square(s)
    m = _check_square(m)
    if s.shape != m.shape:
        raise NotPositiveDefinite(
            "operand shapes differ: %s vs %s" % (s.shape, m.shape)
        )
    _check_symmetric(s)
    diag = np.diagonal(m)
    lumped = np.count_nonzero(m) == np.count_nonzero(diag)
    # C = L^{-1} S L^{-T}, symmetrized to kill roundoff skew
    if lumped:
        if not np.all(diag > 0.0):
            raise NotPositiveDefinite(
                "diagonal mass entry %.3e is not positive" % diag.min()
            )
        root = np.sqrt(diag)[:, None]
        inv = 1.0 / root
        c = (s * inv).T * inv
    else:
        ell = cholesky(m)
        c = np.linalg.solve(ell, s)
        c = np.linalg.solve(ell, c.T)
    c = 0.5 * (c + c.T)
    w, vecs = sym_eigen(c)
    if w[0] <= 0.0:
        raise NotPositiveDefinite("smallest eigenvalue %.3e is not positive" % w[0])
    if lumped:
        back = vecs * inv
        forward = (root * vecs).T
    else:
        back = np.linalg.solve(ell.T, vecs)
        forward = (ell @ vecs).T
    return EigenSystem(eigenvalues=w, back_transform=back, forward_transform=forward)
