"""Dense symmetric linear algebra for systems up to a few thousand unknowns.

Everything here works on plain float64 numpy arrays.  The generalized
symmetric eigenproblem S*phi = lambda*M*phi is reduced with a Cholesky
factor of M to a standard symmetric problem, so the returned transforms
are exact inverses of each other up to roundoff:

    back_transform    = L^{-T} W        (columns are M-orthonormal eigenvectors)
    forward_transform = W^T L^T         (its inverse, formed as (M back)^T)

The reduction runs on numpy alone (cholesky, inv on diagonal blocks of
L, GEMMs, eigh) and solves no linear system; every dense operator,
H^{-1} included, is a matrix function through it.  A diagonal (lumped)
M has L = diag(sqrt(m)), and L^{-1} is then a scaling of rows by
1/sqrt(m).  The symmetry check and the symmetrization go BLOCK_ROWS
rows at a time, so they form no N x N temporary.

Three reductions read a batch of coefficient rows without keeping its
matrices: min_entries (smallest entry, exact products in blocks) and,
through one loop over a skeleton of the rows, max_norms (max-norm) and
skeleton_min_entries (smallest entry and its error bound).  A skeleton
entry moves by at most its fit tolerance (SKELETON_TOL unless given)
times (|back| |forward|)_ij plus roundoff.  skeleton_min_entries uses the
skeleton only to locate the minimum of a row fitted worse than
SKELETON_TOL: it evaluates that minimum exactly on the few matrix rows
that can hold it, so a loose fit (the kernel rows' 1e-12) still gives
minima within rounding of min_entries.  A decide read
(skeleton_min_entries(..., decide=True)) skips that exact stage and
returns the skeleton's minima with their bound, for a caller that only
compares them with a floor and re-reads exactly what lies near it.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NoConvergence, NotPositiveDefinite, NumericalError

__all__ = [
    "EigenSystem",
    "cholesky",
    "gen_sym_eigen",
]


# float64 entries of one block of EigenSystem.min_entries' wide product
BLOCK_ENTRIES = 2 ** 15

# rows of one block of the O(N^2) passes over an N x N matrix (symmetry
# check, symmetrization, abs-value scale) and the largest diagonal block
# the triangular inverse hands to np.linalg.inv
BLOCK_ROWS = 128

# largest residual entry a skeleton of coefficient rows leaves unfitted,
# unless a caller asks for another; a row fitted worse than this has its
# smallest entry evaluated exactly (skeleton_min_entries)
SKELETON_TOL = 1e-15


def _check_square(a):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotPositiveDefinite("matrix must be square, got shape %s" % (a.shape,))
    if not np.all(np.isfinite(a)):
        raise NotPositiveDefinite("matrix has non-finite entries")
    return a


def _row_blocks(n):
    """Slices of BLOCK_ROWS rows covering range(n)."""
    return [slice(first, first + BLOCK_ROWS) for first in range(0, n, BLOCK_ROWS)]


def _check_symmetric(a):
    scale = skew = 0.0
    for rows in _row_blocks(a.shape[0]):
        scale = max(scale, np.abs(a[rows]).max(initial=0.0))
        skew = max(skew, np.abs(a[rows] - a[:, rows].T).max(initial=0.0))
    scale = max(scale, 1e-300)
    if skew > 1e-12 * scale:
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
        Every row is read alike: a row of ones gives I up to roundoff.
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
        return out

    def max_norms(self, rows):
        """max_i sum_j |(back @ diag(c) @ forward)_ij| for each row c of rows.

        Read through a skeleton of the rows (_skeleton_reduce): an entry
        moves by at most SKELETON_TOL * (|back| |forward|)_ij plus roundoff.
        """
        rows = np.asarray(rows, dtype=float)
        out = np.zeros(rows.shape[0])
        for batch in self._batches(rows):
            part = out[batch]
            self._skeleton_reduce(rows[batch], _skeleton(rows[batch]), lambda block, c, i: (
                np.maximum(part[c], np.abs(block, out=block).sum(axis=2).max(axis=1), out=part[c])))
        return out

    def skeleton_min_entries(self, rows, tol=SKELETON_TOL, decide=False):
        """(mins, bound): min_entries through a skeleton, within bound of it.

        Each batch of rows is fitted to tol (_skeleton); a batch whose
        skeleton saves no products, r (1 + k/N) >= k, goes to min_entries
        with bound 0.  Otherwise the bound is _skeleton_reduce's times
        max (|back| |forward|) (_abs_scale, one GEMM of absolute values per
        system).  decide=True stops there: the minima are the skeleton's,
        folded block by block with no per-matrix-row table, for a caller
        that only compares them with a floor and re-reads exactly what lies
        within the bound of it.  Otherwise a row whose
        fit residual is above SKELETON_TOL is then evaluated exactly on
        every matrix row whose skeleton minimum is within twice that bound
        of the row's skeleton minimum, the only rows that can hold its
        smallest entry: (row, matrix row) pairs go N at a time through one
        product (back[i] * c) @ forward.  Its bound becomes the rounding
        of that product and of min_entries' own, 2 (N + 1) eps |c|_inf
        times max (|back| |forward|); the value agrees with min_entries to
        that rounding, not bit for bit.
        """
        rows = np.asarray(rows, dtype=float)
        n = self.size
        eps = np.finfo(float).eps
        out = np.empty(rows.shape[0])
        bound = np.zeros(rows.shape[0])
        for batch in self._batches(rows):
            coeffs, part = rows[batch], out[batch]
            skel = _skeleton(coeffs, tol)
            if not skel[0].shape[0] * (1 + coeffs.shape[0] / n) < coeffs.shape[0]:
                part[:] = self.min_entries(coeffs)
                continue
            scale = self._abs_scale  # before row_mins: its temporaries set peak memory
            if decide:  # each row's smallest entry, folded block by block
                part[:] = np.inf
                err = self._skeleton_reduce(coeffs, skel, lambda block, c, i: np.minimum(
                    part[c], block.min(axis=(1, 2)), out=part[c]))
                bound[batch] = err * scale
                continue
            # entry [c, i] is the smallest entry of row i of row c's matrix
            row_mins = np.empty((coeffs.shape[0], n))
            err = self._skeleton_reduce(coeffs, skel, lambda block, c, i: np.amin(
                block, axis=2, out=row_mins[c, i]))
            part[:] = row_mins.min(axis=1)
            loose = np.flatnonzero(skel[2] > SKELETON_TOL)
            if loose.size:
                reach = part[loose] + 2.0 * scale * err[loose]
                pair_c, pair_i = np.nonzero(row_mins[loose] <= reach[:, None])
                pair_c = loose[pair_c]
                del row_mins
                exact = np.full(coeffs.shape[0], np.inf)
                for start in range(0, pair_c.size, n):
                    c, i = pair_c[start:start + n], pair_i[start:start + n]
                    scaled = self.back_transform[i]
                    scaled *= coeffs[c]
                    np.minimum.at(exact, c, (scaled @ self.forward_transform).min(axis=1))
                    del scaled
                part[loose] = exact[loose]
                err[loose] = 2 * (n + 1) * eps * np.abs(coeffs[loose]).max(axis=1)
            bound[batch] = err * scale
        return out, bound

    @cached_property
    def _abs_scale(self):
        """max (|back| |forward|), one block of back's rows at a time: the
        one N x N temporary is |forward|.  Computed once per system."""
        forward = np.abs(self.forward_transform)
        return max((np.abs(self.back_transform[rows]) @ forward).max()
                   for rows in _row_blocks(self.size))

    def _batches(self, rows):
        """Slices of min(k, N) rows, the batches a skeleton is taken over."""
        per_batch = max(1, min(rows.shape[0], self.size))
        return [slice(first, first + per_batch) for first in range(0, rows.shape[0], per_batch)]

    def _skeleton_reduce(self, batch, skel, fold):
        """Fold every row's matrix back @ diag(c) @ forward, from its skeleton.

        skel = _skeleton(batch) writes the batch (at most N rows) as an
        interpolative decomposition c_n = sum_s X_ns c_s over skeleton rows
        S (Cheng, Gimbutas, Martinsson & Rokhlin, SIAM J. Sci. Comput. 26,
        2005), so every matrix is sum_s X_ns E_s and only the r = |S|
        matrices E_s = back diag(c_s) forward are products.

        E_s is formed for b = N // r rows of back at a time, all r in one
        (r b) x N by N x N product; against it, k' = N // b rows of X (both
        at least one) combine into a k' x b x N block, which fold(block, c,
        i) folds in, for the slices c of batch rows and i of matrix rows it
        holds.  No array exceeds N^2.

        Returns each row's error bound in units of max (|back| |forward|):
        its skeleton residual plus (N + 2r + 2) eps (|c|_inf + |X| |c_S|_inf),
        the rounding of the products, the combine and that residual.
        """
        skeleton, x, resid = skel
        n = self.size
        r = skeleton.shape[0]
        scale = np.abs(batch).max(axis=1) + np.abs(x) @ np.abs(skeleton).max(axis=1)
        err = resid + (n + 2 * r + 2) * np.finfo(float).eps * scale
        per_block = max(1, n // max(r, 1))
        per_combine = max(1, n // per_block)
        for start in range(0, n, per_block):
            back = self.back_transform[start:start + per_block]
            # entry [s, i, :] is row i of back diag(c_s) forward
            wide = ((skeleton[:, None, :] * back).reshape(-1, n)
                    @ self.forward_transform).reshape(r, back.shape[0] * n)
            for c0 in range(0, batch.shape[0], per_combine):
                block = (x[c0:c0 + per_combine] @ wide).reshape(-1, back.shape[0], n)
                fold(block, slice(c0, c0 + per_combine), slice(start, start + per_block))
                del block  # before the next one is formed: it sets peak memory
            del wide  # likewise
        return err


def _skeleton(rows, tol=SKELETON_TOL):
    """Skeleton rows S of rows and X with rows = X @ rows[S] to tol.

    Greedy row-pivoted Gram-Schmidt: take the row whose residual has the
    largest 2-norm, orthogonalise it against the basis again, then remove
    the new direction from every residual twice; stop once no residual
    entry exceeds tol.  The stop is entrywise, like the check
    below: a residual row's 2-norm is up to sqrt(N) times its largest
    entry, so stopping on it would keep rows that only chase roundoff.
    X is the least-squares fit in the basis, coef @ coef[S]^-1 with
    coef = rows @ basis^T, refined twice on its residual: coef[S] can
    have a condition number near 1/eps, and unrefined X leaves residuals
    up to 1e-14 on rows the basis fits to 1e-15.  The fit is checked a
    posteriori, entrywise: |c_n - X_n rows[S]| <= tol plus (|S| + 1) eps
    (|c_n|_2 + |X_n| |rows[S]|), the rounding of the projections (which
    spreads over the whole row, hence its 2-norm) and of the check
    itself.  A zero row gets a zero row of X; rows must be finite.  The
    third value is each row's largest residual entry.
    """
    res = rows.copy()
    picked = []
    basis = np.empty((0, rows.shape[1]))
    for _ in range(min(rows.shape)):
        if not np.abs(res).max() > tol:
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
    skeleton = rows[picked]
    x = np.linalg.solve(coef[picked].T, coef.T).T
    for _ in range(2):  # coef[S] is ill-conditioned: refine X to rounding
        x += np.linalg.solve(coef[picked].T, ((rows - x @ skeleton) @ basis.T).T).T
    err = x @ skeleton
    err -= rows
    np.abs(err, out=err)
    bound = np.abs(x) @ np.abs(skeleton)
    bound += np.sqrt(np.einsum("ij,ij->i", rows, rows))[:, None]
    bound *= (len(picked) + 1) * np.finfo(float).eps
    bound += tol
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


def gen_sym_eigen(s, m):
    """Solve S*phi = lambda*M*phi for symmetric S and SPD M.

    s and m are the matrices, or zero-argument callables that assemble
    them.  Reduces to the standard problem on C = L^{-1} S L^{-T} where
    M = L L^T, then maps the orthonormal eigenvectors W back.
    Eigenvalues must come out strictly positive (S is expected SPD as
    well).  A full M is reduced with no solve: L^{-1} by 2 x 2 blocks
    (_tril_inverse), C as two GEMMs, symmetrized in place, and back =
    L^{-T} W, forward = (M back)^T as two more.  Each matrix is held only
    while it is needed: M until L is formed, L^{-1} (inverted in place
    over L) until C, S until L^{-1} S.  eigh never reads L^{-1}, so after
    it M is assembled again and L^{-1} rebuilt by the same operations,
    bit for bit, then M once more for forward.  Given assemblers
    (fem.build_fem_system passes its own), the live N x N arrays at eigh
    are C, eigh's copy of it, its 2 N^2 workspace and W: about 5.  A
    diagonal M (the lumped mass) takes L = diag(sqrt(m)) and applies
    L^{-1} as a product with the reciprocals 1/sqrt(m); under numpy's
    OpenBLAS that gives a Cholesky route's eigenvalues and back_transform
    bit for bit, where dividing by sqrt(m) does not.  Its forward is
    (sqrt(m) W)^T, not (M back)^T, and differs from the Cholesky route's
    by up to 6.9e-18.  M is then assembled only once.
    """
    assemble_s, assemble_m = _assembler(s), _assembler(m)
    mass = _check_square(assemble_m())
    n = mass.shape[0]
    diag = np.diagonal(mass).copy()
    lumped = np.count_nonzero(mass) == np.count_nonzero(diag)
    if lumped:
        del mass
        if not np.all(diag > 0.0):
            raise NotPositiveDefinite(
                "diagonal mass entry %.3e is not positive" % diag.min()
            )
        root = np.sqrt(diag)[:, None]
        inv = 1.0 / root
    else:
        ell = cholesky(mass)
        del mass
        inv = _tril_inverse(ell, out=ell)
        del ell
    stiff = _check_square(assemble_s())
    if stiff.shape != (n, n):
        raise NotPositiveDefinite(
            "operand shapes differ: %s vs %s" % (stiff.shape, (n, n))
        )
    _check_symmetric(stiff)
    # C = L^{-1} S L^{-T}, symmetrized to kill roundoff skew
    c = (stiff * inv).T * inv if lumped else inv @ stiff
    del stiff
    if not lumped:
        c = c @ inv.T
        del inv
    _symmetrize(c)
    try:
        w, vecs = np.linalg.eigh(_check_square(c))
    except np.linalg.LinAlgError as exc:
        raise NoConvergence(str(exc)) from exc
    del c
    if w[0] <= 0.0:
        raise NotPositiveDefinite("smallest eigenvalue %.3e is not positive" % w[0])
    if lumped:
        back = vecs * inv
        forward = (root * vecs).T
    else:
        ell = cholesky(assemble_m())
        back = _tril_inverse(ell, out=ell).T @ vecs
        del ell, vecs
        forward = (np.asarray(assemble_m(), dtype=float) @ back).T
    return EigenSystem(eigenvalues=w, back_transform=back, forward_transform=forward)


def _assembler(a):
    """a if it is a zero-argument assembler, else one that returns a."""
    return a if callable(a) else lambda: a


def _tril_inverse(ell, out=None):
    """L^{-1} of a nonsingular lower triangular L, by 2 x 2 blocks.

    [[A, 0], [B, D]]^{-1} = [[A^{-1}, 0], [-D^{-1} B A^{-1}, D^{-1}]]:
    np.linalg.inv (then tril) on diagonal blocks of at most BLOCK_ROWS
    rows, two GEMMs for each off-diagonal block, all written into out.
    out may be ell itself: each off-diagonal block's right-hand side
    reads B before the block is written, so inverting a factor from
    cholesky (zero above the diagonal) in place gives the same bits.
    """
    if out is None:
        out = np.zeros_like(ell)
    n = ell.shape[0]
    if n <= BLOCK_ROWS:
        out[...] = np.tril(np.linalg.inv(ell))
        return out
    h = n // 2
    _tril_inverse(ell[:h, :h], out[:h, :h])
    _tril_inverse(ell[h:, h:], out[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ (ell[h:, :h] @ out[:h, :h]))
    return out


def _symmetrize(c):
    """c <- (c + c^T) / 2 in place, one block of rows at a time."""
    for rows in _row_blocks(c.shape[0]):
        tail = slice(rows.start, None)
        avg = c[rows, tail] + c[tail, rows].T
        avg *= 0.5
        c[rows, tail] = avg
        c[tail, rows] = avg.T
