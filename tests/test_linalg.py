"""Dense symmetric linear algebra: factorizations, eigensystems, reductions."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from fracpos import kernel, linalg, semidiscrete
from fracpos.errors import NotPositiveDefinite, NumericalError
from fracpos.kernel import FracOperator


def test_gen_sym_eigen_diagonal_pair():
    s = np.diag([2.0, 8.0])
    m = np.diag([1.0, 2.0])
    eig = linalg.gen_sym_eigen(s, m)
    np.testing.assert_allclose(eig.eigenvalues, [2.0, 4.0], rtol=1e-14)


def test_gen_sym_eigen_scalar_pair():
    eig = linalg.gen_sym_eigen(np.array([[4.0]]), np.array([[0.25]]))
    np.testing.assert_allclose(eig.eigenvalues, [16.0], rtol=1e-14)


def test_gen_sym_eigen_matches_standard_problem_for_identity_mass():
    rng = np.random.default_rng(7)
    b = rng.standard_normal((12, 12))
    a = b @ b.T + 12.0 * np.eye(12)
    w_std = np.linalg.eigvalsh(a)
    eig = linalg.gen_sym_eigen(a, np.eye(12))
    np.testing.assert_allclose(eig.eigenvalues, w_std, rtol=1e-10)


def test_eigenvalues_ascending_and_complete():
    rng = np.random.default_rng(3)
    b = rng.standard_normal((20, 20))
    s = b @ b.T + 20.0 * np.eye(20)
    c = rng.standard_normal((20, 20))
    m = c @ c.T + 20.0 * np.eye(20)
    eig = linalg.gen_sym_eigen(s, m)
    assert eig.size == 20
    assert np.all(np.diff(eig.eigenvalues) >= 0.0)
    assert eig.eigenvalues[0] > 0.0


def test_transforms_are_mutual_inverses_and_reproduce_h():
    rng = np.random.default_rng(11)
    b = rng.standard_normal((15, 15))
    s = b @ b.T + 15.0 * np.eye(15)
    c = rng.standard_normal((15, 15))
    m = c @ c.T + 15.0 * np.eye(15)
    eig = linalg.gen_sym_eigen(s, m)
    np.testing.assert_allclose(
        eig.back_transform @ eig.forward_transform, np.eye(15), atol=1e-10
    )
    h = eig.matrix_function(eig.eigenvalues)
    np.testing.assert_allclose(h, np.linalg.solve(m, s), rtol=0, atol=1e-8)


@pytest.mark.parametrize(
    "family,method,kw",
    [("disk_medium", "sg", {}), ("crossed", "fve", {"m": 10})],
)
def test_eigen_transform_defect_on_meshes(get_system, family, method, kw):
    eig = get_system(family, method, **kw).eigen
    defect = eig.forward_transform @ eig.back_transform - np.eye(eig.size)
    assert np.abs(defect).max() <= 1e-13


def test_min_entries_of_identity_rows_is_exact(get_system):
    # a row of ones is read like any other row: I up to the rounding of
    # back @ forward (-1.1e-15 at M = 6), not an exact 0 or 1
    for m in (2, 6):
        sys = get_system("uniform", "sg", m=m)
        rows = np.ones((3, sys.size))
        rows[1, 0] = 0.5
        mins = sys.eigen.min_entries(rows)
        for k in range(3):
            want = sys.eigen.matrix_function(rows[k]).min()
            assert mins[k] == pytest.approx(want, rel=0.0, abs=1e-15)


def _per_row_max_norms(eig, rows):
    # the route max_norms replaces: one dense product per row
    return np.array([np.abs(eig.matrix_function(c)).sum(axis=1).max() for c in rows])


def _general(eig):
    # the same eigensystem read as if its mass were full: the general loop
    return dataclasses.replace(eig, lumped_mass=None)


def _check_max_norms(eig, rows):
    """max_norms of rows against one dense product per row; on a lumped
    system also the general loop, against both."""
    norms = eig.max_norms(rows)
    want = _per_row_max_norms(eig, rows)
    np.testing.assert_allclose(norms, want, rtol=0.0, atol=1e-13)
    if eig.lumped_mass is not None:
        general = _general(eig).max_norms(rows)
        np.testing.assert_allclose(general, want, rtol=0.0, atol=1e-13)
        np.testing.assert_allclose(norms, general, rtol=0.0, atol=1e-13)
    return norms


@pytest.mark.parametrize(
    "family, kw", [("uniform", {"m": 10}), ("crossed", {"m": 5}), ("disk_coarse", {})],
    ids=["uniform10", "crossed5", "disk_coarse"],
)
def test_lumped_matrix_functions_are_symmetric_over_the_mass(get_system, family, kw):
    # the identity the lumped max_norms read rests on: forward = back^T M,
    # so E M^{-1} is symmetric and E_ji = E_ij d_i / d_j for M = diag(d)
    system = get_system(family, "lm", **kw)
    eig = system.eigen
    d = eig.lumped_mass
    np.testing.assert_array_equal(d, np.diagonal(system.mass))
    rng = np.random.default_rng(3)
    kernel_row = kernel.u_lambda_many(FracOperator.single_term(0.5), eig.eigenvalues, 1e-3)
    for c in (np.ones(eig.size), rng.uniform(-1.0, 1.0, eig.size), kernel_row.ravel()):
        e = eig.matrix_function(c) / d[None, :]
        np.testing.assert_allclose(e, e.T, rtol=0.0, atol=1e-14 * np.abs(e).max())
    for method in ("sg", "fve"):
        assert get_system(family, method, **kw).eigen.lumped_mass is None


def test_lumped_max_norms_form_the_upper_block_triangle(get_system, monkeypatch):
    # a lumped system's read forms the columns a.. of each block of rows
    # a..a+b, about half of what the general loop forms, and matches it
    eig = get_system("uniform", "lm", m=10).eigen
    n = eig.size
    # n = N steps: one batch
    rows = kernel._r_rows(FracOperator.single_term(0.5), eig.eigenvalues, 1e-2, n)[1:]
    formed = []
    reduce = linalg.EigenSystem._skeleton_reduce

    def counting(self, batch, skel, fold, upper=False):
        def counted(block, c, i):
            formed[-1] += block.size
            fold(block, c, i)
        formed.append(0)
        return reduce(self, batch, skel, counted, upper)

    monkeypatch.setattr(linalg.EigenSystem, "_skeleton_reduce", counting)
    _check_max_norms(eig, rows)
    assert len(formed) == 2
    per_block = n // linalg._skeleton(rows)[0].shape[0]
    upper = sum(min(per_block, n - a) * (n - a) for a in range(0, n, per_block))
    assert formed == [rows.shape[0] * upper, rows.shape[0] * n * n]
    assert upper < 0.6 * n * n


@pytest.mark.parametrize(
    "family,method,m",
    [
        ("uniform", "lm", 4),
        ("uniform", "lm", 10),
        ("uniform", "lm", 20),
        ("uniform", "sg", 10),
        # unequal masses (1/150 to 1/75): weights d_i / d_j away from 1
        ("crossed", "lm", 5),
        ("counterexample", None, None),
    ],
    ids=["uniform-lm-4", "uniform-lm-10", "uniform-lm-20", "uniform-sg-10", "crossed-lm-5",
         "counterexample"],
)
@pytest.mark.parametrize(
    "op",
    [
        FracOperator.single_term(0.5),
        FracOperator.multi_term((0.5, 0.2)),
        FracOperator.distributed("exp"),
        FracOperator.single_term(1.0),
    ],
    ids=lambda op: op.label,
)
def test_max_norms_match_per_row_products(get_system, family, method, m, op):
    if family == "counterexample":
        # not diagonally dominant: the norms exceed one for small tau
        eig = linalg.gen_sym_eigen(np.array([[2.0, -3.0], [-3.0, 6.0]]), np.eye(2))
    else:
        eig = get_system(family, method, m=m).eigen
    for tau in (1e-4, 1e-2, 1.0):
        _check_max_norms(eig, kernel._r_rows(op, eig.eigenvalues, tau, 100)[1:])


def test_max_norms_edge_batches(get_system):
    eig = get_system("uniform", "lm", m=6).eigen
    n = eig.size
    assert eig.max_norms(np.empty((0, n))).shape == (0,)
    rng = np.random.default_rng(4)
    full = rng.uniform(-1.0, 1.0, (n, n))
    low = rng.uniform(0.0, 1.0, (3 * n + 2, 4)) @ rng.uniform(0.0, 1.0, (4, n))
    with np.errstate(all="raise"):
        # one row; a full-rank batch, whose skeleton is every row; a
        # low-rank batch longer than N, which goes in pieces of N rows
        assert linalg._skeleton(full)[0].shape[0] == n
        for rows in (full[:1], full, low):
            _check_max_norms(eig, rows)
        # zero rows read 0, alone and inside a batch, on both branches
        for reader in (eig, _general(eig)):
            assert np.array_equal(reader.max_norms(np.zeros((1, n))), [0.0])
            assert np.array_equal(reader.max_norms(np.zeros((3, n))), [0.0] * 3)
        rows = np.vstack([full[:3], np.zeros(n), full[3:5]])
        norms = _check_max_norms(eig, rows)
        assert norms[3] == 0.0 and _general(eig).max_norms(rows)[3] == 0.0
    # finite rows whose squared norms overflow break the skeleton's fit: a
    # NumericalError on both max_norms branches and in skeleton_min_entries
    huge = np.full((3, n), 1e308)
    huge[:, ::2] = -1e308
    with np.errstate(over="ignore", invalid="ignore"):
        for read in (eig.max_norms, _general(eig).max_norms, eig.skeleton_min_entries):
            with pytest.raises(NumericalError, match="skeleton"):
                read(huge)


def test_max_norms_block_extremes(get_system):
    eig = get_system("uniform", "lm", m=6).eigen
    n = eig.size
    rng = np.random.default_rng(9)
    # rank one: b = N rows of back in a single block, one row of X at a time
    one = rng.uniform(-1.0, 1.0, (7, 1)) @ rng.uniform(0.0, 1.0, (1, n))
    # rank four: b = N // 4 and k' = N // b rows of X, which do not divide k
    four = rng.uniform(0.0, 1.0, (10, 4)) @ rng.uniform(0.0, 1.0, (4, n))
    per_combine = n // (n // 4)
    assert four.shape[0] % per_combine != 0
    for rows, r in ((one, 1), (four, 4)):
        assert linalg._skeleton(rows)[0].shape[0] == r
        _check_max_norms(eig, rows)


def _first_step_rows(eig, op, grid):
    # the fully discrete scan's coefficient rows omega_0 / (omega_0 + lambda)
    omega0 = kernel.cq_weights(op, grid, 0)
    return omega0 / (omega0 + eig.eigenvalues)


SKELETON_MIN_SYSTEMS = [
    pytest.param(f, m, kw, id="%s%s-%s" % (f, kw.get("m", ""), m), marks=marks)
    for f, m, kw, marks in [
        ("disk_coarse", "fve", {}, ()),
        ("uniform", "sg", {"m": 10}, ()),
        ("crossed", "lm", {"m": 5}, ()),
        ("sliver", "sg", {"m": 10}, ()),
        ("lshape_coarse", "sg", {}, ()),
        # N = 583: the exact comparison takes about 1.5 s per operator
        ("disk_medium", "sg", {}, pytest.mark.extended),
        # a dist(exp) row fits only to 1.0e-14, so it is evaluated exactly
        ("disk_medium", "fve", {}, pytest.mark.extended),
    ]
]

FD_OPERATORS = [
    FracOperator.single_term(0.5),
    FracOperator.multi_term((0.5, 0.2)),
    FracOperator.distributed("exp"),
]


@pytest.mark.parametrize("family, method, kw", SKELETON_MIN_SYSTEMS)
@pytest.mark.parametrize("op", FD_OPERATORS, ids=lambda op: op.label)
def test_skeleton_min_entries_within_stated_bound(get_system, family, method, kw, op):
    eig = get_system(family, method, **kw).eigen
    rows = _first_step_rows(eig, op, np.geomspace(1e-8, 1e2, 251))
    mins, bound = eig.skeleton_min_entries(rows)
    exact = eig.min_entries(rows)
    assert np.all(np.abs(mins - exact) <= bound)
    # the band the threshold scans hold their curves to
    assert np.abs(mins - exact).max() <= 1e-15


@pytest.mark.parametrize("op", FD_OPERATORS, ids=lambda op: op.label)
def test_skeleton_of_fd_rows_is_near_svd_rank_and_well_conditioned(get_system, op):
    # the 251-point fd curve rows of disk_medium sg are one batch (N = 583);
    # a stop on the residual 2-norm would keep 73 / 72 / 126 rows, max |X| 18.8
    eig = get_system("disk_medium", "sg").eigen
    rows = _first_step_rows(eig, op, np.geomspace(1e-8, 1e2, 251))
    skeleton, x, resid = linalg._skeleton(rows)
    r = skeleton.shape[0]
    sv = np.linalg.svd(rows, compute_uv=False)
    assert r <= np.count_nonzero(sv > 1e-15 * sv[0]) + 5
    assert np.abs(x).max() <= 2.0
    # within SKELETON_TOL plus the rounding of X @ rows[S] alone, tighter than
    # _skeleton's own check, which also admits its projections' rounding
    combine = (r + 1) * np.finfo(float).eps * (np.abs(x) @ np.abs(skeleton)).max(axis=1)
    assert np.all(resid <= linalg.SKELETON_TOL + combine)


def test_skeleton_min_entries_route(get_system):
    single = FracOperator.single_term(0.5)
    # disk_coarse fve (N = 135): about 22 skeleton rows per batch of 135
    eig = get_system("disk_coarse", "fve").eigen
    rows = _first_step_rows(eig, single, np.geomspace(1e-8, 1e2, 251))
    assert linalg._skeleton(rows[:eig.size])[0].shape[0] < eig.size // 2
    mins, bound = eig.skeleton_min_entries(rows)
    assert np.all(bound > 0.0)
    assert np.any(mins != eig.min_entries(rows))
    # a row of ones is read like its neighbours on either route: within its
    # bound of min_entries through a skeleton, equal to it below the size rule
    rows[7] = 1.0
    mins, bound = eig.skeleton_min_entries(rows)
    assert 0.0 < bound[7] and abs(mins[7] - eig.min_entries(rows[7:8])[0]) <= bound[7]
    tiny = get_system("uniform", "lm", m=2).eigen
    ones = np.ones((2, 1))
    mins, bound = tiny.skeleton_min_entries(ones)
    np.testing.assert_array_equal(mins, tiny.min_entries(ones))
    np.testing.assert_array_equal(bound, 0.0)
    # disk_medium sg (N = 583) on k = 25 points: rank r = 25, and r (1 + k/N)
    # >= k, so no product is saved and every row goes to min_entries
    eig = get_system("disk_medium", "sg").eigen
    rows = _first_step_rows(eig, single, np.geomspace(1e-8, 1e-2, 25))
    r = linalg._skeleton(rows)[0].shape[0]
    assert r * (1 + rows.shape[0] / eig.size) >= rows.shape[0]
    mins, bound = eig.skeleton_min_entries(rows)
    np.testing.assert_array_equal(mins, eig.min_entries(rows))
    np.testing.assert_array_equal(bound, 0.0)


@pytest.mark.parametrize("op", FD_OPERATORS, ids=lambda op: op.label)
def test_loosely_fitted_rows_are_evaluated_exactly(get_system, op):
    # semidiscrete rows carry the kernel's 3.4e-12 noise: at a fit tolerance
    # of 1e-12 they compress (about 25-33 of the first 196 rows against
    # 149-179 at SKELETON_TOL), and every row fitted worse than SKELETON_TOL
    # is evaluated exactly on the matrix rows that can hold its minimum
    eig = get_system("uniform", "sg", m=15).eigen
    n = eig.size
    rows = kernel.u_lambda_many(op, eig.eigenvalues, np.geomspace(1e-8, 1e2, 251))
    tol = semidiscrete.KERNEL_SKELETON_TOL
    _, _, resid = linalg._skeleton(rows[:n], tol)
    assert linalg._skeleton(rows[:n], tol)[0].shape[0] < linalg._skeleton(rows[:n])[0].shape[0] // 4
    loose = np.flatnonzero(resid > linalg.SKELETON_TOL)
    assert loose.size > n // 2
    mins, bound = eig.skeleton_min_entries(rows, tol)
    exact = eig.min_entries(rows)
    assert np.all(np.abs(mins - exact) <= bound)
    assert np.abs(mins - exact).max() <= 1e-15
    # an exactly evaluated row's bound is the rounding of two products
    scale = (np.abs(eig.back_transform) @ np.abs(eig.forward_transform)).max()
    rounding = 2 * (n + 1) * np.finfo(float).eps * np.abs(rows[loose]).max(axis=1) * scale
    np.testing.assert_array_equal(bound[loose], rounding)
    assert bound[loose].max() < 0.1 * tol
    # a decide read stops before that stage: the skeleton's minima, each
    # within its stated bound, and no loosely fitted row evaluated exactly
    decided, stated = eig.skeleton_min_entries(rows, tol, decide=True)
    assert np.all(np.abs(decided - exact) <= stated)
    assert np.any(decided[loose] != mins[loose])
    tight = np.setdiff1d(np.arange(n), loose)
    np.testing.assert_array_equal(decided[tight], mins[tight])


def _cholesky_route(s, m):
    # the reduction for a general mass: Cholesky factor, then LU solves
    ell = np.linalg.cholesky(m)
    c = np.linalg.solve(ell, s)
    c = np.linalg.solve(ell, c.T)
    w, vecs = np.linalg.eigh(0.5 * (c + c.T))
    return linalg.EigenSystem(w, np.linalg.solve(ell.T, vecs), (ell @ vecs).T)


@pytest.mark.parametrize(
    "family,kw",
    [("uniform", {"m": 20}), ("crossed", {"m": 5}), ("sliver", {"m": 10}), ("disk_coarse", {})],
    ids=["uniform-20", "crossed-5", "sliver-10", "disk_coarse"],
)
def test_lumped_mass_scaling_matches_cholesky_route(get_system, family, kw):
    sys = get_system(family, "lm", **kw)
    got = linalg.gen_sym_eigen(sys.stiffness, sys.mass)
    want = _cholesky_route(sys.stiffness, sys.mass)
    np.testing.assert_allclose(got.eigenvalues, want.eigenvalues, rtol=1e-13)
    # eigenvectors of a degenerate eigenspace depend on the BLAS; the
    # matrix function does not
    np.testing.assert_allclose(
        got.matrix_function(np.exp(-1e-3 * got.eigenvalues)),
        want.matrix_function(np.exp(-1e-3 * want.eigenvalues)),
        rtol=0.0,
        atol=1e-13,
    )


@pytest.mark.parametrize("entry", [0.0, -1.0])
def test_lumped_mass_rejects_nonpositive_entry(entry):
    with pytest.raises(NotPositiveDefinite):
        linalg.gen_sym_eigen(np.eye(3), np.diag([1.0, entry, 2.0]))


class _FactorCalled(Exception):
    pass


def test_lumped_mass_takes_no_solve(get_system, monkeypatch):
    # the lumped route factors nothing; a full mass is Cholesky-factored
    lm = get_system("uniform", "lm", m=6)
    sg = get_system("uniform", "sg", m=6)

    def refuse(*args, **kw):
        raise _FactorCalled

    monkeypatch.setattr(linalg.np.linalg, "cholesky", refuse)
    monkeypatch.setattr(linalg.np.linalg, "solve", refuse)
    linalg.gen_sym_eigen(lm.stiffness, lm.mass)
    with pytest.raises(_FactorCalled):
        linalg.gen_sym_eigen(sg.stiffness, sg.mass)


@pytest.mark.parametrize("method", ["sg", "fve", "lm"])
def test_gen_sym_eigen_peak_memory(get_system, method):
    # next to S and M, the reduction holds L^{-1} (a vector when M is
    # lumped) and C, then C alone at eigh (for a full M), then eigh's
    # eigenvectors, L^{-1} again and the two transforms: a numpy-visible
    # peak of about 3 N x N matrices on either route
    sys = get_system("disk_medium", method)
    n = sys.size
    # read before the trace: a system assembles its matrices on first read
    stiffness, mass = sys.stiffness, sys.mass
    tracemalloc.start()
    try:
        linalg.gen_sym_eigen(stiffness, mass)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * n * n * 8


@pytest.mark.parametrize("n", [1, 5, 128, 129, 300])
def test_tril_inverse_in_place_matches_out_of_place(n):
    # sizes on both sides of BLOCK_ROWS, so the blocked recursion runs
    rng = np.random.default_rng(n)
    b = rng.standard_normal((n, n))
    ell = linalg.cholesky(b @ b.T + n * np.eye(n))
    want = linalg._tril_inverse(ell)
    got = linalg._tril_inverse(ell, out=ell)
    assert got is ell
    np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [2, 5, 17, 50])
def test_cholesky_roundtrip(n):
    rng = np.random.default_rng(n)
    b = rng.standard_normal((n, n))
    a = b @ b.T + n * np.eye(n)
    ell = linalg.cholesky(a)
    assert np.allclose(ell, np.tril(ell))
    np.testing.assert_allclose(ell @ ell.T, a, rtol=0, atol=1e-10 * np.abs(a).max())


def test_cholesky_rejects_indefinite():
    with pytest.raises(NotPositiveDefinite):
        linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_cholesky_rejects_asymmetric():
    with pytest.raises(NotPositiveDefinite):
        linalg.cholesky(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_cholesky_rejects_nonsquare_and_nonfinite():
    with pytest.raises(NotPositiveDefinite):
        linalg.cholesky(np.ones((2, 3)))
    with pytest.raises(NotPositiveDefinite):
        linalg.cholesky(np.array([[1.0, 0.0], [0.0, np.nan]]))


def test_gen_sym_eigen_rejects_indefinite_stiffness():
    with pytest.raises(NotPositiveDefinite):
        linalg.gen_sym_eigen(np.array([[-1.0]]), np.array([[1.0]]))


def test_gen_sym_eigen_rejects_shape_mismatch():
    with pytest.raises(NotPositiveDefinite):
        linalg.gen_sym_eigen(np.eye(3), np.eye(2))
