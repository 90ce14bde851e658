"""Dense symmetric linear algebra: factorizations, eigensystems, solves."""

import numpy as np
import pytest

from fracpos import linalg
from fracpos.errors import NotPositiveDefinite


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
    w_std, _ = linalg.sym_eigen(a)
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
    for m, want in ((2, 1.0), (6, 0.0)):
        sys = get_system("uniform", "sg", m=m)
        rows = np.ones((3, sys.size))
        rows[1, 0] = 0.5
        mins = sys.eigen.min_entries(rows)
        assert mins[0] == want and mins[2] == want
        want_mid = sys.eigen.matrix_function(rows[1]).min()
        assert mins[1] == pytest.approx(want_mid, rel=0.0, abs=1e-15)


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
