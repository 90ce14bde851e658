"""Backward Euler stepping, first-step bounds, scale laws, contractivity."""

import math
import tracemalloc

import numpy as np
import oracles
import pytest
import scipy.linalg

from fracpos import cli, fem, fullydiscrete, kernel, linalg, semidiscrete
from fracpos.errors import InvalidParameter, NumericalError
from fracpos.kernel import FracOperator

SINGLE = FracOperator.single_term(0.5)
MULTI = FracOperator.multi_term((0.5, 0.2))
DIST = FracOperator.distributed("exp")
ALL_OPS = (SINGLE, MULTI, DIST)


# stepping


def test_scalar_first_step(get_system):
    sys = get_system("uniform", "lm", m=2)
    hist = oracles.step_solution(sys, SINGLE, 1.0, 1, np.array([1.0]))
    assert len(hist) == 2  # U^0 and U^1
    assert hist[-1][0] == pytest.approx(1.0 / 17.0, rel=1e-14)
    np.testing.assert_array_equal(hist[0], [1.0])


def test_zero_data_stays_zero(get_system):
    sys = get_system("uniform", "sg", m=4)
    hist = oracles.step_solution(sys, SINGLE, 0.1, 12, np.zeros(sys.size))
    np.testing.assert_array_equal(hist, 0.0)


def test_step_residual_identity(get_system):
    # each step satisfies (w0 M + S) U^m = M (csum_{m-1} V - sum w_{m-j} U^j)
    sys = get_system("uniform", "fve", m=4)
    rng = np.random.default_rng(2)
    v = rng.random(sys.size)
    hist = oracles.step_solution(sys, MULTI, 0.05, 9, v)
    w = kernel.cq_weights(MULTI, 0.05, 9)
    csum = np.cumsum(w)
    a = w[0] * sys.mass + sys.stiffness
    for m in range(1, 10):
        rhs = csum[m - 1] * v
        if m > 1:
            rhs -= np.tensordot(w[m - 1:0:-1], hist[1:m], axes=1)
        lhs = a @ hist[m]
        want = sys.mass @ rhs
        assert np.abs(lhs - want).max() <= 1e-10 * max(np.abs(want).max(), 1.0)


def test_matrix_and_vector_paths_agree(get_system):
    sys = get_system("uniform", "sg", m=4)
    rng = np.random.default_rng(8)
    v = rng.random(sys.size)
    full = oracles.step_solution(sys, SINGLE, 0.02, 7, np.eye(sys.size))
    vec = oracles.step_solution(sys, SINGLE, 0.02, 7, v)
    np.testing.assert_allclose(full[-1] @ v, vec[-1], rtol=1e-12)


@pytest.mark.parametrize("method", fem.METHODS)
@pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.label)
def test_stepping_matches_modal_form(get_system, method, op):
    sys = get_system("uniform", method, m=4)
    tau, n = 0.05, 16
    stepped = oracles.step_solution(sys, op, tau, n, np.eye(sys.size))
    modal = sys.eigen.matrix_function(
        kernel.r_scalar_many(op, sys.eigen.eigenvalues, tau, n)
    )
    np.testing.assert_allclose(stepped[-1], modal, atol=1e-9)


def test_stepping_matches_modal_on_crossed_lm(get_system):
    sys = get_system("crossed", "lm", m=3)
    stepped = oracles.step_solution(sys, SINGLE, 0.1, 32, np.eye(sys.size))
    modal = sys.eigen.matrix_function(
        kernel.r_scalar_many(SINGLE, sys.eigen.eigenvalues, 0.1, 32)
    )
    np.testing.assert_allclose(stepped[-1], modal, atol=1e-9)


# first-step matrix and omega bounds


def test_first_step_matrix_identities(get_system):
    # the spectral E_{1,tau} against a Cholesky solve of the pencil
    cases = (
        ("uniform", "sg", {"m": 4}),
        ("crossed", "lm", {"m": 3}),
        ("sliver", "fve", {"m": 10}),
    )
    for family, method, kw in cases:
        sys = get_system(family, method, **kw)
        lams = sys.eigen.eigenvalues
        for tau in (1e-6, 0.3, 100.0):
            omega0 = kernel.cq_weights(SINGLE, tau, 0)[0]
            got = sys.eigen.matrix_function(omega0 / (omega0 + lams))
            factor = scipy.linalg.cho_factor(omega0 * sys.mass + sys.stiffness)
            want = omega0 * scipy.linalg.cho_solve(factor, sys.mass)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
            modal = sys.eigen.matrix_function(kernel.r_scalar_many(SINGLE, lams, tau, 1))
            np.testing.assert_allclose(got, modal, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.label)
def test_scan_first_step_rows_are_the_steppers(get_system, monkeypatch, op):
    # the scan's omega_0 / (omega_0 + lambda) is r_{1,tau}: one formula for
    # omega_0, a row of cq_weights per step size
    sys = get_system("uniform", "sg", m=6)
    seen = []

    def recording(system, scan_op, coeffs, *args, **kwargs):
        seen.append(coeffs)
        return semidiscrete.scan_threshold(system, scan_op, coeffs, *args, **kwargs)

    monkeypatch.setattr(fullydiscrete, "scan_threshold", recording)
    fullydiscrete.fd_positivity_threshold(sys, op)
    grid = semidiscrete.ScanSpec().grid()
    rows = seen[0](grid)
    lams = sys.eigen.eigenvalues
    each = [kernel._r_rows(op, lams, tau, 1)[1] for tau in grid]
    if len(op.terms[0]) == 1:
        np.testing.assert_array_equal(rows, each)
    else:
        np.testing.assert_allclose(rows, each, rtol=1e-15)


def test_first_step_bound_equilateral_sharp(get_system):
    # every neighbor ratio equals 8 m^2, so all three bounds coincide
    sys = get_system("equilateral", "sg", m=4)
    certified, stated = oracles.neighbor_pair_bounds(sys)
    assert certified == pytest.approx(128.0, rel=1e-12)
    assert stated == pytest.approx(128.0, rel=1e-12)
    assert math.isclose(certified, stated, rel_tol=1e-12, abs_tol=0.0)
    assert oracles.first_step_omega(sys) == pytest.approx(128.0, rel=2e-3)


def test_first_step_bound_uniform_forms_split(get_system):
    # decoupled diagonal pairs force the certified bound to zero while the
    # max-form quotes 12/h^2; the true bisected value sits in between
    sys = get_system("uniform", "sg", m=4)
    certified, stated = oracles.neighbor_pair_bounds(sys)
    assert certified == 0.0
    assert stated == pytest.approx(192.0, rel=1e-12)
    assert not math.isclose(certified, stated, rel_tol=1e-12, abs_tol=0.0)
    assert 0.0 < oracles.first_step_omega(sys) < stated
    # the max-form is genuinely unsafe: its omega_0 has a negative entry
    mat = sys.eigen.matrix_function(stated / (stated + sys.eigen.eigenvalues))
    assert mat.min() < 0.0


@pytest.mark.parametrize("scale", [1e-6, 1e3])
def test_first_step_bound_scales_with_stiffness(get_system, scale):
    # omega_0 (omega_0 M + S)^{-1} M depends on omega_0 / S only, so scaling
    # S scales the bisected bound; no absolute clamp may cap the search
    sys = get_system("uniform", "sg", m=6)
    base = oracles.first_step_omega(sys)
    scaled = fem.system_from_matrices(sys.mass, scale * sys.stiffness)
    assert oracles.first_step_omega(scaled) == pytest.approx(scale * base, rel=5e-3)


@pytest.mark.parametrize("method", fem.METHODS)
@pytest.mark.parametrize(
    "family, kw",
    [
        ("uniform", {"m": 3}),
        ("uniform", {"m": 10}),
        ("crossed", {"m": 5}),
        ("sliver", {"m": 10}),
        ("equilateral", {"m": 4}),
        ("lshape_coarse", {}),
        ("disk_coarse", {}),
        pytest.param("disk_medium", {}, marks=pytest.mark.extended),
    ],
)
def test_first_step_bounds_need_only_the_matrices(get_system, family, kw, method):
    # the certified bound reads only entries of M and S, and it is
    # sufficient: no omega_0 below it may break E_{1,tau} >= 0, so it sits
    # below the scanner's omega_0* up to the bisection's 0.2% bracket
    sys = get_system(family, method, **kw)
    certified, _ = oracles.neighbor_pair_bounds(sys)
    omega = oracles.first_step_omega(sys)
    if omega is None:
        assert certified == 0.0
    else:
        assert certified <= omega * (1.0 + 2e-3)


def test_first_step_bound_lm_unbounded(get_system):
    sys = get_system("uniform", "lm", m=4)
    assert oracles.first_step_omega(sys) == math.inf
    assert oracles.neighbor_pair_bounds(sys)[0] == math.inf


def test_first_step_bound_sliver_lm_none(get_system):
    sys = get_system("sliver", "lm", m=10)
    assert oracles.first_step_omega(sys) is None
    assert oracles.neighbor_pair_bounds(sys)[0] == 0.0


# tau thresholds


def test_fd_threshold_structure(get_system):
    sys = get_system("uniform", "sg", m=6)
    rep = fullydiscrete.fd_positivity_threshold(sys, SINGLE, curve=True)
    assert rep.found
    lo, hi = rep.bracket
    assert lo <= rep.value <= hi
    # no negative entry at any scanned tau beyond the bracket
    t, m = rep.curve[:, 0], rep.curve[:, 1]
    assert not (m[t > hi] < -rep.tolerance).any()
    assert (m[t < rep.value] < -rep.tolerance).any()


def test_fd_threshold_lm_all_nonnegative(get_system):
    rep = fullydiscrete.fd_positivity_threshold(
        get_system("uniform", "lm", m=6), SINGLE
    )
    assert rep.status == "all-nonnegative"


def test_fd_threshold_crossed_lm_found(get_system):
    rep = fullydiscrete.fd_positivity_threshold(
        get_system("crossed", "lm", m=3), SINGLE
    )
    assert rep.found


def test_fd_threshold_from_a_low_end_under_the_floor(get_system):
    # at tau = 1e-30 E_{1,tau} is nearly I: its smallest entry, about
    # -1e-13, reads nonnegative against tol = 8.1e-11, so the ends bracket
    # nothing and the scan reads top-down to the default grid's threshold
    sys = get_system("uniform", "sg", m=10)
    default = fullydiscrete.fd_positivity_threshold(sys, SINGLE)
    scan = semidiscrete.ScanSpec(1e-30, 1e2)
    rep = fullydiscrete.fd_positivity_threshold(sys, SINGLE, scan=scan)
    assert rep.found
    assert rep.value == pytest.approx(default.value, rel=2e-3)
    # the whole-grid read decides the same
    read = fullydiscrete.fd_positivity_threshold(sys, SINGLE, scan=scan, curve=True)
    assert -read.tolerance < read.curve[0, 1] < 0.0
    assert (read.status, read.value, read.bracket) == (rep.status, rep.value, rep.bracket)


def test_fd_threshold_rejects_short_scan(get_system):
    with pytest.raises(InvalidParameter):
        fullydiscrete.fd_positivity_threshold(
            get_system("uniform", "sg", m=4),
            SINGLE,
            scan=semidiscrete.ScanSpec(start=1e-4, stop=1e-2),
        )


@pytest.mark.parametrize(
    "family, method, kw",
    [("uniform", "sg", {"m": 10}), ("lshape_coarse", "fve", {}), ("disk_medium", "sg", {})],
    ids=lambda x: str(x),
)
def test_fd_batched_curve_matches_first_step_matrices(get_system, family, method, kw):
    sys = get_system(family, method, **kw)
    rep = fullydiscrete.fd_positivity_threshold(
        sys, SINGLE, scan=semidiscrete.ScanSpec(start=1e-8, stop=1e-2, per_decade=4),
        curve=True,
    )
    omegas = [kernel.cq_weights(SINGLE, tau, 0)[0] for tau in rep.curve[:, 0]]
    each = [
        sys.eigen.matrix_function(omega0 / (omega0 + sys.eigen.eigenvalues)).min()
        for omega0 in omegas
    ]
    if sys.size * sys.size > linalg.BLOCK_ENTRIES // 2:
        # disk_medium sg on k = 25 points: rank r = 25, so r (1 + k/N) >= k
        # and the curve comes from min_entries, one product per point
        omega0 = np.array(omegas)[:, None]
        r = linalg._skeleton(omega0 / (omega0 + sys.eigen.eigenvalues))[0].shape[0]
        assert r * (1 + len(omegas) / sys.size) >= len(omegas)
        np.testing.assert_array_equal(rep.curve[:, 1], each)
    else:
        np.testing.assert_allclose(rep.curve[:, 1], each, rtol=0.0, atol=1e-15)


def test_threshold_scans_memory_stays_bounded(get_system):
    # disk_medium sg has N = 583; one N x N matrix is about 2.7 MB, so the
    # wide products and the kernel chunks must stay a few matrices in size
    sys = get_system("disk_medium", "sg")
    tracemalloc.start()
    try:
        semi = semidiscrete.positivity_threshold(sys, SINGLE, curve=True)
        fully = fullydiscrete.fd_positivity_threshold(sys, SINGLE, curve=True)
        # the skeleton reads of the whole time and step-size grids
        assert semi.curve.shape == (semidiscrete.ScanSpec().points, 2)
        assert fully.curve.shape == (semidiscrete.ScanSpec().points, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert semi.found and fully.found
    assert peak < 12 * 2**20


def _table_systems():
    """(table, family, method, level kwargs) of every default table system."""
    for num, spec in sorted(cli._TABLES.items()):
        level = spec["levels"][0]
        family = spec.get("family") or "%s_%s" % (spec["bundled"], level)
        kw = {"m": level} if "family" in spec else {}
        for method in spec["methods"]:
            yield pytest.param(
                num, family, method, kw, id="table%d-%s-%s" % (num, family, method)
            )


@pytest.mark.parametrize("table, family, method, kw", list(_table_systems()))
def test_one_first_step_omega_per_table_system(get_system, table, family, method, kw):
    # E_{1,tau} depends on tau only through omega_0 = P(1/tau), which
    # decreases in tau: every operator's bracket maps to one omega_0 range
    sys = get_system(family, method, **kw)
    lo, hi = 0.0, math.inf
    for name in cli._TABLES[table]["ops"]:
        op = cli._OPS[name]()
        rep = fullydiscrete.fd_positivity_threshold(sys, op)
        assert rep.found
        tau_lo, tau_hi = rep.bracket
        lo = max(lo, kernel.cq_weights(op, tau_hi, 0)[0])
        hi = min(hi, kernel.cq_weights(op, tau_lo, 0)[0])
    assert lo <= hi
    omega = oracles.first_step_omega(sys)
    assert lo * (1.0 - 2e-3) <= omega <= hi * (1.0 + 2e-3)


def test_lemma_propagation_first_step_to_all_steps(get_system):
    # whenever E_{1,tau} >= 0, stepping stays nonnegative for all later n
    sys = get_system("uniform", "sg", m=4)
    rep = fullydiscrete.fd_positivity_threshold(sys, SINGLE)
    tau = 2.0 * rep.value
    first = kernel.r_scalar_many(SINGLE, sys.eigen.eigenvalues, tau, 1)
    assert sys.eigen.matrix_function(first).min() >= -1e-13
    hist = oracles.step_solution(sys, SINGLE, tau, 200, np.eye(sys.size))
    assert hist.min() >= -1e-10 * sys.size


def test_theorem_monotonicity_in_tau(get_system):
    sys = get_system("uniform", "fve", m=6)
    rep = fullydiscrete.fd_positivity_threshold(sys, SINGLE)
    for factor in (1.5, 4.0, 32.0, 1000.0):
        tau = factor * rep.value
        mat = sys.eigen.matrix_function(
            kernel.r_scalar_many(SINGLE, sys.eigen.eigenvalues, tau, 1)
        )
        assert mat.min() >= -1e-13


# scale law


def test_weight_scale_law_two_levels():
    slope, hs, taus = oracles.scale_law("uniform", 0.5, (5, 10))
    assert len(hs) == 2
    assert hs[0] > hs[1]
    assert taus[0] > taus[1]
    # tau_0 ~ h^{2/alpha} = h^4, still steepening toward it at these sizes
    assert 3.0 < slope < 5.0


# convergence


def test_convergence_rate_first_order(get_system):
    sys = get_system("uniform", "lm", m=4)
    rate, errors = fullydiscrete.convergence_rate(
        sys, SINGLE, 0.1, (16, 32, 64, 128, 256)
    )
    assert 0.85 <= rate <= 1.3
    assert np.all(np.diff(errors[:, 1]) < 0.0)
    np.testing.assert_array_equal(errors[:, 0], (16, 32, 64, 128, 256))


# contractivity


def test_contractivity_on_uniform_lm(get_system):
    sys = get_system("uniform", "lm", m=6)
    assert fem.is_diagonally_dominant(sys.stiffness)
    reports = fullydiscrete.max_norm_contractivity_check(
        sys, SINGLE, (1e-2, 1.0), n_max=40
    )
    assert [r.tau for r in reports] == [1e-2, 1.0]
    for r in reports:
        assert r.contractive
        assert r.max_norm <= 1.0 + 1e-10
        assert r.norms[0] == pytest.approx(1.0, abs=1e-14)
        assert r.norms.shape == (41,)


def test_contractivity_norms_match_stepping(get_system):
    # the spectral norms against Cholesky stepping of the identity
    counter = fem.system_from_matrices(
        np.eye(2), np.array([[2.0, -3.0], [-3.0, 6.0]])
    )
    for sys, n in ((get_system("uniform", "lm", m=6), 30), (counter, 10)):
        for op in (SINGLE, DIST):
            taus = (1e-4, 1e-2, 1.0)
            reports = fullydiscrete.max_norm_contractivity_check(sys, op, taus, n_max=n)
            for tau, rep in zip(taus, reports):
                hist = oracles.step_solution(sys, op, tau, n, np.eye(sys.size))
                stepped = np.abs(hist).sum(axis=2).max(axis=1)
                assert rep.norms[0] == 1.0
                np.testing.assert_allclose(rep.norms, stepped, rtol=0.0, atol=1e-12)


def test_contractivity_memory_is_one_matrix_at_a_time(get_system):
    # uniform M=20 lm has N = 361; a stored (n+1) x N x N history would be
    # about 105 MB, one N x N matrix is about 1 MB
    sys = get_system("uniform", "lm", m=20)
    tracemalloc.start()
    try:
        reports = fullydiscrete.max_norm_contractivity_check(
            sys, SINGLE, (1e-2,), n_max=100
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reports[0].contractive
    assert peak < 16 * 2**20


def test_contractivity_memory_for_many_steps(get_system):
    # n_max = 2000 > N = 361: the rows alone take 5.5 MB, and a reduction
    # holding an N x n_max array of row sums or residuals would double that
    sys = get_system("uniform", "lm", m=20)
    tracemalloc.start()
    try:
        reports = fullydiscrete.max_norm_contractivity_check(
            sys, SINGLE, (1e-2,), n_max=2000
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert reports[0].contractive
    assert peak < 10 * 2**20


def test_contractivity_of_zero_steps_is_the_identity(get_system):
    sys = get_system("uniform", "lm", m=4)
    reports = fullydiscrete.max_norm_contractivity_check(
        sys, SINGLE, (1e-2, 1.0), n_max=0
    )
    for rep in reports:
        assert rep.norms.tolist() == [1.0] and rep.max_norm == 1.0 and rep.contractive
    with pytest.raises(InvalidParameter):
        fullydiscrete.max_norm_contractivity_check(sys, SINGLE, (1e-2,), n_max=-1)
    with pytest.raises(InvalidParameter):
        fullydiscrete.max_norm_contractivity_check(sys, SINGLE, (-1.0,), n_max=0)


def test_contractivity_rejects_a_non_finite_row(get_system, monkeypatch):
    sys = get_system("uniform", "lm", m=4)
    rows_of = kernel._r_rows

    def doctored(*args):
        rows = rows_of(*args)
        rows[7, 3] = np.nan
        return rows

    monkeypatch.setattr(kernel, "_r_rows", doctored)
    with pytest.raises(NumericalError, match="step count n=7"):
        fullydiscrete.max_norm_contractivity_check(sys, SINGLE, (1e-2,), n_max=10)


def test_contractivity_counterexample_without_dominance():
    # positive definite with nonpositive off-diagonals, but row 0 is not
    # diagonally dominant; the first-step norm then exceeds one for small tau
    s = np.array([[2.0, -3.0], [-3.0, 6.0]])
    sys = fem.system_from_matrices(np.eye(2), s)
    assert not fem.is_diagonally_dominant(s)
    reports = fullydiscrete.max_norm_contractivity_check(
        sys, SINGLE, (1e-4,), n_max=10
    )
    assert not reports[0].contractive
    assert reports[0].max_norm > 1.0 + 1e-10
