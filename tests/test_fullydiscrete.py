"""Backward Euler stepping, first-step bounds, scale laws, contractivity."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from fracpos import cli, fem, fullydiscrete, kernel, linalg, semidiscrete
from fracpos.errors import InvalidParameter, NoConvergence
from fracpos.kernel import FracOperator

SINGLE = FracOperator.single_term(0.5)
MULTI = FracOperator.multi_term((0.5, 0.2))
DIST = FracOperator.distributed("exp")
ALL_OPS = (SINGLE, MULTI, DIST)


# stepping


def test_scalar_first_step(get_system):
    sys = get_system("uniform", "lm", m=2)
    state = fullydiscrete.step_solution(sys, SINGLE, 1.0, 1, np.array([1.0]))
    assert state.steps == 1
    assert state.solution[0] == pytest.approx(1.0 / 17.0, rel=1e-14)
    np.testing.assert_array_equal(state.history[0], [1.0])


def test_zero_data_stays_zero(get_system):
    sys = get_system("uniform", "sg", m=4)
    state = fullydiscrete.step_solution(sys, SINGLE, 0.1, 12, np.zeros(sys.size))
    np.testing.assert_array_equal(state.history, 0.0)


def test_step_residual_identity(get_system):
    # each step satisfies (w0 M + S) U^m = M (csum_{m-1} V - sum w_{m-j} U^j)
    sys = get_system("uniform", "fve", m=4)
    rng = np.random.default_rng(2)
    v = rng.random(sys.size)
    state = fullydiscrete.step_solution(sys, MULTI, 0.05, 9, v)
    w = state.weights
    csum = np.cumsum(w)
    a = w[0] * sys.mass + sys.stiffness
    for m in range(1, 10):
        rhs = csum[m - 1] * v
        if m > 1:
            rhs -= np.tensordot(w[m - 1:0:-1], state.history[1:m], axes=1)
        lhs = a @ state.history[m]
        want = sys.mass @ rhs
        assert np.abs(lhs - want).max() <= 1e-10 * max(np.abs(want).max(), 1.0)


def test_matrix_and_vector_paths_agree(get_system):
    sys = get_system("uniform", "sg", m=4)
    rng = np.random.default_rng(8)
    v = rng.random(sys.size)
    full = fullydiscrete.step_solution(sys, SINGLE, 0.02, 7, np.eye(sys.size))
    vec = fullydiscrete.step_solution(sys, SINGLE, 0.02, 7, v)
    np.testing.assert_allclose(full.solution @ v, vec.solution, rtol=1e-12)


@pytest.mark.parametrize("method", fem.METHODS)
@pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.label)
def test_stepping_matches_modal_form(get_system, method, op):
    sys = get_system("uniform", method, m=4)
    tau, n = 0.05, 16
    stepped = fullydiscrete.step_solution(sys, op, tau, n, np.eye(sys.size))
    modal = fullydiscrete.fd_solution_matrix(sys, op, tau, n)
    assert modal.steps == n
    assert modal.time == pytest.approx(n * tau)
    np.testing.assert_allclose(stepped.solution, modal.matrix, atol=1e-9)


def test_stepping_matches_modal_on_crossed_lm(get_system):
    sys = get_system("crossed", "lm", m=3)
    stepped = fullydiscrete.step_solution(sys, SINGLE, 0.1, 32, np.eye(sys.size))
    modal = fullydiscrete.fd_solution_matrix(sys, SINGLE, 0.1, 32)
    np.testing.assert_allclose(stepped.solution, modal.matrix, atol=1e-9)


def test_step_solution_rejections(get_system):
    sys = get_system("uniform", "sg", m=4)
    with pytest.raises(InvalidParameter):
        fullydiscrete.step_solution(sys, SINGLE, 0.1, 0, np.zeros(sys.size))
    with pytest.raises(InvalidParameter):
        fullydiscrete.step_solution(sys, SINGLE, -0.1, 3, np.zeros(sys.size))
    with pytest.raises(InvalidParameter):
        fullydiscrete.step_solution(sys, SINGLE, 0.1, 3, np.zeros(sys.size + 1))


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
        for tau in (1e-6, 0.3, 100.0):
            omega0 = kernel.char_fn(SINGLE, 1.0 / tau)
            got = fullydiscrete.first_step_matrix(sys, omega0)
            factor = scipy.linalg.cho_factor(omega0 * sys.mass + sys.stiffness)
            want = omega0 * scipy.linalg.cho_solve(factor, sys.mass)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
            modal = fullydiscrete.fd_solution_matrix(sys, SINGLE, tau, 1).matrix
            np.testing.assert_allclose(got, modal, rtol=0.0, atol=1e-12)
    with pytest.raises(InvalidParameter):
        fullydiscrete.first_step_matrix(sys, -1.0)


def test_first_step_bound_equilateral_sharp(get_system):
    # every neighbor ratio equals 8 m^2, so all three bounds coincide
    bound = fullydiscrete.first_step_positivity_omega(
        get_system("equilateral", "sg", m=4)
    )
    assert bound.omega_certified == pytest.approx(128.0, rel=1e-12)
    assert bound.omega_stated == pytest.approx(128.0, rel=1e-12)
    assert not bound.forms_disagree
    assert bound.omega_bisect == pytest.approx(128.0, rel=2e-3)


def test_first_step_bound_uniform_forms_split(get_system):
    # decoupled diagonal pairs force the certified bound to zero while the
    # max-form quotes 12/h^2; the true bisected value sits in between
    bound = fullydiscrete.first_step_positivity_omega(
        get_system("uniform", "sg", m=4)
    )
    assert bound.omega_certified == 0.0
    assert bound.omega_stated == pytest.approx(192.0, rel=1e-12)
    assert bound.forms_disagree
    assert 0.0 < bound.omega_bisect < bound.omega_stated
    # the max-form is genuinely unsafe: its omega_0 has a negative entry
    mat = fullydiscrete.first_step_matrix(
        get_system("uniform", "sg", m=4), bound.omega_stated
    )
    assert mat.min() < 0.0


@pytest.mark.parametrize("scale", [1e-6, 1e3])
def test_first_step_bound_scales_with_stiffness(get_system, scale):
    # omega_0 (omega_0 M + S)^{-1} M depends on omega_0 / S only, so scaling
    # S scales the bisected bound; no absolute clamp may cap the search
    sys = get_system("uniform", "sg", m=6)
    base = fullydiscrete.first_step_positivity_omega(sys).omega_bisect
    scaled = fem.system_from_matrices(sys.mass, scale * sys.stiffness)
    bound = fullydiscrete.first_step_positivity_omega(scaled)
    assert bound.omega_bisect == pytest.approx(scale * base, rel=5e-3)


def _neighbor_pair_bounds(system):
    """Reference: the first-step bounds over the mesh's interior edges."""
    m, s = system.mass, system.stiffness
    sups, ratios = [], []
    for i, j in fem.neighbor_pairs(system.mesh):
        mij, sij = m[i, j], s[i, j]
        if mij > 0.0:
            ratios.append(abs(sij) / mij)
            sups.append(-sij / mij if sij < 0.0 else 0.0)
        else:
            sups.append(math.inf if sij <= 0.0 else 0.0)
    return min(sups, default=math.inf), max(ratios, default=math.inf)


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
    # the coupling pattern of (M, S) gives the bounds of the mesh edges
    sys = get_system(family, method, **kw)
    want = _neighbor_pair_bounds(sys)
    for system in (sys, fem.system_from_matrices(sys.mass, sys.stiffness, method)):
        bound = fullydiscrete.first_step_positivity_omega(system)
        assert (bound.omega_certified, bound.omega_stated) == want


def test_first_step_bound_lm_unbounded(get_system):
    bound = fullydiscrete.first_step_positivity_omega(
        get_system("uniform", "lm", m=4)
    )
    assert bound.omega_bisect == math.inf
    assert bound.omega_certified == math.inf


def test_first_step_bound_sliver_lm_none(get_system):
    bound = fullydiscrete.first_step_positivity_omega(
        get_system("sliver", "lm", m=10)
    )
    assert bound.omega_bisect is None
    assert bound.omega_certified == 0.0


# tau thresholds


def test_fd_threshold_structure(get_system):
    sys = get_system("uniform", "sg", m=6)
    rep = fullydiscrete.fd_positivity_threshold(sys, SINGLE)
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
        sys, SINGLE, scan=semidiscrete.ScanSpec(start=1e-8, stop=1e-2, per_decade=5)
    )
    each = [
        fullydiscrete.first_step_matrix(sys, kernel.char_fn(SINGLE, 1.0 / tau)).min()
        for tau in rep.curve[:, 0]
    ]
    if sys.size * sys.size > linalg.BLOCK_ENTRIES // 2:
        np.testing.assert_array_equal(rep.curve[:, 1], each)
    else:
        np.testing.assert_allclose(rep.curve[:, 1], each, rtol=0.0, atol=1e-15)


def test_threshold_scans_memory_stays_bounded(get_system):
    # disk_medium sg has N = 583; one N x N matrix is about 2.7 MB, so the
    # wide products and the kernel chunks must stay a few matrices in size
    sys = get_system("disk_medium", "sg")
    tracemalloc.start()
    try:
        semi = semidiscrete.positivity_threshold(sys, SINGLE)
        fully = fullydiscrete.fd_positivity_threshold(sys, SINGLE)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert semi.found and fully.found
    assert peak < 12 * 2**20


def _table_systems():
    """(table, family, method, level kwargs) of every default table system."""
    for num, spec in sorted(cli._TABLES.items()):
        (level,) = spec["default"]
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
        lo = max(lo, kernel.char_fn(op, 1.0 / tau_hi))
        hi = min(hi, kernel.char_fn(op, 1.0 / tau_lo))
    assert lo <= hi
    omega = fullydiscrete.first_step_positivity_omega(sys).omega_bisect
    assert lo * (1.0 - 2e-3) <= omega <= hi * (1.0 + 2e-3)


def test_lemma_propagation_first_step_to_all_steps(get_system):
    # whenever E_{1,tau} >= 0, stepping stays nonnegative for all later n
    sys = get_system("uniform", "sg", m=4)
    rep = fullydiscrete.fd_positivity_threshold(sys, SINGLE)
    tau = 2.0 * rep.value
    assert fullydiscrete.fd_solution_matrix(sys, SINGLE, tau, 1).matrix.min() >= (
        -1e-13
    )
    state = fullydiscrete.step_solution(sys, SINGLE, tau, 200, np.eye(sys.size))
    assert state.history.min() >= -1e-10 * sys.size


def test_theorem_monotonicity_in_tau(get_system):
    sys = get_system("uniform", "fve", m=6)
    rep = fullydiscrete.fd_positivity_threshold(sys, SINGLE)
    for factor in (1.5, 4.0, 32.0, 1000.0):
        tau = factor * rep.value
        mat = fullydiscrete.fd_solution_matrix(sys, SINGLE, tau, 1).matrix
        assert mat.min() >= -1e-13


# scale law


def test_weight_scale_law_two_levels():
    rep = fullydiscrete.weight_scale_law("uniform", 0.5, (5, 10))
    assert rep.levels == (5, 10)
    assert len(rep.h_values) == 2
    assert rep.h_values[0] > rep.h_values[1]
    assert rep.thresholds[0] > rep.thresholds[1]
    # tau_0 ~ h^{2/alpha} = h^4, still steepening toward it at these sizes
    assert 3.0 < rep.slope < 5.0


def test_weight_scale_law_rejections():
    with pytest.raises(InvalidParameter):
        fullydiscrete.weight_scale_law("moebius", 0.5, (4, 8))
    with pytest.raises(InvalidParameter):
        fullydiscrete.weight_scale_law("uniform", 0.5, (4,))
    with pytest.raises(NoConvergence):
        fullydiscrete.weight_scale_law("uniform", 0.5, (4, 6), method="lm")


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
                state = fullydiscrete.step_solution(sys, op, tau, n, np.eye(sys.size))
                stepped = np.abs(state.history).sum(axis=2).max(axis=1)
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
