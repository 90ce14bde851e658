"""Acceptance gate: one test per headline claim, at its stated tolerance.

Each test carries a criterion marker; the terminal summary prints one
PASS/FAIL line per criterion.  Criterion 10 is long-run gated
(FRACPOS_LONGRUN=1).
"""

import time

import numpy as np
import oracles
import pytest

from fracpos import fem, fullydiscrete, kernel, semidiscrete
from fracpos.kernel import FracOperator

SINGLE = FracOperator.single_term(0.5)
MULTI = FracOperator.multi_term((0.5, 0.2))
DIST = FracOperator.distributed("exp")
ALL_OPS = (SINGLE, MULTI, DIST)


@pytest.mark.criterion(1, "relaxation kernel matches the series oracle")
def test_kernel_oracle_equivalence():
    start = time.monotonic()
    ts = np.logspace(-4.0, 1.0, 40)
    worst = 0.0
    for alpha in (0.5, 0.75):
        op = FracOperator.single_term(alpha)
        for lam in (1.0, 10.0, 100.0):
            got = np.array([kernel.u_lambda(op, lam, t) for t in ts])
            want = np.array(
                [kernel.mittag_leffler(alpha, -lam * t**alpha) for t in ts]
            )
            worst = max(worst, float(np.abs(got - want).max()))
    assert worst <= 1e-8
    assert time.monotonic() - start < 10.0


@pytest.mark.criterion(2, "uniform-mesh threshold row at h0=0.100")
def test_uniform_threshold_row(get_system):
    start = time.monotonic()
    sg = get_system("uniform", "sg", m=10)
    fve = get_system("uniform", "fve", m=10)
    cells = (
        (semidiscrete.positivity_threshold(sg, SINGLE), 1.96e-4),
        (semidiscrete.positivity_threshold(fve, SINGLE), 1.46e-4),
        (fullydiscrete.fd_positivity_threshold(sg, SINGLE), 2.85e-5),
        (fullydiscrete.fd_positivity_threshold(fve, SINGLE), 1.98e-5),
        (semidiscrete.positivity_threshold(sg, MULTI), 2.11e-4),
        (semidiscrete.positivity_threshold(sg, DIST), 1.64e-2),
    )
    for report, tabulated in cells:
        assert report.found
        assert report.value == pytest.approx(tabulated, rel=0.10)
    assert time.monotonic() - start < 15 * 60.0


@pytest.mark.criterion(3, "crossed-mesh lumped mass thresholds at h0=0.100")
def test_crossed_lumped_mass_row(get_system):
    start = time.monotonic()
    sys = get_system("crossed", "lm", m=5)
    sd = semidiscrete.positivity_threshold(sys, SINGLE)
    fd = fullydiscrete.fd_positivity_threshold(sys, SINGLE)
    assert sd.found and sd.value == pytest.approx(1.17e-4, rel=0.10)
    assert fd.found and fd.value == pytest.approx(2.21e-4, rel=0.10)
    assert time.monotonic() - start < 10 * 60.0


@pytest.mark.criterion(4, "lumped mass nonnegative exactly on delaunay meshes")
def test_lumped_mass_delaunay_dichotomy(get_system):
    start = time.monotonic()
    grid = semidiscrete.ScanSpec().grid()
    delaunay = (
        ("uniform", {"m": 4}),
        ("uniform", {"m": 10}),
        ("lshape_coarse", {}),
        ("disk_coarse", {}),
    )
    for family, kw in delaunay:
        sys = get_system(family, "lm", **kw)
        mins = semidiscrete.min_entry_curve(sys, SINGLE, grid)[:, 1]
        assert mins.min() >= -1e-12 * sys.size
        for tau in grid:
            omega0 = kernel.cq_weights(SINGLE, tau, 0)[0]
            e1 = sys.eigen.matrix_function(omega0 / (omega0 + sys.eigen.eigenvalues))
            assert e1.min() >= -1e-13
    for family, kw in (("crossed", {"m": 5}), ("sliver", {"m": 10})):
        sys = get_system(family, "lm", **kw)
        lams = sys.eigen.eigenvalues
        small_t = sys.eigen.matrix_function(kernel.u_lambda_many(SINGLE, lams, 1e-8))
        assert small_t.min() < -1e-12 * sys.size
        omega0 = kernel.cq_weights(SINGLE, 1e-8, 0)[0]
        e1 = sys.eigen.matrix_function(omega0 / (omega0 + lams))
        assert e1.min() < -1e-12 * sys.size
    assert time.monotonic() - start < 5 * 60.0


@pytest.mark.criterion(5, "galerkin and volume schemes fail at small time")
def test_small_time_failure(get_system):
    start = time.monotonic()
    cases = (("uniform", {"m": 10}), ("crossed", {"m": 5}), ("sliver", {"m": 10}))
    for family, kw in cases:
        for method in ("sg", "fve"):
            sys = get_system(family, method, **kw)
            lams = sys.eigen.eigenvalues
            small_t = sys.eigen.matrix_function(kernel.u_lambda_many(SINGLE, lams, 1e-8))
            assert small_t.min() < -1e-12 * sys.size
            omega0 = kernel.cq_weights(SINGLE, 1e-8, 0)[0]
            e1 = sys.eigen.matrix_function(omega0 / (omega0 + lams))
            assert e1.min() < -1e-12 * sys.size
    assert time.monotonic() - start < 2 * 60.0


@pytest.mark.criterion(6, "weight signs and the partial-sum identity")
def test_weight_signs_and_sum_identity():
    start = time.monotonic()
    for op in ALL_OPS:
        for tau in (0.1, 1.0):
            w = kernel.cq_weights(op, tau, 1001)
            assert w[0] > 0.0
            assert (w[1:] < 0.0).all()
            sums = np.cumsum(w[:1001])
            assert (sums > 0.0).all()
    for tau in (0.1, 1.0):
        w = kernel.cq_weights(SINGLE, tau, 1001)
        sums = np.cumsum(w)[:-1]
        closed = -np.arange(1.0, 1002.0) * w[1:] / 0.5
        np.testing.assert_allclose(sums, closed, rtol=1e-12)
    assert time.monotonic() - start < 5.0


@pytest.mark.criterion(7, "first-order stepping convergence to the kernel")
def test_stepping_convergence_rate(get_system):
    start = time.monotonic()
    sys = get_system("uniform", "lm", m=4)
    n_list = [2**k for k in range(4, 11)]
    for op in ALL_OPS:
        rate, errors = fullydiscrete.convergence_rate(sys, op, 0.1, n_list)
        assert 0.85 <= rate <= 1.3
        assert errors[-1, 1] < errors[0, 1]
    assert time.monotonic() - start < 60.0


@pytest.mark.criterion(8, "max-norm contractivity under diagonal dominance")
def test_max_norm_contractivity(get_system):
    start = time.monotonic()
    for m in (4, 10):
        sys = get_system("uniform", "lm", m=m)
        assert fem.is_diagonally_dominant(sys.stiffness)
        for op in ALL_OPS:
            reports = fullydiscrete.max_norm_contractivity_check(
                sys, op, (1e-4, 1e-2, 1.0), n_max=100
            )
            for rep in reports:
                assert rep.max_norm <= 1.0 + 1e-10
    assert time.monotonic() - start < 2 * 60.0


@pytest.mark.criterion(9, "kernel asymptotics at both ends")
def test_kernel_asymptotics():
    start = time.monotonic()
    for op in (SINGLE, MULTI):
        for lam in (1.0, 10.0):
            u = kernel.u_lambda(op, lam, 1e-8)
            ratio = (1.0 - u) / (lam * kernel.beta0(op, 1e-8))
            assert ratio == pytest.approx(1.0, abs=0.05)
            u = kernel.u_lambda(op, lam, 1e8)
            ratio = lam * u / kernel.beta_inf(op, 1e8)
            assert ratio == pytest.approx(1.0, abs=0.10)
    for lam in (1.0, 10.0):
        u = kernel.u_lambda(DIST, lam, 1e-6)
        ratio = (1.0 - u) / (lam * kernel.beta0(DIST, 1e-6))
        assert ratio == pytest.approx(1.0, abs=0.20)
        u = kernel.u_lambda(DIST, lam, 1e8)
        ratio = lam * u / kernel.beta_inf(DIST, 1e8)
        assert ratio == pytest.approx(1.0, abs=0.20)
    assert time.monotonic() - start < 30.0


@pytest.mark.longrun
@pytest.mark.criterion(10, "first-step threshold scales like h^(2/alpha)")
def test_threshold_scaling_law():
    start = time.monotonic()
    scan = semidiscrete.ScanSpec(start=1e-8, stop=1e-2, per_decade=25)
    for alpha in (0.5, 0.75):
        slope, _, _ = oracles.scale_law("uniform", alpha, (10, 20, 40), scan=scan)
        assert abs(slope - 2.0 / alpha) <= 0.5
    assert time.monotonic() - start < 2 * 3600.0


@pytest.mark.criterion(11, "sliver pair: no certificate and no recovery")
def test_sliver_anomaly(get_system):
    start = time.monotonic()
    sys = get_system("sliver", "lm", m=10)
    power, h_inv_min = semidiscrete.h_inverse_positivity(sys)
    assert h_inv_min < 0.0
    assert power == 3
    grid = semidiscrete.ScanSpec(start=1e-8, stop=1e3, per_decade=25).grid()
    mins = semidiscrete.min_entry_curve(sys, SINGLE, grid)[:, 1]
    negative = mins < -1e-12 * sys.size
    assert negative.any()
    assert negative[np.argmax(negative):].all()
    assert time.monotonic() - start < 10 * 60.0
