"""Time-operator symbol, relaxation kernels, and convolution weights.

The Mittag-Leffler reference values were frozen from tools/ml_reference.py:
ML_REFERENCE from the mpmath power series at 250 digits, cross-checked
against the exp(x^2)*erfc(-x) closed form for exponent one half; ML_GRID,
E_alpha(-y) at each y of ML_GRID_YS, from the mpmath branch-cut integral at
60 digits, cross-checked against the series and the closed form; ML_ENDS,
the same at the ends of alpha, cross-checked against the series and, near
alpha = 1, against exp.
"""

import math

import numpy as np
import pytest

from fracpos import kernel
from fracpos.errors import ContourFailure, DomainError, InvalidParameter
from fracpos.kernel import FracOperator

ML_REFERENCE = {
    (0.5, -1.0): 0.427583576155807,
    (0.5, -4.0): 0.13699945762506139,
    (0.5, -16.0): 0.035193377824930838,
    (0.75, -1.0): 0.39310830281575406,
    (0.75, -5.0): 0.067923974332643942,
    (0.75, -16.0): 0.018401473802565136,
    (0.25, -2.0): 0.2981017936936576,
    (1.0, -2.0): 0.13533528323661269,
}

ML_GRID_YS = (0.01, 0.3, 0.9, 1.1, 2.0, math.sqrt(10.0), 5.0, 10.0, 16.0, 100.0, 1e4, 1e8)
ML_GRID = {
    0.1: (
        0.9895964392973549, 0.759612531778489, 0.5120067796921973,
        0.46170940906874486, 0.3200153359597274, 0.22909248864999868,
        0.15804238235845183, 0.08569695701065469, 0.0553092951829487,
        0.009272657231311859, 9.356928349141106e-05, 9.357787123235027e-09,
    ),
    0.25: (
        0.9890791332507342, 0.7475917733762234, 0.4908242549365998,
        0.4396230506223455, 0.2981017936936576, 0.20993684147614358,
        0.1427989464258737, 0.07623703523972164, 0.04886635242687401,
        0.008104346228169487, 8.159925228980648e-05, 8.160489334563671e-09,
    ),
    0.5: (
        0.9888154610463425, 0.7345993345676551, 0.456531651323117,
        0.4017304606364951, 0.25539567631050575, 0.17057771832597265,
        0.11070463773306863, 0.05614099274382259, 0.03519337782493084,
        0.005641613782989433, 5.641895807268084e-05, 5.641895835477562e-09,
    ),
    0.75: (
        0.9891941821459879, 0.7319081751102204, 0.42590697909895325,
        0.36381914610035665, 0.20207848341295445, 0.11809903009990662,
        0.06792397433264394, 0.030643250976059636, 0.018401473802565137,
        0.0027866210194390935, 2.7584387485953953e-05, 2.7581566565115725e-09,
    ),
    0.9: (
        0.9896618680353658, 0.7358452766484306, 0.41221099269061034,
        0.34359263252444916, 0.16352830001693006, 0.07645352143903421,
        0.03443132480409842, 0.0128206060511021, 0.007369172571101862,
        0.001068972418287089, 1.0513113058088608e-05, 1.0511370235377687e-09,
    ),
    0.99: (
        0.9900087112892239, 0.7402385014299586, 0.40697769157450436,
        0.33380424779432355, 0.13821728069806402, 0.04601328576158074,
        0.009768092139174128, 0.0013478638060832084, 0.000725571430544493,
        0.00010261344540995125, 1.005904798012872e-06, 1.005706548321507e-10,
    ),
}

# the ends of alpha: near 1 the branch-cut integrand's peak is y sin(alpha pi)
# wide, and near 0 exp(-s^(1/alpha)) drops within about alpha of s = 1
ML_ENDS_YS = (0.5, 1.005, 2.0, 10.0, 100.0, 1e4)
ML_ENDS = {
    0.001: (
        0.6665384450993809, 0.4986088137740146, 0.33320501459888474,
        0.09086134278750094, 0.009895325374810193, 9.993222541862735e-05,
    ),
    0.999999: (
        0.6065306142000951, 0.36604470118019977, 0.13533557192272935,
        4.553039997338509e-05, 1.020625836025005e-08, 1.0002006370985016e-10,
    ),
    0.99999999: (
        0.6065306592575066, 0.3660446354677754, 0.13533528612347434,
        4.540123446481572e-05, 1.0206252881970959e-10, 1.0002000708202404e-12,
    ),
    0.999999999999: (
        0.6065306597125879, 0.3660446348040818, 0.13533528323690136,
        4.53999298929522e-05, 1.0206026994973921e-14, 1.0001779338787956e-16,
    ),
    0.999999999999999: (
        0.6065306597126334, 0.36604463480401545, 0.13533528323661298,
        4.5399929762615216e-05, 1.0198095143190305e-17, 9.994006222831101e-20,
    ),
}
# the accuracy reached there, relative: 4.4e-16, 1.1e-15, 1.8e-15, 3.3e-15
# and 8.2e-13
ML_ENDS_RTOL = {
    0.001: 2e-14,
    0.999999: 2e-15,
    0.99999999: 5e-15,
    0.999999999999: 1e-14,
    0.999999999999999: 1e-12,
}

SINGLE = FracOperator.single_term(0.5)
MULTI = FracOperator.multi_term((0.5, 0.2))
DIST = FracOperator.distributed("exp")
ALL_OPS = (SINGLE, MULTI, DIST)


# operator construction


def test_labels():
    assert SINGLE.label == "single(0.5)"
    assert MULTI.label == "multi(0.5,0.2)"
    assert DIST.label == "dist(exp,64)"


def test_multi_term_default_weights_are_ones():
    assert MULTI.terms[1].tolist() == [1.0, 1.0]


def test_constructor_rejections():
    with pytest.raises(InvalidParameter):
        FracOperator.single_term(1.5)
    with pytest.raises(InvalidParameter):
        FracOperator.single_term(0.0)
    with pytest.raises(InvalidParameter):
        FracOperator.multi_term((0.2, 0.5))  # must decrease
    with pytest.raises(InvalidParameter):
        FracOperator.multi_term((0.5, 0.5))  # strictly
    with pytest.raises(InvalidParameter):
        FracOperator.multi_term((0.5, 0.2), (2.0, 1.0))  # leading weight 1
    with pytest.raises(InvalidParameter):
        FracOperator.multi_term((0.5, 0.2), (1.0, -1.0))
    with pytest.raises(InvalidParameter):
        FracOperator.distributed("cauchy")
    with pytest.raises(InvalidParameter):
        FracOperator.distributed(lambda a: a)  # vanishes at zero
    with pytest.raises(InvalidParameter):
        FracOperator.distributed("exp", quad_order=8)


def test_scalar_weight_function_broadcasts_over_the_nodes():
    two = FracOperator.distributed(lambda a: 2.0).terms[1]
    assert np.array_equal(two, 2.0 * FracOperator.distributed("one").terms[1])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_weights_rejected(bad):
    with pytest.raises(InvalidParameter, match="positive and finite"):
        FracOperator.multi_term((0.5, 0.2), (1.0, bad))


def test_heat_limit_exponent_allowed():
    op = FracOperator.single_term(1.0)
    assert kernel.cq_weights(op, 1.0 / 3.0, 0)[0] == pytest.approx(3.0)


# symbol evaluation on the positive axis: P(1/tau) is the leading
# convolution weight omega_0


def test_char_fn_single():
    assert kernel.cq_weights(SINGLE, 0.25, 0)[0] == pytest.approx(2.0, rel=1e-14)


def test_char_fn_multi():
    assert kernel.cq_weights(MULTI, 1.0, 0)[0] == pytest.approx(2.0, rel=1e-14)


def test_char_fn_distributed_closed_form():
    # int_0^1 exp(a) * e^a da = (e^2 - 1) / 2
    want = (math.e**2 - 1.0) / 2.0
    assert kernel.cq_weights(DIST, 1.0 / math.e, 0)[0] == pytest.approx(want, rel=1e-12)


def test_char_fn_branch_cut():
    # z = 1/tau on the branch cut (z <= 0) is a step tau <= 0 or inf,
    # rejected in an array as it is alone
    for op in ALL_OPS:
        for bad in (-1.0, 0.0, math.inf, math.nan):
            with pytest.raises(InvalidParameter):
                kernel.cq_weights(op, bad, 0)
            with pytest.raises(InvalidParameter):
                kernel.cq_weights(op, np.array([1.0, bad]), 0)


# Mittag-Leffler


def test_mittag_leffler_reference_values():
    for (alpha, x), want in ML_REFERENCE.items():
        assert kernel.mittag_leffler(alpha, x) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("alpha", sorted(ML_GRID))
def test_mittag_leffler_on_the_frozen_grid(alpha):
    for y, want in zip(ML_GRID_YS, ML_GRID[alpha]):
        assert kernel.mittag_leffler(alpha, -y) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("alpha", sorted(ML_ENDS))
def test_mittag_leffler_at_the_ends_of_alpha(alpha):
    for y, want in zip(ML_ENDS_YS, ML_ENDS[alpha]):
        got = kernel.mittag_leffler(alpha, -y)
        assert got == pytest.approx(want, rel=ML_ENDS_RTOL[alpha], abs=0.0)


@pytest.mark.parametrize("y", (0.5, 1.0, 2.0, 1e6))
def test_mittag_leffler_at_vanishing_alpha(y):
    # E_a(-y) -> 1 / (1 + y) as a -> 0; s^(1/a) overflows to an exact
    # zero of the branch-cut integrand beyond s = 1
    assert kernel.mittag_leffler(1e-300, -y) == pytest.approx(1.0 / (1.0 + y), rel=1e-15)


def test_mittag_leffler_edges():
    assert kernel.mittag_leffler(0.5, 0.0) == 1.0
    assert kernel.mittag_leffler(1.0, -2.0) == pytest.approx(math.exp(-2.0))
    with pytest.raises(DomainError):
        kernel.mittag_leffler(1.5, -1.0)
    with pytest.raises(DomainError):
        kernel.mittag_leffler(0.5, 1.0)


@pytest.mark.parametrize("alpha", (0.25, 0.5, 0.75, 0.9))
def test_mittag_leffler_at_huge_arguments(alpha):
    # E_a(-y) = 1 / (y Gamma(1 - a)) + O(y^-2); the branch-cut integrand is
    # scaled by y^2 and so neither overflows nor underflows
    for y in (1e20, 1e150, 1e155, 1e300):
        want = 1.0 / (y * math.gamma(1.0 - alpha))
        assert kernel.mittag_leffler(alpha, -y) == pytest.approx(want, rel=2e-15)


@pytest.mark.parametrize("x", [math.nan, -math.inf])
def test_mittag_leffler_rejects_non_finite_x(x):
    with pytest.raises(DomainError):
        kernel.mittag_leffler(0.5, x)


# relaxation kernel


def test_u_lambda_matches_mittag_leffler():
    for (alpha, x), want in ML_REFERENCE.items():
        if alpha in (0.25, 1.0):
            continue
        op = FracOperator.single_term(alpha)
        # u_lambda(t) = E_alpha(-lambda t^alpha); take t = 1, lambda = -x
        assert kernel.u_lambda(op, -x, 1.0) == pytest.approx(want, rel=1e-8)


def test_u_lambda_time_scaling():
    # with lambda = 16, t = 0.25: x = -16 * 0.5 = -8; against t = 1, lam = 8
    a = kernel.u_lambda(SINGLE, 16.0, 0.25)
    b = kernel.u_lambda(SINGLE, 8.0, 1.0)
    assert a == pytest.approx(b, rel=1e-10)


def test_u_lambda_at_zero_time():
    for op in ALL_OPS:
        assert kernel.u_lambda(op, 7.0, 0.0) == 1.0
    np.testing.assert_array_equal(
        kernel.u_lambda_many(SINGLE, [1.0, 2.0], 0.0), [1.0, 1.0]
    )


def test_u_lambda_tiny_time_stays_near_one():
    for op in ALL_OPS:
        val = kernel.u_lambda(op, 1.0, 1e-12)
        assert abs(val - 1.0) < 2e-6


def test_u_lambda_monotone_and_bounded():
    grid = np.geomspace(1e-6, 1e3, 40)
    for op in ALL_OPS:
        for lam in (1.0, 10.0, 100.0):
            vals = kernel.u_lambda_many(op, np.full(grid.shape, lam), 1.0)
            # same lambda at one time must be constant across the array
            assert np.ptp(vals) < 1e-14
            curve = np.array([kernel.u_lambda(op, lam, t) for t in grid])
            assert np.all(curve > -1e-12)
            assert np.all(curve < 1.0 + 1e-12)
            assert np.all(np.diff(curve) < 1e-12)


def test_u_lambda_many_matches_scalar():
    lams = np.array([1.0, 16.0, 250.0])
    many = kernel.u_lambda_many(MULTI, lams, 0.3)
    each = [kernel.u_lambda(MULTI, lam, 0.3) for lam in lams]
    np.testing.assert_allclose(many, each, rtol=1e-13)


def _folded_sum(terms, lams, t):
    """The kernel at one time, written out: 24 upper-half nodes, real arithmetic.

    u = (1 / pi) sum_k Im(c_k / (p_k + lambda)), c_k = e^{z_k t} w_k p_k / z_k,
    with the symbol p_k = sum_m (b_m t^-a_m) zeta_k^a_m from the fixed table.
    """
    a, weights = terms
    half = 24
    step = 1.0818 / half
    xi = 1j * ((np.arange(half) + 0.5) * step) - 1.1721
    scale = 4.4921 * half / t
    z = scale * (1.0 + np.sin(xi))
    w = scale * 1j * np.cos(xi) * step
    table = np.exp(np.outer(a, np.log(4.4921 * half * (1.0 + np.sin(xi)))))
    coef = weights * t ** -a
    pr, pi = table.real[0] * coef[0], table.imag[0] * coef[0]
    for m in range(1, a.size):
        pr = pr + coef[m] * table.real[m]
        pi = pi + coef[m] * table.imag[m]
    c = np.exp(z * t) * w * (pr + 1j * pi) / z
    d = pr[:, None] + lams[None, :]
    q = (d * c.imag[:, None] - (c.real * pi)[:, None]) / (d * d + (pi * pi)[:, None])
    return q.sum(axis=0) / math.pi


def _contour_sum_48(terms, lams, t):
    """The unfolded kernel: complex trapezoid sum over all 48 hyperbola nodes."""
    a, weights = terms
    half = 24
    step = 1.0818 / half
    xi = 1j * ((np.arange(-half, half) + 0.5) * step) - 1.1721
    scale = 4.4921 * half / t
    z = scale * (1.0 + np.sin(xi))
    p = weights @ np.exp(np.outer(a, np.log(z)))
    base = np.exp(z * t) * (scale * 1j * np.cos(xi) * step) * p / z
    return ((base[None, :] / (p[None, :] + lams[:, None])).sum(axis=1) / (2j * math.pi)).real


@pytest.mark.parametrize("op", (SINGLE, MULTI, DIST), ids=lambda o: o.label)
def test_u_lambda_many_time_array_is_bitwise_per_time(get_system, op):
    lams = get_system("uniform", "sg", m=10).eigen.eigenvalues
    grid = np.concatenate(([0.0], np.geomspace(1e-8, 1e2, 251), [0.37]))
    rows = kernel.u_lambda_many(op, lams, grid)
    assert rows.shape == (grid.size, lams.size)
    each = np.array([kernel.u_lambda_many(op, lams, t) for t in grid])
    np.testing.assert_array_equal(rows, each)
    np.testing.assert_array_equal(rows[0], np.ones(lams.size))
    for k in (1, 120, 252):
        np.testing.assert_array_equal(rows[k], _folded_sum(op.terms, lams, grid[k]))
    with pytest.raises(DomainError):
        kernel.u_lambda_many(op, lams, np.array([1.0, -1e-3]))


def _terms_written_out(op):
    """(exponents, weights) of the symbol as one sum of weighted powers."""
    if op is SINGLE:
        return np.array([0.5]), np.array([1.0])
    x, w = np.polynomial.legendre.leggauss(64)
    a = 0.5 * (x + 1.0)
    return a, 0.5 * w * np.exp(a)


def _cq_written_out(op, tau, n):
    a, b = _terms_written_out(op)
    rows = []
    for ak in a:
        row = [1.0]
        for j in range(1, n + 1):
            row.append(row[-1] * (j - 1.0 - ak) / j)
        rows.append(row)
    return (b * tau ** -a) @ np.array(rows)


@pytest.mark.parametrize("op", (SINGLE, DIST), ids=lambda o: o.label)
def test_kernel_is_bitwise_the_sum_of_weighted_powers(get_system, op):
    for tau in 1.0 / np.geomspace(1e-6, 1e8, 57):
        assert kernel.cq_weights(op, tau, 0)[0] == _cq_written_out(op, tau, 0)[0]
    lams = get_system("uniform", "sg", m=10).eigen.eigenvalues
    grid = np.geomspace(1e-8, 1e2, 11)
    rows = kernel.u_lambda_many(op, lams, grid)
    for k, t in enumerate(grid):
        np.testing.assert_array_equal(rows[k], _folded_sum(_terms_written_out(op), lams, t))
    for tau in (1e-4, 0.37, 2.0):
        np.testing.assert_array_equal(kernel.cq_weights(op, tau, 40), _cq_written_out(op, tau, 40))


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda o: o.label)
def test_folded_kernel_matches_the_48_node_complex_sum(get_system, op):
    lams = get_system("uniform", "sg", m=10).eigen.eigenvalues
    grid = np.geomspace(1e-8, 1e2, 251)
    rows = kernel.u_lambda_many(op, lams, grid)
    worst = max(
        np.abs(rows[k] - _contour_sum_48(op.terms, lams, t)).max()
        for k, t in enumerate(grid)
    )
    assert worst <= 5e-13


def test_kernel_matches_erfcx_on_the_default_grid(get_system):
    # E_{1/2}(-x) = exp(x^2) erfc(x) = erfcx(x), with x = lambda * sqrt(t)
    erfcx = pytest.importorskip("scipy.special").erfcx
    lams = get_system("uniform", "sg", m=10).eigen.eigenvalues
    grid = np.geomspace(1e-8, 1e2, 251)
    rows = kernel.u_lambda_many(SINGLE, lams, grid)
    want = erfcx(lams[None, :] * np.sqrt(grid[:, None]))
    assert np.abs(rows - want).max() <= 4e-12


def test_huge_lambda_takes_the_complex_quotient():
    # (p_r + lambda)^2 overflows above ~1e154; such columns must not read 0
    lams = np.array([2.0, 1e160, 1e300])
    for t in (1e-5, 1.0, 1e5):
        row = kernel.u_lambda_many(SINGLE, lams, t)
        assert row[0] == kernel.u_lambda_many(SINGLE, lams[:1], t)[0]
        # E_a(-y) ~ 1 / (y Gamma(1 - a)) for large y
        want = 1.0 / (lams[1:] * math.sqrt(t) * math.sqrt(math.pi))
        np.testing.assert_allclose(row[1:], want, rtol=1e-9)


# last small-t decade that fails, first large-t decade that fails (None: none
# up to 1e307); below the first the scale overflows, above the second the
# quadrature weights underflow
GATE_DECADES = {
    "single(0.5)": (-203, 213),
    "multi(0.5,0.2)": (-203, 266),
    "dist(exp,64)": (-153, None),
    "single(1)": (-152, 159),
}


@pytest.mark.parametrize(
    "op", ALL_OPS + (FracOperator.single_term(1.0),), ids=lambda o: o.label
)
def test_contour_gate_fires_outside_its_decades(get_system, op):
    lams = get_system("uniform", "sg", m=10).eigen.eigenvalues
    small, large = GATE_DECADES[op.label]
    for k in range(-323, 308):
        t = float("1e%d" % k)
        if k <= small or (large is not None and k >= large):
            with pytest.raises(ContourFailure, match="lambda = 0 defect"):
                kernel.u_lambda_many(op, lams, t)
            continue
        vals = kernel.u_lambda_many(op, lams, t)
        assert np.all(vals >= -1e-12) and np.all(vals <= 1.0 + 1e-12), t


def test_char_fn_array_matches_scalar_calls():
    taus = 1.0 / np.geomspace(1e-6, 1e8, 57)
    for op in ALL_OPS:
        for n in (0, 5):
            rows = kernel.cq_weights(op, taus, n)
            assert rows.shape == (taus.size, n + 1)
            each = [kernel.cq_weights(op, tau, n) for tau in taus]
            if len(op.terms[0]) == 1:
                np.testing.assert_array_equal(rows, each)
            else:
                # the sum over terms is one BLAS product, whose rounding may
                # depend on how many step sizes it holds
                np.testing.assert_allclose(rows, each, rtol=1e-15)


def test_u_lambda_rejections():
    for lam in (-1.0, math.inf, math.nan):
        with pytest.raises(InvalidParameter):
            kernel.u_lambda(SINGLE, lam, 1.0)
    for t in (-2.0, math.inf, math.nan):
        with pytest.raises(DomainError):
            kernel.u_lambda(SINGLE, 1.0, t)


@pytest.mark.parametrize("op", ALL_OPS, ids=lambda op: op.label)
def test_char_fn_empty_array(op):
    out = kernel.cq_weights(op, np.empty(0), 0)
    assert out.shape == (0, 1)
    assert out.dtype == float


def test_contour_gate_fails_on_nan_residual():
    # at t = 1e-300 the contour's scale 4.4921 * 24 / t overflows and the
    # imaginary residual is nan, which must fail the gate, not pass it
    with np.errstate(all="ignore"), pytest.raises(ContourFailure, match="nan"):
        kernel.u_lambda_many(SINGLE, [2.0], 1e-300)


def test_contour_failure_names_the_first_failing_time():
    with np.errstate(all="ignore"), pytest.raises(
        ContourFailure, match=r"^lambda = 0 defect nan at t = 1e-250$"
    ):
        kernel.u_lambda_many(SINGLE, [2.0], [1.0, 1e-250, 1e-300])


# asymptotic scale functions


def test_beta0_single():
    want = 1e-2 / math.gamma(1.5)
    assert kernel.beta0(SINGLE, 1e-4) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(0.011283791670955126, rel=1e-15)


def test_beta0_multi_uses_leading_exponent():
    assert kernel.beta0(MULTI, 0.01) == pytest.approx(
        kernel.beta0(SINGLE, 0.01), rel=1e-14
    )


def test_beta0_distributed():
    # t * log(1/t) / mu(1) at t = 1/e gives e^-2
    assert kernel.beta0(DIST, math.exp(-1.0)) == pytest.approx(
        math.exp(-2.0), rel=1e-14
    )
    with pytest.raises(DomainError):
        kernel.beta0(DIST, 1.0)
    with pytest.raises(DomainError):
        kernel.beta0(SINGLE, 0.0)


def test_beta_inf_single():
    want = 100.0 ** -0.5 / math.gamma(0.5)
    assert kernel.beta_inf(SINGLE, 100.0) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(0.05641895835477563, rel=1e-15)


def test_beta_inf_multi_uses_trailing_exponent():
    want = 1e5 ** -0.2 / math.gamma(0.8)
    assert kernel.beta_inf(MULTI, 1e5) == pytest.approx(want, rel=1e-14)


def test_beta_inf_distributed():
    # mu(0) / log(t) at t = e^2 gives one half
    assert kernel.beta_inf(DIST, math.exp(2.0)) == pytest.approx(0.5, rel=1e-14)
    with pytest.raises(DomainError):
        kernel.beta_inf(DIST, 1.0)


def test_beta_inf_heat_limit_vanishes():
    assert kernel.beta_inf(FracOperator.single_term(1.0), 10.0) == 0.0


# convolution quadrature weights


def test_cq_weights_first_three():
    np.testing.assert_allclose(
        kernel.cq_weights(SINGLE, 1.0, 2), [1.0, -0.5, -0.125], rtol=1e-14
    )


def test_cq_weights_tau_scaling():
    w1 = kernel.cq_weights(SINGLE, 1.0, 5)
    w2 = kernel.cq_weights(SINGLE, 0.25, 5)
    np.testing.assert_allclose(w2, 2.0 * w1, rtol=1e-13)


def test_cq_weight_signs():
    for op in ALL_OPS:
        w = kernel.cq_weights(op, 0.7, 50)
        assert w[0] > 0.0
        assert np.all(w[1:] < 0.0)


def test_cq_weights_reject_infinite_tau():
    # an infinite step made every weight zero (tau ** -alpha), a silent
    # contractive verdict downstream
    for op in ALL_OPS:
        with pytest.raises(InvalidParameter):
            kernel.cq_weights(op, math.inf, 3)


def test_cq_leading_weight_is_symbol_value():
    for op in ALL_OPS:
        w = kernel.cq_weights(op, 0.2, 0)
        # P(5) = sum_k b_k exp(a_k log 5)
        exponents, weights = op.terms
        want = weights @ np.exp(exponents * math.log(5.0))
        assert w[0] == pytest.approx(want, rel=1e-12)


def test_cq_partial_sums_positive():
    for op in ALL_OPS:
        for tau in (0.1, 1.0):
            sums = np.cumsum(kernel.cq_weights(op, tau, 1000))
            assert np.all(sums > 0.0)


def test_cq_partial_sums_single_term_closed_form():
    # sum_{j<=n} omega_j = -(n+1) omega_{n+1} / alpha
    for alpha in (0.5, 0.75):
        op = FracOperator.single_term(alpha)
        for tau in (0.1, 1.0):
            w = kernel.cq_weights(op, tau, 1001)
            sums = np.cumsum(w[:-1])
            n = np.arange(1001, dtype=float)
            np.testing.assert_allclose(sums, -(n + 1.0) * w[1:] / alpha, rtol=1e-12)


def test_cq_partial_sums_against_gamma_ratio():
    # independent form tau^-a * Gamma(n+1-a) / (Gamma(1-a) Gamma(n+1));
    # the recurrence weights carry ~n*eps roundoff that the cancellation in
    # the partial sums amplifies to a couple of 1e-12 by n = 1000
    alpha, tau = 0.5, 1.0
    sums = np.cumsum(kernel.cq_weights(FracOperator.single_term(alpha), tau, 1000))
    want = np.exp(
        [
            math.lgamma(k + 1.0 - alpha)
            - math.lgamma(1.0 - alpha)
            - math.lgamma(k + 1.0)
            for k in range(1001)
        ]
    )
    np.testing.assert_allclose(sums, want, rtol=5e-12)


def test_cq_generating_function():
    xi, tau, n = 0.3, 0.37, 400
    powers = xi ** np.arange(n + 1)
    for op in ALL_OPS:
        total = kernel.cq_weights(op, tau, n) @ powers
        # P((1 - xi) / tau) is the leading weight of the step tau / (1 - xi)
        assert total == pytest.approx(
            kernel.cq_weights(op, tau / (1.0 - xi), 0)[0], rel=1e-10
        )


def test_cq_rejections():
    with pytest.raises(InvalidParameter):
        kernel.cq_weights(SINGLE, 0.0, 4)
    with pytest.raises(InvalidParameter):
        kernel.cq_weights(SINGLE, 1.0, -1)


# discrete relaxation kernel


def test_r_scalar_first_step():
    # one backward Euler step: omega_0 / (omega_0 + lambda) with omega_0 = 1
    assert kernel.r_scalar_many(SINGLE, 16.0, 1.0, 1)[0] == pytest.approx(1.0 / 17.0)


def test_r_scalar_many_matches_scalar():
    lams = np.array([2.0, 16.0, 90.0])
    many = kernel.r_scalar_many(MULTI, lams, 0.05, 20)
    each = [kernel.r_scalar_many(MULTI, lam, 0.05, 20)[0] for lam in lams]
    np.testing.assert_allclose(many, each, rtol=1e-13)


def test_r_scalar_stays_in_unit_interval():
    for op in ALL_OPS:
        for lam in (1.0, 16.0, 400.0):
            for n in (1, 7, 60):
                val = kernel.r_scalar_many(op, lam, 0.1, n)[0]
                assert 0.0 < val <= 1.0


def test_r_scalar_first_order_convergence():
    t, lam = 0.1, 16.0
    exact = kernel.u_lambda(SINGLE, lam, t)
    errors = [
        abs(kernel.r_scalar_many(SINGLE, lam, t / n, n)[0] - exact) for n in (16, 32, 64)
    ]
    assert errors[0] / errors[1] == pytest.approx(2.0, rel=0.3)
    assert errors[1] / errors[2] == pytest.approx(2.0, rel=0.3)


def test_r_scalar_rejections():
    with pytest.raises(InvalidParameter):
        kernel.r_scalar_many(SINGLE, 16.0, 1.0, 0)
    with pytest.raises(InvalidParameter):
        kernel.r_scalar_many(SINGLE, -16.0, 1.0, 3)
