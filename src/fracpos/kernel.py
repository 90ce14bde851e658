"""Scalar time kernels for fractional relaxation.

Every time operator has one symbol form, a finite sum of weighted powers

    P(z) = sum_k b_k z^{a_k},   a_k in (0, 1],  b_k > 0.

An operator is that sum: FracOperator keeps the arrays (a, b) as terms,
with a label.  A single- or multi-term operator gives its own exponents
and weights; a distributed operator int_0^1 z^a mu(a) da gives the
Gauss-Legendre nodes a_k with weights w_k mu(a_k), and keeps mu(0) and
mu(1) for the scale functions beta0 and beta_inf.  The symbol has one
formula over the terms on the contour below and one on the positive
axis: the leading convolution weight omega_0 = P(1/tau) =
sum_k b_k tau^{-a_k} of cq_weights, in real arithmetic.  The relaxation
kernel

    u_lambda(t) = (1 / 2 pi i) int_Gamma e^{zt} P(z) / (z (P(z) + lambda)) dz

is evaluated on one fixed hyperbola z = scale * (1 + sin(i xi - angle))
with the trapezoid rule at 2K = 48 half-offset nodes and the optimized
parameters for this contour (step 1.0818/K, scale 4.4921*K/t, angle
1.1721; Weideman & Trefethen, Math. Comp. 76, 2007), which converge like
exp(-2.85 K).  The nodes come in conjugate pairs, so the sum folds onto
the K = 24 upper-half nodes, u = (1 / pi) sum_k Im(...), and runs in real
arithmetic.  A lambda = 0 column, whose exact value is 1, rides along;
its defect |u_0(t) - 1| is the accuracy check (at most 3.5e-12 on the
default scan grid), and a defect above 1e-6 raises ContourFailure.

For the single-term case u_lambda(t) = E_a(-lambda t^a), evaluated here by
power series for y <= 1 and otherwise by the completely monotone branch-cut
representation

    E_a(-y) = (sin(a pi) / (a pi y)) *
              int_0^inf exp(-s^{1/a}) / ((s / y)^2 + 2 (s / y) cos(a pi) + 1) ds,

split at s = 1, at the integrand's peak s = -y cos(a pi) and y sin(a pi) to
either side, and summed by fixed double-exponential rules: within 1.6e-15 of
mpmath at a = 0.001 and 0.1 ... 0.99, 1.8e-15 at 1 - 1e-8, 3.3e-15 at
1 - 1e-12 and 8.2e-13 at 1 - 1e-15.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ContourFailure, DomainError, InvalidParameter

__all__ = [
    "FracOperator",
    "MU_FUNCTIONS",
    "u_lambda",
    "u_lambda_many",
    "mittag_leffler",
    "beta0",
    "beta_inf",
    "cq_weights",
    "r_scalar_many",
]

# named weight functions for the distributed case
MU_FUNCTIONS = {
    "exp": np.exp,
    "one": lambda a: np.ones_like(np.asarray(a, dtype=float)),
}

# entries of one chunk of u_lambda_many's quotient table and of the
# symbol's table on the contour
CHUNK_ENTRIES = 2 ** 14

# the contour: 2K trapezoid nodes, step, scale times t, angle
_NODES = 48
_STEP = 1.0818 / (_NODES // 2)
_SCALE_T = 4.4921 * (_NODES // 2)
_ANGLE = 1.1721
# upper-half node parameters i xi_k - angle, xi_k = (k + 1/2) step
_XI = 1j * ((np.arange(_NODES // 2) + 0.5) * _STEP) - _ANGLE
# above this lambda (p_r + lambda)^2 may overflow: such columns are
# recomputed from the complex quotient, which numpy scales
_REAL_SHIFT_MAX = 1e150


@dataclass(frozen=True)
class FracOperator:
    """Symbol of the time operator, P(z) = sum_k b_k z^{a_k}.

    terms holds the arrays (a, b).  A single- or multi-term operator has
    exponents strictly decreasing in (0, 1], leading weight 1, and no
    mu_ends.  A distributed one has P(z) = int_0^1 z^a mu(a) da by
    Gauss-Legendre quadrature, mu positive at both endpoints, and mu_ends
    = (mu(0), mu(1)).  Build one with single_term, multi_term or
    distributed.
    """

    terms: tuple = field(compare=False, repr=False)
    label: str
    mu_ends: tuple = None

    @classmethod
    def single_term(cls, alpha):
        return cls.multi_term((alpha,))

    @classmethod
    def multi_term(cls, exponents, weights=None):
        a = tuple(float(v) for v in exponents)
        b = (1.0,) * len(a) if weights is None else tuple(map(float, weights))
        if not a:
            raise InvalidParameter("discrete operator needs exponents")
        if len(a) != len(b):
            raise InvalidParameter("weights and exponents differ in length")
        for v in a:
            if not 0.0 < v <= 1.0:
                raise InvalidParameter("exponent %r outside (0, 1]" % (v,))
        if not all(0.0 < v < math.inf for v in b):
            raise InvalidParameter("weights must be positive and finite")
        if abs(b[0] - 1.0) > 1e-14:
            raise InvalidParameter("leading weight must be 1")
        if any(x <= y for x, y in zip(a, a[1:])):
            raise InvalidParameter("exponents must decrease strictly")
        label = ("single(%s)" if len(a) == 1 else "multi(%s)") % ",".join("%g" % v for v in a)
        return cls((np.array(a), np.array(b)), label)

    @classmethod
    def distributed(cls, weight_fn="exp", quad_order=64):
        if isinstance(weight_fn, str):
            if weight_fn not in MU_FUNCTIONS:
                raise InvalidParameter(
                    "unknown weight %r (have %s)" % (weight_fn, sorted(MU_FUNCTIONS))
                )
            name, weight_fn = weight_fn, MU_FUNCTIONS[weight_fn]
        else:
            name = getattr(weight_fn, "__name__", "mu")
        if not callable(weight_fn):
            raise InvalidParameter("distributed operator needs a weight function")
        order = int(quad_order)
        if order < 16:
            raise InvalidParameter("quadrature order below 16")
        mu_ends = tuple(float(np.asarray(weight_fn(e), dtype=float)) for e in (0.0, 1.0))
        if any(m <= 0.0 for m in mu_ends):
            raise InvalidParameter("weight function must be positive at 0 and 1")
        x, wq = _leggauss01(order)
        terms = (x, wq * np.asarray(weight_fn(x), dtype=float))
        return cls(terms, "dist(%s,%d)" % (name, order), mu_ends)


@lru_cache(maxsize=1)
def _de_rules():
    """Tanh-sinh nodes, weights on [0, 1] and exp-sinh nodes, weights on [0, inf).

    Double-exponential rules (Takahasi & Mori, Publ. RIMS 9, 1974), step 1/64,
    |t| <= 5; built on first use, as numpy's sinh adds 0.2 MB to peak RSS.
    """
    t = np.arange(-320, 321) / 64.0
    ts = 1.0 / (1.0 + np.exp(-math.pi * np.sinh(t)))
    es = np.exp(0.5 * math.pi * np.sinh(t))
    return ts, math.pi / 64.0 * np.cosh(t) * ts * ts[::-1], es, math.pi / 128.0 * np.cosh(t) * es


@lru_cache(maxsize=8)
def _leggauss01(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


def _contour_nodes(t):
    """Upper-half nodes z and trapezoid weights w for time t.

    A column of times gives rows.  The other 24 nodes of the hyperbola are
    the conjugates of these, in reverse order, with weights -conj(w).
    """
    scale = _SCALE_T / t
    return scale * (1.0 + np.sin(_XI)), scale * 1j * np.cos(_XI) * _STEP


def _symbol_on_contour(op, ts):
    """Real and imaginary parts of P on the upper-half nodes, one row per time.

    P(zeta_k / t) = sum_m (b_m t^{-a_m}) zeta_k^{a_m} with the fixed table
    zeta_k^{a_m}, zeta_k = scale * (1 + sin(i xi_k - angle)) the nodes at
    t = 1; the sum over terms is elementwise, a few rows at a time, so
    every row is independent of the others.
    """
    exponents, weights = op.terms
    log_zeta = np.log(_SCALE_T * (1.0 + np.sin(_XI)))
    table = np.exp(np.multiply.outer(exponents, log_zeta))
    table = np.concatenate((table.real, table.imag), axis=1)
    coef = weights * ts ** -exponents
    out = np.empty((ts.shape[0], table.shape[1]))
    per_chunk = max(1, CHUNK_ENTRIES // table.size)
    for start in range(0, ts.shape[0], per_chunk):
        part = slice(start, start + per_chunk)
        out[part] = (coef[part, :, None] * table).sum(axis=1)
    half = _NODES // 2
    return out[:, :half], out[:, half:]


def u_lambda_many(op, lams, t):
    """Relaxation kernel u_lambda(t) for a whole array of lambda at once.

    A scalar t gives one value per lambda.  A 1-D array of times gives one
    row per time, each equal bit for bit to the scalar call at that time;
    t = 0 gives a row of ones.  The folded sum
    u = (1 / pi) sum_k Im(c_k / (p_k + lambda)) over the upper-half nodes,
    c_k = e^{z_k t} w_k p_k / z_k, runs in real arithmetic on a
    (times x nodes x lambda) table of about CHUNK_ENTRIES entries at a
    time; a lambda above 1e150, whose square may overflow there, is
    recomputed from the complex quotient.  A lambda = 0 column, exactly 1,
    rides along: a defect above 1e-6 (overflow at tiny t, underflow at
    huge t) raises ContourFailure naming the first time it fails at.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if not np.all((lams > 0.0) & (lams < math.inf)):
        raise InvalidParameter("lambda must be finite and positive")
    times = np.asarray(t, dtype=float)
    if times.ndim > 1:
        raise InvalidParameter("times must be a scalar or a 1-D array")
    flat = times.reshape(-1)
    bad = ~((flat >= 0.0) & (flat < math.inf))
    if bad.any():
        raise DomainError(
            "t must be finite and nonnegative, got %r" % (float(flat[bad][0]),)
        )
    rows = np.ones((flat.shape[0], lams.shape[0]))
    live = np.nonzero(flat)[0]
    ts = flat[live, None]
    shifts = np.concatenate(([0.0], lams))
    huge = lams > _REAL_SHIFT_MAX
    with np.errstate(all="ignore"):
        z, w = _contour_nodes(ts)
        pr, pi = _symbol_on_contour(op, ts)
        p = pr + 1j * pi
        c = np.exp(z * ts) * w * p / z
        cr_pi = (c.real * pi)[:, :, None]
        ci = c.imag[:, :, None]
        pi2 = (pi * pi)[:, :, None]
        per_chunk = max(1, CHUNK_ENTRIES // (shifts.shape[0] * pi.shape[1]))
        for start in range(0, ts.shape[0], per_chunk):
            part = slice(start, start + per_chunk)
            # term (c_i (p_r + lambda) - c_r p_i) / ((p_r + lambda)^2 + p_i^2)
            shifted = pr[part, :, None] + shifts
            denom = shifted * shifted
            denom += pi2[part]
            shifted *= ci[part]
            shifted -= cr_pi[part]
            shifted /= denom
            total = shifted.sum(axis=1) / math.pi
            defect = np.abs(total[:, 0] - 1.0)
            bad = ~(defect <= 1e-6)
            if bad.any():
                k = int(np.argmax(bad))
                raise ContourFailure(
                    "lambda = 0 defect %.3e at t = %r" % (defect[k], float(ts[part][k, 0]))
                )
            rows[live[part]] = total[:, 1:]
            if huge.any():
                quot = c[part, :, None] / (p[part, :, None] + lams[huge])
                rows[live[part, None], huge] = quot.imag.sum(axis=1) / math.pi
    return rows if times.ndim else rows[0]


def u_lambda(op, lam, t):
    """Scalar relaxation kernel; completely monotone, u_lambda(0+) = 1."""
    return float(u_lambda_many(op, lam, t)[0])


def _ml_series(alpha, y):
    """Power series for E_alpha(-y), 0 < y <= 1; None if 200 terms do not settle.

    No term exceeds 1 / min Gamma ~ 1.13, so roundoff stays near 1e-16.
    """
    total = term = 1.0
    lg_prev = 0.0
    for k in range(1, 201):
        lg = math.lgamma(alpha * k + 1.0)
        term *= -y * math.exp(lg_prev - lg)
        lg_prev = lg
        total += term
        if abs(term) < 1e-16 * total:
            return total
    return None


def _ml_branch_cut(alpha, y):
    c = math.cos(math.pi * alpha)
    s = math.sin(math.pi * min(alpha, 1.0 - alpha))  # pi * alpha loses s's digits near 1
    # tanh-sinh pieces between breaks at 0, 1 and, below 80^alpha (beyond it
    # exp(-sig^(1/alpha)) < e^-80), the peak and its flanks y s away, then
    # exp-sinh; a node is its nearer break plus an offset
    peak = -y * c
    flanks = (peak - y * s, peak, peak + y * s) if 0.0 < peak < 80.0 ** alpha else ()
    b = np.unique([0.0, 1.0] + [v for v in flanks if v > 0.0])[:, None]
    ts_node, ts_weight, es_node, es_weight = _de_rules()
    off = np.diff(b, axis=0) * np.where(ts_node <= 0.5, ts_node, -ts_node[::-1])
    near = np.where(ts_node <= 0.5, b[:-1], b[1:])
    sig = np.append(near + off, b[-1] + es_node)
    # d = sig / y + c keeps its digits by a narrow peak: near - peak is exact
    d = np.append(near - peak + off, b[-1] - peak + es_node) / y
    wts = np.append(np.diff(b, axis=0) * ts_weight, es_weight)
    with np.errstate(over="ignore", under="ignore"):  # O(1) over y^2; exp(-inf) = 0
        f = np.exp(-sig ** (1.0 / alpha)) / (d ** 2 + s ** 2)
    return s / (alpha * math.pi * y) * float(wts @ f)


def mittag_leffler(alpha, x):
    """E_alpha(x) for alpha in (0, 1] and x <= 0."""
    if not 0.0 < alpha <= 1.0:
        raise DomainError("alpha %r outside (0, 1]" % (alpha,))
    if not math.isfinite(x):
        raise DomainError("x must be finite, got %r" % (x,))
    if x > 0.0:
        raise DomainError("only the decaying branch x <= 0 is supported")
    if x == 0.0:
        return 1.0
    if alpha == 1.0:
        return math.exp(x)
    val = _ml_series(alpha, -x) if x >= -1.0 else None
    return _ml_branch_cut(alpha, -x) if val is None else val


def beta0(op, t):
    """Small-time scale function: 1 - u_lambda(t) ~ lambda * beta0(t)."""
    if not t > 0.0:
        raise DomainError("t must be positive")
    if op.mu_ends is None:
        a1 = float(op.terms[0][0])
        return t ** a1 / math.gamma(1.0 + a1)
    if t >= 1.0:
        raise DomainError("distributed small-time scale needs t < 1")
    # P(s) ~ mu(1) s / log s for s -> inf, so the first-order kernel decay
    # carries the logarithm in the numerator
    return t * math.log(1.0 / t) / op.mu_ends[1]


def beta_inf(op, t):
    """Large-time scale function: u_lambda(t) ~ beta_inf(t) / lambda."""
    if not t > 0.0:
        raise DomainError("t must be positive")
    if op.mu_ends is None:
        am = float(op.terms[0][-1])
        bm = float(op.terms[1][-1])
        if am == 1.0:
            return 0.0
        return bm * t ** (-am) / math.gamma(1.0 - am)
    if t <= 1.0:
        raise DomainError("distributed large-time scale needs t > 1")
    return op.mu_ends[0] / math.log(t)


def cq_weights(op, tau, n):
    """Backward Euler convolution weights omega_0..omega_n for step tau.

    Generating function: sum_j omega_j xi^j = P((1 - xi) / tau), so each
    term b_k z^{a_k} adds b_k tau^{-a_k} (-1)^j binom(a_k, j).  The leading
    weight equals P(1/tau); all later weights are negative.  A 1-D array
    of step sizes gives one row of weights per tau.
    """
    taus = np.asarray(tau, dtype=float)
    if not np.all((taus > 0.0) & (taus < math.inf)):
        raise InvalidParameter("tau must be positive and finite")
    if n < 0:
        raise InvalidParameter("n must be nonnegative")
    exponents, weights = op.terms
    rows = np.empty((exponents.shape[0], n + 1))
    rows[:, 0] = 1.0
    for j in range(1, n + 1):
        rows[:, j] = rows[:, j - 1] * (j - 1.0 - exponents) / j
    return (weights * taus[..., None] ** -exponents) @ rows


def _r_rows(op, lams, tau, n):
    """Rows r_{m,tau}(lambda) for m = 0..n, shape (n + 1, len(lams)).

    Backward Euler time stepping of the scalar mode equation with exact
    initial value 1; the history convolution is the full-memory sum.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=float))
    if np.any(lams <= 0.0):
        raise InvalidParameter("lambda must be positive")
    if n < 1:
        raise InvalidParameter("need at least one step")
    w = cq_weights(op, tau, n)
    csum = np.cumsum(w)
    u = np.empty((n + 1, lams.shape[0]))
    u[0] = 1.0
    for m in range(1, n + 1):
        rhs = np.full(lams.shape[0], csum[m - 1])
        if m > 1:
            rhs -= w[m - 1:0:-1] @ u[1:m]
        u[m] = rhs / (w[0] + lams)
    return u


def r_scalar_many(op, lams, tau, n):
    """Discrete relaxation kernel r_{n,tau}(lambda) for an array of lambda."""
    return _r_rows(op, lams, tau, n)[n]
