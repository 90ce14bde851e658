"""Scalar time kernels for fractional relaxation.

Every time operator has one symbol form, a finite sum of weighted powers

    P(z) = sum_k b_k z^{a_k},   a_k in (0, 1],  b_k > 0.

A single- or multi-term operator gives its own exponents and weights; a
distributed operator int_0^1 z^a mu(a) da gives the Gauss-Legendre nodes
a_k with weights w_k mu(a_k).  FracOperator.terms holds (a, b) from
construction on, and the symbol has one formula over them on the
contour below and one on the positive axis: the leading convolution
weight omega_0 = P(1/tau) = sum_k b_k tau^{-a_k} of cq_weights, in real
arithmetic.  The relaxation kernel

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
mpmath at a = 0.1 ... 0.99 and 1 - 1e-6, 2.1e-12 at 1 - 1e-8, 6e-12 at 0.001.
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
    """Symbol of the time operator.

    kind "discrete": P(z) = sum b_i z^{a_i}, exponents strictly decreasing
    in (0, 1], leading weight normalized to 1.  kind "distributed":
    P(z) = int_0^1 z^a mu(a) da with mu positive at both endpoints,
    evaluated by Gauss-Legendre quadrature of the given order.  terms is
    the symbol as arrays (exponents, weights) of one sum of powers.
    """

    kind: str
    exponents: tuple = ()
    weights: tuple = ()
    weight_fn: object = None
    quad_order: int = 64
    label: str = ""
    terms: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.kind == "discrete":
            if not self.exponents:
                raise InvalidParameter("discrete operator needs exponents")
            if len(self.exponents) != len(self.weights):
                raise InvalidParameter("weights and exponents differ in length")
            for a in self.exponents:
                if not 0.0 < a <= 1.0:
                    raise InvalidParameter("exponent %r outside (0, 1]" % (a,))
            if not all(0.0 < b < math.inf for b in self.weights):
                raise InvalidParameter("weights must be positive and finite")
            if abs(self.weights[0] - 1.0) > 1e-14:
                raise InvalidParameter("leading weight must be 1")
            if any(
                self.exponents[i] <= self.exponents[i + 1]
                for i in range(len(self.exponents) - 1)
            ):
                raise InvalidParameter("exponents must decrease strictly")
            terms = (np.array(self.exponents), np.array(self.weights))
        elif self.kind == "distributed":
            if not callable(self.weight_fn):
                raise InvalidParameter("distributed operator needs a weight function")
            if self.quad_order < 16:
                raise InvalidParameter("quadrature order below 16")
            if self.mu_at(0.0) <= 0.0 or self.mu_at(1.0) <= 0.0:
                raise InvalidParameter("weight function must be positive at 0 and 1")
            x, wq = _leggauss01(self.quad_order)
            terms = (x, wq * np.asarray(self.weight_fn(x), dtype=float))
        else:
            raise InvalidParameter("unknown operator kind %r" % (self.kind,))
        object.__setattr__(self, "terms", terms)
        if not self.label:
            object.__setattr__(self, "label", self._default_label())

    def _default_label(self):
        if self.kind == "discrete":
            if len(self.exponents) == 1:
                return "single(%g)" % self.exponents[0]
            return "multi(%s)" % ",".join("%g" % a for a in self.exponents)
        return "dist(%s,%d)" % (
            getattr(self.weight_fn, "__name__", "mu"),
            self.quad_order,
        )

    @classmethod
    def single_term(cls, alpha):
        return cls(kind="discrete", exponents=(float(alpha),), weights=(1.0,))

    @classmethod
    def multi_term(cls, exponents, weights=None):
        exponents = tuple(float(a) for a in exponents)
        if weights is None:
            weights = (1.0,) * len(exponents)
        return cls(kind="discrete", exponents=exponents, weights=tuple(map(float, weights)))

    @classmethod
    def distributed(cls, weight_fn="exp", quad_order=64):
        label = ""
        if isinstance(weight_fn, str):
            if weight_fn not in MU_FUNCTIONS:
                raise InvalidParameter(
                    "unknown weight %r (have %s)" % (weight_fn, sorted(MU_FUNCTIONS))
                )
            label = "dist(%s,%d)" % (weight_fn, quad_order)
            weight_fn = MU_FUNCTIONS[weight_fn]
        return cls(
            kind="distributed",
            weight_fn=weight_fn,
            quad_order=int(quad_order),
            label=label,
        )

    def mu_at(self, a):
        return float(np.asarray(self.weight_fn(a), dtype=float))


@lru_cache(maxsize=1)
def _de_rules():
    """Tanh-sinh nodes, weights on [0, 1] and exp-sinh nodes, weights on [0, inf).

    Double-exponential rules (Takahasi & Mori, Publ. RIMS 9, 1974), step 1/32,
    |t| <= 5; built on first use, as numpy's sinh adds 0.2 MB to peak RSS.
    """
    t = np.arange(-160, 161) / 32.0
    ts = 1.0 / (1.0 + np.exp(-math.pi * np.sinh(t)))
    es = np.exp(0.5 * math.pi * np.sinh(t))
    return ts, math.pi / 32.0 * np.cosh(t) * ts * ts[::-1], es, math.pi / 64.0 * np.cosh(t) * es


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
    huge t) raises ContourFailure.
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
            defect = np.abs(total[:, 0] - 1.0).max()
            if not defect <= 1e-6:
                raise ContourFailure("lambda = 0 defect %.3e" % defect)
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
    if op.kind == "discrete":
        a1 = op.exponents[0]
        return t ** a1 / math.gamma(1.0 + a1)
    if t >= 1.0:
        raise DomainError("distributed small-time scale needs t < 1")
    # P(s) ~ mu(1) s / log s for s -> inf, so the first-order kernel decay
    # carries the logarithm in the numerator
    return t * math.log(1.0 / t) / op.mu_at(1.0)


def beta_inf(op, t):
    """Large-time scale function: u_lambda(t) ~ beta_inf(t) / lambda."""
    if not t > 0.0:
        raise DomainError("t must be positive")
    if op.kind == "discrete":
        am = op.exponents[-1]
        bm = op.weights[-1]
        if am == 1.0:
            return 0.0
        return bm * t ** (-am) / math.gamma(1.0 - am)
    if t <= 1.0:
        raise DomainError("distributed large-time scale needs t > 1")
    return op.mu_at(0.0) / math.log(t)


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
