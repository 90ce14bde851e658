"""Semidiscrete solution operator E(t) and its nonnegativity thresholds.

E(t) applies the relaxation kernel mode by mode through the generalized
eigensystem of (S, M): E(t) = back @ diag(u_{lambda_i}(t)) @ forward.  The
smallest entry of E(t) decides nonnegativity; its last sign change along a
logarithmic time grid, refined by bisection, is the reported threshold.
scan_threshold runs that scan for any per-mode coefficient rows c(x): one
decade at a time from the top of the grid, it computes the decade's rows
in one call and EigenSystem.min_entries reduces them, stopping at the
decade that holds the last negative point; bisection goes point by point.
The rest of the curve is computed and reduced only when a caller reads
it.  The fully discrete scheme scans E_{1,tau} over step sizes with it.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import InvalidParameter

__all__ = [
    "ScanSpec",
    "SolutionMatrix",
    "ThresholdReport",
    "solution_matrix",
    "min_entry_curve",
    "positivity_threshold",
    "scan_threshold",
    "detect_threshold",
    "small_time_expansion_check",
    "h_inverse_positive",
    "h_eventually_positive",
]


@dataclass(frozen=True)
class ScanSpec:
    """Logarithmic scan grid; defaults cover ten decades at 25 points each."""

    start: float = 1e-8
    stop: float = 1e2
    per_decade: int = 25

    def __post_init__(self):
        if not (0.0 < self.start < self.stop and math.isfinite(self.stop)):
            raise InvalidParameter("scan needs 0 < start < stop < inf")
        if self.per_decade < 1:
            raise InvalidParameter("per_decade must be at least 1")

    @property
    def decades(self):
        return math.log10(self.stop / self.start)

    @property
    def points(self):
        return int(round(self.decades * self.per_decade)) + 1

    def grid(self):
        return np.geomspace(self.start, self.stop, self.points)


@dataclass(eq=False)
class SolutionMatrix:
    """Dense solution operator with its provenance."""

    matrix: np.ndarray
    time: float
    method: str
    operator: str
    tau: float = None
    steps: int = None

    @property
    def min_entry(self):
        return float(self.matrix.min())


def solution_matrix(system, op, t):
    """E(t) for the semidiscrete scheme; t below 1e-14 returns the identity."""
    n = system.eigen.size
    if t <= 1e-14:
        mat = np.eye(n)
    else:
        u = kernel.u_lambda_many(op, system.eigen.eigenvalues, t)
        mat = system.eigen.matrix_function(u)
    return SolutionMatrix(matrix=mat, time=t, method=system.method, operator=op.label)


def _kernel_rows(system, op, ts):
    """Per-mode coefficients u_lambda(t) of E(t), one row per time.

    Times at or below 1e-14 give a row of ones (the identity), like
    solution_matrix: they reach the kernel as t = 0.
    """
    return kernel.u_lambda_many(op, system.eigen.eigenvalues, np.where(ts > 1e-14, ts, 0.0))


def min_entry_curve(system, op, grid):
    """Smallest entry of the solution matrix along a time grid, as (t, min)."""
    grid = np.asarray(grid, dtype=float)
    return np.column_stack(
        (grid, system.eigen.min_entries(_kernel_rows(system, op, grid)))
    )


@dataclass(eq=False)
class ThresholdReport:
    """Outcome of a threshold scan.

    status is one of "found" (value and bracket set), "all-nonnegative"
    (the smallest entry never drops below -tolerance), or "none-found"
    (still negative at the end of the scan).  curve holds (x, smallest
    entry) over the whole scan grid; the scan computes and reduces only
    the rows that decide the status, and the first read of curve does the
    rest through fill_curve().
    """

    status: str
    value: float
    bracket: tuple
    tolerance: float
    fill_curve: object = field(repr=False)
    method: str = ""
    operator: str = ""

    @functools.cached_property
    def curve(self):
        curve, self.fill_curve = self.fill_curve(), None
        return curve

    @property
    def found(self):
        return self.status == "found"

    def describe(self):
        if self.status == "found":
            return "%.2e" % self.value
        return self.status


def detect_threshold(grid, mins, value_fn, tol, rel_width=1e-3):
    """Last sign change of min-entry data, bisected to three digits.

    value_fn(t) re-evaluates the smallest entry during bisection.  Returns
    (status, value, bracket).
    """
    neg = mins < -tol
    if not neg.any():
        return "all-nonnegative", None, None
    if neg[-1]:
        return "none-found", None, None
    last = np.nonzero(neg)[0][-1]
    lo, hi = grid[last], grid[last + 1]
    while hi / lo > 1.0 + 2.0 * rel_width:
        mid = math.sqrt(lo * hi)
        if value_fn(mid) < -tol:
            lo = mid
        else:
            hi = mid
    return "found", math.sqrt(lo * hi), (lo, hi)


def scan_threshold(system, op, coeffs, scan=None, tol=None):
    """Threshold of back @ diag(c(x)) @ forward over a log scan of x.

    coeffs(xs) returns one row of per-mode coefficients c(x) per point.
    The scan must cover at least six decades.  Negativity below
    tol = 1e-12 * N is attributed to roundoff.  The grid goes one decade
    (per_decade points) at a time from the largest x down: one coeffs call
    gives the decade's rows and min_entries their smallest entries,
    stopping after the first decade with a point below -tol.  Only the
    last sign change matters, and it is bisected one point at a time.
    "none-found" thus needs the top decade only, "all-nonnegative" the
    whole grid.  The report's curve computes and reduces the remaining
    rows when it is first read.
    """
    scan = scan if scan is not None else ScanSpec()
    if scan.decades < 6.0 - 1e-9:
        raise InvalidParameter("scan must cover at least six decades")
    if tol is None:
        tol = 1e-12 * system.size
    elif not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidParameter("tol must be finite and nonnegative, got %r" % tol)
    min_entries = system.eigen.min_entries
    grid = scan.grid()
    start = grid.size
    mins = np.empty(0)
    while start > 0 and not (mins < -tol).any():
        stop, start = start, max(0, start - scan.per_decade)
        mins = np.concatenate((min_entries(coeffs(grid[start:stop])), mins))
    status, value, bracket = detect_threshold(
        grid[start:], mins, lambda x: min_entries(coeffs(np.array([x])))[0], tol
    )

    def fill_curve():
        head = min_entries(coeffs(grid[:start]))
        return np.column_stack((grid, np.concatenate((head, mins))))

    return ThresholdReport(
        status=status,
        value=value,
        bracket=bracket,
        tolerance=tol,
        fill_curve=fill_curve,
        method=system.method,
        operator=op.label,
    )


def positivity_threshold(system, op, scan=None, tol=None):
    """Time beyond which E(t) stays entrywise nonnegative (see scan_threshold)."""
    return scan_threshold(
        system, op, functools.partial(_kernel_rows, system, op), scan, tol
    )


def small_time_expansion_check(system, op, t):
    """Max-norm defect of (I - E(t)) / beta0(t) against H = M^{-1}S."""
    e = solution_matrix(system, op, t).matrix
    h = system.eigen.matrix_function(system.eigen.eigenvalues)
    b0 = kernel.beta0(op, t)
    return float(np.abs((np.eye(e.shape[0]) - e) / b0 - h).max())


def _strictly_positive(a):
    tol = 1e-14 * np.abs(a).max()
    return bool(a.min() > tol), float(a.min())


def h_inverse_positive(system):
    """Whether H^{-1} = S^{-1} M is entrywise (strictly) positive."""
    hinv = system.eigen.matrix_function(1.0 / system.eigen.eigenvalues)
    return _strictly_positive(hinv)


def h_eventually_positive(system, max_power=8):
    """Smallest k <= max_power with H^{-k} > 0 entrywise, else None."""
    if not 1 <= max_power <= 8:
        raise InvalidParameter("max_power must lie in 1..8")
    hinv = system.eigen.matrix_function(1.0 / system.eigen.eigenvalues)
    power = hinv
    for k in range(1, max_power + 1):
        ok, _ = _strictly_positive(power)
        if ok:
            return k
        power = power @ hinv
    return None
