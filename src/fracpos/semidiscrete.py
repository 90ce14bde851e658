"""Semidiscrete solution operator E(t) and its nonnegativity thresholds.

E(t) applies the relaxation kernel mode by mode through the generalized
eigensystem of (S, M): E(t) = back @ diag(u_{lambda_i}(t)) @ forward.  The
smallest entry of E(t) decides nonnegativity; its last sign change along a
logarithmic time grid, refined by bisection, is the reported threshold.
scan_threshold runs that scan for any per-mode coefficient rows c(x): one
decade at a time from the top of the grid, it computes the decade's rows
in one call and EigenSystem.min_entries reduces them, stopping at the
decade that holds the last negative point; bisection goes point by point.
When the sign is known to change at most once along the grid, as for the
fully discrete scheme's E_{1,tau}, it bisects over grid indices instead.
The rest of the curve is computed and reduced only when a caller reads
it.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .errors import InvalidParameter, NumericalError, ScanMismatch

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
    rest through fill_curve().  After a sign-monotone scan, fill_curve
    reduces the whole grid and raises ScanMismatch when that curve
    decides a different status or grid bracket than the bisection did.
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


def _grid_verdict(mins, tol):
    """Status and index of the last point below -tol (None unless "found")."""
    neg = mins < -tol
    if not neg.any():
        return "all-nonnegative", None
    if neg[-1]:
        return "none-found", None
    return "found", int(np.nonzero(neg)[0][-1])


def detect_threshold(grid, mins, value_fn, tol, rel_width=1e-3):
    """Last sign change of min-entry data, bisected to three digits.

    value_fn(t) re-evaluates the smallest entry during bisection.  Returns
    (status, value, bracket).
    """
    status, last = _grid_verdict(mins, tol)
    if last is None:
        return status, None, None
    lo, hi = grid[last], grid[last + 1]
    while hi / lo > 1.0 + 2.0 * rel_width:
        mid = math.sqrt(lo * hi)
        if value_fn(mid) < -tol:
            lo = mid
        else:
            hi = mid
    return "found", math.sqrt(lo * hi), (lo, hi)


def _bisect_indices(grid, reduce, tol):
    """Adjacent grid indices, and their smallest entries, around the sign change.

    Valid when the curve is below -tol up to one grid index and not below
    it after: both ends first, then one reduced row per halving of the
    index range.  The ends alone decide "all-nonnegative" and "none-found".
    """
    lo, hi = 0, grid.size - 1
    lo_min, hi_min = reduce(grid[[lo, hi]])
    if lo_min < -tol <= hi_min:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            mid_min = reduce(grid[mid:mid + 1])[0]
            if mid_min < -tol:
                lo, lo_min = mid, mid_min
            else:
                hi, hi_min = mid, mid_min
    return np.array([lo, hi]), np.array([lo_min, hi_min])


def scan_threshold(system, op, coeffs, scan=None, tol=None, monotone=False):
    """Threshold of back @ diag(c(x)) @ forward over a log scan of x.

    coeffs(xs) returns one row of per-mode coefficients c(x) per point.
    The scan must cover at least six decades.  Negativity below
    tol = 1e-12 * N is attributed to roundoff; a non-finite smallest
    entry raises NumericalError naming its x.  The grid goes one decade
    (per_decade points) at a time from the largest x down: one coeffs call
    gives the decade's rows and min_entries their smallest entries,
    stopping after the first decade with a point below -tol.  Only the
    last sign change matters, and it is bisected one point at a time.
    "none-found" thus needs the top decade only, "all-nonnegative" the
    whole grid.

    monotone=True is for curves whose sign changes at most once along the
    grid, from negative to nonnegative.  The scan then reduces the two
    ends, then one point per halving of the index range (about log2 of
    the grid size), and refines between the two grid points around the
    change.

    The report's curve computes and reduces the remaining rows when it is
    first read, in the top-down decade groups either way, so its entries
    do not depend on monotone.  A monotone scan checks that curve against
    its bisected verdict (ScanMismatch when they disagree).
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

    def reduce(xs):
        mins = min_entries(coeffs(xs))
        bad = ~np.isfinite(mins)
        if bad.any():
            raise NumericalError(
                "%s %s: smallest entry %r at x = %r"
                % (system.method, op.label, float(mins[bad][0]), float(xs[bad][0]))
            )
        return mins

    def top_down():
        start, mins = grid.size, np.empty(0)
        while start > 0 and not (mins < -tol).any():
            stop, start = start, max(0, start - scan.per_decade)
            mins = np.concatenate((reduce(grid[start:stop]), mins))
        return start, mins

    if monotone:
        idx, mins = _bisect_indices(grid, reduce, tol)
    else:
        start, mins = top_down()
        idx = np.arange(start, grid.size)
    status, value, bracket = detect_threshold(
        grid[idx], mins, lambda x: reduce(np.array([x]))[0], tol
    )

    def fill_curve():
        head_stop, tail = top_down() if monotone else (start, mins)
        curve = np.concatenate((reduce(grid[:head_stop]), tail))
        if monotone:
            full = _grid_verdict(curve, tol)
            bisected = (status, int(idx[0]) if status == "found" else None)
            if full != bisected:
                raise ScanMismatch(
                    "%s %s: full curve gives %s at grid index %s, "
                    "index bisection %s at %s"
                    % ((system.method, op.label) + full + bisected)
                )
        return np.column_stack((grid, curve))

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
