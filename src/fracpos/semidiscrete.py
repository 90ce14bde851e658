"""Semidiscrete solution operator E(t) and its nonnegativity thresholds.

E(t) applies the relaxation kernel mode by mode through the generalized
eigensystem of (S, M): E(t) = back @ diag(u_{lambda_i}(t)) @ forward.  The
smallest entry of E(t) decides nonnegativity; its last sign change along a
logarithmic time grid, refined by bisection, is the reported threshold.
scan_threshold runs that scan for any vectorised smallest entry: the whole
grid is evaluated in one pass (one kernel call, then a few wide products
through EigenSystem.min_entries), and bisection goes point by point.  The
fully discrete scheme scans E_{1,tau} over step sizes with it.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import kernel, linalg
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
        if not 0.0 < self.start < self.stop:
            raise InvalidParameter("scan needs 0 < start < stop")
        if self.per_decade < 1:
            raise InvalidParameter("per_decade must be at least 1")

    @property
    def decades(self):
        return math.log10(self.stop / self.start)

    def grid(self):
        count = int(round(self.decades * self.per_decade)) + 1
        return np.geomspace(self.start, self.stop, count)


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


def solution_matrix(system, op, t, contour=None):
    """E(t) for the semidiscrete scheme; t below 1e-14 returns the identity."""
    n = system.eigen.size
    if t <= 1e-14:
        mat = np.eye(n)
    else:
        u = kernel.u_lambda_many(op, system.eigen.eigenvalues, t, contour=contour)
        mat = system.eigen.matrix_function(u)
    return SolutionMatrix(matrix=mat, time=t, method=system.method, operator=op.label)


def _solution_mins(system, op):
    """Vectorised smallest entry of E(t): one kernel call for all the times.

    Times at or below 1e-14 give the identity's smallest entry, like
    solution_matrix.
    """
    eigen = system.eigen

    def min_entries(ts):
        ts = np.asarray(ts, dtype=float)
        mins = np.full(ts.shape, 1.0 if eigen.size == 1 else 0.0)
        live = ts > 1e-14
        if live.any():
            rows = kernel.u_lambda_many(op, eigen.eigenvalues, ts[live])
            mins[live] = eigen.min_entries(rows)
        return mins

    return min_entries


def min_entry_curve(system, op, grid):
    """Smallest entry of the solution matrix along a time grid, as (t, min)."""
    grid = np.asarray(grid, dtype=float)
    return np.column_stack((grid, _solution_mins(system, op)(grid)))


@dataclass(eq=False)
class ThresholdReport:
    """Outcome of a threshold scan.

    status is one of "found" (value and bracket set), "all-nonnegative"
    (the smallest entry never drops below -tolerance), or "none-found"
    (still negative at the end of the scan).
    """

    status: str
    value: float
    bracket: tuple
    tolerance: float
    curve: np.ndarray
    method: str = ""
    operator: str = ""

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


def scan_threshold(system, op, min_entries, scan=None, tol=None):
    """Threshold of a vectorised smallest entry min_entries(xs) over a log scan.

    The scan must cover at least six decades.  Negativity below
    tol = 1e-12 * N is attributed to roundoff.  The curve holds
    min_entries over the whole grid, evaluated in one call; the last
    sign change is bisected one point at a time.
    """
    scan = scan if scan is not None else ScanSpec()
    if scan.decades < 6.0 - 1e-9:
        raise InvalidParameter("scan must cover at least six decades")
    if tol is None:
        tol = 1e-12 * system.size
    grid = scan.grid()
    mins = min_entries(grid)
    status, value, bracket = detect_threshold(
        grid, mins, lambda x: min_entries(np.array([x]))[0], tol
    )
    return ThresholdReport(
        status=status,
        value=value,
        bracket=bracket,
        tolerance=tol,
        curve=np.column_stack((grid, mins)),
        method=system.method,
        operator=op.label,
    )


def positivity_threshold(system, op, scan=None, tol=None):
    """Time beyond which E(t) stays entrywise nonnegative (see scan_threshold)."""
    return scan_threshold(system, op, _solution_mins(system, op), scan, tol)


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
    hinv = linalg.solve_spd(system.stiffness, system.mass)
    return _strictly_positive(hinv)


def h_eventually_positive(system, max_power=8):
    """Smallest k <= max_power with H^{-k} > 0 entrywise, else None."""
    if not 1 <= max_power <= 8:
        raise InvalidParameter("max_power must lie in 1..8")
    hinv = linalg.solve_spd(system.stiffness, system.mass)
    power = hinv
    for k in range(1, max_power + 1):
        ok, _ = _strictly_positive(power)
        if ok:
            return k
        power = power @ hinv
    return None
