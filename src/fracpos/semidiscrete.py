"""Semidiscrete solution operator E(t) and its nonnegativity thresholds.

E(t) applies the relaxation kernel mode by mode through the generalized
eigensystem of (S, M): E(t) = back @ diag(u_{lambda_i}(t)) @ forward.  The
smallest entry of E(t) decides nonnegativity; its last sign change along a
logarithmic time grid, refined by bisection, is the reported threshold.
scan_threshold runs that scan for any per-mode coefficient rows c(x).
Every curve and scan reads its minima through one reader, _read_mins,
in one of two kinds.  A read for a curve is exact
(EigenSystem.min_entries) on a small system (_exact_size) and, above,
a skeleton of the rows (EigenSystem.skeleton_min_entries) with its exact
stage.  A decide read, whose minima are only compared with the floor, is
exact below DECIDE_SKELETON_SIZE and a skeleton without the exact stage
from there up; the scan re-reads exactly each point within the read's
bound of the floor.  A scan asked for its curve reads the whole grid
once and decides from it.  A scan that only decides reads blocks from
the top of the grid: one decade at a time on a small system, after its
bottom block, and the whole grid at once on a large one.
scan_thresholds runs the scans of several operators on one system in
step, and reads each block once for every scan still undecided: one
skeleton per decade of a table system (positivity_thresholds).
When the sign changes at most once along the grid, as for the fully
discrete scheme's E_{1,tau}, and the low end reads below the floor, it
bisects over grid indices instead.
A single dense E(t) is EigenSystem.matrix_function of one such row.
Every time reaches kernel.u_lambda_many as given, so E(t) tends to I
only as the kernel does, and a time below the kernel's lambda = 0 gate
raises ContourFailure.
"""

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernel, linalg
from .errors import FracposError, InvalidParameter, NumericalError

__all__ = [
    "ScanSpec",
    "ThresholdReport",
    "min_entry_curve",
    "positivity_threshold",
    "positivity_thresholds",
    "scan_threshold",
    "scan_thresholds",
    "detect_threshold",
    "h_inverse_positivity",
]

# skeleton fit of kernel rows in a skeleton read: below the contour
# kernel's own error (about 3.4e-12), so the rows compress
KERNEL_SKELETON_TOL = 1e-12

# decide reads go through a skeleton from this size up, through
# min_entries below it: the measured crossover.  On one decade of the five
# table operators (125 kernel rows, 2 shared vCPUs) the two tie at N = 49
# (2.0 ms); at N = 36 min_entries takes 1.1 against 1.5-1.8 ms, at N = 64
# the skeleton 1.9-2.4 against 3.3 ms, at N = 135 3.6-4.5 against 15.3 ms
DECIDE_SKELETON_SIZE = 49


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
        # stop / start overflows for ranges beyond about 308 decades
        return math.log10(self.stop) - math.log10(self.start)

    @property
    def points(self):
        return int(round(self.decades * self.per_decade)) + 1

    def grid(self):
        return np.geomspace(self.start, self.stop, self.points)


def _exact_size(system):
    """Whether one N x N matrix fits in linalg.BLOCK_ENTRIES (N <= 181)."""
    return system.size ** 2 <= linalg.BLOCK_ENTRIES


def _read_mins(system, rows, fit_tol, decide=False):
    """(mins, bound): exact min_entries (bound 0), else skeleton_min_entries
    with the rows fitted to fit_tol.

    A read for a curve is exact on a system of _exact_size and runs the
    skeleton's exact stage above it.  A decide read, whose minima are only
    compared with the floor, is exact below DECIDE_SKELETON_SIZE and never
    runs that stage: its caller re-reads what lies within the bound."""
    if system.size < DECIDE_SKELETON_SIZE if decide else _exact_size(system):
        return system.eigen.min_entries(rows), np.zeros(len(rows))
    return system.eigen.skeleton_min_entries(rows, fit_tol, decide)


def min_entry_curve(system, op, grid):
    """Smallest entry of E(t) along a time grid, as (t, min), read like a scan."""
    grid = np.asarray(grid, dtype=float)
    rows = kernel.u_lambda_many(op, system.eigen.eigenvalues, grid)
    return np.column_stack((grid, _read_mins(system, rows, KERNEL_SKELETON_TOL)[0]))


@dataclass(frozen=True, eq=False)
class ThresholdReport:
    """Outcome of a threshold scan.

    status is one of "found" (value and bracket set), "all-nonnegative"
    (the smallest entry never drops below -tolerance), or "none-found"
    (still negative at the end of the scan).  curve holds (x, smallest
    entry) over the whole scan grid when the scan was asked for it
    (curve=True), else None.
    """

    status: str
    value: float
    bracket: tuple
    tolerance: float
    curve: object = field(default=None, repr=False)
    method: str = ""
    operator: str = ""

    @property
    def found(self):
        return self.status == "found"

    def describe(self):
        if self.status == "found":
            return "%.2e" % self.value
        return self.status


def detect_threshold(grid, mins, value_fn, tol):
    """Last sign change of min-entry data, bisected to three digits.

    value_fn(t) re-evaluates the smallest entry during bisection, until the
    bracket's ends are within a relative 2e-3 of each other.  Returns
    (status, value, bracket).
    """
    neg = mins < -tol
    if not neg.any():
        return "all-nonnegative", None, None
    if neg[-1]:
        return "none-found", None, None
    last = int(np.nonzero(neg)[0][-1])
    lo, hi = grid[last], grid[last + 1]
    while hi / lo > 1.0 + 2e-3:
        mid = math.sqrt(lo * hi)
        if value_fn(mid) < -tol:
            lo = mid
        else:
            hi = mid
    return "found", math.sqrt(lo * hi), (lo, hi)


def _bisect_indices(grid, reduce, tol, ends):
    """Adjacent grid indices, and their smallest entries, around the sign change.

    Valid when the curve is below -tol up to one grid index and not below
    it after, and its low end is below -tol: ends holds the smallest
    entries at both ends, and one reduced row per halving of the index
    range follows.  A top end below -tol alone decides "none-found".
    """
    lo, hi = 0, grid.size - 1
    lo_min, hi_min = ends
    if hi_min >= -tol:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            mid_min = reduce(grid[mid:mid + 1])[0]
            if mid_min < -tol:
                lo, lo_min = mid, mid_min
            else:
                hi, hi_min = mid, mid_min
    return np.array([lo, hi]), np.array([lo_min, hi_min])


def scan_threshold(system, op, coeffs, scan=None, tol=None, monotone=False, curve=False):
    """Threshold of back @ diag(c(x)) @ forward over a log scan of x.

    coeffs(xs) returns one row of per-mode coefficients c(x) per point.
    The scan must cover at least six decades.  Negativity below
    tol = 1e-12 * N is attributed to roundoff; a non-finite coefficient
    or smallest entry raises NumericalError naming its x.  Only the last
    sign change matters, and it is bisected one point at a time.

    Every read goes through _read_mins, and each point it puts within its
    error bound of -tol is re-read exactly from the rows already at hand,
    so the verdict, value and bracket are those of an exact read of the
    whole grid.  Skeletons of a monotone scan's rows are fitted to
    linalg.SKELETON_TOL, all others to KERNEL_SKELETON_TOL.

    curve=True reads the whole grid in one coeffs call, decides from it
    and keeps it as the report's curve.  Otherwise the scan reads only
    what decides, one block at a time from the largest x down, stopping
    after the first block with a point below -tol: "none-found" needs the
    top block only, "all-nonnegative" the whole grid.  A block is one
    decade on a system of _exact_size and the whole grid above it.  By
    decades the bottom block (one point on a default grid) is read first,
    so a time the kernel cannot read fails the scan even when the top
    decades decide; its minima count only if the blocks reach it.  The
    blocks of a scan that is not monotone are decide reads.

    monotone=True is for curves whose sign changes at most once along the
    grid, from negative to nonnegative.  A scan that only decides then
    reduces the two ends.  When the low end reads below -tol it bisects:
    one point per halving of the index range (about log2 of the grid
    size), then refinement between the two grid points around the change.
    Otherwise the negativity may only have sunk under the floor at the low
    end, so the ends decide nothing and the scan reads top-down as above,
    the whole grid in one block.
    """
    (report,) = scan_thresholds(system, [op], [coeffs], scan, tol, monotone, curve)
    if isinstance(report, FracposError):
        raise report
    return report


def scan_thresholds(system, ops, coeffs, scan=None, tol=None, monotone=False, curve=False):
    """scan_threshold for each pair of ops and coeffs on one system.

    Each scan runs as it would alone, except that the scans go through
    their top-down blocks in step and each block is read once for every
    scan still undecided: one _read_mins call on their stacked rows, so a
    decade of five table operators is one skeleton.  Returns one entry per
    operator, its ThresholdReport or the FracposError its scan raised.  A
    joint read that fails or gives a non-finite minimum is read again
    exactly, scan by scan, so a failing operator changes no other entry
    and fails as it would alone.
    """
    scan = scan if scan is not None else ScanSpec()
    if scan.decades < 6.0 - 1e-9:
        raise InvalidParameter("scan must cover at least six decades")
    if tol is None:
        tol = 1e-12 * system.size
    elif not (math.isfinite(tol) and tol >= 0.0):
        raise InvalidParameter("tol must be finite and nonnegative, got %r" % tol)
    grid = scan.grid()
    fit_tol = linalg.SKELETON_TOL if monotone else KERNEL_SKELETON_TOL
    decide = not (monotone or curve)
    by_decade = _exact_size(system) and decide
    block = scan.per_decade if by_decade else grid.size

    def run(op, coeffs):
        """One scan; it yields each top-down block's rows for the joint
        read and takes back the rows and their (mins, bound), or None to
        read them exactly."""

        def finite(values, xs, what):
            bad = ~np.isfinite(values)
            if bad.any():
                raise NumericalError(
                    "%s %s: %s %r at x = %r"
                    % (system.method, op.label, what, float(values[bad][0]), float(xs[bad][0]))
                )
            return values

        def rows_at(xs):
            rows = coeffs(xs)
            finite(np.abs(rows).max(axis=1), xs, "largest coefficient")
            return rows

        def settle(xs, rows, read):
            mins, bound = read
            near = np.abs(mins + tol) <= bound
            if near.any():
                mins[near] = system.eigen.min_entries(rows[near])
            return finite(mins, xs, "smallest entry")

        def reduce(xs):
            rows = rows_at(xs)
            return settle(xs, rows, _read_mins(system, rows, fit_tol))

        def read_block(xs):
            # the joint read stacks the rows and hands back this scan's part
            rows, read = yield rows_at(xs)
            return settle(xs, rows, read or (system.eigen.min_entries(rows), 0.0))

        ends = reduce(grid[[0, -1]]) if monotone and not curve else None
        if ends is not None and ends[0] < -tol:
            idx, mins = _bisect_indices(grid, reduce, tol, ends)
        else:
            bottom = reduce(grid[:(grid.size - 1) % block + 1]) if by_decade else None
            start, mins = grid.size, np.empty(0)
            while start > 0 and not (mins < -tol).any():
                stop, start = start, max(0, start - block)
                if start == 0 and by_decade:
                    read = bottom
                else:
                    read = yield from read_block(grid[start:stop])
                mins = np.concatenate((read, mins))
            idx = np.arange(start, grid.size)
        status, value, bracket = detect_threshold(
            grid[idx], mins, lambda x: reduce(np.array([x]))[0], tol
        )
        return ThresholdReport(
            status=status,
            value=value,
            bracket=bracket,
            tolerance=tol,
            curve=np.column_stack((grid, mins)) if curve else None,
            method=system.method,
            operator=op.label,
        )

    scans = [run(op, fn) for op, fn in zip(ops, coeffs)]
    outcomes = [None] * len(scans)
    asked = {}

    def resume(k, read):
        try:
            asked[k] = scans[k].send(read)
        except StopIteration as done:
            outcomes[k] = done.value
        except FracposError as exc:
            outcomes[k] = exc

    for k in range(len(scans)):
        resume(k, None)
    while asked:
        pending = list(asked)
        cuts = np.cumsum([len(asked[k]) for k in pending])[:-1]
        # the stack is the rows' one copy: no scan holds its own
        joint = np.vstack([asked.pop(k) for k in pending])
        for k, read in zip(pending, _joint_read(system, joint, cuts, fit_tol, decide)):
            resume(k, read)
    return outcomes


def _joint_read(system, joint, cuts, fit_tol, decide):
    """One _read_mins of the stacked rows of several scans, cut apart at
    cuts: for each scan its rows and their (mins, bound), or None in place
    of every (mins, bound) when the read fails or gives a non-finite
    minimum."""
    rows = np.split(joint, cuts)
    try:
        mins, bound = _read_mins(system, joint, fit_tol, decide)
    except FracposError:
        return [(part, None) for part in rows]
    if not np.isfinite(mins).all():
        return [(part, None) for part in rows]
    return list(zip(rows, zip(np.split(mins, cuts), np.split(bound, cuts))))


def positivity_threshold(system, op, scan=None, tol=None, curve=False):
    """Time beyond which E(t) stays entrywise nonnegative (see scan_threshold)."""
    rows = functools.partial(kernel.u_lambda_many, op, system.eigen.eigenvalues)
    return scan_threshold(system, op, rows, scan, tol, curve=curve)


def positivity_thresholds(system, ops, scan=None, tol=None):
    """positivity_threshold of several operators on one system, decided
    together (scan_thresholds): each a ThresholdReport or a FracposError."""
    lams = system.eigen.eigenvalues
    rows = [functools.partial(kernel.u_lambda_many, op, lams) for op in ops]
    return scan_thresholds(system, ops, rows, scan, tol)


def _strictly_positive(a):
    return bool(a.min() > 1e-14 * np.abs(a).max())


def h_inverse_positivity(system):
    """(power, smallest entry of H^{-1}): power is the smallest k <= 8 with
    H^{-k} = (S^{-1} M)^k entrywise (strictly) positive, else None, so
    H^{-1} > 0 exactly when power is 1."""
    hinv = system.eigen.matrix_function(1.0 / system.eigen.eigenvalues)
    smallest = float(hinv.min())
    power = hinv
    for k in range(1, 9):
        if _strictly_positive(power):
            return k, smallest
        power = power @ hinv
    return None, smallest
