"""Solution operator E(t), min-entry scans, thresholds, and H^-1 structure."""

import math
import re

import numpy as np
import pytest

from fracpos import fem, fullydiscrete, kernel, linalg, mesh, semidiscrete
from fracpos.errors import InvalidParameter, NumericalError
from fracpos.kernel import FracOperator
from fracpos.semidiscrete import ScanSpec

SINGLE = FracOperator.single_term(0.5)
MULTI = FracOperator.multi_term((0.5, 0.2))
DIST = FracOperator.distributed("exp")


def test_scalar_system_is_the_relaxation_kernel(get_system):
    # one interior node, lumped mass: E(t) = [u_16(t)]
    sys = get_system("uniform", "lm", m=2)
    lams = sys.eigen.eigenvalues
    assert lams[0] == pytest.approx(16.0)
    e1 = sys.eigen.matrix_function(kernel.u_lambda_many(SINGLE, lams, 1.0))
    assert e1.shape == (1, 1)
    # frozen oracle: E_0.5(-16) from tools/ml_reference.py
    assert e1[0, 0] == pytest.approx(0.035193377824930838, rel=1e-8)
    # and exactly the kernel value, with no linear-algebra detour
    for t in (1e-3, 0.1, 7.0):
        want = kernel.u_lambda(SINGLE, 16.0, t)
        e = sys.eigen.matrix_function(kernel.u_lambda_many(SINGLE, lams, t))
        assert e[0, 0] == pytest.approx(want, rel=1e-13)


def test_solution_matrix_rows_substochastic(get_system):
    sys = get_system("uniform", "lm", m=10)
    e = sys.eigen.matrix_function(kernel.u_lambda_many(SINGLE, sys.eigen.eigenvalues, 1e-3))
    sums = e.sum(axis=1)
    assert np.all(sums > 0.0)
    assert np.all(sums < 1.0)


def test_solution_matrix_bounded(get_system):
    for method in fem.METHODS:
        sys = get_system("uniform", method, m=6)
        for t in (1e-6, 1e-2, 1.0, 100.0):
            e = sys.eigen.matrix_function(
                kernel.u_lambda_many(SINGLE, sys.eigen.eigenvalues, t)
            )
            assert np.abs(e).max() <= 1.0 + 1e-10


def test_min_entry_curve_shape_and_signs(get_system):
    grid = np.geomspace(1e-6, 10.0, 30)
    sg = get_system("uniform", "sg", m=10)
    curve = semidiscrete.min_entry_curve(sg, SINGLE, grid)
    assert curve.shape == (30, 2)
    np.testing.assert_array_equal(curve[:, 0], grid)
    # early negativity for the nondiagonal mass, positive by t = 10
    assert curve[np.searchsorted(grid, 1e-5), 1] < 0.0
    assert curve[-1, 1] > 0.0
    lm = get_system("uniform", "lm", m=10)
    lm_curve = semidiscrete.min_entry_curve(lm, SINGLE, grid)
    assert np.all(lm_curve[:, 1] >= -1e-12 * lm.size)
    fve = get_system("uniform", "fve", m=10)
    assert semidiscrete.min_entry_curve(fve, SINGLE, grid[-1:])[0, 1] > 0.0


# threshold detection on synthetic curves


def test_detect_threshold_found():
    grid = np.geomspace(1e-6, 1e2, 200)
    fn = lambda t: t - 1e-3
    status, value, bracket = semidiscrete.detect_threshold(
        grid, fn(grid), fn, tol=0.0
    )
    assert status == "found"
    assert bracket[0] <= value <= bracket[1]
    assert value == pytest.approx(1e-3, rel=5e-3)
    assert fn(bracket[1]) >= 0.0


def test_detect_threshold_takes_last_sign_change():
    # dips negative again after a first crossing; the later crossing wins
    fn = lambda t: (t - 1e-4) * (t - 1e-2) * (t - 1.0) / (1.0 + t) ** 2
    grid = np.geomspace(1e-6, 1e2, 400)
    status, value, _ = semidiscrete.detect_threshold(grid, fn(grid), fn, tol=0.0)
    assert status == "found"
    assert value == pytest.approx(1.0, rel=5e-3)


def test_detect_threshold_statuses():
    grid = np.geomspace(1e-6, 1e2, 100)
    pos = lambda t: np.ones_like(t) * 0.5
    status, value, bracket = semidiscrete.detect_threshold(
        grid, pos(grid), pos, tol=1e-12
    )
    assert (status, value, bracket) == ("all-nonnegative", None, None)
    neg = lambda t: -np.ones_like(t)
    status, value, bracket = semidiscrete.detect_threshold(
        grid, neg(grid), neg, tol=1e-12
    )
    assert (status, value, bracket) == ("none-found", None, None)


def test_detect_threshold_tolerance_damps_noise():
    grid = np.geomspace(1e-6, 1e2, 100)
    noisy = np.full(100, -1e-15)
    status, _, _ = semidiscrete.detect_threshold(
        grid, noisy, lambda t: -1e-15, tol=1e-12
    )
    assert status == "all-nonnegative"


# threshold scans on actual systems


def test_positivity_threshold_structure(get_system):
    sys = get_system("uniform", "sg", m=6)
    assert semidiscrete.positivity_threshold(sys, SINGLE).curve is None
    rep = semidiscrete.positivity_threshold(sys, SINGLE, curve=True)
    assert rep.found
    assert rep.status == "found"
    lo, hi = rep.bracket
    assert lo <= rep.value <= hi
    assert hi / lo < 1.01
    assert rep.method == "sg"
    assert rep.operator == "single(0.5)"
    assert rep.curve.shape[1] == 2
    assert rep.describe() == "%.2e" % rep.value
    # the curve is negative somewhere before the threshold, not after
    t, m = rep.curve[:, 0], rep.curve[:, 1]
    assert (m[t < rep.value] < -rep.tolerance).any()
    assert not (m[t > rep.bracket[1]] < -rep.tolerance).any()


def test_positivity_threshold_all_nonnegative_for_lm(get_system):
    rep = semidiscrete.positivity_threshold(
        get_system("uniform", "lm", m=6), SINGLE
    )
    assert rep.status == "all-nonnegative"
    assert rep.value is None
    assert rep.describe() == "all-nonnegative"


BATCH_SYSTEMS = [
    ("uniform", "sg", {"m": 10}),  # N = 81: several rows per product
    ("lshape_coarse", "fve", {}),  # N = 28
    ("disk_medium", "sg", {}),  # N = 583: one row per product
]


@pytest.mark.parametrize("family, method, kw", BATCH_SYSTEMS, ids=lambda x: str(x))
def test_batched_curve_matches_per_point_matrices(get_system, family, method, kw):
    sys = get_system(family, method, **kw)
    grid = np.geomspace(1e-8, 1e2, 26)
    curve = semidiscrete.min_entry_curve(sys, SINGLE, grid)
    lams = sys.eigen.eigenvalues
    each = [
        sys.eigen.matrix_function(kernel.u_lambda_many(SINGLE, lams, t)).min()
        for t in grid
    ]
    exact = sys.eigen.min_entries(kernel.u_lambda_many(SINGLE, lams, grid))
    if sys.size * sys.size > linalg.BLOCK_ENTRIES // 2:
        np.testing.assert_array_equal(exact, each)
    else:
        np.testing.assert_allclose(exact, each, rtol=0.0, atol=1e-15)
    # above the size rule the curve is a skeleton read, held to the band
    # threshold curves are held to
    np.testing.assert_allclose(curve[:, 1], each, rtol=0.0, atol=1e-15)


def test_batched_curve_identity_rows_on_scalar_system(get_system):
    sys = get_system("uniform", "lm", m=2)
    assert sys.size == 1
    grid = np.array([1e-17, 1e-15, 1e-14, 2e-14, 1e-12, 1e-9, 1e-3])
    curve = semidiscrete.min_entry_curve(sys, SINGLE, grid)
    lams = sys.eigen.eigenvalues
    # every time, however small, reads the kernel's E(t), which only
    # tends to the identity: 1 - 5.7e-8 at t = 1e-17 here
    each = [
        sys.eigen.matrix_function(kernel.u_lambda_many(SINGLE, lams, t)).min()
        for t in grid
    ]
    np.testing.assert_allclose(curve[:, 1], each, rtol=0.0, atol=1e-15)
    assert np.all(curve[:, 1] < 1.0 - 1e-8)


# the kernel call that computes a scheme's coefficient rows
KERNEL_CALLS = {"semi": "u_lambda_many", "fully": "cq_weights"}


def _count_scan_work(monkeypatch, kernel_name):
    """Count kernel calls and rows, reduced rows, skeleton reads and
    refinement steps.

    Rows count as reduced once, through min_entries or through
    skeleton_min_entries, which hands a batch its skeleton does not pay
    for on to min_entries.
    """
    counts = {"calls": 0, "rows": 0, "reduced": 0, "skeleton": 0, "bisect": 0}
    kernel_fn = getattr(kernel, kernel_name)
    min_entries = linalg.EigenSystem.min_entries
    skeleton_min_entries = linalg.EigenSystem.skeleton_min_entries
    detect_threshold = semidiscrete.detect_threshold
    inside_skeleton = []

    def counting_kernel(*args, **kwargs):
        out = kernel_fn(*args, **kwargs)
        counts["calls"] += 1
        counts["rows"] += len(out)
        return out

    def counting_min_entries(self, rows):
        if not inside_skeleton:
            counts["reduced"] += len(rows)
        return min_entries(self, rows)

    def counting_skeleton_min_entries(self, rows, *args):
        counts["reduced"] += len(rows)
        counts["skeleton"] += 1
        inside_skeleton.append(True)
        try:
            return skeleton_min_entries(self, rows, *args)
        finally:
            inside_skeleton.pop()

    def counting_detect(grid, mins, value_fn, tol):
        def step(x):
            counts["bisect"] += 1
            return value_fn(x)

        return detect_threshold(grid, mins, step, tol)

    monkeypatch.setattr(kernel, kernel_name, counting_kernel)
    monkeypatch.setattr(linalg.EigenSystem, "min_entries", counting_min_entries)
    monkeypatch.setattr(
        linalg.EigenSystem, "skeleton_min_entries", counting_skeleton_min_entries
    )
    monkeypatch.setattr(semidiscrete, "detect_threshold", counting_detect)
    return counts


def _reset(counts):
    counts.update(dict.fromkeys(counts, 0))


def _assert_one_grid_read(counts, points):
    """One call for the whole grid, then one per refinement step."""
    assert counts["bisect"] >= 1
    assert counts["calls"] == 1 + counts["bisect"]
    assert counts["rows"] == counts["reduced"] == points + counts["bisect"]


@pytest.mark.parametrize("scheme", ["semi"])
def test_scan_computes_rows_only_for_the_decades_it_reduces(
    get_system, monkeypatch, scheme
):
    sys = get_system("uniform", "sg", m=10)
    counts = _count_scan_work(monkeypatch, KERNEL_CALLS[scheme])
    rep = THRESHOLD_FNS[scheme](sys, SINGLE)
    scan = ScanSpec()
    assert rep.found
    assert counts["bisect"] >= 1
    # every row computed is reduced, and the grid goes one call per decade
    # (a per-point loop makes about 160 calls here)
    grid_rows = counts["reduced"] - counts["bisect"]
    assert grid_rows < scan.grid().size
    assert counts["rows"] == counts["reduced"]
    assert counts["calls"] <= math.ceil(grid_rows / scan.per_decade) + counts["bisect"]
    assert rep.curve is None
    _reset(counts)
    read = THRESHOLD_FNS[scheme](sys, SINGLE, curve=True)
    assert (read.status, read.value, read.bracket) == (rep.status, rep.value, rep.bracket)
    _assert_one_grid_read(counts, scan.grid().size)


def test_fully_discrete_scan_bisects_grid_indices(get_system, monkeypatch):
    sys = get_system("uniform", "sg", m=10)
    counts = _count_scan_work(monkeypatch, KERNEL_CALLS["fully"])
    rep = fullydiscrete.fd_positivity_threshold(sys, SINGLE)
    points = ScanSpec().grid().size
    assert rep.found
    assert counts["bisect"] >= 1
    # both ends, then one point per halving of the 250 index steps
    probes = counts["reduced"] - counts["bisect"]
    assert probes <= 2 + math.ceil(math.log2(points - 1))
    assert counts["rows"] == counts["reduced"]
    # the ends share one call; every other probe and refinement step is one
    assert counts["calls"] == probes - 1 + counts["bisect"]
    assert rep.curve is None
    # asked for its curve, the scan reads the whole grid instead
    _reset(counts)
    read = fullydiscrete.fd_positivity_threshold(sys, SINGLE, curve=True)
    assert (read.status, read.value, read.bracket) == (rep.status, rep.value, rep.bracket)
    _assert_one_grid_read(counts, points)


def test_curve_rereads_skeleton_points_near_the_floor(get_system, monkeypatch):
    # N = 135 reads exactly, with bound 0, so only the point exactly on the
    # floor is re-read; min_entries reduces one row per product, so the
    # bisection, the re-read and the full grid read the same bits
    sys = get_system("disk_coarse", "fve")
    scan = ScanSpec()
    points = scan.grid().size
    curve = fullydiscrete.fd_positivity_threshold(sys, SINGLE, curve=True).curve
    # the last negative point sits exactly on the floor
    tol = -curve[np.flatnonzero(curve[:, 1] < 0.0)[-1], 1]
    counts = _count_scan_work(monkeypatch, KERNEL_CALLS["fully"])
    rep = fullydiscrete.fd_positivity_threshold(sys, SINGLE, scan=scan, tol=tol, curve=True)
    assert rep.curve.shape == (points, 2)
    assert counts["reduced"] > points + counts["bisect"]
    verdict, full = _full_grid_threshold(sys, SINGLE, "fully", scan, tol)
    assert rep.found
    assert (rep.status, rep.value, rep.bracket) == verdict
    np.testing.assert_allclose(rep.curve, full, rtol=0.0, atol=1e-15)
    decided = fullydiscrete.fd_positivity_threshold(sys, SINGLE, scan=scan, tol=tol)
    assert (decided.status, decided.value, decided.bracket) == verdict


def test_large_fully_discrete_curve_rereads_points_near_the_floor(get_system, monkeypatch):
    # N = 196: above the size rule the curve is a skeleton read, and the
    # points it puts near the floor are re-read exactly
    sys = get_system("uniform", "sg", m=15)
    scan = ScanSpec()
    curve = fullydiscrete.fd_positivity_threshold(sys, SINGLE, curve=True).curve
    tol = -curve[np.flatnonzero(curve[:, 1] < 0.0)[-1], 1]
    counts = _count_scan_work(monkeypatch, KERNEL_CALLS["fully"])
    rep = fullydiscrete.fd_positivity_threshold(sys, SINGLE, scan=scan, tol=tol, curve=True)
    assert counts["reduced"] > scan.points + counts["bisect"]
    verdict, full = _full_grid_threshold(sys, SINGLE, "fully", scan, tol)
    assert (rep.status, rep.value, rep.bracket) == verdict
    np.testing.assert_allclose(rep.curve, full, rtol=0.0, atol=1e-15)
    decided = fullydiscrete.fd_positivity_threshold(sys, SINGLE, scan=scan, tol=tol)
    assert (decided.status, decided.value, decided.bracket) == verdict


def test_large_system_scan_reads_the_grid_once(get_system, monkeypatch):
    # N = 196: one matrix exceeds BLOCK_ENTRIES, so the semidiscrete scan
    # reads the whole grid in one kernel call through a skeleton, and
    # asking for the curve changes no work
    sys = get_system("uniform", "sg", m=15)
    assert sys.size ** 2 > linalg.BLOCK_ENTRIES
    counts = _count_scan_work(monkeypatch, KERNEL_CALLS["semi"])
    points = ScanSpec().grid().size
    reports = []
    for curve in (False, True):
        _reset(counts)
        reports.append(semidiscrete.positivity_threshold(sys, SINGLE, curve=curve))
        _assert_one_grid_read(counts, points)
    rep, read = reports
    assert rep.found
    assert (read.status, read.value, read.bracket) == (rep.status, rep.value, rep.bracket)
    assert read.curve.shape == (points, 2)


def test_large_system_curve_is_one_skeleton_read(get_system, monkeypatch):
    # N = 196: min_entry_curve reads like the scan, all rows in one
    # skeleton read, none through min_entries on its own
    sys = get_system("uniform", "sg", m=15)
    counts = _count_scan_work(monkeypatch, KERNEL_CALLS["semi"])
    skeleton_min_entries = linalg.EigenSystem.skeleton_min_entries
    skeleton_reads = []

    def recording(self, rows, *args):
        skeleton_reads.append(len(rows))
        return skeleton_min_entries(self, rows, *args)

    monkeypatch.setattr(linalg.EigenSystem, "skeleton_min_entries", recording)
    grid = ScanSpec().grid()
    curve = semidiscrete.min_entry_curve(sys, SINGLE, grid)
    assert curve.shape == (grid.size, 2)
    assert skeleton_reads == [grid.size]
    assert counts["calls"] == 1
    assert counts["reduced"] == grid.size


@pytest.mark.parametrize("method", fem.METHODS)
def test_small_system_fully_discrete_curve_is_exact(get_system, method):
    # N = 81: below the size rule a curve is min_entries itself
    sys = get_system("uniform", method, m=10)
    scan = ScanSpec()
    rep = fullydiscrete.fd_positivity_threshold(sys, SINGLE, scan=scan, curve=True)
    _, full = _full_grid_threshold(sys, SINGLE, "fully", scan, rep.tolerance)
    np.testing.assert_array_equal(rep.curve, full)


def test_whole_grid_read_rereads_points_near_the_floor(get_system, monkeypatch):
    # N = 196: min_entries reduces one row per product, so the re-read and
    # the full grid read the same bits at every point
    sys = get_system("uniform", "sg", m=15)
    scan = ScanSpec()
    curve = semidiscrete.positivity_threshold(sys, SINGLE, curve=True).curve
    # the last negative point of the read sits exactly on the floor
    tol = -curve[np.flatnonzero(curve[:, 1] < 0.0)[-1], 1]
    counts = _count_scan_work(monkeypatch, KERNEL_CALLS["semi"])
    rep = semidiscrete.positivity_threshold(sys, SINGLE, scan=scan, tol=tol, curve=True)
    work = dict(counts)
    verdict, full = _full_grid_threshold(sys, SINGLE, "semi", scan, tol)
    assert rep.found
    assert (rep.status, rep.value, rep.bracket) == verdict
    # the read, whose rows the near-floor re-read reuses, then the bisection
    assert work["calls"] == 1 + work["bisect"]
    assert work["reduced"] > scan.points + work["bisect"]
    np.testing.assert_allclose(rep.curve, full, rtol=0.0, atol=1e-15)


FIVE = [
    SINGLE,
    FracOperator.single_term(0.75),
    MULTI,
    FracOperator.multi_term((0.75, 0.2)),
    DIST,
]


def test_joint_scan_reads_each_decade_once_for_its_pending_operators(
    get_system, monkeypatch
):
    # N = 135, the largest default-table system: the five operators decide
    # together, one skeleton read per decade for all that are undecided
    sys = get_system("disk_coarse", "sg")
    assert semidiscrete.DECIDE_SKELETON_SIZE <= sys.size and sys.size ** 2 <= linalg.BLOCK_ENTRIES
    counts = _count_scan_work(monkeypatch, KERNEL_CALLS["semi"])
    alone = []
    for op in FIVE:
        _reset(counts)
        alone.append((semidiscrete.positivity_threshold(sys, op), dict(counts)))
    _reset(counts)
    joint = semidiscrete.positivity_thresholds(sys, FIVE)
    # alone, each operator reads its decades through one skeleton each
    decades = [work["skeleton"] for _, work in alone]
    assert min(decades) >= 1 and sum(decades) > max(decades)
    assert counts["skeleton"] == max(decades)
    # the same rows and kernel calls, the same verdicts
    for key in ("calls", "rows", "bisect"):
        assert counts[key] == sum(work[key] for _, work in alone), key
    for rep, (one, _) in zip(joint, alone):
        assert (rep.status, rep.value, rep.bracket) == (one.status, one.value, one.bracket)
        assert rep.found and rep.curve is None


def test_joint_decade_read_rereads_points_near_the_floor(get_system, monkeypatch):
    # N = 135: a curve reads exactly, a decide read through a skeleton
    # with no exact stage, so the point that sits exactly on the floor is
    # re-read exactly from the rows at hand
    sys = get_system("disk_coarse", "sg")
    scan = ScanSpec()
    curve = semidiscrete.positivity_threshold(sys, SINGLE, curve=True).curve
    tol = -curve[np.flatnonzero(curve[:, 1] < 0.0)[-1], 1]
    counts = _count_scan_work(monkeypatch, KERNEL_CALLS["semi"])
    reports = semidiscrete.positivity_thresholds(sys, FIVE, scan=scan, tol=tol)
    work = dict(counts)
    assert work["skeleton"] >= 1
    assert work["reduced"] > work["rows"]
    assert reports[0].found
    for op, rep in zip(FIVE, reports):
        verdict, _ = _full_grid_threshold(sys, op, "semi", scan, tol)
        assert (rep.status, rep.value, rep.bracket) == verdict, op.label


def test_curve_rejects_non_finite_rows_between_probes():
    sys = fem.system_from_matrices(np.eye(3), np.diag([1.0, 2.0, 3.0]))
    coeffs = _sign_coeffs(sys.size, lambda x: x < 1e-4)
    probed = []

    def recording(xs):
        probed.extend(xs)
        return coeffs(xs)

    assert semidiscrete.scan_threshold(sys, SINGLE, recording, monotone=True).found
    grid = ScanSpec().grid()
    bad = float(grid[~np.isin(grid, probed)][100])

    def poisoned(xs):
        rows = coeffs(xs)
        rows[xs == bad] = np.nan
        return rows

    # a scan that only decides never reads the poisoned row
    assert semidiscrete.scan_threshold(sys, SINGLE, poisoned, monotone=True).found
    # a scan asked for its curve reads every row, and names the bad one
    with pytest.raises(NumericalError, match="x = %s$" % re.escape(repr(bad))):
        semidiscrete.scan_threshold(sys, SINGLE, poisoned, monotone=True, curve=True)


def _sign_coeffs(size, negative):
    """Rows of +1 or -1 per mode, so the smallest entry is 0 or about -1."""

    def coeffs(xs):
        return np.where(negative(xs), -1.0, 1.0)[:, None] * np.ones(size)

    return coeffs


@pytest.mark.parametrize(
    "negative, bisected",
    [
        # below -tol up to 1e-6 and again on (0.1, 1): the index bisection
        # lands on the first change, the whole grid's last one is at 1
        (lambda x: (x < 1e-6) | ((x > 0.1) & (x < 1.0)), True),
        # nonnegative at both ends, negative in between: a low end above
        # -tol brackets nothing, so the monotone scan reads top-down too
        (lambda x: (x > 1e-4) & (x < 1e-2), False),
    ],
    ids=["two-dips", "inner-dip"],
)
def test_monotone_scan_curve_guard(negative, bisected):
    sys = fem.system_from_matrices(np.eye(3), np.diag([1.0, 2.0, 3.0]))
    coeffs = _sign_coeffs(sys.size, negative)
    rep = semidiscrete.scan_threshold(sys, SINGLE, coeffs, monotone=True)
    # the top-down scan takes the last change
    top_down = semidiscrete.scan_threshold(sys, SINGLE, coeffs)
    assert top_down.found
    assert top_down.bracket[0] < (1.0 if bisected else 1e-2) <= top_down.bracket[1]
    verdict = (top_down.status, top_down.value, top_down.bracket)
    if bisected:
        assert rep.found and rep.bracket[1] < 1e-5
    else:
        assert (rep.status, rep.value, rep.bracket) == verdict
    # a scan asked for its curve decides from the whole grid, monotone or not
    for monotone in (False, True):
        read = semidiscrete.scan_threshold(sys, SINGLE, coeffs, monotone=monotone, curve=True)
        assert (read.status, read.value, read.bracket) == verdict
        assert read.curve.shape == (ScanSpec().grid().size, 2)


def _full_grid_threshold(sys, op, scheme, scan, tol):
    """Reference verdict and curve: every grid point reduced, then detect_threshold."""
    lams = sys.eigen.eigenvalues
    if scheme == "semi":

        def rows(xs):
            return kernel.u_lambda_many(op, lams, xs)

    else:

        def rows(xs):
            omega0 = kernel.cq_weights(op, xs, 0)
            return omega0 / (omega0 + lams)

    grid = scan.grid()
    mins = sys.eigen.min_entries(rows(grid))
    verdict = semidiscrete.detect_threshold(
        grid, mins, lambda x: sys.eigen.min_entries(rows(np.array([x])))[0], tol
    )
    return verdict, np.column_stack((grid, mins))


def _assert_curve_is_the_full_grid(sys, curve, full):
    """Bit for bit on a system of exact size; a skeleton read holds 1e-15."""
    np.testing.assert_array_equal(curve[:, 0], full[:, 0])
    if sys.size ** 2 <= linalg.BLOCK_ENTRIES:
        np.testing.assert_array_equal(curve, full)
    else:
        np.testing.assert_allclose(curve[:, 1], full[:, 1], rtol=0.0, atol=1e-15)


THRESHOLD_FNS = {
    "semi": semidiscrete.positivity_threshold,
    "fully": fullydiscrete.fd_positivity_threshold,
}
EQUIVALENCE_CASES = [
    (family, method, m, op, scheme)
    for family, method, m in (
        ("uniform", "sg", 10),
        ("uniform", "lm", 10),
        ("uniform", "fve", 10),
        ("crossed", "lm", 5),
        ("sliver", "sg", 10),
        # N = 196, above the cutover: the semidiscrete grid is one skeleton read
        ("uniform", "sg", 15),
    )
    for op in (SINGLE, MULTI, DIST)
    for scheme in THRESHOLD_FNS
]


@pytest.mark.parametrize(
    "family, method, m, op, scheme",
    EQUIVALENCE_CASES,
    ids=[
        "%s%d-%s-%s-%s" % (family, m, method, op.label, scheme)
        for family, method, m, op, scheme in EQUIVALENCE_CASES
    ],
)
def test_top_down_scan_matches_full_grid_scan(
    get_system, family, method, m, op, scheme
):
    sys = get_system(family, method, m=m)
    scan = ScanSpec()
    tol = 1e-12 * sys.size
    verdict, full = _full_grid_threshold(sys, op, scheme, scan, tol)
    for curve in (False, True):
        rep = THRESHOLD_FNS[scheme](sys, op, scan=scan, curve=curve)
        assert (rep.status, rep.value, rep.bracket) == verdict
        assert rep.tolerance == tol
    _assert_curve_is_the_full_grid(sys, rep.curve, full)


@pytest.mark.parametrize(
    "scheme, method, scan, status",
    [
        ("semi", "lm", ScanSpec(), "all-nonnegative"),
        ("fully", "lm", ScanSpec(), "all-nonnegative"),
        ("semi", "sg", ScanSpec(1e-10, 1e-4), "none-found"),
        # the step-size threshold is 2.8e-5, so its scan ends lower
        ("fully", "sg", ScanSpec(1e-12, 1e-6), "none-found"),
    ],
)
def test_top_down_scan_matches_full_grid_without_threshold(
    get_system, scheme, method, scan, status
):
    sys = get_system("uniform", method, m=10)
    tol = 1e-12 * sys.size
    verdict, full = _full_grid_threshold(sys, SINGLE, scheme, scan, tol)
    assert verdict == (status, None, None)
    for curve in (False, True):
        rep = THRESHOLD_FNS[scheme](sys, SINGLE, scan=scan, tol=tol, curve=curve)
        assert (rep.status, rep.value, rep.bracket) == verdict
    _assert_curve_is_the_full_grid(sys, rep.curve, full)


# the fully discrete scan bisects over grid indices; on this roster it
# decides what the full grid decides
WIDE_MESHES = [
    ("uniform", {"m": 10}),
    ("uniform", {"m": 20}),
    ("crossed", {"m": 5}),
    ("crossed", {"m": 10}),
    ("sliver", {"m": 10}),
    ("sliver", {"m": 20}),
    ("equilateral", {"m": 6}),
    ("lshape_coarse", {}),
    ("lshape_medium", {}),
    ("disk_coarse", {}),
    ("disk_medium", {}),
]
WIDE_OPS = [
    FracOperator.single_term(0.5),
    FracOperator.single_term(0.75),
    FracOperator.single_term(1.0),
    MULTI,
    DIST,
    FracOperator.distributed("one"),
]


@pytest.mark.extended
@pytest.mark.parametrize("method", fem.METHODS)
@pytest.mark.parametrize(
    "family, kw", WIDE_MESHES, ids=["%s%s" % (f, kw.get("m", "")) for f, kw in WIDE_MESHES]
)
def test_index_bisection_matches_full_grid_scan(get_system, family, kw, method):
    sys = get_system(family, method, **kw)
    scan = ScanSpec()
    tol = 1e-12 * sys.size
    for op in WIDE_OPS:
        rep = fullydiscrete.fd_positivity_threshold(sys, op, scan=scan)
        verdict, _ = _full_grid_threshold(sys, op, "fully", scan, tol)
        assert (rep.status, rep.value, rep.bracket) == verdict, op.label


DELAUNAY_LM = [
    ("uniform", {"m": 10}),
    ("equilateral", {"m": 6}),
    ("lshape_coarse", {}),
    ("disk_coarse", {}),
]


@pytest.mark.parametrize(
    "family, kw", DELAUNAY_LM, ids=["%s%s" % (f, kw.get("m", "")) for f, kw in DELAUNAY_LM]
)
@pytest.mark.parametrize("scheme", THRESHOLD_FNS)
def test_lumped_mass_on_delaunay_meshes_stays_nonnegative(get_system, family, kw, scheme):
    # the default floor sits above the GEMM roundoff of these curves
    # (smallest entries down to -4e-14 semidiscrete, -7e-16 fully discrete)
    sys = get_system(family, "lm", **kw)
    for op in (SINGLE, MULTI, DIST):
        rep = THRESHOLD_FNS[scheme](sys, op, curve=True)
        assert rep.status == "all-nonnegative", op.label
        assert rep.curve[:, 1].min() >= -rep.tolerance, op.label


def test_scan_reduces_only_the_deciding_rows_until_curve_is_read(
    get_system, monkeypatch
):
    sys = get_system("uniform", "sg", m=10)
    counts = _count_scan_work(monkeypatch, KERNEL_CALLS["semi"])
    rep = semidiscrete.positivity_threshold(sys, SINGLE)
    grid_rows = ScanSpec().grid().size
    assert grid_rows == 251
    assert rep.found
    assert counts["bisect"] >= 1
    assert counts["reduced"] - counts["bisect"] < grid_rows
    assert rep.curve is None
    _reset(counts)
    read = semidiscrete.positivity_threshold(sys, SINGLE, curve=True)
    assert read.curve.shape == (grid_rows, 2)
    _assert_one_grid_read(counts, grid_rows)


def test_scan_spec_validation():
    with pytest.raises(InvalidParameter):
        ScanSpec(start=1e-2, stop=1e-3)
    with pytest.raises(InvalidParameter):
        ScanSpec(start=0.0, stop=1.0)
    with pytest.raises(InvalidParameter):
        ScanSpec(per_decade=0)
    with pytest.raises(InvalidParameter):
        ScanSpec(stop=math.inf)
    # stop / start overflows; the grid size does not
    wide = ScanSpec(start=1e-30, stop=1e300)
    assert wide.decades == pytest.approx(330.0, rel=1e-15)
    assert wide.points == 8251
    grid = ScanSpec(start=1e-4, stop=1e2, per_decade=10).grid()
    assert grid.shape == (61,)
    assert grid[0] == pytest.approx(1e-4)
    assert grid[-1] == pytest.approx(1e2)


def test_positivity_threshold_rejects_short_scan(get_system):
    sys = get_system("uniform", "sg", m=4)
    with pytest.raises(InvalidParameter):
        semidiscrete.positivity_threshold(
            sys, SINGLE, scan=ScanSpec(start=1e-3, stop=1e1)
        )


# small-time expansion


def test_small_time_expansion_scalar(get_system):
    # max-norm defect of (I - E(t)) / beta0(t) against H = M^{-1} S
    sys = get_system("uniform", "lm", m=2)
    lams = sys.eigen.eigenvalues
    e = sys.eigen.matrix_function(kernel.u_lambda_many(SINGLE, lams, 1e-10))
    h = sys.eigen.matrix_function(lams)
    dev = np.abs((np.eye(sys.size) - e) / kernel.beta0(SINGLE, 1e-10) - h).max()
    assert dev <= 0.05 * 16.0


def test_small_time_expansion_shrinks(get_system):
    sys = get_system("uniform", "sg", m=4)
    lams = sys.eigen.eigenvalues
    h = sys.eigen.matrix_function(lams)
    h_norm = np.abs(h).max()
    devs = []
    for t in (1e-6, 1e-8, 1e-10):
        e = sys.eigen.matrix_function(kernel.u_lambda_many(SINGLE, lams, t))
        devs.append(np.abs((np.eye(sys.size) - e) / kernel.beta0(SINGLE, t) - h).max())
    assert devs[-1] <= 0.05 * h_norm
    assert devs[0] > devs[1] > devs[2]


# H^-1 sign structure


def test_h_inverse_positive_on_uniform(get_system):
    for method in fem.METHODS:
        power, smallest = semidiscrete.h_inverse_positivity(
            get_system("uniform", method, m=6)
        )
        assert power == 1
        assert smallest > 0.0


def test_h_inverse_positive_on_crossed(get_system):
    for method in fem.METHODS:
        power, _ = semidiscrete.h_inverse_positivity(get_system("crossed", method, m=5))
        assert power == 1


def test_h_inverse_fails_for_sliver_lm(get_system):
    power, smallest = semidiscrete.h_inverse_positivity(get_system("sliver", "lm", m=10))
    assert power != 1
    assert smallest < 0.0


def test_h_eventually_positive(get_system):
    assert semidiscrete.h_inverse_positivity(get_system("uniform", "sg", m=6))[0] == 1
    assert semidiscrete.h_inverse_positivity(get_system("sliver", "lm", m=10))[0] == 3


def test_h_eventually_positive_diagonal_counterexample():
    sys = fem.system_from_matrices(np.eye(2), np.diag([1.0, 2.0]))
    assert semidiscrete.h_inverse_positivity(sys) == (None, 0.0)
