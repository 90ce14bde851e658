"""Backward Euler time stepping with convolution-quadrature memory.

One step solves (omega_0 M + S) U^n = M (sum_{j<n} omega_j V -
sum_{0<j<n} omega_{n-j} U^j).  Mode by mode this is the scalar recursion
r_{n,tau}(lambda) of kernel.r_scalar_many, so E_{n,tau} is a function of
H = M^{-1} S read through the eigensystem of (S, M), like E(t) in
semidiscrete.  The one-step operator

    E_{1,tau} = omega_0 (omega_0 M + S)^{-1} M = omega_0 (omega_0 + H)^{-1}

decides nonnegativity of the whole scheme.  It depends on tau only
through omega_0 = P(1/tau), which decreases in tau, and its sign changes
at most once along a tau grid: with R(w) = (w + H)^{-1}, the resolvent
series R(w') = sum_k (w - w')^k R(w)^{k+1} converges for 0 <= w' < w
(H is self-adjoint in the M inner product with spectrum >= lambda_1 > 0),
so R(w) >= 0 makes every term, hence R(w'), nonnegative.  Once E_{1,tau}
is nonnegative for some step size, every longer step inherits the
property, and fd_positivity_threshold bisects over grid indices.  Each
system thus has one omega_0*, 1/tau* of the heat symbol P(z) = z under
the scan's negativity floor, and every operator's threshold is the tau
where P(1/tau) = omega_0*.

The module holds the three entry points on that operator: the
threshold, the convergence rate of r_{n,t/n} to the kernel, and the
max-norm contractivity of E_{n,tau}.
"""

from dataclasses import dataclass

import numpy as np

from . import kernel
from .errors import InvalidParameter, NumericalError
from .semidiscrete import scan_threshold

__all__ = [
    "fd_positivity_threshold",
    "convergence_rate",
    "ContractivityReport",
    "max_norm_contractivity_check",
]


def fd_positivity_threshold(system, op, scan=None, tol=None, curve=False):
    """Step size beyond which E_{1,tau} is entrywise nonnegative.

    Scans tau with semidiscrete.scan_threshold on a log grid of at least
    six decades.  The sign of E_{1,tau} changes at most once along it (see
    the module docstring), so a scan that only decides bisects over grid
    indices: the two ends, then one point per halving of the index range,
    then bisection between the two grid points around the change.  As
    tau -> 0, E_{1,tau} -> I and its negativity sinks under the floor, so
    a low end that reads nonnegative brackets nothing: the scan then
    reads the grid top-down, as the semidiscrete one does.  The
    coefficient rows omega_0 / (omega_0 + lambda) take omega_0 = P(1/tau)
    from kernel.cq_weights, the stepper's own first-step formula.
    curve=True reads the whole grid once through the scanner's one reader
    (on disk_medium sg a skeleton of these Cauchy-matrix rows, rank 30 of
    251) and decides from it.
    """
    lams = system.eigen.eigenvalues

    def coeffs(taus):
        # a tau so small that some tau^{-a_k} overflows gives a nan row,
        # which the scan rejects as a NumericalError
        with np.errstate(over="ignore", invalid="ignore"):
            omega0 = kernel.cq_weights(op, taus, 0)
            return omega0 / (omega0 + lams)

    return scan_threshold(system, op, coeffs, scan, tol, monotone=True, curve=curve)


def convergence_rate(system, op, t, n_list):
    """Fitted decay rate of max_i |u_{lambda_i}(t) - r_{n,t/n}(lambda_i)|."""
    lams = system.eigen.eigenvalues
    exact = kernel.u_lambda_many(op, lams, t)
    errors = np.empty((len(n_list), 2))
    for k, n in enumerate(n_list):
        r = kernel.r_scalar_many(op, lams, t / n, n)
        errors[k] = (n, np.abs(exact - r).max())
    rate = -float(np.polyfit(np.log(errors[:, 0]), np.log(errors[:, 1]), 1)[0])
    return rate, errors


@dataclass(frozen=True)
class ContractivityReport:
    tau: float
    max_norm: float
    norms: np.ndarray
    contractive: bool


def max_norm_contractivity_check(system, op, taus, n_max=100):
    """Max-norm of E_{n,tau} over n = 0..n_max for each step size.

    For the lumped mass method with a diagonally dominant stiffness matrix
    the norms must never exceed 1 (up to a slack of 1e-10).  The rows
    r_{n,tau}(lambda) of the scalar recursion for n = 1..n_max go to
    EigenSystem.max_norms, which reads E_{n,tau} through a skeleton of
    those rows: each entry is off by at most linalg.SKELETON_TOL *
    (|back| |forward|)_ij plus roundoff, far below that slack.  With the
    lumped (diagonal) mass it forms only the upper block triangle of each
    E_{n,tau} and reads entry (j, i) below it as E_ij d_i / d_j, within
    the same bound at (j, i).  E_{0,tau} = I, so norms[0] = 1
    exactly, and n_max = 0 gives norms = [1.0].  A row that is not finite
    (tau so small that the weights overflow) raises NumericalError naming
    its step count.
    """
    if n_max < 0:
        raise InvalidParameter("n_max must be nonnegative")
    out = []
    for tau in taus:
        with np.errstate(over="ignore", invalid="ignore"):
            # at least one step, so tau is checked even when n_max = 0
            rows = kernel._r_rows(op, system.eigen.eigenvalues, tau, max(n_max, 1))
        rows = rows[:n_max + 1]
        bad = np.flatnonzero(~np.isfinite(rows).all(axis=1))
        if bad.size:
            raise NumericalError(
                "r_{n,tau} is not finite at step count n=%d (tau=%r)" % (bad[0], tau)
            )
        norms = np.empty(n_max + 1)
        norms[0] = 1.0
        norms[1:] = system.eigen.max_norms(rows[1:])
        max_norm = float(norms.max())
        out.append(
            ContractivityReport(
                tau=tau,
                max_norm=max_norm,
                norms=norms,
                contractive=max_norm <= 1.0 + 1e-10,
            )
        )
    return out
