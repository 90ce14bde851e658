"""Backward Euler time stepping with convolution-quadrature memory.

One step solves (omega_0 M + S) U^n = M (sum_{j<n} omega_j V -
sum_{0<j<n} omega_{n-j} U^j); the matrix factorization is shared across
steps of the same run.  The one-step operator

    E_{1,tau} = omega_0 (omega_0 M + S)^{-1} M = omega_0 (omega_0 + H)^{-1}

decides nonnegativity of the whole scheme.  It depends on tau only
through omega_0 = P(1/tau), which decreases in tau, and its sign changes
at most once along a tau grid: with R(w) = (w + H)^{-1}, the resolvent
series R(w') = sum_k (w - w')^k R(w)^{k+1} converges for 0 <= w' < w
(H is self-adjoint in the M inner product with spectrum >= lambda_1 > 0),
so R(w) >= 0 makes every term, hence R(w'), nonnegative.  Once E_{1,tau}
is nonnegative for some step size, every longer step inherits the
property, and fd_positivity_threshold bisects over grid indices.  Each
system thus has one omega_0*: first_step_positivity_omega reads it as
1/tau* of the heat symbol P(z) = z under the scan's negativity floor,
and every operator's threshold is the tau where P(1/tau) = omega_0*.

Every dense operator here is a function of H = M^{-1} S evaluated through
the eigensystem of (S, M), like E(t) in semidiscrete: E_{1,tau} from
omega_0 / (omega_0 + lambda), E_{n,tau} from the scalar recursion
r_{n,tau}(lambda).  step_solution solves the steps with a Cholesky factor
instead; it serves as the independent oracle for the spectral route.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import fem, kernel, mesh as meshmod
from .errors import InvalidParameter, NoConvergence, NumericalError
from .semidiscrete import ScanSpec, SolutionMatrix, scan_threshold

__all__ = [
    "SteppingState",
    "step_solution",
    "fd_solution_matrix",
    "first_step_matrix",
    "FirstStepBound",
    "first_step_positivity_omega",
    "fd_positivity_threshold",
    "ScaleLawReport",
    "weight_scale_law",
    "convergence_rate",
    "ContractivityReport",
    "max_norm_contractivity_check",
]


@dataclass(eq=False)
class SteppingState:
    """Full-memory history of a backward Euler run.

    history[k] is U^k (same trailing shape as the initial data); weights
    are the convolution weights omega_0..omega_n actually used.
    """

    system: object
    operator: str
    tau: float
    weights: np.ndarray
    history: np.ndarray

    @property
    def steps(self):
        return self.history.shape[0] - 1

    @property
    def solution(self):
        return self.history[-1]


def step_solution(system, op, tau, n, v):
    """Run n backward Euler steps from initial data v (vector or matrix)."""
    import scipy.linalg

    if n < 1:
        raise InvalidParameter("need at least one step")
    v = np.asarray(v, dtype=float)
    flat = v.ndim == 1
    data = v[:, None] if flat else v
    if data.shape[0] != system.size:
        raise InvalidParameter(
            "initial data has %d rows, system has %d" % (data.shape[0], system.size)
        )
    w = kernel.cq_weights(op, tau, n)
    csum = np.cumsum(w)
    factor = scipy.linalg.cho_factor(w[0] * system.mass + system.stiffness, lower=True)
    hist = np.empty((n + 1,) + data.shape)
    hist[0] = data
    for m in range(1, n + 1):
        rhs = csum[m - 1] * data
        if m > 1:
            rhs -= np.tensordot(w[m - 1:0:-1], hist[1:m], axes=1)
        hist[m] = scipy.linalg.cho_solve(factor, system.mass @ rhs)
    if flat:
        hist = hist[:, :, 0]
    return SteppingState(
        system=system, operator=op.label, tau=tau, weights=w, history=hist
    )


def fd_solution_matrix(system, op, tau, n):
    """E_{n,tau} built mode by mode from the scalar discrete kernel."""
    r = kernel.r_scalar_many(op, system.eigen.eigenvalues, tau, n)
    mat = system.eigen.matrix_function(r)
    return SolutionMatrix(
        matrix=mat,
        time=n * tau,
        method=system.method,
        operator=op.label,
        tau=tau,
        steps=n,
    )


def first_step_matrix(system, omega0):
    """E_{1,tau} = omega_0 (omega_0 + H)^{-1}, with omega_0 = P(1/tau)."""
    if omega0 < 0.0:
        raise InvalidParameter("omega0 must be nonnegative")
    lams = system.eigen.eigenvalues
    return system.eigen.matrix_function(omega0 / (omega0 + lams))


@dataclass(frozen=True)
class FirstStepBound:
    """Largest nonnegativity-preserving omega_0, with certified bounds.

    omega_bisect: largest omega_0 with omega_0 (omega_0 M + S)^{-1} M
    entrywise above the scan's floor -1e-12 * N, i.e. 1/tau* of the heat
    symbol, bracketed to 0.2%; inf when every omega_0 works, None when
    none does.
    omega_certified: largest omega_0 for which every off-diagonal of
    omega_0 M + S is certainly nonpositive (min over neighbor pairs), a
    sufficient condition.  omega_stated: the max-over-pairs variant of the
    same ratio, kept for comparison; it exceeds the certified bound
    whenever the neighbor ratios differ.
    """

    omega_bisect: float
    omega_certified: float
    omega_stated: float

    @property
    def forms_disagree(self):
        return not math.isclose(
            self.omega_certified, self.omega_stated, rel_tol=1e-12, abs_tol=0.0
        )


def _pair_bounds(system):
    """Per neighbor pair, the largest omega_0 with omega_0*m_ij + s_ij <= 0."""
    m, s = system.mass, system.stiffness
    # a neighbor pair that couples in neither matrix allows every omega_0,
    # so the coupling pattern gives the same bounds as the mesh edges
    coupled = (np.abs(m) > 0.0) | (np.abs(s) > 0.0)
    idx = np.nonzero(np.triu(coupled, k=1))
    pairs = list(zip(idx[0], idx[1]))
    sups = []
    ratios = []
    for i, j in pairs:
        mij, sij = m[i, j], s[i, j]
        if mij > 0.0:
            ratios.append(abs(sij) / mij)
            sups.append(-sij / mij if sij < 0.0 else 0.0)
        else:
            sups.append(math.inf if sij <= 0.0 else 0.0)
    certified = min(sups, default=math.inf)
    stated = max(ratios, default=math.inf)
    return certified, stated


def first_step_positivity_omega(system):
    """Largest omega_0 keeping the first step nonnegative, with pair bounds.

    omega_0* is 1/tau* of the heat symbol P(z) = z, read from
    fd_positivity_threshold on the default scan grid divided by lambda_1,
    so scaling S scales the grid and the answer with it.
    """
    certified, stated = _pair_bounds(system)
    lam1 = system.eigen.eigenvalues[0]
    heat = kernel.FracOperator.single_term(1.0)
    rep = fd_positivity_threshold(system, heat, ScanSpec(1e-8 / lam1, 1e2 / lam1))
    if rep.found:
        omega = 1.0 / rep.value
    else:
        omega = math.inf if rep.status == "all-nonnegative" else None
    return FirstStepBound(omega, certified, stated)


def fd_positivity_threshold(system, op, scan=None, tol=None):
    """Step size beyond which E_{1,tau} is entrywise nonnegative.

    Scans tau with semidiscrete.scan_threshold on a log grid of at least
    six decades.  The sign of E_{1,tau} changes at most once along it (see
    the module docstring), so the scan bisects over grid indices: the two
    ends, then one point per halving of the index range, then bisection
    between the two grid points around the change.  The coefficient rows
    omega_0 / (omega_0 + lambda), with omega_0 = P(1/tau), take one
    char_fn call per point.  Reading the report's curve reduces the whole
    grid and raises ScanMismatch if it contradicts the bisected verdict.
    """
    lams = system.eigen.eigenvalues

    def coeffs(taus):
        # a tau whose reciprocal overflows gives a nan row, which the scan
        # rejects as a NumericalError
        with np.errstate(over="ignore", invalid="ignore"):
            omega0 = kernel.char_fn(op, 1.0 / taus)[:, None]
            return omega0 / (omega0 + lams)

    return scan_threshold(system, op, coeffs, scan, tol, monotone=True)


@dataclass(frozen=True)
class ScaleLawReport:
    slope: float
    levels: tuple
    h_values: tuple
    thresholds: tuple


def weight_scale_law(family, alpha, levels, method="sg", scan=None):
    """Fit log tau_0 against log h across refinement levels.

    For the single-term operator of exponent alpha the first-step
    threshold scales like h^{2/alpha}.
    """
    if family not in meshmod.FAMILIES:
        raise InvalidParameter(
            "unknown family %r (have %s)" % (family, sorted(meshmod.FAMILIES))
        )
    if len(levels) < 2:
        raise InvalidParameter("need at least two refinement levels")
    op = kernel.FracOperator.single_term(alpha)
    hs = []
    taus = []
    for m in levels:
        msh = meshmod.FAMILIES[family](m)
        system = fem.build_fem_system(msh, method)
        rep = fd_positivity_threshold(system, op, scan=scan)
        if not rep.found:
            raise NoConvergence(
                "no threshold at level %r (status %s)" % (m, rep.status)
            )
        hs.append(meshmod.mesh_size(msh))
        taus.append(rep.value)
    slope = float(np.polyfit(np.log(hs), np.log(taus), 1)[0])
    return ScaleLawReport(
        slope=slope, levels=tuple(levels), h_values=tuple(hs), thresholds=tuple(taus)
    )


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


def max_norm_contractivity_check(system, op, taus, n_max=100, slack=1e-10):
    """Max-norm of E_{n,tau} over n = 0..n_max for each step size.

    For the lumped mass method with a diagonally dominant stiffness matrix
    the norms must never exceed 1 (up to slack).  The rows r_{n,tau}(lambda)
    of the scalar recursion for n = 1..n_max go to EigenSystem.max_norms,
    which reads E_{n,tau} through a skeleton of those rows: each entry is
    off by at most linalg.SKELETON_TOL * (|back| |forward|)_ij plus
    roundoff, far below slack = 1e-10.  E_{0,tau} = I, so norms[0] = 1
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
                contractive=max_norm <= 1.0 + slack,
            )
        )
    return out
