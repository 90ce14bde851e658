"""Reference computations the tests compare the package against.

step_solution solves the backward Euler steps with a Cholesky factor of
the pencil, independent of the eigensystem route every command takes.
The other helpers read paper quantities off the package's own entry
points: omega_0* from the threshold scanner, the neighbor-pair bounds
from (M, S) and the mesh edges, and the scale-law slope from a fit of
thresholds across refinement levels.
"""

import math

import numpy as np
import scipy.linalg

from fracpos import fem, fullydiscrete, kernel, mesh as meshmod
from fracpos.errors import InvalidParameter
from fracpos.semidiscrete import ScanSpec


def step_solution(system, op, tau, n, v):
    """History U^0..U^n of n backward Euler steps from v (vector or matrix)."""
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
    return hist[:, :, 0] if flat else hist


def first_step_omega(system):
    """omega_0* = 1/tau* of the heat symbol P(z) = z.

    inf when every omega_0 keeps the first step nonnegative, None when
    none does.  The scan grid is the default one divided by lambda_1, so
    scaling S scales the grid and the answer with it.
    """
    lam1 = system.eigen.eigenvalues[0]
    heat = kernel.FracOperator.single_term(1.0)
    rep = fullydiscrete.fd_positivity_threshold(
        system, heat, ScanSpec(1e-8 / lam1, 1e2 / lam1)
    )
    if rep.found:
        return 1.0 / rep.value
    return math.inf if rep.status == "all-nonnegative" else None


def neighbor_pair_bounds(system):
    """First-step bounds over the mesh's interior edges, as (certified, stated).

    certified: the largest omega_0 with omega_0 m_ij + s_ij <= 0 on every
    neighbor pair, a sufficient condition for E_{1,tau} >= 0.  stated: the
    max over pairs of |s_ij| / m_ij, which exceeds the certified bound
    whenever the neighbor ratios differ.
    """
    m, s = system.mass, system.stiffness
    edges, _ = meshmod.edge_table(system.mesh.triangles)
    sups, ratios = [], []
    for i, j in edges[edges[:, 1] < system.mesh.interior_count]:
        mij, sij = m[i, j], s[i, j]
        if mij > 0.0:
            ratios.append(abs(sij) / mij)
            sups.append(-sij / mij if sij < 0.0 else 0.0)
        else:
            sups.append(math.inf if sij <= 0.0 else 0.0)
    return min(sups, default=math.inf), max(ratios, default=math.inf)


def scale_law(family, alpha, levels, method="sg", scan=None):
    """Slope of log tau_0 against log h, with the h values and thresholds.

    For the single-term operator of exponent alpha the first-step
    threshold scales like h^{2/alpha}.
    """
    op = kernel.FracOperator.single_term(alpha)
    hs, taus = [], []
    for level in levels:
        msh = meshmod.FAMILIES[family](level)
        rep = fullydiscrete.fd_positivity_threshold(
            fem.build_fem_system(msh, method), op, scan=scan
        )
        assert rep.found, "no threshold at level %r (status %s)" % (level, rep.status)
        hs.append(meshmod.mesh_size(msh))
        taus.append(rep.value)
    slope = float(np.polyfit(np.log(hs), np.log(taus), 1)[0])
    return slope, hs, taus
