"""Test-support helpers: superoperator builders, defects and independent
references that only the tests call.  Each is a plain function of the
package's public objects, kept here so that `oqsolve` holds what its CLI runs."""

from __future__ import annotations

import numpy as np

from oqsolve.bath import BathModel
from oqsolve.core import anticommutator_superop, dag, superop_sandwich, unvec, vec
from oqsolve.tcl2 import SystemModel, _second_order_ops_eb


def dissipator_superop(ljump: np.ndarray, rate: float = 1.0) -> np.ndarray:
    """GKS dissipator rate * (L rho L^dag - {L^dag L, rho}/2)."""
    return rate * (
        superop_sandwich(ljump, dag(ljump))
        - 0.5 * anticommutator_superop(dag(ljump) @ ljump)
    )


def unitary_superop(u: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> U rho U^dag."""
    return superop_sandwich(u, dag(u))


def apply_superop(s: np.ndarray, x: np.ndarray) -> np.ndarray:
    d = x.shape[0]
    return unvec(s @ vec(x), d)


def trace_preservation_defect(s: np.ndarray, generator: bool = False) -> float:
    """max deviation of sum_i S[(i,i),(i',j')] from delta_{i'j'}.

    For a generator (rather than a map) the column traces must vanish instead.
    """
    d = int(round(np.sqrt(s.shape[0])))
    row = s.reshape(d, d, d * d)
    traced = np.einsum("iik->k", row).reshape(d, d)
    target = np.zeros((d, d)) if generator else np.eye(d)
    return float(np.max(np.abs(traced - target)))


def second_order_operator(m: SystemModel, t, n: int) -> np.ndarray:
    """(A_{nm} <> L_m)(t) summed over m, in the input basis; t=None: stationary."""
    if t is not None and t < 0:
        raise ValueError("second_order_operator requires t >= 0")
    b = _second_order_ops_eb(m, t)[n]
    return m.basis.from_energy_basis(b)


def sampled_positivity(b: BathModel, tgrid) -> float:
    """Min eigenvalue of the block matrix [alpha(t_i - t_j)] over the grid."""
    tgrid = np.asarray(tgrid, dtype=float)
    k, n = tgrid.size, b.channels
    blocks = b.alpha_time(np.subtract.outer(tgrid, tgrid).reshape(-1)).reshape(k, k, n, n)
    big = blocks.transpose(0, 2, 1, 3).reshape(k * n, k * n)
    big = (big + np.conj(big).T) / 2
    return float(np.linalg.eigvalsh(big)[0])


def delta_double_time(m: SystemModel, t: float, nodes: int = 48) -> np.ndarray:
    """Independent route to Delta: the ordered double-time quadratic form

    Delta = M + M^dag,
    M_IJ = sum_nm int_0^t dtau int_0^tau dtau'
           alpha_nm(tau - tau') vec(L_m_int(tau'))_I conj(vec(L_n_int(tau)))_J

    on a nested Gauss-Legendre grid (outer over tau, inner over [0, tau], so the
    correlation function is only evaluated at smooth positive arguments).
    Both rules are graded as r^3, r Gauss-Legendre on [0, 1], towards tau = 0
    and tau' = tau: a thermal correlation has a log singularity at zero lag,
    which limits the plain rule to O(nodes^-2).
    Positive semidefinite because the block kernel [alpha_nm] is; agrees with
    magnus_phi2's Delta for traceless couplings and second-order operators
    (else they differ by the commutator gauge).
    """
    d = m.dim
    nch = len(m.couplings)
    x, w = np.polynomial.legendre.leggauss(nodes)
    r = 0.5 * (x + 1.0)
    x, w = r**3, 1.5 * r**2 * w  # graded nodes and weights on [0, 1]
    gaps = m.basis.gaps

    def lvec_int(tau):
        """Interaction-picture couplings in the input basis, vectorized (n, I)."""
        phase = np.exp(1j * gaps * tau)
        return np.array(
            [vec(m.basis.from_energy_basis(phase * leb)) for leb in m.couplings_eb]
        )

    mmat = np.zeros((d * d, d * d), dtype=complex)
    for tau, wa in zip(t * x, t * w):
        outer_l = lvec_int(tau)
        tps, wps = tau * (1.0 - x), tau * w
        inner = np.zeros((nch, d * d), dtype=complex)  # sum_m alpha_nm L_m term
        for tp, wb in zip(tps, wps):
            inner += wb * (m.bath.alpha_time(float(tau - tp)) @ lvec_int(tp))
        mmat += wa * np.einsum("nI,nJ->IJ", inner, np.conj(outer_l))
    return mmat + np.conj(mmat).T
