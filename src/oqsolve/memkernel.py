"""Second-order time-nonlocal (memory-kernel) description in the Laplace domain.

The Laplace-domain kernel K2(s) acts column-wise in the energy basis: on the
unit e_ij it equals the second-order assembly with the coefficient replacements

    A_nm(t; w)       ->  alpha_nm^(s' + i w)            (s' = s + i w_ij)
    conj(A_nm(t; w)) ->  conj(alpha_nm^(conj(s') + i w))

plus the free part -i w_ij, so that K2(-i w_ij){e_ij} reproduces the
stationary time-local generator column exactly (the pole/shift identity).
Columns share s' within a gap class, so two bath calls on the grid of
distinct-gap pairs give every column.
"""

from __future__ import annotations

import numpy as np

from .core import dag, unvec, vec
from .spectral import _pauli
from .tcl2 import SystemModel

__all__ = [
    "kernel_K2",
    "resolvent",
    "nonlocal_poles",
    "asymptotic_state",
    "talbot_invert",
    "laplace_trajectory",
]


def _kernel_eb(m: SystemModel, s) -> np.ndarray:
    """K2 in the energy basis, (d^2, d^2).  The columns e_ij of gap class q
    (gap_index[i, j] = q) take the Laplace arguments s' + i u_g over the
    distinct gaps u_g, with s' = s + i u_q; s may also be given per class.

    Per class, the stack at s' + i u_g through m.generator_tensor gives the
    terms B_n e_ij L_n - L_n B_n e_ij, and the stack at conj(s') + i u_g gives
    their partners as the Hermiticity-preserving conjugate
    conj S[(y,x),(j,i)]; column (i, j) reads its class's pair."""
    d, u, q = m.dim, m.unique_gaps, m.gap_index
    sp = s + 1j * u
    try:
        lap = m.bath.laplace((sp[:, None] + 1j * u).reshape(-1))
        lap_c = m.bath.laplace((np.conj(sp)[:, None] + 1j * u).reshape(-1))
    except ValueError as exc:
        raise ValueError(
            f"kernel evaluation hit a correlation-function pole at s = {s!r}: {exc}"
        ) from exc
    s1, s2 = ((x.reshape(u.size, -1) @ m.generator_tensor).reshape(-1, d, d, d, d)
              for x in (lap, lap_c))
    i, j = np.indices((d, d))
    # [i, j, x, y]: S1 of class q(i,j) at (x, y, i, j) plus conj S2 at (y, x, j, i)
    k = s1[q, :, :, i, j] + np.conj(s2[q, :, :, j, i]).swapaxes(-1, -2)
    k = k.transpose(2, 3, 0, 1).reshape(d * d, d * d)
    k[np.diag_indices(d * d)] -= 1j * m.basis.gaps.reshape(-1)
    return k


def kernel_K2(m: SystemModel, s: complex) -> np.ndarray:
    """Full second-order memory kernel K2(s) as a superoperator matrix in the
    input basis."""
    return m.to_input @ _kernel_eb(m, s) @ m.to_energy


def resolvent(m: SystemModel, s: complex) -> np.ndarray:
    """[s - K2(s)]^{-1} in the input basis; the Laplace transform of the
    evolution map."""
    k = kernel_K2(m, s)
    return np.linalg.inv(s * np.eye(k.shape[0]) - k)


def nonlocal_poles(m: SystemModel) -> dict:
    """First-order pole locations s_ij = -i w_ij + delta k_ij(-i w_ij).

    By the shift identity these coincide with the time-local eigenvalue shifts
    delta f_ij of the stationary TCL2 generator.
    """
    d = m.dim
    # column class q is evaluated at s = -i u_q, i.e. at s' = 0
    k = _kernel_eb(m, -1j * m.unique_gaps)
    return {(i, j): complex(k[i * d + j, i * d + j]) for i in range(d) for j in range(d)}


def asymptotic_state(m: SystemModel, rho0: np.ndarray, tol: float = 1e-6) -> np.ndarray:
    """Final-value limit lim_{s->0} s [s - K2(s)]^{-1} vec(rho0).

    Evaluated at three small real s values (scaled by the slowest dissipative
    rate) with Richardson extrapolation in s; raises if the stationary state is
    not unique or the extrapolants do not agree.
    """
    ps = _pauli(m)
    if ps.multiple_stationary:
        raise ValueError(
            "no unique asymptotic state: the Pauli sector has a degenerate "
            "null space (e.g. vanishing coupling)"
        )
    rates = np.abs(np.real(ps.eigenvalues))
    rates = rates[rates > 1e-12 * max(1.0, rates.max(initial=0.0))]
    if rates.size == 0:
        raise ValueError("no unique asymptotic state: all Pauli rates vanish")
    scale = float(rates.min())
    svals = np.array([1e-3, 1e-4, 1e-5]) * scale
    xs = []
    for s in svals:
        xs.append(s * (resolvent(m, complex(s)) @ vec(rho0)))
    # x(s) = x0 + c s + O(s^2): eliminate the linear term pairwise
    extr01 = (svals[0] * xs[1] - svals[1] * xs[0]) / (svals[0] - svals[1])
    extr12 = (svals[1] * xs[2] - svals[2] * xs[1]) / (svals[1] - svals[2])
    if np.max(np.abs(extr01 - extr12)) > tol * max(1.0, float(np.max(np.abs(extr12)))):
        raise ValueError(
            f"final-value extrapolation did not converge "
            f"(disagreement {np.max(np.abs(extr01 - extr12)):.3e})"
        )
    rho = unvec(extr12, m.dim)
    return 0.5 * (rho + dag(rho))


def talbot_invert(fhat, t: float, nodes: int = 48) -> np.ndarray:
    """Fixed-Talbot numerical Laplace inversion at time t.

    fhat(s) may return a scalar or an ndarray.  The full (unfolded) contour is
    used so complex-valued time signals are handled correctly.
    """
    # The truncation error falls with the node count while round-off grows
    # with it (|e^{st}| on the contour reaches e^{2 nodes/5}).  Measured for
    # 1/s at t = 2: error 2.8e-7 at 32 nodes, 4.5e-8 at 48, 5.3e-6 at 64.
    if t <= 0:
        raise ValueError("talbot_invert requires t > 0")
    r = 2.0 * nodes / (5.0 * t)
    dtheta = 2.0 * np.pi / nodes
    theta = -np.pi + (np.arange(nodes) + 0.5) * dtheta
    cot = np.cos(theta) / np.sin(theta)
    s = r * theta * (cot + 1j)
    dsdtheta = r * (1j + cot - theta / np.sin(theta) ** 2)
    total = sum(np.exp(sk * t) * np.asarray(fhat(sk)) * dk for sk, dk in zip(s, dsdtheta))
    return total * dtheta / (2j * np.pi)


def laplace_trajectory(m: SystemModel, rho0: np.ndarray, grid, nodes: int = 48):
    """States via Talbot inversion of the resolvent applied to rho0."""
    y0 = vec(np.asarray(rho0, dtype=complex))
    return np.array([
        unvec(y0 if t == 0 else talbot_invert(lambda s: resolvent(m, s) @ y0, float(t), nodes),
              m.dim)
        for t in grid
    ])
