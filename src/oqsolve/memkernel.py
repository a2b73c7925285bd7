"""Second-order time-nonlocal (memory-kernel) description in the Laplace domain.

The Laplace-domain kernel K2(s) acts column-wise in the energy basis: on the
unit e_ij it equals the second-order assembly with the coefficient replacements

    A_nm(t; w)       ->  alpha_nm^(s' + i w)            (s' = s + i w_ij)
    conj(A_nm(t; w)) ->  conj(alpha_nm^(conj(s') + i w))

plus the free part -i w_ij, so that K2(-i w_ij){e_ij} reproduces the
stationary time-local generator column exactly (the pole/shift identity).
Columns share s' within a gap class, so on a stack of k Laplace points two
bath calls on the grid (point, class, distinct gap) give every column of every
kernel, and each column is contracted only with its own class's stack.
kernel_K2 and resolvent take a scalar s or a 1-D array of s; talbot_invert
hands its whole contour to the transform in one call, so that a time-domain
state costs one stacked solve of s - K2(s) against the initial state.
"""

from __future__ import annotations

import numpy as np

from .core import _null_vectors, herm_part, unvec, vec
from .tcl2 import SystemModel

__all__ = [
    "kernel_K2",
    "resolvent",
    "nonlocal_poles",
    "asymptotic_state",
    "talbot_invert",
    "laplace_trajectory",
]

# largest omega t, over the system's gaps omega, that talbot_invert resolves, and its contour
# nodes (see there)
TALBOT_MAX_GAP_TIME, _TALBOT_NODES = 20.0, 48


def _laplace_pair(m: SystemModel, s: np.ndarray):
    """The bath Laplace stacks at s' + i u_g and at conj(s') + i u_g over the
    distinct gaps u_g, s' = s + i u_q, on a (k, n_gaps) array s of one point
    per gap class q; each (k, n_gaps, n_gaps n^2), from one bath call each.
    A pole raises a ValueError naming the entry of s that hit it."""
    u = m.unique_gaps
    sp = s + 1j * u
    try:
        return [m.bath.laplace((x[..., None] + 1j * u).reshape(-1)).reshape(sp.shape + (-1,))
                for x in (sp, np.conj(sp))]
    except ValueError:
        for s_k, sp_k in zip(s.reshape(-1), sp.reshape(-1)):
            try:
                for x in (sp_k, np.conj(sp_k)):
                    m.bath.laplace(x + 1j * u)
            except ValueError as exc:
                raise ValueError(f"kernel evaluation hit a correlation-function pole "
                                 f"at s = {complex(s_k)!r}: {exc}") from exc
        raise


def _kernel_eb(m: SystemModel, s) -> np.ndarray:
    """K2 in the energy basis: (d^2, d^2) at a scalar s, (k, d^2, d^2) on a
    1-D array of k points, or on a (k, n_gaps) array that gives each gap class
    its own s.  The columns e_ij of gap class q (gap_index[i, j] = q) take the
    Laplace arguments s' + i u_g over the distinct gaps u_g, s' = s + i u_q.

    Through m.generator_tensor, the stack at s' + i u_g gives column (i, j)'s
    terms B_n e_ij L_n - L_n B_n e_ij, and the stack at conj(s') + i u_g their
    partners as the Hermiticity-preserving conjugate conj S[(y,x),(j,i)].
    Each column block of the tensor is contracted only with the stacks that
    read it, its own class's at s' and its transpose's class's at conj(s'):
    one matmul batched over the d^2 columns."""
    d, u, q = m.dim, m.unique_gaps, m.gap_index
    s = np.asarray(s, dtype=complex)
    s_cls = s if s.ndim == 2 else np.broadcast_to(s.reshape(-1, 1), (s.size, u.size))
    k = len(s_cls)
    lap, lap_c = _laplace_pair(m, s_cls)
    # [(i,j), point, r]: the s' stacks of class q(i,j) above the conj(s') stacks of class q(j,i)
    cls = np.where(np.arange(2 * k) < k, q.reshape(-1, 1), q.T.reshape(-1, 1))
    stacks = np.concatenate([lap, lap_c])[np.arange(2 * k), cls]
    # [(i,j), point, (x,y)] = S[(x,y),(i,j)], one matmul over the tensor's column blocks
    terms = stacks @ m.generator_tensor.reshape(-1, d * d, d * d).transpose(2, 0, 1)
    # column (i, j)'s partner terms at (x, y) are the conj(s') terms of block (j, i) at (y, x)
    partners = terms[:, k:].reshape(d, d, k, d, d).transpose(1, 0, 2, 4, 3).reshape(d * d, k, -1)
    kern = (terms[:, :k] + np.conj(partners)).transpose(1, 2, 0)
    diag = np.arange(d * d)
    kern[:, diag, diag] -= 1j * m.basis.gaps.reshape(-1)
    return kern if s.ndim else kern[0]


def kernel_K2(m: SystemModel, s) -> np.ndarray:
    """Full second-order memory kernel K2(s) as a superoperator matrix in the
    input basis: (d^2, d^2) at a scalar s, (k, d^2, d^2) on a 1-D array of s."""
    return m.to_input @ _kernel_eb(m, s) @ m.to_energy


def resolvent(m: SystemModel, s) -> np.ndarray:
    """[s - K2(s)]^{-1} in the input basis, the Laplace transform of the
    evolution map: (d^2, d^2) at a scalar s, (k, d^2, d^2) on a 1-D array of s."""
    return np.linalg.inv(_shifted_kernel(m, s))


def _shifted_kernel(m: SystemModel, s) -> np.ndarray:
    """s - K2(s) in the input basis; see kernel_K2."""
    k = kernel_K2(m, s)
    return np.asarray(s)[..., None, None] * np.eye(k.shape[-1]) - k


def _resolvent_apply(m: SystemModel, s, y: np.ndarray) -> np.ndarray:
    """resolvent(m, s) @ y by one solve, stacked like s, without the inverse."""
    a = _shifted_kernel(m, s)
    return np.linalg.solve(a, np.broadcast_to(y, a.shape[:-1])[..., None])[..., 0]


def nonlocal_poles(m: SystemModel) -> dict:
    """First-order pole locations s_ij = -i w_ij + delta k_ij(-i w_ij).

    By the shift identity these coincide with the time-local eigenvalue shifts
    delta f_ij of the stationary TCL2 generator.
    """
    d = m.dim
    # column class q is evaluated at s = -i u_q, i.e. at s' = 0
    k = _kernel_eb(m, -1j * m.unique_gaps[None])[0]
    return {(i, j): complex(k[i * d + j, i * d + j]) for i in range(d) for j in range(d)}


def asymptotic_state(m: SystemModel) -> np.ndarray:
    """Final-value limit lim_{s->0} s [s - K2(s)]^{-1} vec(rho0), the same for
    every trace-1 rho0: each column of K2(s) is traceless, so the limit is the
    null vector of K2(0) (core._null_vectors), made Hermitian at trace 1.
    Raises unless that null space is one-dimensional."""
    nulls = _null_vectors(kernel_K2(m, 0.0))
    if len(nulls) != 1:
        raise ValueError(f"no unique asymptotic state: K2(0) has a "
                         f"{len(nulls)}-dimensional null space")
    rho = unvec(nulls[0], m.dim)
    return herm_part(rho / np.trace(rho))


def talbot_invert(fhat, t: float) -> np.ndarray:
    """Fixed-Talbot numerical Laplace inversion at time t.

    fhat is called once, with the 1-D array of the contour's nodes, and
    returns an array whose leading axis runs over those nodes (a signal of any
    trailing shape); the result has the trailing shape.  The full (unfolded)
    contour is used so complex-valued time signals are handled correctly.
    A signal oscillating at omega is resolved while omega t <= 20: on a three-level
    OU dephasing model against its residue inversion the error is 2.7e-8 at omega t
    = 20.4, 4.3e-6 at 23.8, 2.7e-4 at 27.2 and 2.3e-2 at 34.
    """
    # The truncation error falls with the node count while round-off grows
    # with it (|e^{st}| on the contour reaches e^{2 nodes/5}).  Measured for
    # 1/s at t = 2: error 2.8e-7 at 32 nodes, 4.5e-8 at 48, 5.3e-6 at 64.
    if t <= 0:
        raise ValueError("talbot_invert requires t > 0")
    r = 2.0 * _TALBOT_NODES / (5.0 * t)
    dtheta = 2.0 * np.pi / _TALBOT_NODES
    theta = -np.pi + (np.arange(_TALBOT_NODES) + 0.5) * dtheta
    cot = np.cos(theta) / np.sin(theta)
    s = r * theta * (cot + 1j)
    dsdtheta = r * (1j + cot - theta / np.sin(theta) ** 2)
    weights = np.exp(s * t) * dsdtheta * (dtheta / (2j * np.pi))
    return np.tensordot(weights, np.asarray(fhat(s)), axes=1)


def laplace_trajectory(m: SystemModel, rho0: np.ndarray, grid):
    """States via Talbot inversion of the resolvent applied to rho0: one
    stacked solve of s - K2(s) against vec(rho0) on the contour's nodes per
    positive grid time; accurate while every gap times the last grid time is
    at most 20 (see talbot_invert)."""
    y0 = vec(np.asarray(rho0, dtype=complex))
    return np.array([
        unvec(y0 if t == 0 else
              talbot_invert(lambda s: _resolvent_apply(m, s, y0), float(t)), m.dim)
        for t in grid
    ])
