"""Exact-diagonalization reference for small system + environment composites.

The environment is a register of a few qubits; the composite Hamiltonian
H = H_S x 1 + 1 x H_E + g sum_n L_n x l_n is diagonalized once, and exact
reduced trajectories, correlation functions and two-time averages follow from
phase evolution in the eigenbasis.  The environment correlation
alpha_nm(t) = <l_n(t) l_m> is a finite sum of undamped exponentials, one per
distinct transition frequency of H_E; reduced_model hands exactly that sum to
the perturbative machinery as an ExponentialOU bath, so both sides run the
same microscopic physics.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .bath import ExponentialOU
from .core import dag, herm_part, require_hermitian
from .tcl2 import SystemModel, propagate

__all__ = [
    "CompositeModel",
    "spin_chain_environment",
    "random_composite",
    "exact_reduced_trajectory",
    "exact_alpha",
    "exact_two_time",
    "reduced_model",
    "convergence_errors",
]

_MAX_DIM = 512

_SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
_SY = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
_SZ = np.diag([1.0, -1.0]).astype(complex)


def _site_op(op: np.ndarray, k: int, n: int) -> np.ndarray:
    """1 x op x 1 on an n-qubit register, op acting on qubits k, k + 1, ... (as many
    as its size holds)."""
    left = np.eye(2**k, dtype=complex)
    right = np.eye(2**n // (2**k * op.shape[0]), dtype=complex)
    return np.kron(np.kron(left, op), right)


@dataclass(eq=False)
class CompositeModel:
    """System + qubit-register environment with a global coupling scale g."""

    h: np.ndarray
    couplings: list
    env_h: np.ndarray
    env_couplings: list
    g: float
    temperature: float = np.inf

    def __post_init__(self):
        self.h = require_hermitian(self.h, name="system Hamiltonian")
        self.env_h = require_hermitian(self.env_h, name="environment Hamiltonian")
        self.couplings = [require_hermitian(l, name=f"system coupling {n}")
                          for n, l in enumerate(self.couplings)]
        self.env_couplings = [require_hermitian(l, name=f"environment coupling {n}")
                              for n, l in enumerate(self.env_couplings)]
        if len(self.couplings) != len(self.env_couplings):
            raise ValueError("system and environment coupling lists must match")
        if self.dim * self.env_dim > _MAX_DIM:
            raise ValueError(
                f"composite dimension {self.dim * self.env_dim} exceeds "
                f"the exact-diagonalization cap {_MAX_DIM}"
            )

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @property
    def env_dim(self) -> int:
        return self.env_h.shape[0]

    @cached_property
    def env_state(self) -> np.ndarray:
        """Thermal environment state exp(-H_E/T)/Z (maximally mixed at T=inf)."""
        if np.isinf(self.temperature):
            return np.eye(self.env_dim) / self.env_dim
        w, u = np.linalg.eigh(self.env_h)
        p = np.exp(-(w - w[0]) / self.temperature)
        p /= p.sum()
        return (u * p) @ dag(u)

    @cached_property
    def total_h(self) -> np.ndarray:
        ds, de = self.dim, self.env_dim
        h = np.kron(self.h, np.eye(de)) + np.kron(np.eye(ds), self.env_h)
        for ln, en in zip(self.couplings, self.env_couplings):
            h += self.g * np.kron(ln, en)
        return h

    @cached_property
    def eig(self):
        return np.linalg.eigh(self.total_h)

    @cached_property
    def env_eig(self):
        return np.linalg.eigh(self.env_h)

    def with_coupling(self, g: float) -> "CompositeModel":
        return replace(self, g=g)


def spin_chain_environment(n_qubits: int, splittings, chain_coupling: float = 0.0,
                           site_weights=None):
    """Qubit-register environment: H_E = sum eps_k sz_k/2 + J sum sx_k sx_{k+1},
    coupled through l = sum c_k sx_k.  Returns (env_h, env_coupling)."""
    splittings = np.asarray(splittings, dtype=float)
    if splittings.size != n_qubits:
        raise ValueError("need one level splitting per qubit")
    if site_weights is None:
        site_weights = np.ones(n_qubits)
    env_h = np.zeros((2**n_qubits, 2**n_qubits), dtype=complex)
    for k in range(n_qubits):
        env_h += 0.5 * splittings[k] * _site_op(_SZ, k, n_qubits)
    sxsx = np.kron(_SX, _SX)
    for k in range(n_qubits - 1):
        env_h += chain_coupling * _site_op(sxsx, k, n_qubits)
    l = np.zeros_like(env_h)
    for k in range(n_qubits):
        l += site_weights[k] * _site_op(_SX, k, n_qubits)
    return env_h, l


def random_composite(seed: int, dim: int = 3, n_qubits: int = 4, g: float = 0.1,
                     temperature: float = 2.0) -> CompositeModel:
    """Seeded random system (GUE Hamiltonian, traceless Hermitian coupling)
    attached to a detuned spin-chain register."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = herm_part(a) / np.sqrt(dim)
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    l = herm_part(b) / np.sqrt(dim)
    l -= np.trace(l) / dim * np.eye(dim)
    splittings = rng.uniform(0.5, 2.5, size=n_qubits)
    weights = rng.uniform(0.3, 1.0, size=n_qubits) / np.sqrt(n_qubits)
    env_h, env_l = spin_chain_environment(
        n_qubits, splittings, chain_coupling=0.1 * rng.uniform(0.5, 1.5), site_weights=weights
    )
    return CompositeModel(h=h, couplings=[l], env_h=env_h, env_couplings=[env_l], g=g,
                          temperature=temperature)


def _partial_trace_env(rho: np.ndarray, ds: int, de: int) -> np.ndarray:
    return rho.reshape(ds, de, ds, de).trace(axis1=1, axis2=3)


def exact_reduced_trajectory(c: CompositeModel, rho0: np.ndarray, grid) -> np.ndarray:
    """Reduced states Tr_E[U (rho0 x rho_E) U^dag] on a time grid."""
    w, u = c.eig
    rho_tot = np.kron(np.asarray(rho0, dtype=complex), c.env_state)
    r = dag(u) @ rho_tot @ u
    states = []
    for t in grid:
        phase = np.exp(-1j * w * t)
        rt = u @ (r * np.outer(phase, np.conj(phase))) @ dag(u)
        states.append(_partial_trace_env(rt, c.dim, c.env_dim))
    return np.array(states)


def _environment_bath(c: CompositeModel) -> ExponentialOU:
    """alpha_nm(t) = Tr_E[l_n(t) l_m rho_E] as its exact exponential sum.

    In the eigenbasis E_a of H_E the thermal state is diagonal, rho_a, so
    alpha_nm(t) = sum_ab rho_a (l_n)_ab (l_m)_ba e^{i(E_a - E_b) t}: Hermitian
    weights at the undamped rates -i(E_a - E_b), one term per distinct
    frequency.  A frequency whose largest weight is at most eps times the largest
    weight of all is round-off, and is dropped: on random_composite's registers
    these are the transitions that the parity selection rule of sum c_k sx_k
    forbids (seeds 0-4: at most 1.7e-31 relative, where the smallest kept weight
    is 7.4e-11), about half of the frequencies."""
    e, u = c.env_eig
    rho = np.diag(dag(u) @ c.env_state @ u).real
    ls = np.array([dag(u) @ l @ u for l in c.env_couplings])
    n = len(ls)
    weights = np.einsum("a,nab,mba->abnm", rho, ls, ls).reshape(-1, n, n)
    freqs, term = np.unique(np.subtract.outer(e, e), return_inverse=True)
    table = np.zeros((freqs.size, n, n), dtype=complex)
    np.add.at(table, term.ravel(), weights)
    size = np.max(np.abs(table), axis=(1, 2))
    keep = size > np.finfo(float).eps * np.max(size)
    return ExponentialOU(c=table[keep], lam=-1j * freqs[keep])


def exact_alpha(c: CompositeModel, tgrid) -> np.ndarray:
    """alpha_nm(t) = Tr_E[l_n(t) l_m rho_E] with free environment evolution,
    sampled on tgrid with shape (nt, n, n); stationary because the thermal
    state commutes with H_E."""
    return _environment_bath(c).alpha_time(np.asarray(tgrid, dtype=float))


def exact_two_time(c: CompositeModel, x1: np.ndarray, t1: float, x2: np.ndarray, t2: float,
                   rho0: np.ndarray) -> complex:
    """<X1(t1) X2(t2)> in the Heisenberg picture of the composite."""
    w, u = c.eig
    de = c.env_dim
    rho_tot = dag(u) @ np.kron(np.asarray(rho0, dtype=complex), c.env_state) @ u

    def heis(x, t):
        xe = dag(u) @ np.kron(np.asarray(x, dtype=complex), np.eye(de)) @ u
        phase = np.exp(1j * w * t)
        return (phase[:, None] * xe) * np.conj(phase)[None, :]

    return complex(np.trace(heis(x1, t1) @ heis(x2, t2) @ rho_tot))


def reduced_model(c: CompositeModel) -> SystemModel:
    """Perturbative system model with couplings g L_n and the exact correlation."""
    return SystemModel(h=c.h, couplings=[c.g * l for l in c.couplings], bath=_environment_bath(c))


def convergence_errors(c: CompositeModel, rho0: np.ndarray, horizon: float, npoints: int = 21):
    """Max full-time trajectory error of the perturbative theory vs. exact
    dynamics, at the model's coupling g and at g/2."""
    grid = np.linspace(0.0, horizon, npoints)
    errs = []
    for fac in (1.0, 0.5):
        cf = c.with_coupling(c.g * fac)
        exact = exact_reduced_trajectory(cf, rho0, grid)
        m = reduced_model(cf)
        approx = propagate(m, rho0, grid, mode="full-time").states
        errs.append(float(np.max(np.abs(approx - exact))))
    return errs
