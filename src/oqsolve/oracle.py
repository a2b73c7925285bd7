"""Exact-diagonalization reference for small system + environment composites.

The environment is a register of a few qubits; the composite Hamiltonian
H = H_S x 1 + 1 x H_E + g sum_n L_n x l_n is diagonalized once per g, and exact
reduced trajectories, correlation functions and two-time averages follow from
phase evolution in the eigenbasis.  The environment correlation
alpha_nm(t) = <l_n(t) l_m> is a finite sum of undamped exponentials, one per
distinct transition frequency of H_E (frequencies that eigh returns a few ulps
apart are one frequency; on random_composite's registers 40 of them carry
weight); reduced_model hands exactly that sum to the perturbative machinery as
an ExponentialOU bath, so both sides run the same microscopic physics.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bath import ExponentialOU
from .core import dag, herm_part, require_hermitian, require_state, vec
from .tcl2 import SystemModel, _evolve

__all__ = [
    "CompositeModel",
    "spin_chain_environment",
    "random_composite",
    "exact_reduced_trajectory",
    "exact_two_time",
    "reduced_model",
    "convergence_errors",
]

_MAX_DIM = 512
# E_a - E_b closer than this many eps max|E| are one frequency (see _environment_bath)
_MERGE_ULPS = 1024
# grid times per stacked product of exact_reduced_trajectory: past about 21 the stacked
# product ran slower than a loop over times, and memory grows with the block
_TIME_BLOCK = 16


@dataclass(eq=False)
class CompositeModel:
    """System + qubit-register environment with a global coupling scale g.

    g enters only through `eig`.  The parts that do not depend on it are built once, after
    validation: free_h = H_S x 1 + 1 x H_E and coupling_h = sum_n L_n x l_n (so that
    H = free_h + g coupling_h), and the environment's eigenbasis env_eig, thermal state
    env_state and correlation env_bath.  `with_coupling` copies share them by reference."""

    h: np.ndarray
    couplings: list
    env_h: np.ndarray
    env_couplings: list
    g: float
    temperature: float = np.inf

    def __post_init__(self):
        if not self.temperature > 0:
            raise ValueError(f"temperature must be > 0 (np.inf for a maximally mixed register), "
                             f"got {self.temperature!r}")
        self.h = require_hermitian(self.h, name="system Hamiltonian")
        self.env_h = require_hermitian(self.env_h, name="environment Hamiltonian")
        self.couplings = [require_hermitian(l, name=f"system coupling {n}")
                          for n, l in enumerate(self.couplings)]
        self.env_couplings = [require_hermitian(l, name=f"environment coupling {n}")
                              for n, l in enumerate(self.env_couplings)]
        if not self.couplings or len(self.couplings) != len(self.env_couplings):
            raise ValueError("system and environment coupling lists must match and be non-empty")
        for side, ops, h in (("system", self.couplings, self.h),
                             ("environment", self.env_couplings, self.env_h)):
            for n, l in enumerate(ops):
                if l.shape != h.shape:
                    raise ValueError(f"{side} coupling {n} has shape {l.shape}, "
                                     f"but the {side} Hamiltonian has shape {h.shape}")
        ds, de = self.dim, self.env_dim
        if ds * de > _MAX_DIM:
            raise ValueError(f"composite dimension {ds * de} exceeds "
                             f"the exact-diagonalization cap {_MAX_DIM}")
        self.free_h = np.kron(self.h, np.eye(de)) + np.kron(np.eye(ds), self.env_h)
        self.coupling_h = sum(np.kron(l, e) for l, e in zip(self.couplings, self.env_couplings))
        self.env_eig = np.linalg.eigh(self.env_h)
        # exp(-H_E/T)/Z; maximally mixed at T = inf
        if np.isinf(self.temperature):
            self.env_state = np.eye(de) / de
        else:
            w, u = self.env_eig
            p = np.exp(-(w - w[0]) / self.temperature)
            self.env_state = (u * (p / p.sum())) @ dag(u)
        self.env_bath = _environment_bath(self)

    @property
    def dim(self) -> int:
        return self.h.shape[0]

    @property
    def env_dim(self) -> int:
        return self.env_h.shape[0]

    @cached_property
    def eig(self):
        return np.linalg.eigh(self.free_h + self.g * self.coupling_h)

    def with_coupling(self, g: float) -> "CompositeModel":
        """The same composite at coupling g: a copy that holds this model's validated
        matrices and g-independent parts by reference and computes only its own `eig`."""
        out = copy.copy(self)
        out.g = g
        vars(out).pop("eig", None)
        return out


def spin_chain_environment(n_qubits: int, splittings, chain_coupling: float = 0.0,
                           site_weights=None):
    """Qubit-register environment: H_E = sum eps_k sz_k/2 + J sum sx_k sx_{k+1},
    coupled through l = sum c_k sx_k.  Returns (env_h, env_coupling).

    Qubit 0 is the leading factor of the tensor product, so qubit k is bit n - 1 - k of a
    basis index i: sz_k is the diagonal +-1 by that bit, and sx_k (sx_k sx_{k+1}) the swap
    of i with i ^ bit_k (i ^ bit_k ^ bit_{k+1}).  The chain and coupling terms fill
    disjoint entries, and the diagonal sums its terms in qubit order."""
    splittings = np.asarray(splittings, dtype=float)
    if splittings.size != n_qubits:
        raise ValueError("need one level splitting per qubit")
    site_weights = np.ones(n_qubits) if site_weights is None else np.asarray(site_weights)
    if site_weights.size != n_qubits:
        raise ValueError(f"site_weights: need one weight per qubit ({n_qubits}), "
                         f"got {site_weights.size}")
    i = np.arange(2**n_qubits)
    bits = 1 << np.arange(n_qubits)[::-1]
    env_h = np.zeros((i.size, i.size), dtype=complex)
    l = np.zeros_like(env_h)
    diag = np.zeros(i.size)
    for k, b in enumerate(bits):
        diag += 0.5 * splittings[k] * np.where(i & b, -1.0, 1.0)
        l[i, i ^ b] = site_weights[k]
    for b, b_next in zip(bits[:-1], bits[1:]):
        env_h[i, i ^ b ^ b_next] = chain_coupling
    env_h[i, i] = diag
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


def _environment_bath(c: CompositeModel) -> ExponentialOU:
    """alpha_nm(t) = Tr_E[l_n(t) l_m rho_E] as its exact exponential sum.

    In the eigenbasis E_a of H_E the thermal state is diagonal, rho_a, so
    alpha_nm(t) = sum_ab rho_a (l_n)_ab (l_m)_ba e^{i(E_a - E_b) t}: Hermitian
    weights at the undamped rates -i(E_a - E_b), one term per distinct frequency.

    Differences that are equal in exact arithmetic come out of eigh a few ulps apart, so
    the sorted E_a - E_b split into groups wherever neighbours lie more than
    _MERGE_ULPS eps max|E| apart, and each group is one term at the mean of its members,
    with their summed weight.  On random_composite's registers (seeds 0-59) members lie
    at most 6.2 eps max|E| from their group's mean, and distinct frequencies at least
    9e10 eps max|E| apart.  The merge moves alpha(t) by at most
    t sum_ab |w_ab| |E_a - E_b - f_ab|, f_ab the frequency of the pair's group: against
    40-digit sums over all level pairs, the merged alpha(t) and A(t; w) are within 16 eps
    of their largest value at t <= 6 (seeds 0-59).

    A frequency whose largest weight is at most eps times the largest weight of all is
    round-off, and is dropped: on random_composite's registers these are the
    transitions that the parity selection rule of sum c_k sx_k forbids, 41 of the 81
    frequencies on every seed from 0 to 59, which leaves K = 40 terms."""
    e, u = c.env_eig
    rho = np.diag(dag(u) @ c.env_state @ u).real
    ls = np.array([dag(u) @ l @ u for l in c.env_couplings])
    n = len(ls)
    weights = np.einsum("a,nab,mba->abnm", rho, ls, ls).reshape(-1, n, n)
    diffs = np.subtract.outer(e, e).ravel()
    order = np.argsort(diffs)
    diffs = diffs[order]
    tol = _MERGE_ULPS * np.finfo(float).eps * np.max(np.abs(e))
    heads = np.flatnonzero(np.diff(diffs, prepend=-np.inf) > tol)
    table = np.add.reduceat(weights[order], heads)
    freqs = np.add.reduceat(diffs, heads) / np.diff(heads, append=diffs.size)
    size = np.max(np.abs(table), axis=(1, 2))
    keep = size > np.finfo(float).eps * np.max(size)
    return ExponentialOU(c=table[keep], lam=-1j * freqs[keep])


def _eigenbasis_state(c: CompositeModel, rho0: np.ndarray) -> np.ndarray:
    """rho0 x rho_E in the eigenbasis of the composite Hamiltonian."""
    u = c.eig[1]
    return dag(u) @ np.kron(np.asarray(rho0, dtype=complex), c.env_state) @ u


def exact_reduced_trajectory(c: CompositeModel, rho0: np.ndarray, grid) -> np.ndarray:
    """Reduced states Tr_E[U (rho0 x rho_E) U^dag] on a 1-D time grid: a stacked product
    u (r_ab e^{-i(w_a - w_b)t}) u^dag, then a partial trace, over blocks of _TIME_BLOCK grid
    times, so that memory stays at one block's (D, D) stacks however long the grid.  Built
    in place and traced by einsum, it keeps the per-time product's bits (grouped as
    (u e^{-iwt}) r (u e^{-iwt})^dag, it would move oracle-compare's g/2 error at horizon 1
    by up to 1.5e-8 relative) and, at 9-13 times, its speed."""
    w, u = c.eig
    ud, r0 = dag(u), _eigenbasis_state(c, rho0)
    grid = np.asarray(grid, dtype=float)
    out = np.empty((grid.size, c.dim, c.dim), dtype=complex)
    for lo in range(0, grid.size, _TIME_BLOCK):
        phase = np.exp(-1j * np.multiply.outer(grid[lo:lo + _TIME_BLOCK], w))
        r = phase[:, :, None] * np.conj(phase)[:, None, :]
        np.multiply(r0, r, out=r)
        states = np.matmul(u @ r, ud, out=r).reshape(-1, c.dim, c.env_dim, c.dim, c.env_dim)
        out[lo:lo + _TIME_BLOCK] = np.einsum("tikjk->tij", states)
    return out


def exact_two_time(c: CompositeModel, x1: np.ndarray, t1: float, x2: np.ndarray, t2: float,
                   rho0: np.ndarray) -> complex:
    """<X1(t1) X2(t2)> in the Heisenberg picture of the composite."""
    w, u = c.eig

    def heis(x, t):
        xe = dag(u) @ np.kron(np.asarray(x, dtype=complex), np.eye(c.env_dim)) @ u
        phase = np.exp(1j * w * t)
        return (phase[:, None] * xe) * np.conj(phase)[None, :]

    return complex(np.trace(heis(x1, t1) @ heis(x2, t2) @ _eigenbasis_state(c, rho0)))


def reduced_model(c: CompositeModel) -> SystemModel:
    """Perturbative system model with couplings g L_n and the exact correlation."""
    return SystemModel(h=c.h, couplings=[c.g * l for l in c.couplings], bath=c.env_bath)


def convergence_errors(c: CompositeModel, rho0: np.ndarray, horizon: float, npoints: int = 21):
    """Max full-time trajectory error of the perturbative theory vs. exact
    dynamics, at the model's coupling g and at g/2.

    Both perturbative trajectories come from one DOP853 pass (tcl2._evolve) of the
    model at g over the stack [rho0, rho0], the second under 1/4 of the second-order
    part: halving the couplings is exact in floating point, so the g/2 model's part is
    exactly 1/4 of this one's, and only the step sequence is shared.  The exact side
    diagonalizes the composite at g and at g/2."""
    grid = np.linspace(0.0, horizon, npoints)
    y0 = vec(require_state(rho0, name="initial state"))
    approx = _evolve(reduced_model(c), np.array([y0, y0]), grid, "full-time",
                     multiples=(1.0, 0.25)).reshape(npoints, 2, c.dim, c.dim)
    return [float(np.max(np.abs(approx[:, j] - exact_reduced_trajectory(cf, rho0, grid))))
            for j, cf in enumerate((c, c.with_coupling(0.5 * c.g)))]
