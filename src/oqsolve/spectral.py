"""Spectral perturbation theory on the stationary TCL2 Liouvillian.

Unperturbed right eigen-operators are the energy-basis units e_ij, flat index
i d + j, with eigenvalues -i w_ij; the second-order part shifts the eigenvalue
by its diagonal matrix element and tilts the eigen-operators by the standard
non-degenerate corrections.  Resonant pairs (gaps chained within
_DEGEN_REL_TOL times the energy spread E_max - E_min, at least 1, so H + c 1
groups like H) are grouped and only listed; the zero-gap (population) group
carries the Pauli characteristic matrix W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _null_vectors
from .tcl2 import SystemModel, _dissipative_superop_eb

__all__ = [
    "PauliSystem",
    "SpectrumResult",
    "perturbative_spectrum",
    "pauli_system",
    "detailed_balance_residual",
    "damping_basis_orthogonality",
]

_DEGEN_REL_TOL = 1e-6


@dataclass(frozen=True)
class PauliSystem:
    """Population-sector characteristic matrix and its stationary vector."""

    W: np.ndarray
    stationary: np.ndarray
    eigenvalues: np.ndarray
    multiple_stationary: bool


@dataclass(frozen=True)
class SpectrumResult:
    """First-order spectrum of the stationary Liouvillian (energy basis)."""

    pairs: list                      # non-degenerate ordered pairs (i, j), i != j
    f: dict                          # (i,j) -> eigenvalue -i w_ij + delta f_ij
    dsigma: dict                     # (i,j) -> right correction operator
    dsigma_star: dict                # (i,j) -> left (dual) correction operator
    pauli: PauliSystem
    degenerate_groups: list          # resonant groups of pairs, listed only
    basis: object = field(repr=False)


def _pair_groups(m: SystemModel) -> list:
    """The d^2 ordered pairs as flat indices i d + j, grouped by gap: in
    increasing gap order, a pair within the tolerance of the previous one joins
    its group.  The zero-gap group holds the populations (plus any accidentally
    resonant off-diagonal pairs)."""
    w = m.basis.energies
    tol = _DEGEN_REL_TOL * max(float(w[-1] - w[0]), 1.0)
    values = m.basis.gaps.reshape(-1)
    order = np.argsort(values, kind="stable")
    cuts = [0, *(np.flatnonzero(np.diff(values[order]) > tol) + 1).tolist(), values.size]
    order = order.tolist()
    return [order[a:b] for a, b in zip(cuts, cuts[1:])]


def _pairs(flat, d: int) -> list:
    """Flat pair indices as (i, j) tuples of ints."""
    return list(zip(*(x.tolist() for x in np.divmod(flat, d))))


def pauli_system(m: SystemModel) -> PauliSystem:
    """Characteristic matrix W_ij = sum_nm L_m[i,j] 2He[A_nm(w_ij)] conj(L_n[i,j])
    for i != j, diagonals minus the column sums; stationary vector from its
    null space (core._null_vectors)."""
    a = m.bath.coefficient_stationary(m.unique_gaps)
    he2 = (a + np.conj(a).transpose(0, 2, 1))[m.gap_index]  # 2 He[A](w_ij), (d, d, n, n)
    x = m.couplings_eb
    w = np.real(np.einsum("nij,ijnm,mij->ij", np.conj(x), he2, x))
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(w, -w.sum(axis=0))
    nulls = np.real(_null_vectors(w))
    return PauliSystem(
        W=w,
        stationary=nulls[0] / nulls[0].sum(),
        eigenvalues=np.linalg.eigvals(w),
        multiple_stationary=len(nulls) > 1,
    )


def perturbative_spectrum(m: SystemModel) -> SpectrumResult:
    """First-order canonical perturbation theory per non-degenerate pair k =
    (i, j): eigenvalue f_k = -i w_k + S[k, k] and corrections
    S[out, k] / (l_k - l_out) (right) and S[k, out] / (l_k - l_out) (left),
    with l = -i w the unperturbed eigenvalues and S the dissipative part.
    Resonant groups are listed; the population group is the Pauli system."""
    d = m.dim
    s2 = _dissipative_superop_eb(m, None)
    lam0 = -1j * m.basis.gaps.reshape(-1)  # zeroth-order eigenvalue per flat pair
    coherent = [g for g in _pair_groups(m) if 0 not in g]  # flat 0 is the population (0, 0)
    k = np.array([g[0] for g in coherent if len(g) == 1], dtype=int)
    denom = lam0[k, None] - lam0  # zero only at the pair's own entry, whose correction is 0
    right, left = (np.divide(s, denom, out=np.zeros_like(denom), where=denom != 0)
                   for s in (s2[:, k].T, s2[k]))
    pairs = _pairs(k, d)
    return SpectrumResult(
        pairs=pairs,
        f=dict(zip(pairs, (lam0[k] + s2[k, k]).tolist())),
        dsigma=dict(zip(pairs, right.reshape(-1, d, d))),
        dsigma_star=dict(zip(pairs, left.reshape(-1, d, d))),
        pauli=pauli_system(m),
        degenerate_groups=[_pairs(g, d) for g in coherent if len(g) > 1],
        basis=m.basis,
    )


def detailed_balance_residual(m: SystemModel, p: np.ndarray) -> float:
    """Max over level pairs of the net flux |p_j S(w_ij) - p_i S(w_ji)|, with p
    the stationary Pauli vector and S the channel-summed spectrum, relative to
    the largest one-way flux p_j S(w_ij)."""
    gaps = m.basis.gaps
    spec = np.real(np.trace(m.bath.alpha_spectrum(gaps.reshape(-1)), axis1=1, axis2=2))
    spec = spec.reshape(gaps.shape)
    flux = p[None, :] * spec  # flux[i, j] = p_j S(w_ij)
    np.fill_diagonal(flux, 0.0)
    scale = float(np.max(np.abs(flux)))
    if scale < 1e-300:
        return 0.0
    return float(np.max(np.abs(flux - flux.T))) / scale


def damping_basis_orthogonality(spec: SpectrumResult) -> float:
    """Max |sigma*_{ij} . sigma_{i'j'} - delta| over non-degenerate pairs
    (unconjugated pairing); O(g^4) for perturbative spectra."""
    d, n = spec.basis.dim, len(spec.pairs)
    ij = np.array(spec.pairs, dtype=int).reshape(n, 2)
    unit = np.eye(d * d)[ij[:, 0] * d + ij[:, 1]]  # e_ij, (P, d^2)
    right = unit + np.array(list(map(spec.dsigma.get, spec.pairs))).reshape(n, d * d)
    left = unit + np.array(list(map(spec.dsigma_star.get, spec.pairs))).reshape(n, d * d)
    return float(np.abs(left @ right.T - np.eye(n)).max(initial=0.0))
