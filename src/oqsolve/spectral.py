"""Spectral perturbation theory on the stationary TCL2 Liouvillian.

Unperturbed right eigen-operators are the energy-basis units e_ij with
eigenvalues -i w_ij; the second-order part shifts the eigenvalue by its
diagonal matrix element and tilts the eigen-operators by the standard
non-degenerate corrections.  Resonant pairs (equal gaps within tolerance)
are grouped and only listed; the zero-gap (population) group carries the
Pauli characteristic matrix W.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import _null_vectors, unvec, vec
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
    """Population-sector characteristic matrix and its stationary vector(s)."""

    W: np.ndarray
    stationary: np.ndarray
    eigenvalues: np.ndarray
    null_vectors: np.ndarray
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


def _pair_groups(m: SystemModel):
    """Group the d^2 ordered pairs by gap value; the zero-gap group holds the
    populations (plus any accidentally resonant off-diagonal pairs)."""
    d = m.dim
    gaps = m.basis.gaps
    wmax = float(np.max(np.abs(m.basis.energies)))
    tol = _DEGEN_REL_TOL * max(wmax, 1.0)
    pairs = [(i, j) for i in range(d) for j in range(d)]
    values = np.array([gaps[i, j] for (i, j) in pairs])
    order = np.argsort(values, kind="stable")
    groups = []
    current = [order[0]]
    for idx in order[1:]:
        if values[idx] - values[current[-1]] <= tol:
            current.append(idx)
        else:
            groups.append(current)
            current = [idx]
    groups.append(current)
    return [[pairs[k] for k in g] for g in groups], gaps


def pauli_system(m: SystemModel) -> PauliSystem:
    """Characteristic matrix W_ij = sum_nm L_m[i,j] 2He[A_nm(w_ij)] conj(L_n[i,j])
    for i != j, diagonals minus the column sums; stationary vectors from its
    null space (core._null_vectors)."""
    a = m.bath.coefficient_stationary(m.unique_gaps)
    he2 = (a + np.conj(a).transpose(0, 2, 1))[m.gap_index]  # 2 He[A](w_ij), (d, d, n, n)
    x = m.couplings_eb
    w = np.real(np.einsum("nij,ijnm,mij->ij", np.conj(x), he2, x))
    np.fill_diagonal(w, 0.0)
    np.fill_diagonal(w, -w.sum(axis=0))
    probs = [p / p.sum() for p in np.real(_null_vectors(w))]
    ps = PauliSystem(
        W=w,
        stationary=probs[0],
        eigenvalues=np.linalg.eigvals(w),
        null_vectors=np.array(probs),
        multiple_stationary=len(probs) > 1,
    )
    m._pauli_system = ps
    return ps


def _pauli(m: SystemModel) -> PauliSystem:
    """pauli_system(m), computed only if the model keeps no result."""
    return m._pauli_system if m._pauli_system is not None else pauli_system(m)


def perturbative_spectrum(m: SystemModel) -> SpectrumResult:
    """First-order canonical perturbation theory per non-degenerate pair k =
    (i, j): eigenvalue f_k = -i w_k + S[k, k] and corrections
    S[out, k] / (l_k - l_out) (right) and S[k, out] / (l_k - l_out) (left),
    with l = -i w the unperturbed eigenvalues and S the dissipative part.
    Resonant groups are listed; the population group is the Pauli system."""
    d = m.dim
    s2 = _dissipative_superop_eb(m, None)
    groups, gaps = _pair_groups(m)
    lam0 = (-1j * gaps).reshape(-1)  # zeroth-order eigenvalue per flat pair

    pairs, f, dsig, dsig_star = [], {}, {}, {}
    degenerate = []
    for members in groups:
        if any(i == j for (i, j) in members):
            continue
        if len(members) > 1:
            degenerate.append(members)
            continue
        (i, j) = members[0]
        k = i * d + j
        out = np.arange(d * d) != k
        denom = lam0[k] - lam0[out]
        pairs.append((i, j))
        f[(i, j)] = complex(lam0[k] + s2[k, k])
        r = np.zeros(d * d, dtype=complex)
        r[out] = s2[out, k] / denom
        dsig[(i, j)] = unvec(r, d)
        l = np.zeros(d * d, dtype=complex)
        l[out] = s2[k, out] / denom
        dsig_star[(i, j)] = unvec(l, d)

    return SpectrumResult(
        pairs=pairs,
        f=f,
        dsigma=dsig,
        dsigma_star=dsig_star,
        pauli=_pauli(m),
        degenerate_groups=degenerate,
        basis=m.basis,
    )


def detailed_balance_residual(m: SystemModel) -> float:
    """Max over level pairs of the net flux |p_j S(w_ij) - p_i S(w_ji)|, with p
    the stationary Pauli vector and S the channel-summed spectrum, relative to
    the largest one-way flux p_j S(w_ij)."""
    p = _pauli(m).stationary
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
    d = spec.basis.dim
    res = 0.0
    items = []
    for (i, j) in spec.pairs:
        r = vec(spec.dsigma[(i, j)]).copy()
        r[i * d + j] += 1.0
        l = vec(spec.dsigma_star[(i, j)]).copy()
        l[i * d + j] += 1.0
        items.append(((i, j), r, l))
    for (pij, _, l) in items:
        for (pkl, r, _) in items:
            val = l @ r
            want = 1.0 if pij == pkl else 0.0
            res = max(res, abs(val - want))
    return res
