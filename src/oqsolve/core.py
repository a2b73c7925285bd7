"""Operator / superoperator algebra in Liouville space.

Conventions (fixed globally):

* vectorization is row-major: the operator element X[i, j] sits at flat
  index i*d + j of vec(X);
* a superoperator entry S[(i,j),(i',j')] = <i| S{|i'><j'|} |j>;
* the Choi rearrangement swaps the middle indices,
  C[(i,i'),(j,j')] = S[(i,j),(i',j')].
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "vec",
    "unvec",
    "dag",
    "herm_part",
    "require_hermitian",
    "require_state",
    "superop_sandwich",
    "commutator_superop",
    "anticommutator_superop",
    "hermiticity_preservation_defect",
    "choi_rearrange",
    "min_choi_eigenvalue",
    "SpectralBasis",
    "eig_hermitian",
    "write_matrix_csv",
    "read_matrix_csv",
]

# gaps this close are one (SystemModel.unique_gaps), and so a gap-pair divisor this small is 0
_GAP_TOL = 1e-9


def _null_vectors(a: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the null space of the square matrix a: the
    conj(vh) rows of its SVD at singular values at most 1e-10 times the largest."""
    _, svals, vh = np.linalg.svd(a)
    return np.conj(vh[svals <= 1e-10 * max(svals[0], 1e-300)])


# Higham (SIAM J. Matrix Anal. Appl. 26, 1179 (2005)): the largest 1-norm at which the
# [m/m] Pade approximant of exp is accurate to double precision, and its coefficients
# b_j = (2m - j)! m! / ((2m)! j! (m - j)!), b_0 = 1
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
               9: 2.097847961257068, 13: 5.371920351148152}
_PADE_B = {m: [math.factorial(2 * m - j) * math.factorial(m)
               / (math.factorial(2 * m) * math.factorial(j) * math.factorial(m - j))
               for j in range(m + 1)] for m in _PADE_THETA}


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential of a square matrix, or of each matrix of a (k, n, n) stack,
    by Higham's 2005 scaling and squaring: the [m/m] Pade approximant
    r = (V - U)^-1 (V + U) at the least m in 3, 5, 7, 9 whose theta_m bounds the
    1-norm, else at m = 13 after halving a s times to within theta_13, then squared s
    times.  A stack shares one m and s, chosen from its largest 1-norm.  r is formed
    as 1 + 2 (V - U)^-1 U: where vec(1)^T a = 0 (a trace-annihilating generator),
    vec(1)^T U = 0 and the column traces of the result keep the round-off of U, not
    of V + U."""
    norm = float(np.max(np.abs(a).sum(axis=-2), initial=0.0))
    if not math.isfinite(norm):
        raise ValueError("expm: the matrix has a non-finite entry")
    m = next((m for m in (3, 5, 7, 9) if norm <= _PADE_THETA[m]), 13)
    s = max(0, math.ceil(math.log2(norm / _PADE_THETA[13]))) if m == 13 else 0
    a = np.asarray(a) / 2.0**s
    eye, b = np.eye(a.shape[-1], dtype=a.dtype), _PADE_B[m]
    a2 = a @ a
    if m < 13:
        powers = [eye, a2]
        while len(powers) <= m // 2:
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * x for k, x in enumerate(powers))
        v = sum(b[2 * k] * x for k, x in enumerate(powers))
    else:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4 + b[2] * a2 + eye
    r = eye + 2.0 * np.linalg.solve(v - u, u)
    for _ in range(s):
        r = r @ r
    return r


def vec(x: np.ndarray) -> np.ndarray:
    """Row-major vectorization of a d x d operator."""
    return np.asarray(x).reshape(-1)


def unvec(v: np.ndarray, d: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    if d is None:
        d = int(round(np.sqrt(v.size)))
    return v.reshape(d, d)


def dag(x: np.ndarray) -> np.ndarray:
    """X^dag, matrix by matrix for a (k, n, n) stack."""
    return np.conj(x).swapaxes(-1, -2)


def herm_part(x: np.ndarray) -> np.ndarray:
    """(X + X^dag)/2, matrix by matrix for a (k, n, n) stack."""
    return 0.5 * (x + np.conj(x).swapaxes(-1, -2))


def require_hermitian(x: np.ndarray, tol: float = 1e-12, name: str = "operator") -> np.ndarray:
    """Validate finite entries and Hermiticity relative to the largest entry,
    matrix by matrix for a (k, n, n) stack, whose first failing matrix is named
    by its index; return the input as a complex array."""
    x = np.asarray(x, dtype=complex)
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise ValueError(f"{name} must be a square matrix or a stack of them, got shape {x.shape}")
    # max|X| is NaN or inf where X has a non-finite entry (or one whose modulus overflows);
    # such a matrix is zeroed for the defect, where inf - inf would warn
    scale = np.maximum(np.abs(x).max(axis=(-2, -1), initial=0.0), 1.0)
    nonfinite = ~np.isfinite(scale)
    y = np.where(nonfinite[..., None, None], 0, x) if nonfinite.any() else x
    defect = np.abs(y - np.conj(y).swapaxes(-1, -2)).max(axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(nonfinite | (defect > tol * scale))
    if bad.size:
        k = bad[0]
        label = name if x.ndim == 2 else f"{name} {k}"
        if not np.isfinite(scale.flat[k]):
            raise ValueError(f"{label} has a non-finite entry")
        raise ValueError(
            f"{label} is not Hermitian: max|X - X^dag| = {defect.flat[k]:.3e} "
            f"(tolerance {tol:.1e} relative to max|X| = {scale.flat[k]:.3e})"
        )
    return x


def require_state(rho: np.ndarray, name: str = "state") -> np.ndarray:
    """Validate a density matrix: Hermitian (1e-10 relative), |tr rho - 1| <= 1e-10
    and smallest eigenvalue >= -1e-10; return it as a complex array."""
    rho = require_hermitian(rho, tol=1e-10, name=name)
    trace = np.trace(rho)
    if abs(trace - 1.0) > 1e-10:
        raise ValueError(f"{name}: trace = {trace!r}, expected 1")
    lowest = float(np.linalg.eigvalsh(herm_part(rho))[0])
    if lowest < -1e-10:
        raise ValueError(f"{name} is not positive semidefinite: min eigenvalue {lowest:.3e}")
    return rho


def superop_sandwich(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> A rho B; matrix by matrix for (k, d, d) stacks.

    With row-major vec, vec(A rho B) = S vec(rho) with the matrix element
    S[(i,j),(i',j')] = A[i,i'] * B[j',j], one broadcast product.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape or a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"dimension mismatch: A {a.shape} vs B {b.shape}")
    d = a.shape[-1]
    s = a[..., :, None, :, None] * b.swapaxes(-1, -2)[..., None, :, None, :]
    return s.reshape(a.shape[:-2] + (d * d, d * d))


def commutator_superop(h: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> -i[H, rho]."""
    d = h.shape[0]
    eye = np.eye(d)
    return -1j * (superop_sandwich(h, eye) - superop_sandwich(eye, h))


def anticommutator_superop(a: np.ndarray) -> np.ndarray:
    """Superoperator for rho -> {A, rho}."""
    d = a.shape[0]
    eye = np.eye(d)
    return superop_sandwich(a, eye) + superop_sandwich(eye, a)


def hermiticity_preservation_defect(s: np.ndarray) -> float:
    """max |S[(i,j),(i',j')] - conj(S[(j,i),(j',i')])|."""
    d = int(round(np.sqrt(s.shape[0])))
    t = s.reshape(d, d, d, d)
    return float(np.max(np.abs(t - np.conj(t.transpose(1, 0, 3, 2)))))


def choi_rearrange(s: np.ndarray) -> np.ndarray:
    """Choi matrix C[(i,i'),(j,j')] = S[(i,j),(i',j')]; involutive.  A
    (k, d^2, d^2) stack is rearranged matrix by matrix."""
    d = int(round(np.sqrt(s.shape[-1])))
    return s.reshape(s.shape[:-2] + (d, d, d, d)).swapaxes(-3, -2).reshape(s.shape)


def min_choi_eigenvalue(c: np.ndarray):
    """Smallest eigenvalue of the Hermitized Choi matrix; of each matrix of a
    (k, d^2, d^2) stack, (k,), from one stacked eigvalsh."""
    lowest = np.linalg.eigvalsh(herm_part(c))[..., 0]
    return lowest if lowest.ndim else float(lowest)


@dataclass(frozen=True)
class SpectralBasis:
    """Eigen-system of a Hermitian operator.

    energies: ascending eigenvalues; vectors: unitary matrix of eigencolumns;
    gaps[i, j] = energies[i] - energies[j].
    """

    energies: np.ndarray
    vectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.energies.size

    @property
    def gaps(self) -> np.ndarray:
        w = self.energies
        return w[:, None] - w[None, :]

    def to_energy_basis(self, x: np.ndarray) -> np.ndarray:
        u = self.vectors
        return dag(u) @ x @ u

    def from_energy_basis(self, x: np.ndarray) -> np.ndarray:
        u = self.vectors
        return u @ x @ dag(u)


def _fix_phases(u: np.ndarray) -> np.ndarray:
    """Make the first significant component of every eigencolumn real positive."""
    u = u.copy()
    for k in range(u.shape[1]):
        col = u[:, k]
        idx = np.argmax(np.abs(col) > 1e-8 * np.max(np.abs(col)))
        phase = col[idx] / abs(col[idx])
        u[:, k] = col * np.conj(phase)
    return u


def eig_hermitian(h: np.ndarray) -> SpectralBasis:
    """Ascending eigendecomposition of a Hermitian operator.

    Degenerate eigenvalues come out contiguously (ascending sort); the phase of
    each eigencolumn is fixed by making its first significant component real
    positive, so the output is deterministic.
    """
    h = require_hermitian(h, name="Hamiltonian")
    w, u = np.linalg.eigh(herm_part(h))
    return SpectralBasis(energies=w, vectors=_fix_phases(u))


# ---------------------------------------------------------------------------
# time-indexed matrix series as CSV
# ---------------------------------------------------------------------------

def write_matrix_csv(fh, times, mats, name: str, extra=None) -> None:
    """Write a (k, n, n) series to the text stream fh (opened with newline=""):
    columns t, then re_<name>_i_j, im_<name>_i_j in row-major vec order (re_i_j,
    im_i_j for an empty name), then one per key of the mapping extra, whose
    values hold k numbers each.  Every value is written as repr(float)."""
    mats = np.asarray(mats, dtype=complex)
    k, n = len(times), mats.shape[-1]
    prefix = f"{name}_" if name else ""
    extra = extra or {}
    parts = np.stack([mats.real, mats.imag], axis=-1).reshape(k, 2 * n * n)
    body = np.column_stack([times, parts, *extra.values()])
    writer = csv.writer(fh)
    writer.writerow(["t"] + [f"{part}_{prefix}{i}_{j}" for i in range(n) for j in range(n)
                             for part in ("re", "im")] + list(extra))
    writer.writerows(body.tolist())  # csv writes a float as its repr


def read_matrix_csv(path, name: str):
    """Read what write_matrix_csv wrote: (times (k,), matrices (k, n, n)).

    Columns are matched by name, so their order is free.  n is one more than
    the largest entry index and entries without columns stay zero; columns
    other than t, re_* and im_* (the writer's extra ones) are ignored.  No or
    a repeated t, a re_/im_ column that is unpaired, repeated or not an entry
    of this name, a short row or a non-numeric cell raises ValueError."""
    entry = re.compile(rf"(re|im)_{re.escape(f'{name}_' if name else '')}(\d+)_(\d+)")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = [c.strip() for c in next(reader, [])]
        rows = [(reader.line_num, row) for row in reader if row]
    if header.count("t") != 1:
        raise ValueError(f"{path}: expected one 't' column, found {header.count('t')}")
    cols = {}
    for col, label in enumerate(header):
        match = entry.fullmatch(label)
        key = match and (match[1], int(match[2]), int(match[3]))
        if label.startswith(("re_", "im_")) and (not match or key in cols):
            raise ValueError(f"{path}: column {label!r} is repeated or not an entry of {name!r}")
        if match:
            cols[key] = col
    if not cols:
        raise ValueError(f"{path}: no re_/im_ columns for {name!r}")
    for part, i, j in cols:
        if ("im" if part == "re" else "re", i, j) not in cols:
            raise ValueError(f"{path}: {part}_ column of entry {i},{j} has no partner")
    data = np.empty((len(rows), len(header)))
    for r, (line, row) in enumerate(rows):
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} cells, expected {len(header)}")
            data[r] = [float(x) for x in row]
        except ValueError as exc:
            raise ValueError(f"{path}: line {line}: {exc}") from None
    n = 1 + max(max(i, j) for _, i, j in cols)
    mats = np.zeros((len(rows), n, n), dtype=complex)
    for (part, i, j), col in cols.items():
        if part == "re":
            mats[:, i, j] = data[:, col] + 1j * data[:, cols["im", i, j]]
    return data[:, header.index("t")], mats
