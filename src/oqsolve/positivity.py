"""Complete-positivity machinery for the second-order theory.

The algebraic (Magnus) generator Phi2(t) = int_0^t L2_int(tau) dtau has a
Hermitian Lindblad coefficient matrix Delta, read off Phi2 in the traceless
gauge, that is positive semidefinite for every model and time, so
G(t) = G0(t) exp(Phi2(t)) is exactly completely positive even though the
instantaneous generator need not be.

The weak test checks positivity of the running trapezoid integral of the
interaction-picture dissipator D(tau) = Y + Y^dag, Y = sum_n vec(B_n) vec(L_n)^dag
of the traceless operators B_n(tau), L_n(tau).  weak_cp_test validates dense
input-basis samples (an external audit); weak_test_min_eigenvalue gives the
same number from the model without forming them.  The input- and energy-basis
matrices are unitarily similar, and vec(1) is an exact null vector of every
running integral, so it works in the energy basis, in d^2 - 1 orthonormal
traceless coordinates: it integrates Y there, into the Hermitian stack
acc + acc^dag.  Both routes read the stack's minimum from _stack_min_eigenvalue:
one eigvalsh of the first matrix and one stacked Cholesky screen of the rest,
with an eigvalsh of every matrix only when the screen fails.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    dag,
    expm,
    herm_part,
    read_matrix_csv,
    require_hermitian,
    superop_sandwich,
    write_matrix_csv,
)
from .tcl2 import SystemModel, _pair_superop, _second_order_ops_eb, canonical_coefficient_matrix

__all__ = [
    "AlgebraicGenerator",
    "magnus_phi2",
    "magnus_propagator",
    "algebraic_propagator",
    "weak_cp_test",
    "weak_test_min_eigenvalue",
    "interaction_dissipator_samples",
    "load_superop_samples",
    "save_superop_samples",
]

_MAGNUS_TOL = 1e-9  # the bound on Phi2's error, relative to max(1, max|Phi2|), that converges


@dataclass(frozen=True)
class AlgebraicGenerator:
    """Phi2(t) and its Lindblad coefficient matrix Delta, with the bound on
    Phi2's error that the table's bound carries, relative to max(1, max|Phi2|),
    and whether that met the tolerance.  From a 1-D array of times every field
    is stacked per time: t (nt,), phi2 and delta (nt, d^2, d^2), change and
    converged (nt,)."""

    t: float | np.ndarray
    phi2: np.ndarray
    delta: np.ndarray
    change: float | np.ndarray = 0.0
    converged: bool | np.ndarray = True


def magnus_phi2(m: SystemModel, t) -> AlgebraicGenerator:
    """Interaction-picture Magnus generator Phi2(t) = int_0^t L2_int(tau) dtau,
    the gap-pair contraction of the integrated table I[a, b](t) = int_0^t
    A(tau; u_a) e^{i(u_a + u_b) tau} dtau (in closed form, with a bound on its
    round-off or truncation), and Delta, its traceless-gauge coefficient matrix.
    t is a time or a 1-D array of them, whose generators come from one table call
    and one stacked contraction."""
    ts = np.asarray(t, dtype=float)
    times = np.atleast_1d(ts)
    if min(times.tolist(), default=0.0) < 0:
        raise ValueError("magnus_phi2 requires t >= 0")
    table, err = m.bath.coefficient_integral(times, m.unique_gaps)
    phi2 = _pair_superop(m, table)
    change = np.zeros(err.size)
    if err.any():  # only a table with a bound reads the error gain
        change = m.pair_error_gain * err / np.maximum(1.0, np.abs(phi2).max(axis=(1, 2)))
    gen = AlgebraicGenerator(t=ts, phi2=phi2, delta=herm_part(canonical_coefficient_matrix(phi2)),
                             change=change, converged=change <= _MAGNUS_TOL)
    if ts.ndim:
        return gen
    return AlgebraicGenerator(t=float(ts), phi2=phi2[0], delta=gen.delta[0],
                              change=float(change[0]), converged=bool(gen.converged[0]))


def algebraic_propagator(m: SystemModel, gen: AlgebraicGenerator) -> np.ndarray:
    """G(t) = G0(t) exp(Phi2(t)) from a computed generator, G0 from the model's
    eigenbasis, U0(t) = V diag(e^{-iEt}) V^dag; exactly completely positive.  A
    stacked generator gives (nt, d^2, d^2), from one product for every U0 and one
    expm of the stack."""
    v = m.basis.vectors
    u0 = (v * np.exp(-1j * np.multiply.outer(gen.t, m.basis.energies))[..., None, :]) @ dag(v)
    return superop_sandwich(u0, dag(u0)) @ expm(gen.phi2)


def magnus_propagator(m: SystemModel, t: float) -> np.ndarray:
    """G(t) = G0(t) exp(Phi2(t)); exactly completely positive."""
    return algebraic_propagator(m, magnus_phi2(m, t))


def _require_grid(grid, k: int) -> np.ndarray:
    """The grid as a float array, which must be 1-D, finite and strictly
    increasing, with one point per sample and k >= 2 samples."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or not (np.isfinite(grid).all() and (np.diff(grid) > 0).all()):
        raise ValueError("weak test: the grid must be 1-D, finite and strictly increasing")
    if grid.size != k or k < 2:
        raise ValueError(f"weak test: the grid has {grid.size} points and there are {k} "
                         "samples; it needs one point per sample, at least two")
    return grid


def _running_integrals(samples, grid) -> np.ndarray:
    """Trapezoid integrals of a (k, n, n) stack from grid[0] to each later grid
    point, (k - 1, n, n)."""
    steps = 0.5 * np.diff(grid)[:, None, None] * (samples[1:] + samples[:-1])
    return np.cumsum(steps, axis=0)


def _stack_min_eigenvalue(h: np.ndarray) -> float:
    """The smallest eigenvalue over a Hermitian (k, n, n) stack, k >= 1.

    mu = eigvalsh(h[0])[0]; with tau = 8 n eps max|h|, a stacked Cholesky of
    h[1:] - (mu - tau) 1 that succeeds shows every later eigenvalue to be above
    mu - tau, so mu is returned, within tau of the stack's minimum and exact
    when the minimum is at h[0].  When it fails (a later matrix dips below, or
    tau = 0 on a zero stack) the minimum of every matrix's eigvalsh is returned.
    """
    mu = float(np.linalg.eigvalsh(h[0])[0])
    n = h.shape[-1]
    tau = 8 * n * np.finfo(float).eps * float(np.max(np.abs(h)))
    try:
        np.linalg.cholesky(h[1:] - (mu - tau) * np.eye(n))
    except np.linalg.LinAlgError:
        return float(np.min(np.linalg.eigvalsh(h)[:, 0]))
    return mu


def weak_cp_test(d_samples, grid) -> float:
    """Min eigenvalue of the trapezoid-integrated dissipator over all endpoints,
    from Hermitian samples (k, d^2, d^2) on a 1-D, finite, strictly increasing
    grid of k >= 2 points (_stack_min_eigenvalue, so within its tau)."""
    samples = require_hermitian(d_samples, tol=1e-8, name="dissipator sample")
    grid = _require_grid(grid, samples.shape[0] if samples.ndim == 3 else 1)
    acc = _running_integrals(samples, grid)
    return _stack_min_eigenvalue(herm_part(acc))


def _interaction_factors_eb(m: SystemModel, tgrid: np.ndarray):
    """The interaction-picture operators B_n(tau) and L_n(tau) in the energy
    basis, each stacked (k, n, d, d), from one bath call for the whole grid:
    X_n(tau)[x, i] = X_n[x, i] e^{i w_xi tau}."""
    phase = np.exp(1j * np.multiply.outer(tgrid, m.unique_gaps))[:, None, m.gap_index]
    return _second_order_ops_eb(m, tgrid) * phase, m.couplings_eb * phase


def _traceless_coordinates(x: np.ndarray) -> np.ndarray:
    """Q^T vec(X) for a (..., d, d) stack, (..., d^2 - 1): Q's real orthonormal
    columns span the complement of vec(1), the off-diagonal unit vectors, then
    the d - 1 traceless diagonal ones that a QR of [1, e_1 ... e_{d-1}] leaves
    after the first."""
    d = x.shape[-1]
    first = np.eye(d)
    first[:, 0] = 1.0
    diag = np.linalg.qr(first)[0][:, 1:]
    return np.concatenate([x[..., ~np.eye(d, dtype=bool)],
                           x.diagonal(axis1=-2, axis2=-1) @ diag], axis=-1)


def weak_test_min_eigenvalue(m: SystemModel, grid) -> float:
    """weak_cp_test(interaction_dissipator_samples(m, grid), grid) to round-off,
    without forming the samples.  The running integrals are unitarily similar to
    their energy-basis form and annihilate vec(1), so in the traceless
    coordinates Q they are acc + acc^dag, acc the trapezoid integral of
    Y = sum_n (Q^T vec(B_n)) (Q^T vec(L_n^T))^T; the result is min(0, their
    smallest eigenvalue), the 0 that of vec(1).  That eigenvalue is
    _stack_min_eigenvalue's: within tau = 8 (d^2 - 1) eps max|acc| of the
    stack's minimum, and exact when the minimum is at the first running
    integral, where the trapezoid put it on every cp-audit model tried."""
    grid = _require_grid(grid, np.size(grid))
    b, l = _interaction_factors_eb(m, grid)
    bq, lq = _traceless_coordinates(b), _traceless_coordinates(l.swapaxes(-1, -2))
    acc = _running_integrals(bq.swapaxes(1, 2) @ lq, grid)
    acc += np.conj(acc).swapaxes(-1, -2)
    return min(0.0, _stack_min_eigenvalue(acc))


def interaction_dissipator_samples(m: SystemModel, tgrid):
    """Interaction-picture dissipator coefficient matrices D(tau) on a grid,
    stacked (k, d^2, d^2), from one bath call for the whole grid: the traceless-gauge
    coefficient matrix of interaction_L2(m, tau), D = Y + Y^dag with
    Y = sum_n vec(B_n) vec(L_n)^dag, B_n and L_n the traceless interaction-picture
    operators in the input basis."""
    tgrid = np.asarray(tgrid, dtype=float)
    k, d = tgrid.size, m.dim
    b, l = (m.basis.from_energy_basis(x) for x in _interaction_factors_eb(m, tgrid))
    b, l = (x - np.trace(x, axis1=-2, axis2=-1)[..., None, None] * np.eye(d) / d for x in (b, l))
    # y[(x,i),(y,j)] = sum_n B_n[x,i] L_n[j,y]
    y = b.reshape(k, -1, d * d).swapaxes(1, 2) @ l.swapaxes(-1, -2).reshape(k, -1, d * d)
    return y + np.conj(y).swapaxes(-1, -2)


# ---------------------------------------------------------------------------
# external audit surface: time-sampled superoperators as CSV
# ---------------------------------------------------------------------------

def save_superop_samples(path, tgrid, superops) -> None:
    """CSV with columns t then the Re/Im superoperator entries re_I_J, im_I_J
    (core.write_matrix_csv with an empty name)."""
    with open(path, "w", newline="") as fh:
        write_matrix_csv(fh, tgrid, superops, "")


def load_superop_samples(path):
    """Inverse of save_superop_samples; returns (tgrid, (k, d^2, d^2) stack).
    Columns are matched by name; the dimension must be a perfect square, the
    grid at least two finite, strictly increasing times, and every sample finite."""
    tgrid, mats = read_matrix_csv(path, "")
    dim2 = mats.shape[-1]
    if int(round(np.sqrt(dim2))) ** 2 != dim2:
        raise ValueError(f"superoperator CSV: dimension {dim2} is not a perfect square")
    if not np.isfinite(mats).all():
        raise ValueError("superoperator CSV: every sample entry must be finite")
    if tgrid.size < 2 or not (np.isfinite(tgrid).all() and (np.diff(tgrid) > 0).all()):
        raise ValueError("superoperator CSV: t must be two or more finite, strictly increasing times")
    return tgrid, mats
