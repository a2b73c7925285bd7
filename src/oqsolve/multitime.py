"""Two-time correlation functions: quantum regression plus its second-order
non-Markovian correction.

The regression (QRT) estimate carries rho0 to t2 and then X2 rho(t2) to t1
with the single-time TCL2 stepper; the correction term restores the bath
correlations that straddle the measurement at t2.  It involves the
partially-integrated second-order operator B_n(t1, t2) = (A <> L)_n(t1) -
(A <> L)_n(t1 - t2) and free Heisenberg operators, with the expectation taken
in the initial state, all in the energy basis, where free evolution is a
phase e^{i w_ij t} on each entry.  Both correction forms are one contraction
with a gap-pair table; the integrated one takes the bath's closed-form table
I(t) at t1, t2 and t1 - t2, whose difference cancels to the interval's size:
its relative error is about eps t1 / (t1 - t2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import require_hermitian, require_state, unvec, vec
from .tcl2 import SystemModel, _evolve, _require_mode, _second_order_ops_eb

__all__ = [
    "TwoTimeRequest",
    "two_time_operator",
    "qrt_correlation",
    "qrt_corrections",
    "nm_correction",
    "nm_correction_integrated",
]


@dataclass(frozen=True)
class TwoTimeRequest:
    """<X1(t1) X2(t2)> in the state evolved from rho0."""

    x1: np.ndarray
    x2: np.ndarray
    t1: float
    t2: float
    rho0: np.ndarray


def two_time_operator(m: SystemModel, n: int, t1: float, t2: float) -> np.ndarray:
    """B_n(t1, t2) = (A <> L)_n(t1) - (A <> L)_n(t1 - t2), from one bath call; t1 >= t2 >= 0."""
    if not (t1 >= t2 >= 0):
        raise ValueError("two_time_operator requires t1 >= t2 >= 0")
    b = _second_order_ops_eb(m, np.array([t1, t1 - t2]))[:, n]
    return m.basis.from_energy_basis(b[0] - b[1])


def _observables(m: SystemModel, req: TwoTimeRequest):
    """(rho0, X1(t1), X2(t2)) in the energy basis, the observables under free Heisenberg
    evolution e^{iHt} X e^{-iHt}: a phase e^{i w_ij t} on each entry."""
    eb, w = m.basis.to_energy_basis, m.basis.gaps
    return (eb(np.asarray(req.rho0, dtype=complex)),
            eb(np.asarray(req.x1)) * np.exp(1j * w * req.t1),
            eb(np.asarray(req.x2)) * np.exp(1j * w * req.t2))


def _gap_pair_correction(m: SystemModel, req: TwoTimeRequest, table: np.ndarray) -> complex:
    """-sum_nm sum_{xyij} L_n[x,y] T_nm[g(i,j), g(x,y)] L_m[i,j] W[x,y,i,j], g = gap_index,
    for a gap-pair table T (n_gaps, n_gaps, n, n).  The correction
    < [L_n, X1(t1)] [B_n, X2(t2)] >_{rho0} is bilinear in the entries L_n[x,y] and
    B_n[i,j] = sum_m A_nm(w_ij) L_m[i,j], and T holds the coefficients times the free
    phases e^{i(w_ij + w_xy) tau}.  The weights are W = X1[y,i] (X2 rho0)[j,x] -
    (X1 X2)[y,i] rho0[j,x] - delta_yi (X2 rho0 X1)[j,x] + X2[y,i] (rho0 X1)[j,x], with
    X1 and X2 from _observables."""
    rho0, x1h, x2h = _observables(m, req)
    p = np.stack([x1h, -x1h @ x2h, -np.eye(m.dim), x2h])
    q = np.stack([x2h @ rho0, rho0, x2h @ rho0 @ x1h, rho0 @ x1h])
    g, l = m.gap_index, m.couplings_eb
    return complex(-np.einsum("nxy,xyijnm,mij,kyi,kjx->", l, table[g, g[..., None, None]], l, p, q))


def nm_correction(m: SystemModel, req: TwoTimeRequest) -> complex:
    """Single-time product form of the non-Markovian regression correction,

    -sum_n < [L_n(t1), X1(t1)] [B_n(t1, t2), X2(t2)] >_{rho0},

    the rate at which the corrected and regression evolutions diverge at t1, from one
    bath call at t1 and t1 - t2.  O(g^2); vanishes once the bath memory has decayed
    across (t1 - t2), and exactly at t2 = 0."""
    if not (req.t1 >= req.t2 >= 0):
        raise ValueError("nm_correction requires t1 >= t2 >= 0")
    if req.t2 == 0:
        return 0j
    u = m.unique_gaps
    a = m.bath.coefficient_full(np.array([req.t1, req.t1 - req.t2]), u)
    phase = np.exp(1j * np.add.outer(u, u) * req.t1)
    return _gap_pair_correction(m, req, phase[..., None, None] * (a[0] - a[1])[:, None])


def nm_correction_integrated(m: SystemModel, req: TwoTimeRequest) -> complex:
    """Value-level correction to the regression estimate: the driving term
    accumulated over the interval,

    -int_{t2}^{t1} sum_n < [L_n(tau), X1(t1)] [B_n(tau, t2), X2(t2)] > dtau,

    which restores the bath correlations straddling t2 through O(g^2).  In closed
    form from the gap-pair table I(t) (BathModel.coefficient_integral) at t1, t2 and
    t1 - t2: int_{t2}^{t1} [A(tau; u_a) - A(tau - t2; u_a)] e^{i nu tau} dtau =
    I[a, b](t1) - I[a, b](t2) - e^{i nu t2} I[a, b](t1 - t2), nu = u_a + u_b.  The
    difference cancels to the size of the interval, so its relative error is about
    eps t1 / (t1 - t2).  Exactly 0 at t2 = 0 and at t1 = t2."""
    if not (req.t1 >= req.t2 >= 0):
        raise ValueError("nm_correction_integrated requires t1 >= t2 >= 0")
    if req.t2 == 0 or req.t1 == req.t2:
        return 0j
    u = m.unique_gaps
    i = m.bath.coefficient_integral(np.array([req.t1, req.t2, req.t1 - req.t2]), u)[0]
    phase = np.exp(1j * np.add.outer(u, u) * req.t2)
    return _gap_pair_correction(m, req, i[0] - i[1] - phase[..., None, None] * i[2])


def _ordered(req: TwoTimeRequest):
    """(request with t1 >= t2, whether to conjugate): t1 < t2 is handled by
    conjugate exchange, <X1(t1) X2(t2)> = conj <X2(t2) X1(t1)>, which needs
    Hermitian observables.  Both times must be >= 0."""
    if not (req.t1 >= 0 and req.t2 >= 0):
        raise ValueError(f"two-time correlations need t1, t2 >= 0, got {req.t1!r}, {req.t2!r}")
    if req.t1 >= req.t2:
        return req, False
    for name, x in (("X1", req.x1), ("X2", req.x2)):
        require_hermitian(np.asarray(x), tol=1e-10, name=name)
    return TwoTimeRequest(x1=req.x2, x2=req.x1, t1=req.t2, t2=req.t1, rho0=req.rho0), True


def qrt_correlation(m: SystemModel, req: TwoTimeRequest, mode: str = "stationary") -> complex:
    """Regression estimate of <X1(t1) X2(t2)>; the corrected value adds
    qrt_corrections(m, req)[0].  t1 < t2 is handled by conjugate exchange (the
    observables must then be Hermitian).

    The regression legs use propagate's stepper: vec rho0 is carried over
    [0, t2], then vec(X2 rho(t2)) over [t2, t1]."""
    req, swap = _ordered(req)
    _require_mode(mode)
    y = vec(require_state(req.rho0, name="initial state"))
    if req.t2 > 0:
        y = _evolve(m, y, np.array([0.0, req.t2]), mode)[-1]
    y = vec(np.asarray(req.x2) @ unvec(y))
    if req.t1 > req.t2:
        y = _evolve(m, y, np.array([req.t2, req.t1]), mode)[-1]
    val = complex(np.trace(np.asarray(req.x1) @ unvec(y)))
    return np.conj(val) if swap else val


def qrt_corrections(m: SystemModel, req: TwoTimeRequest) -> tuple[complex, complex]:
    """(nm_correction_integrated, nm_correction) of <X1(t1) X2(t2)>, with t1 < t2
    handled by conjugate exchange as in qrt_correlation."""
    req, swap = _ordered(req)
    vals = nm_correction_integrated(m, req), nm_correction(m, req)
    return tuple(np.conj(v) for v in vals) if swap else vals
