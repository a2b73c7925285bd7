"""Two-time correlation functions: quantum regression plus its second-order
non-Markovian correction.

The regression (QRT) estimate carries rho0 to t2 and then X2 rho(t2) to t1
with the single-time TCL2 stepper; the correction term restores the bath
correlations that straddle the measurement at t2.  It involves the
partially-integrated second-order operator B_n(t1, t2) = (A <> L)_n(t1) -
(A <> L)_n(t1 - t2) and free Heisenberg operators, with the expectation taken
in the initial state, all in the energy basis, where free evolution is a
phase e^{i w_ij t} on each entry.
"""

from __future__ import annotations

import functools
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


def _free_phase(m: SystemModel, t) -> np.ndarray:
    """e^{i w_ij t}: free Heisenberg evolution e^{iHt} X e^{-iHt} of an
    energy-basis operator X, entry by entry; (nt, d, d) at a 1-D array of t."""
    return np.exp(1j * m.basis.gaps * np.asarray(t)[..., None, None])


def _observables(m: SystemModel, req: TwoTimeRequest):
    """(rho0, X1(t1), X2(t2)) in the energy basis, the observables under free
    Heisenberg evolution."""
    eb = m.basis.to_energy_basis
    return (eb(np.asarray(req.rho0, dtype=complex)),
            eb(np.asarray(req.x1)) * _free_phase(m, req.t1),
            eb(np.asarray(req.x2)) * _free_phase(m, req.t2))


def _correction_rate(m: SystemModel, obs, tau, t2: float):
    """-sum_n < [L_n(tau), X1(t1)] [B_n(tau, t2), X2(t2)] >_{rho0}

    with free Heisenberg evolution throughout (obs = _observables(m, req)) and
    B_n the partially-integrated second-order operator, all couplings at once
    in the energy basis.  This is the driving term of the corrected adjoint
    equation of motion; at tau = t1 it is the single-time product form of the
    regression correction.  At a 1-D array of tau it is the array of rates, from
    one bath call for the times tau and tau - t2."""
    rho0, x1h, x2h = obs
    tau = np.asarray(tau, dtype=float)
    phase = _free_phase(m, tau)[..., None, :, :]
    lnh = m.couplings_eb * phase
    b = _second_order_ops_eb(m, np.append(tau, tau - t2))
    bh = (b[:tau.size] - b[tau.size:]).reshape(lnh.shape) * phase
    c1 = lnh @ x1h - x1h @ lnh
    c2 = bh @ x2h - x2h @ bh
    return -np.einsum("...nij,ji->...", c1 @ c2, rho0)


def nm_correction(m: SystemModel, req: TwoTimeRequest) -> complex:
    """Single-time product form of the non-Markovian regression correction,

    -sum_n < [L_n(t1), X1(t1)] [B_n(t1, t2), X2(t2)] >_{rho0},

    the rate at which the corrected and regression evolutions diverge at t1.
    O(g^2); vanishes once the bath memory has decayed across (t1 - t2)."""
    if not (req.t1 >= req.t2 >= 0):
        raise ValueError("nm_correction requires t1 >= t2 >= 0")
    return complex(_correction_rate(m, _observables(m, req), req.t1, req.t2))


@functools.cache
def _gauss_legendre(nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per node count and
    shared, so read-only."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def nm_correction_integrated(m: SystemModel, req: TwoTimeRequest, nodes: int = 32) -> complex:
    """Value-level correction to the regression estimate: the driving term
    accumulated over the interval,

    -int_{t2}^{t1} sum_n < [L_n(tau), X1(t1)] [B_n(tau, t2), X2(t2)] > dtau,

    which restores the bath correlations straddling t2 through O(g^2), by
    Gauss-Legendre quadrature on `nodes` nodes, all evaluated in one stacked pass."""
    if not (req.t1 >= req.t2 >= 0):
        raise ValueError("nm_correction_integrated requires t1 >= t2 >= 0")
    if req.t1 == req.t2:
        return 0.0 + 0.0j
    x, w = _gauss_legendre(nodes)
    half = 0.5 * (req.t1 - req.t2)
    rates = _correction_rate(m, _observables(m, req), req.t2 + half * (x + 1.0), req.t2)
    return complex(half * (w @ rates))


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


def qrt_correlation(m: SystemModel, req: TwoTimeRequest, mode: str = "stationary",
                    include_correction: bool = True) -> complex:
    """Regression estimate of <X1(t1) X2(t2)>, optionally with the second-order
    non-Markovian correction.  t1 < t2 is handled by conjugate exchange (the
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
    if include_correction:
        val += nm_correction_integrated(m, req)
    return np.conj(val) if swap else val


def qrt_corrections(m: SystemModel, req: TwoTimeRequest) -> tuple[complex, complex]:
    """(nm_correction_integrated, nm_correction) of <X1(t1) X2(t2)>, with t1 < t2
    handled by conjugate exchange as in qrt_correlation."""
    req, swap = _ordered(req)
    vals = nm_correction_integrated(m, req), nm_correction(m, req)
    return tuple(np.conj(v) for v in vals) if swap else vals
