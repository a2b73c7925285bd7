"""Two-time correlation functions: quantum regression plus its second-order
non-Markovian correction.

The regression (QRT) estimate propagates X2 rho(t2) with the single-time
propagator; the correction term restores the bath correlations that straddle
the measurement at t2.  It involves the partially-integrated second-order
operator B_n(t1, t2) = (A <> L)_n(t1) - (A <> L)_n(t1 - t2) and free
(interaction-picture) Heisenberg operators, with the expectation taken in the
initial state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from .core import apply_superop, dag, require_hermitian
from .tcl2 import SystemModel, build_L2, propagate, second_order_operator

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
    """B_n(t1, t2) = (A <> L)_n(t1) - (A <> L)_n(t1 - t2); requires t1 >= t2 >= 0."""
    if not (t1 >= t2 >= 0):
        raise ValueError("two_time_operator requires t1 >= t2 >= 0")
    return second_order_operator(m, t1, n) - second_order_operator(m, t1 - t2, n)


def _superop_propagator(m: SystemModel, t_from: float, t_to: float, mode: str) -> np.ndarray:
    """Evolution superoperator G(t_to <- t_from)."""
    if mode == "stationary":
        return expm(build_L2(m, None) * (t_to - t_from))
    if mode not in ("full", "full-time"):
        raise ValueError(f"unknown mode {mode!r}")
    dim2 = m.dim**2
    if t_to == t_from:
        return np.eye(dim2, dtype=complex)

    # the solver holds rhs in a reference cycle that only a full collection
    # frees, so rhs reaches the model through a list emptied once it returns
    held = [m]

    def rhs(t, y):
        return (build_L2(held[0], max(t, 0.0)) @ y.reshape(dim2, dim2)).reshape(-1)

    try:
        sol = solve_ivp(
            rhs,
            (t_from, t_to),
            np.eye(dim2, dtype=complex).reshape(-1),
            method="RK45",
            rtol=1e-10,
            atol=1e-12,
        )
    finally:
        held.clear()
    if not sol.success:
        raise RuntimeError(f"propagator integration failed: {sol.message}")
    return sol.y[:, -1].reshape(dim2, dim2)


def _free_heisenberg(m: SystemModel, x: np.ndarray, t: float) -> np.ndarray:
    u = expm(1j * m.h * t)
    return u @ x @ dag(u)


def _observables(m: SystemModel, req: TwoTimeRequest):
    """(X1(t1), X2(t2)) under free Heisenberg evolution."""
    return _free_heisenberg(m, req.x1, req.t1), _free_heisenberg(m, req.x2, req.t2)


def _correction_rate(m: SystemModel, req: TwoTimeRequest, obs, tau: float) -> complex:
    """-sum_n < [L_n(tau), X1(t1)] [B_n(tau, t2), X2(t2)] >_{rho0}

    with free Heisenberg evolution throughout (obs = _observables(m, req)) and
    B_n the partially-integrated second-order operator.  This is the driving
    term of the corrected adjoint equation of motion; at tau = t1 it is the
    single-time product form of the regression correction."""
    x1h, x2h = obs
    u = expm(1j * m.h * tau)
    ud = dag(u)
    rho0 = np.asarray(req.rho0, dtype=complex)
    total = 0.0 + 0.0j
    for n in range(len(m.couplings)):
        lnh = u @ m.couplings[n] @ ud
        bh = u @ two_time_operator(m, n, tau, req.t2) @ ud
        c1 = lnh @ x1h - x1h @ lnh
        c2 = bh @ x2h - x2h @ bh
        total += np.trace(c1 @ c2 @ rho0)
    return -complex(total)


def nm_correction(m: SystemModel, req: TwoTimeRequest) -> complex:
    """Single-time product form of the non-Markovian regression correction,

    -sum_n < [L_n(t1), X1(t1)] [B_n(t1, t2), X2(t2)] >_{rho0},

    the rate at which the corrected and regression evolutions diverge at t1.
    O(g^2); vanishes once the bath memory has decayed across (t1 - t2)."""
    if not (req.t1 >= req.t2 >= 0):
        raise ValueError("nm_correction requires t1 >= t2 >= 0")
    return _correction_rate(m, req, _observables(m, req), req.t1)


def nm_correction_integrated(m: SystemModel, req: TwoTimeRequest, nodes: int = 32) -> complex:
    """Value-level correction to the regression estimate: the driving term
    accumulated over the interval,

    -int_{t2}^{t1} sum_n < [L_n(tau), X1(t1)] [B_n(tau, t2), X2(t2)] > dtau,

    which restores the bath correlations straddling t2 through O(g^2)."""
    if not (req.t1 >= req.t2 >= 0):
        raise ValueError("nm_correction_integrated requires t1 >= t2 >= 0")
    if req.t1 == req.t2:
        return 0.0 + 0.0j
    x, w = np.polynomial.legendre.leggauss(nodes)
    half = 0.5 * (req.t1 - req.t2)
    obs = _observables(m, req)
    total = 0.0 + 0.0j
    for xi, wk in zip(x, w):
        tau = req.t2 + half * (xi + 1.0)
        total += half * wk * _correction_rate(m, req, obs, tau)
    return complex(total)


def _ordered(req: TwoTimeRequest):
    """(request with t1 >= t2, whether to conjugate): t1 < t2 is handled by
    conjugate exchange, <X1(t1) X2(t2)> = conj <X2(t2) X1(t1)>, which needs
    Hermitian observables."""
    if req.t1 >= req.t2:
        return req, False
    for name, x in (("X1", req.x1), ("X2", req.x2)):
        require_hermitian(np.asarray(x), tol=1e-10, name=name)
    return TwoTimeRequest(x1=req.x2, x2=req.x1, t1=req.t2, t2=req.t1, rho0=req.rho0), True


def qrt_correlation(
    m: SystemModel,
    req: TwoTimeRequest,
    mode: str = "stationary",
    include_correction: bool = True,
) -> complex:
    """Regression estimate of <X1(t1) X2(t2)>, optionally with the second-order
    non-Markovian correction.  t1 < t2 is handled by conjugate exchange (the
    observables must then be Hermitian)."""
    req, swap = _ordered(req)
    rho0 = np.asarray(req.rho0, dtype=complex)
    if mode == "stationary":
        rho_t2 = apply_superop(expm(build_L2(m, None) * req.t2), rho0)
    else:
        rho_t2 = propagate(m, rho0, [0.0, req.t2], mode=mode).states[-1] \
            if req.t2 > 0 else rho0
    g12 = _superop_propagator(m, req.t2, req.t1, mode)
    val = complex(np.trace(np.asarray(req.x1) @ apply_superop(g12, np.asarray(req.x2) @ rho_t2)))
    if include_correction:
        val += nm_correction_integrated(m, req)
    return np.conj(val) if swap else val


def qrt_corrections(m: SystemModel, req: TwoTimeRequest) -> tuple[complex, complex]:
    """(nm_correction_integrated, nm_correction) of <X1(t1) X2(t2)>, with t1 < t2
    handled by conjugate exchange as in qrt_correlation."""
    req, swap = _ordered(req)
    vals = nm_correction_integrated(m, req), nm_correction(m, req)
    return tuple(np.conj(v) for v in vals) if swap else vals
