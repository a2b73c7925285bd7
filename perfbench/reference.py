"""Reference values computed apart from oqsolve.

Nothing here imports oqsolve.  The bath correlation functions come from their
closed forms (E1/Ei at zero temperature, exponentials for Ornstein-Uhlenbeck)
plus, at T > 0, the thermal excess written as a smooth spectral integral:

    alpha_T(s) = alpha_0(s) + (1/pi) int_0^inf gamma~(u) 2u/(e^{u/T} - 1) cos(us) du.

Time integrals of alpha use composite tanh-sinh panels, which absorb the
logarithmic singularity of alpha at s = 0; stationary coefficients use the
spectral principal-value integral.  The TCL2 assembly, the Choi and
Lindblad-coefficient maps and the Magnus generator are re-derived here in the
energy basis, where every checked quantity (eigenvalues of Choi and
coefficient matrices, Pauli rates) is basis independent.
"""

from __future__ import annotations

import numpy as np
from scipy import integrate, special
from scipy.linalg import expm

_GAP_TOL = 1e-9


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _tanh_sinh_unit(level=5, span=3.5):
    """Nodes in (0, 1) and weights of the tanh-sinh rule; nodes near 0 kept
    to full relative precision."""
    h = 2.0 ** -level
    u = np.arange(-int(span / h), int(span / h) + 1) * h
    y = 0.5 * np.pi * np.sinh(u)
    x = special.expit(2.0 * y)
    e = np.exp(-2.0 * np.abs(y))
    w = h * 0.5 * np.pi * np.cosh(u) * 4.0 * e / (1.0 + e) ** 2 / 2.0
    keep = (x > 0.0) & (x < 1.0)
    return x[keep], w[keep]


_UNIT = _tanh_sinh_unit()


def panel_rule(a, b, width=0.5):
    """Composite tanh-sinh rule on [a, b] with panels no wider than `width`."""
    if b <= a:
        return np.zeros(0), np.zeros(0)
    n = max(1, int(np.ceil((b - a) / width - 1e-12)))
    edges = np.linspace(a, b, n + 1)
    x, w = _UNIT
    s = np.concatenate([lo + (hi - lo) * x for lo, hi in zip(edges[:-1], edges[1:])])
    ws = np.concatenate([(hi - lo) * w for lo, hi in zip(edges[:-1], edges[1:])])
    return s, ws


def _phi1(z):
    """(e^z - 1)/z, stable at z -> 0."""
    z = np.asarray(z, dtype=complex)
    out = np.ones_like(z)
    big = np.abs(z) > 1e-8
    out[big] = np.expm1(z[big]) / z[big]
    out[~big] = 1.0 + z[~big] / 2.0
    return out


# ---------------------------------------------------------------------------
# baths
# ---------------------------------------------------------------------------

class OUBath:
    """alpha(s) = c e^{-lam s} for s >= 0, c real symmetric."""

    def __init__(self, c, lam):
        self.c = np.atleast_2d(np.asarray(c, dtype=float))
        self.lam = float(lam)
        self.n = self.c.shape[0]

    def alpha(self, s):
        s = np.asarray(s, dtype=float)
        return self.c[None] * np.exp(-self.lam * s)[:, None, None] + 0j

    def spectrum(self, w):
        return self.c * 2.0 * self.lam / (self.lam**2 + w * w) + 0j

    def stationary(self, w):
        return self.c / (self.lam + 1j * w)


class ThermalBath:
    """Single-channel Lorentz-damped thermal bath, T >= 0."""

    n = 1

    def __init__(self, gamma0, cutoff, temperature):
        self.g0 = float(gamma0)
        self.lam = float(cutoff)
        self.T = float(temperature)

    def gamma_tilde(self, u):
        return self.g0 / (1.0 + (np.asarray(u, dtype=float) / self.lam) ** 2)

    def spectrum_scalar(self, w):
        w = float(w)
        if self.T == 0.0:
            return 2.0 * abs(w) * float(self.gamma_tilde(w)) if w < 0 else 0.0
        if w == 0.0:
            return 2.0 * self.T * self.g0
        with np.errstate(over="ignore"):  # e^{w/T} overflows where alpha~ underflows to 0
            return float(self.gamma_tilde(w)) * 2.0 * w / np.expm1(w / self.T)

    def spectrum(self, w):
        return np.array([[self.spectrum_scalar(w)]], dtype=complex)

    def _alpha0(self, s):
        x = self.lam * s
        pre = self.g0 * self.lam**2
        re = pre / (2 * np.pi) * (np.exp(x) * special.exp1(x) - np.exp(-x) * special.expi(x))
        return re - 0.5j * pre * np.exp(-x)

    def _alpha_excess(self, s):
        if self.T == 0.0 or s.size == 0:
            return np.zeros(s.shape)
        T = self.T

        def f(u):
            occ = 2.0 * u / np.expm1(u / T) if u > 0 else 2.0 * T
            return float(self.gamma_tilde(u)) * occ / np.pi * np.cos(u * s)

        val, _ = integrate.quad_vec(
            f, 0.0, 46.0 * T, epsabs=1e-16 * self.g0 * T, epsrel=1e-14, limit=4000
        )
        return val

    def alpha(self, s):
        s = np.asarray(s, dtype=float)
        return (self._alpha0(s) + self._alpha_excess(s))[:, None, None]

    def stationary(self, w):
        """A(inf; w) = alpha~(w)/2 + (i/2pi) PV int alpha~(u)/(u - w) du."""
        w = float(w)
        spec = self.spectrum_scalar
        opts = dict(limit=400, epsabs=1e-14, epsrel=1e-12)
        if self.T == 0.0:
            if w == 0.0:  # alpha~(u)/u = -2 gamma~(u) on u < 0: no pole
                pv, _ = integrate.quad(lambda u: -2.0 * float(self.gamma_tilde(u)), -np.inf, 0.0, **opts)
            elif w > 0:
                pv, _ = integrate.quad(lambda u: spec(u) / (u - w), -np.inf, 0.0, **opts)
            else:
                d = 0.5 * abs(w)
                mid, _ = integrate.quad(spec, w - d, w + d, weight="cauchy", wvar=w, **opts)
                lo, _ = integrate.quad(lambda u: spec(u) / (u - w), -np.inf, w - d, **opts)
                hi, _ = integrate.quad(lambda u: spec(u) / (u - w), w + d, 0.0, **opts)
                pv = lo + mid + hi
        else:
            d = 1.0
            mid, _ = integrate.quad(spec, w - d, w + d, weight="cauchy", wvar=w, **opts)
            lo, _ = integrate.quad(lambda u: spec(u) / (u - w), -np.inf, w - d, **opts)
            hi, _ = integrate.quad(lambda u: spec(u) / (u - w), w + d, np.inf, **opts)
            pv = lo + mid + hi
        return np.array([[0.5 * spec(w) + 1j * pv / (2 * np.pi)]])


def bath_from_doc(node):
    if node["variant"] == "ou":
        return OUBath(node["c"], node["lam"])
    if node["variant"] == "thermal_lorentz":
        return ThermalBath(node["gamma0"], node["cutoff"], node["temperature"])
    raise ValueError(f"no reference for bath variant {node['variant']!r}")


# ---------------------------------------------------------------------------
# time integrals of alpha
# ---------------------------------------------------------------------------

def coefficient_full(bath, times, omegas):
    """A(t; w) = int_0^t alpha(s) e^{-iws} ds, shape (len(times), len(omegas), n, n).

    `times` must be ascending and non-negative; integrated interval by interval.
    """
    times = np.asarray(times, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    out = np.zeros((times.size, omegas.size, bath.n, bath.n), dtype=complex)
    acc = np.zeros((omegas.size, bath.n, bath.n), dtype=complex)
    rules = [panel_rule(times[k - 1] if k else 0.0, t) for k, t in enumerate(times)]
    s_all = np.concatenate([r[0] for r in rules])
    a_all = bath.alpha(s_all)
    pos = 0
    for k, (s, w) in enumerate(rules):
        a = a_all[pos:pos + s.size]
        pos += s.size
        phase = np.exp(-1j * np.outer(omegas, s))  # (nw, ns)
        acc = acc + np.einsum("q,wq,qnm->wnm", w, phase, a)
        out[k] = acc
    return out


def dephasing_gamma(bath, times):
    """Gamma(t) = int_0^t A(tau; 0) dtau = int_0^t (t - s) alpha(s) ds, (nt, n, n)."""
    times = np.asarray(times, dtype=float)
    out = np.zeros((times.size, bath.n, bath.n), dtype=complex)
    c0 = np.zeros((bath.n, bath.n), dtype=complex)
    c1 = np.zeros_like(c0)
    prev = 0.0
    for k, t in enumerate(times):
        s, w = panel_rule(prev, t)
        if s.size:
            a = bath.alpha(s)
            c0 = c0 + np.einsum("q,qnm->nm", w, a)
            c1 = c1 + np.einsum("q,qnm->nm", w * s, a)
        out[k] = t * c0 - c1
        prev = t
    return out


# ---------------------------------------------------------------------------
# dephasing models (diagonal H and couplings): exact element-wise solutions
# ---------------------------------------------------------------------------

def dephasing_exponent(ldiags, gam):
    """E_ij from the TCL2 dissipator with diagonal couplings and integrated
    coefficient matrix gam (n x n): rho_ij -> rho_ij exp(-i w_ij t + E_ij)."""
    ld = np.asarray(ldiags, dtype=float)  # (n, d)
    e = (np.einsum("nm,ni,mj->ij", np.conj(gam), ld, ld)
         + np.einsum("nm,mi,nj->ij", gam, ld, ld)
         - np.einsum("nm,ni,mi->i", gam, ld, ld)[:, None]
         - np.einsum("nm,mj,nj->j", np.conj(gam), ld, ld)[None, :])
    return e


def dephasing_trajectory(hdiag, ldiags, rho0, times, gammas):
    """States for diagonal H/couplings given Gamma(t) matrices per time."""
    hdiag = np.asarray(hdiag, dtype=float)
    w = hdiag[:, None] - hdiag[None, :]
    out = []
    for t, gam in zip(times, gammas):
        out.append(rho0 * np.exp(-1j * w * t + dephasing_exponent(ldiags, gam)))
    return np.array(out)


def ou_dephasing_talbot(hdiag, ldiags, c, lam, rho0, times):
    """Second-order time-nonlocal (Laplace-kernel) dephasing with an OU bath:
    rho^_ij(s) = rho_ij(0) / (u + q/(lam + u)), u = s + i w_ij, q = D^T c D,
    inverted by residues."""
    hdiag = np.asarray(hdiag, dtype=float)
    ld = np.asarray(ldiags, dtype=float)
    c = np.atleast_2d(np.asarray(c, dtype=float))
    d = hdiag.size
    out = np.zeros((len(times), d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            dl = ld[:, i] - ld[:, j]
            q = float(dl @ c @ dl)
            w = hdiag[i] - hdiag[j]
            if q == 0.0:
                out[:, i, j] = rho0[i, j] * np.exp(-1j * w * np.asarray(times))
                continue
            disc = np.sqrt(complex(lam * lam - 4.0 * q))
            u1, u2 = (-lam + disc) / 2.0, (-lam - disc) / 2.0
            for k, t in enumerate(times):
                val = ((lam + u1) * np.exp(u1 * t) - (lam + u2) * np.exp(u2 * t)) / (u1 - u2)
                out[k, i, j] = rho0[i, j] * np.exp(-1j * w * t) * val
    return out


# ---------------------------------------------------------------------------
# TCL2 assembly in the energy basis
# ---------------------------------------------------------------------------

class Frame:
    """Energy basis of H with unique-gap bookkeeping."""

    def __init__(self, h, couplings):
        e, u = np.linalg.eigh(np.asarray(h, dtype=complex))
        self.E = e
        self.U = u
        self.d = e.size
        self.L = np.array([u.conj().T @ np.asarray(l, dtype=complex) @ u for l in couplings])
        self.gaps = e[:, None] - e[None, :]
        flat = np.sort(self.gaps.reshape(-1))
        keep = [flat[0]]
        for g in flat[1:]:
            if g - keep[-1] > _GAP_TOL:
                keep.append(g)
        self.unique = np.array(keep)
        self.gap_index = np.abs(self.gaps[..., None] - self.unique).argmin(axis=-1)

    def to_input(self, rho_eb):
        return self.U @ rho_eb @ self.U.conj().T


def dissipator(frame, akl):
    """Second-order superoperator (row-major vec) for A(w_kl) given as akl of
    shape (d, d, n, n)."""
    d = frame.d
    eye = np.eye(d)
    b = np.einsum("klnm,mkl->nkl", akl, frame.L)
    s = np.zeros((d * d, d * d), dtype=complex)
    for ln, bn in zip(frame.L, b):
        s += np.kron(ln, np.conj(bn))
        s += np.kron(bn, ln.T)
        s -= np.kron(ln @ bn, eye)
        s -= np.kron(eye, (bn.conj().T @ ln).T)
    return s


def akl_from_gaps(frame, per_gap):
    """Spread per-unique-gap coefficient matrices (G, n, n) over (d, d, n, n)."""
    return np.asarray(per_gap)[frame.gap_index]


def commutator(h):
    d = h.shape[0]
    eye = np.eye(d)
    return -1j * (np.kron(h, eye) - np.kron(eye, h.T))


def choi(s):
    d = int(round(np.sqrt(s.shape[0])))
    return s.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d)


def coefficient_matrix(s):
    """Hermitian part of the traceless-gauge Lindblad coefficient matrix."""
    d = int(round(np.sqrt(s.shape[0])))
    v = np.eye(d).reshape(-1) / np.sqrt(d)
    p = np.eye(d * d) - np.outer(v, v)
    c = p @ choi(s) @ p
    return 0.5 * (c + c.conj().T)


def kernel_zero(frame, bath):
    """Laplace-domain memory kernel K2(s) at s = 0 in the energy basis: on e_ij
    the coefficients are alpha^(i(w_ij + w_kl)) and conj(alpha^(i(w_lk - w_ij)))."""
    d = frame.d
    cache = {}

    def coef(w):
        key = round(float(w), 12)
        if key not in cache:
            cache[key] = bath.stationary(key)
        return cache[key]

    k = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            wij = frame.gaps[i, j]
            a = np.array([[coef(wij + frame.gaps[p, q]) for q in range(d)] for p in range(d)])
            ac = np.array([[np.conj(coef(frame.gaps[q, p] - wij)) for q in range(d)] for p in range(d)])
            b = np.einsum("klnm,mkl->nkl", a, frame.L)
            bd = np.einsum("klnm,mkl->nkl", ac, frame.L)
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            col = -1j * wij * e
            for ln, bn, bdn in zip(frame.L, b, bd):
                col += ln @ e @ bdn + bn @ e @ ln - ln @ bn @ e - e @ bdn @ ln
            k[:, i * d + j] = col.reshape(-1)
    return k


def min_eig(m):
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def stationary_generator(frame, bath):
    """Stationary TCL2 generator in the energy basis."""
    per_gap = np.array([bath.stationary(g) for g in frame.unique])
    return commutator(np.diag(frame.E).astype(complex)) + dissipator(frame, akl_from_gaps(frame, per_gap))


def stationary_trajectory(frame, bath, rho0, times):
    gen = stationary_generator(frame, bath)
    y0 = (frame.U.conj().T @ rho0 @ frame.U).reshape(-1)
    return np.array([frame.to_input((expm(gen * t) @ y0).reshape(frame.d, frame.d)) for t in times])


def _linear_parts(frame, nch):
    """P_x, Q_x with dissipator(A) = sum_x P_x A_x + Q_x conj(A_x), x = (g, n, m)."""
    out = []
    for g in range(frame.unique.size):
        for n in range(nch):
            for m in range(nch):
                per_gap = np.zeros((frame.unique.size, nch, nch), dtype=complex)
                per_gap[g, n, m] = 1.0
                s1 = dissipator(frame, akl_from_gaps(frame, per_gap))
                per_gap[g, n, m] = 1j
                si = dissipator(frame, akl_from_gaps(frame, per_gap))
                out.append(((g, n, m), 0.5 * (s1 - 1j * si), 0.5 * (s1 + 1j * si)))
    return out


def magnus_phi2(frame, bath, t):
    """Phi2(t) = int_0^t L2_int(tau) dtau in the energy basis, reduced to single
    time integrals: int_0^t A(tau; w) e^{i D tau} dtau
    = int_0^t alpha(s) e^{-iws} (e^{iDt} - e^{iDs})/(iD) ds."""
    d = frame.d
    nch = frame.L.shape[0]
    om = frame.gaps.reshape(-1)
    dmat = om[:, None] - om[None, :]
    dvals = np.unique(np.round(dmat, 12))
    didx = np.searchsorted(dvals, np.round(dmat, 12))
    nidx = np.searchsorted(dvals, np.round(-dmat, 12))
    s, w = panel_rule(0.0, t)
    a = bath.alpha(s)  # (q, n, n)
    kern = np.exp(1j * np.outer(dvals, s)) * (t - s)[None, :] * _phi1(1j * np.outer(dvals, t - s))
    # J[g, D, n, m]
    ph = np.exp(-1j * np.outer(frame.unique, s))  # (G, q)
    jmat = np.einsum("q,gq,Dq,qnm->gDnm", w, ph, kern, a)
    phi = np.zeros((d * d, d * d), dtype=complex)
    for (g, n, m), p, q in _linear_parts(frame, nch):
        phi += p * jmat[g, didx, n, m] + q * np.conj(jmat[g, nidx, n, m])
    return phi


def magnus_audit(frame, bath, t):
    """(min Choi eigenvalue of G0(t) exp(Phi2(t)), min eigenvalue of Delta(t))."""
    phi = magnus_phi2(frame, bath, t)
    u0 = np.diag(np.exp(-1j * frame.E * t))
    g = np.kron(u0, np.conj(u0)) @ expm(phi)
    return min_eig(choi(g)), min_eig(coefficient_matrix(phi))


def weak_test(frame, bath, grid):
    """Trapezoid-integrated interaction-picture dissipator: min eigenvalue over
    all endpoints (the weak CP test on the same grid the program uses)."""
    grid = np.asarray(grid, dtype=float)
    acoef = coefficient_full(bath, grid, frame.unique)  # (nt, G, n, n)
    om = frame.gaps.reshape(-1)
    samples = []
    for k, tau in enumerate(grid):
        s = dissipator(frame, akl_from_gaps(frame, acoef[k]))
        ph = np.exp(1j * om * tau)
        samples.append(coefficient_matrix(ph[:, None] * s * np.conj(ph)[None, :]))
    best = np.inf
    acc = np.zeros_like(samples[0])
    for k in range(1, grid.size):
        acc = acc + 0.5 * (grid[k] - grid[k - 1]) * (samples[k] + samples[k - 1])
        best = min(best, min_eig(acc))
    return best


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------

def pauli_matrix(frame, bath):
    """W_ij = sum_nm conj(L_n[i,j]) alpha~_nm(w_ij) L_m[i,j] (i != j), diagonal
    minus column sums."""
    d = frame.d
    w = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            if i != j:
                x = frame.L[:, i, j]
                w[i, j] = float(np.real(np.conj(x) @ bath.spectrum(frame.gaps[i, j]) @ x))
    np.fill_diagonal(w, -w.sum(axis=0))
    return w


def decay_rates(frame, bath):
    """Re of the stationary generator's diagonal element on e_ij (single
    channel): alpha~(0) L_ii L_jj - sum_k (|L_ik|^2 alpha~(w_ki) + |L_jk|^2 alpha~(w_kj))/2."""
    d = frame.d
    l = frame.L[0]
    spec = np.array([[float(np.real(bath.spectrum(frame.gaps[k, i])[0, 0])) for i in range(d)]
                     for k in range(d)])  # spec[k, i] = alpha~(w_ki)
    a0 = float(np.real(bath.spectrum(0.0)[0, 0]))
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            out[i, j] = (a0 * float(np.real(l[i, i] * l[j, j]))
                         - 0.5 * sum(abs(l[i, k]) ** 2 * spec[k, i] for k in range(d))
                         - 0.5 * sum(abs(l[j, k]) ** 2 * spec[k, j] for k in range(d)))
    return out


def gibbs(energies, temperature):
    e = np.asarray(energies, dtype=float)
    p = np.exp(-(e - e.min()) / temperature)
    return p / p.sum()
