"""Environmental correlation functions and their transforms.

A bath model supplies the multivariate correlation function alpha_{nm}(t)
(stationary, Hermitian: alpha(-t) = alpha(t)^dag) together with

* its spectrum          alpha~(w)  = int e^{-iwt} alpha(t) dt,
* its Laplace transform alpha^(s)  = int_0^inf e^{-st} alpha(t) dt,
* the stationary master-equation coefficients  A(w) = alpha^(iw + 0+),
* the finite-time coefficients  A(t; w) = int_0^t alpha(tau) e^{-iw tau} dtau,
* the gap-pair table  I[a, b](t) = int_0^t A(tau; w_a) e^{i(w_a + w_b) tau} dtau, closed form.

Variants: WhiteNoise (delta correlation), ExponentialOU (a sum
sum_k c_k e^{-lam_k |t|}), ThermalLorentz (thermal state with Lorentzian damping
kernel gamma~(w) = gamma0 / (1 + (w/Lam)^2): at T > 0 a Matsubara exponential
sum with digamma closed forms, summed in time over a fixed head of terms plus an
Euler-Maclaurin tail, where only coefficient_integral reads past the head;
log/E1/Ei closed forms at T = 0), and Tabulated (user samples on a uniform grid,
fitted once to an exponential sum by ESPRIT and from then on evaluated as that
sum).  The exponential sums share one set of closed forms over a table of
weights and rates.

Each variant implements the evaluators as array forms only, on 1-D arrays of
points that lead the result, so that one call serves every distinct gap and
every time a caller knows.  That holds for the gap-pair table too: one call
gives every audit time's table, although the T > 0 thermal channel, whose
Matsubara count grows as 1/t, forms them one time at a time.  BathModel alone
takes scalars, applies alpha(-t) = alpha(t)^dag, rejects t < 0 and sets the
tables at t = 0 (see BathModel).

Real decomposition alpha = nu + i mu with damping kernel mu~ = i w gamma~;
diagnostics: KMS symmetry, fluctuation-dissipation inequality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _special as special
from .core import _GAP_TOL, herm_part, read_matrix_csv, require_hermitian, write_matrix_csv

__all__ = [
    "BathModel",
    "WhiteNoise",
    "ExponentialOU",
    "ThermalLorentz",
    "Tabulated",
    "KernelTriple",
    "kernels",
    "kms_residual",
    "fdi_check",
]

_MATSUBARA_TERMS = 120_000
_LOG_1_EPS = math.log(1 / np.finfo(float).eps)
# alpha_time and coefficient_full of a T > 0 channel sum c0 and the Matsubara terms up to
# n0 = ceil(Lam / 2 pi T) + _TAIL_MARGIN and take the rest in closed form (_exp_tail)
_TAIL_MARGIN = 32
# Euler-Maclaurin terms of _exp_tail: eps^m u^-i weighs B_n / (n m!), n = i + m <= 12,
# m = 0 .. 11, i = 1 .. 12
_EM_M, _EM_I = np.arange(12), np.arange(1, 13)[:, None]
_EM_WEIGHTS = np.where((_EM_I + _EM_M >= 2) & (_EM_I + _EM_M <= 12),
                       special.BERNOULLI[np.minimum(_EM_I + _EM_M, 12)]
                       / ((_EM_I + _EM_M) * [math.factorial(m) for m in range(12)]), 0.0)
# the exponential fit of tabulated samples (_fit_exponentials): block-Hankel rows, singular
# value cut (of the largest), held-out residual tolerance (of max|alpha|), Re z t_end below
# which a rate is undamped, and the grid points that one rate and its check take
_FIT_ROWS = 64
_FIT_CUT = 1e-13
_FIT_TOL = 1e-6
_FIT_UNDAMPED = 1e-9
_FIT_MIN_POINTS = 3


def _exp_integral(z, t):
    """E(z, t) = int_0^t e^{z tau} dtau = (e^{zt} - 1)/z, with E(0, t) = t; t may be an
    array that broadcasts against z."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(z == 0, t, np.expm1(z * t) / z)


def _finite(x, name: str, dtype=float) -> np.ndarray:
    """x as an array of dtype; ValueError when it is not numeric or not finite."""
    try:
        arr = np.asarray(x, dtype=dtype)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be numeric, got {x!r}") from None
    if np.isfinite(arr).all():
        return arr
    raise ValueError(f"{name} must be finite, got {x!r}")


# exponential sums alpha(t) = sum_k c_k e^{-z_k t}, t >= 0, over a term table:
# rates z (K,) and weights c, (K,) for one channel or (K, m) for the m = n * n
# entries of an (n, n) matrix (the caller reshapes results' trailing axis)

def _weigh(f, c):
    """sum_k f[..., k] c_k; scalar weights are summed pairwise (a Matsubara head runs to
    hundreds of terms; only coefficient_integral reads past it, by a matrix product)."""
    return (f * c).sum(-1) if c.ndim == 1 else f @ c


def _exp_sum_alpha(c, z, t: np.ndarray):
    """alpha(t) = sum_k c_k e^{-z_k t} at a 1-D array of t."""
    return _weigh(np.exp(-z * t[:, None]), c)


def _exp_sum_coefficient(c, z, t: np.ndarray, w: np.ndarray, undamped: bool = False):
    """A(t; w) = sum_k c_k E(x_k, t), x_k = -(z_k + iw), at 1-D arrays of t and w, (nt, k,
    ...).  Damped terms take expm1(x t) / x.  An undamped term (Re z_k = 0) has x = i theta,
    theta = -(Im z_k + w), and E(i theta, t) = (2/theta) sin(theta t/2) e^{-i Im z_k t/2}
    e^{-iwt/2}, with E(0, t) = t: only a real sine runs on (nt, k, K), the phases are
    (nt, K) and (nt, k), and the theta = 0 guard is (k, K).  The phases round Im z_k t/2
    and w t/2 apart, so near resonance (|theta| << |w|) an entry is off by up to about
    eps |w| t relative, where expm1 rounds theta t only; an error of eps |w| in the rates
    or gaps moves the exact sum as much.  A table with both kinds sums the two parts."""
    if undamped:
        still = z.real == 0
        out = _undamped_coefficient(c[still], z[still].imag, t, w)
        return out if still.all() else out + _exp_sum_coefficient(c[~still], z[~still], t, w)
    x = -1j * w[:, None] - z
    return _weigh(np.expm1(x * t[:, None, None]) / x, c)


def _undamped_coefficient(c, v, t: np.ndarray, w: np.ndarray):
    """sum_k c_k E(i theta_k, t), theta_k = -(v_k + w), for real v (K,), weights c (K,) or
    (K, m): the real (nt, k, K) factor 2 sin(theta t/2) / theta takes the complex weights
    e^{-i v t/2} c as two real columns each, and e^{-iwt/2} multiplies the result."""
    half = -(v + w[:, None]) / 2
    zero = half == 0
    half[zero] = 1.0
    s = np.sin(t[:, None, None] * half) / half
    if zero.any():
        s[:, zero] = t[:, None]
    weighted = np.exp(-0.5j * v * t[:, None])[..., None] * c.reshape(len(c), -1)
    out = (s @ weighted.view(float)).view(complex)
    return (np.exp(-0.5j * w * t[:, None])[..., None] * out).reshape(out.shape[:2] + c.shape[1:])


def _over_i_nu(num, nu, limit, size):
    """num / (i nu) on the gap-pair grid, limit where |nu| <= _GAP_TOL (unique_gaps' resolution;
    representatives of opposite gaps need not cancel exactly), and eps size / |nu|: the bound
    on the round-off of a numerator of terms up to size that cancel to O(nu)."""
    small = np.abs(nu) <= _GAP_TOL
    inu = 1j * np.where(small, 1.0, nu)
    return np.where(small, limit, num / inu), np.where(small, 0, np.finfo(float).eps * size / abs(inu))


def _exp_sum_table(c, z, t: np.ndarray, w: np.ndarray, laplace_iw=None):
    """Gap-pair tables I[a, b] = int_0^t A(tau; w_a) e^{i(w_a + w_b) tau} dtau at a 1-D array
    of times, (nt, k, k, ...), and their round-off bounds, (nt,): c_k E(-p_k, tau), p_k = z_k +
    i w_a, integrates to (c_k/p_k)[E(i nu, t) - E(i w_b - z_k, t)], nu = w_a + w_b, and at p_k = 0
    (an undamped term at a gap) c_k tau to c_k (t e^{i nu t} - E(i nu, t)) / (i nu).
    laplace_iw = alpha^(i w_a) defaults to the sum of c_k / p_k over p_k != 0 (p_k = inf there);
    the head is a BLAS product (rounds less than a sum)."""
    iw = 1j * w[:, None]
    p = z + iw
    resonant = np.abs(p) <= _GAP_TOL
    p = np.where(resonant, np.inf, p)
    laplace_iw = (1 / p) @ c if laplace_iw is None else laplace_iw
    ts = t[:, None, None]
    head = (np.atleast_2d(c.T)[:, None, :] / p) @ _exp_integral(iw - z, ts).swapaxes(1, 2)[:, None]
    e_nu = _exp_integral(iw + iw.T, ts)
    table, err = laplace_iw.T[..., None] * e_nu[:, None] - head, np.zeros(t.size)
    if resonant.any():
        nu = (iw + iw.T).imag
        tau, bound = _over_i_nu(ts * np.exp(1j * nu * ts) - e_nu, nu, ts * ts / 2, 2 * ts)
        table += (resonant @ c).T[..., None] * tau[:, None]
        err = np.max((resonant @ np.abs(c)).T[..., None] * bound[:, None], axis=(1, 2, 3))
    return table.transpose(0, 2, 3, 1).reshape(e_nu.shape + c.shape[1:]), err


def _exp_tail(eps, n0: int, b: np.ndarray) -> np.ndarray:
    """sum_{k > n0} e^{-eps k} / (k + b) for eps > 0 and a 1-D array of poles b, each with
    |n0 + b| >= 32 and Re(n0 + b) > 0, by Euler-Maclaurin with u = n0 + b, z = eps u:
    e^{-eps n0} [e^z E1(z) - 1/2u + sum_{n=2..12} (B_n / n) sum_{m<n} eps^m u^{m-n} / m!],
    the integral, the half endpoint and the Bernoulli terms to B_12; the remainder is at
    most about (6 / (e pi |u|))^12 < 1e-20 of 1/|u|.  A 1-D array of eps leads the result."""
    eps = np.asarray(eps, dtype=float)[..., None]
    u = n0 + b
    z = eps * u
    corr = (eps**_EM_M @ _EM_WEIGHTS.T) @ (1 / u) ** _EM_I
    return np.exp(-eps * n0) * (special.exp1_scaled(z) - 0.5 / u + corr)


class BathModel:
    """Common interface.  A variant implements array forms on 1-D arrays of points,
    which lead the result: _alpha_time(t) at t >= 0, _alpha_spectrum(w), _laplace(s),
    _coefficient_full(t, w) at t >= 0, (nt, k, n, n), _gamma_spectrum(w), and the closed
    form _coefficient_integral(t, w) at t > 0, (nt, k, k, n, n), with its round-off
    bounds, (nt,); _coefficient_stationary(w) is _laplace(iw) unless the variant
    overrides it.  The public evaluators, here alone, take a scalar (an (n, n) result)
    or a 1-D array (the stack; times lead frequencies), apply alpha(-t) = alpha(t)^dag
    and reject t < 0."""

    channels: int

    @staticmethod
    def _points(x):
        """x as a 1-D array of points, and whether it was a scalar."""
        if type(x) is np.ndarray and x.ndim:
            return x, False
        return np.array([x]), True

    def _evaluate(self, form, x):
        points, scalar = self._points(x)
        out = form(points)
        return out[0] if scalar else out

    def alpha_time(self, t) -> np.ndarray:
        """alpha(t); at t < 0, alpha(|t|)^dag."""
        ts, scalar = self._points(t)
        out = self._alpha_time(np.abs(ts))
        neg = ts < 0
        out[neg] = np.conj(out[neg]).swapaxes(-1, -2)
        return out[0] if scalar else out

    def alpha_spectrum(self, w) -> np.ndarray:
        """alpha~(w) = int e^{-iwt} alpha(t) dt."""
        return self._evaluate(self._alpha_spectrum, w)

    def laplace(self, s) -> np.ndarray:
        """alpha^(s) = int_0^inf e^{-st} alpha(t) dt."""
        return self._evaluate(self._laplace, s)

    def coefficient_stationary(self, w) -> np.ndarray:
        """A(w) = alpha^(iw + 0+)."""
        return self._evaluate(self._coefficient_stationary, w)

    def _coefficient_stationary(self, w: np.ndarray) -> np.ndarray:
        return self._laplace(1j * w)

    def coefficient_full(self, t, w) -> np.ndarray:
        """A(t; w) = int_0^t alpha(tau) e^{-iw tau} dtau."""
        ts, t_scalar = self._points(t)
        ws, w_scalar = self._points(w)
        # on a stepper's few stage times a list's min costs less than a numpy reduction
        if min(ts.tolist(), default=0.0) < 0:
            raise ValueError("coefficient_full requires t >= 0")
        return self._coefficient_full(ts, ws)[0 if t_scalar else slice(None),
                                              0 if w_scalar else slice(None)]

    def coefficient_integral(self, t, w):
        """Gap-pair table I[a, b] = int_0^t A(tau; w_a) e^{i(w_a + w_b) tau} dtau
        over a 1-D array w, shaped (k, k, n, n), with an absolute error bound in
        the max norm; 0 at t = 0.  A bound within eps max|table| counts as 0, so
        that callers skip their error propagation.  At a 1-D array of times the
        tables lead, (nt, k, k, n, n), with one bound per time, (nt,)."""
        ts, t_scalar = self._points(t)
        ws, w_scalar = self._points(w)
        first = min(ts.tolist(), default=0.0)
        if first < 0:
            raise ValueError("coefficient_integral requires t >= 0")
        if first > 0:
            table, err = self._coefficient_integral(ts, ws)
        else:  # the tables are 0 at t = 0
            table = np.zeros((ts.size, ws.size, ws.size) + (self.channels,) * 2, dtype=complex)
            err = np.zeros(ts.size)
            pos = np.flatnonzero(ts)
            if pos.size:
                table[pos], err[pos] = self._coefficient_integral(ts[pos], ws)
        if err.any():
            err = np.where(err > np.finfo(float).eps * np.abs(table).max(axis=(1, 2, 3, 4)), err, 0.0)
        if w_scalar:
            table = table[:, 0, 0]
        return (table[0], float(err[0])) if t_scalar else (table, err)

    def gamma_spectrum(self, w) -> np.ndarray:
        """Damping kernel gamma~(w) = mu~(w)/(iw); w=0 taken as a limit."""
        return self._evaluate(self._gamma_spectrum, w)

    def is_thermal(self) -> bool:
        return False


# ---------------------------------------------------------------------------
# white noise
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WhiteNoise(BathModel):
    """Delta correlation alpha(t) = c delta(t), c real symmetric positive."""

    c: np.ndarray

    def __post_init__(self):
        c = np.atleast_2d(_finite(self.c, "white-noise correlation matrix"))
        require_hermitian(c, name="white-noise correlation matrix")
        object.__setattr__(self, "c", c)

    @property
    def channels(self) -> int:
        return self.c.shape[0]

    def _alpha_time(self, t: np.ndarray) -> np.ndarray:
        if (t == 0.0).any():
            raise ValueError("delta correlation is singular at t = 0")
        return np.zeros((t.size,) + self.c.shape, dtype=complex)

    def _alpha_spectrum(self, w: np.ndarray) -> np.ndarray:
        return np.repeat(self.c.astype(complex)[None], w.size, axis=0)

    def _laplace(self, s: np.ndarray) -> np.ndarray:
        # boundary half-weight convention: int_0^t delta(tau) dtau = 1/2
        return np.repeat((self.c.astype(complex) / 2.0)[None], s.size, axis=0)

    def _coefficient_full(self, t: np.ndarray, w: np.ndarray) -> np.ndarray:
        half = (self.c / 2.0 * (t != 0.0)[:, None, None]).astype(complex)
        return np.repeat(half[:, None], w.size, axis=1)

    def _coefficient_integral(self, t: np.ndarray, w: np.ndarray):
        """A(tau; w) = c/2 for tau > 0: I[a, b] = (c/2) E(i nu, t)."""
        iw = 1j * w[:, None]
        return _exp_integral(iw + iw.T, t[:, None, None])[..., None, None] * (self.c / 2), np.zeros(t.size)

    def _gamma_spectrum(self, w: np.ndarray) -> np.ndarray:
        return np.zeros((w.size,) + self.c.shape, dtype=complex)


# ---------------------------------------------------------------------------
# exponential-sum (Ornstein-Uhlenbeck) correlation
# ---------------------------------------------------------------------------

class _ExponentialSum(BathModel):
    """alpha(t) = sum_k c_k e^{-z_k t} for t >= 0 over a term table: rates _z (K,) with
    Re z_k >= 0 and weights _c (K, n * n), any complex (n, n) matrices; _undamped tells
    whether some Re z_k = 0.  Undamped terms have no t -> inf limit: laplace,
    coefficient_stationary and alpha_spectrum raise for them."""

    @property
    def channels(self) -> int:
        return math.isqrt(self._c.shape[-1])

    def _matrices(self, flat):
        return flat.reshape(flat.shape[:-1] + (self.channels,) * 2)

    def _require_damped(self):
        if self._undamped:
            raise ValueError("undamped terms (Re lam = 0): no decaying tail, so the correlation "
                             "has no t -> inf limit")

    def _alpha_time(self, t: np.ndarray) -> np.ndarray:
        return self._matrices(_exp_sum_alpha(self._c, self._z, t))

    def _alpha_spectrum(self, w: np.ndarray) -> np.ndarray:
        """alpha^(iw) + alpha^(iw)^dag; with Re z_k > 0 no z_k + iw is 0."""
        self._require_damped()
        f = self._matrices(_weigh(1 / (self._z + 1j * w[:, None]), self._c))
        return f + np.conj(f).swapaxes(-1, -2)

    def _laplace(self, s: np.ndarray) -> np.ndarray:
        self._require_damped()
        p = self._z + s[:, None]
        near = np.abs(p / self._z)
        if near.size and near.min() < 1e-12:
            pole = -self._z[near.argmin() % self._z.size]
            raise ValueError(f"Laplace transform pole at s = {pole}")
        return self._matrices(_weigh(1 / p, self._c))

    def _coefficient_full(self, t: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self._matrices(_exp_sum_coefficient(self._c, self._z, t, w, self._undamped))

    def _coefficient_integral(self, t: np.ndarray, w: np.ndarray):
        table, err = _exp_sum_table(self._c, self._z, t, w)
        return self._matrices(table), err

    def _gamma_spectrum(self, w: np.ndarray) -> np.ndarray:
        """mu~(w) / (iw), with |w| at least 1e-7 of the largest |z_k| (of 1 with no terms)."""
        small = 1e-7 * (float(np.max(np.abs(self._z), initial=0.0)) or 1.0)
        weff = np.where(np.abs(w) > small, w, small)
        mu = (self._alpha_spectrum(weff) - np.conj(self._alpha_spectrum(-weff))) / 2j
        return mu / (1j * weff)[:, None, None]


@dataclass(frozen=True)
class ExponentialOU(_ExponentialSum):
    """alpha(t) = sum_k c_k e^{-lam_k t} for t >= 0, alpha(-t) = alpha(t)^dag.

    One (n, n) Hermitian c with a scalar rate lam is the Ornstein-Uhlenbeck
    correlation c e^{-lam |t|}; a (K, n, n) stack of Hermitian weights takes K
    finite rates with Re lam_k >= 0.
    """

    c: np.ndarray
    lam: np.ndarray

    def __post_init__(self):
        name = "exponential-sum weights c"
        c = require_hermitian(np.atleast_2d(_finite(self.c, name, complex)), name=name)
        z = _finite(self.lam, "exponential-sum rates lam", complex)
        z = z if z.imag.any() else z.real
        if c.ndim > 3 or z.shape != c.shape[:-2] or np.any(z.real < 0):
            raise ValueError(f"exponential-sum rates lam: one rate with Re lam >= 0 per "
                             f"weight matrix, got {self.lam!r} for weights of shape {c.shape}")
        for attr, value in (("c", c), ("lam", z[()]), ("_c", c.reshape(-1, c.shape[-1] ** 2)),
                            ("_z", np.atleast_1d(z)), ("_undamped", bool(np.any(z.real == 0)))):
            object.__setattr__(self, attr, value)


# ---------------------------------------------------------------------------
# thermal bath with Lorentzian damping kernel
# ---------------------------------------------------------------------------

def _as_channel_array(x, n: int, name: str) -> np.ndarray:
    arr = np.atleast_1d(_finite(x, name))
    if arr.size == 1:
        arr = np.full(n, arr[0])
    if arr.size != n:
        raise ValueError(f"{name} must be scalar or length-{n}")
    return arr


class _LorentzChannel:
    """What both temperature regimes share: the Lorentzian damping kernel, and
    alpha^(iw) kept for the last gap array that coefficient_full saw."""

    _axis_key = None
    _axis_value = None

    def gamma_tilde(self, w: float) -> float:
        return self.gamma0 / (1.0 + (w / self.cutoff) ** 2)

    def on_axis(self, w: np.ndarray) -> np.ndarray:
        """A(w) = alpha^(iw + 0+).  It does not depend on t, and every generator
        build of one model asks for it at the same gaps, so the value for the
        last array w is kept, keyed by its dtype, shape and bytes."""
        key = (w.dtype.str, w.shape, w.tobytes())
        if key != self._axis_key:
            self._axis_key, self._axis_value = key, self.laplace(1j * w)
        return self._axis_value


def _scaled_exp_integrals(x):
    """(e^x E1(x), e^{-x} Ei(x)) for real x > 0, elementwise over an array.  Past
    x = 40 (e^x overflows at 709) both come from the asymptotic series
    (1/x) sum_k (-+1)^k k!/x^k, cut after 40 terms: the first dropped term is at
    most 40!/40^40 < 1e-16.  Both sum the same terms, and alpha_time takes their
    difference, about -2/x^2."""
    near = np.minimum(x, 40.0)
    e1, ei = special.exp1_scaled(near), np.exp(-near) * special.expi(near)
    far = x > 40.0
    if far.any():
        xf = x[far][:, None]
        terms = np.cumprod(np.concatenate([np.ones_like(xf), np.arange(1, 40) / xf], 1), 1) / xf
        e1[far] = terms[:, ::2].sum(1) - terms[:, 1::2].sum(1)
        ei[far] = terms.sum(1)
    return e1, ei


class _ThermalChannelT0(_LorentzChannel):
    """Zero-temperature channel: spectrum 2|w| gamma~(w) on w < 0.

    alpha(t) = K int_0^inf 2u/(u^2 + Lam^2) e^{-iut} du with K = gamma0 Lam^2 / 2 pi;
    the partial fractions 2u/(u^2 + Lam^2) = sum_b 1/(u - b), b = +-i Lam, give
    alpha(t), alpha^(s) and A(t; w) in closed form (log, E1, Ei).
    """

    def __init__(self, gamma0: float, cutoff: float):
        self.gamma0 = gamma0
        self.cutoff = cutoff
        self._k = gamma0 * cutoff**2 / (2 * np.pi)

    def spectrum(self, w: np.ndarray) -> np.ndarray:
        return np.where(w >= 0, 0.0, 2.0 * np.abs(w) * self.gamma_tilde(w))

    def alpha_time(self, t: np.ndarray) -> np.ndarray:
        # K [e^x E1(x) - e^{-x} Ei(x)] - i pi K e^{-x},  x = Lam t
        if (t == 0.0).any():
            raise ValueError("zero-temperature correlation diverges at t = 0")
        x = self.cutoff * t
        e1, ei = _scaled_exp_integrals(x)
        return self._k * (e1 - ei) + 1j * (-np.pi * self._k * np.exp(-x))

    def laplace(self, s: np.ndarray) -> np.ndarray:
        """alpha^(s) = (2K/i) [c log(c/Lam) + pi Lam/2] / (c^2 + Lam^2), c = -is,
        with the principal log.

        On the cut c < 0 (s = iw, w < 0) the boundary value from Re s > 0 takes
        log(c - i0) = ln|c| - i pi, set explicitly rather than left to the sign
        of a zero imaginary part.  At c = 0, c log c = 0.  Both roots b = +-i Lam of c^2 + Lam^2 are zeros of
        the numerator too; within Lam/4 of one the quotient is
        [log(c/Lam) + log1p(z)/z] / (c + b), z = c/b - 1.
        """
        lam = self.cutoff
        c = s.imag - 1j * s.real
        with np.errstate(divide="ignore", invalid="ignore"):
            log_c = np.log(c / lam)
            log_c = np.where((c.imag == 0) & (c.real < 0), log_c.real - 1j * np.pi, log_c)
            f = (np.where(c == 0, 0, c * log_c) + np.pi * lam / 2) / (c * c + lam * lam)
            b = np.where(c.imag > 0, 1j * lam, -1j * lam)
            near = np.abs(c - b) < lam / 4
            if near.any():
                z = c[near] / b[near] - 1
                ratio = np.where(z == 0, 1, special.log1p(z) / z)
                f[near] = (log_c[near] + ratio) / (c[near] + b[near])
        return -2j * self._k * f

    def coefficient_full(self, t: np.ndarray, w: np.ndarray) -> np.ndarray:
        """A(t; w) = alpha^(iw + 0+) - int_t^inf alpha(tau) e^{-iw tau} dtau, (nt, k).

        With 1/((u + w)(u - b)) = [1/(u - b) - 1/(u + w)] / (b + w) the tail is
        K [2iw/(Lam^2 + w^2) E1(iwt) + e^{-iwt} sum_b e^{-ibt} E1(-ibt) / (i(b + w))],
        where e^{-ibt} E1(-ibt) is e^x E1(x) at b = i Lam and -e^{-x} (Ei(x) + i pi)
        at b = -i Lam, x = Lam t; w E1(iwt) -> 0 as w -> 0.  A(0; w) = 0.
        """
        lam, pos = self.cutoff, t[:, None] > 0
        ts = np.where(pos, t[:, None], 1.0)  # A(0; w) = 0 is set below
        x = lam * ts
        e1, ei = _scaled_exp_integrals(x)
        pole_terms = e1 / (1j * w - lam) - (ei + 1j * np.pi * np.exp(-x)) / (1j * w + lam)
        with np.errstate(divide="ignore", invalid="ignore"):  # E1(0) = inf at w = 0
            w_e1 = np.where(w == 0, 0, w * special.exp1(1j * w * ts))
        tail = self._k * (2j * w_e1 / (lam**2 + w**2) + np.exp(-1j * w * ts) * pole_terms)
        return np.where(pos, self.on_axis(w) - tail, 0j)

    def coefficient_integral(self, t: np.ndarray, w: np.ndarray):
        """Gap-pair tables in closed form at a 1-D array of times t > 0, nu = u_a + u_b:
        coefficient_full's tail integrates term by term (d/dtau [e^{a tau} E1(b tau) - E1((b -
        a) tau)] = a e^{a tau} E1(b tau), E1(z) ~ -gamma - ln z at 0, Ei(x) = -E1(-x + i0) -
        i pi) to I = A^(u_a) E(i nu, t) - K [2i u_a J1 / (Lam^2 + u_a^2) + J2 / (i u_a - Lam) +
        J3 / (i u_a + Lam)], with x, e1 and ei as there and Q_b = -E1(-i u_b t) - ln(-i u_b)
        (gamma + ln t at u_b = 0): J2 = [e^{i u_b t} e1 + ln Lam + Q_b] / (Lam + i u_b), J3 =
        [ln Lam + i pi + Q_b - e^{i u_b t} (ei + i pi e^{-x})] / (i u_b - Lam) and J1 = [e^{i nu
        t} E1(i u_a t) + ln(i u_a) + Q_b] / (i nu), which is t E1(i u_a t) + E(-i u_a, t) at
        nu = 0; the J1 term is 0 at u_a = 0.  The bounds are on the round-off of J1's quotient."""
        lam, ua, nu = self.cutoff, w[:, None], w[:, None] + w
        tw, ts = t[:, None], t[:, None, None]
        e1, ei = (f[:, None] for f in _scaled_exp_integrals(lam * t))
        with np.errstate(divide="ignore", invalid="ignore"):  # the w = 0 entries are set apart
            e1w, logw = special.exp1(1j * w * tw), np.log(1j * w)  # conjugated at -i w
            q = np.where(w == 0, np.euler_gamma + np.log(tw), -np.conj(e1w + logw))
            size = np.where(w == 0, np.abs(q), np.abs(e1w) + np.abs(logw))
            j1, bound = _over_i_nu(np.exp(1j * nu * ts) * e1w[..., None] + logw[:, None] + q[:, None],
                                   nu, ts * e1w[..., None] + _exp_integral(-1j * ua, ts),
                                   size[..., None] + size[:, None])
            j1, bound = (np.where(ua == 0, 0, f * ua / (lam**2 + ua**2)) for f in (2j * j1, 2 * bound))
        phase, log_lam = np.exp(1j * w * tw), math.log(lam)
        j2 = (phase * e1 + log_lam + q) / (lam + 1j * w)
        j3 = (log_lam + 1j * np.pi + q - phase * (ei + 1j * np.pi * np.exp(-lam * tw))) / (1j * w - lam)
        table = self.on_axis(w)[:, None] * _exp_integral(1j * nu, ts) - self._k * (
            j1 + j2[:, None] / (1j * ua - lam) + j3[:, None] / (1j * ua + lam))
        return table, self._k * np.max(np.abs(bound), axis=(1, 2))


class _ThermalChannel(_LorentzChannel):
    """Finite-temperature channel: alpha(t) = c0 e^{-Lam t} + sum_k ck e^{-nu_k t},
    nu_k = 2 pi T k, c0 = (gamma0 Lam^2 / 2)(cot(Lam/2T) - i) and
    ck = -2 gamma0 T Lam^2 nu_k / (Lam^2 - nu_k^2).

    c0 and ck*, k* = max(1, round(x)), x = Lam / 2piT, diverge as Lam nears
    nu_k*, so they enter merged, exact at Lam = nu_k* too: (c0 + ck*) e^{-Lam t}
    + d e^{-Lam t} E(delta, t), delta = Lam - nu_k*, d = ck* delta.  By
    pi cot(pi y) = psi(1 - y) - psi(1 + y) + 1/y, y = x - k*, K = gamma0 Lam^2 / 2pi,
    Re(c0 + ck*) = K [psi(1 - y) - psi(1 + y) + 1/(x + k*)] and d = -K 2k* 2piT / (x + k*).
    The table holds c0 + ck* at Lam and 0 at nu_k*; the pair term is closed form.
    """

    def __init__(self, gamma0: float, cutoff: float, temperature: float):
        self.gamma0, self.cutoff, self.temperature = gamma0, cutoff, temperature
        a = self._a = 2 * np.pi * temperature
        x = self._x = cutoff / a
        self._n0 = math.ceil(x) + _TAIL_MARGIN
        if self._n0 >= _MATSUBARA_TERMS:
            raise ValueError(f"cutoff / (2 pi temperature) = {x:.3g} is past the Matsubara table")
        k = max(1, round(x))
        y, pre = x - k, gamma0 * cutoff**2 / (2 * np.pi)
        self._c0 = complex(pre * (special.digamma(1 - y) - special.digamma(1 + y) + 1 / (x + k)),
                           -np.pi * pre)
        self._k_pair, self._d, self._delta = k, -pre * 2 * k / (x + k) * a, a * y
        self._shift = max(self._delta, 0.0)  # Lam - min(Lam, nu_k*); see _pair_factors
        psi_plus = special.digamma(1 + x)
        self._psi = (psi_plus - 1 / x, psi_plus)  # psi(x) = psi(1 + x) - 1/x
        # the head, which alpha_time and coefficient_full sum whole; they add the terms past
        # it by _exp_tail while a t n0 < ln(1/eps), and later those are below round-off (and
        # e^{eps b} in _exp_tail could overflow at large eps x)
        self._c, self._z = self.terms(self._n0 + 1)

    def spectrum(self, w: np.ndarray) -> np.ndarray:
        T = self.temperature
        gt = self.gamma_tilde(w)
        # w (coth(w/2T) - 1) = 2w / (e^{w/T} - 1), stable for w >> T, where e^{w/T}
        # overflows to inf and the quotient to 0; near w = 0, w coth(w/2T) = 2T + w^2/(6T) + O(w^4)
        with np.errstate(invalid="ignore", over="ignore"):
            far = gt * 2.0 * w / np.expm1(w / T)
        return np.where(np.abs(w) < 1e-6 * T, gt * (2 * T + w * w / (6 * T) - w), far)

    def terms(self, n: int):
        """The first n entries (c, z) of the term table: c0 + ck* at Lam, then the Matsubara
        terms k = 1 .. n - 1 (ck* = 0), ck = -2 gamma0 T Lam x k / ((x - k)(x + k)).  Taking
        x - k from the rounded x keeps it exact near k*, so that the terms there cancel the
        cot(pi x) of c0 as they do in the exact sum.  An entry does not depend on n, so every
        table agrees with the head entry for entry."""
        x, k = self._x, np.arange(1.0, n)
        with np.errstate(divide="ignore"):
            ck = -2 * self.gamma0 * self.temperature * self.cutoff * x * k / ((x - k) * (x + k))
        c = np.concatenate([[self._c0], ck])
        c[self._k_pair] = 0
        return c, np.concatenate([[self.cutoff], self._a * k])

    def _pair_factors(self, p, t):
        """e^{-pt} E(delta, t) as factors that only decay, e^{-(p - s) t} E(-|delta|, t) with
        s = max(delta, 0) (exact at delta <= 0): at delta > 0 past t = 709 / delta, e^{-pt}
        underflows and E(delta, t) overflows, and 0 inf is NaN."""
        r = -abs(self._delta)
        return np.exp(-(p - self._shift) * t), (np.expm1(r * t) / r if r else t)

    def _pair_integral(self, p, t: float):
        """d int_0^t e^{-p tau} E(delta, tau) dtau
        = d [E(-p, t) - e^{-pt} E(delta, t)] / (p - delta)."""
        e_p = -np.expm1(-p * t) / p
        decay, e = self._pair_factors(p, t)
        return self._d * (e_p - decay * e) / (p - self._delta)

    def alpha_time(self, t: np.ndarray) -> np.ndarray:
        """alpha(t).  Past n0 the Matsubara terms are (2 gamma0 T Lam^2 / a) k / (k^2 - x^2)
        e^{-a k t}, a = 2 pi T, x = Lam / a, with k / (k^2 - x^2) = (1/2) sum_{b = +-x} 1/(k + b)."""
        if (t == 0.0).any():
            raise ValueError("thermal correlation is logarithmically divergent at t = 0")
        decay, e = self._pair_factors(self.cutoff, t)
        pair = self._d * decay * e
        val = _exp_sum_alpha(self._c, self._z, t) + pair
        tailed = self._a * t * self._n0 < _LOG_1_EPS
        if tailed.any():
            sums = _exp_tail(self._a * t[tailed], self._n0, np.array([-self._x, self._x]))
            val[tailed] += self.gamma0 * self.temperature * self.cutoff**2 / self._a * sums.sum(-1)
        return val

    def _regular_point(self, s: complex) -> complex:
        """Reject the poles of the digamma form at s; nudge s off its
        spurious partial-fraction poles at s = +-Lam."""
        lam, a = self.cutoff, 2 * np.pi * self.temperature
        for pole in (-lam, -a):
            if abs(s - pole) < 1e-12 * max(lam, a):
                raise ValueError(f"Laplace transform pole at s = {pole}")
        if abs(s.real + a * round(-s.real / a)) < 1e-12 * a and abs(s.imag) < 1e-12 * a \
                and s.real < -0.5 * a:
            raise ValueError(f"Laplace transform pole near s = {s}")
        for sp in (lam, -lam):
            if 0 < abs(s - sp) < 1e-9 * lam:
                s = sp + 1e-9 * lam * (s - sp) / abs(s - sp)
        return lam * (1 + 1e-9) if s == lam else s

    def laplace(self, s: np.ndarray) -> np.ndarray:
        """Closed form of the Matsubara sum via digamma functions.

        The sum over k >= 1 brings psi(1 - x), x = Lam/2piT, and the cutoff
        term c0/(Lam + s) brings cot(Lam/2T) = cot(pi x); both diverge as Lam
        nears a Matsubara frequency.  By reflection, psi(1 - x) = psi(x) +
        pi cot(pi x), and that cot term cancels the real part of c0 exactly,
        so the form below keeps psi(x) and only the imaginary part of c0.

        On the axis, s = iw, the real part is alpha~(w)/2, taken from spectrum's
        expm1 form, which holds the KMS ratio Re A(-w) / Re A(w) = e^{w/T} to
        round-off; the digamma form, a difference of O(1) terms, loses it as
        e^{|w|/T} grows (by 3e-8 at T = 0.05 on a gap of 1, and all of it, 0 for
        e^{-50}, at T = 0.02).  The Lamb shift, the imaginary part, is the digamma
        form's."""
        g0, lam, T = self.gamma0, self.cutoff, self.temperature
        a = 2 * np.pi * T
        s = s.astype(complex)
        axis = s.real == 0
        # every pole and nudge of _regular_point lies this close to the real axis
        for k in np.flatnonzero(np.abs(s.imag) < 1e-9 * max(lam, a)):
            s[k] = self._regular_point(complex(s[k]))
        A = 1.0 / (2 * (lam + s))
        B = 1.0 / (2 * (lam - s))
        C = -s / (lam**2 - s**2)
        psi_x, psi_plus = self._psi
        ssum = (A / a) * psi_x - (B / a) * psi_plus - (C / a) * special.digamma(1 + s / a)
        out = -0.5j * g0 * lam**2 / (lam + s) - 2 * g0 * T * lam**2 * ssum
        if axis.any():
            out[axis] = self.spectrum(s.imag[axis]) / 2 + 1j * out[axis].imag
        return out

    def coefficient_full(self, t: np.ndarray, w: np.ndarray) -> np.ndarray:
        """A(t; w) = alpha^(iw) - e^{-iwt} sum_k c_k e^{-z_k t} / (z_k + iw), (nt, k).  The
        pair term adds d e^{-pt} (1/p + E(delta, t)) / (p - delta).  Past n0, c_k / (nu_k + iw) =
        (2 gamma0 T Lam^2 / a^2) k / ((k^2 - x^2)(k + i beta)), a = 2 pi T, x = Lam / a,
        beta = w / a, is sum_b r_b / (k + b) over b = -x, x, i beta with
        r = 1/2(x + i beta), -1/2(x - i beta), i beta / (x^2 + beta^2)."""
        iw = 1j * w
        out = np.zeros((t.size, w.size), dtype=complex)
        pos = np.flatnonzero(t > 0)
        if pos.size:
            out[pos] = self.on_axis(w) - np.exp(-t[pos, None] * iw) * self._tail(t[pos], iw)
        return out

    def _tail(self, t: np.ndarray, iw: np.ndarray) -> np.ndarray:
        """sum_k c_k e^{-z_k t} / (z_k + iw) with the pair term, (nt, nw), at times t > 0."""
        out = np.exp(-np.multiply.outer(t, self._z)) @ (self._c[:, None] / (self._z[:, None] + iw))
        tailed = self._a * t * self._n0 < _LOG_1_EPS
        if tailed.any():
            a, x = self._a, self._x
            ib = iw / a
            sums = _exp_tail(a * t[tailed], self._n0, np.append(ib, (-x, x)))
            s_ib = sums[:, :-2]
            # sum_b r_b S_b over the common denominator (x + i beta)(x - i beta)
            h_plus, h_minus = (sums[:, -2:-1] + sums[:, -1:]) / 2, (sums[:, -2:-1] - sums[:, -1:]) / 2
            out[tailed] += (2 * self.gamma0 * self.temperature * self.cutoff**2 / a**2
                            * (ib * (s_ib - h_plus) + x * h_minus) / (x * x - ib * ib))
        p = self.cutoff + iw
        decay, e = self._pair_factors(self.cutoff, t)
        d = self._d * decay[:, None]  # times e^{-s t} is e^{-Lam t}
        return out + d * (np.exp(-self._shift * t)[:, None] / p + e[:, None]) / (p - self._delta)

    def coefficient_integral(self, t: np.ndarray, w: np.ndarray):
        """Gap-pair tables at a 1-D array of times t > 0, one time at a time: K(t) runs to
        _MATSUBARA_TERMS at small t, so a stacked form would hold nt (k, K) term tables at
        once, while this one holds one time's.  Each is _table's."""
        table, err = np.empty((t.size, w.size, w.size), dtype=complex), np.empty(t.size)
        for i, ti in enumerate(t.tolist()):
            table[i], err[i] = self._table(ti, w)
        return table, err

    def _table(self, t: float, w: np.ndarray):
        """Gap-pair table in closed form: the first K table terms and the merged
        pair, -d [E(-q, t)/p + int_0^t e^{-q tau} E(delta, tau) dtau] / (p - delta)
        with p = Lam + ig, q = Lam - ih, exactly.  Past K, e^{-z_k t} is dropped
        (the error bound) and X_k = c_k / ((z_k + ig)(z_k - ih)) is summed by its
        expansion in x = 1/k, a = 2 pi T, in Hurwitz zetas zeta(3 + j, K + 1):
        X_k = (2 gamma0 T Lam^2 / a^3) x^3 / ((1 - (Lam/a)^2 x^2)(1 + i(g/a) x)(1 - i(h/a) x)).
        K is at least 64 max(Lam, |w|) / a, where 12 terms of the series reach
        round-off, and ln(1/eps) / (a t), at most _MATSUBARA_TERMS: this is the one
        table that runs past the head.  No step divides by nu.
        """
        lam, a = self.cutoff, self._a
        r = max(lam, float(np.max(np.abs(w)))) / a
        # Past K(t) = ln(1/eps) / (a t), e^{-nu_k t} <= eps e^{-a t (k - K)}, so the dropped
        # e^{-z_k t} terms are at most eps max_{k>K} |X_k| / (e^{a t} - 1): a few eps of the
        # table.  The cap at _MATSUBARA_TERMS breaks that bound for t < ln(1/eps) / (a
        # _MATSUBARA_TERMS), and err counts those terms.  K >= ceil(64 x) >= k* keeps the pair's
        # zero slot out of the tail.  c holds c0 and Matsubara terms 1 .. k-1 (K = k - 1).
        k = math.ceil(min(_MATSUBARA_TERMS, max(_LOG_1_EPS / (a * t), 64 * r))) + 1
        c, z = self.terms(k)
        iw = 1j * w[:, None]
        pg, qh = lam + iw, lam - iw.T
        pair = self._pair_integral(qh, t) - self._d * np.expm1(-qh * t) / (qh * pg)
        table = _exp_sum_table(c, z, np.array([t]), w, self.on_axis(w))[0][0] - pair / (pg - self._delta)
        # 1/((1 + i(g/a) x)(1 - i(h/a) x)) = sum_j x^j sum_{p+q=j} (-ig/a)^p (ih/a)^q
        n = 12
        gp = (-iw / a) ** np.arange(n)
        hq = (iw / a) ** np.arange(n)
        d = np.zeros((w.size, w.size, n), dtype=complex)
        for p in range(n):
            d[:, :, p:] += gp[:, None, p, None] * hq[None, :, :n - p]
        for j in range(2, n):  # times 1/(1 - (Lam/a)^2 x^2): f_j = e_j + (Lam/a)^2 f_{j-2}
            d[:, :, j] += (lam / a) ** 2 * d[:, :, j - 2]
        tail_c = 2 * self.gamma0 * self.temperature * lam**2 / a**3
        zetas = special.zeta(3 + np.arange(n), k)
        table -= tail_c * (d @ zetas)
        # dropped X_k e^{(ih - z_k) t}, k >= k: |X_k| <= (tail_c / k^3) / (1 - (Lam / nu_k)^2),
        # nu_k > Lam; and the series past x^n: |d_j| <= (j + 1)^2 r^j
        rho = r / k
        err = tail_c * zetas[0] * (
            np.exp(-a * k * t) / (1 - (lam / (a * k)) ** 2)
            + (np.inf if rho >= 0.5 else (n + 1) ** 2 * rho**n / (1 - rho) ** 3))
        return table, err


@dataclass(frozen=True)
class ThermalLorentz(BathModel):
    """Channel-diagonal thermal bath with Lorentzian damping kernel."""

    gamma0: np.ndarray
    cutoff: np.ndarray
    temperature: np.ndarray
    n_channels: int = 1
    _impl: list = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_channels
        g0 = _as_channel_array(self.gamma0, n, "gamma0")
        lam = _as_channel_array(self.cutoff, n, "cutoff")
        T = _as_channel_array(self.temperature, n, "temperature")
        if np.any(lam <= 0):
            raise ValueError("cutoff must be positive")
        if np.any(g0 < 0) or np.any(T < 0):
            raise ValueError("gamma0 and temperature must be non-negative")
        impl = [
            _ThermalChannel(g0[i], lam[i], T[i]) if T[i] > 0
            else _ThermalChannelT0(g0[i], lam[i])
            for i in range(n)
        ]
        for attr, value in (("gamma0", g0), ("cutoff", lam), ("temperature", T), ("_impl", impl)):
            object.__setattr__(self, attr, value)

    @property
    def channels(self) -> int:
        return self.n_channels

    def is_thermal(self) -> bool:
        return True

    def _diag(self, values) -> np.ndarray:
        """Channel-diagonal (..., n, n) from per-channel arrays of values of any shape."""
        vals = np.asarray(values)
        n = self.n_channels
        out = np.zeros(vals.shape[1:] + (n * n,), dtype=complex)
        out[..., :: n + 1] = vals.transpose(tuple(range(1, vals.ndim)) + (0,))
        return out.reshape(vals.shape[1:] + (n, n))

    def _alpha_time(self, t: np.ndarray) -> np.ndarray:
        return self._diag([ch.alpha_time(t) for ch in self._impl])

    def _alpha_spectrum(self, w: np.ndarray) -> np.ndarray:
        return self._diag([ch.spectrum(w) for ch in self._impl])

    def _laplace(self, s: np.ndarray) -> np.ndarray:
        return self._diag([ch.laplace(s) for ch in self._impl])

    def _coefficient_stationary(self, w: np.ndarray) -> np.ndarray:
        return self._diag([ch.on_axis(w) for ch in self._impl])

    def _coefficient_full(self, t: np.ndarray, w: np.ndarray) -> np.ndarray:
        return self._diag([ch.coefficient_full(t, w) for ch in self._impl])

    def _coefficient_integral(self, t: np.ndarray, w: np.ndarray):
        tables, errs = zip(*(ch.coefficient_integral(t, w) for ch in self._impl))
        return self._diag(tables), np.maximum.reduce(errs)

    def _gamma_spectrum(self, w: np.ndarray) -> np.ndarray:
        return self._diag([ch.gamma_tilde(w) for ch in self._impl])


# ---------------------------------------------------------------------------
# tabulated correlation data
# ---------------------------------------------------------------------------

def _fit_exponentials(times: np.ndarray, y: np.ndarray):
    """Rates z (K,) and weights c (K, m), y(t_j) = sum_k c_k e^{-z_k t_j}, for samples y (nt, m)
    on a uniform grid by ESPRIT (Hua & Sarkar 1990): the leading left singular vectors of the
    block-Hankel matrix of the even samples shift by e^{-2 z_k dt}.  The rank with no growing
    rate whose least-squares weights best predict the odd samples wins; ValueError when it
    misses them by more than _FIT_TOL of max|y|.  All-zero samples have no terms."""
    scale = np.max(np.abs(y))
    if scale == 0:
        return np.zeros((0, y.shape[1]), dtype=complex), np.zeros(0)
    even, odd = y[::2], y[1::2]
    rows = min(_FIT_ROWS, even.shape[0] // 2 + 1)
    hankel = np.lib.stride_tricks.sliding_window_view(even, rows, axis=0)
    u, sv, _ = np.linalg.svd(hankel.transpose(2, 0, 1).reshape(rows, -1), full_matrices=False)
    best = (np.inf, None, None)
    for r in range(1, min(rows - 1, int(np.sum(sv > _FIT_CUT * sv[0]))) + 1):
        shift = np.linalg.lstsq(u[:-1, :r], u[1:, :r], rcond=None)[0]
        with np.errstate(divide="ignore"):
            z = -np.log(np.linalg.eigvals(shift)) / (2 * times[1])
        z = np.where(np.abs(z.real) * times[-1] <= _FIT_UNDAMPED, 1j * z.imag, z)
        if not np.isfinite(z).all() or np.any(z.real < 0):
            continue
        c = np.linalg.lstsq(np.exp(-np.outer(times[::2], z)), even, rcond=None)[0]
        res = np.max(np.abs(np.exp(-np.outer(times[1::2], z)) @ c - odd)) / scale
        if res < best[0]:
            best = (res, c, z)
    if not best[0] <= _FIT_TOL:
        raise ValueError(f"tabulated correlation: the best exponential fit misses the held-out "
                         f"samples by {best[0]:.3g} of max|alpha|, above the tolerance {_FIT_TOL:g}")
    return best[1], best[2]


class Tabulated(_ExponentialSum):
    """Correlation samples alpha_{nm}(t_k) on a uniform grid starting at 0, fitted once
    to an exponential sum (_fit_exponentials) and evaluated as that sum; alpha_time,
    coefficient_full and coefficient_integral stay within the grid."""

    def __init__(self, times: np.ndarray, samples: np.ndarray):
        times = _finite(times, "tabulated grid")
        samples = _finite(samples, "tabulated samples", complex)
        if samples.ndim == 1:
            samples = samples[:, None, None]
        if times.ndim != 1 or not times.size or times[0] != 0.0:
            raise ValueError("tabulated grid must be 1-D and start at t = 0")
        dt = np.diff(times)
        if times.size < _FIT_MIN_POINTS or dt[0] <= 0 or np.max(np.abs(dt - dt[0])) > 1e-9 * dt[0]:
            raise ValueError(f"tabulated grid must be increasing and uniform with >= "
                             f"{_FIT_MIN_POINTS} points (the exponential fit needs them)")
        if samples.ndim != 3 or samples.shape[0] != times.size or samples.shape[1] != samples.shape[2]:
            raise ValueError(f"samples must have shape ({times.size},) or ({times.size}, n, n), "
                             f"got {samples.shape}")
        self.times, self.samples = times, samples
        self._c, self._z = _fit_exponentials(times, samples.reshape(times.size, -1))
        self._undamped = bool(np.any(self._z.real == 0))

    def _on_grid(self, t: np.ndarray) -> np.ndarray:
        """t, checked against the grid's end and clipped to it."""
        if t.max() > self.times[-1] * (1 + 1e-12):
            raise ValueError(f"query t = {t.max()} outside tabulated grid [0, {self.times[-1]}]")
        return np.minimum(t, self.times[-1])

    def _alpha_time(self, t: np.ndarray) -> np.ndarray:
        return super()._alpha_time(self._on_grid(t))

    def _coefficient_full(self, t: np.ndarray, w: np.ndarray) -> np.ndarray:
        return super()._coefficient_full(self._on_grid(t), w)

    def _coefficient_integral(self, t: np.ndarray, w: np.ndarray):
        return super()._coefficient_integral(self._on_grid(t), w)

    # -- CSV round-trip ------------------------------------------------------

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            write_matrix_csv(fh, self.times, self.samples, "alpha")

    @classmethod
    def from_csv(cls, path) -> "Tabulated":
        return cls(*read_matrix_csv(path, "alpha"))


# ---------------------------------------------------------------------------
# kernel diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelTriple:
    """nu~, mu~, gamma~ on a frequency grid, each with shape (nw, n, n)."""

    wgrid: np.ndarray
    nu: np.ndarray
    mu: np.ndarray
    gamma: np.ndarray


def kernels(b: BathModel, wgrid) -> KernelTriple:
    """Real kernel decomposition in the frequency domain.

    nu~(w) = (alpha~(w) + conj(alpha~(-w)))/2,
    mu~(w) = (alpha~(w) - conj(alpha~(-w)))/2i,  gamma~(w) = mu~(w)/(iw).
    """
    wgrid = np.atleast_1d(np.asarray(wgrid, dtype=float))
    ap, am = b.alpha_spectrum(wgrid), np.conj(b.alpha_spectrum(-wgrid))
    return KernelTriple(wgrid, (ap + am) / 2, (ap - am) / 2j, b.gamma_spectrum(wgrid))


def kms_residual(b: BathModel, wgrid) -> float:
    """Max residual of alpha~(+w) = e^{-x} conj(alpha~(-w)), x = w/T (x = 0 at
    w = 0), over the grid, relative to the largest |alpha~(w)|.  Where x > 700
    (every w > 0 at T = 0) alpha~(w) is compared with 0, where x < -700 the
    Boltzmann factor overflows and the frequency is skipped.

    A thermal bath is channel-diagonal, and each diagonal entry is checked at
    its own channel's temperature.  Thermal models pass within roundoff; other
    variants get an informative (generally nonzero) number from the whole
    matrix at T = 1.
    """
    wgrid = np.atleast_1d(np.asarray(wgrid, dtype=float))
    ap = b.alpha_spectrum(wgrid).reshape(wgrid.size, -1)
    am = np.conj(b.alpha_spectrum(-wgrid)).reshape(wgrid.size, -1)
    entries = ([([i * (b.channels + 1)], T) for i, T in enumerate(b.temperature)]
               if b.is_thermal() else [(np.s_[:], 1.0)])
    res = 0.0
    for cols, T in entries:
        with np.errstate(divide="ignore", invalid="ignore"):  # T = 0: x = +-inf
            x = np.where(wgrid == 0, 0.0, wgrid / T)[:, None]
        want = np.select([x > 700, x < -700], [0.0, ap[:, cols]],
                         am[:, cols] * np.exp(-np.clip(x, -700, 700)))
        res = max(res, float(np.max(np.abs(ap[:, cols] - want))))
    return res / max(float(np.max(np.abs(ap))), 1e-300)


def fdi_check(trip: KernelTriple) -> float:
    """Fluctuation-dissipation inequality: min eig(nu~ -+ w gamma~) over the
    triple's frequency grid, from one stacked eigvalsh."""
    w = trip.wgrid[:, None, None]
    nuh, gh = herm_part(trip.nu), herm_part(trip.gamma)
    lam = np.linalg.eigvalsh(np.concatenate([nuh - w * gh, nuh + w * gh]))[:, 0]
    return float(lam.min(initial=np.inf))
