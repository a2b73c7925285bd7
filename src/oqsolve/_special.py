"""The special functions of the thermal-bath closed forms, on numpy alone.

Each takes the domain its callers in bath.py need and keeps double precision
there, vectorized over arrays (no loop per element):

* digamma: real scalars on a math path, complex arrays elsewhere; ten steps
  of the recurrence (DLMF 5.5.2), then the Stirling series (DLMF 5.11.2),
  and reflection (DLMF 5.5.4) for Re z < 1/2;
* exp1, exp1_scaled: E1(z) and e^z E1(z) on Re z >= 0; the power series
  (DLMF 6.6.2) for |z| <= 1, else a 50-node trapezoid rule for the Stieltjes
  integral e^z E1(z) = int_0^inf e^{-t} / (z + t) dt (DLMF 6.7.1).  The
  continued fraction of that integral (DLMF 6.9) needs 50 to 160 levels to
  reach round-off for 1 <= |z| < 5, one numpy call per level;
* expi: Ei(x) for real 0 < x <= 40 by its power series (DLMF 6.6.1);
* log1p: complex log(1 + z), accurate at small |z|;
* zeta: the Hurwitz zeta(s, k) for real s > 1 and integer k >= 1 by
  Euler-Maclaurin;
* BERNOULLI: B_0 .. B_20.

An entry of an array result does not depend on the other entries, to the
bit: every row of terms has a fixed length and is summed by one reduction
along it (mostly np.vecdot), so a stacked call and single points agree
exactly.  Small calls
cost a few numpy calls each, so the constants have the dtype of the terms they
meet (no casting), and the rule runs over blocks of _E1_BLOCK points, whose
temporaries stay small enough to be reused rather than freshly mapped.
"""

from __future__ import annotations

import math

import numpy as np

BERNOULLI = np.array([1, -1 / 2, 1 / 6, 0, -1 / 30, 0, 1 / 42, 0, -1 / 30, 0, 5 / 66, 0,
                      -691 / 2730, 0, 7 / 6, 0, -3617 / 510, 0, 43867 / 798, 0, -174611 / 330])
# B_2j / (2j)!, j = 1 .. 10
_B_EVEN_OVER_FACTORIAL = BERNOULLI[2::2] / [math.factorial(n) for n in range(2, 21, 2)]

# digamma: psi(w) = psi(w + 10) - sum_{j < 10} 1 / (w + j), and at W = w + 10 the Stirling
# series ln W - 1 / 2W - sum_j B_2j / (2j W^2j), j = 1 .. 8, whose first dropped term is
# below 4e-18 at |W| >= 10: one row per point of the 19 terms (w + offset)^power, weighed
_PSI_SHIFT = 10
_PSI_STIRLING = BERNOULLI[2:17:2] / np.arange(2, 17, 2)
_PSI_STIRLING_REVERSED = _PSI_STIRLING[::-1].tolist()
_PSI_OFFSETS = np.r_[np.arange(_PSI_SHIFT), np.full(9, _PSI_SHIFT)].astype(complex)
_PSI_POWERS = np.r_[np.full(_PSI_SHIFT + 1, -1), -np.arange(2, 17, 2)].astype(complex)
_PSI_WEIGHTS = np.r_[np.ones(_PSI_SHIFT), 0.5, _PSI_STIRLING].astype(complex)

# E1(z) = -gamma - ln z - sum_k (-z)^k / (k k!), k = 1 .. 18: 1 / (18 * 18!) < 1e-17; the
# terms are the running products of -z / k, weighed by 1 / k
_E1_SERIES_RADIUS = 1.0
_E1_INV_K = (1 / np.arange(1.0, 19.0)).astype(complex)
# Ei power series, k = 1 .. 129: past k = e x + 20 the terms are below 1e-17 of the sum
_EI_INV_K = 1 / np.arange(1.0, 130.0)


def _stieltjes_rule():
    """Nodes and weights of int_0^inf e^{-t} f(t) dt ~ sum_i w_i f(t_i): the trapezoid rule
    of step 0.16 on u in [-4, 3.8] after t = exp(u - e^{-u}), which decays doubly
    exponentially at both ends.  For f = 1/(z + t) it holds the integral to about 5e-16
    for every |z| >= 1 with Re z >= 0 (checked against mpmath); the weights are scaled to
    sum to 1, the integral of e^{-t}."""
    u = np.arange(-4.0, 3.85, 0.16)
    e = np.exp(-u)
    t = np.exp(u - e)
    w = np.exp(-t) * t * (1 + e)
    return t.astype(complex), (w / w.sum()).astype(complex)


_E1_NODES, _E1_WEIGHTS = _stieltjes_rule()
_E1_BLOCK = 64  # points: 64 x 50 complex terms are 51 kB

# Hurwitz zeta: terms below _ZETA_SHIFT are summed, the rest by Euler-Maclaurin to B_20
_ZETA_SHIFT = 40


def _digamma_real(x: float) -> float:
    if x < 0.5:
        return _digamma_real(1.0 - x) - math.pi / math.tan(math.pi * (x - round(x)))
    shift = 0.0
    for j in range(_PSI_SHIFT):
        shift += 1.0 / (x + j)
    x += _PSI_SHIFT
    r = 1.0 / (x * x)
    series = 0.0
    for c in _PSI_STIRLING_REVERSED:
        series = (series + c) * r
    return math.log(x) - 0.5 / x - series - shift


def digamma(z):
    """psi(z) = Gamma'(z) / Gamma(z); inf or nan at the poles z = 0, -1, -2, ....  A real
    scalar takes a math path and returns a float; anything else returns a complex array."""
    if isinstance(z, (float, int, np.floating, np.integer)):
        return _digamma_real(float(z))
    z = np.asarray(z, dtype=complex)
    reflect = z.real < 0.5
    if not reflect.any():
        x = z[..., None] + _PSI_OFFSETS
        return np.log(x[..., -1]) - np.vecdot(_PSI_WEIGHTS, x**_PSI_POWERS)
    psi = digamma(np.where(reflect, 1 - z, z))
    with np.errstate(divide="ignore", invalid="ignore"):  # cot is not read where Re z >= 1/2
        return np.where(reflect, psi - np.pi / np.tan(np.pi * (z - np.round(z.real))), psi)


def _exp1_series(z):
    terms = np.cumprod(z[..., None] * -_E1_INV_K, -1)  # (-z)^k / k!
    return -np.euler_gamma - np.log(z) - np.vecdot(_E1_INV_K, terms)


def _exp1_rule(z):
    """e^z E1(z) by the rule."""
    if z.size <= _E1_BLOCK:
        return np.vecdot(_E1_WEIGHTS, 1 / (z[..., None] + _E1_NODES))
    flat = z.reshape(-1)
    return np.concatenate([_exp1_rule(flat[i:i + _E1_BLOCK])
                           for i in range(0, flat.size, _E1_BLOCK)]).reshape(z.shape)


def _exp1(z, scaled: bool):
    """The series where |z| <= 1, else the rule; a call whose points all lie on one side
    (most calls) makes no masked copies.  Complex arithmetic throughout; a real z gets
    the real part."""
    z = np.asarray(z)
    zc = z.astype(complex, copy=False)
    size = np.abs(zc)
    if size.max(initial=0.0) <= _E1_SERIES_RADIUS:
        out = _exp1_series(zc) * np.exp(zc) if scaled else _exp1_series(zc)
    elif size.min() > _E1_SERIES_RADIUS:
        out = _exp1_rule(zc) if scaled else _exp1_rule(zc) * np.exp(-zc)
    else:
        small = size <= _E1_SERIES_RADIUS
        out = _exp1_rule(zc)
        if not scaled:
            out *= np.exp(-zc)
        e1 = _exp1_series(zc[small])
        out[small] = e1 * np.exp(zc[small]) if scaled else e1
    return out if z.dtype.kind == "c" else out.real


def exp1(z):
    """E1(z) = int_1^inf e^{-zt} / t dt on Re z >= 0 (principal branch).  E1(0) = inf,
    with numpy's divide-by-zero warning from log(0)."""
    return _exp1(z, scaled=False)


def exp1_scaled(z):
    """e^z E1(z) on Re z >= 0, without overflow at large Re z."""
    return _exp1(z, scaled=True)


def expi(x):
    """Ei(x) = gamma + ln x + sum_k x^k / (k k!) for real 0 < x <= 40; the terms are
    positive."""
    x = np.asarray(x, dtype=float)
    terms = np.cumprod(x[..., None] * _EI_INV_K, -1)  # x^k / k!
    return np.euler_gamma + np.log(x) + np.vecdot(_EI_INV_K, terms)


def log1p(z):
    """log(1 + z) for complex z, accurate in both parts at small |z|, where np.log1p on
    a complex argument forms 1 + z first: ln|1 + z| = log1p(x (2 + x) + y^2) / 2 and
    arg(1 + z) = atan2(y, 1 + x)."""
    z = np.asarray(z, dtype=complex)
    x, y = z.real, z.imag
    return 0.5 * np.log1p(x * (2 + x) + y * y) + 1j * np.arctan2(y, 1 + x)


def zeta(s, k: int):
    """Hurwitz zeta(s, k) = sum_{n >= 0} (k + n)^-s for real s > 1 (scalar or array) and an
    integer k >= 1: the terms below a = max(k, 40) directly, then Euler-Maclaurin at a,
    a^{1-s} / (s - 1) + a^-s / 2 + sum_j B_2j / (2j)! (s)_{2j-1} a^{-s-2j+1}, j = 1 .. 10."""
    s = np.asarray(s, dtype=float)
    a = max(int(k), _ZETA_SHIFT)
    # (s)_{2j-1} / a^{2j-1}: the rising factorials of odd order over the matching powers
    rising = np.cumprod((s[..., None] + np.arange(19.0)) / a, axis=-1)[..., ::2]
    tail = a**-s * (a / (s - 1) + 0.5 + np.vecdot(_B_EVEN_OVER_FACTORIAL, rising))
    if k >= a:
        return tail
    return (np.arange(float(k), a) ** -s[..., None]).sum(-1) + tail
