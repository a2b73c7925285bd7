import functools
import itertools
import os
import tempfile
import warnings

import mpmath
import numpy as np
import pytest

from oqsolve import bath, oracle

import support


def thermal():
    return bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.25)


def thermal_t0():
    return bath.ThermalLorentz(gamma0=0.2, cutoff=3.0, temperature=0.0)


class TestThermalLorentz:
    # frozen from an independent route: inverse Fourier transform of the
    # spectrum by oscillatory (QAWF) quadrature
    ALPHA_REF = {
        0.1: 0.26407261595324577 - 0.7581633246452781j,
        0.5: -0.10396987818743003 - 0.10260624826558994j,
        2.0: -0.004331063261002539 - 5.674992225191477e-05j,
    }
    # frozen from the infinite Matsubara sum at 30 digits
    LAPLACE_REF = {
        0.3: 0.03898906378114611 - 0.2358490566037736j,
        1.0 + 2.0j: 0.021031501407010683 - 0.16408500053027722j,
    }

    def test_alpha_time_against_quadrature_oracle(self):
        b = thermal()
        for t, ref in self.ALPHA_REF.items():
            assert abs(b.alpha_time(t)[0, 0] - ref) < 1e-9

    def test_imaginary_part_closed_form(self):
        # Im alpha(t) = -(gamma0 Lambda^2 / 2) e^{-Lambda t}, temperature-free
        for temp in (0.25, 1.0, 7.3):
            b = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=temp)
            for t in (0.05, 0.4, 1.3):
                want = -0.5 * 0.1 * 25.0 * np.exp(-5.0 * t)
                assert b.alpha_time(t)[0, 0].imag == pytest.approx(want, rel=1e-12)

    def test_negative_time_hermiticity(self):
        b = thermal()
        assert b.alpha_time(-0.7)[0, 0] == np.conj(b.alpha_time(0.7)[0, 0])

    def test_laplace_against_matsubara_oracle(self):
        b = thermal()
        for s, ref in self.LAPLACE_REF.items():
            assert abs(b.laplace(s)[0, 0] - ref) < 1e-12

    @pytest.mark.parametrize("x", [2.9877, 2 * (1 + 1e-7), 4 * (1 - 3e-5), 0.955])
    def test_laplace_near_matsubara_cutoff_against_mpmath(self, x):
        # Lam = 2 pi T x: near an integer x the cutoff term c0 and the k = x
        # Matsubara term both diverge and cancel in the sum; the reference adds
        # the partial fractions c_k / (nu_k + s) at 30 digits, the terms up to
        # k = x + 1 one by one and the rest by nsum
        mpmath.mp.dps = 30
        g0, temp = 0.1, 0.27
        b = bath.ThermalLorentz(gamma0=g0, cutoff=2 * np.pi * temp * x, temperature=temp)
        lam, mg0, mtemp = mpmath.mpf(b.cutoff[0]), mpmath.mpf(g0), mpmath.mpf(temp)
        a = 2 * mpmath.pi * mtemp
        c0 = mg0 * lam**2 / 2 * (mpmath.cot(lam / (2 * mtemp)) - 1j)
        head = int(round(x)) + 1
        for s in (0.0, 0.3 + 0.2j, 1j, -2.5j, 2.0 - 1.0j):
            def term(k):
                return -2 * mg0 * mtemp * lam**2 * a * k / ((lam**2 - (a * k) ** 2) * (a * k + s))
            total = c0 / (lam + s) + mpmath.fsum(term(k) for k in range(1, head + 1))
            ref = complex(total + mpmath.nsum(term, [head + 1, mpmath.inf]))
            assert abs(b.laplace(s)[0, 0] - ref) <= 1e-13 * abs(ref)

    def test_stationary_coefficient_against_oracle(self):
        # frozen: infinite Matsubara sum at s = 1e-12 + i
        b = thermal()
        ref = 0.0017939769580952501 - 0.19869238834799166j
        assert abs(b.coefficient_stationary(1.0)[0, 0] - ref) < 1e-9

    def test_full_coefficient_against_quadrature_oracle(self):
        # frozen: direct quadrature of alpha(tau) e^{-i w tau} over [0, 1.5]
        b = thermal()
        ref = -0.0003734997619451196 - 0.2034521173514798j
        assert abs(b.coefficient_full(1.5, 1.0)[0, 0] - ref) < 1e-8

    def test_full_coefficient_reaches_stationary(self):
        b = thermal()
        late = b.coefficient_full(200.0, 1.3)[0, 0]
        stat = b.coefficient_stationary(1.3)[0, 0]
        assert abs(late - stat) < 1e-10

    def test_full_coefficient_zero_time(self):
        assert thermal().coefficient_full(0.0, 2.0)[0, 0] == 0.0

    def test_zero_frequency_real_part_is_gamma0_times_temperature(self):
        b = thermal()
        a = b.coefficient_stationary(0.0)[0, 0]
        assert a.real == pytest.approx(0.1 * 0.25, rel=1e-10)

    def test_spectrum_thermal_form(self):
        b = thermal()
        for w in (0.5, -1.7, 3.0):
            gt = 0.1 * 25.0 / (25.0 + w * w)
            want = gt * w * (1.0 / np.tanh(w / 0.5) - 1.0)
            assert b.alpha_spectrum(w)[0, 0] == pytest.approx(want, rel=1e-10)

    def test_alpha_time_zero_is_log_divergent(self):
        with pytest.raises(ValueError, match="divergent"):
            thermal().alpha_time(0.0)

    def test_multichannel_diagonal(self):
        b = bath.ThermalLorentz(
            gamma0=[0.1, 0.3], cutoff=[5.0, 2.0], temperature=[0.25, 0.25],
            n_channels=2,
        )
        a = b.alpha_time(0.4)
        assert a.shape == (2, 2)
        assert a[0, 1] == 0 and a[1, 0] == 0
        single = bath.ThermalLorentz(gamma0=0.3, cutoff=2.0, temperature=0.25)
        assert a[1, 1] == pytest.approx(single.alpha_time(0.4)[0, 0], rel=1e-12)


class TestDetailedBalanceAtLowTemperature:
    # He A(w) is alpha~(w)/2 from the expm1 spectrum, whose ratio holds KMS to round-off;
    # the digamma form, a difference of O(1) terms, lost it as e^{w/T} grew (3e-8 at T = 0.05)
    W = np.array([0.5, 1.0, 2.0])

    @pytest.mark.parametrize("temp", [0.25, 0.1, 0.05, 0.03, 0.02])
    def test_stationary_ratio_is_boltzmann(self, temp):
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=temp)
        a = b.coefficient_stationary(np.concatenate([self.W, -self.W]))[:, 0, 0].real
        ratio = a[:3] / a[3:]
        assert np.max(np.abs(ratio / np.exp(-self.W / temp) - 1)) <= 1e-13

    @pytest.mark.parametrize("temp", [0.05, 0.02])
    def test_full_coefficient_keeps_the_ratio(self, temp):
        # at t = 1500 the Matsubara terms are below e^{-188}: A(t; w) is A(w)
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=temp)
        a = b.coefficient_full(1500.0, np.concatenate([self.W, -self.W]))[:, 0, 0].real
        assert np.max(np.abs(a[:3] / a[3:] / np.exp(-self.W / temp) - 1)) <= 1e-13

    def test_lamb_shift_is_the_digamma_form(self):
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.05)
        w = np.concatenate([self.W, -self.W, [0.0]])
        a = b.coefficient_stationary(w)[:, 0, 0]
        assert np.array_equal(a.imag, b.laplace(1j * w)[:, 0, 0].imag)
        assert np.array_equal(a.real, b.alpha_spectrum(w)[:, 0, 0].real / 2)


@pytest.mark.parametrize("make", [thermal, thermal_t0], ids=["T>0", "T=0"])
def test_coefficient_full_gap_memo_never_stale(make):
    # each channel keeps alpha^(iw) for the last gap array; a call with other
    # gaps, or the same bytes in another shape, must not read it
    w1, w2 = np.array([-1.3, 0.0, 0.4, 2.0]), np.array([-0.5, 0.7, 3.1])
    b = make()
    for t, w in ((0.7, w1), (0.7, w2), (2.5, w1), (0.7, w1[3:]), (0.7, 2.0), (9.0, w2)):
        got, want = b.coefficient_full(t, w), make().coefficient_full(t, w)
        assert type(got) is type(want) and got.shape == want.shape
        assert np.array_equal(got, want)


def _channel_times(ch):
    """Times deep inside the T > 0 channel's closed-form tail, on both sides of where it
    stops (2 pi T t n0 = ln(1/eps)) and past it; shuffled, with t = 0."""
    stop = bath._LOG_1_EPS / (ch._a * ch._n0)
    t = np.array([0.0, 1e-7, 1e-5, 0.3 * stop, stop * (1 - 1e-3), stop * (1 + 1e-3),
                  2.2 * stop, 0.05, 0.5, 3.0, 20.0])
    return np.random.default_rng(5).permutation(t)


class TestTimeArrays:
    """coefficient_full at a 1-D array of times against one call per time, to
    1e-15 of |A(inf; w)| (or of the largest |A| where there is no t -> inf limit)."""

    W = np.array([-3.0, -1.0, 0.0, 0.4, 1.0, 3.0])

    @staticmethod
    def check(b, times, w, scale):
        got = b.coefficient_full(times, w)
        want = np.array([b.coefficient_full(float(t), w) for t in times])
        assert got.shape == (times.size, w.size, b.channels, b.channels)
        assert np.max(np.abs(got - want)) <= 1e-15 * scale
        # a scalar w gives the (nt, n, n) column
        assert np.max(np.abs(b.coefficient_full(times, float(w[1])) - got[:, 1])) <= 1e-15 * scale

    @pytest.mark.parametrize("temp", [0.05, 0.25, 2.0])
    @pytest.mark.parametrize("cutoff", [1.0, 5.0])
    def test_thermal_across_tail_switch(self, temp, cutoff):
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=cutoff, temperature=temp)
        times = _channel_times(b._impl[0])
        scale = np.max(np.abs(b.coefficient_stationary(self.W)))
        self.check(b, times, self.W, scale)

    def test_zero_temperature_across_asymptotic_switch(self):
        b = thermal_t0()
        # x = Lam t passes 40, where e^x E1(x) and e^{-x} Ei(x) switch to their series
        times = np.array([0.0, 1e-4, 0.5, 40.0 / 3.0 * (1 - 1e-9), 40.0 / 3.0 * (1 + 1e-9), 30.0])
        self.check(b, times, self.W, np.max(np.abs(b.coefficient_stationary(self.W))))

    def test_two_channels_mixed_temperature(self):
        b = bath.ThermalLorentz(gamma0=[0.1, 0.2], cutoff=[5.0, 1.0], temperature=[0.0, 0.3],
                                n_channels=2)
        times = _channel_times(b._impl[1])
        self.check(b, times, self.W, np.max(np.abs(b.coefficient_stationary(self.W))))

    def test_exponential_sums(self):
        ou = bath.ExponentialOU(c=[[0.3, 0.1], [0.1, 0.2]], lam=1.3)
        times = np.array([0.0, 1e-9, 0.2, 1.7, 40.0])
        self.check(ou, times, self.W, np.max(np.abs(ou.coefficient_stationary(self.W))))
        # undamped terms at environment frequencies +-1 meet z + iw = 0 at w = -+1
        undamped = bath.ExponentialOU(c=[[[0.2]], [[0.1]], [[0.05]]], lam=[1j, -1j, 0.0])
        got = undamped.coefficient_full(times, self.W)
        self.check(undamped, times, self.W, np.max(np.abs(got)))
        assert got[2, 1, 0, 0] == pytest.approx(0.2 * 0.2 + 0.1 * (np.exp(0.4j) - 1) / 2j
                                               + 0.05 * (np.exp(0.2j) - 1) / 1j, rel=1e-14)

    def test_white_noise_vanishes_only_at_zero(self):
        b = bath.WhiteNoise(c=[[0.4, 0.1], [0.1, 0.3]])
        times = np.array([0.0, 1e-12, 2.0])
        got = b.coefficient_full(times, self.W)
        self.check(b, times, self.W, 0.0)
        assert not got[0].any() and np.array_equal(got[2, 3], b.c / 2)

    def test_tabulated(self):
        t = np.linspace(0.0, 10.0, 201)
        b = bath.Tabulated(t, (0.3 * np.exp(-1.1 * t) * np.exp(-0.5j * t))[:, None, None])
        times = np.array([0.0, 0.03, 2.5, 10.0])
        self.check(b, times, self.W, np.max(np.abs(b.coefficient_full(10.0, self.W))))


def test_matsubara_head_agrees_with_longer_tables():
    # alpha_time and coefficient_full read the n0 + 1 head entries only, so calls at small
    # t leave no longer table on the channel; a longer table from terms(k), as
    # coefficient_integral builds, agrees with the head entry for entry
    b = thermal()
    ch = b._impl[0]
    head = [x.copy() for x in (ch._c, ch._z)]
    assert head[0].size == head[1].size == ch._n0 + 1
    b.alpha_time(1e-7)
    b.coefficient_full(1e-7, 1.0)
    b.coefficient_full(np.array([1e-7, 1e-5, 0.5]), np.array([-1.0, 0.0, 1.0]))
    b.coefficient_integral(1e-7, np.array([-1.0, 0.0, 1.0]))
    assert all(np.array_equal(x, y) for x, y in zip((ch._c, ch._z), head))
    for k in (ch._n0 + 2, 3001, bath._MATSUBARA_TERMS + 1):
        longer = ch.terms(k)
        assert longer[0].size == longer[1].size == k
        assert all(np.array_equal(x[:ch._n0 + 1], y) for x, y in zip(longer, head))


class TestThermalGapConstants:
    """A T > 0 channel keeps what depends on the gaps alone for the last gap array it
    was given; the tail constants from the first call with a tailed time on."""

    A = np.array([-1.0, 0.0, 1.0])
    B = np.array([-3.0, -0.4, 0.0, 0.4, 3.0])

    @staticmethod
    def channel(temp=0.25):
        return bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=temp)._impl[0]

    @pytest.mark.parametrize("temp", [0.05, 0.25, 2.0])
    def test_switching_gap_arrays_matches_fresh_channels(self, temp):
        ch = self.channel(temp)
        times = _channel_times(ch)
        for w in (self.A, self.B, self.A):
            assert np.array_equal(ch.coefficient_full(times, w),
                                  self.channel(temp).coefficient_full(times, w))

    @pytest.mark.parametrize("temp", [0.05, 0.25, 2.0])
    def test_stacked_call_across_tail_switch_matches_per_time_calls(self, temp):
        # each on a fresh channel: the stacked call builds the tail constants at once, the
        # per-time calls, latest time first, at their first tailed time
        times = np.sort(_channel_times(self.channel(temp)))[::-1]
        got = self.channel(temp).coefficient_full(times, self.B)
        ch = self.channel(temp)
        want = np.array([ch.coefficient_full(np.array([t]), self.B)[0] for t in times])
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(ch.on_axis(self.B)))

    def test_tail_constants_wait_for_a_tailed_time(self):
        # the shipped qrt's times t1 = 2 and t1 - t2 = 1.5 lie past the tail, which stops
        # at 2 pi T t n0 = ln(1/eps), t = 0.64 here
        ch = self.channel()
        assert bath._LOG_1_EPS / (ch._a * ch._n0) < 1.5
        ch.coefficient_full(np.array([2.0, 1.5]), self.A)
        assert set(ch._kept(self.A)) == {"on_axis", "head"}
        ch.coefficient_full(np.array([0.3]), self.A)
        assert set(ch._kept(self.A)) == {"on_axis", "head", "tail"}


class TestMatsubaraTruncation:
    """The time-dependent Matsubara sums keep the first n0 terms and add the rest in
    closed form; compare them with the infinite sums: the first N terms written out
    here, and the rest from mpmath's Lerch transcendent."""

    TIMES = (1e-6, 1e-5, 1e-4, 1e-3, 0.01, 0.1, 1.0, 8.0, 20.0)
    FREQS = (-3.0, -1.0, 0.0, 0.4, 1.0, 3.0)
    N = 120_000

    @classmethod
    def full_terms(cls, ch):
        g0, lam, temp = ch.gamma0, ch.cutoff, ch.temperature
        nu = 2 * np.pi * temp * np.arange(1, cls.N + 1)
        c = np.concatenate([[0j], -2 * g0 * temp * lam**2 * nu / (lam**2 - nu**2)])
        # c0 and the Matsubara terms up to k = 2 Lam / 2 pi T are ill-conditioned in the rounded
        # Lam / 2T and nu_k (at Lam = 5, T = 0.05 double rounding moves A(t; w) by 2e-14 of
        # |A(inf; w)|, and at Lam / 2 pi T = 300 by as much from the terms around k = 300), so
        # they are taken from 30-digit values
        band = int(lam / (np.pi * temp)) + 2
        with mpmath.workdps(30):
            mlam, mtemp = mpmath.mpf(lam), mpmath.mpf(temp)
            c[0] = complex(g0 * mlam**2 / 2 * (mpmath.cot(mlam / (2 * mtemp)) - 1j))
            for k in range(1, band + 1):
                nk = 2 * mpmath.pi * mtemp * k
                c[k] = float(-2 * g0 * mtemp * mlam**2 * nk / (mlam**2 - nk**2))
        return c, np.concatenate([[lam], nu])

    @classmethod
    @functools.cache
    def rest(cls, eps, b):
        """sum_{k > N} e^{-eps k} / (k + b) = e^{-eps (N + 1)} Phi(e^{-eps}, 1, N + 1 + b),
        taken as 0 past e^{-eps N} = e^{-45}."""
        if eps * cls.N > 45:
            return 0j
        with mpmath.workdps(25):  # lerchphi at 15 digits is off by 4e-11 here
            return complex(mpmath.exp(-eps * (cls.N + 1))
                           * mpmath.lerchphi(mpmath.exp(-eps), 1, cls.N + 1 + b))

    @classmethod
    def tail(cls, ch, t, w=None):
        """The Matsubara terms past N: sum_{k>N} c_k e^{-nu_k t}, or with w that sum
        weighted by 1/(nu_k + iw), from the partial fractions in k of
        c_k = (2 gamma0 T Lam^2 / a) k / (k^2 - x^2), a = 2 pi T, x = Lam / a, and
        k / ((k^2 - x^2)(k + i beta)), beta = w / a, with poles k = x, -x, -i beta."""
        a = 2 * np.pi * ch.temperature
        x, eps = ch.cutoff / a, a * t
        pre = 2 * ch.gamma0 * ch.temperature * ch.cutoff**2 / a
        if w is None:
            return pre * (cls.rest(eps, -x) + cls.rest(eps, x)) / 2
        ib = 1j * w / a
        at_ib = ib / (x * x - ib * ib) * cls.rest(eps, ib) if w else 0
        return pre / a * (cls.rest(eps, -x) / (2 * (x + ib)) - cls.rest(eps, x) / (2 * (x - ib))
                          + at_ib)

    @pytest.mark.parametrize("temp", [0.05, 0.25, 2.0])
    @pytest.mark.parametrize("cutoff", [1.0, 5.0])
    def test_coefficient_full_matches_full_sum(self, temp, cutoff):
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=cutoff, temperature=temp)
        ch = b._impl[0]
        c, z = self.full_terms(ch)
        for w in self.FREQS:
            p = z + 1j * w
            scale = abs(b.coefficient_stationary(w)[0, 0])
            for t in self.TIMES:
                rest = np.sum(c * np.exp(-z * t) / p) + self.tail(ch, t, w)
                want = b.laplace(1j * w)[0, 0] - np.exp(-1j * w * t) * rest
                got = b.coefficient_full(t, w)[0, 0]
                assert abs(got - want) <= 1e-14 * scale, (w, t)

    @pytest.mark.parametrize("temp", [0.05, 0.25, 2.0])
    @pytest.mark.parametrize("cutoff", [1.0, 5.0])
    def test_alpha_time_matches_full_sum(self, temp, cutoff):
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=cutoff, temperature=temp)
        c, z = self.full_terms(b._impl[0])
        for t in self.TIMES:
            want = np.sum(c * np.exp(-z * t)) + self.tail(b._impl[0], t)
            assert abs(b.alpha_time(t)[0, 0] - want) <= 1e-12 * abs(want), t
            assert b.alpha_time(-t)[0, 0] == np.conj(b.alpha_time(t)[0, 0])

    @pytest.mark.parametrize("temp, cutoff", [(temp, cutoff) for cutoff in (1.0, 5.0)
                                              for temp in (0.05, 0.25, 2.0)]
                             + [(5.0 / (2 * np.pi * 299.7), 5.0)])
    def test_tail_sweep_matches_full_sum(self, temp, cutoff):
        # 25 times over 2 pi T t n0 in [0.5, 8], where the closed-form tail past the n0-term
        # head is largest relative to round-off; the last channel has n0 = 332
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=cutoff, temperature=temp)
        ch = b._impl[0]
        c, z = self.full_terms(ch)
        times = np.geomspace(0.5, 8.0, 25) / (ch._a * ch._n0)
        w = np.array(self.FREQS)
        scale = np.abs(b.coefficient_stationary(w)[:, 0, 0])
        for t in times:
            rest = [np.sum(c * np.exp(-z * t) / (z + 1j * wj)) + self.tail(ch, t, wj) for wj in w]
            want = ch.laplace(1j * w) - np.exp(-1j * w * t) * np.array(rest)
            assert np.all(np.abs(b.coefficient_full(t, w)[:, 0, 0] - want) <= 1e-14 * scale), t
            alpha = np.sum(c * np.exp(-z * t)) + self.tail(ch, t)
            assert abs(b.alpha_time(t)[0, 0] - alpha) <= 1e-12 * abs(alpha), t

    @pytest.mark.parametrize("rel", [1e-9, 1e-7, 1e-5])
    def test_cutoff_near_matsubara_frequency(self, rel):
        # c0 e^{-Lam t} nearly cancels the k = 100 term; neither may be dropped alone
        temp = 0.01
        lam = 2 * np.pi * temp * 100 * (1 + rel)
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=lam, temperature=temp)
        ch = b._impl[0]
        c, z = self.full_terms(ch)
        scale = abs(b.coefficient_stationary(0.0)[0, 0])
        for t in np.linspace(36.1 / lam, 40.0 / lam, 8):
            want = b.laplace(0j)[0, 0] - np.sum(c * np.exp(-z * t) / z)
            assert abs(b.coefficient_full(t, 0.0)[0, 0] - want) <= 1e-14 * scale, t


def matsubara_ref(g0, lam, temp, times, w):
    """alpha(t), A(t; w) and the gap-pair table I(t)[a, b] of one T > 0 channel
    at each t in times, from the unmerged Matsubara sum at 60 digits (c0 and
    c_k reach 1e18 and cancel, and cot loses as many digits again).  Terms with
    e^{-z_k t} are summed one by one until they drop below e^{-40};
    sum_k c_k / (z_k + s) comes in closed
    form from the partial fractions of the Matsubara term in k,
    k / ((k^2 - x^2)(k + s/a)) = sum_j A_j / (k - r_j) with sum_j A_j = 0, so
    that sum_{k>=1} = -sum_j A_j psi(1 - r_j); the table's sum_k c_k / p_k^2 at
    h = -g is minus the derivative of that transform."""
    with mpmath.workdps(60):
        g0, lam, temp = (mpmath.mpf(v) for v in (g0, lam, temp))
        a = 2 * mpmath.pi * temp
        x = lam / a
        c0 = g0 * lam**2 / 2 * (mpmath.cot(lam / (2 * temp)) - 1j)

        def laplace(s):
            sig = s / a
            psi = (mpmath.digamma(1 - x) / (2 * (x + sig)) + mpmath.digamma(1 + x) / (2 * (sig - x))
                   - sig * mpmath.digamma(1 + sig) / (sig**2 - x**2))
            return c0 / (lam + s) - 2 * g0 * temp * lam**2 / a**2 * psi

        iw = [1j * mpmath.mpf(float(v)) for v in w]
        lap = {g: laplace(g) for g in iw + [-h for h in iw]}
        out = []
        for t in times:
            t = mpmath.mpf(t)
            decay = [(c0 * mpmath.exp(-lam * t), lam)]
            for k in range(1, int(40 / (a * t) + x) + 2):
                ck = -2 * g0 * temp * lam**2 * a * k / (lam**2 - (a * k) ** 2)
                decay.append((ck * mpmath.exp(-a * k * t), a * k))
            coeff = [lap[g] - mpmath.exp(-g * t) * mpmath.fsum(c / (z + g) for c, z in decay)
                     for g in iw]
            table = []
            for g in iw:
                for h in iw:
                    # I = alpha^(ig) E(i nu) - sum_k c_k [1 - e^{-q_k t}] / (p_k q_k),
                    # p_k = z_k + ig, q_k = z_k - ih
                    inu = g + h
                    rational = (lap[-h] - lap[g]) / inu if inu else -mpmath.diff(laplace, g)
                    geo = mpmath.exp(h * t) * mpmath.fsum(c / ((z + g) * (z - h)) for c, z in decay)
                    e_nu = mpmath.expm1(inu * t) / inu if inu else t
                    table.append(lap[g] * e_nu - rational + geo)
            out.append((complex(mpmath.fsum(c for c, _ in decay)),
                        np.array([complex(v) for v in coeff]),
                        np.array([complex(v) for v in table]).reshape(len(w), len(w))))
        return out


@pytest.mark.parametrize("k, rel", [(k, 0.0) for k in (1, 2, 3)] + [
    (k, sign * 10.0**-j) for k in (1, 2, 3) for j in range(3, 13) for sign in (1, -1)])
def test_cutoff_at_and_near_matsubara_frequency_against_mpmath(k, rel):
    # Lam = 2 pi T k (1 + rel): c0 and the k-th Matsubara term diverge like
    # 1/rel and cancel; the channel merges them, so alpha, A(t; w) (array and
    # scalar w) and the gap-pair table stay exact, at rel = 0 too
    g0, temp, times = 0.1, 0.27, (0.3, 2.0)
    lam = 2 * np.pi * temp * k * (1 + rel)
    b = bath.ThermalLorentz(gamma0=g0, cutoff=lam, temperature=temp)
    w = np.array([-1.2, 0.0, 0.5])
    scale = np.abs(b.coefficient_stationary(w)[:, 0, 0])
    for t, (alpha, coeff, table) in zip(times, matsubara_ref(g0, lam, temp, times, w)):
        assert abs(b.alpha_time(t)[0, 0] - alpha) <= 1e-12 * abs(alpha), t
        assert np.all(np.abs(b.coefficient_full(t, w)[:, 0, 0] - coeff) <= 1e-12 * scale), t
        for wj, want, sc in zip(w, coeff, scale):
            assert abs(b.coefficient_full(t, float(wj))[0, 0] - want) <= 1e-12 * sc, (t, wj)
        got = b.coefficient_integral(t, w)[0][:, :, 0, 0]
        assert np.max(np.abs(got - table)) <= 1e-12 * np.max(np.abs(table)), t


class TestMergedPairLateTime:
    """The merged pair's d e^{-pt} E(delta, t) at late times: with delta > 0, e^{-pt}
    underflows and E(delta, t) overflows past t = 709 / delta, and their literal product,
    0 inf, was NaN in alpha_time, coefficient_full and coefficient_integral."""

    # (cutoff, temperature) and the sign of delta = Lam - 2 pi T k*: the shipped channel
    # (delta = 0.288), one whose pair stays above the underflow to t = 3000, one below
    # its Matsubara frequency, and Lam = 2 pi T k* exactly
    CHANNELS = {"shipped": (5.0, 0.25, 1), "slow": (0.08, 0.01, 1), "below": (5.0, 0.05, -1),
                "at": (2 * np.pi * 0.25 * 2, 0.25, 0)}

    @pytest.mark.parametrize("name", CHANNELS)
    def test_pair_against_mpmath(self, name):
        cutoff, temp, sign = self.CHANNELS[name]
        ch = bath.ThermalLorentz(gamma0=0.1, cutoff=cutoff, temperature=temp)._impl[0]
        assert np.sign(ch._delta) == sign
        times = np.geomspace(1e-6, 3000.0, 25)
        eps = np.finfo(float).eps
        for p in (ch.cutoff, ch.cutoff + 0.7j, ch.cutoff - 2.0j):
            decay, e = ch._pair_factors(p, times)
            got = ch._d * decay * e
            with mpmath.workdps(40):
                delta = mpmath.mpf(ch._delta)
                want = [complex(ch._d * mpmath.exp(-mpmath.mpc(p) * t)
                                * (mpmath.expm1(delta * t) / delta if delta else mpmath.mpf(t)))
                        for t in times.tolist()]
            # rounding p t alone moves e^{-pt} by eps |p| t relative
            tol = (8 + 2 * abs(p) * times) * eps * np.abs(want) + 1e-300
            assert np.all(np.abs(got - want) <= tol), name

    @pytest.mark.parametrize("name", CHANNELS)
    def test_evaluators_finite_at_late_times(self, name):
        cutoff, temp, _ = self.CHANNELS[name]
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=cutoff, temperature=temp)
        w = np.array([-1.0, 0.0, 1.0])
        for t in (2500.0, 1e4):
            assert np.all(np.isfinite(b.alpha_time(t))), t
            assert np.all(np.isfinite(b.coefficient_full(t, w))), t
            assert np.all(np.isfinite(b.coefficient_integral(t, w)[0])), t
        if name == "shipped":  # every decaying term is below the underflow by t = 2500
            for t in (2500.0, 1e4, 1e6):
                assert np.array_equal(b.coefficient_full(t, w), b.coefficient_stationary(w)), t


class TestThermalZeroTemperature:
    # frozen from QAWF quadrature of the one-sided zero-temperature spectrum
    ALPHA_REF = {
        0.2: 0.11614244835478772 - 0.493930472462512j,
        1.0: -0.06660424126009884 - 0.04480836155942009j,
        4.0: -0.0041792722485245685 - 5.529725152732732e-06j,
    }

    def test_alpha_time_against_quadrature_oracle(self):
        b = thermal_t0()
        for t, ref in self.ALPHA_REF.items():
            assert abs(b.alpha_time(t)[0, 0] - ref) < 1e-9

    def test_spectrum_single_sided(self):
        b = thermal_t0()
        assert b.alpha_spectrum(2.0)[0, 0] == 0
        w = -2.0
        want = 2 * abs(w) * 0.2 * 9.0 / (9.0 + w * w)
        assert b.alpha_spectrum(w)[0, 0] == pytest.approx(want, rel=1e-12)

    def test_laplace_consistent_with_time_quadrature(self):
        from scipy import integrate

        b = thermal_t0()
        s = 0.8 + 0.3j
        re, _ = integrate.quad(
            lambda t: (b.alpha_time(t)[0, 0] * np.exp(-s * t)).real, 1e-10, 60.0,
            limit=400,
        )
        im, _ = integrate.quad(
            lambda t: (b.alpha_time(t)[0, 0] * np.exp(-s * t)).imag, 1e-10, 60.0,
            limit=400,
        )
        assert abs(b.laplace(s)[0, 0] - (re + 1j * im)) < 1e-6

    def test_vacuum_coefficient_vanishes_at_huge_cutoff_separation(self):
        # He[A(w)] -> 0 for w > 0 at zero temperature (no absorption from vacuum)
        b = thermal_t0()
        a = b.coefficient_stationary(1.5)[0, 0]
        assert abs(a + np.conj(a)) / 2 < 1e-8


def table_by_quadrature(b, t, w):
    """The gap-pair table I[a, b] = int_0^t A(tau; w_a) e^{i(w_a + w_b) tau} dtau by adaptive
    quadrature (scipy's quad_vec) of coefficient_full, to 1e-14 of the largest entry."""
    from scipy import integrate

    nu = w[:, None] + w

    def integrand(tau):
        return b.coefficient_full(tau, w)[:, None] * np.exp(1j * tau * nu)[..., None, None]

    return integrate.quad_vec(integrand, 0.0, t, epsabs=0.0, epsrel=1e-14, norm="max")[0]


@functools.lru_cache(maxsize=None)
def t0_alpha_mp(tau):
    """alpha(tau) of the T = 0 channel gamma0 0.1, Lam 5 at the working precision; cached,
    since the quadratures of t0_table_ref share their nodes."""
    return TestZeroTemperatureClosedForm.alpha_ref(tau, 0.1, 5.0)


def t0_table_ref(t, w):
    """I[a, b] = int_0^t alpha(s) e^{-i u_a s} (e^{i nu t} - e^{i nu s}) / (i nu) ds, nu = u_a + u_b
    ((t - s) for the last factor at nu = 0), on the T = 0 channel gamma0 0.1, Lam 5 at 20
    digits.  It is [e^{i nu t} A(t; u_a) - A(t; -u_b)] / (i nu), or t A(t; u_a) - int_0^t s
    alpha(s) e^{-i u_a s} ds at nu = 0, from mpmath quadratures of alpha(s) e^{-iws} on one
    set of points: log-spaced towards s = 0, and about two per period of the fastest gap."""
    with mpmath.workdps(20):
        tm = mpmath.mpf(t)
        pts = [tm * mpmath.mpf(10) ** -k for k in range(6)]
        pts = sorted(set(pts + list(mpmath.linspace(0, tm, int(t * np.max(np.abs(w)) / 3) + 2))))
        moments = {}
        for x in set(w.tolist()) | set((-w).tolist()):
            f = lambda s: t0_alpha_mp(s) * mpmath.exp(-1j * mpmath.mpf(x) * s)
            moments[x] = mpmath.quad(f, pts), mpmath.quad(lambda s: s * f(s), pts)
        out = np.zeros((w.size, w.size), dtype=complex)
        for (a, ua), (b, ub) in itertools.product(enumerate(w.tolist()), repeat=2):
            nu = mpmath.mpf(ua) + mpmath.mpf(ub)
            if nu == 0:
                out[a, b] = complex(tm * moments[ua][0] - moments[ua][1])
            else:
                out[a, b] = complex((mpmath.exp(1j * nu * tm) * moments[ua][0]
                                     - moments[-ub][0]) / (1j * nu))
    return out


class TestZeroTemperatureClosedForm:
    """The T = 0 log/E1/Ei closed forms against mpmath quadrature of the
    defining integrals: A(t; w) = int_0^t alpha(tau) e^{-iw tau} dtau with the
    E1/Ei form of alpha(tau), alpha^(s) = (1/2pi) int_0^inf 2u gamma~(u) /
    (s + iu) du, and the gap-pair table (t0_table_ref)."""

    G0, LAM = 0.1, 5.0
    # a 7-gap set; {-1, 0, 1} is its entries 1, 3, 5
    GAPS = np.array([-2.3, -1.0, -0.4, 0.0, 0.4, 1.0, 2.3])

    @pytest.mark.parametrize("t", [1e-5, 1e-3, 1e-2, 1.0, 5.0, 20.0])
    def test_gap_pair_table_against_mpmath(self, t):
        b = bath.ThermalLorentz(gamma0=self.G0, cutoff=self.LAM, temperature=0.0)
        ref = t0_table_ref(t, self.GAPS)
        for w, want in ((self.GAPS, ref), (self.GAPS[1::2][:3], ref[1:6:2, 1:6:2])):
            got, err = b.coefficient_integral(t, w)
            diff = np.max(np.abs(got[..., 0, 0] - want))
            # below t = 1e-2 the table is O(t) with O(1) terms cancelling in it
            assert diff <= (1e-12 * np.max(np.abs(want)) if t >= 1e-2 else 1e-15), (w.size, diff)
            assert diff <= err + 4 * np.finfo(float).eps * np.max(np.abs(want)), (w.size, err)

    @pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-8])
    def test_near_resonant_table_bounds_its_round_off(self, delta):
        # nu = -delta for the pair (-(1 + delta), 1): J1's quotient loses digits as 1/delta
        b = bath.ThermalLorentz(gamma0=self.G0, cutoff=self.LAM, temperature=0.0)
        w = np.array([-(1 + delta), 0.0, 1.0])
        for t in (1.0, 5.0):
            got, err = b.coefficient_integral(t, w)
            diff = np.max(np.abs(got[..., 0, 0] - t0_table_ref(t, w)))
            assert 0 < diff <= err < 1e-7, (t, diff, err)

    @staticmethod
    def alpha_ref(tau, g0, lam):
        x = lam * tau
        k = g0 * lam**2 / (2 * mpmath.pi)
        return k * (mpmath.exp(x) * mpmath.e1(x) - mpmath.exp(-x) * mpmath.ei(x)) \
            - 1j * mpmath.pi * k * mpmath.exp(-x)

    @staticmethod
    def laplace_ref(s, g0, lam):
        s = mpmath.mpc(s)
        pts = [0, lam, 10 * lam]
        if s.imag < 0:  # the pole u = is lies near the path: split there
            pts += [-s.imag / 2, -s.imag, -2 * s.imag]
        f = lambda u: u * g0 / (1 + (u / lam) ** 2) / (s + 1j * u) / mpmath.pi
        with mpmath.workdps(20):
            return complex(mpmath.quad(f, sorted(set(pts)) + [mpmath.inf]))

    @pytest.mark.parametrize("t", [1e-4, 0.5, 2.0, 8.0, 20.0, 200.0])
    def test_coefficient_full_against_mpmath(self, t):
        b = bath.ThermalLorentz(gamma0=self.G0, cutoff=self.LAM, temperature=0.0)
        w = np.array([-3.0, -1.0, -1e-4, 0.0, 1e-4, 1.0, 2.3])
        got = b.coefficient_full(t, w)[:, 0, 0]
        with mpmath.workdps(15):
            tm = mpmath.mpf(t)
            for wj, g in zip(w, got):
                # log-spaced points for the t = 0 singularity, one per period
                pts = [tm * mpmath.mpf(10) ** -k for k in range(5)]
                pts += list(mpmath.linspace(0, tm, int(t * abs(wj) / (2 * np.pi)) + 2))
                ref = complex(mpmath.quad(
                    lambda tau: self.alpha_ref(tau, self.G0, self.LAM) * mpmath.exp(-1j * wj * tau),
                    sorted(set(pts)),
                ))
                assert abs(g - ref) <= 1e-10 * abs(ref), (t, wj)
                # scalar path: same value to an ulp of A(inf; w) (at t = 1e-4 both
                # are A(inf; w) minus a tail of about the same size)
                scale = abs(b.coefficient_stationary(float(wj))[0, 0])
                assert abs(b.coefficient_full(t, float(wj))[0, 0] - g) <= 1e-15 * scale

    @pytest.mark.parametrize("s", [
        0.3, 1 + 2j, 2 - 3j,                      # Re s > 0
        -0.5 + 1j, -0.5 - 1j, -3 + 0.2j,          # Re s < 0, off the cut
        1e-6 - 1j, 1e-6 + 1j, 1e-6, 1e-6 - 7j,    # iw + 1e-6, both signs of w
        5.0, 5.005, 5 + 0.5j, -4.9 + 0.3j,        # at and near the roots s = +-Lam
    ])
    def test_laplace_against_mpmath(self, s):
        b = bath.ThermalLorentz(gamma0=self.G0, cutoff=self.LAM, temperature=0.0)
        ref = self.laplace_ref(s, self.G0, self.LAM)
        assert abs(b.laplace(s)[0, 0] - ref) <= 1e-12 * abs(ref)

    def test_stationary_coefficient_is_boundary_value(self):
        b = bath.ThermalLorentz(gamma0=self.G0, cutoff=self.LAM, temperature=0.0)
        w = np.array([-7.0, -3.0, -1.0, 0.0, 1.0, 3.0])
        got = b.coefficient_stationary(w)[:, 0, 0]
        for wj, g in zip(w, got):
            ref = self.laplace_ref(1j * wj + 1e-12, self.G0, self.LAM)
            assert abs(g - ref) <= 1e-10 * abs(ref), wj
        # He A(w) = alpha~(w)/2: |w| gamma~(w) on w < 0, zero on w >= 0
        want = np.where(w < 0, np.abs(w) * self.G0 * 25.0 / (25.0 + w * w), 0.0)
        assert np.allclose(got.real, want, rtol=1e-14, atol=1e-17)

    def test_stationary_coefficient_at_huge_cutoff(self):
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=1e6, temperature=0.0)
        ref = self.laplace_ref(1j, 0.1, 1e6)
        assert abs(ref + 49999.56j) < 0.01
        assert abs(b.coefficient_stationary(1.0)[0, 0] - ref) <= 1e-10 * abs(ref)

    def test_alpha_time_past_exponent_overflow(self):
        # Lam t = 1000: e^{Lam t} alone overflows
        b = bath.ThermalLorentz(gamma0=self.G0, cutoff=self.LAM, temperature=0.0)
        for t in (8.0, 8.2, 200.0):
            got = b.alpha_time(t)[0, 0]
            with mpmath.workdps(30):
                ref = complex(self.alpha_ref(mpmath.mpf(t), self.G0, self.LAM))
            assert np.isfinite(got) and abs(got - ref) <= 1e-13 * abs(ref), t
        assert b.alpha_time(-200.0)[0, 0] == np.conj(b.alpha_time(200.0)[0, 0])


def thermal_table_entry_ref(g0, lam, temp, t, g, h):
    """I = int_0^t A(tau; g) e^{i(g + h) tau} dtau for one T > 0 channel, summed
    term by term over its exponentials c_k e^{-z_k tau} (each integrated
    exactly) with mpmath's Euler-Maclaurin summation."""
    with mpmath.workdps(20):
        g0, lam, temp, t = (mpmath.mpf(x) for x in (g0, lam, temp, t))
        a = 2 * mpmath.pi * temp
        nu = g + h

        def e(z):
            return t if z == 0 else mpmath.expm1(z * t) / z

        def term(c, z):
            p = z + 1j * g
            return c / p * (e(1j * nu) - e(1j * nu - p))

        def matsubara(k):
            nk = a * k
            return term(2 * g0 * temp * lam**2 * nk / (nk**2 - lam**2), nk)

        c0 = g0 * lam**2 / 2 * (mpmath.cot(lam / (2 * temp)) - 1j)
        return complex(term(c0, lam) + mpmath.nsum(matsubara, [1, mpmath.inf], method="e"))


class TestCoefficientIntegral:
    """The gap-pair table I[a, b] = int_0^t A(tau; w_a) e^{i(w_a + w_b) tau} dtau."""

    W = np.array([-1.0, 0.0, 1.0])
    # (a, b) into W: nu = 0 at g = 1 and at g = 0 (real p_k), and nu = -1
    ENTRIES = [(2, 0), (1, 1), (0, 1)]

    @pytest.mark.parametrize("t", [1e-3, 0.5, 1.0, 8.0, 20.0])
    def test_thermal_closed_form_against_mpmath(self, t):
        one = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.25)
        two = bath.ThermalLorentz(gamma0=[0.1, 0.2], cutoff=[5.0, 2.0],
                                  temperature=[0.25, 1.0], n_channels=2)
        tab, err = one.coefficient_integral(t, self.W)
        assert tab.shape == (3, 3, 1, 1)
        assert err <= 1e-15 * np.min(np.abs(tab))
        for a, b in self.ENTRIES:
            ref = thermal_table_entry_ref(0.1, 5.0, 0.25, t, self.W[a], self.W[b])
            assert abs(tab[a, b, 0, 0] - ref) <= 1e-12 * abs(ref), (a, b)
        tab2, _ = two.coefficient_integral(t, self.W)
        assert tab2.shape == (3, 3, 2, 2)
        assert np.array_equal(tab2[..., 0, 0], tab[..., 0, 0])
        assert not np.any(tab2[..., 0, 1]) and not np.any(tab2[..., 1, 0])
        for a, b in self.ENTRIES[:2]:
            ref = thermal_table_entry_ref(0.2, 2.0, 1.0, t, self.W[a], self.W[b])
            assert abs(tab2[a, b, 1, 1] - ref) <= 1e-12 * abs(ref), (a, b)

    @pytest.mark.parametrize("t", [0.5, 2.0, 6.0])
    def test_undamped_and_white_noise_against_quadrature(self, t):
        # the oracle's baths have 40 undamped terms each, none at a system gap
        models = [oracle.reduced_model(oracle.random_composite(seed)) for seed in range(3)]
        cases = [(m.bath, m.unique_gaps) for m in models] + [
            (bath.ExponentialOU(c=[[[0.05]], [[0.05]]], lam=[1.3j, -1.3j]), self.W),
            (bath.WhiteNoise(c=[[0.6, 0.1], [0.1, 0.3]]), self.W)]
        for b, w in cases:
            got, err = b.coefficient_integral(t, w)
            want = table_by_quadrature(b, t, w)
            assert got.shape == want.shape and err == 0.0
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("t", [1e-5, 1e-3, 1.0])
    def test_exponential_sum_small_time_cancellation(self, t):
        # (c/p)[E(i nu, t) - E(i w_b - z, t)]: both exponential integrals are about t, and
        # their difference is O(p t^2), so the closed form loses eps (|E(i nu)| + |E(i w_b -
        # z)|) |c/p|, about eps / (|p| t) of the entry, and nothing more (3.7e-11 relative
        # at t = 1e-5).  Its round-off bound does not count this loss: ROADMAP item 3
        c, lam = 0.08, 1.1
        got = bath.ExponentialOU(c=[[c]], lam=lam).coefficient_integral(t, self.W)[0][..., 0, 0]
        with mpmath.workdps(40):
            tm = mpmath.mpf(t)

            def e(z):
                return tm if z == 0 else mpmath.expm1(z * tm) / z

            for a, b in itertools.product(range(3), repeat=2):
                p = lam + 1j * mpmath.mpf(self.W[a])
                e_nu, e_b = e(1j * mpmath.mpf(self.W[a] + self.W[b])), e(1j * mpmath.mpf(self.W[b]) - lam)
                ref = complex(c / p * (e_nu - e_b))
                size = float(abs(c / p) * (abs(e_nu) + abs(e_b)))
                assert abs(got[a, b] - ref) <= np.finfo(float).eps * size, (a, b)

    def test_zero_time_and_negative_time(self):
        for b in (thermal(), thermal_t0(), bath.ExponentialOU(c=[[0.3]], lam=1.2),
                  bath.WhiteNoise(c=[[0.3]])):
            assert not np.any(b.coefficient_integral(0.0, self.W)[0])
            with pytest.raises(ValueError, match=r"^coefficient_integral requires t >= 0$"):
                b.coefficient_integral(-1.0, self.W)


class TestTableTimeArrays:
    """coefficient_integral at a 1-D array of times against one call per time, to 1e-14 of
    the largest |table|, with the same bound per time."""

    W = np.array([-1.0, 0.0, 0.4, 1.0])
    TIMES = np.array([0.0, 1e-5, 0.3, 1.0, 2.5, 8.0])

    @staticmethod
    def tabulated():
        t = np.linspace(0.0, 10.0, 201)
        return bath.Tabulated(t, (0.3 * np.exp(-1.1 * t) * np.exp(-0.5j * t))[:, None, None])

    CASES = {
        "ou": lambda: bath.ExponentialOU(c=[[0.3]], lam=1.2),
        "ou-two-channels": lambda: bath.ExponentialOU(c=[[0.3, 0.1 + 0.05j], [0.1 - 0.05j, 0.2]], lam=1.3),
        "ou-complex-rates": lambda: bath.ExponentialOU(c=[[[0.2]], [[0.1]]], lam=[0.5 + 1j, 0.7 - 2j]),
        "tabulated": tabulated,
        "white-noise": lambda: bath.WhiteNoise(c=[[0.4, 0.1], [0.1, 0.3]]),
        "thermal-t0": thermal_t0,
        "thermal": thermal,
        "thermal-mixed": lambda: bath.ThermalLorentz(gamma0=[0.1, 0.2], cutoff=[5.0, 1.0],
                                                     temperature=[0.0, 0.3], n_channels=2),
        # undamped terms at the environment frequencies +-1 meet the gaps -+1: the resonant branch
        "undamped-resonant": lambda: bath.ExponentialOU(c=[[[0.05]], [[0.05]]], lam=[1j, -1j]),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_matches_one_call_per_time(self, name):
        b = self.CASES[name]()
        self.check(b, self.TIMES, self.W)

    def test_oracle_bath(self):
        m = oracle.reduced_model(oracle.random_composite(0))
        self.check(m.bath, self.TIMES, m.unique_gaps)

    @staticmethod
    def check(b, times, w):
        got, err = b.coefficient_integral(times, w)
        n, k = b.channels, w.size
        assert got.shape == (times.size, k, k, n, n) and err.shape == (times.size,)
        scale = np.max(np.abs(got))
        for i, t in enumerate(times.tolist()):
            want, want_err = b.coefficient_integral(t, w)
            assert np.max(np.abs(got[i] - want)) <= 1e-14 * scale, t
            assert err[i] == pytest.approx(want_err, rel=1e-12, abs=0.0), t
        assert not got[0].any() and err[0] == 0.0
        # a scalar w gives each time's (n, n) entry
        col, _ = b.coefficient_integral(times, float(w[2]))
        assert np.max(np.abs(col - got[:, 2, 2])) <= 1e-14 * scale

    @pytest.mark.parametrize("temperature", [0.05, 0.25, 1.0])
    def test_thermal_tables_per_term_count(self, temperature, monkeypatch):
        # the T > 0 tables come per term count K(t), which grows as 1/t and is capped at
        # _MATSUBARA_TERMS: the small times span the cap and the 1/t regime, and from t = 0.11
        # on (at T = 0.25) every time shares one K; the stacked tables equal one call per time
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=temperature)
        times = np.array([1e-5, 0.5, 1e-5, 2e-5, 1e-3, 0.05, 2.0, 0.5, 1.5, 20.0, 700.0])
        calls, table_call = [], bath._exp_sum_table
        monkeypatch.setattr(bath, "_exp_sum_table", lambda c, z, t, *rest: (
            calls.append((c.size, t.size)) or table_call(c, z, t, *rest)))
        got, err = b.coefficient_integral(times, self.W)
        monkeypatch.undo()
        # one call per term count, split only past _TABLE_ENTRIES (time, gap, term) entries
        counts = {}
        for k, nt in calls:
            counts.setdefault(k, []).append(nt)
        assert sum(map(sum, counts.values())) == times.size
        for k, sizes in counts.items():
            assert len(sizes) == -(-sum(sizes) * k * self.W.size // bath._TABLE_ENTRIES), k
        for i, t in enumerate(times.tolist()):
            want, want_err = b.coefficient_integral(t, self.W)
            assert np.max(np.abs(got[i] - want)) <= 1e-15 * np.max(np.abs(want)), t
            assert err[i] == want_err, t

    def test_bound_within_round_off_counts_as_zero_per_time(self):
        # the resonant branch bounds its quotient's round-off; at t = 8 that is within eps of
        # this time's table, so it reads 0 there and not at the earlier times
        got, err = self.CASES["undamped-resonant"]().coefficient_integral(self.TIMES, self.W)
        assert err[1:5].all() and err[5] == 0.0
        assert np.all((err == 0) | (err > np.finfo(float).eps * np.max(np.abs(got), axis=(1, 2, 3, 4))))

    def test_negative_time_in_an_array_rejected(self):
        with pytest.raises(ValueError, match=r"^coefficient_integral requires t >= 0$"):
            thermal().coefficient_integral(np.array([0.5, -1e-9]), self.W)


class TestExponentialOU:
    def test_alpha_and_spectrum(self):
        b = bath.ExponentialOU(c=[[0.3]], lam=1.2)
        assert b.alpha_time(0.5)[0, 0] == pytest.approx(0.3 * np.exp(-0.6), rel=1e-14)
        assert b.alpha_spectrum(0.7)[0, 0] == pytest.approx(
            0.3 * 2 * 1.2 / (1.44 + 0.49), rel=1e-14
        )

    def test_laplace_pole_rejected(self):
        b = bath.ExponentialOU(c=[[0.3]], lam=1.2)
        with pytest.raises(ValueError, match="pole"):
            b.laplace(-1.2)

    def test_non_hermitian_c_rejected(self):
        with pytest.raises(ValueError, match="Hermitian"):
            bath.ExponentialOU(c=[[0.0, 1.0], [0.0, 0.0]], lam=1.0)

    def test_coefficient_full_closed_form(self):
        b = bath.ExponentialOU(c=[[0.4]], lam=0.9)
        t, w = 1.3, 0.6
        p = 0.9 + 1j * w
        assert b.coefficient_full(t, w)[0, 0] == pytest.approx(
            0.4 * (1 - np.exp(-p * t)) / p, rel=1e-14
        )


class TestExponentialSum:
    """A K = 3 damped sum with Hermitian 2x2 weights and complex rates."""

    LAM = np.array([0.7, 1.3 + 2.0j, 2.9 - 0.5j])

    @classmethod
    def make(cls):
        rng = np.random.default_rng(21)
        a = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
        c = (a + np.conj(a).swapaxes(1, 2)) / 2
        return bath.ExponentialOU(c=c, lam=cls.LAM), c

    def test_coefficient_full_against_quad(self):
        from scipy import integrate

        b, c = self.make()
        w = np.array([-1.1, 0.0, 0.8])

        def quad(f, t):
            return integrate.quad(f, 0.0, t, epsabs=1e-14, epsrel=1e-13)[0]

        for t in (0.4, 3.0):
            got = b.coefficient_full(t, w)
            assert got.shape == (3, 2, 2)
            for wk, a in zip(w, got):
                def entry(tau):
                    return np.einsum("k,kij->ij", np.exp(-(self.LAM + 1j * wk) * tau), c)
                want = np.array([[quad(lambda tau: entry(tau)[i, j].real, t)
                                  + 1j * quad(lambda tau: entry(tau)[i, j].imag, t)
                                  for j in range(2)] for i in range(2)])
                assert np.max(np.abs(a - want)) <= 1e-12 * np.max(np.abs(want)), (t, wk)
                assert np.max(np.abs(b.coefficient_full(t, float(wk)) - a)) <= 1e-15

    def test_coefficient_integral_against_quadrature(self):
        b, _ = self.make()
        w = np.array([-1.1, 0.0, 0.8])
        for t in (0.4, 3.0):
            got, err = b.coefficient_integral(t, w)
            want = table_by_quadrature(b, t, w)
            assert got.shape == (3, 3, 2, 2) and err == 0.0
            assert np.max(np.abs(got - want)) <= 1e-11 * np.max(np.abs(want)), t

    def test_alpha_and_spectrum(self):
        b, c = self.make()
        for t in (0.0, 0.6, 2.5):
            want = np.einsum("k,kij->ij", np.exp(-self.LAM * t), c)
            assert np.max(np.abs(b.alpha_time(t) - want)) <= 1e-15 * np.max(np.abs(want))
            assert np.array_equal(b.alpha_time(-t), np.conj(b.alpha_time(t)).T)
        for w in (-2.0, 0.0, 1.7):
            p = self.LAM + 1j * w
            want = np.einsum("k,kij->ij", 2 * self.LAM.real / np.abs(p) ** 2, c)
            assert np.max(np.abs(b.alpha_spectrum(w) - want)) <= 1e-14 * np.max(np.abs(want))
        s = np.array([0.3, 1j, 2.0 - 1.0j])
        want = np.einsum("sk,kij->sij", 1 / (self.LAM + s[:, None]), c)
        assert np.max(np.abs(b.laplace(s) - want)) <= 1e-14 * np.max(np.abs(want))

    def test_damped_coefficient_is_the_expm1_form(self):
        # a table of damped terms only takes sum_k c_k expm1(x_k t) / x_k, x_k = -(z_k + iw),
        # bit for bit
        b, c = self.make()
        t, w = np.array([0.0, 1e-9, 0.4, 3.0, 40.0]), np.array([-1.1, 0.0, 0.8])
        x = -1j * w[:, None] - self.LAM
        want = (np.expm1(x * t[:, None, None]) / x) @ c.reshape(3, 4)
        assert np.array_equal(b.coefficient_full(t, w), want.reshape(5, 3, 2, 2))

    @pytest.mark.parametrize("lam, match", [
        ([0.7, 1.3], "one rate with Re lam >= 0 per weight matrix"),
        ([0.7, -0.1, 1.0], "one rate with Re lam >= 0 per weight matrix"),
        ([0.7, np.inf, 1.0], "finite"),
    ])
    def test_rates_validated(self, lam, match):
        _, c = self.make()
        with pytest.raises(ValueError, match=match):
            bath.ExponentialOU(c=c, lam=lam)


def exp_sum_coefficient_ref(c, lam, t, w):
    """sum_k c_k E(x_k, t), x_k = -(lam_k + iw), E(x, t) = expm1(x t) / x and E(0, t) = t, at
    40 digits for scalar weights c_k, on the (t, w) grid; and the bound eps sum_k |c_k| (2t +
    (8 + (|lam_k| + |w|) t / 2) |E_k|), which counts the rounding of the arguments: the
    undamped form rounds lam_k t/2 and w t/2 apart, so near resonance an entry can be off
    by eps (|lam_k| + |w|) t / 4 relative where expm1 rounds theta t only."""
    eps = np.finfo(float).eps
    out, bound = np.empty((t.size, w.size), dtype=complex), np.empty((t.size, w.size))
    with mpmath.workdps(40):
        for i, tk in enumerate(t):
            tm = mpmath.mpf(tk)
            for j, wk in enumerate(w):
                terms = []
                for ck, zk in zip(c, lam):
                    x = -(mpmath.mpc(complex(zk)) + 1j * mpmath.mpf(wk))
                    terms.append(mpmath.mpc(complex(ck)) * (tm if x == 0 else mpmath.expm1(x * tm) / x))
                out[i, j] = complex(mpmath.fsum(terms))
                bound[i, j] = eps * sum(float(abs(e)) * (8 + (abs(zk) + abs(wk)) * tk / 2)
                                        + 2 * abs(ck) * tk for e, ck, zk in zip(terms, c, lam))
    return out, bound


class TestUndampedCoefficient:
    """Undamped terms (Re z_k = 0) of coefficient_full take the real sine form
    E(i theta, t) = (2/theta) sin(theta t/2) e^{-i Im z_k t/2} e^{-iwt/2}, theta = -(Im z_k + w),
    and E(0, t) = t; against 40-digit sums."""

    @pytest.mark.parametrize("v", [0.0, 1.0, -5.0])
    def test_across_theta_t_against_mpmath(self, v):
        # theta = 0 exactly, and |theta| from 1e-12 to 3 at t from 1e-3 to 1e3: |theta t| from
        # 1e-15 to 3e3
        theta = np.array([0.0, 1e-12, -1e-9, 1e-6, -1e-3, 0.1, -1.0, 3.0])
        t = np.array([1e-3, 0.5, 3.0, 30.0, 300.0, 1000.0])
        w = -v - theta
        b = bath.ExponentialOU(c=[[0.3]], lam=1j * v)
        got = b.coefficient_full(t, w)[..., 0, 0]
        want, bound = exp_sum_coefficient_ref([0.3], [1j * v], t, w)
        assert np.all(np.abs(got - want) <= bound)
        # at theta = 0 the term is 0.3 t: the sine factor is t, and the two phases cancel
        assert np.all(np.abs(got[:, 0] - 0.3 * t) <= 2 * np.finfo(float).eps * 0.3 * t)

    def test_mixed_damped_and_undamped_table(self):
        # damped (real and complex rates) and undamped terms, one of them at w = 1.3
        lam = np.array([0.7, 0.4 + 2.0j, -1.3j, 2.1j, 0.0, 1e-3 - 0.5j])
        c = np.array([0.2, -0.05, 0.1, 0.07, 0.03, 0.04])
        t, w = np.array([0.0, 1e-6, 0.3, 2.0, 7.0, 40.0]), np.array([-2.1, 0.0, 0.5, 1.3])
        b = bath.ExponentialOU(c=c[:, None, None], lam=lam)
        got = b.coefficient_full(t, w)[..., 0, 0]
        want, bound = exp_sum_coefficient_ref(c, lam, t, w)
        assert np.all(np.abs(got - want) <= bound)
        assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * np.abs(want).max(axis=1)[:, None])


class TestWhiteNoise:
    def test_laplace_flat(self):
        b = bath.WhiteNoise(c=[0.6])
        assert b.laplace(0.1)[0, 0] == 0.3
        assert b.laplace(5.0 + 2.0j)[0, 0] == 0.3

    def test_coefficient_time_independent_after_onset(self):
        b = bath.WhiteNoise(c=[0.6])
        assert b.coefficient_full(2.0, 1.7)[0, 0] == b.coefficient_full(9.0, 0.2)[0, 0]

    def test_alpha_time_rejected_at_zero(self):
        with pytest.raises(ValueError):
            bath.WhiteNoise(c=[0.6]).alpha_time(0.0)


class TestTabulated:
    def _make(self):
        tgrid = np.linspace(0.0, 25.0, 1001)
        ou = bath.ExponentialOU(c=[[0.3]], lam=1.2)
        samples = np.array([ou.alpha_time(t) for t in tgrid])
        return bath.Tabulated(tgrid, samples), ou

    def test_interpolation_and_negative_time(self):
        b, ou = self._make()
        assert abs(b.alpha_time(1.234)[0, 0] - ou.alpha_time(1.234)[0, 0]) < 1e-8
        assert b.alpha_time(-0.5)[0, 0] == np.conj(b.alpha_time(0.5)[0, 0])

    def test_laplace_matches_closed_form(self):
        b, ou = self._make()
        for s in (0.2, 1.0 + 0.5j):
            assert abs(b.laplace(s)[0, 0] - ou.laplace(s)[0, 0]) < 1e-7

    def test_coefficient_full_matches_closed_form(self):
        b, ou = self._make()
        assert abs(
            b.coefficient_full(3.0, 0.8)[0, 0] - ou.coefficient_full(3.0, 0.8)[0, 0]
        ) < 1e-5

    def test_csv_round_trip(self):
        b, _ = self._make()
        path = os.path.join(tempfile.mkdtemp(), "alpha.csv")
        b.to_csv(path)
        b2 = bath.Tabulated.from_csv(path)
        assert np.array_equal(b2.times, b.times)
        assert np.array_equal(b2.samples, b.samples)

    def test_csv_pinned_format(self, tmp_path):
        ou = bath.ExponentialOU(c=[[0.1, 0.02 + 0.01j], [0.02 - 0.01j, 0.05]], lam=1.0)
        tgrid = np.linspace(0.0, 5.0, 41)
        path = tmp_path / "alpha.csv"
        bath.Tabulated(tgrid, np.array([ou.alpha_time(t) for t in tgrid])).to_csv(path)
        with open(path, newline="") as fh:
            lines = fh.read().split("\r\n")
        assert lines[0] == ("t,re_alpha_0_0,im_alpha_0_0,re_alpha_0_1,im_alpha_0_1,"
                            "re_alpha_1_0,im_alpha_1_0,re_alpha_1_1,im_alpha_1_1")
        assert lines[1] == "0.0,0.1,0.0,0.02,0.01,0.02,-0.01,0.05,0.0"

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError, match="uniform"):
            bath.Tabulated(np.array([0.0, 0.1, 0.3, 0.4]), np.zeros((4, 1, 1)))

    def test_out_of_range_query_rejected(self):
        b, _ = self._make()
        with pytest.raises(ValueError, match="outside"):
            b.alpha_time(26.0)

    def test_failed_tail_fit_raises(self):
        tgrid = np.linspace(0.0, 10.0, 201)
        b = bath.Tabulated(tgrid, 0.1 * np.cos(1.3 * tgrid))
        assert b._undamped and not b._z.real.any()  # the fit is 0.05 (e^{1.3it} + e^{-1.3it})
        for call in (lambda: b.laplace(0.5), lambda: b.laplace(np.array([0.5, 1j])),
                     lambda: b.coefficient_stationary(1.0), lambda: b.alpha_spectrum(1.0)):
            with pytest.raises(ValueError, match="tail"):
                call()
        # the finite-time coefficients need no tail
        assert np.isfinite(b.coefficient_full(3.0, 0.8)[0, 0])


def exact_sum(c, z):
    """The closed-form evaluators over a known term table (c (K, n, n), z (K,))."""
    ref = bath._ExponentialSum()
    ref._c, ref._z, ref._undamped = np.reshape(c, (len(z), -1)).astype(complex), np.asarray(z), False
    return ref


class TestTabulatedFit:
    """Tabulated fits its samples once to sum_k c_k e^{-z_k t} and is that sum."""

    GRID = np.linspace(0.0, 8.0, 161)
    HERM = np.array([[0.05, 0.015 + 0.01j], [0.015 - 0.01j, 0.04]])
    TERMS = {
        "real-rate": ([[[0.075]]], [1.2]),
        "complex-rate": ([[[0.1]]], [0.8 + 0.3j]),
        "hermitian-2x2": ([HERM, np.diag([0.01, 0.02])], [1.3, 0.4 + 2.0j]),
        "non-hermitian": ([[[0.08 - 0.05j]], [[0.03 + 0.02j]]], [1.0, 0.5 + 2.0j]),
    }

    @staticmethod
    def close(got, want, rel=1e-12):
        assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))

    @pytest.mark.parametrize("case", TERMS)
    def test_exponential_data_is_the_closed_form(self, case):
        c, z = self.TERMS[case]
        ref = exact_sum(c, z)
        b = bath.Tabulated(self.GRID, ref.alpha_time(self.GRID))
        times, w = np.array([0.013, 1.234, 3.3, 7.99]), np.array([-1.3, 0.0, 0.7, 2.0])
        s = np.array([0.2, 1.0 + 0.5j, 2.0j])
        for name, args in (("alpha_time", (times,)), ("laplace", (s,)), ("alpha_spectrum", (w,)),
                           ("coefficient_full", (times, w))):
            self.close(getattr(b, name)(*args), getattr(ref, name)(*args))
        got, err = b.coefficient_integral(3.0, np.array([-1.0, 0.0, 1.0]))
        assert err == 0.0
        self.close(got, ref.coefficient_integral(3.0, np.array([-1.0, 0.0, 1.0]))[0])

    def test_spectrum_of_non_hermitian_weights(self):
        # alpha~(w) = int e^{-iwt} alpha(t) dt with alpha(-t) = alpha(t)^dag:
        # sum_k c_k / (z_k + iw) + conj(c_k) / (conj(z_k) - iw)
        c, z = np.array([0.08 - 0.05j, 0.03 + 0.02j]), np.array([1.0, 0.5 + 2.0j])
        b = bath.Tabulated(self.GRID, np.exp(-np.outer(self.GRID, z)) @ c)
        w = np.array([-2.0, 0.0, 1.5])
        want = (c / (z + 1j * w[:, None]) + np.conj(c) / (np.conj(z) - 1j * w[:, None])).sum(1)
        self.close(b.alpha_spectrum(w)[:, 0, 0], want)

    @pytest.mark.parametrize("alpha", [
        lambda t: 0.05 * mpmath.exp(-t**2) * mpmath.cos(2 * t),
        lambda t: 0.05 * (1 + t) ** -2,
    ], ids=["gaussian", "power-law"])
    def test_smooth_data_against_mpmath(self, alpha):
        grid = np.linspace(0.0, 10.0, 401)
        b = bath.Tabulated(grid, np.array([complex(alpha(mpmath.mpf(t))) for t in grid]))
        assert b._z.size > 1 and np.all(b._z.real > 0)
        for t in (0.37, 2.0, 9.5):
            for w in (-1.5, 0.0, 2.0):
                want = complex(mpmath.quad(lambda s: alpha(s) * mpmath.exp(-1j * w * s),
                                           [0, min(t, 1), t]))
                assert abs(b.coefficient_full(t, w)[0, 0] - want) < 1e-10

    def test_slightly_noisy_data_fits_without_growing_rates(self):
        noise = 1e-8 * np.random.default_rng(0).standard_normal(self.GRID.size)
        b = bath.Tabulated(self.GRID, 0.075 * np.exp(-1.2 * self.GRID) + noise)
        assert b._z.size and np.all(b._z.real >= 0)

    def test_noisy_data_rejected_with_both_numbers(self):
        noise = 1e-6 * np.random.default_rng(0).standard_normal(self.GRID.size)
        with pytest.raises(ValueError, match=r"misses the held-out samples by .* tolerance 1e-06"):
            bath.Tabulated(self.GRID, 0.075 * np.exp(-1.2 * self.GRID) + noise)

    def test_zero_samples_are_a_zero_bath(self):
        b = bath.Tabulated(self.GRID, np.zeros((self.GRID.size, 2, 2)))
        assert b._z.size == 0 and b.channels == 2
        w = np.array([-1.0, 0.0, 1.0])
        for got in (b.alpha_time(np.array([0.0, 3.0])), b.laplace(np.array([0.5, 1j])),
                    b.alpha_spectrum(w), b.gamma_spectrum(w),
                    b.coefficient_full(np.array([0.0, 3.0]), w), b.coefficient_integral(2.0, w)[0]):
            assert np.array_equal(got, np.zeros_like(got))

    def test_two_dimensional_samples_rejected(self):
        with pytest.raises(ValueError, match=r"shape \(161,\) or \(161, n, n\)"):
            bath.Tabulated(self.GRID, np.ones((self.GRID.size, 2)))

    def test_minimum_grid(self):
        t = np.linspace(0.0, 1.0, 3)
        b = bath.Tabulated(t, 0.075 * np.exp(-1.2 * t))
        assert abs(b._z[0] - 1.2) < 1e-14
        with pytest.raises(ValueError, match=">= 3 points"):
            bath.Tabulated(t[:2], 0.075 * np.exp(-1.2 * t[:2]))


class TestKernels:
    def test_thermal_kernel_relations(self):
        b = thermal()
        wgrid = np.linspace(-4, 4, 41)
        trip = bath.kernels(b, wgrid)
        for w, nu, gam in zip(trip.wgrid, trip.nu, trip.gamma):
            gt = 0.1 * 25.0 / (25.0 + w * w)
            assert gam[0, 0].real == pytest.approx(gt, rel=1e-9)
            if w != 0:
                # nu~ = gamma~ w coth(w / 2T)
                assert nu[0, 0].real == pytest.approx(
                    gt * w / np.tanh(w / 0.5), rel=1e-9
                )

    def test_mu_is_i_omega_gamma(self):
        b = thermal()
        trip = bath.kernels(b, [0.7, -1.3])
        for w, mu, gam in zip(trip.wgrid, trip.mu, trip.gamma):
            assert abs(mu[0, 0] - 1j * w * gam[0, 0]) < 1e-10

    def test_kms_residual_thermal(self):
        assert bath.kms_residual(thermal(), np.linspace(-10, 10, 41)) < 1e-12

    @pytest.mark.parametrize("temperature", [[0.25, 1.0], [0.0, 0.25]])
    def test_kms_residual_per_channel(self, temperature):
        # each channel is held to its own temperature and its own rule
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=temperature, n_channels=2)
        assert bath.kms_residual(b, np.linspace(-5, 5, 21)) <= 1e-12

    @pytest.mark.parametrize("temperature", [0.0, 0.005, 0.25])
    def test_kms_residual_one_rule_for_every_temperature(self, temperature):
        # at T = 0.005 the grid reaches w/T = +-1000: alpha~ is held to 0 past +700, and
        # past -700, where the Boltzmann factor overflows, the frequency is skipped
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=temperature)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert bath.kms_residual(b, np.linspace(-5, 5, 21)) <= 1e-12

    @pytest.mark.parametrize("temperature", [0.0, 0.005])
    def test_kms_residual_holds_suppressed_absorption_to_zero(self, temperature, monkeypatch):
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=temperature)
        spectrum = bath.ThermalLorentz.alpha_spectrum
        monkeypatch.setattr(bath.ThermalLorentz, "alpha_spectrum", lambda self, w: (
            spectrum(self, w) + 1e-3 * (np.asarray(w) >= 4)[:, None, None]))
        assert bath.kms_residual(b, np.linspace(-5, 5, 21)) > 1e-4

    def test_kms_residual_detects_violation(self):
        b = bath.ExponentialOU(c=[[0.3]], lam=1.2)  # classical: symmetric spectrum
        assert bath.kms_residual(b, np.linspace(-3, 3, 13)) > 1e-3

    def test_fdi_nonnegative(self):
        for b in (thermal(), thermal_t0(), bath.ExponentialOU(c=[[0.3]], lam=1.2)):
            assert bath.fdi_check(bath.kernels(b, np.linspace(-6, 6, 25))) > -1e-12

    @pytest.mark.parametrize("b", [
        thermal(),
        bath.ThermalLorentz(gamma0=[0.1, 0.05], cutoff=[5.0, 2.0], temperature=[0.25, 0.0],
                            n_channels=2),
        bath.ExponentialOU(c=[[0.3, 0.1], [0.1, 0.2]], lam=1.2),
    ])
    @pytest.mark.parametrize("wgrid", [np.linspace(-5, 5, 21), np.empty(0)], ids=["grid", "empty"])
    def test_fdi_check_equals_per_frequency_loop(self, b, wgrid):
        trip = bath.kernels(b, wgrid)
        best = np.inf
        for w, nu, gam in zip(trip.wgrid, trip.nu, trip.gamma):
            nuh = (nu + np.conj(nu).T) / 2
            gh = (gam + np.conj(gam).T) / 2
            for sign in (+1.0, -1.0):
                best = min(best, float(np.linalg.eigvalsh(nuh - sign * w * gh)[0]))
        assert bath.fdi_check(trip) == best

    def test_sampled_positivity(self):
        b = bath.ExponentialOU(c=[[0.3]], lam=1.2)
        tgrid = np.linspace(0.0, 6.0, 25)
        assert support.sampled_positivity(b, tgrid) > -1e-10


class TestTanhSeries:
    """Damping kernel rebuilt from the noise kernel through the thermal FDR
    gamma~(w) = nu~(w) tanh(w/2T) / w."""

    def test_gamma_reconstruction(self):
        b = thermal()
        w = np.array([0.0, 0.8, -1.6])
        nu = bath.kernels(b, w).nu[:, 0, 0]
        with np.errstate(invalid="ignore"):
            got = np.where(w == 0, nu / (2 * 0.25), nu * np.tanh(w / (2 * 0.25)) / w)
        want = 0.1 * 25.0 / (25.0 + w * w)
        assert np.allclose(got.real, want, rtol=1e-8, atol=0)


class TestModuleOps:
    def test_negative_time_coefficient_rejected(self):
        for b in (thermal(), thermal_t0()):
            with pytest.raises(ValueError, match="t >= 0"):
                b.coefficient_full(-1.0, 0.0)
