"""oqsolve._special against 40-digit mpmath on the domains bath.py calls it on."""

import mpmath
import numpy as np
import pytest

from oqsolve import _special as special

TOL = 5e-15
RNG = np.random.default_rng(20)


@pytest.fixture(autouse=True)
def _forty_digits():
    with mpmath.workdps(40):
        yield


def _rel(got, want, floor=0.0):
    """Largest |got - want| / max(|want|, floor)."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want) / np.maximum(np.abs(want), floor)))


def _ref(f, z):
    return np.array([complex(f(mpmath.mpc(complex(v)))) for v in np.ravel(z)]).reshape(np.shape(z))


# digamma on 1 + s / a: the imaginary axis (s = iw, Re = 1), Talbot contour nodes (Re s far
# below 0), generic complex s, the real roots and the near-pole points of the reflection
DIGAMMA_Z = np.concatenate([
    1 + 1j * np.linspace(-40, 40, 81),
    RNG.uniform(-30, 30, 200) + 1j * RNG.uniform(-30, 30, 200),
    RNG.uniform(-6, 0.5, 100) + 1j * RNG.uniform(-1, 1, 100),
    -np.arange(5) - 0.5 + 1e-3j,
    [1.4616321449683623, -0.5040830082644554, 0.5, 0.5 + 1e-9j, 1e-6 + 0j, -2.9 + 0j],
])


def test_digamma_complex_against_mpmath():
    # psi has real roots, so the error is taken relative to max(1, |psi|)
    assert _rel(special.digamma(DIGAMMA_Z), _ref(mpmath.digamma, DIGAMMA_Z), 1.0) <= TOL


def test_digamma_negative_real_part():
    z = DIGAMMA_Z[DIGAMMA_Z.real < 0]
    assert z.size > 100
    assert _rel(special.digamma(z), _ref(mpmath.digamma, z), 1.0) <= TOL


def test_digamma_real_scalar_path():
    # channel construction: psi(1 -+ y), |y| <= 1/2, and psi(1 + x), x = Lam / 2 pi T
    xs = np.concatenate([np.linspace(0.5, 1.5, 41), np.geomspace(1e-4, 300, 60), [-0.3, -2.7]])
    got = [special.digamma(float(x)) for x in xs]
    assert all(type(g) is float for g in got)
    assert _rel(got, [float(mpmath.digamma(x)) for x in xs], 1.0) <= TOL
    assert special.digamma(np.float64(2.0)) == special.digamma(2)


def test_digamma_pole_is_not_finite():
    with np.errstate(all="ignore"):
        assert not np.isfinite(special.digamma(np.array([-2.0 + 0j]))).any()


# E1 on Re z >= 0: the imaginary axis (i w t), the real axis (Lam t), _exp_tail's z = eps (n0 + b),
# and the 2 <= |z| < 5 band where scipy's complex exp1 loses digits
def _right_half(r, n):
    return r * np.exp(1j * RNG.uniform(-np.pi / 2, np.pi / 2, n))


E1_Z = np.concatenate([
    1j * np.concatenate([-np.geomspace(1e-6, 300, 40), np.geomspace(1e-6, 300, 40)]),
    np.geomspace(1e-8, 500, 80) + 0j,
    _right_half(RNG.uniform(2, 5, 200), 200),
    _right_half(np.geomspace(1e-6, 1e4, 200), 200),
    RNG.uniform(0.1, 2.5, 60) * (36 + RNG.uniform(-4, 4, 60) + 1j * RNG.uniform(-5, 5, 60)),
    [1.0, 1j, -1j, np.exp(0.3j), 1 + 1e-15],
])


def test_exp1_against_mpmath():
    z = E1_Z[E1_Z.real <= 500]  # past that E1 underflows
    assert _rel(special.exp1(z), _ref(mpmath.e1, z)) <= TOL


def test_exp1_band_two_to_five():
    z = E1_Z[(np.abs(E1_Z) >= 2) & (np.abs(E1_Z) < 5)]
    assert z.size >= 200
    assert _rel(special.exp1(z), _ref(mpmath.e1, z)) <= TOL


def test_exp1_scaled_against_mpmath():
    want = _ref(lambda v: mpmath.exp(v) * mpmath.e1(v), E1_Z)
    assert _rel(special.exp1_scaled(E1_Z), want) <= TOL


def test_exp1_real_input_gives_real_output():
    x = np.geomspace(1e-3, 40, 30)
    got = special.exp1_scaled(x)
    assert got.dtype == float
    assert _rel(got, [float(mpmath.exp(v) * mpmath.e1(v)) for v in x]) <= TOL
    with np.errstate(divide="ignore"):
        assert special.exp1(np.array([0.0]))[0] == np.inf


def test_expi_against_mpmath():
    # Ei has a real root near 0.3725, so the error is taken relative to max(1, |Ei|)
    x = np.concatenate([np.geomspace(1e-6, 1, 30), np.linspace(0.01, 40, 300),
                        [0.3725074107813666]])
    assert _rel(special.expi(x), [float(mpmath.ei(v)) for v in x], 1.0) <= TOL


def test_log1p_small_complex():
    # the T = 0 Laplace form near s = +-Lam: np.log1p forms 1 + z first
    z = np.concatenate([[1e-12 * (1 + 1j), 1e-8 + 2e-8j, -1e-9 + 1e-9j],
                        1e-8 * np.exp(1j * RNG.uniform(0, 2 * np.pi, 50)),
                        0.25 * RNG.uniform(0, 1, 200)
                        * np.exp(1j * RNG.uniform(0, 2 * np.pi, 200))])
    want = _ref(mpmath.log1p, z)
    assert _rel(special.log1p(z), want) <= TOL
    assert _rel(np.log1p(z[:1]), want[:1]) > 1e-6


@pytest.mark.parametrize("k", [1, 2, 7, 39, 40, 41, 65, 1000, 120_001])
def test_hurwitz_zeta_against_mpmath(k):
    s = 3 + np.arange(12)
    with mpmath.workdps(60):
        want = [float(mpmath.zeta(v, k)) for v in s]
    assert _rel(special.zeta(s, k), want) <= TOL
    assert abs(special.zeta(3, k) - want[0]) <= TOL * want[0]


def test_bernoulli_literals():
    assert special.BERNOULLI.tolist() == [float(mpmath.bernoulli(n)) for n in range(21)]


@pytest.mark.parametrize("name", ["digamma", "exp1", "exp1_scaled", "expi", "log1p"])
def test_entries_do_not_depend_on_the_other_entries(name):
    # a stacked call and single points agree to the bit, as a ufunc's would
    f = getattr(special, name)
    z = {"digamma": DIGAMMA_Z, "expi": np.linspace(0.01, 40, 77),
         "log1p": 0.2 * np.exp(1j * np.linspace(0, 6, 33))}.get(name, E1_Z)
    stacked = f(z)
    assert np.array_equal(stacked, np.concatenate([f(z[i:i + 1]) for i in range(z.size)]))
    even = 2 * (z.size // 2)
    assert np.array_equal(f(z[:even].reshape(2, -1)).reshape(-1), stacked[:even])


def test_stieltjes_rule_integrates_e_to_the_minus_t():
    # the weights sum to int_0^inf e^{-t} dt and the first moment is int_0^inf t e^{-t} dt
    assert abs(special._E1_WEIGHTS.sum() - 1) <= 4e-16
    assert abs((special._E1_WEIGHTS * special._E1_NODES).sum() - 1) <= 1e-14
