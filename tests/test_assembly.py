"""The stacked gap assembly against per-element reference loops, and the
array form of the bath evaluators against stacked scalar calls."""

import numpy as np
import pytest
from scipy.linalg import expm

from oqsolve import bath, core, memkernel, positivity, tcl2

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])
OU2 = bath.ExponentialOU(c=0.05 * np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.8]]), lam=1.3)


def random_model(seed, d, b):
    rng = np.random.default_rng(seed)

    def herm():
        return core.herm_part(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))

    return tcl2.SystemModel(h=herm(), couplings=[herm() for _ in range(b.channels)], bath=b)


MODELS = {
    "qubit-thermal": lambda: tcl2.SystemModel(
        h=0.5 * SZ, couplings=[SX],
        bath=bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.25)),
    "d3-correlated-ou": lambda: random_model(1, 3, OU2),
    "d4-thermal": lambda: random_model(
        2, 4, bath.ThermalLorentz(gamma0=0.05, cutoff=3.0, temperature=0.5)),
    "d4-correlated-ou": lambda: random_model(3, 4, OU2),
    "equally-spaced-3": lambda: tcl2.SystemModel(
        h=np.diag([0.0, 1.0, 2.0]),
        couplings=[np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]])],
        bath=bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.3)),
}


# -- per-element references: one bath call per matrix element -----------------

def nearest_gap(m, g):
    u = m.unique_gaps
    return float(u[np.argmin(np.abs(u - g))])


def ref_second_order_ops(m, t):
    d, nch = m.dim, len(m.couplings)
    b = np.zeros((nch, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            g = nearest_gap(m, m.basis.gaps[i, j])
            a = m.bath.coefficient_stationary(g) if t is None else m.bath.coefficient_full(t, g)
            b[:, i, j] = a @ m.couplings_eb[:, i, j]
    return b


def ref_dissipator_eb(m, t):
    eye = np.eye(m.dim)
    s = 0
    for ln, bn in zip(m.couplings_eb, ref_second_order_ops(m, t)):
        s = s + core.superop_sandwich(ln, core.dag(bn)) + core.superop_sandwich(bn, ln)
        s = s - core.superop_sandwich(ln @ bn, eye) - core.superop_sandwich(eye, core.dag(bn) @ ln)
    return s


def to_input(m, s_eb):
    u = m.basis.vectors
    return core.superop_sandwich(u, core.dag(u)) @ s_eb @ core.superop_sandwich(core.dag(u), u)


def ref_build_L2(m, t):
    return core.commutator_superop(m.h) + to_input(m, ref_dissipator_eb(m, t))


def ref_interaction_L2(m, tau):
    phase = np.exp(1j * m.basis.gaps.reshape(-1) * tau)
    s_int = phase[:, None] * ref_dissipator_eb(m, tau) * np.conj(phase)[None, :]
    return to_input(m, s_int)


def ref_kernel_K2(m, s):
    d, nch = m.dim, len(m.couplings)
    gaps, leb = m.basis.gaps, m.couplings_eb
    k = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for j in range(d):
            sp = s + 1j * gaps[i, j]
            b = np.zeros((nch, d, d), dtype=complex)
            bd = np.zeros((nch, d, d), dtype=complex)
            for x in range(d):
                for y in range(d):
                    g, gc = nearest_gap(m, gaps[x, y]), nearest_gap(m, gaps[y, x])
                    b[:, x, y] = m.bath.laplace(sp + 1j * g) @ leb[:, x, y]
                    bd[:, x, y] = np.conj(m.bath.laplace(np.conj(sp) + 1j * gc)) @ leb[:, x, y]
            e = np.zeros((d, d), dtype=complex)
            e[i, j] = 1.0
            col = -1j * gaps[i, j] * e
            for n in range(nch):
                col += leb[n] @ e @ bd[n] + b[n] @ e @ leb[n]
                col -= leb[n] @ b[n] @ e + e @ bd[n] @ leb[n]
            k[:, i * d + j] = core.vec(col)
    return to_input(m, k)


def ref_plindblad_kernel_matrix(m):
    d, nch = m.dim, len(m.couplings)
    gaps, leb = m.basis.gaps, m.couplings_eb
    dmat = np.zeros((d * d, d * d), dtype=complex)
    for i in range(d):
        for ip in range(d):
            for j in range(d):
                for jp in range(d):
                    a1 = m.bath.coefficient_stationary(nearest_gap(m, gaps[i, ip]))
                    a2 = m.bath.coefficient_stationary(nearest_gap(m, gaps[j, jp]))
                    dmat[i * d + ip, j * d + jp] = sum(
                        (a1[n, mm] + np.conj(a2[mm, n])) * leb[mm, i, ip] * np.conj(leb[n, j, jp])
                        for n in range(nch) for mm in range(nch)
                    )
    return dmat


def ref_magnus_delta(m, t):
    """Delta = Y + Y^dag from the integrated gap-pair table X = coefficient_integral(t),
    with Y the traceless-gauge Choi matrix of the terms B_n e_ij L_n alone, entry by
    entry: S[(x,y),(i,j)] = sum_nm L_m[x,i] X[g(x,i), g(j,y)]_nm L_n[j,y]."""
    d, nch, leb = m.dim, len(m.couplings), m.couplings_eb
    table, _ = m.bath.coefficient_integral(t, m.unique_gaps)

    def index(i, j):
        return int(np.flatnonzero(m.unique_gaps == nearest_gap(m, m.basis.gaps[i, j]))[0])

    s = np.zeros((d, d, d, d), dtype=complex)
    for x, y, i, j in np.ndindex(d, d, d, d):
        a = table[index(x, i), index(j, y)]
        s[x, y, i, j] = sum(leb[mm, x, i] * a[n, mm] * leb[n, j, y]
                            for n in range(nch) for mm in range(nch))
    y = tcl2.canonical_coefficient_matrix(to_input(m, s.reshape(d * d, d * d)))
    return y + core.dag(y)


def assert_close(got, want, tol=1e-13):
    assert got.shape == want.shape
    scale = max(1.0, float(np.max(np.abs(want))))
    assert np.max(np.abs(got - want)) <= tol * scale


@pytest.mark.parametrize("name", MODELS)
class TestStackedAssembly:
    def test_gap_index_matches_nearest_gap(self, name):
        m = MODELS[name]()
        for (i, j), q in np.ndenumerate(m.gap_index):
            assert m.unique_gaps[q] == nearest_gap(m, m.basis.gaps[i, j])

    def test_build_L2(self, name):
        m = MODELS[name]()
        assert_close(tcl2.build_L2(m, None), ref_build_L2(m, None))
        assert_close(tcl2.build_L2(m, 0.7), ref_build_L2(m, 0.7))
        assert_close(tcl2.build_L2(m, 1e-6), ref_build_L2(m, 1e-6))

    def test_dissipative_superop_eb(self, name):
        # one contraction of the cached generator tensor per build
        m = MODELS[name]()
        for t in (None, 1e-6, 0.7):
            assert_close(tcl2._dissipative_superop_eb(m, t), ref_dissipator_eb(m, t))

    def test_pair_error_gain_bounds_the_dense_column_sums(self, name):
        # the dense map from a gap-pair table to _pair_superop in the input basis: the
        # largest column sum of its modulus, plus the conjugate partner's, is the least
        # entrywise gain; the energy-basis bound may exceed it, by 1.00-1.39x on these models
        m = MODELS[name]()
        d, ng = m.dim, m.unique_gaps.size
        f = (m.gap_index == np.arange(ng)[:, None, None])[:, None] * m.couplings_eb
        c = np.einsum("amxi,bnjy->abnmxyij", f, f)
        c -= np.einsum("amki,bnxk->abnmxi", f, f)[..., None, :, None] * np.eye(d)[:, None, :]
        c = m.to_input @ c.reshape(-1, d * d, d * d) @ m.to_energy
        col = np.abs(c).sum(0).reshape(d, d, d, d)
        dense = np.max(col + col.transpose(1, 0, 3, 2))
        assert dense * (1 - 1e-12) <= m.pair_error_gain <= 1.5 * dense
        # _pair_superop is linear in the table: entries of at most 1 give at most the gain
        rng = np.random.default_rng(0)
        nch = len(m.couplings)
        x = rng.normal(size=(ng, ng, nch, nch)) + 1j * rng.normal(size=(ng, ng, nch, nch))
        x /= np.max(np.abs(x))
        assert np.max(np.abs(tcl2._pair_superop(m, x))) <= m.pair_error_gain

    def test_interaction_L2(self, name):
        m = MODELS[name]()
        for tau in (0.05, 0.9, 3.0):
            assert_close(tcl2.interaction_L2(m, tau), ref_interaction_L2(m, tau))

    def test_magnus_delta(self, name):
        # Delta read off Phi2 against the identity Y + Y^dag on the gap-pair table
        m = MODELS[name]()
        for t in (0.5, 3.0):
            want = ref_magnus_delta(m, t)
            got = positivity.magnus_phi2(m, t).delta
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_kernel_K2(self, name):
        m = MODELS[name]()
        for s in (0.3 + 0.2j, 1e-3, 2.0 - 1.5j):
            assert_close(memkernel.kernel_K2(m, s), ref_kernel_K2(m, s))

    def test_interaction_dissipator_samples(self, name):
        # the stacked grid path against one reference generator per tau, and
        # against the microscopic form sum_n vec(B_n) vec(L_n)^dag + h.c. with
        # B_n, L_n the traceless interaction-picture operators, which
        # annihilates vec(1) on both sides
        m = MODELS[name]()
        d, grid = m.dim, np.linspace(0.0, 3.0, 7)
        got = positivity.interaction_dissipator_samples(m, grid)
        assert got.shape == (7, m.dim**2, m.dim**2)
        one = core.vec(np.eye(d))
        for tau, s in zip(grid, got):
            want = core.herm_part(tcl2.canonical_coefficient_matrix(ref_interaction_L2(m, tau)))
            assert_close(s, want)
            u0 = expm(-1j * m.h * tau)

            def traceless_int(x_eb):
                x = core.dag(u0) @ m.basis.from_energy_basis(x_eb) @ u0
                return core.vec(x - np.trace(x) / d * np.eye(d))

            want = 0
            for leb, beb in zip(m.couplings_eb, ref_second_order_ops(m, tau)):
                b, l = traceless_int(beb), traceless_int(leb)
                want = want + np.outer(b, np.conj(l)) + np.outer(l, np.conj(b))
            assert_close(s, want)
            assert_close(s @ one, np.zeros(d * d))
            assert_close(one @ s, np.zeros(d * d))

    def test_plindblad_kernel_matrix(self, name):
        m = MODELS[name]()
        assert_close(tcl2.microscopic_pseudo_lindblad(m, None).D, ref_plindblad_kernel_matrix(m))


def test_equally_spaced_gaps_merge():
    m = MODELS["equally-spaced-3"]()
    assert m.unique_gaps.size == 5
    assert m.gap_index[0, 1] == m.gap_index[1, 2]


# -- array arguments of the bath evaluators ------------------------------------

def tabulated():
    t = np.linspace(0.0, 12.0, 121)
    return bath.Tabulated(t, 0.1 * np.exp(-(0.8 + 0.3j) * t))


BATHS = {
    "white": lambda: bath.WhiteNoise(c=[[0.4, 0.1], [0.1, 0.3]]),
    "ou": lambda: OU2,
    "thermal": lambda: bath.ThermalLorentz(
        gamma0=[0.1, 0.2], cutoff=[5.0, 2.0], temperature=[0.25, 1.0], n_channels=2),
    "thermal-t0-mixed": lambda: bath.ThermalLorentz(
        gamma0=0.1, cutoff=5.0, temperature=[0.0, 0.4], n_channels=2),
    "tabulated": tabulated,
}


def assert_stack_equal(got, scalars, scale=None):
    want = np.array(scalars)
    assert got.shape == want.shape
    scale = float(np.max(np.abs(want))) if scale is None else scale
    assert np.max(np.abs(got - want)) <= 1e-15 * scale


@pytest.mark.parametrize("name", BATHS)
class TestArrayArguments:
    W = np.array([-2.0, -0.5, 0.0, 0.7, 3.0])

    def test_laplace(self, name):
        b = BATHS[name]()
        s = np.array([0.3 + 0.2j, 1.1, 2.0 - 1.0j, 0.5j, 0.05 - 3.0j])
        assert_stack_equal(b.laplace(s), [b.laplace(x) for x in s])

    def test_coefficient_stationary(self, name):
        b = BATHS[name]()
        assert_stack_equal(b.coefficient_stationary(self.W),
                           [b.coefficient_stationary(w) for w in self.W])

    def test_coefficient_full(self, name):
        # relative to the stationary coefficients A(inf; w): at small t, A(t; w)
        # is their difference with a sum of about the same size
        b = BATHS[name]()
        w = self.W[[0, 2, 3]] if name == "thermal-t0-mixed" else self.W
        times = (0.0, 2.0) if name == "thermal-t0-mixed" else (0.0, 1e-6, 1e-3, 0.4, 2.0, 9.0)
        scale = float(np.max(np.abs(b.coefficient_stationary(w))))
        for t in times:
            assert_stack_equal(b.coefficient_full(t, w), [b.coefficient_full(t, x) for x in w],
                               scale)

    def test_alpha_time_mixed_signs(self, name):
        b = BATHS[name]()
        t = np.array([0.4, -0.4, 2.0, -3.5, 7.0, -1e-3])
        got = b.alpha_time(t)
        assert_stack_equal(got, [b.alpha_time(x) for x in t])
        assert np.array_equal(b.alpha_time(-t), np.conj(got).swapaxes(-1, -2))

    def test_alpha_spectrum(self, name):
        b = BATHS[name]()
        assert_stack_equal(b.alpha_spectrum(self.W), [b.alpha_spectrum(w) for w in self.W])

    def test_gamma_spectrum(self, name):
        b = BATHS[name]()
        assert_stack_equal(b.gamma_spectrum(self.W), [b.gamma_spectrum(w) for w in self.W])

    def test_negative_times_rejected(self, name):
        b = BATHS[name]()
        for t in (-1.0, np.array([0.5, -1e-9])):
            with pytest.raises(ValueError, match=r"^coefficient_full requires t >= 0$"):
                b.coefficient_full(t, self.W)
        with pytest.raises(ValueError, match=r"^coefficient_integral requires t >= 0$"):
            b.coefficient_integral(-1.0, self.W)


def test_thermal_array_laplace_rejects_poles_and_nudges_like_scalars():
    b = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.25)
    a = 2 * np.pi * 0.25
    with pytest.raises(ValueError, match="pole"):
        b.laplace(np.array([1.0, -5.0]))
    with pytest.raises(ValueError, match="pole"):
        b.laplace(np.array([0.5j, -3 * a]))
    s = np.array([5.0, 5.0 * (1 + 1e-11), -5.0 * (1 + 1e-11)])
    assert_stack_equal(b.laplace(s), [b.laplace(x) for x in s])


def test_ou_array_laplace_rejects_pole():
    with pytest.raises(ValueError, match="pole"):
        OU2.laplace(np.array([0.2, -1.3]))
