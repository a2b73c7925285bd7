import numpy as np
import pytest
from scipy.linalg import expm

from oqsolve import bath, core, memkernel, spectral, tcl2

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])


def qubit_model(gamma0=0.1, temperature=0.25):
    b = bath.ThermalLorentz(gamma0=gamma0, cutoff=5.0, temperature=temperature)
    return tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=b)


def three_level_model(seed=12, temperature=0.4):
    rng = np.random.default_rng(seed)
    h = np.diag([0.0, 0.9, 2.1])
    l = core.herm_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    b = bath.ThermalLorentz(gamma0=0.05, cutoff=4.0, temperature=temperature)
    return tcl2.SystemModel(h=h, couplings=[l], bath=b)


def two_channel_ou_model(seed=5):
    rng = np.random.default_rng(seed)
    ls = [core.herm_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) for _ in range(2)]
    b = bath.ExponentialOU(c=[[0.06, 0.02], [0.02, 0.05]], lam=1.3)
    return tcl2.SystemModel(h=np.diag([-0.8, 0.1, 1.0]), couplings=ls, bath=b)


STACK_MODELS = {
    "ou": lambda: tcl2.SystemModel(h=0.5 * SZ, couplings=[SX],
                                   bath=bath.ExponentialOU(c=[[0.1]], lam=1.0)),
    "ou-two-channel": two_channel_ou_model,
    "thermal": three_level_model,
    "thermal-t0": lambda: three_level_model(temperature=0.0),
    "white": lambda: tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=bath.WhiteNoise(c=[0.4])),
}


def pure_state(v):
    v = np.asarray(v, dtype=complex)
    v = v / np.linalg.norm(v)
    return np.outer(v, v.conj())


def ou_dephasing_residues(hdiag, ldiags, c, lam, rho0, times):
    """Pure dephasing (diagonal H and couplings) under an OU bath c e^{-lam|t|}:
    the second-order time-nonlocal solution rho^_ij(s) = rho_ij(0) / (u + q/(lam + u)),
    u = s + i w_ij, q = D^T c D with D_n = l_n[i] - l_n[j], inverted by its two
    residues u1, u2 (roots of u^2 + lam u + q)."""
    hdiag, ldiags = np.asarray(hdiag, dtype=float), np.asarray(ldiags, dtype=float)
    w = hdiag[:, None] - hdiag[None, :]
    dl = ldiags[:, :, None] - ldiags[:, None, :]
    q = np.einsum("nij,nm,mij->ij", dl, np.atleast_2d(c), dl)
    disc = np.sqrt(lam**2 - 4 * q + 0j)
    u1, u2 = (-lam + disc) / 2, (-lam - disc) / 2
    t = np.asarray(times, dtype=float)[:, None, None]
    val = ((lam + u1) * np.exp(u1 * t) - (lam + u2) * np.exp(u2 * t)) / (u1 - u2)
    return rho0 * np.exp(-1j * w * t) * val


# (h diagonal, coupling diagonals, c, lam, rho0): one channel at d = 2, two
# correlated channels at d = 3
OU_DEPHASING = {
    "d2": ([0.5, -0.5], [[1.0, -1.0]], [[0.075]], 1.2, pure_state([0.8, 0.6j])),
    "d3-two-channel": ([-0.9, 0.1, 0.8], [[-1.0, 0.1, 1.0], [0.9, -1.0, 0.05]],
                       [[0.04, 0.012], [0.012, 0.035]], 1.2, pure_state([0.6, 0.48 + 0.3j, -0.5])),
}


class TestKernelStructure:
    def test_preserves_trace_and_hermiticity(self):
        m = three_level_model()
        for s in (0.3, 0.5 + 1.2j):
            k = memkernel.kernel_K2(m, s)
            assert core.trace_preservation_defect(k, generator=True) < 1e-10

    def test_white_noise_kernel_is_s_independent(self):
        m = tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=bath.WhiteNoise(c=[0.4]))
        k1 = memkernel.kernel_K2(m, 0.1)
        k2 = memkernel.kernel_K2(m, 3.0 + 2.0j)
        assert np.max(np.abs(k1 - k2)) == 0.0
        # and equals the (time-independent) time-local generator
        assert np.allclose(k1, tcl2.build_L2(m, None), atol=1e-13)

    def test_shift_identity_reproduces_time_local_columns(self):
        # K2(-i w_ij) applied to e_ij equals the stationary TCL2 column
        m = three_level_model()
        d = m.dim
        k_loc = tcl2.build_L2(m, None)
        u = m.basis.vectors
        k_loc_eb = core.superop_sandwich(core.dag(u), u) @ k_loc \
            @ core.superop_sandwich(u, core.dag(u))
        for i in range(d):
            for j in range(d):
                s = -1j * m.basis.gaps[i, j]
                col = memkernel._kernel_eb(m, s)[:, i * d + j]
                assert np.max(np.abs(col - k_loc_eb[:, i * d + j])) < 1e-12

    def test_basis_argument_consistency(self):
        m = three_level_model()
        s = 0.7 + 0.4j
        k_eb = memkernel._kernel_eb(m, s)
        k_in = memkernel.kernel_K2(m, s)
        assert np.array_equal(k_in, m.to_input @ k_eb @ m.to_energy)
        u = m.basis.vectors
        sand = core.superop_sandwich(u, core.dag(u))
        assert np.allclose(k_in, sand @ k_eb @ np.conj(sand).T, atol=1e-12)

    def test_pole_error_is_contextual(self):
        m = STACK_MODELS["ou"]()
        # s' + i g hits -lam for a suitable s; on a stack the message names that point
        for s in (-1.0 + 1j, np.array([0.5, -1.0 + 1j, 2.0 + 0.5j])):
            for f in (memkernel.kernel_K2, memkernel.resolvent):
                with pytest.raises(ValueError, match=r"pole at s = \(-1\+1j\): "):
                    f(m, s)


@pytest.mark.parametrize("name", STACK_MODELS)
class TestStackedKernel:
    S = np.array([1e-4, 0.3, 0.5 + 1.2j, -0.2 + 3.0j, 2.0 - 0.7j, 0.4j])

    @pytest.mark.parametrize("f", [memkernel._kernel_eb, memkernel.kernel_K2, memkernel.resolvent])
    def test_stack_equals_single_points(self, name, f):
        m = STACK_MODELS[name]()
        stack = f(m, self.S)
        assert stack.shape == (self.S.size, m.dim**2, m.dim**2)
        tol = 1e-14 * np.max(np.abs(stack))
        for s, got in zip(self.S, stack):
            assert np.max(np.abs(got - f(m, s))) <= tol

    def test_poles_read_the_single_point_kernels(self, name):
        # column (i, j) at s = -i u_q, q its gap class
        m = STACK_MODELS[name]()
        d, u, q = m.dim, m.unique_gaps, m.gap_index
        poles = memkernel.nonlocal_poles(m)
        for (i, j), pole in poles.items():
            want = memkernel._kernel_eb(m, -1j * u[q[i, j]])[i * d + j, i * d + j]
            assert abs(pole - want) <= 1e-14 * max(1.0, abs(want))


class TestPolesAndSpectrum:
    def test_pole_locations_match_time_local_shifts(self):
        m = three_level_model()
        spec = spectral.perturbative_spectrum(m)
        poles = memkernel.nonlocal_poles(m)
        for (i, j) in spec.pairs:
            assert abs(poles[(i, j)] - spec.f[(i, j)]) < 1e-10

    def test_nonlocal_pauli_matches_w_at_zero_frequency_gap(self):
        m = three_level_model()
        ps = spectral.pauli_system(m)
        # population block V(s)_ij = <i| K2(s){e_jj} |i> in the energy basis
        d = m.dim
        v = np.einsum("iijj->ij", memkernel._kernel_eb(m, 1e-9).reshape(d, d, d, d))
        assert np.max(np.abs(v.real - ps.W)) < 1e-6


class TestResolvent:
    def test_resolvent_final_value_gives_trace_one(self):
        m = qubit_model()
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        s = 1e-4
        x = s * (memkernel.resolvent(m, s) @ core.vec(rho0))
        assert abs(np.sum(x[[0, 3]]) - 1.0) < 1e-10

    def test_solve_matches_resolvent(self):
        # laplace_trajectory solves s - K2(s) against one vector
        m = three_level_model()
        y = core.vec(np.diag([0.5, 0.3, 0.2]) + 0.1 * np.eye(3, k=1) + 0.1 * np.eye(3, k=-1))
        s = np.array([0.3 + 0.2j, 1e-3, 2.0 - 1.5j])
        want = memkernel.resolvent(m, s) @ y
        for got in (memkernel._resolvent_apply(m, s, y),
                    [memkernel._resolvent_apply(m, x, y) for x in s]):
            assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * np.max(np.abs(want))

    def test_asymptotic_state_near_gibbs(self):
        m = qubit_model(gamma0=0.05)
        rho_inf = memkernel.asymptotic_state(m)
        gibbs = expm(-m.h / 0.25)
        gibbs /= np.trace(gibbs)
        assert abs(np.trace(rho_inf) - 1.0) < 1e-8
        assert np.max(np.abs(rho_inf - gibbs)) < 5e-3

    def test_asymptotic_state_rejects_decoupled_model(self):
        m = tcl2.SystemModel(
            h=np.diag([0.0, 1.0]),
            couplings=[np.zeros((2, 2))],
            bath=bath.ThermalLorentz(gamma0=0.05, cutoff=4.0, temperature=0.4),
        )
        with pytest.raises(ValueError, match="asymptotic state"):
            memkernel.asymptotic_state(m)


def dark_state_model():
    # H = diag(0, 1, 1), L = |0><1| + |0><2| + h.c.: (|1> - |2>)/sqrt(2) never decays; the
    # Pauli sector alone sees one stationary state, as the coherence between levels 1 and 2
    # holds the second
    l = np.zeros((3, 3))
    l[0, 1:] = 1.0
    return tcl2.SystemModel(h=np.diag([0.0, 1.0, 1.0]), couplings=[l + l.T],
                            bath=bath.ThermalLorentz(gamma0=0.05, cutoff=4.0, temperature=0.4))


UNIQUE_STATE_MODELS = {
    **{f"t0-seed{seed}": (lambda seed=seed: three_level_model(seed, 0.0)) for seed in range(12)},
    **STACK_MODELS,
    **{f"qubit-T{t}": (lambda t=t: qubit_model(temperature=t)) for t in (0.25, 0.05, 0.0)},
}


class TestAsymptoticState:
    @pytest.mark.parametrize("name", UNIQUE_STATE_MODELS)
    def test_null_vector_of_the_zero_frequency_kernel(self, name):
        m = UNIQUE_STATE_MODELS[name]()
        rho = memkernel.asymptotic_state(m)
        k, y = memkernel.kernel_K2(m, 0.0), core.vec(rho)
        assert np.linalg.norm(k @ y) <= 1e-13 * np.linalg.norm(k, 2) * np.linalg.norm(y)
        assert abs(np.trace(rho) - 1.0) <= 1e-14
        assert np.array_equal(rho, core.dag(rho))

    @pytest.mark.parametrize("temperature", [0.1, 0.05, 0.02])
    def test_low_temperature_populations_are_boltzmann(self, temperature):
        # the rates Re A(+-1) that K2(0) reads on the axis hold the KMS ratio e^{1/T} to
        # round-off, so the upper population is e^{-1/T} / (1 + e^{-1/T}) to round-off
        # too, 1.9e-22 at T = 0.02; the digamma form's real parts read 1.1e-11 and 1.7e-7
        # relative off at T = 0.1 and 0.05, and 0 at T = 0.02
        rho = memkernel.asymptotic_state(qubit_model(temperature=temperature))
        want = np.exp(-1 / temperature) / (1 + np.exp(-1 / temperature))
        assert abs(rho[0, 0].real - want) <= 1e-12 * want

    @pytest.mark.parametrize("m", [qubit_model(), three_level_model(2, 0.0)],
                             ids=["qubit", "t0-seed2"])
    def test_is_the_final_value_of_the_resolvent(self, m):
        # s [s - K2(s)]^{-1} vec(rho0) approaches the null vector linearly in s
        rho0 = core.vec(pure_state(np.arange(1.0, m.dim + 1)))
        s = 1e-9
        got = core.unvec(s * memkernel._resolvent_apply(m, s, rho0), m.dim)
        assert np.max(np.abs(got - memkernel.asymptotic_state(m))) < 1e-6

    @pytest.mark.parametrize("make", [
        dark_state_model,
        lambda: tcl2.SystemModel(h=np.diag([0.0, 1.0]), couplings=[SZ],
                                 bath=bath.ThermalLorentz(gamma0=0.05, cutoff=4.0,
                                                          temperature=0.4)),
    ], ids=["dark-state", "dephasing"])
    def test_rejects_a_degenerate_null_space(self, make):
        m = make()
        with pytest.raises(ValueError, match="no unique asymptotic state: K2[(]0[)] has a "
                                             "2-dimensional null space"):
            memkernel.asymptotic_state(m)


class TestTalbot:
    def test_scalar_exponential(self):
        for t in (0.5, 2.0, 10.0):
            got = memkernel.talbot_invert(lambda s: 1.0 / (s + 0.7), t)
            assert abs(got - np.exp(-0.7 * t)) < 2e-7

    def test_complex_signal(self):
        # oscillatory signal requires the unfolded contour
        z = 0.3 + 2.1j
        got = memkernel.talbot_invert(lambda s: 1.0 / (s + z), 1.5)
        assert abs(got - np.exp(-z * 1.5)) < 2e-7

    def test_one_call_on_the_whole_contour(self):
        calls = []

        def fhat(s):
            calls.append(s.shape)
            return np.stack([1.0 / (s + 0.7), 2.0 / (s + 0.3)], axis=-1)

        got = memkernel.talbot_invert(fhat, 2.0)
        assert calls == [(48,)]
        assert np.max(np.abs(got - [np.exp(-1.4), 2.0 * np.exp(-0.6)])) < 2e-7

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            memkernel.talbot_invert(lambda s: 1.0 / s, 0.0)

    def test_default_nodes_near_round_off_optimum(self):
        for t in (0.5, 2.0, 10.0):
            assert abs(memkernel.talbot_invert(lambda s: 1.0 / s, t) - 1.0) < 2e-7
            got = memkernel.talbot_invert(lambda s: 1.0 / (s + 0.7), t)
            assert abs(got - np.exp(-0.7 * t)) < 2e-7

    def test_trajectory_matches_direct_integration(self):
        # the resummed orders differ, so agreement is at the coupling scale
        m = qubit_model(gamma0=0.02)
        rho0 = np.array([[0.8, 0.3], [0.3, 0.2]], dtype=complex)
        grid = np.array([0.0, 1.0, 4.0])
        states = memkernel.laplace_trajectory(m, rho0, grid)
        traj = tcl2.propagate(m, rho0, grid, mode="full-time", rtol=1e-11, atol=1e-13)
        assert np.array_equal(states[0], rho0)
        assert np.max(np.abs(states - traj.states)) < 5e-3

    @pytest.mark.parametrize("name", OU_DEPHASING)
    def test_ou_dephasing_matches_residue_inversion(self, name, monkeypatch):
        hdiag, ldiags, c, lam, rho0 = OU_DEPHASING[name]
        m = tcl2.SystemModel(h=np.diag(hdiag), couplings=[np.diag(l) for l in ldiags],
                             bath=bath.ExponentialOU(c=c, lam=lam))
        grid = np.array([0.0, 0.5, 2.0, 4.0])
        calls = []
        kernel = memkernel.kernel_K2
        monkeypatch.setattr(memkernel, "kernel_K2", lambda m, s: calls.append(s.shape) or kernel(m, s))
        states = memkernel.laplace_trajectory(m, rho0, grid)
        # one stacked kernel (and solve) per positive output time
        assert calls == [(48,)] * 3
        want = ou_dephasing_residues(hdiag, ldiags, c, lam, rho0, grid)
        assert np.max(np.abs(states - want)) < 1e-7
