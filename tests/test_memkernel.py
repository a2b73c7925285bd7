import numpy as np
import pytest
from scipy.linalg import expm

from oqsolve import bath, core, memkernel, spectral, tcl2

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])


def qubit_model(gamma0=0.1):
    b = bath.ThermalLorentz(gamma0=gamma0, cutoff=5.0, temperature=0.25)
    return tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=b)


def three_level_model(seed=12):
    rng = np.random.default_rng(seed)
    h = np.diag([0.0, 0.9, 2.1])
    l = core.herm_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    b = bath.ThermalLorentz(gamma0=0.05, cutoff=4.0, temperature=0.4)
    return tcl2.SystemModel(h=h, couplings=[l], bath=b)


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
        b = bath.ExponentialOU(c=[[0.1]], lam=1.0)
        m = tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=b)
        # s' + i g hits -lam for a suitable s
        with pytest.raises(ValueError, match="pole"):
            memkernel.kernel_K2(m, -1.0 + 1j)


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

    def test_asymptotic_state_near_gibbs(self):
        m = qubit_model(gamma0=0.05)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        rho_inf = memkernel.asymptotic_state(m, rho0)
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
            memkernel.asymptotic_state(m, np.diag([1.0, 0.0]).astype(complex))


class TestTalbot:
    def test_scalar_exponential(self):
        for t in (0.5, 2.0, 10.0):
            got = memkernel.talbot_invert(lambda s: 1.0 / (s + 0.7), t)
            assert abs(got - np.exp(-0.7 * t)) < 1e-4

    def test_complex_signal(self):
        # oscillatory signal requires the unfolded contour
        z = 0.3 + 2.1j
        got = memkernel.talbot_invert(lambda s: 1.0 / (s + z), 1.5)
        assert abs(got - np.exp(-z * 1.5)) < 1e-4

    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            memkernel.talbot_invert(lambda s: 1.0 / s, 0.0)

    def test_default_nodes_near_round_off_optimum(self):
        for t in (0.5, 2.0, 10.0):
            assert abs(memkernel.talbot_invert(lambda s: 1.0 / s, t) - 1.0) < 1e-6
            got = memkernel.talbot_invert(lambda s: 1.0 / (s + 0.7), t)
            assert abs(got - np.exp(-0.7 * t)) < 1e-6

    def test_trajectory_matches_direct_integration(self):
        # the resummed orders differ, so agreement is at the coupling scale
        m = qubit_model(gamma0=0.02)
        rho0 = np.array([[0.8, 0.3], [0.3, 0.2]], dtype=complex)
        grid = np.array([0.0, 1.0, 4.0])
        states = memkernel.laplace_trajectory(m, rho0, grid)
        traj = tcl2.propagate(m, rho0, grid, mode="full-time", rtol=1e-11, atol=1e-13)
        assert np.array_equal(states[0], rho0)
        assert np.max(np.abs(states - traj.states)) < 5e-3
