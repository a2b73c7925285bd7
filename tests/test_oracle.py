import numpy as np
import pytest
from scipy.linalg import expm

from oqsolve import bath, core, oracle, tcl2


def small_composite(seed=5, g=0.1):
    return oracle.random_composite(seed, dim=3, n_qubits=3, g=g, temperature=2.0)


def basis_state(d, k=0):
    rho = np.zeros((d, d), dtype=complex)
    rho[k, k] = 1.0
    return rho


class TestCompositeModel:
    def test_dimension_cap(self):
        with pytest.raises(ValueError, match="cap"):
            oracle.random_composite(0, dim=3, n_qubits=8)

    def test_env_state_is_thermal(self):
        c = small_composite()
        rho = c.env_state
        assert abs(np.trace(rho) - 1.0) < 1e-12
        assert np.max(np.abs(rho @ c.env_h - c.env_h @ rho)) < 1e-12
        want = expm(-c.env_h / 2.0)
        want /= np.trace(want)
        assert np.allclose(rho, want, atol=1e-10)

    def test_coupling_list_mismatch_rejected(self):
        c = small_composite()
        with pytest.raises(ValueError, match="match"):
            oracle.CompositeModel(
                h=c.h, couplings=c.couplings, env_h=c.env_h,
                env_couplings=[], g=0.1,
            )

    def test_with_coupling_rescales_only_g(self):
        c = small_composite(g=0.1)
        c2 = c.with_coupling(0.05)
        assert c2.g == 0.05
        assert np.array_equal(c2.h, c.h)


class TestSpinChainEnvironment:
    def test_splitting_count_validation(self):
        with pytest.raises(ValueError, match="splitting"):
            oracle.spin_chain_environment(3, [1.0, 2.0])

    def test_hermitian_outputs(self):
        env_h, l = oracle.spin_chain_environment(
            3, [1.0, 1.5, 2.0], chain_coupling=0.1, site_weights=[0.5, 0.4, 0.3]
        )
        assert np.allclose(env_h, core.dag(env_h))
        assert np.allclose(l, core.dag(l))
        assert env_h.shape == (8, 8)


class TestExactDynamics:
    def test_reduced_trajectory_is_physical(self):
        c = small_composite()
        grid = np.linspace(0.0, 5.0, 6)
        states = oracle.exact_reduced_trajectory(c, basis_state(3), grid)
        for rho in states:
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.max(np.abs(rho - core.dag(rho))) < 1e-12
            assert np.linalg.eigvalsh(core.herm_part(rho))[0] > -1e-12

    def test_zero_coupling_reduces_to_unitary(self):
        c = small_composite().with_coupling(0.0)
        rho0 = basis_state(3)
        t = 2.3
        states = oracle.exact_reduced_trajectory(c, rho0, [t])
        u = expm(-1j * c.h * t)
        assert np.allclose(states[0], u @ rho0 @ core.dag(u), atol=1e-11)

    def test_two_time_at_equal_zero_times(self):
        c = small_composite()
        rng = np.random.default_rng(3)
        x1 = core.herm_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        x2 = core.herm_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        rho0 = basis_state(3)
        got = oracle.exact_two_time(c, x1, 0.0, x2, 0.0, rho0)
        assert got == pytest.approx(complex(np.trace(x1 @ x2 @ rho0)), abs=1e-12)


class TestExactAlpha:
    def test_stationarity_and_hermiticity(self):
        c = small_composite()
        a_fwd = oracle.exact_alpha(c, [0.7])
        a_bwd = oracle.exact_alpha(c, [-0.7])
        assert np.allclose(a_fwd[0], core.dag(a_bwd[0]), atol=1e-12)
        a0 = oracle.exact_alpha(c, [0.0])[0]
        assert np.linalg.eigvalsh(core.herm_part(a0))[0] > -1e-12

    def test_matches_environment_two_time_average(self):
        c = small_composite()
        t = 1.1
        a = oracle.exact_alpha(c, [t])[0, 0, 0]
        w, u = np.linalg.eigh(c.env_h)
        l = core.dag(u) @ c.env_couplings[0] @ u
        rho = core.dag(u) @ c.env_state @ u
        phase = np.exp(1j * w * t)
        lt = (phase[:, None] * l) * np.conj(phase)[None, :]
        assert a == pytest.approx(complex(np.trace(lt @ l @ rho)), abs=1e-12)

    def test_reduced_bath_matches_environment_trace_formula(self):
        # two channels: alpha_nm(t) = Tr_E[e^{iH_E t} l_n e^{-iH_E t} l_m rho_E],
        # propagated by expm, against the exponential sum of the reduced bath
        base = small_composite()
        env_l2 = core.herm_part(np.random.default_rng(8).normal(size=base.env_h.shape))
        c = oracle.CompositeModel(h=base.h, couplings=[base.couplings[0], base.h],
                                  env_h=base.env_h, env_couplings=[base.env_couplings[0], env_l2],
                                  g=0.1, temperature=2.0)
        b = oracle.reduced_model(c).bath
        assert isinstance(b, bath.ExponentialOU) and b.channels == 2
        assert np.all(b.lam.real == 0) and len(np.unique(b.lam)) == len(b.lam)
        for t in (0.0, 0.7, 3.0, 11.5, -2.2):
            u = expm(1j * c.env_h * t)
            want = np.array([[np.trace(u @ ln @ u.conj().T @ lm @ c.env_state)
                              for lm in c.env_couplings] for ln in c.env_couplings])
            assert np.max(np.abs(b.alpha_time(t) - want)) <= 1e-13 * np.max(np.abs(want)), t
            assert np.array_equal(oracle.exact_alpha(c, [t])[0], b.alpha_time(t))

    def test_reduced_bath_has_no_stationary_limit(self):
        b = oracle.reduced_model(small_composite()).bath
        for call in (lambda: b.laplace(0.5), lambda: b.laplace(np.array([0.5, 1j])),
                     lambda: b.coefficient_stationary(1.0), lambda: b.alpha_spectrum(1.0)):
            with pytest.raises(ValueError, match="no t -> inf limit"):
                call()
        # A(t; w) at an environment frequency grows like t: E(0, t) = t, not 0/0; so
        # does the gap-pair table's term there, whose closed form divides by z_k + iw
        w = np.array([0.0, -float(b.lam[1].imag)])
        assert np.all(np.isfinite(b.coefficient_full(2.0, w)))
        table, err = b.coefficient_integral(1.0, w)
        assert np.all(np.isfinite(table)) and err < 1e-10


class TestConvergence:
    def test_reduced_model_shape(self):
        c = small_composite()
        m = oracle.reduced_model(c)
        assert isinstance(m, tcl2.SystemModel)
        assert isinstance(m.bath, bath.ExponentialOU)
        assert np.allclose(m.couplings[0], c.g * c.couplings[0])

    def test_error_ratio_shows_fourth_order_convergence(self):
        c = small_composite(seed=11, g=0.12)
        errs = oracle.convergence_errors(c, basis_state(3), horizon=6.0, npoints=13)
        assert errs[0] / errs[1] > 10.0
