import numpy as np
import pytest

from oqsolve import bath, core, spectral, tcl2

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])


def qubit_model(gamma0=0.1, temperature=0.25):
    b = bath.ThermalLorentz(gamma0=gamma0, cutoff=5.0, temperature=temperature)
    return tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=b)


def three_level_model(scale=1.0, temperature=0.4, seed=12):
    rng = np.random.default_rng(seed)
    h = np.diag([0.0, 0.9, 2.1])
    l = scale * core.herm_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    b = bath.ThermalLorentz(gamma0=0.05, cutoff=4.0, temperature=temperature)
    return tcl2.SystemModel(h=h, couplings=[l], bath=b)


class TestPauliSystem:
    def test_column_sums_vanish(self):
        ps = spectral.pauli_system(three_level_model())
        assert np.max(np.abs(ps.W.sum(axis=0))) < 1e-14

    def test_offdiagonal_rates_nonnegative(self):
        ps = spectral.pauli_system(three_level_model())
        w = ps.W.copy()
        np.fill_diagonal(w, 0.0)
        assert np.min(w) > -1e-14

    def test_qubit_rate_ratio_is_boltzmann(self):
        m = qubit_model()
        ps = spectral.pauli_system(m)
        # ground state is index 0 (energies ascending); downward / upward rate
        assert ps.W[0, 1] / ps.W[1, 0] == pytest.approx(np.exp(1.0 / 0.25), rel=1e-10)

    def test_stationary_vector_is_gibbs(self):
        m = three_level_model()
        ps = spectral.pauli_system(m)
        gibbs = np.exp(-m.basis.energies / 0.4)
        gibbs /= gibbs.sum()
        assert np.max(np.abs(ps.stationary - gibbs)) < 1e-8
        assert np.max(np.abs(ps.W @ gibbs)) < 1e-10 * np.max(np.abs(ps.W))

    def test_eigenvalues_real_nonpositive(self):
        ps = spectral.pauli_system(three_level_model())
        assert np.max(np.abs(ps.eigenvalues.imag)) < 1e-10
        assert np.max(ps.eigenvalues.real) < 1e-12

    def test_zero_temperature_upper_triangular(self):
        b = bath.ThermalLorentz(gamma0=0.05, cutoff=4.0, temperature=0.0)
        m = tcl2.SystemModel(
            h=np.diag([0.0, 0.9, 2.1]),
            couplings=[three_level_model().couplings[0]],
            bath=b,
        )
        w = spectral.pauli_system(m).W
        assert abs(w[1, 0]) < 1e-14 and abs(w[2, 0]) < 1e-14 and abs(w[2, 1]) < 1e-14
        assert w[0, 1] > 0 and w[0, 2] > 0 and w[1, 2] > 0

    def test_zero_temperature_rates_exactly_downward(self):
        # a non-diagonal four-level H: the upward rates are exact zeros of the T = 0
        # spectrum, which the 2 He[A] assembly keeps, so detailed balance holds exactly
        h = np.array([[0, .2, 0, .1j], [.2, .7, .15j, 0], [0, -.15j, 1.3, .1], [-.1j, 0, .1, 2.2]])
        l = np.array([[.1, 1, .3j, .2], [1, -.2, .5, .4j], [-.3j, .5, .3, .6], [.2, -.4j, .6, -.2]])
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.0)
        m = tcl2.SystemModel(h=h, couplings=[l], bath=b)
        assert np.all(np.tril(spectral.pauli_system(m).W, -1) == 0.0)
        assert spectral.detailed_balance_residual(m, spectral.pauli_system(m).stationary) == 0.0

    def test_decoupled_system_reports_multiple_stationary(self):
        m = tcl2.SystemModel(
            h=np.diag([0.0, 1.0, 2.5]),
            couplings=[np.zeros((3, 3))],
            bath=bath.ThermalLorentz(gamma0=0.05, cutoff=4.0, temperature=0.4),
        )
        assert spectral.pauli_system(m).multiple_stationary

    def test_population_block_of_generator_equals_w(self):
        m = three_level_model()
        s2 = tcl2._dissipative_superop_eb(m, None)
        idx = [i * 3 + i for i in range(3)]
        block = s2[np.ix_(idx, idx)]
        assert np.max(np.abs(block.real - spectral.pauli_system(m).W)) < 1e-12
        assert np.max(np.abs(block.imag)) < 1e-12


class TestPerturbativeSpectrum:
    def test_eigenvalue_is_gap_plus_diagonal_shift(self):
        m = three_level_model()
        spec = spectral.perturbative_spectrum(m)
        s2 = tcl2._dissipative_superop_eb(m, None)
        for (i, j) in spec.pairs:
            k = i * 3 + j
            want = -1j * m.basis.gaps[i, j] + s2[k, k]
            assert abs(spec.f[(i, j)] - want) < 1e-12

    def test_adjoint_pairing_of_conjugate_pairs(self):
        spec = spectral.perturbative_spectrum(three_level_model())
        for (i, j) in spec.pairs:
            assert spec.f[(i, j)] == pytest.approx(np.conj(spec.f[(j, i)]), abs=1e-12)

    def test_decay_rates_nonpositive(self):
        spec = spectral.perturbative_spectrum(three_level_model())
        for val in spec.f.values():
            assert val.real < 1e-12

    def test_correction_operators_first_order_small(self):
        m = three_level_model(scale=0.5)
        m2 = three_level_model(scale=0.25)
        s1 = spectral.perturbative_spectrum(m)
        s2 = spectral.perturbative_spectrum(m2)
        n1 = max(np.max(np.abs(v)) for v in s1.dsigma.values())
        n2 = max(np.max(np.abs(v)) for v in s2.dsigma.values())
        # corrections scale with the square of the coupling strength
        assert 3.0 < n1 / n2 < 5.0

    def test_corrections_are_their_definition(self):
        # S[out, k] / (l_k - l_out) and S[k, out] / (l_k - l_out), one pair at a time
        m = three_level_model()
        spec = spectral.perturbative_spectrum(m)
        s2 = tcl2._dissipative_superop_eb(m, None)
        lam0 = -1j * m.basis.gaps.reshape(-1)
        for (i, j) in spec.pairs:
            k = i * 3 + j
            right, left = np.zeros(9, dtype=complex), np.zeros(9, dtype=complex)
            for out in range(9):
                if out != k:
                    right[out] = s2[out, k] / (lam0[k] - lam0[out])
                    left[out] = s2[k, out] / (lam0[k] - lam0[out])
            assert np.array_equal(spec.dsigma[(i, j)], right.reshape(3, 3))
            assert np.array_equal(spec.dsigma_star[(i, j)], left.reshape(3, 3))

    def test_qubit_has_no_degenerate_groups(self):
        spec = spectral.perturbative_spectrum(qubit_model())
        assert spec.degenerate_groups == []
        assert sorted(spec.pairs) == [(0, 1), (1, 0)]


def _eigenvalue_error(m, spec):
    """Max over the reported pairs of the distance from f to the nearest
    eigenvalue of the exact stationary Liouvillian."""
    exact = np.linalg.eigvals(tcl2.build_L2(m, None))
    return max(np.min(np.abs(exact - f)) for f in spec.f.values())


class TestSpectralPropagator:
    """The eigenvalues f that set the propagator e^{tL} against the exact
    stationary Liouvillian: first order in the dissipative part, so the
    error is O(g^4)."""

    def test_qubit_eigenvalues_match_exact(self):
        m = qubit_model()
        spec = spectral.perturbative_spectrum(m)
        # limited by the neglected mixing of the (0, 1) and (1, 0) coherences
        assert _eigenvalue_error(m, spec) < 0.02

    def test_error_shrinks_with_coupling(self):
        def err(scale):
            m = three_level_model(scale=scale)
            return _eigenvalue_error(m, spectral.perturbative_spectrum(m))

        assert err(0.5) / err(0.25) > 8.0


class TestResonantGroups:
    def test_equally_spaced_levels(self):
        # H = diag(0, 1, 2): the coherences (0,1) and (1,2) share the gap -1,
        # and (1,0), (2,1) the gap +1
        m = three_level_model(scale=0.25)
        m = tcl2.SystemModel(h=np.diag([0.0, 1.0, 2.0]), couplings=m.couplings, bath=m.bath)
        spec = spectral.perturbative_spectrum(m)
        assert spec.degenerate_groups == [[(0, 1), (1, 2)], [(1, 0), (2, 1)]]
        assert sorted(spec.pairs) == [(0, 2), (2, 0)]
        assert sorted(spec.f) == sorted(spec.dsigma) == sorted(spec.pairs)
        exact = np.linalg.eigvals(tcl2.build_L2(m, None))
        for (i, j) in spec.pairs:
            shift = abs(spec.f[(i, j)] + 1j * m.basis.gaps[i, j])
            # the first-order shift accounts for all but O(g^2) of the exact one
            assert np.min(np.abs(exact - spec.f[(i, j)])) < 0.1 * shift


class TestPairGroups:
    def test_shift_by_identity_keeps_groups(self):
        # the tolerance follows the energy spread, so H + 1e6 * 1 groups like H
        for m in (qubit_model(), three_level_model()):
            shifted = tcl2.SystemModel(h=m.h + 1e6 * np.eye(m.dim), couplings=m.couplings,
                                       bath=m.bath)
            a, b = spectral.perturbative_spectrum(m), spectral.perturbative_spectrum(shifted)
            assert a.pairs and b.pairs == a.pairs
            assert b.degenerate_groups == a.degenerate_groups
            assert max(abs(b.f[p] - a.f[p]) for p in a.pairs) < 1e-8

    def test_chaining_joins_neighbours_not_ends(self):
        # dlt = 0.6 tol (tol = 1e-6 times the spread, about 3): gaps 1, 1 + dlt, 1 + 2 dlt
        # chain into one group although the ends are 1.2 tol apart; 2 + dlt and 2 + 3 dlt,
        # 1.2 tol apart with nothing between, do not
        dlt = 0.6 * spectral._DEGEN_REL_TOL * 3.0
        m = tcl2.SystemModel(
            h=np.diag([0.0, 1.0, 2.0 + dlt, 3.0 + 3 * dlt]),
            couplings=[np.ones((4, 4)) - np.eye(4)],
            bath=bath.ExponentialOU(c=[[0.05]], lam=1.1),
        )
        spec = spectral.perturbative_spectrum(m)
        assert spec.degenerate_groups == [[(2, 3), (1, 2), (0, 1)], [(1, 0), (2, 1), (3, 2)]]
        assert spec.pairs == [(0, 3), (1, 3), (0, 2), (2, 0), (3, 1), (3, 0)]


class TestDetailedBalance:
    def test_thermal_residual_tiny(self):
        m = three_level_model()
        assert spectral.detailed_balance_residual(m, spectral.pauli_system(m).stationary) < 1e-9

    def test_two_temperature_bath_violates(self):
        rng = np.random.default_rng(21)
        ls = [
            core.herm_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            for _ in range(2)
        ]
        b = bath.ThermalLorentz(
            gamma0=0.05, cutoff=4.0, temperature=[0.2, 2.0], n_channels=2
        )
        m = tcl2.SystemModel(h=np.diag([0.0, 0.9, 2.1]), couplings=ls, bath=b)
        assert spectral.detailed_balance_residual(m, spectral.pauli_system(m).stationary) > 1e-2


    def test_widely_spread_populations_balance(self):
        # population ratio ~1e7: the Pauli state matches Gibbs to round-off
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.23)
        m = tcl2.SystemModel(
            h=np.diag([0.0, 1.1, 2.3, 3.7]), couplings=[np.ones((4, 4)) - np.eye(4)], bath=b
        )
        gibbs = np.exp(-m.basis.energies / 0.23)
        gibbs /= gibbs.sum()
        assert np.max(np.abs(spectral.pauli_system(m).stationary - gibbs)) < 1e-13
        assert spectral.detailed_balance_residual(m, spectral.pauli_system(m).stationary) < 1e-10

class TestDampingBasis:
    def test_orthogonality_defect_scales_as_fourth_power(self):
        d1 = spectral.damping_basis_orthogonality(
            spectral.perturbative_spectrum(three_level_model(scale=0.5))
        )
        d2 = spectral.damping_basis_orthogonality(
            spectral.perturbative_spectrum(three_level_model(scale=0.25))
        )
        assert d1 < 0.05
        assert d1 / d2 > 10.0

    @pytest.mark.parametrize("levels", [[0.0, 0.7, 1.6, 3.1], [0.0, 1.0, 2.0, 3.0]])
    def test_orthogonality_is_its_definition(self, levels):
        # the largest |sigma*_p . sigma_q - delta_pq| over pairs p, q, one product at a time
        rng = np.random.default_rng(4)
        l = 0.3 * core.herm_part(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
        m = tcl2.SystemModel(h=np.diag(levels), couplings=[l],
                             bath=bath.ExponentialOU(c=[[0.1]], lam=0.9 + 0.4j))
        spec = spectral.perturbative_spectrum(m)
        assert len(spec.pairs) >= 2 and bool(spec.degenerate_groups) == (levels[1] == 1.0)

        def unit(p):
            e = np.zeros((4, 4), dtype=complex)
            e[p] = 1.0
            return e

        want = max(
            abs(np.sum((spec.dsigma_star[p] + unit(p)) * (spec.dsigma[q] + unit(q))) - (p == q))
            for p in spec.pairs for q in spec.pairs
        )
        assert abs(spectral.damping_basis_orthogonality(spec) - want) < 1e-15
