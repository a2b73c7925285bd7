import numpy as np
import pytest
from scipy.linalg import expm

from oqsolve import bath, core, positivity, tcl2

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])


def qubit_model(gamma0=0.1):
    b = bath.ThermalLorentz(gamma0=gamma0, cutoff=5.0, temperature=0.25)
    return tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=b)


def ou_model(seed=0, d=3):
    rng = np.random.default_rng(seed)
    h = core.herm_part(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    l = core.herm_part(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    l -= np.trace(l) / d * np.eye(d)
    return tcl2.SystemModel(h=h, couplings=[l], bath=bath.ExponentialOU(c=[[0.08]], lam=1.1))


class TestMagnusGenerator:
    def test_delta_positive_semidefinite(self):
        for m in (qubit_model(), ou_model()):
            for t in (0.3, 1.5, 6.0):
                gen = positivity.magnus_phi2(m, t)
                assert np.linalg.eigvalsh(gen.delta)[0] > -1e-12

    def test_zero_time_is_empty(self):
        gen = positivity.magnus_phi2(qubit_model(), 0.0)
        assert np.max(np.abs(gen.phi2)) == 0.0

    def test_reports_quadrature_outcome(self):
        # the thermal correlation's t log t onset stops the refinement at the
        # node cap; the smooth OU one converges early
        gen = positivity.magnus_phi2(qubit_model(), 1.0)
        assert gen.nodes == 256 and not gen.converged
        assert 1e-9 < gen.change < 1e-8
        ou = tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=bath.ExponentialOU(c=[[0.08]], lam=1.1))
        gen = positivity.magnus_phi2(ou, 1.0)
        assert gen.converged and gen.nodes < 256 and gen.change < 1e-9

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            positivity.magnus_phi2(qubit_model(), -1.0)

    def test_phi2_annihilates_trace(self):
        gen = positivity.magnus_phi2(ou_model(), 2.0)
        assert core.trace_preservation_defect(gen.phi2, generator=True) < 1e-9

    def test_short_time_linearity(self):
        # Phi2(t) ~ t L2_int(0+) for small t; check first-order consistency
        m = qubit_model()
        t = 1e-3
        gen = positivity.magnus_phi2(m, t)
        mid = tcl2.interaction_L2(m, t / 2)
        # midpoint rule is only approximate: the thermal correlation varies
        # rapidly near zero, so allow a few-percent relative deviation
        assert np.max(np.abs(gen.phi2 - t * mid)) < 0.1 * np.max(np.abs(gen.phi2))


class TestMagnusPropagator:
    def test_choi_positive_trace_preserving(self):
        for m in (qubit_model(), ou_model()):
            for t in (0.2, 1.0, 4.0, 15.0):
                g = positivity.magnus_propagator(m, t)
                assert core.trace_preservation_defect(g) < 1e-9
                assert core.min_choi_eigenvalue(core.choi_rearrange(g)) > -1e-10

    def test_agrees_with_direct_integration_at_second_order(self):
        m = qubit_model(gamma0=0.02)
        rho0 = np.array([[0.8, 0.3], [0.3, 0.2]], dtype=complex)
        t = 3.0
        traj = tcl2.propagate(m, rho0, [0.0, t], mode="full-time", rtol=1e-11, atol=1e-13)
        rho_m = core.unvec(positivity.magnus_propagator(m, t) @ core.vec(rho0), 2)
        assert np.max(np.abs(rho_m - traj.states[-1])) < 1e-3

    def test_resummation_difference_scales_as_fourth_power(self):
        def diff(gamma0, t=3.0):
            m = qubit_model(gamma0=gamma0)
            rho0 = np.array([[0.8, 0.3], [0.3, 0.2]], dtype=complex)
            traj = tcl2.propagate(m, rho0, [0.0, t], mode="full-time",
                                  rtol=1e-12, atol=1e-14)
            rho_m = core.unvec(positivity.magnus_propagator(m, t) @ core.vec(rho0), 2)
            return np.max(np.abs(rho_m - traj.states[-1]))

        # halving gamma0 quarters the perturbative parameter squared
        assert diff(0.08) / diff(0.04) > 3.0


class TestDoubleTimeRoute:
    def test_matches_algebraic_delta(self):
        m = ou_model()
        for t in (0.8, 2.5):
            d2 = positivity.delta_double_time(m, t, nodes=48)
            gen = positivity.magnus_phi2(m, t)
            scale = max(1.0, np.max(np.abs(gen.delta)))
            assert np.max(np.abs(d2 - gen.delta)) < 1e-8 * scale

    def test_positive_semidefinite_by_construction(self):
        m = ou_model(seed=3)
        d2 = positivity.delta_double_time(m, 1.7, nodes=48)
        assert np.linalg.eigvalsh(d2)[0] > -1e-12


class TestWeakCP:
    def test_running_integral_stays_positive(self):
        m = qubit_model()
        grid = np.linspace(0.0, 6.0, 1201)
        samples = positivity.interaction_dissipator_samples(m, grid)
        assert positivity.weak_cp_test(samples, grid) > -1e-8

    def test_rejects_non_hermitian_samples(self):
        grid = np.array([0.0, 1.0])
        bad = np.zeros((4, 4))
        bad[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            positivity.weak_cp_test([bad, bad], grid)

    def test_instantaneous_dissipator_can_go_negative(self):
        # non-Markovian: D(tau) itself has transient negative eigenvalues even
        # though every running integral is positive
        m = qubit_model()
        grid = np.linspace(0.0, 6.0, 121)
        samples = positivity.interaction_dissipator_samples(m, grid)
        inst_min = min(float(np.linalg.eigvalsh(s)[0]) for s in samples)
        assert inst_min < -1e-6


class TestIntermediateMap:
    def test_validation(self):
        with pytest.raises(ValueError):
            positivity.intermediate_map_check(qubit_model(), 2.0, 1.0)

    def test_from_zero_equals_full_map(self):
        m = qubit_model()
        val = positivity.intermediate_map_check(m, 0.0, 2.0)
        g = positivity.magnus_propagator(m, 2.0)
        assert val == pytest.approx(
            core.min_choi_eigenvalue(core.choi_rearrange(g)), abs=1e-12
        )

    def test_reports_finite_value_between_times(self):
        val = positivity.intermediate_map_check(qubit_model(), 1.0, 2.0)
        assert np.isfinite(val)
        assert val > -0.1  # weak coupling: at most a small transient violation


class TestSuperopCSV:
    def test_round_trip(self, tmp_path):
        m = qubit_model()
        grid = np.linspace(0.0, 2.0, 9)
        samples = positivity.interaction_dissipator_samples(m, grid)
        path = tmp_path / "samples.csv"
        positivity.save_superop_samples(path, grid, samples)
        tg, mats = positivity.load_superop_samples(path)
        assert np.array_equal(tg, grid)
        for a, b in zip(mats, samples):
            assert np.array_equal(a, b)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,re_0_0,im_0_0,re_0_1,im_0_1\n0.0,1.0,0.0,0.0,0.0\n")
        with pytest.raises(ValueError, match="square"):
            positivity.load_superop_samples(path)
