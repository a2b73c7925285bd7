import gc
import weakref

import numpy as np
import pytest
from scipy import integrate
from scipy.linalg import expm

from oqsolve import bath, core, tcl2

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.diag([1.0, -1.0])


def thermal():
    return bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.25)


def dephasing_model():
    return tcl2.SystemModel(h=0.5 * SZ, couplings=[SZ], bath=thermal())


def relaxation_model(gamma0=0.1):
    b = bath.ThermalLorentz(gamma0=gamma0, cutoff=5.0, temperature=0.25)
    return tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=b)


def random_model(seed=0, d=3, nch=2):
    rng = np.random.default_rng(seed)
    h = core.herm_part(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    ls = [
        core.herm_part(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
        for _ in range(nch)
    ]
    b = bath.ExponentialOU(
        c=0.05 * (np.eye(nch) + 0.3 * np.ones((nch, nch))), lam=1.3
    )
    return tcl2.SystemModel(h=h, couplings=ls, bath=b)


class TestModelValidation:
    def test_non_hermitian_hamiltonian_rejected(self):
        with pytest.raises(ValueError, match="Hamiltonian"):
            tcl2.SystemModel(h=[[0.0, 1.0], [0.0, 0.0]], couplings=[SZ], bath=thermal())

    def test_non_hermitian_coupling_rejected(self):
        with pytest.raises(ValueError, match="coupling 0"):
            tcl2.SystemModel(h=SZ, couplings=[[[0, 1], [0, 0]]], bath=thermal())

    def test_channel_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channels"):
            tcl2.SystemModel(h=SZ, couplings=[SZ, SX], bath=thermal())

    def test_coupling_shape_mismatch_rejected(self):
        # a 3 x 3 coupling on a qubit is refused here, not left to a numpy
        # broadcast error in build_L2
        with pytest.raises(ValueError, match=r"coupling 1 has shape \(3, 3\).*\(2, 2\)"):
            tcl2.SystemModel(h=SZ, couplings=[SX, np.eye(3)],
                             bath=bath.ExponentialOU(c=0.1 * np.eye(2), lam=1.0))


class TestSecondOrderOperator:
    def test_white_noise_gives_half_c_times_coupling(self):
        m = tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=bath.WhiteNoise(c=[0.6]))
        b = tcl2.second_order_operator(m, 2.0, 0)
        assert np.allclose(b, 0.3 * SX, atol=1e-13)

    def test_hadamard_rule_elementwise(self):
        m = relaxation_model()
        t = 1.3
        b = tcl2.second_order_operator(m, t, 0)
        beb = m.basis.to_energy_basis(b)
        leb = m.couplings_eb[0]
        for i in range(2):
            for j in range(2):
                w = m.basis.gaps[i, j]
                a = m.bath.coefficient_full(t, w)[0, 0]
                assert abs(beb[i, j] - a * leb[i, j]) < 1e-12

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            tcl2.second_order_operator(relaxation_model(), -0.5, 0)


class TestBuildL2:
    def test_generator_preserves_trace_and_hermiticity(self):
        for m in (relaxation_model(), random_model()):
            for t in (None, 0.7):
                s = tcl2.build_L2(m, t)
                assert core.trace_preservation_defect(s, generator=True) < 1e-10
                assert core.hermiticity_preservation_defect(s) < 1e-10

    def test_dephasing_coherence_rate(self):
        # sigma_z coupling: d rho_01/dt = (-i w0 - 4 Re A(t; 0)) rho_01
        m = dephasing_model()
        for t in (0.2, 1.0, 4.0):
            s = tcl2.build_L2(m, t)
            rate = s[1, 1]  # element (0,1),(0,1) in row-major vec
            a = m.bath.coefficient_full(t, 0.0)[0, 0]
            assert abs(rate - (-1j * 1.0 - 4 * a.real)) < 1e-12

    def test_dephasing_trajectory_matches_cumulant(self):
        m = dephasing_model()
        rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
        grid = np.linspace(0.0, 6.0, 13)
        traj = tcl2.propagate(m, rho0, grid, mode="full-time", rtol=1e-12, atol=1e-14)
        for t, rho in zip(traj.times, traj.states):
            gam, _ = integrate.quad(
                lambda tau: m.bath.coefficient_full(tau, 0.0)[0, 0].real,
                0.0, t, limit=300,
            )
            want = 0.5 * np.exp(-1j * t - 4 * gam)
            assert abs(rho[0, 1] - want) < 1e-8

    def test_interaction_picture_relation(self):
        m = random_model(seed=4)
        tau = 0.9
        diss = tcl2.build_L2(m, tau) - core.commutator_superop(m.h)
        g0 = core.unitary_superop(expm(-1j * m.h * tau))
        expect = np.conj(g0).T @ diss @ g0
        got = tcl2.interaction_L2(m, tau)
        assert np.allclose(got, expect, atol=1e-11)


class TestPseudoLindblad:
    def test_reassembly_is_exact(self):
        m = random_model(seed=1)
        s = tcl2.build_L2(m, None)
        pl = tcl2.pseudo_lindblad(s, m.h)
        assert np.allclose(pl.reassemble(), s, atol=1e-11)
        assert np.allclose(pl.V, core.dag(pl.V), atol=1e-12)
        assert np.allclose(pl.D, core.dag(pl.D), atol=1e-12)

    def test_coefficient_matrix_traceless_gauge(self):
        m = random_model(seed=2)
        dmat = tcl2.pseudo_lindblad(tcl2.build_L2(m, None), m.h).D
        d = m.dim
        v = core.vec(np.eye(d)) / np.sqrt(d)
        assert np.max(np.abs(dmat @ v)) < 1e-11
        assert np.max(np.abs(v @ dmat)) < 1e-11

    def test_rejects_non_hermiticity_preserving(self):
        m = random_model(seed=3)
        s = tcl2.build_L2(m, None)
        s[0, 1] += 0.05
        with pytest.raises(ValueError, match="Hermiticity"):
            tcl2.pseudo_lindblad(s, m.h)

    def test_microscopic_split_reassembles_energy_basis_generator(self):
        m = random_model(seed=5)
        pl = tcl2.microscopic_pseudo_lindblad(m, t=1.1)
        s_eb = tcl2._dissipative_superop_eb(m, 1.1) + core.commutator_superop(
            np.diag(m.basis.energies)
        )
        assert np.allclose(pl.reassemble(), s_eb, atol=1e-11)

    def test_microscopic_matches_canonical_for_traceless_couplings(self):
        m = random_model(seed=6)
        m.couplings = [l - np.trace(l) / m.dim * np.eye(m.dim) for l in m.couplings]
        pl_micro = tcl2.microscopic_pseudo_lindblad(m, None)
        d_canon = core.herm_part(
            tcl2.canonical_coefficient_matrix(tcl2._dissipative_superop_eb(m, None))
        )
        assert np.allclose(pl_micro.D, d_canon, atol=1e-11)


class TestRWA:
    def test_rwa_dissipator_psd_with_expected_spectrum(self):
        m = relaxation_model()
        dmat = tcl2.rwa_dissipator(m)
        evals = np.sort(np.linalg.eigvalsh(dmat))
        assert evals[0] > -1e-12
        # qubit sigma_x coupling: nonzero rates are the one-sided spectra at -+w0
        want = sorted(
            [m.bath.alpha_spectrum(1.0)[0, 0].real, m.bath.alpha_spectrum(-1.0)[0, 0].real]
        )
        assert np.allclose(evals[-2:], want, atol=1e-10)

    def test_rwa_projection_keeps_gibbs_stationary(self):
        m = relaxation_model()
        s = tcl2.rwa_projection(m)
        gibbs = expm(-m.h / 0.25)
        gibbs /= np.trace(gibbs)
        assert np.max(np.abs(core.apply_superop(s, gibbs))) < 1e-10
        assert core.trace_preservation_defect(s, generator=True) < 1e-11

    def test_rwa_agrees_with_full_generator_on_secular_entries(self):
        m = relaxation_model()
        s_full = tcl2._dissipative_superop_eb(m, None)
        s_rwa = tcl2._dissipative_superop_eb(m, None) * tcl2._rwa_mask(m)
        # population block is secular, so it must be untouched
        d = m.dim
        idx = [i * d + i for i in range(d)]
        assert np.allclose(s_full[np.ix_(idx, idx)], s_rwa[np.ix_(idx, idx)], atol=1e-14)


class TestPropagate:
    def test_validation_errors(self):
        m = relaxation_model()
        grid = [0.0, 1.0]
        with pytest.raises(ValueError, match="Hermitian"):
            tcl2.propagate(m, np.array([[0.5, 0.5], [0.0, 0.5]]), grid)
        with pytest.raises(ValueError, match="trace"):
            tcl2.propagate(m, np.eye(2, dtype=complex), grid)
        with pytest.raises(ValueError, match="positive"):
            tcl2.propagate(m, np.diag([1.5, -0.5]).astype(complex), grid)
        with pytest.raises(ValueError, match="mode"):
            tcl2.propagate(m, np.diag([1.0, 0.0]).astype(complex), grid, mode="bogus")

    def test_trace_and_hermiticity_along_trajectory(self):
        m = relaxation_model()
        rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]])
        traj = tcl2.propagate(m, rho0, np.linspace(0, 8, 17), mode="full-time")
        for rho in traj.states:
            assert abs(np.trace(rho) - 1.0) < 1e-9
            assert np.max(np.abs(rho - core.dag(rho))) < 1e-9

    def test_relaxation_approaches_gibbs_at_weak_coupling(self):
        m = relaxation_model(gamma0=0.02)
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        traj = tcl2.propagate(m, rho0, [0.0, 400.0], mode="stationary")
        gibbs = expm(-m.h / 0.25)
        gibbs /= np.trace(gibbs)
        assert np.max(np.abs(traj.states[-1] - gibbs)) < 5e-3

    def test_full_time_converges_to_stationary_generator(self):
        m = relaxation_model()
        assert np.allclose(
            tcl2.build_L2(m, 300.0), tcl2.build_L2(m, None), atol=1e-10
        )

    @pytest.mark.parametrize("make", [relaxation_model, lambda: random_model(seed=3, d=4, nch=2)],
                             ids=["qubit-thermal", "d4-correlated-ou"])
    def test_stationary_steps_are_exact(self, make):
        m = make()
        d = m.dim
        rho0 = np.full((d, d), 0.1, dtype=complex) + np.diag(np.r_[1.0 - 0.1 * d, np.zeros(d - 1)])
        grid = np.array([0.3, 0.35, 0.5, 0.9, 1.0, 1.7, 3.2, 3.25, 6.0])
        traj = tcl2.propagate(m, rho0, grid, mode="stationary")
        assert traj.metadata == {"integrator": "expm", "mode": "stationary"}
        s = tcl2.build_L2(m, None)
        for t, rho in zip(grid, traj.states):
            want = core.unvec(expm(s * (t - grid[0])) @ core.vec(rho0), d)
            assert np.max(np.abs(rho - want)) <= 1e-13

    def test_uniform_grid_builds_one_exponential(self, monkeypatch):
        # np.linspace(0, 20, 201) has 9 distinct float steps, all within 1.5e-15 of 0.1; they
        # share one exponential, and the states still match per-step exponentials (scipy's)
        m = relaxation_model()
        grid = np.linspace(0.0, 20.0, 201)
        assert len(set(np.diff(grid).tolist())) == 9
        calls = []
        monkeypatch.setattr(tcl2, "expm", lambda a: calls.append(a) or core.expm(a))
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        traj = tcl2.propagate(m, rho0, grid, mode="stationary")
        assert len(calls) == 1
        s = tcl2.build_L2(m, None)
        maps, ys = {}, [core.vec(rho0)]
        for h in np.diff(grid).tolist():
            ys.append(maps.setdefault(h, expm(s * h)) @ ys[-1])
        assert np.max(np.abs(traj.states.reshape(grid.size, -1) - np.array(ys))) <= 1e-13

    def test_step_classes(self):
        # sorted steps start a class when more than tol above the class's first step, so
        # steps that creep upward by less than tol each do not chain into one class
        steps = np.array([0.1, 0.2, 0.1 + 1e-15, 0.3, 0.2 - 1e-15])
        assert tcl2._step_classes(steps, 1e-14).tolist() == [0, 1, 0, 2, 1]
        creep = 1.0 + 0.6e-14 * np.arange(4)
        assert tcl2._step_classes(creep, 1e-14).tolist() == [0, 0, 1, 1]
        assert tcl2._step_classes(-steps, 1e-14).tolist() == [2, 1, 2, 0, 1]

    @pytest.mark.parametrize("mode", ["stationary", "full-time"])
    def test_grid_solve_ivp_rejects_raises(self, mode):
        m = relaxation_model()
        rho0 = np.diag([1.0, 0.0]).astype(complex)
        for grid in ([0.0, 2.0, 1.0], [0.0, 1.0, 1.0], [1.0], [], [[0.0, 1.0]], [0.0, np.nan]):
            with pytest.raises(ValueError, match="grid"):
                tcl2.propagate(m, rho0, grid, mode=mode)
        # a decreasing grid integrates backwards
        back = tcl2.propagate(m, rho0, [1.0, 0.5, 0.0], mode=mode)
        assert back.states.shape == (3, 2, 2)

    def test_full_time_ou_dephasing_matches_closed_form(self):
        # sigma_z coupling to c e^{-lam t}: A(t; 0) = c (1 - e^{-lam t}) / lam, so
        # rho_01(t) = rho_01(0) e^{-it - 4G(t)}, G(t) = (c / lam) (t - (1 - e^{-lam t}) / lam)
        c, lam = 0.075, 1.2
        m = tcl2.SystemModel(h=0.5 * SZ, couplings=[SZ], bath=bath.ExponentialOU(c=c, lam=lam))
        rho0 = np.array([[0.6, 0.3 - 0.2j], [0.3 + 0.2j, 0.4]])
        grid = np.linspace(0.0, 10.0, 41)
        traj = tcl2.propagate(m, rho0, grid, mode="full-time")
        assert traj.metadata == {"integrator": "DOP853", "rtol": 1e-10, "atol": 1e-12,
                                 "mode": "full-time"}
        g = c / lam * (grid - (1 - np.exp(-lam * grid)) / lam)
        coherence = rho0[0, 1] * np.exp(-1j * grid - 4 * g)
        want = np.array([[[rho0[0, 0], z], [np.conj(z), rho0[1, 1]]] for z in coherence])
        assert np.max(np.abs(traj.states - want)) <= 1e-9

    @pytest.mark.parametrize("make_bath", [
        lambda: bath.ExponentialOU(c=0.075, lam=1.2),
        lambda: bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.25),
        lambda: bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.0),
    ], ids=["ou", "T>0", "T=0"])
    @pytest.mark.parametrize("backwards", [False, True], ids=["increasing", "decreasing"])
    def test_full_time_stepper_against_scipy_and_dephasing_solution(self, make_bath, backwards):
        # sigma_z coupling: rho_01(t) = rho_01(0) e^{-it - 4 G(t)}, G(t) = int_0^t Re A(s; 0) ds,
        # with G from the bath's gap-pair table (closed form at T > 0 and for OU)
        m = tcl2.SystemModel(h=0.5 * SZ, couplings=[SZ], bath=make_bath())
        grid = np.linspace(0.0, 6.0, 13)
        g = np.array([m.bath.coefficient_integral(t, np.zeros(1))[0][0, 0, 0, 0].real for t in grid])
        exact = (0.3 - 0.2j) * np.exp(-1j * grid - 4 * g)
        if backwards:
            grid, exact = grid[::-1], exact[::-1]
        rho0 = np.array([[0.6, exact[0]], [np.conj(exact[0]), 0.4]])
        traj = tcl2.propagate(m, rho0, grid, mode="full-time")
        assert np.max(np.abs(traj.states[:, 0, 1] - exact)) <= 1e-8
        assert np.max(np.abs(traj.states[:, 0, 0] - 0.6)) <= 1e-14
        # scipy's DOP853 at the same tolerances, one generator build per stage
        ref = integrate.solve_ivp(lambda t, y: tcl2.build_L2(m, max(t, 0.0)) @ y,
                                  (grid[0], grid[-1]), core.vec(rho0), method="DOP853",
                                  t_eval=grid, rtol=1e-10, atol=1e-12)
        assert np.max(np.abs(traj.states.reshape(grid.size, -1) - ref.y.T)) <= 1e-8

    def test_dop853_tableau_is_scipys(self):
        # the literals reproduce scipy.integrate.DOP853 bit for bit
        DOP853 = integrate.DOP853
        for ours, theirs in [(tcl2._A, DOP853.A), (tcl2._B, DOP853.B), (tcl2._C, DOP853.C),
                             (tcl2._E3, DOP853.E3), (tcl2._E5, DOP853.E5)]:
            assert ours.shape == theirs.shape and np.array_equal(ours, theirs)
        assert tcl2._ERROR_EXPONENT == -1 / (DOP853.error_estimator_order + 1)
        assert DOP853.n_stages == tcl2._B.size

    def test_stepper_counts_evaluations(self):
        # tcl2.solve_ivp and its nfev are read from outside the package (perfbench/spans.py):
        # two evaluations pick the first step, and each attempted step makes 12 from one
        # call for its 11 stage times, the last of which is the step's end
        m = random_model(seed=3, d=3, nch=2)
        s = tcl2.build_L2(m, None)
        calls = []

        def generators(times):
            calls.append(len(times))
            return np.repeat(s[None], len(times), axis=0)

        y0 = core.vec(np.diag([0.5, 0.3, 0.2]).astype(complex))
        grid = np.array([0.0, 0.7, 2.0, 2.1, 5.0])
        sol = tcl2.solve_ivp(generators, grid, y0, 1e-10, 1e-12)
        assert calls[:2] == [1, 1] and set(calls[2:]) == {11}
        assert sol.nfev == 2 + 12 * (len(calls) - 2)
        want = np.array([expm(s * t) @ y0 for t in grid])
        assert np.max(np.abs(sol.y - want)) <= 1e-9

    def test_full_time_releases_model(self):
        # with the collector off, the model must still go when its last name does
        m = relaxation_model()
        ref = weakref.ref(m)
        gc.disable()
        try:
            tcl2.propagate(m, np.diag([1.0, 0.0]).astype(complex), [0.0, 0.5], mode="full-time")
            del m
            assert ref() is None
        finally:
            gc.enable()


class TestInteractionPicture:
    """Full-time mode steps y_I = e^{-F tau} y, F = -i[H, .], tau = t - grid[0]."""

    @staticmethod
    def coherent_state(d):
        v = np.arange(1.0, d + 1) + 0.5j * np.arange(d)
        return np.outer(v, v.conj()) / np.vdot(v, v).real

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 6.0, 13),
        np.linspace(6.0, 0.0, 13),
        np.array([0.7, 1.1, 2.0, 2.05, 4.5]),
    ], ids=["increasing", "decreasing", "from-0.7"])
    def test_relaxation_against_scipy(self, grid):
        # a three-level model with two correlated channels and a non-diagonal H: every
        # coherence carries its phase e^{i(w_r - w_c) tau}, and a grid from t0 = 0.7 (the
        # second leg of a two-time correlation) measures tau from there, with L(t) at t
        m = random_model(seed=3, d=3, nch=2)
        rho0 = self.coherent_state(3)
        traj = tcl2.propagate(m, rho0, grid, mode="full-time")
        ref = integrate.solve_ivp(lambda t, y: tcl2.build_L2(m, max(t, 0.0)) @ y,
                                  (grid[0], grid[-1]), core.vec(rho0), method="DOP853",
                                  t_eval=grid, rtol=1e-12, atol=1e-14)
        assert np.max(np.abs(traj.states.reshape(grid.size, -1) - ref.y.T)) <= 1e-8

    def test_shipped_model_defaults_against_a_tight_run(self):
        # the shipped model on its 201-point grid: 1.2e-11 here, 1.5e-10 in the
        # Schroedinger picture, where DOP853 also resolved the free phases
        m = relaxation_model()
        rho0 = np.array([[0.6, 0.3 - 0.2j], [0.3 + 0.2j, 0.4]])
        grid = np.linspace(0.0, 20.0, 201)
        got = tcl2.propagate(m, rho0, grid, mode="full-time").states
        tight = tcl2.propagate(m, rho0, grid, mode="full-time", rtol=1e-13, atol=1e-15).states
        assert np.max(np.abs(got - tight)) <= 5e-11

    def test_dephasing_evaluations(self, monkeypatch):
        # three-level dephasing: in the interaction picture every entry only decays, so
        # the steps follow the bath, not the free phases (782 evaluations in the
        # Schroedinger picture)
        m = tcl2.SystemModel(h=np.diag([0.0, 1.0, 2.5]),
                             couplings=[np.diag([1.0, -0.5, 0.3]), np.diag([0.2, 1.0, -1.0])],
                             bath=bath.ExponentialOU(c=[[0.06, 0.02], [0.02, 0.05]], lam=1.3))
        solve, counts = tcl2.solve_ivp, []

        def counted(*args):
            sol = solve(*args)
            counts.append(sol.nfev)
            return sol

        monkeypatch.setattr(tcl2, "solve_ivp", counted)
        rho0 = np.full((3, 3), 0.2, dtype=complex) + np.diag([0.2, 0.2, 0.0])
        traj = tcl2.propagate(m, rho0, np.linspace(0.0, 8.0, 9), mode="full-time")
        assert counts == [230]
        # rho_ij(t) = rho_ij(0) e^{-i w_ij t - sum_nm (l_ni - l_nj) (G_nm l_mi - G_nm^* l_mj)},
        # G(t) = int_0^t A(s; 0) ds from the bath's gap-pair table
        g = np.array([m.bath.coefficient_integral(t, np.zeros(1))[0][0, 0] for t in traj.times])
        l = np.array([np.diag(c) for c in m.couplings])
        dl = l[:, :, None] - l[:, None, :]
        exponent = -(np.einsum("nij,tnm,mi->tij", dl, g, l)
                     - np.einsum("nij,tnm,mj->tij", dl, g.conj(), l))
        w = np.subtract.outer(np.diag(m.h), np.diag(m.h))
        want = rho0 * np.exp(-1j * w * traj.times[:, None, None] + exponent)
        assert np.max(np.abs(traj.states - want)) <= 1e-9
