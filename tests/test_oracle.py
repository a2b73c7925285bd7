import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from oqsolve import bath, core, oracle, tcl2


def small_composite(seed=5, g=0.1):
    return oracle.random_composite(seed, dim=3, n_qubits=3, g=g, temperature=2.0)


def two_channel_composite():
    base = small_composite()
    env_l2 = core.herm_part(np.random.default_rng(8).normal(size=base.env_h.shape))
    return oracle.CompositeModel(h=base.h, couplings=[base.couplings[0], base.h],
                                 env_h=base.env_h, env_couplings=[base.env_couplings[0], env_l2],
                                 g=0.1, temperature=2.0)


def basis_state(d, k=0):
    rho = np.zeros((d, d), dtype=complex)
    rho[k, k] = 1.0
    return rho


def loop_trajectory(c, rho0, grid):
    """The per-time product that exact_reduced_trajectory stacks over the grid."""
    w, u = c.eig
    r = core.dag(u) @ np.kron(np.asarray(rho0, dtype=complex), c.env_state) @ u
    states = []
    for t in grid:
        phase = np.exp(-1j * w * t)
        rt = u @ (r * np.outer(phase, np.conj(phase))) @ core.dag(u)
        states.append(rt.reshape(c.dim, c.env_dim, c.dim, c.env_dim).trace(axis1=1, axis2=3))
    return np.array(states)


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

    @pytest.mark.parametrize("n_system", [1, 0])
    def test_coupling_list_mismatch_rejected(self, n_system):
        # an uncoupled composite has no environment correlation to hand on
        c = small_composite()
        with pytest.raises(ValueError, match="match"):
            oracle.CompositeModel(
                h=c.h, couplings=c.couplings[:n_system], env_h=c.env_h,
                env_couplings=[], g=0.1,
            )

    @pytest.mark.parametrize("kind, shape", [
        ("system", (2, 2)), ("environment", (4, 4)),
    ])
    def test_coupling_shape_mismatch_rejected(self, kind, shape):
        # a 2 x 2 system coupling on a 3-level h, a 4 x 4 environment coupling on a
        # 16-level register: each is named at construction, not met later as a numpy error
        c = oracle.random_composite(0)
        l = np.zeros(shape, dtype=complex)
        couplings = [l] if kind == "system" else c.couplings
        env_couplings = [l] if kind == "environment" else c.env_couplings
        message = re.escape(f"{kind} coupling 0 has shape {shape}")
        with pytest.raises(ValueError, match=message):
            oracle.CompositeModel(h=c.h, couplings=couplings, env_h=c.env_h,
                                  env_couplings=env_couplings, g=0.1)

    def test_with_coupling_rescales_only_g(self, monkeypatch):
        shared = ("h", "couplings", "env_h", "env_couplings", "free_h", "coupling_h",
                  "env_eig", "env_state", "env_bath")
        c = small_composite(g=0.1)
        before = c.with_coupling(0.05)
        oracle.reduced_model(c)
        oracle.exact_reduced_trajectory(c, basis_state(3), [1.0])
        # the copies run no validation, copies of copies included
        calls = []
        monkeypatch.setattr(oracle, "require_hermitian", lambda *a, **k: calls.append(a))
        after, again = c.with_coupling(0.05), before.with_coupling(0.2)
        assert calls == []
        for c2, g in ((before, 0.05), (after, 0.05), (again, 0.2)):
            assert c2.g == g and c2.temperature == c.temperature
            # the parts that do not depend on g are the same objects, whether or not the
            # model had used them before the copy
            for name in shared:
                assert getattr(c2, name) is getattr(c, name), name
            assert c2.eig is not c.eig
            want = np.linalg.eigh(c.free_h + g * c.coupling_h)
            assert np.array_equal(c2.eig[0], want[0]) and np.array_equal(c2.eig[1], want[1])
        assert c.g == 0.1
        assert np.array_equal(c.eig[0], np.linalg.eigh(c.free_h + 0.1 * c.coupling_h)[0])

    def test_convergence_errors_diagonalizes_each_coupling_once(self, monkeypatch):
        # one composite eigh at g and one at g/2, and one of the 3 x 3 system Hamiltonian
        # for the one reduced model; the register's was made at construction
        c = oracle.random_composite(3, g=0.12)
        shapes, eigh = [], np.linalg.eigh

        def counted(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        oracle.convergence_errors(c, np.eye(3) / 3, horizon=1.0, npoints=3)
        assert shapes.count((48, 48)) == 2 and shapes.count((3, 3)) == 1
        assert (16, 16) not in shapes

    @pytest.mark.parametrize("temperature", [0.0, -0.5, -np.inf, np.nan])
    def test_temperature_must_be_positive(self, temperature):
        # at T = 0 the Boltzmann factor exp(-(w - w0)/T) is 0/0 at the ground level
        c = small_composite()
        with pytest.raises(ValueError, match="temperature"):
            oracle.CompositeModel(h=c.h, couplings=c.couplings, env_h=c.env_h,
                                  env_couplings=c.env_couplings, g=0.1, temperature=temperature)

    def test_infinite_temperature_is_maximally_mixed(self):
        c = small_composite()
        c = oracle.CompositeModel(h=c.h, couplings=c.couplings, env_h=c.env_h,
                                  env_couplings=c.env_couplings, g=0.1, temperature=np.inf)
        assert np.array_equal(c.env_state, np.eye(8) / 8)


class TestSpinChainEnvironment:
    def test_splitting_count_validation(self):
        with pytest.raises(ValueError, match="splitting"):
            oracle.spin_chain_environment(3, [1.0, 2.0])

    @pytest.mark.parametrize("weights", [[0.5, 0.4], [0.5, 0.4, 0.3, 0.2]])
    def test_site_weight_count_validation(self, weights):
        with pytest.raises(ValueError, match="site_weights"):
            oracle.spin_chain_environment(3, [1.0, 1.5, 2.0], site_weights=weights)

    def test_hermitian_outputs(self):
        env_h, l = oracle.spin_chain_environment(
            3, [1.0, 1.5, 2.0], chain_coupling=0.1, site_weights=[0.5, 0.4, 0.3]
        )
        assert np.allclose(env_h, core.dag(env_h))
        assert np.allclose(l, core.dag(l))
        assert env_h.shape == (8, 8)

    @pytest.mark.parametrize("seed", range(5))
    def test_site_operators_match_the_kron_chain(self, seed):
        # every entry is a product of 0s and +-1s, so building a site operator from two
        # krons (and a chain term from sx x sx) moves no bit against the chain of n - 1
        def site_op(op, k, n):
            out = np.eye(1, dtype=complex)
            for j in range(n):
                out = np.kron(out, op if j == k else np.eye(2, dtype=complex))
            return out

        rng = np.random.default_rng(seed)
        n = 4 + seed % 2
        eps, weights, j = rng.uniform(0.5, 2.5, n), rng.uniform(0.3, 1.0, n), rng.uniform(0.05, 0.15)
        sx, sz = np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1.0, -1.0]).astype(complex)
        want_h = np.zeros((2**n, 2**n), dtype=complex)
        for k in range(n):
            want_h += 0.5 * eps[k] * site_op(sz, k, n)
        for k in range(n - 1):
            want_h += j * (site_op(sx, k, n) @ site_op(sx, k + 1, n))
        want_l = np.zeros_like(want_h)
        for k in range(n):
            want_l += weights[k] * site_op(sx, k, n)
        env_h, l = oracle.spin_chain_environment(n, eps, chain_coupling=j, site_weights=weights)
        assert np.array_equal(env_h, want_h) and np.array_equal(l, want_l)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("chain_coupling", [0.0, 0.13, -0.4])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bit_construction_matches_site_operator_krons(self, n, chain_coupling, weighted):
        # the register as sums of 1 x op x 1 krons, sx x sx for a chain bond, accumulated in
        # qubit order: the bit construction is equal to it entry for entry
        def site_op(op, k, n):
            left = np.eye(2**k, dtype=complex)
            right = np.eye(2**n // (2**k * op.shape[0]), dtype=complex)
            return np.kron(np.kron(left, op), right)

        rng = np.random.default_rng(10 * n + weighted)
        eps = rng.uniform(0.5, 2.5, n)
        weights = rng.uniform(0.3, 1.0, n) / np.sqrt(n) if weighted else None
        sx, sz = np.array([[0, 1], [1, 0]], dtype=complex), np.diag([1.0, -1.0]).astype(complex)
        want_h = np.zeros((2**n, 2**n), dtype=complex)
        for k in range(n):
            want_h += 0.5 * eps[k] * site_op(sz, k, n)
        for k in range(n - 1):
            want_h += chain_coupling * site_op(np.kron(sx, sx), k, n)
        want_l = np.zeros_like(want_h)
        for k in range(n):
            want_l += (1.0 if weights is None else weights[k]) * site_op(sx, k, n)
        env_h, l = oracle.spin_chain_environment(n, eps, chain_coupling=chain_coupling,
                                                 site_weights=weights)
        assert np.array_equal(env_h, want_h) and np.array_equal(l, want_l)


class TestExactDynamics:
    def test_reduced_trajectory_is_physical(self):
        c = small_composite()
        grid = np.linspace(0.0, 5.0, 6)
        states = oracle.exact_reduced_trajectory(c, basis_state(3), grid)
        for rho in states:
            assert abs(np.trace(rho) - 1.0) < 1e-12
            assert np.max(np.abs(rho - core.dag(rho))) < 1e-12
            assert np.linalg.eigvalsh(core.herm_part(rho))[0] > -1e-12

    @pytest.mark.parametrize("composite", [
        small_composite,
        lambda: oracle.random_composite(2, dim=3, n_qubits=3, g=0.2, temperature=np.inf),
        two_channel_composite,
    ], ids=["T2", "Tinf", "two-channel"])
    @pytest.mark.parametrize("grid", [[-1.5, 0.0, 0.3, 0.3, 2.0, 7.5], [2.3], [-0.4]])
    def test_stacked_trajectory_matches_per_time_product(self, composite, grid):
        c = composite()
        rng = np.random.default_rng(4)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        rho0 = a @ core.dag(a) / np.trace(a @ core.dag(a))
        got = oracle.exact_reduced_trajectory(c, rho0, grid)
        want = loop_trajectory(c, rho0, grid)
        assert got.shape == (len(grid), 3, 3)
        assert np.max(np.abs(got - want)) <= 1e-13
        # repeated times give the same state
        if len(grid) > 3:
            assert np.array_equal(got[2], got[3])

    @pytest.mark.parametrize("n", [3, 13, 100])
    def test_blocked_trajectory_keeps_each_time_bits(self, n):
        # blocks of grid times give each state the bits of that time alone
        c = oracle.random_composite(3)
        rho0 = basis_state(3)
        grid = np.linspace(0.0, 5.0, n)
        got = oracle.exact_reduced_trajectory(c, rho0, grid)
        assert all(np.array_equal(got[k], oracle.exact_reduced_trajectory(c, rho0, [t])[0])
                   for k, t in enumerate(grid.tolist()))

    def test_long_grid_memory_stays_at_one_block(self):
        # a 48-level composite: one (D, D) complex stack per grid time would be 74 MB at 1000
        c = oracle.random_composite(3)
        c.eig
        tracemalloc.start()
        try:
            states = oracle.exact_reduced_trajectory(c, basis_state(3), np.linspace(0.0, 5.0, 1000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert states.shape == (1000, 3, 3) and peak < 4e6

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


class TestEnvironmentCorrelation:
    def test_stationarity_and_hermiticity(self):
        b = oracle.reduced_model(small_composite()).bath
        a_fwd = b.alpha_time(np.array([0.7]))
        a_bwd = b.alpha_time(np.array([-0.7]))
        assert np.allclose(a_fwd[0], core.dag(a_bwd[0]), atol=1e-12)
        a0 = b.alpha_time(np.array([0.0]))[0]
        assert np.linalg.eigvalsh(core.herm_part(a0))[0] > -1e-12

    def test_matches_environment_two_time_average(self):
        c = small_composite()
        t = 1.1
        a = oracle.reduced_model(c).bath.alpha_time(np.array([t]))[0, 0, 0]
        w, u = np.linalg.eigh(c.env_h)
        l = core.dag(u) @ c.env_couplings[0] @ u
        rho = core.dag(u) @ c.env_state @ u
        phase = np.exp(1j * w * t)
        lt = (phase[:, None] * l) * np.conj(phase)[None, :]
        assert a == pytest.approx(complex(np.trace(lt @ l @ rho)), abs=1e-12)

    def test_reduced_bath_matches_environment_trace_formula(self):
        # two channels: alpha_nm(t) = Tr_E[e^{iH_E t} l_n e^{-iH_E t} l_m rho_E],
        # propagated by expm, against the exponential sum of the reduced bath
        c = two_channel_composite()
        b = oracle.reduced_model(c).bath
        assert isinstance(b, bath.ExponentialOU) and b.channels == 2
        assert np.all(b.lam.real == 0) and len(np.unique(b.lam)) == len(b.lam)
        for t in (0.0, 0.7, 3.0, 11.5, -2.2):
            u = expm(1j * c.env_h * t)
            want = np.array([[np.trace(u @ ln @ u.conj().T @ lm @ c.env_state)
                              for lm in c.env_couplings] for ln in c.env_couplings])
            assert np.max(np.abs(b.alpha_time(t) - want)) <= 1e-13 * np.max(np.abs(want)), t

    @pytest.mark.parametrize("seed", range(5))
    def test_round_off_frequencies_dropped(self, seed):
        # E_a - E_b that are equal in exact arithmetic come out of eigh a few ulps apart;
        # merged within 1024 eps max|E| (each at its group's mean), the register has 81
        # frequencies, and the parity selection rule of sum c_k sx_k leaves 41 of them with
        # round-off weights: without those, alpha and A(t; w) move by at most 4 eps of their
        # largest value
        eps = np.finfo(float).eps
        c = oracle.random_composite(seed)
        e, u = c.env_eig
        rho = np.diag(core.dag(u) @ c.env_state @ u).real
        l = core.dag(u) @ c.env_couplings[0] @ u
        f, weights = np.subtract.outer(e, e).ravel(), (rho[:, None] * l * l.T).ravel()
        order = np.argsort(f)
        start = np.diff(f[order], prepend=-np.inf) > 1024 * eps * np.max(np.abs(e))
        heads = np.flatnonzero(start)
        freqs = np.add.reduceat(f[order], heads) / np.diff(heads, append=f.size)
        table = np.zeros(freqs.size, dtype=complex)
        np.add.at(table, np.cumsum(start) - 1, weights[order])
        merged = bath.ExponentialOU(c=table[:, None, None], lam=-1j * freqs)
        pruned = c.env_bath
        keep = np.abs(table) > eps * np.max(np.abs(table))
        assert freqs.size == 81 and pruned.lam.size == 40
        assert np.array_equal(pruned.lam, -1j * freqs[keep])
        t, w = np.linspace(0.0, 6.0, 7), np.array([-1.3, 0.0, 0.4, 2.1])
        got = [pruned.alpha_time(t)[..., 0, 0], pruned.coefficient_full(t, w)[..., 0, 0]]
        for g, want in zip(got, [merged.alpha_time(t)[..., 0, 0],
                                 merged.coefficient_full(t, w)[..., 0, 0]]):
            assert np.max(np.abs(g - want)) <= 4 * eps * np.max(np.abs(want))
        # against 40-digit sums over all 256 level pairs: the merge bound that
        # _environment_bath states, 16 eps of max|alpha| and of max|A| at t <= 6
        with mpmath.workdps(40):
            mw, mf = [mpmath.mpc(x) for x in weights], [mpmath.mpf(x) for x in f]
            alpha, coeff = [], []
            for tk in t:
                tm = mpmath.mpf(tk)
                phases = [mpmath.expj(x * tm) for x in mf]
                alpha.append(complex(mpmath.fsum(a * p for a, p in zip(mw, phases))))
                row = []
                for wk in w:
                    wm = mpmath.mpf(wk)
                    back = mpmath.expj(-wm * tm)
                    row.append(complex(mpmath.fsum(
                        a * (tm if x == wm else (p * back - 1) / (1j * (x - wm)))
                        for a, x, p in zip(mw, mf, phases))))
                coeff.append(row)
        for g, want in zip(got, [np.array(alpha), np.array(coeff)]):
            assert np.max(np.abs(g - want)) <= 16 * eps * np.max(np.abs(want))

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

    def test_convergence_errors_make_one_stepper_pass(self, monkeypatch):
        # g and g/2 share one DOP853 pass over a stack of two states: 110 evaluations,
        # where two lone passes took 110 each at this seed
        solve, calls = tcl2.solve_ivp, []

        def counted(generators, grid, y0, rtol, atol):
            sol = solve(generators, grid, y0, rtol, atol)
            calls.append((y0.size, sol.nfev))
            return sol

        monkeypatch.setattr(tcl2, "solve_ivp", counted)
        oracle.convergence_errors(oracle.random_composite(3, g=0.12), np.eye(3) / 3,
                                  horizon=1.0, npoints=3)
        assert calls == [(18, 110)]

    @pytest.mark.parametrize("seed", range(5))
    def test_half_coupling_trajectory_matches_lone_propagate(self, seed, monkeypatch):
        # both trajectories of the stacked pass, g/2 included, against lone propagates (the
        # step sequences differ), and the errors against those the two trajectories give
        c = oracle.random_composite(seed, g=0.12)
        rho0, grid = np.eye(3) / 3, np.linspace(0.0, 5.0, 9)
        evolve, runs = oracle._evolve, []

        def recorded(*args, **kwargs):
            runs.append(evolve(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(oracle, "_evolve", recorded)
        errs = oracle.convergence_errors(c, rho0, horizon=5.0, npoints=9)
        approx = runs[0].reshape(9, 2, 3, 3)
        for j, cf in enumerate((c, c.with_coupling(0.5 * c.g))):
            lone = tcl2.propagate(oracle.reduced_model(cf), rho0, grid, mode="full-time").states
            assert np.max(np.abs(approx[:, j] - lone)) <= 1e-10
            exact = oracle.exact_reduced_trajectory(cf, rho0, grid)
            assert errs[j] == float(np.max(np.abs(approx[:, j] - exact)))

    @pytest.mark.parametrize("seed", range(5))
    def test_half_coupling_second_order_part_is_a_quarter(self, seed):
        # halving the couplings is exact in floating point, so the g/2 model's
        # second-order part is 1/4 of the g model's bit for bit, with phases too
        c = oracle.random_composite(seed, g=0.12)
        full, half = (oracle.reduced_model(cf) for cf in (c, c.with_coupling(0.5 * c.g)))
        t = 0.3 + tcl2._C[1:] * 0.2
        for tau in (None, t - 0.1):
            assert np.array_equal(tcl2._dissipative_superop_eb(half, t, tau),
                                  0.25 * tcl2._dissipative_superop_eb(full, t, tau))

    def test_error_ratio_shows_fourth_order_convergence(self):
        c = small_composite(seed=11, g=0.12)
        errs = oracle.convergence_errors(c, basis_state(3), horizon=6.0, npoints=13)
        assert errs[0] / errs[1] > 10.0
