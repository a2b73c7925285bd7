import functools

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

from oqsolve import bath, core, positivity, tcl2

import support

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])


def qubit_model(gamma0=0.1):
    b = bath.ThermalLorentz(gamma0=gamma0, cutoff=5.0, temperature=0.25)
    return tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=b)


def t0_model():
    b = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.0)
    return tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=b)


def tabulated_model():
    # damped samples: the fitted exponential sum has a closed-form table
    tg = np.linspace(0.0, 2.0, 201)
    b = bath.Tabulated(tg, 0.1 * np.exp(-(0.8 + 0.3j) * tg))
    return tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=b)


def undamped_ou_model():
    # 0.1 cos(1.3 t): undamped terms
    b = bath.ExponentialOU(c=[[[0.05]], [[0.05]]], lam=[1.3j, -1.3j])
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
        # every table is a closed form; the T > 0 truncation bound and the T = 0 round-off
        # bound of 1/nu quotients, where they exceed the table's round-off, carry to Phi2
        gen = positivity.magnus_phi2(qubit_model(), 1.0)
        assert gen.converged and gen.change < 1e-15
        ou = tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=bath.ExponentialOU(c=[[0.08]], lam=1.1))
        gen = positivity.magnus_phi2(ou, 1.0)
        assert gen.converged and gen.change == 0.0
        for t in (1e-5, 1.0):
            gen = positivity.magnus_phi2(t0_model(), t)
            assert gen.converged and gen.change < 1e-15

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            positivity.magnus_phi2(qubit_model(), -1.0)

    def test_phi2_annihilates_trace(self):
        gen = positivity.magnus_phi2(ou_model(), 2.0)
        assert support.trace_preservation_defect(gen.phi2, generator=True) < 1e-9

    def test_short_time_linearity(self):
        # Phi2(t) ~ t L2_int(0+) for small t; check first-order consistency
        m = qubit_model()
        t = 1e-3
        gen = positivity.magnus_phi2(m, t)
        mid = tcl2.interaction_L2(m, t / 2)
        # midpoint rule is only approximate: the thermal correlation varies
        # rapidly near zero, so allow a few-percent relative deviation
        assert np.max(np.abs(gen.phi2 - t * mid)) < 0.1 * np.max(np.abs(gen.phi2))


def ou_integral_ref(b, g, nu, t):
    """int_0^t dtau e^{i nu tau} int_0^tau ds c e^{-(lam + ig) s}, integrated
    analytically with the order swapped (ds outside), at 30 digits."""
    with mpmath.workdps(30):
        p = mpmath.mpf(b.lam) + 1j * mpmath.mpf(g)
        t = mpmath.mpf(t)
        if nu == 0:
            v = t * (1 - mpmath.exp(-p * t)) / p - (1 - (1 + p * t) * mpmath.exp(-p * t)) / p**2
        else:
            inu = 1j * mpmath.mpf(nu)
            v = (mpmath.exp(inu * t) * (1 - mpmath.exp(-p * t)) / p
                 - (1 - mpmath.exp((inu - p) * t)) / (p - inu)) / inu
        return complex(v) * b.c


def ref_phi2(m, integral):
    """Phi2 element by element from the four terms of the interaction-picture
    generator, with integral(g, nu) = int_0^t A(tau; g) e^{i nu tau} dtau at
    the exact gaps."""
    d, l, w = m.dim, m.couplings_eb, m.basis.gaps
    nch = len(m.couplings)
    table = functools.lru_cache(maxsize=None)(integral)
    phi = np.zeros((d, d, d, d), dtype=complex)
    for x, y, i, j in np.ndindex(d, d, d, d):
        v = 0j
        for n, k2 in np.ndindex(nch, nch):
            v += table(w[x, i], w[x, i] + w[j, y])[n, k2] * l[k2, x, i] * l[n, j, y]
            v += l[n, x, i] * np.conj(table(w[y, j], w[y, j] + w[i, x])[n, k2] * l[k2, y, j])
            for k in range(d):
                if j == y:
                    v -= l[n, x, k] * table(w[k, i], w[k, i] + w[x, k])[n, k2] * l[k2, k, i]
                if x == i:
                    v -= np.conj(table(w[k, j], w[k, j] + w[y, k])[n, k2]
                                 * l[k2, k, j]) * l[n, k, y]
        phi[x, y, i, j] = v
    u = m.basis.vectors
    return (core.superop_sandwich(u, core.dag(u)) @ phi.reshape(d * d, d * d)
            @ core.superop_sandwich(core.dag(u), u))


def correlated_ou_model():
    rng = np.random.default_rng(5)
    herm = lambda: core.herm_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    c = 0.05 * np.array([[1.0, 0.3 + 0.2j], [0.3 - 0.2j, 0.8]])
    return tcl2.SystemModel(h=herm(), couplings=[herm(), herm()],
                            bath=bath.ExponentialOU(c=c, lam=1.3))


class TestMagnusClosedForm:
    @pytest.mark.parametrize("channels", [1, 2])
    def test_ou_against_analytic_double_integral(self, channels):
        m = ou_model() if channels == 1 else correlated_ou_model()
        for t in (0.3, 2.5, 9.0):
            gen = positivity.magnus_phi2(m, t)
            want = ref_phi2(m, lambda g, nu: ou_integral_ref(m.bath, g, nu, t))
            assert np.max(np.abs(gen.phi2 - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))
            # Delta is the traceless-gauge coefficient matrix of the reference Phi2
            want = core.herm_part(tcl2.canonical_coefficient_matrix(want))
            assert np.max(np.abs(gen.delta - want)) <= 1e-12 * max(1.0, np.max(np.abs(want)))

    def test_closed_form_tables_skip_the_dense_pair_tensor(self):
        # a table with no error bound never reads the error gain
        m = correlated_ou_model()
        positivity.magnus_phi2(m, 2.5)
        positivity.interaction_dissipator_samples(m, np.linspace(0.0, 2.5, 6))
        assert "pair_error_gain" not in vars(m)
        # a bound within the table's round-off counts as 0: T > 0 from t = 1e-3, T = 0 on
        # the qubit's gaps at t = 3; a damped tabulated fit is an exact closed form
        for model, t in ((qubit_model, 1.0), (tabulated_model, 1.0), (t0_model, 3.0)):
            m = model()
            gen = positivity.magnus_phi2(m, t)
            assert gen.change == 0 and "pair_error_gain" not in vars(m)
        m = t0_model()
        assert positivity.magnus_phi2(m, 1e-3).change > 0 and "pair_error_gain" in vars(m)

    def test_rotated_equally_spaced_t0_qutrit_takes_the_zero_limit(self):
        # the gap representatives of U diag(0, 1, 2) U^dag are not exactly antisymmetric:
        # two sum to 4.4e-16, where the plain 1/nu quotient of a T = 0 table is wrong by
        # percents; the table is the one at the exact gaps -2 .. 2
        rng = np.random.default_rng(1)
        u = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]
        l = core.herm_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        m = tcl2.SystemModel(h=u @ np.diag([0.0, 1.0, 2.0]) @ core.dag(u), couplings=[l],
                             bath=t0_model().bath)
        w = m.unique_gaps
        assert np.max(np.abs(w + w[::-1])) > 0 and np.max(np.abs(w - np.arange(-2, 3))) < 1e-14
        for t in (0.5, 3.0):
            got, want = (m.bath.coefficient_integral(t, x)[0] for x in (w, np.arange(-2.0, 3.0)))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), t
            gen = positivity.magnus_phi2(m, t)
            assert gen.converged and np.linalg.eigvalsh(gen.delta)[0] > -1e-12

    def test_tabulated_table_matches_double_time_route(self):
        m = tabulated_model()
        for t in (0.8, 1.5):
            gen = positivity.magnus_phi2(m, t)
            d2 = support.delta_double_time(m, t, nodes=48)
            assert np.max(np.abs(d2 - gen.delta)) < 1e-8 * max(1.0, np.max(np.abs(gen.delta)))


class TestMagnusPropagator:
    def test_choi_positive_trace_preserving(self):
        for m in (qubit_model(), ou_model()):
            for t in (0.2, 1.0, 4.0, 15.0):
                g = positivity.magnus_propagator(m, t)
                assert support.trace_preservation_defect(g) < 1e-9
                assert core.min_choi_eigenvalue(core.choi_rearrange(g)) > -1e-10

    def test_free_part_is_the_unitary_evolution(self):
        # with Phi2 = 0 the propagator is the free G0(t) = U0 . U0^dag, U0 = expm(-iHt)
        m = ou_model()
        z = np.zeros((9, 9), dtype=complex)
        for t in (0.4, 3.0, 17.0):
            got = positivity.algebraic_propagator(m, positivity.AlgebraicGenerator(t, z, z))
            assert np.max(np.abs(got - support.unitary_superop(expm(-1j * m.h * t)))) < 1e-13

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


class TestStackedMagnus:
    """magnus_phi2 and algebraic_propagator at a 1-D array of times against one call per
    time, to 1e-14 of max(1, the largest |entry|)."""

    TIMES = np.array([0.0, 1e-3, 0.4, 1.0, 3.0, 8.0])
    MODELS = {"thermal": qubit_model, "t0": t0_model, "tabulated": lambda: tabulated_model(),
              "undamped": undamped_ou_model, "ou-d3": ou_model, "correlated-ou": correlated_ou_model}

    @pytest.mark.parametrize("name", MODELS)
    def test_matches_one_call_per_time(self, name):
        m = self.MODELS[name]()
        times = self.TIMES[self.TIMES <= 2.0] if name == "tabulated" else self.TIMES
        gen = positivity.magnus_phi2(m, times)
        props = positivity.algebraic_propagator(m, gen)
        d2 = m.dim**2
        assert gen.phi2.shape == gen.delta.shape == props.shape == (times.size, d2, d2)
        assert np.array_equal(gen.t, times) and gen.change.shape == gen.converged.shape == times.shape
        scale = max(1.0, np.max(np.abs(gen.phi2)))
        for k, t in enumerate(times.tolist()):
            one = positivity.magnus_phi2(m, t)
            assert type(one.t) is float and type(one.change) is float and type(one.converged) is bool
            assert np.max(np.abs(gen.phi2[k] - one.phi2)) <= 1e-14 * scale
            assert np.max(np.abs(gen.delta[k] - one.delta)) <= 1e-14 * scale
            assert gen.change[k] == pytest.approx(one.change, rel=1e-12, abs=0.0)
            assert gen.converged[k] == one.converged
            prop = positivity.magnus_propagator(m, t)
            assert np.max(np.abs(props[k] - prop)) <= 1e-14 * max(1.0, np.max(np.abs(prop)))

    def test_negative_time_in_an_array_rejected(self):
        with pytest.raises(ValueError, match="magnus_phi2 requires t >= 0"):
            positivity.magnus_phi2(qubit_model(), np.array([1.0, -0.5]))


class TestDoubleTimeRoute:
    def test_matches_algebraic_delta(self):
        m = ou_model()
        for t in (0.8, 2.5):
            d2 = support.delta_double_time(m, t, nodes=48)
            gen = positivity.magnus_phi2(m, t)
            scale = max(1.0, np.max(np.abs(gen.delta)))
            assert np.max(np.abs(d2 - gen.delta)) < 1e-8 * scale

    @pytest.mark.parametrize("model", [t0_model, undamped_ou_model])
    def test_quadrature_tables_match(self, model):
        m = model()
        for t in (0.8, 1.5):
            gen = positivity.magnus_phi2(m, t)
            assert gen.converged
            d2 = support.delta_double_time(m, t, nodes=48)
            assert np.max(np.abs(d2 - gen.delta)) < 1e-8 * max(1.0, np.max(np.abs(gen.delta)))

    def test_positive_semidefinite_by_construction(self):
        m = ou_model(seed=3)
        d2 = support.delta_double_time(m, 1.7, nodes=48)
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

    def test_names_first_non_hermitian_sample(self):
        grid = np.array([0.0, 1.0, 2.0])
        good = np.eye(4)
        bad = np.eye(4)
        bad[0, 1] = 1e-6
        with pytest.raises(ValueError, match="dissipator sample 1 is not Hermitian"):
            positivity.weak_cp_test([good, bad, bad], grid)
        # the bound is 1e-8 max(1, max|s_k|) per sample: the same defect passes
        # on a sample 1e4 times larger
        big = 1e4 * np.eye(4)
        big[0, 1] = 1e-5
        assert np.isfinite(positivity.weak_cp_test([good, big, good], grid))
        bad[0, 1] = 1e-5
        with pytest.raises(ValueError, match="sample 1 "):
            positivity.weak_cp_test([good, bad, good], grid)

    def test_instantaneous_dissipator_can_go_negative(self):
        # non-Markovian: D(tau) itself has transient negative eigenvalues even
        # though every running integral is positive
        m = qubit_model()
        grid = np.linspace(0.0, 6.0, 121)
        samples = positivity.interaction_dissipator_samples(m, grid)
        inst_min = min(float(np.linalg.eigvalsh(s)[0]) for s in samples)
        assert inst_min < -1e-6


def resonant_model():
    # equally spaced d = 4: the gaps -3 .. 3 repeat, so distinct transitions share a gap
    rng = np.random.default_rng(7)
    l = core.herm_part(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))
    return tcl2.SystemModel(h=np.diag([0.0, 1.0, 2.0, 3.0]), couplings=[l],
                            bath=bath.ExponentialOU(c=[[0.08]], lam=1.1))


class TestWeakCPGrid:
    @pytest.mark.parametrize("samples, points", [(5, 3), (2, 3), (1, 1)])
    def test_sample_count_must_match_the_grid(self, samples, points):
        # a longer stack's tail was silently dropped, a shorter one broadcast against the grid
        stack = -np.eye(4) * np.ones((samples, 1, 1))
        with pytest.raises(ValueError, match=f"grid has {points} points and there are {samples} samples"):
            positivity.weak_cp_test(stack, np.linspace(0.0, 1.0, points))

    @pytest.mark.parametrize("grid", [[2.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, np.nan, 2.0],
                                      [0.0, 1.0, np.inf], [[0.0, 1.0, 2.0]]],
                             ids=["decreasing", "repeated", "nan", "inf", "2-D"])
    def test_grid_must_be_finite_and_strictly_increasing(self, grid):
        # a decreasing grid negated every integral, so negative samples passed
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            positivity.weak_cp_test(-np.eye(4) * np.ones((3, 1, 1)), grid)

    def test_rejects_non_finite_samples(self):
        stack = np.zeros((2, 4, 4))
        stack[1, 2, 2] = np.nan
        with pytest.raises(ValueError, match="dissipator sample 1 has a non-finite entry"):
            positivity.weak_cp_test(stack, [0.0, 1.0])

    def test_model_route_validates_its_grid(self):
        m = ou_model(d=2)
        for grid in ([0.0], [1.0, 0.0], [0.0, np.nan]):
            with pytest.raises(ValueError, match="weak test"):
                positivity.weak_test_min_eigenvalue(m, grid)


def record_eigvalsh(monkeypatch):
    """Wrap np.linalg.eigvalsh as positivity sees it; the list of argument shapes."""
    shapes, eigvalsh = [], np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(positivity.np.linalg, "eigvalsh", spy)
    return shapes


def full_stack_min(h):
    return float(np.min(np.linalg.eigvalsh(h)[:, 0]))


def stack_tau(h):
    """The round-off scale the helper screens with, 8 n eps max|h|."""
    return 8 * h.shape[-1] * np.finfo(float).eps * float(np.max(np.abs(h)))


def random_hermitian_stack(k, n, seed=11):
    rng = np.random.default_rng(seed)
    return core.herm_part(rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n)))


class TestStackMinEigenvalue:
    @pytest.mark.parametrize("where", [0, 20, 39], ids=["first", "middle", "last"])
    def test_minimum_anywhere_in_the_stack(self, monkeypatch, where):
        h = random_hermitian_stack(40, 8)
        h[where] -= 20.0 * np.eye(8)
        want = full_stack_min(h)
        assert int(np.argmin(np.linalg.eigvalsh(h)[:, 0])) == where
        shapes = record_eigvalsh(monkeypatch)
        got = positivity._stack_min_eigenvalue(h)
        if where == 0:
            # one decomposition, of the first matrix, and the stack's minimum bit for bit
            assert shapes == [(8, 8)] and got == want
        else:
            # the screen fails and every matrix is decomposed
            assert (40, 8, 8) in shapes and abs(got - want) <= stack_tau(h)

    def test_positive_semidefinite_stack(self):
        x = random_hermitian_stack(30, 6, seed=12)
        h = x @ x  # x Hermitian: x^2 = x x^dag
        assert abs(positivity._stack_min_eigenvalue(h) - full_stack_min(h)) <= stack_tau(h)

    def test_single_matrix(self):
        h = random_hermitian_stack(1, 5)
        assert positivity._stack_min_eigenvalue(h) == full_stack_min(h)

    def test_zero_stack(self):
        # tau = 0, so the screen cannot pass and the fallback reads the exact 0
        assert positivity._stack_min_eigenvalue(np.zeros((5, 4, 4), dtype=complex)) == 0.0

    def test_badly_scaled_stack(self):
        # entries from 1e-12 to 1e4: the screen's tau follows max|h|
        s = np.where(np.random.default_rng(13).random(8) < 0.5, 1e-6, 1e2)
        h = random_hermitian_stack(25, 8, seed=14) * np.multiply.outer(s, s)
        assert abs(positivity._stack_min_eigenvalue(h) - full_stack_min(h)) <= stack_tau(h)


class TestWeakRoute:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_traceless_coordinates_are_an_isometry_onto_the_complement_of_vec_one(self, d):
        # row I of Q holds the coordinates of the unit operator e_I
        q = positivity._traceless_coordinates(np.eye(d * d).reshape(d * d, d, d))
        assert q.shape == (d * d, d * d - 1)
        assert np.max(np.abs(q.T @ q - np.eye(d * d - 1))) < 1e-15
        assert np.max(np.abs(q.T @ core.vec(np.eye(d)))) < 1e-15

    @pytest.mark.parametrize("model", [
        functools.partial(ou_model, d=2), ou_model, functools.partial(ou_model, seed=2, d=4),
        correlated_ou_model, qubit_model, t0_model, tabulated_model, resonant_model,
    ], ids=["ou-d2", "ou-d3", "ou-d4", "correlated-ou", "thermal", "t0", "tabulated", "resonant-d4"])
    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 2.0, 401),
        np.cumsum(np.random.default_rng(4).uniform(0.001, 0.01, 300)),
    ], ids=["uniform", "non-uniform"])
    def test_matches_the_dense_samples(self, monkeypatch, model, grid):
        m = model()
        want = positivity.weak_cp_test(positivity.interaction_dissipator_samples(m, grid), grid)
        stacks, helper = [], positivity._stack_min_eigenvalue
        monkeypatch.setattr(positivity, "_stack_min_eigenvalue", lambda h: stacks.append(h) or helper(h))
        got = positivity.weak_test_min_eigenvalue(m, grid)
        assert got <= 0.0 and abs(got - want) <= 1e-15
        # and within tau of the minimum of every running integral's eigvalsh
        (h,) = stacks
        assert abs(got - min(0.0, full_stack_min(h))) <= stack_tau(h)

    def test_one_eigendecomposition_on_the_fast_path(self, monkeypatch):
        # the trapezoid puts the minimum at the first dense point, so the screen
        # passes and no running integral after it is decomposed
        shapes = record_eigvalsh(monkeypatch)
        positivity.weak_test_min_eigenvalue(ou_model(d=3), np.linspace(0.0, 3.0, 301))
        assert shapes == [(8, 8)]

    def test_reports_a_negative_running_integral(self):
        # the route's min(0, .) hides no failure: a grid that starts inside the
        # non-Markovian transient integrates a negative D(tau)
        m = qubit_model()
        grid = np.linspace(0.0, 6.0, 121)
        inst = positivity.interaction_dissipator_samples(m, grid)
        k = int(np.argmin([np.linalg.eigvalsh(s)[0] for s in inst]))
        sub = grid[k:k + 2]
        want = positivity.weak_cp_test(positivity.interaction_dissipator_samples(m, sub), sub)
        assert want < -1e-8
        assert abs(positivity.weak_test_min_eigenvalue(m, sub) - want) <= 1e-15


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

    def test_pinned_format(self, tmp_path):
        path = tmp_path / "samples.csv"
        samples = np.arange(16).reshape(4, 4) * (1 - 0.5j)
        positivity.save_superop_samples(path, [0.0, 0.5], [samples, 2 * samples])
        with open(path, newline="") as fh:
            lines = fh.read().split("\r\n")
        assert lines[0] == "t," + ",".join(
            f"{part}_{i}_{j}" for i in range(4) for j in range(4) for part in ("re", "im"))
        assert lines[1] == ("0.0,0.0,0.0,1.0,-0.5,2.0,-1.0,3.0,-1.5,4.0,-2.0,5.0,-2.5,6.0,-3.0,"
                            "7.0,-3.5,8.0,-4.0,9.0,-4.5,10.0,-5.0,11.0,-5.5,12.0,-6.0,13.0,-6.5,"
                            "14.0,-7.0,15.0,-7.5")

    def test_shuffled_columns_read_back_equal(self, tmp_path):
        m = qubit_model()
        grid = np.linspace(0.0, 2.0, 9)
        samples = positivity.interaction_dissipator_samples(m, grid)
        path = tmp_path / "samples.csv"
        positivity.save_superop_samples(path, grid, samples)
        rows = [line.split(",") for line in path.read_text().splitlines()]
        order = np.random.default_rng(3).permutation(len(rows[0]))
        shuffled = tmp_path / "shuffled.csv"
        shuffled.write_text("\n".join(",".join(r[i] for i in order) for r in rows) + "\n")
        tg, mats = positivity.load_superop_samples(shuffled)
        assert np.array_equal(tg, grid)
        assert np.array_equal(mats, samples)

    def test_non_square_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t,re_0_0,im_0_0,re_0_1,im_0_1\n0.0,1.0,0.0,0.0,0.0\n")
        with pytest.raises(ValueError, match="square"):
            positivity.load_superop_samples(path)
