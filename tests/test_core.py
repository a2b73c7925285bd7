import csv
import io
import math
import re
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from oqsolve import bath, core, positivity, tcl2

import support
import test_positivity


def _rand_op(rng, d):
    return rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))


def _rand_herm(rng, d):
    return core.herm_part(_rand_op(rng, d))


def _rand_state(rng, d):
    a = _rand_op(rng, d)
    rho = a @ core.dag(a)
    return rho / np.trace(rho)


complex_matrices = st.integers(min_value=2, max_value=5).flatmap(
    lambda d: st.lists(
        st.floats(min_value=-10, max_value=10, allow_nan=False),
        min_size=2 * d * d,
        max_size=2 * d * d,
    ).map(lambda v: (np.array(v[: d * d]) + 1j * np.array(v[d * d:])).reshape(d, d))
)


class TestVec:
    def test_row_major_convention(self):
        x = np.arange(9).reshape(3, 3)
        assert core.vec(x)[1 * 3 + 2] == x[1, 2]

    @given(complex_matrices)
    @settings(max_examples=50, deadline=None)
    def test_round_trip(self, x):
        assert np.array_equal(core.unvec(core.vec(x), x.shape[0]), x)

    def test_unvec_infers_dimension(self):
        v = np.arange(16.0)
        assert core.unvec(v).shape == (4, 4)


class TestSandwich:
    @given(complex_matrices)
    @settings(max_examples=50, deadline=None)
    def test_action_matches_matrix_product(self, x):
        d = x.shape[0]
        rng = np.random.default_rng(3)
        a, b = _rand_op(rng, d), _rand_op(rng, d)
        lhs = core.unvec(core.superop_sandwich(a, b) @ core.vec(x), d)
        assert np.allclose(lhs, a @ x @ b, atol=1e-9 * max(1.0, np.max(np.abs(x))))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            core.superop_sandwich(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stack_equals_kron_per_matrix(self, d):
        # transposed views are not contiguous; np.kron(A, B^T) is the reference, exactly
        rng = np.random.default_rng(d)
        a = np.stack([_rand_op(rng, d) for _ in range(5)]).swapaxes(-1, -2)
        b = np.stack([_rand_op(rng, d) for _ in range(5)]).swapaxes(-1, -2)
        assert not a.flags.c_contiguous
        s = core.superop_sandwich(a, b)
        assert s.shape == (5, d * d, d * d)
        for k in range(5):
            assert np.array_equal(s[k], np.kron(a[k], b[k].T))
            assert np.array_equal(core.superop_sandwich(a[k], b[k]), s[k])

    @pytest.mark.parametrize("a_shape, b_shape", [
        ((3, 2, 2), (3, 3, 3)), ((3, 2, 2), (4, 2, 2)), ((3, 2, 3), (3, 2, 3)), ((4,), (4,))])
    def test_stack_shape_mismatch_rejected(self, a_shape, b_shape):
        with pytest.raises(ValueError, match="dimension mismatch"):
            core.superop_sandwich(np.ones(a_shape), np.ones(b_shape))

    @pytest.mark.parametrize("name", test_positivity.TestStackedMagnus.MODELS)
    def test_algebraic_propagator_is_one_sandwich_per_time(self, name):
        # G(t) = G0(t) exp(Phi2(t)) with G0 = U0 . U0^dag, bit for bit per time
        stacked = test_positivity.TestStackedMagnus
        m = stacked.MODELS[name]()
        times = stacked.TIMES[stacked.TIMES <= 2.0] if name == "tabulated" else stacked.TIMES
        gen = positivity.magnus_phi2(m, times)
        props = positivity.algebraic_propagator(m, gen)
        g, v = core.expm(gen.phi2), m.basis.vectors
        for k, t in enumerate(times.tolist()):
            u0 = (v * np.exp(-1j * (t * m.basis.energies))) @ core.dag(v)
            assert np.array_equal(props[k], core.superop_sandwich(u0, core.dag(u0)) @ g[k]), t

    def test_commutator_action(self):
        rng = np.random.default_rng(5)
        h, x = _rand_herm(rng, 4), _rand_op(rng, 4)
        got = support.apply_superop(core.commutator_superop(h), x)
        assert np.allclose(got, -1j * (h @ x - x @ h), atol=1e-12)

    def test_unitary_superop_is_trace_preserving(self):
        rng = np.random.default_rng(6)
        u = expm(1j * _rand_herm(rng, 3))
        s = support.unitary_superop(u)
        assert support.trace_preservation_defect(s) < 1e-10
        assert core.hermiticity_preservation_defect(s) < 1e-10


class TestDissipator:
    def test_trace_annihilated(self):
        rng = np.random.default_rng(7)
        s = support.dissipator_superop(_rand_op(rng, 3), rate=0.7)
        assert support.trace_preservation_defect(s, generator=True) < 1e-12

    def test_decay_channel_action(self):
        sm = np.array([[0.0, 1.0], [0.0, 0.0]])
        rho = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
        out = support.apply_superop(support.dissipator_superop(sm), rho)
        assert np.allclose(out, np.diag([1.0, -1.0]), atol=1e-14)


class TestChoi:
    @given(complex_matrices)
    @settings(max_examples=50, deadline=None)
    def test_involution(self, s_seed):
        d = s_seed.shape[0]
        rng = np.random.default_rng(11)
        s = _rand_op(rng, d * d)
        assert np.array_equal(core.choi_rearrange(core.choi_rearrange(s)), s)

    def test_sandwich_choi_is_outer_product(self):
        rng = np.random.default_rng(13)
        x, y = _rand_op(rng, 3), _rand_op(rng, 3)
        c = core.choi_rearrange(core.superop_sandwich(x, core.dag(y)))
        expect = np.outer(core.vec(x), np.conj(core.vec(y)))
        assert np.allclose(c, expect, atol=1e-12)

    def test_unitary_channel_choi_rank_one(self):
        rng = np.random.default_rng(17)
        u = expm(1j * _rand_herm(rng, 3))
        c = core.choi_rearrange(support.unitary_superop(u))
        evals = np.linalg.eigvalsh(core.herm_part(c))
        assert evals[-1] == pytest.approx(3.0, abs=1e-10)
        assert np.max(np.abs(evals[:-1])) < 1e-10

    def test_min_choi_eigenvalue_detects_nonpositivity(self):
        # transpose map: hermiticity-preserving and trace-preserving but not CP
        d = 2
        s = np.zeros((4, 4))
        for i in range(d):
            for j in range(d):
                for ip in range(d):
                    for jp in range(d):
                        s[i * d + j, ip * d + jp] = float(i == jp and j == ip)
        assert core.min_choi_eigenvalue(core.choi_rearrange(s)) < -0.5


class TestPreservationChecks:
    def test_generator_vs_map_targets(self):
        rng = np.random.default_rng(19)
        gen = core.commutator_superop(_rand_herm(rng, 3)) + support.dissipator_superop(
            _rand_op(rng, 3)
        )
        assert support.trace_preservation_defect(gen, generator=True) < 1e-12
        assert support.trace_preservation_defect(expm(gen)) < 1e-10

    def test_hermiticity_preservation(self):
        rng = np.random.default_rng(23)
        gen = support.dissipator_superop(_rand_op(rng, 3))
        assert core.hermiticity_preservation_defect(gen) < 1e-12
        gen[0, 1] += 0.1
        assert core.hermiticity_preservation_defect(gen) > 0.01


def _expm_models():
    """T > 0, T = 0 and OU models of dimension 2-4, each with random Hermitian H and L."""
    rng = np.random.default_rng(31)
    baths = [(2, bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.25)),
             (3, bath.ThermalLorentz(gamma0=0.05, cutoff=3.0, temperature=1.0)),
             (3, bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.0)),
             (2, bath.ExponentialOU(c=[[0.08]], lam=1.1)),
             (4, bath.ExponentialOU(c=[[0.05]], lam=1.3))]
    return [tcl2.SystemModel(h=_rand_herm(rng, d), couplings=[_rand_herm(rng, d)], bath=b)
            for d, b in baths]


def _mp_expm(a):
    with mpmath.workdps(40):
        ref = mpmath.expm(mpmath.matrix(a.tolist()))
        return np.array(ref.tolist(), dtype=complex)


def _relative_error(a):
    got, want = core.expm(a), _mp_expm(a)
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestExpm:
    @pytest.mark.parametrize("k", range(5))
    def test_against_mpmath_on_generators_and_magnus_exponents(self, k):
        m = _expm_models()[k]
        s = tcl2.build_L2(m, None)
        mats = [s * h for h in (0.05, 0.5, 2.0, 10.0, 40.0)]
        mats += [positivity.magnus_phi2(m, t).phi2 for t in (1.0, 8.0)]
        assert max(_relative_error(a) for a in mats) <= 1e-13

    def test_zero_is_the_identity(self):
        for d in (1, 4, 9):
            assert np.array_equal(core.expm(np.zeros((d, d))), np.eye(d))
            assert np.array_equal(core.expm(np.zeros((d, d), dtype=complex)), np.eye(d))

    def test_unitary_evolution(self):
        # every squaring doubles the round-off of U U^dag - 1: |Ht| of 30-100 takes 3-5 of them
        rng = np.random.default_rng(37)
        for d in (2, 3, 4):
            h = _rand_herm(rng, d)
            for t, tol in ((0.01, 1e-14), (1.0, 1e-14), (5.0, 1e-14), (30.0, 5e-14)):
                u = core.expm(-1j * h * t)
                assert np.max(np.abs(u @ core.dag(u) - np.eye(d))) <= tol, (d, t)

    def test_step_maps_preserve_the_trace(self):
        # vec(1)^T S = 0 for a TCL2 generator, so vec(1)^T expm(S h) = vec(1)^T: to 1e-15 up
        # to |S h|_1 = 10 (a shipped-grid step is 0.14), then to round-off in |S h|_1, which
        # the squarings carry (h = 40 takes up to 7 of them, at |S h|_1 up to 360).  The
        # built generator's own column traces (up to 1.2e-15 at T = 0) are projected out
        for m in _expm_models():
            one = core.vec(np.eye(m.dim))
            s = tcl2.build_L2(m, None)
            s -= np.outer(one, one @ s) / m.dim
            for h in (0.05, 0.5, 2.0, 10.0, 40.0):
                tol = max(1e-15, 1e-16 * np.max(np.abs(s * h).sum(axis=0)))
                assert np.max(np.abs(one @ core.expm(s * h) - one)) <= tol, h

    @pytest.mark.parametrize("degree", [3, 5, 7, 9, 13])
    def test_norms_at_each_pade_threshold(self, degree):
        # a random complex 4x4 matrix scaled to 1-norm just below and just above theta_m:
        # the degree (and at theta_13, the scaling) switches there
        rng = np.random.default_rng(degree)
        a = _rand_op(rng, 4)
        a /= np.max(np.abs(a).sum(axis=0))
        for factor in (1 - 1e-9, 1 + 1e-9):
            assert _relative_error(a * core._PADE_THETA[degree] * factor) <= 1e-14

    def test_non_finite_entry_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            core.expm(np.array([[0.0, np.nan], [0.0, 0.0]]))

    def test_stack_matches_per_matrix_calls(self):
        # 1-norms from 0.01 to 12: the stack takes degree 13 and s = 2 squarings from its
        # largest, where the smaller matrices alone take lower degrees and no scaling
        rng = np.random.default_rng(3)
        a = _rand_op(rng, 6)[None] * rng.normal(size=(5, 1, 1)) + _rand_op(rng, 6)
        a *= (np.array([0.01, 0.3, 1.0, 3.0, 12.0]) / np.abs(a).sum(axis=-2).max(axis=-1))[:, None, None]
        assert math.ceil(math.log2(12.0 / core._PADE_THETA[13])) == 2
        got = core.expm(a)
        assert got.shape == a.shape
        for x, want in zip(got, (core.expm(m) for m in a)):
            assert np.max(np.abs(x - want)) <= 1e-15 * np.max(np.abs(want))

    def test_one_matrix_is_a_stack_of_one(self):
        # a single matrix takes the same degree, scaling and products as a stack of one
        for k in range(3):
            m = _expm_models()[k]
            for a in (tcl2.build_L2(m, None) * 3.0, positivity.magnus_phi2(m, 8.0).phi2):
                assert np.array_equal(core.expm(a), core.expm(a[None])[0])


class TestBasisChange:
    def test_round_trip_and_action(self):
        rng = np.random.default_rng(29)
        m = tcl2.SystemModel(h=_rand_herm(rng, 3), couplings=[_rand_herm(rng, 3)],
                             bath=bath.WhiteNoise(c=[0.1]))
        u = m.basis.vectors
        assert np.allclose(m.to_input @ m.to_energy, np.eye(9), atol=1e-12)
        assert np.allclose(m.to_energy @ m.to_input, np.eye(9), atol=1e-12)
        s = _rand_op(rng, 9)
        rho = _rand_state(rng, 3)
        assert np.allclose(support.apply_superop(m.to_energy, rho), core.dag(u) @ rho @ u,
                           atol=1e-12)
        # S carried to the energy basis acts as rho -> U^dag S{U rho U^dag} U
        direct = core.dag(u) @ support.apply_superop(s, u @ rho @ core.dag(u)) @ u
        assert np.allclose(support.apply_superop(m.to_energy @ s @ m.to_input, rho), direct,
                           atol=1e-12)


class TestSpectralBasis:
    def test_ascending_and_deterministic(self):
        rng = np.random.default_rng(31)
        h = _rand_herm(rng, 5)
        b1 = core.eig_hermitian(h)
        b2 = core.eig_hermitian(h.copy())
        assert np.all(np.diff(b1.energies) >= 0)
        assert np.array_equal(b1.vectors, b2.vectors)
        assert np.allclose(
            b1.vectors @ np.diag(b1.energies) @ core.dag(b1.vectors), h, atol=1e-10
        )

    def test_gap_antisymmetry(self):
        b = core.eig_hermitian(np.diag([0.0, 1.0, 2.5]))
        assert np.allclose(b.gaps, -b.gaps.T)

    def test_to_from_energy_basis(self):
        rng = np.random.default_rng(37)
        h = _rand_herm(rng, 4)
        b = core.eig_hermitian(h)
        x = _rand_op(rng, 4)
        assert np.allclose(b.from_energy_basis(b.to_energy_basis(x)), x, atol=1e-12)
        assert np.allclose(b.to_energy_basis(h), np.diag(b.energies), atol=1e-10)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            core.eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestRequireState:
    def test_accepts_a_state_and_returns_it_complex(self):
        rho = core.require_state(np.diag([0.25, 0.75]))
        assert rho.dtype == complex

    @pytest.mark.parametrize("rho, match", [
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "not Hermitian"),
        (np.diag([0.5, 0.5 + 5e-9]), "trace"),
        (np.diag([1.2, -0.2]), "positive semidefinite"),
    ])
    def test_rejects(self, rho, match):
        with pytest.raises(ValueError, match=match):
            core.require_state(rho, "rho0")

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, complex(0, np.inf)])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_non_finite_entry_named_without_a_warning(self, bad, where):
        # inf - inf in the Hermiticity defect would warn before the error
        h = np.eye(3, dtype=complex)
        h[where] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^H has a non-finite entry$"):
                core.require_hermitian(h, name="H")
            with pytest.raises(ValueError, match=r"^H 1 has a non-finite entry$"):
                core.require_hermitian(np.array([np.eye(3), h]), name="H")
            # the first failing matrix is still named first
            with pytest.raises(ValueError, match=r"^H 0 is not Hermitian"):
                core.require_hermitian(np.array([np.triu(np.ones((3, 3))), h]), name="H")

    def test_stacked_hermiticity_names_first_bad_matrix(self):
        stack = np.array([np.eye(2), [[1.0, 1e-6], [0.0, 1.0]]])
        with pytest.raises(ValueError, match="sample 1 is not Hermitian"):
            core.require_hermitian(stack, tol=1e-8, name="sample")

    @pytest.mark.parametrize("shape", [(1, 3), (3, 1), (2, 2, 3), (3,), ()])
    def test_non_square_rejected_with_its_shape(self, shape):
        # (1, 3) minus its (3, 1) transpose broadcasts, so only a shape check catches it
        match = rf"H must be a square .* shape {re.escape(str(shape))}"
        with pytest.raises(ValueError, match=match):
            core.require_hermitian(np.ones(shape), name="H")


class TestMatrixCSV:
    def _series(self, k=3, n=2):
        rng = np.random.default_rng(4)
        return np.linspace(0.0, 1.0, k), rng.normal(size=(k, n, n)) + 1j * rng.normal(size=(k, n, n))

    def _write(self, path, text):
        path.write_text(text)
        return path

    def test_round_trip_with_prefix_and_extra_columns(self, tmp_path):
        times, mats = self._series()
        for name in ("", "rho"):
            path = tmp_path / f"series-{name}.csv"
            with open(path, "w", newline="") as fh:
                core.write_matrix_csv(fh, times, mats, name, extra={"trace": [1.0, 2.0, 3.0]})
            header = path.read_text().splitlines()[0].split(",")
            prefix = f"{name}_" if name else ""
            assert header[:3] == ["t", f"re_{prefix}0_0", f"im_{prefix}0_0"]
            assert header[-1] == "trace"
            t, back = core.read_matrix_csv(path, name)
            assert np.array_equal(t, times)
            assert np.array_equal(back, mats)

    def test_matches_element_loop_writer(self):
        # the per-element writer the codec replaced, as the reference
        rng = np.random.default_rng(9)
        times = np.linspace(0.0, 3.0, 5)
        mats = rng.normal(size=(5, 3, 3)) * 10.0 ** rng.integers(-300, 300, size=(5, 3, 3)) \
            + 1j * rng.normal(size=(5, 3, 3))
        mats[0, 0, 0] = -0.0
        trace = rng.normal(size=5)
        buf = io.StringIO()
        core.write_matrix_csv(buf, times, mats, "rho", extra={"trace": trace})
        ref = io.StringIO()
        writer = csv.writer(ref)
        writer.writerow(["t"] + [f"{p}_rho_{i}_{j}" for i in range(3) for j in range(3)
                                 for p in ("re", "im")] + ["trace"])
        for t, m, tr in zip(times, mats, trace):
            row = [repr(float(t))]
            for i in range(3):
                for j in range(3):
                    row += [repr(float(m[i, j].real)), repr(float(m[i, j].imag))]
            writer.writerow(row + [repr(float(tr))])
        assert buf.getvalue() == ref.getvalue()

    def test_pinned_bytes(self):
        # each value is its float repr, -0.0 and the smallest subnormal included
        mats = np.array([[[complex(-0.0, 5e-324)]], [[1e16 + 1j / 3]], [[1e-20 - 2.5e20j]]])
        buf = io.StringIO()
        core.write_matrix_csv(buf, [0.0, 1 / 3, 2.0], mats, "x", extra={"e": [1e20, -7e-21, 123456.789]})
        assert buf.getvalue() == ("t,re_x_0_0,im_x_0_0,e\r\n"
                                  "0.0,-0.0,5e-324,1e+20\r\n"
                                  "0.3333333333333333,1e+16,0.3333333333333333,-7e-21\r\n"
                                  "2.0,1e-20,-2.5e+20,123456.789\r\n")

    def test_missing_entries_stay_zero(self, tmp_path):
        path = self._write(tmp_path / "a.csv", "t,re_x_1_1,im_x_1_1\n0.0,2.0,-1.0\n")
        t, back = core.read_matrix_csv(path, "x")
        assert back.shape == (1, 2, 2)
        assert np.array_equal(back[0], [[0, 0], [0, 2 - 1j]])

    @pytest.mark.parametrize("text, match", [
        ("t,re_x_0_0\n0.0,1.0\n", "re_ column of entry 0,0 has no partner"),
        ("t,im_x_0_0\n0.0,1.0\n", "im_ column of entry 0,0 has no partner"),
        ("t,re_x_0_0,im_x_0_0,re_x_00_0\n0.0,1.0,0.0,2.0\n", "'re_x_00_0' is repeated"),
        ("t,re_x_0_0,im_x_0_0\n0.0,one,0.0\n", "line 2"),
        ("t,re_x_0_0,im_x_0_0\n0.0,1.0\n", "line 2: 2 cells"),
        ("re_x_0_0,im_x_0_0\n1.0,0.0\n", "'t' column"),
        ("t,t,re_x_0_0,im_x_0_0\n0.0,0.0,1.0,0.0\n", "found 2"),
        ("t,re_y_0_0,im_y_0_0\n0.0,1.0,0.0\n", "'re_y_0_0' is repeated or not an entry of 'x'"),
        ("t,trace\n0.0,1.0\n", "no re_/im_ columns"),
    ])
    def test_malformed_rejected(self, tmp_path, text, match):
        with pytest.raises(ValueError, match=match):
            core.read_matrix_csv(self._write(tmp_path / "bad.csv", text), "x")
