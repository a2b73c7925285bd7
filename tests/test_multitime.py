import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad_vec

from oqsolve import bath, multitime, oracle, tcl2

import support

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SY = np.array([[0.0, -1.0j], [1.0j, 0.0]])
SZ = np.diag([1.0, -1.0])


def qubit_model(gamma0=0.1):
    b = bath.ThermalLorentz(gamma0=gamma0, cutoff=5.0, temperature=0.25)
    return tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=b)


def ou_model(lam=1.2, c=0.08):
    return tcl2.SystemModel(
        h=0.5 * SZ, couplings=[SX], bath=bath.ExponentialOU(c=[[c]], lam=lam)
    )


GROUND = np.diag([0.0, 1.0]).astype(complex)  # energies ascend: index 1 is excited


class TestTwoTimeOperator:
    def test_ordering_validation(self):
        with pytest.raises(ValueError):
            multitime.two_time_operator(qubit_model(), 0, 1.0, 2.0)

    def test_white_noise_operator_vanishes(self):
        m = tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=bath.WhiteNoise(c=[0.4]))
        b = multitime.two_time_operator(m, 0, 3.0, 1.0)
        assert np.max(np.abs(b)) == 0.0

    def test_zero_separation_is_zero(self):
        b = multitime.two_time_operator(qubit_model(), 0, 2.0, 0.0)
        full = support.second_order_operator(qubit_model(), 2.0, 0)
        assert np.allclose(b, np.zeros((2, 2)), atol=1e-15) or np.max(np.abs(b)) < 1e-15
        # and at t2 = t1 it equals the fully integrated operator
        b2 = multitime.two_time_operator(qubit_model(), 0, 2.0, 2.0)
        assert np.allclose(b2, full, atol=1e-13)


class TestCorrections:
    def test_zero_when_t2_is_zero(self):
        m = qubit_model()
        req = multitime.TwoTimeRequest(x1=SX, x2=SX, t1=2.0, t2=0.0, rho0=GROUND)
        assert multitime.nm_correction(m, req) == 0.0
        assert multitime.nm_correction_integrated(m, req) == 0.0
        # t1 == t2 leaves no interval to integrate
        req2 = multitime.TwoTimeRequest(x1=SX, x2=SX, t1=2.0, t2=2.0, rho0=GROUND)
        assert multitime.nm_correction_integrated(m, req2) == 0.0

    def test_ordering_validation(self):
        m = qubit_model()
        req = multitime.TwoTimeRequest(x1=SX, x2=SX, t1=1.0, t2=2.0, rho0=GROUND)
        with pytest.raises(ValueError):
            multitime.nm_correction(m, req)
        with pytest.raises(ValueError):
            multitime.nm_correction_integrated(m, req)

    def test_product_form_decays_with_memory(self):
        # once lam (t1 - t2) >> 1 the straddling bath correlations are gone
        m = ou_model(lam=1.2)
        plus = np.full((2, 2), 0.5, dtype=complex)
        near = multitime.TwoTimeRequest(x1=SZ, x2=SX, t1=1.3, t2=1.0, rho0=plus)
        far = multitime.TwoTimeRequest(x1=SZ, x2=SX, t1=41.0, t2=1.0, rho0=plus)
        v_near = abs(multitime.nm_correction(m, near))
        v_far = abs(multitime.nm_correction(m, far))
        assert v_near > 1e-4
        assert v_far < 1e-12

    def test_integrated_form_saturates(self):
        m = ou_model(lam=1.2)
        # the rate decays once tau - t2 exceeds the bath memory, so extending
        # t1 by a full free period (keeping the X1 phase fixed) changes it by the
        # memory left at tau - t2 = 14, about e^{-1.2 * 14} (4.8e-8 relative)
        mid = multitime.TwoTimeRequest(x1=SX, x2=SX, t1=15.0, t2=1.0, rho0=GROUND)
        far = multitime.TwoTimeRequest(
            x1=SX, x2=SX, t1=15.0 + 2 * np.pi, t2=1.0, rho0=GROUND
        )
        v_mid = multitime.nm_correction_integrated(m, mid)
        v_far = multitime.nm_correction_integrated(m, far)
        assert abs(v_mid) > 1e-4
        assert v_far == pytest.approx(v_mid, rel=1e-6)


def three_level_model():
    rng = np.random.default_rng(7)

    def herm(scale):
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        return scale * (a + a.conj().T) / 2

    b = bath.ThermalLorentz(gamma0=[0.1, 0.05], cutoff=[5.0, 3.0], temperature=[0.25, 1.0],
                            n_channels=2)
    m = tcl2.SystemModel(h=np.diag([0.0, 0.7, 1.9]) + herm(0.1),
                         couplings=[herm(0.3), herm(0.2)], bath=b)
    a = herm(1.0)
    rho0 = a @ a / np.trace(a @ a)
    return m, multitime.TwoTimeRequest(x1=herm(1.0), x2=herm(1.0) + 1j * herm(1.0),
                                       t1=1.8, t2=0.6, rho0=rho0)


def reference_rate(m, req, tau):
    """The correction rate in the input basis: free Heisenberg evolution by
    e^{iHt} from numpy's eigh, one coupling at a time."""
    energies, v = np.linalg.eigh(m.h)

    def heisenberg(x, t):
        u = (v * np.exp(1j * energies * t)) @ v.conj().T
        return u @ x @ u.conj().T

    x1h, x2h = heisenberg(req.x1, req.t1), heisenberg(req.x2, req.t2)
    total = 0.0
    for n, l in enumerate(m.couplings):
        lnh = heisenberg(l, tau)
        bh = heisenberg(support.second_order_operator(m, tau, n)
                        - support.second_order_operator(m, tau - req.t2, n), tau)
        total += np.trace((lnh @ x1h - x1h @ lnh) @ (bh @ x2h - x2h @ bh) @ req.rho0)
    return -total


def adaptive_reference(m, req):
    """int_{t2}^{t1} of reference_rate by scipy's adaptive quad_vec, with a break point at
    every unit of time, to 1e-12 relative: its error estimate is at most 2e-13 relative on
    the cases here, and the value moves by less than 1e-14 at 1e-13."""
    points = np.arange(req.t2 + 1.0, req.t1, 1.0)
    return quad_vec(lambda tau: np.array([reference_rate(m, req, tau)]), req.t2, req.t1,
                    epsrel=1e-12, points=points)[0][0]


def correction_case(case):
    """(model, request at t1 = 1.8, t2 = 0.6) of the correction tests."""
    qubit = multitime.TwoTimeRequest(x1=SX, x2=SX + 0.5 * SZ, t1=1.8, t2=0.6, rho0=GROUND)
    if case == "thermal":
        return qubit_model(), qubit
    if case == "zero-temperature":
        b = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.0)
        return tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=b), qubit
    if case == "ou":
        return ou_model(), qubit
    if case == "shipped":  # examples_models/qubit_relaxation.json and its qrt request
        return qubit_model(), multitime.TwoTimeRequest(x1=SX, x2=SX, t1=2.0, t2=0.5,
                                                       rho0=np.eye(2) / 2)
    m, req = three_level_model()
    if case == "oracle":
        m = oracle.reduced_model(oracle.random_composite(4))
    return m, req


class TestEnergyBasisCorrection:
    def test_product_form_matches_input_basis_reference(self):
        m, req = three_level_model()
        want = reference_rate(m, req, req.t1)
        assert multitime.nm_correction(m, req) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("case, t1, t2", [
        ("thermal", 2.0, 0.5), ("zero-temperature", 2.0, 0.5), ("ou", 2.0, 0.5),
        ("three-level", 1.8, 0.6), ("oracle", 1.8, 0.6),
        # the shipped qrt at a late t1, and an interval of 0.01
        ("shipped", 20.0, 0.5), ("three-level", 0.61, 0.6)])
    def test_integrated_form_matches_adaptive_reference(self, case, t1, t2):
        m, req = correction_case(case)
        req = replace(req, t1=t1, t2=t2)
        want = adaptive_reference(m, req)
        assert abs(want) > 1e-4
        assert abs(multitime.nm_correction_integrated(m, req) - want) <= 1e-12 * abs(want)

    def test_integrated_form_over_a_short_interval_where_the_rate_vanishes(self):
        # L = X1 = SX, so the rate vanishes at tau = t1 and over t1 - t2 = 0.01 the correction
        # is O((t1 - t2)^2), 7.1e-6 against table entries near 1e-3: the closed form's round-off,
        # about eps t1 / (t1 - t2) of the tables, is 4.8e-12 of it
        m, req = correction_case("shipped")
        req = replace(req, t1=0.51)
        want = adaptive_reference(m, req)
        assert abs(multitime.nm_correction_integrated(m, req) - want) <= 1e-11 * abs(want)


class TestQrtCorrelation:
    def test_identity_observables_give_unity(self):
        m = qubit_model()
        req = multitime.TwoTimeRequest(
            x1=np.eye(2), x2=np.eye(2), t1=2.0, t2=0.7, rho0=GROUND
        )
        val = multitime.qrt_correlation(m, req)
        assert abs(val - 1.0) < 1e-9
        assert abs(val + multitime.qrt_corrections(m, req)[0] - 1.0) < 1e-9

    def test_reverse_ordering_is_conjugate(self):
        m = qubit_model()
        fwd = multitime.TwoTimeRequest(x1=SX, x2=SY, t1=2.0, t2=0.5, rho0=GROUND)
        rev = multitime.TwoTimeRequest(x1=SY, x2=SX, t1=0.5, t2=2.0, rho0=GROUND)
        a = multitime.qrt_correlation(m, fwd) + multitime.qrt_corrections(m, fwd)[0]
        b = multitime.qrt_correlation(m, rev) + multitime.qrt_corrections(m, rev)[0]
        assert a == pytest.approx(np.conj(b), abs=1e-12)

    def test_reverse_ordering_requires_hermitian_observables(self):
        m = qubit_model()
        raising = np.array([[0.0, 1.0], [0.0, 0.0]])
        req = multitime.TwoTimeRequest(x1=raising, x2=SX, t1=0.5, t2=2.0, rho0=GROUND)
        with pytest.raises(ValueError, match="X1"):
            multitime.qrt_correlation(m, req)

    def test_modes_agree_at_late_switch_on(self):
        m = qubit_model(gamma0=0.05)
        req = multitime.TwoTimeRequest(x1=SX, x2=SX, t1=21.0, t2=20.0, rho0=GROUND)
        a = multitime.qrt_correlation(m, req, mode="stationary")
        b = multitime.qrt_correlation(m, req, mode="full-time")
        # the residual switch-on transient leaves an O(g^2) offset
        assert a == pytest.approx(b, abs=0.03)

    def test_equal_times_reduce_to_single_time_average(self):
        m = qubit_model()
        t = 1.5
        req = multitime.TwoTimeRequest(x1=SX, x2=SY, t1=t, t2=t, rho0=GROUND)
        val = multitime.qrt_correlation(m, req, mode="full-time")
        traj = tcl2.propagate(m, GROUND, [0.0, t], mode="full-time",
                              rtol=1e-11, atol=1e-13)
        want = np.trace(SX @ SY @ traj.states[-1])
        assert val == pytest.approx(complex(want), abs=1e-8)


    @pytest.mark.parametrize("t1, t2", [(1.0, -0.5), (-0.5, 1.0), (-1.0, -2.0)])
    def test_negative_times_rejected(self, t1, t2):
        m = ou_model()
        req = multitime.TwoTimeRequest(x1=SX, x2=SX, t1=t1, t2=t2, rho0=GROUND)
        for mode in ("stationary", "full-time"):
            with pytest.raises(ValueError, match="t1, t2 >= 0"):
                multitime.qrt_correlation(m, req, mode=mode)
        with pytest.raises(ValueError, match="t1, t2 >= 0"):
            multitime.qrt_corrections(m, req)

    @pytest.mark.parametrize("t", [0.0, 1.0])
    def test_unknown_mode_rejected_at_equal_times(self, t):
        req = multitime.TwoTimeRequest(x1=SX, x2=SX, t1=t, t2=t, rho0=GROUND)
        with pytest.raises(ValueError, match="unknown mode"):
            multitime.qrt_correlation(ou_model(), req, mode="bogus")


def test_full_time_propagator_releases_model():
    # with the collector off, the model must still go when its last name does
    m = ou_model()
    ref = weakref.ref(m)
    req = multitime.TwoTimeRequest(x1=SX, x2=SX, t1=0.5, t2=0.2, rho0=GROUND)
    gc.disable()
    try:
        multitime.qrt_correlation(m, req, mode="full-time")
        del m
        assert ref() is None
    finally:
        gc.enable()
