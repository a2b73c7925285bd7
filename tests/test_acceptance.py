"""Acceptance suite: one test per headline guarantee, each emitting a single
pass/fail line.  Run with `pytest -v tests/test_acceptance.py` (add -s to see
the lines for passing criteria too)."""

import numpy as np
from scipy.integrate import solve_ivp

from oqsolve import (
    bath,
    core,
    memkernel,
    multitime,
    oracle,
    positivity,
    spectral,
    tcl2,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]])
SZ = np.diag([1.0, -1.0])


def _report(num, desc, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc} ({detail})"
    print(line, flush=True)
    assert ok, line


def _thermal(gamma0=0.1, cutoff=5.0, temperature=0.25):
    return bath.ThermalLorentz(gamma0=gamma0, cutoff=cutoff, temperature=temperature)


def _qubit_relaxation(gamma0=0.1):
    return tcl2.SystemModel(h=0.5 * SZ, couplings=[SX], bath=_thermal(gamma0=gamma0))


def _three_level(gamma0=0.05, temperature=0.4, seed=12):
    rng = np.random.default_rng(seed)
    l = core.herm_part(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
    b = bath.ThermalLorentz(gamma0=gamma0, cutoff=4.0, temperature=temperature)
    return tcl2.SystemModel(h=np.diag([0.0, 0.9, 2.1]), couplings=[l], bath=b)


def test_criterion_01_dephasing_against_analytic_cumulant():
    # qubit sigma_z dephasing: rho_01(t) = rho_01(0) e^{-i w0 t - Gamma(t)},
    # Gamma(t) = 4 int_0^t Re A(tau; 0) dtau, over t in [0, 10/gamma0]
    b = _thermal()
    m = tcl2.SystemModel(h=0.5 * SZ, couplings=[SZ], bath=b)
    rho0 = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    grid = np.linspace(0.0, 100.0, 21)
    traj = tcl2.propagate(m, rho0, grid, mode="full-time", rtol=1e-9, atol=1e-12)
    sol = solve_ivp(
        lambda t, y: [b.coefficient_full(t, 0.0)[0, 0].real],
        (0.0, 100.0), [0.0], t_eval=grid, rtol=1e-12, atol=1e-14,
    )
    rel = 0.0
    for t, rho, gam in zip(grid[1:], traj.states[1:], sol.y[0][1:]):
        want = 0.5 * np.exp(-1j * t - 4 * gam)
        rel = max(rel, abs(rho[0, 1] - want) / abs(want))
    _report(1, "dephasing matches the analytic cumulant", rel < 1e-6,
            f"max rel err {rel:.3e} < 1e-6")


def test_criterion_02_oracle_convergence_order():
    # halving the system-environment coupling must shrink the trajectory error
    # by >= 10x (fourth-order convergence), across 5 seeded composites
    rho0 = np.diag([1.0, 0.0, 0.0]).astype(complex)
    ratios = []
    for seed in range(5):
        c = oracle.random_composite(seed, dim=3, n_qubits=4, g=0.12, temperature=2.0)
        errs = oracle.convergence_errors(c, rho0, horizon=6.0, npoints=13)
        ratios.append(errs[0] / errs[1])
    _report(2, "error drops >= 10x per coupling halving (5 seeds)",
            min(ratios) >= 10.0, f"ratios {['%.1f' % r for r in ratios]}")


def test_criterion_03_algebraic_propagator_complete_positivity():
    models = [
        _qubit_relaxation(),
        _qubit_relaxation(gamma0=0.3),
        tcl2.SystemModel(h=0.5 * SZ, couplings=[SZ], bath=_thermal()),
        _three_level(),
        tcl2.SystemModel(
            h=0.5 * SZ, couplings=[SX], bath=bath.ExponentialOU(c=[[0.08]], lam=1.2)
        ),
    ]
    times = (0.4, 1.5, 5.0, 20.0)
    worst = np.inf
    count = 0
    for m in models:
        for t in times:
            g = positivity.magnus_propagator(m, t)
            worst = min(worst, core.min_choi_eigenvalue(core.choi_rearrange(g)))
            count += 1
    _report(3, "algebraic propagator Choi PSD over model x time grid",
            count >= 20 and worst >= -1e-10,
            f"{count} points, min Choi eigenvalue {worst:.3e} >= -1e-10")


def test_criterion_04_weak_positivity_of_running_dissipator():
    worst = np.inf
    for m in (_qubit_relaxation(), _three_level()):
        grid = np.linspace(0.0, 6.0, 2001)
        samples = positivity.interaction_dissipator_samples(m, grid)
        worst = min(worst, positivity.weak_cp_test(samples, grid))
    _report(4, "running-integrated dissipator stays PSD", worst >= -1e-8,
            f"min eigenvalue {worst:.3e} >= -1e-8")


def test_criterion_05_kms_condition():
    b = _thermal()  # cutoff 5 -> grid spans [-50, 50]
    res = bath.kms_residual(b, np.linspace(-50.0, 50.0, 201))
    b0 = bath.ThermalLorentz(gamma0=0.1, cutoff=1e6, temperature=0.0)
    res0 = bath.kms_residual(b0, np.linspace(-20.0, 20.0, 81))
    ok = res < 1e-9 and res0 < 1e-6
    _report(5, "KMS detailed balance of the spectrum", ok,
            f"thermal residual {res:.3e} < 1e-9, zero-T residual {res0:.3e} < 1e-6")


def test_criterion_06_fluctuation_dissipation_inequality():
    worst = np.inf
    for b in (
        _thermal(),
        bath.ThermalLorentz(gamma0=0.2, cutoff=3.0, temperature=0.0),
        bath.ExponentialOU(c=[[0.3]], lam=1.2),
    ):
        worst = min(worst, bath.fdi_check(bath.kernels(b, np.linspace(-8.0, 8.0, 33))))
    _report(6, "fluctuation-dissipation inequality", worst >= -1e-12,
            f"min eigenvalue {worst:.3e} >= -1e-12")


def test_criterion_07_pauli_characteristic_matrix():
    m = _three_level()
    ps = spectral.pauli_system(m)
    wnorm = float(np.max(np.abs(ps.W)))
    gibbs = np.exp(-m.basis.energies / 0.4)
    gibbs /= gibbs.sum()
    gibbs_res = float(np.max(np.abs(ps.W @ gibbs))) / wnorm
    colsum = float(np.max(np.abs(ps.W.sum(axis=0)))) / wnorm
    imag = float(np.max(np.abs(ps.eigenvalues.imag)))
    m0 = tcl2.SystemModel(
        h=m.h, couplings=m.couplings,
        bath=bath.ThermalLorentz(gamma0=0.05, cutoff=4.0, temperature=0.0),
    )
    w0 = spectral.pauli_system(m0).W
    lower = max(abs(w0[1, 0]), abs(w0[2, 0]), abs(w0[2, 1]))
    ok = gibbs_res < 1e-8 and colsum < 1e-12 and imag < 1e-10 and lower < 1e-14
    _report(7, "Pauli matrix: Gibbs kernel, zero columns, real spectrum, "
               "zero-T triangularity", ok,
            f"Gibbs {gibbs_res:.1e}, colsum {colsum:.1e}, imag {imag:.1e}, "
            f"zero-T lower {lower:.1e}")


def test_criterion_08_pseudo_lindblad_reassembly():
    worst = 0.0
    cases = [
        (_qubit_relaxation(), None),
        (_qubit_relaxation(), 1.3),
        (_three_level(), None),
        (_three_level(), 0.7),
    ]
    for m, t in cases:
        s = tcl2.build_L2(m, t)
        pl = tcl2.pseudo_lindblad(s, m.h)
        scale = max(1.0, float(np.max(np.abs(s))))
        worst = max(worst, float(np.max(np.abs(pl.reassemble() - s))) / scale)
        s_eb = tcl2._dissipative_superop_eb(m, t) + core.commutator_superop(
            np.diag(m.basis.energies)
        )
        micro = tcl2.microscopic_pseudo_lindblad(m, t)
        worst = max(worst, float(np.max(np.abs(micro.reassemble() - s_eb))) / scale)
    _report(8, "pseudo-Lindblad splits reassemble the generator",
            worst < 1e-10, f"max residual {worst:.3e} < 1e-10")


def test_criterion_09_nonlocal_poles_and_asymptotics():
    pole_res = 0.0
    for m in (_qubit_relaxation(), _three_level()):
        spec = spectral.perturbative_spectrum(m)
        poles = memkernel.nonlocal_poles(m)
        for p in spec.pairs:
            pole_res = max(pole_res, abs(poles[p] - spec.f[p]))
    # sector-decoupled model: the kernel's final value must agree with the
    # time-local stationary state
    m = _qubit_relaxation()
    rho_inf = memkernel.asymptotic_state(m)
    s = tcl2.build_L2(m, None)
    evals, vecs = np.linalg.eig(s)
    st = core.unvec(vecs[:, np.argmin(np.abs(evals))], 2)
    st = core.herm_part(st) / np.trace(st).real
    asym = float(np.max(np.abs(rho_inf - st)))
    ok = pole_res < 1e-8 and asym < 1e-6
    _report(9, "kernel poles match time-local shifts; asymptotic state agrees",
            ok, f"pole residual {pole_res:.3e} < 1e-8, state diff {asym:.3e} < 1e-6")


def test_criterion_10_regression_correction():
    c = oracle.random_composite(7, dim=2, n_qubits=3, g=0.15, temperature=2.0)
    rho0 = np.diag([1.0, 0.0]).astype(complex)
    t1, t2 = 3.0, 1.0

    def errors(g):
        cf = c.with_coupling(g)
        m = oracle.reduced_model(cf)
        exact = oracle.exact_two_time(cf, SX, t1, SX, t2, rho0)
        req = multitime.TwoTimeRequest(x1=SX, x2=SX, t1=t1, t2=t2, rho0=rho0)
        bare = multitime.qrt_correlation(m, req, mode="full-time")
        corr = bare + multitime.qrt_corrections(m, req)[0]
        return abs(bare - exact), abs(corr - exact)

    b1, c1 = errors(0.15)
    b2, c2 = errors(0.075)
    ratio = b1 / b2
    # straddling correlations are gone once lam (t1 - t2) >> 1
    m_ou = tcl2.SystemModel(
        h=0.5 * SZ, couplings=[SX], bath=bath.ExponentialOU(c=[[0.08]], lam=1.2)
    )
    plus = np.full((2, 2), 0.5, dtype=complex)
    far = abs(multitime.nm_correction(
        m_ou, multitime.TwoTimeRequest(x1=SZ, x2=SX, t1=42.0, t2=1.0, rho0=plus)
    ))
    ok = 3.5 <= ratio <= 4.5 and c1 < b1 and c2 < b2 and far < 1e-6
    _report(10, "regression error is second order and the correction decays",
            ok, f"bare ratio {ratio:.2f} in [3.5, 4.5], corrected {c1:.1e} < "
                f"bare {b1:.1e}, far-separation correction {far:.1e} < 1e-6")


def test_criterion_11_zero_frequency_coefficient_limit():
    rel = 0.0
    for g0, lam, temp in ((0.1, 5.0, 0.25), (0.3, 2.0, 1.7)):
        b = bath.ThermalLorentz(gamma0=g0, cutoff=lam, temperature=temp)
        a = b.coefficient_stationary(0.0)[0, 0]
        he = (a + np.conj(a)) / 2
        rel = max(rel, abs(he - g0 * temp) / (g0 * temp))
    _report(11, "He[A(0)] equals gamma0 T", rel < 1e-8,
            f"max rel err {rel:.3e} < 1e-8")
