"""Seeded job lists for the three workloads and the checks of every job's output.

A job is one `oqsolve` CLI invocation: a subcommand, a model file and extra
arguments.  Each job carries a reference built in `reference.py` before any
job runs, and a check that compares the job's output file with it.
"""

from __future__ import annotations

import copy
import csv
import io
import json

import numpy as np

import reference as ref

WORKLOADS = ("stationary", "time-dependent", "cp-audit")

# The zero-temperature A(t; w) loses accuracy as t grows (quad reaches its
# subdivision limit); the job below keeps that fault measured until mended.
KNOWN_FAULTS = {
    "td-coefficients-t0": "bath._ThermalChannelT0.coefficient_full: spectral quadrature "
                          "hits quad's subdivision limit (relative error > 1e-8 for t >= 2)",
}


class Job:
    def __init__(self, name, sub, doc, check, extra=()):
        self.name = name
        self.sub = sub
        self.doc = doc
        self.extra = list(extra)
        self._check = check
        self.ref = None

    def argv(self, model_path, out_path):
        return [self.sub, "--model", model_path, "--out", out_path, *self.extra]

    def prepare(self):
        self.ref = self._check.reference(self)

    def check(self, text, outputs):
        return self._check.verify(self, text, outputs)


# ---------------------------------------------------------------------------
# model documents
# ---------------------------------------------------------------------------

def _cm(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _parse(node):
    a = np.asarray(node, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _doc(h, couplings, bath, run):
    return {"system": {"hamiltonian": _cm(h), "couplings": [_cm(l) for l in couplings]},
            "bath": bath, "run": run}


# Parameter ranges are narrow on purpose: the seed changes every input, but a
# job's cost (integrator steps, quadrature nodes) should not swing with it.
def _thermal(rng, temperature=None):
    return {"variant": "thermal_lorentz",
            "gamma0": float(rng.uniform(0.09, 0.11)),
            "cutoff": float(rng.uniform(4.8, 5.2)),
            "temperature": float(rng.uniform(0.22, 0.3)) if temperature is None else temperature}


def _ou(rng, nch=1):
    a = rng.uniform(0.07, 0.08, size=nch) / nch
    c = np.diag(a)
    if nch == 2:
        c[0, 1] = c[1, 0] = rng.uniform(0.2, 0.3) * np.sqrt(a[0] * a[1])
    return {"variant": "ou", "c": c.tolist(), "lam": float(rng.uniform(1.15, 1.25))}


# Level spacings per dimension, kept apart so that no two Bohr frequencies come
# close (near-resonant gaps would break the perturbative spectrum's premise).
_SPACINGS = {2: [(0.95, 1.05)], 3: [(0.65, 0.7), (1.15, 1.25)],
             4: [(0.5, 0.6), (0.9, 1.0), (2.0, 2.1)]}


def _levels(rng, d):
    steps = [rng.uniform(lo, hi) for lo, hi in _SPACINGS[d]]
    e = np.concatenate([[0.0], np.cumsum(steps)])
    return e - e.mean()


def _herm(rng, d):
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    l = 0.5 * (a + a.conj().T)
    return l / np.max(np.abs(np.linalg.eigvalsh(l)))


def _pure_state(rng, d):
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    v /= np.linalg.norm(v)
    return np.outer(v, v.conj())


def _dephasing(rng, d, bath, nch=1, **run):
    """Ascending diagonal H with diagonal couplings and a random pure rho0."""
    h = np.diag(_levels(rng, d))
    ls = [np.diag(rng.permutation(np.linspace(-1.0, 1.0, d) + rng.uniform(-0.05, 0.05, size=d)))
          for _ in range(nch)]
    run = dict(run, rho0=_cm(_pure_state(rng, d)))
    return _doc(h, ls, bath, run)


def _relaxation(rng, d, bath, **run):
    """Ascending diagonal H and one random Hermitian coupling, weaker for d > 2
    so that second-order corrections stay small next to the level spacings."""
    return _doc(np.diag(_levels(rng, d)), [_herm(rng, d) * (1.0 if d == 2 else 0.5)], bath, run)


def _frame(doc):
    sysn = doc["system"]
    return ref.Frame(_parse(sysn["hamiltonian"]), [_parse(l) for l in sysn["couplings"]])


def _diag_model(doc):
    sysn = doc["system"]
    hd = np.real(np.diag(_parse(sysn["hamiltonian"])))
    lds = [np.real(np.diag(_parse(l))) for l in sysn["couplings"]]
    return hd, lds


def _grid(run, tmax, n):
    return np.linspace(0.0, float(run.get("t_max", tmax)), int(run.get("n_points", n)))


def _rho0(doc):
    d = len(doc["system"]["hamiltonian"])
    node = doc["run"].get("rho0")
    return np.eye(d, dtype=complex) / d if node is None else _parse(node)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

STATE_TOL = 1e-8    # absolute, trajectories (RK45 runs at rtol 1e-10, atol 1e-12)
TALBOT_TOL = 2e-5   # absolute; talbot_invert's 64 nodes lose ~6 digits to round-off
COEF_RTOL = 1e-8    # relative, A(t; w) and A(inf; w)
MAGNUS_TOL = 1e-8   # absolute, Choi / Delta minima and the weak test

def _close(got, want, rtol, atol=0.0):
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    err = float(np.max(np.abs(got - want))) if want.size else 0.0
    scale = float(np.max(np.abs(want))) if want.size else 0.0
    return err <= atol + rtol * scale, err


def _checks_pass(report):
    bad = [k for k, v in report.get("checks", {}).items() if v != "pass"]
    return not bad, f"report checks failing: {bad}" if bad else ""


class Simulate:
    """Trajectory CSV against an exact dephasing solution or expm of the
    reference stationary generator."""

    def __init__(self, kind):
        self.kind = kind  # "dephasing" or "relaxation"

    def reference(self, job):
        doc = job.doc
        bath = ref.bath_from_doc(doc["bath"])
        grid = _grid(doc["run"], 10.0, 101)
        rho0 = _rho0(doc)
        if self.kind == "relaxation":
            return ref.stationary_trajectory(_frame(doc), bath, rho0, grid)
        hd, lds = _diag_model(doc)
        if doc["run"].get("mode", "stationary") == "stationary":
            a0 = bath.stationary(0.0)
            gammas = [t * a0 for t in grid]
        else:
            gammas = ref.dephasing_gamma(bath, grid)
        return ref.dephasing_trajectory(hd, lds, rho0, grid, gammas)

    def verify(self, job, text, outputs):
        rows = list(csv.reader(io.StringIO(text)))
        data = np.array([[float(x) for x in r] for r in rows[1:]])
        d = job.ref.shape[1]
        cols = data[:, 1:1 + 2 * d * d]
        rho = (cols[:, 0::2] + 1j * cols[:, 1::2]).reshape(-1, d, d)
        ok, err = _close(rho, job.ref, 0.0, STATE_TOL)
        tr_err = float(np.max(np.abs(data[:, -2] - 1.0)))
        mins = np.array([np.linalg.eigvalsh(0.5 * (r + r.conj().T))[0] for r in rho])
        eig_err = float(np.max(np.abs(data[:, -1] - mins)))
        good = ok and tr_err < 1e-9 and eig_err < 1e-9
        return good, f"max|rho - ref| {err:.2e} (tol {STATE_TOL:g}), trace {tr_err:.1e}, min_eig {eig_err:.1e}"


class Spectrum:
    """Decay rates (real parts of the perturbed eigenvalues) and the Pauli
    eigenvalues against rates from the reference spectral density."""

    def reference(self, job):
        frame = _frame(job.doc)
        bath = ref.bath_from_doc(job.doc["bath"])
        w = ref.pauli_matrix(frame, bath)
        return {"E": frame.E, "rates": ref.decay_rates(frame, bath),
                "pauli": np.sort(np.linalg.eigvals(w).real)}

    def verify(self, job, text, outputs):
        rep = json.loads(text)
        ok, msg = _checks_pass(rep)
        r = job.ref
        scale = float(np.max(np.abs(r["rates"])))
        ok_e, err_e = _close(rep["energies"], r["E"], 1e-12, 1e-12)
        errs = [abs(rep["eigenvalues"][f"{i},{j}"][0] - r["rates"][i, j]) for i, j in rep["pairs"]]
        err_f = max(errs, default=0.0)
        pe = np.array([complex(*z) for z in rep["pauli_eigenvalues"]])
        ok_p, err_p = _close(np.sort(pe.real), r["pauli"], 0.0, 1e-10 * scale)
        npairs = len(rep["pairs"])
        good = ok and ok_e and ok_p and err_f <= 1e-10 * scale and npairs == len(r["E"]) * (len(r["E"]) - 1)
        return good, f"{msg} rate err {err_f:.1e}, pauli err {err_p:.1e}, {npairs} pairs"


class Pauli:
    """Rate matrix against the reference; Gibbs stationary state for T > 0,
    empty lower triangle and ground state at T = 0."""

    def reference(self, job):
        frame = _frame(job.doc)
        bnode = job.doc["bath"]
        bath = ref.bath_from_doc(bnode)
        w = ref.pauli_matrix(frame, bath)
        if bnode["variant"] == "thermal_lorentz" and bnode["temperature"] > 0:
            p = ref.gibbs(frame.E, bnode["temperature"])
        else:
            _, _, vt = np.linalg.svd(w)
            p = np.abs(vt[-1]) / np.abs(vt[-1]).sum()
        return {"W": w, "p": p, "zero_T": bnode.get("temperature", None) == 0.0}

    def verify(self, job, text, outputs):
        rep = json.loads(text)
        ok, msg = _checks_pass(rep)
        r = job.ref
        w = np.array(rep["W"])
        ok_w, err_w = _close(w, r["W"], 1e-10, 1e-15)
        ok_p, err_p = _close(rep["stationary"], r["p"], 0.0, 1e-9)
        good = ok and ok_w and ok_p and not rep["multiple_stationary"]
        detail = f"{msg} W err {err_w:.1e}, stationary err {err_p:.1e}"
        if r["zero_T"]:
            lower = float(np.max(np.abs(np.tril(w, -1))))
            good = good and lower == 0.0
            detail += f", lower triangle {lower:.1e}"
        return good, detail


class Nonlocal:
    """Kernel poles against the time-local shifts; for OU dephasing also the
    Talbot trajectory against the residue inversion of the Laplace solution."""

    def __init__(self, kind):
        self.kind = kind  # "relaxation" or "ou-dephasing"

    def reference(self, job):
        doc = job.doc
        bath = ref.bath_from_doc(doc["bath"])
        if self.kind == "relaxation":
            frame = _frame(doc)
            return {"rates": ref.decay_rates(frame, bath), "frame": frame,
                    "k0": ref.kernel_zero(frame, bath)}
        hd, lds = _diag_model(doc)
        d = hd.size
        poles = -1j * (hd[:, None] - hd[None, :]) + ref.dephasing_exponent(lds, bath.stationary(0.0))
        grid = _grid(doc["run"], 10.0, 6)
        traj = ref.ou_dephasing_talbot(hd, lds, bath.c, bath.lam, _rho0(doc), grid)
        return {"poles": poles, "traj": traj, "d": d}

    def verify(self, job, text, outputs):
        rep = json.loads(text)
        ok, msg = _checks_pass(rep)
        r = job.ref
        if self.kind == "relaxation":
            scale = float(np.max(np.abs(r["rates"])))
            err = max(abs(v[0] - r["rates"][tuple(int(x) for x in k.split(","))])
                      for k, v in rep["poles"].items())
            rho = _parse(rep["asymptotic_state"])
            herm = float(np.max(np.abs(rho - rho.conj().T)))
            tr = abs(np.trace(rho) - 1.0)
            frame = r["frame"]
            y = (frame.U.conj().T @ rho @ frame.U).reshape(-1)
            stat = float(np.linalg.norm(r["k0"] @ y) / (np.linalg.norm(r["k0"], 2) * np.linalg.norm(y)))
            # asymptotic_state extrapolates s -> 0 to a stated tolerance of 1e-6
            good = ok and err <= 1e-10 * scale and herm < 1e-12 and tr < 1e-6 and stat < 1e-6
            return good, (f"{msg} pole rate err {err:.1e}, asymptotic trace {tr:.1e}, "
                          f"|K2(0) rho| {stat:.1e}")
        d = r["d"]
        err_p = max(abs(complex(*rep["poles"][f"{i},{j}"]) - r["poles"][i, j])
                    for i in range(d) for j in range(d))
        traj = np.array([_parse(v) for v in rep["talbot_trajectory"].values()])
        ok_t, err_t = _close(traj, r["traj"], 0.0, TALBOT_TOL)
        good = ok and err_p < 1e-12 and ok_t and "asymptotic_state_error" in rep
        return good, f"{msg} pole err {err_p:.1e}, talbot err {err_t:.1e}"


class Coefficients:
    """A(t; w), A(inf; w) and the kernel triple against time-domain and
    spectral quadrature of the reference correlation function."""

    def reference(self, job):
        doc = job.doc
        bath = ref.bath_from_doc(doc["bath"])
        run = doc["run"]
        frame = _frame(doc)
        wgrid = np.asarray(run.get("frequencies", list(frame.unique)), dtype=float)
        tgrid = _grid(run, 10.0, 21)
        kgrid = np.asarray(run.get("kernel_frequencies", np.linspace(-5, 5, 21)), dtype=float)
        full = ref.coefficient_full(bath, tgrid, wgrid)
        spec_p = np.array([bath.spectrum(w) for w in kgrid])
        spec_m = np.array([np.conj(bath.spectrum(-w)) for w in kgrid])
        return {"w": wgrid, "t": tgrid, "full": full,
                "stat": np.array([bath.stationary(w) for w in wgrid]),
                "nu": (spec_p + spec_m) / 2, "mu": (spec_p - spec_m) / 2j}

    def verify(self, job, text, outputs):
        rep = json.loads(text)
        ok, msg = _checks_pass(rep)
        r = job.ref
        worst = 0.0
        by_t = {}
        entries = list(rep["coefficients"].values())
        for j, entry in enumerate(entries):
            for k, (tkey, mat) in enumerate(entry["full_time"].items()):
                want = r["full"][k, j]
                got = _parse(mat)
                scale = float(np.max(np.abs(want)))
                err = float(np.max(np.abs(got - want))) / scale if scale > 0 else float(np.max(np.abs(got)))
                worst = max(worst, err)
                by_t[float(tkey)] = max(by_t.get(float(tkey), 0.0), err)
            _, e_st = _close(_parse(entry["stationary"]), r["stat"][j], 0.0)
            worst = max(worst, e_st / float(np.max(np.abs(r["stat"][j]))))
        kern = rep["kernels"]
        ok_nu, e_nu = _close([_parse(x) for x in kern["nu"]], r["nu"], 1e-9, 1e-15)
        ok_mu, e_mu = _close([_parse(x) for x in kern["mu"]], r["mu"], 1e-9, 1e-15)
        good = ok and worst <= COEF_RTOL and ok_nu and ok_mu and len(entries) == len(r["w"])
        detail = ", ".join(f"t={t:g}: {e:.1e}" for t, e in sorted(by_t.items()) if t > 0)
        return good, (f"{msg} worst rel err {worst:.2e} (tol {COEF_RTOL:g}); per t {detail}; "
                      f"kernels {e_nu:.1e}/{e_mu:.1e}")


class Qrt:
    """Corrected = regression + correction; with `partner` (the same model
    with `factor` times the bath strength), the correction scales as g^2."""

    def __init__(self, partner=None, factor=None):
        self.partner = partner
        self.factor = factor

    def reference(self, job):
        return None

    def verify(self, job, text, outputs):
        rep = json.loads(text)
        reg, cor, tot = (complex(*rep[k]) for k in ("regression", "correction", "corrected"))
        ok_sum = abs(reg + cor - tot) <= 1e-12 * max(1.0, abs(tot))
        detail = f"|correction| {abs(cor):.3e}"
        if self.partner is None:
            return ok_sum and abs(cor) > 0.0, detail
        other = complex(*json.loads(outputs[self.partner])["correction"])
        ratio = other / cor
        ok_ratio = abs(ratio - self.factor) <= 1e-9 * self.factor
        return ok_sum and ok_ratio, f"{detail}, ratio to partner {ratio.real:.12f}"


class OracleCompare:
    def reference(self, job):
        return None

    def verify(self, job, text, outputs):
        rep = json.loads(text)
        ok, msg = _checks_pass(rep)
        ratio = rep["error_full_coupling"] / rep["error_half_coupling"]
        return ok and ratio >= 10.0, f"{msg} convergence ratio {ratio:.2f} (>= 10)"


class CpAudit:
    """Choi and Delta minima per audit time against the reference Magnus
    generator (adaptive tanh-sinh time integrals, no Gauss-Legendre rule), and
    the weak test recomputed on the program's grid."""

    def reference(self, job):
        doc = job.doc
        frame = _frame(doc)
        bath = ref.bath_from_doc(doc["bath"])
        tgrid = _grid(doc["run"], 8.0, 9)[1:]
        audit = [ref.magnus_audit(frame, bath, float(t)) for t in tgrid]
        dense = np.linspace(0.0, float(tgrid[-1]), int(doc["run"].get("weak_points", 2001)))
        return {"choi": np.array([a[0] for a in audit]), "delta": min(a[1] for a in audit),
                "weak": ref.weak_test(frame, bath, dense)}

    def verify(self, job, text, outputs):
        rep = json.loads(text)
        ok, msg = _checks_pass(rep)
        r = job.ref
        ok_c, e_c = _close(rep["magnus_choi_min_per_time"], r["choi"], 0.0, MAGNUS_TOL)
        e_d = abs(rep["delta_min_eigenvalue"] - r["delta"])
        e_w = abs(rep["weak_test_min_eigenvalue"] - r["weak"])
        props = (rep["magnus_choi_min"] >= -1e-10 and rep["delta_min_eigenvalue"] >= -1e-10
                 and rep["weak_test_min_eigenvalue"] >= -1e-8)
        good = ok and props and ok_c and e_d <= MAGNUS_TOL and e_w <= MAGNUS_TOL
        return good, f"{msg} choi err {e_c:.1e}, delta err {e_d:.1e}, weak err {e_w:.1e}"


# ---------------------------------------------------------------------------
# job lists
# ---------------------------------------------------------------------------

def _stationary(rng, shipped):
    ship = copy.deepcopy(shipped)
    return [
        Job("st-simulate-shipped", "simulate", ship, Simulate("relaxation")),
        Job("st-simulate-deph-thermal", "simulate",
            _dephasing(rng, 2, _thermal(rng), t_max=10.0, n_points=21), Simulate("dephasing")),
        Job("st-simulate-deph-ou3", "simulate",
            _dephasing(rng, 3, _ou(rng, 2), nch=2, t_max=10.0, n_points=21), Simulate("dephasing")),
        Job("st-simulate-deph-t0-4", "simulate",
            _dephasing(rng, 4, _thermal(rng, 0.0), t_max=10.0, n_points=21), Simulate("dephasing")),
        Job("st-simulate-relax3", "simulate",
            _relaxation(rng, 3, _thermal(rng), t_max=10.0, n_points=21), Simulate("relaxation")),
        Job("st-spectrum-shipped", "spectrum", ship, Spectrum()),
        Job("st-spectrum-relax3", "spectrum", _relaxation(rng, 3, _thermal(rng)), Spectrum()),
        Job("st-spectrum-ou4", "spectrum", _relaxation(rng, 4, _ou(rng)), Spectrum()),
        Job("st-pauli-shipped", "pauli", ship, Pauli()),
        Job("st-pauli-thermal2", "pauli", _relaxation(rng, 2, _thermal(rng)), Pauli()),
        Job("st-pauli-t0-4", "pauli", _relaxation(rng, 4, _thermal(rng, 0.0)), Pauli()),
        Job("st-pauli-ou3", "pauli", _relaxation(rng, 3, _ou(rng)), Pauli()),
        Job("st-nonlocal-shipped", "nonlocal", ship, Nonlocal("relaxation")),
        Job("st-nonlocal-relax3", "nonlocal", _relaxation(rng, 3, _thermal(rng)), Nonlocal("relaxation")),
        Job("st-nonlocal-ou3", "nonlocal", _relaxation(rng, 3, _ou(rng)), Nonlocal("relaxation")),
        Job("st-nonlocal-invert-ou2", "nonlocal",
            _dephasing(rng, 2, _ou(rng), t_max=4.0, n_points=3, invert=True), Nonlocal("ou-dephasing")),
        Job("st-nonlocal-invert-ou3", "nonlocal",
            _dephasing(rng, 3, _ou(rng, 2), nch=2, t_max=4.0, n_points=3, invert=True),
            Nonlocal("ou-dephasing")),
    ]


def _time_dependent(rng, shipped, seed):
    ship = copy.deepcopy(shipped)
    weaker = {}
    for f in (2, 4, 8):
        weaker[f] = copy.deepcopy(shipped)
        weaker[f]["bath"]["gamma0"] = shipped["bath"]["gamma0"] / f
    ou_qrt = _relaxation(rng, 2, _ou(rng), mode="full-time")
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    ou_qrt["run"]["qrt"] = {"x1": _cm(sx), "x2": _cm(sx), "t1": float(rng.uniform(1.5, 2.5)),
                            "t2": float(rng.uniform(0.3, 0.7)), "mode": "full-time"}
    ou_quarter = copy.deepcopy(ou_qrt)
    ou_quarter["bath"]["c"] = (np.asarray(ou_qrt["bath"]["c"]) / 4).tolist()
    # the shipped oracle settings with the horizon cut from 5 to 1: the cost then
    # stays well below the qrt pair for every composite (0.1-0.6 s against 0.25-1.6 s)
    oracle_doc = copy.deepcopy(shipped)
    oracle_doc["run"]["oracle"].update(horizon=1.0, n_points=3)
    # fixed inputs: the shipped qubit at T = 0, A(t; +-1) for t = 0, 2, ..., 20
    t0 = copy.deepcopy(shipped)
    t0["bath"]["temperature"] = 0.0
    t0["run"].update(t_max=20.0, n_points=11, frequencies=[-1.0, 1.0])
    # Job costs are spread so that the median job is one of the four
    # fixed-input shipped qrt jobs (gamma0, gamma0/2, /4, /8): four jobs are
    # cheaper, three dearer.  The four are spread over the round, so their
    # samples are not taken in one burst of host speed; a cheap job goes first
    # and absorbs the process's first-use costs.
    coeff_thermal = _relaxation(rng, 2, _thermal(rng), t_max=4.0, n_points=5)
    thermal_deph = _dephasing(rng, 2, _thermal(rng), t_max=0.5, n_points=3, mode="full-time")
    ou_deph = _dephasing(rng, 4, _ou(rng, 2), nch=2, t_max=8.0, n_points=9, mode="full-time")

    def qrt_weaker(f):
        return Job(f"td-qrt-shipped-{f}", "qrt", weaker[f], Qrt(partner="td-qrt-shipped", factor=f))

    return [
        Job("td-coefficients-thermal", "coefficients", coeff_thermal, Coefficients()),
        Job("td-qrt-shipped", "qrt", ship, Qrt()),
        Job("td-simulate-deph-thermal", "simulate", thermal_deph, Simulate("dephasing")),
        Job("td-qrt-ou", "qrt", ou_qrt, Qrt()),
        qrt_weaker(2),
        Job("td-coefficients-t0", "coefficients", t0, Coefficients()),
        Job("td-qrt-ou-quarter", "qrt", ou_quarter, Qrt(partner="td-qrt-ou", factor=4)),
        qrt_weaker(4),
        Job("td-simulate-deph-ou4", "simulate", ou_deph, Simulate("dephasing")),
        Job("td-oracle-compare", "oracle-compare", oracle_doc, OracleCompare(),
            extra=("--seed", str(seed % 100000))),
        qrt_weaker(8),
    ]


def _cp_audit(rng, shipped):
    ship = copy.deepcopy(shipped)
    ship["run"].update(t_max=1.0, n_points=2, weak_points=101)
    audit = dict(t_max=3.0, n_points=4, weak_points=301)
    # Six 3-level OU jobs, half before and half after the thermal job, make the
    # median job one of several similar jobs sampled at both ends of the round.
    halves = ([], [])
    for d, n in ((2, 2), (3, 6), (4, 2)):
        for k in range(n):
            doc = _relaxation(rng, d, _ou(rng), **audit)
            halves[2 * k >= n].append(Job(f"cp-audit-ou{d}-{k + 1}", "cp-audit", doc, CpAudit()))
    return halves[0] + [Job("cp-audit-shipped", "cp-audit", ship, CpAudit())] + halves[1]


def build(workload, seed, shipped):
    """The workload's fixed job list, with models drawn from `seed`."""
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    if workload == "stationary":
        return _stationary(rng, shipped)
    if workload == "time-dependent":
        return _time_dependent(rng, shipped, seed)
    return _cp_audit(rng, shipped)
