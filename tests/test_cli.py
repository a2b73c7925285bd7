import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import oqsolve
from oqsolve import bath, cli
from test_memkernel import OU_DEPHASING, ou_dephasing_residues

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pairs(m):
    m = np.asarray(m, dtype=complex)
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def qubit_doc(**run):
    return {
        "system": {
            "hamiltonian": _pairs(np.diag([0.5, -0.5])),
            "couplings": [_pairs(np.array([[0.0, 1.0], [1.0, 0.0]]))],
        },
        "bath": {
            "variant": "thermal_lorentz",
            "gamma0": 0.1,
            "cutoff": 5.0,
            "temperature": 0.25,
        },
        "run": run,
    }


def write_model(tmp_path, doc, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestSimulate:
    def test_csv_output(self, tmp_path):
        model = write_model(tmp_path, qubit_doc(t_max=4.0, n_points=9))
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "--model", model, "--out", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].split(",")[0] == "t"
        assert len(lines) == 10
        last = [float(x) for x in lines[-1].split(",")]
        trace = last[-2]
        assert abs(trace - 1.0) < 1e-8

    def test_byte_identical_reruns(self, tmp_path):
        model = write_model(tmp_path, qubit_doc(t_max=4.0, n_points=9))
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["simulate", "--model", model, "--out", str(out1)])
        cli.main(["simulate", "--model", model, "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_no_temp_files_left(self, tmp_path):
        model = write_model(tmp_path, qubit_doc(t_max=2.0, n_points=5))
        out = tmp_path / "traj.csv"
        cli.main(["simulate", "--model", model, "--out", str(out)])
        leftovers = [f for f in os.listdir(tmp_path) if f.startswith(".oqsolve-")]
        assert leftovers == []

    def test_pinned_format(self, tmp_path):
        rho0 = _pairs([[0.5, 0.25 - 0.25j], [0.25 + 0.25j, 0.5]])
        model = write_model(tmp_path, qubit_doc(t_max=4.0, n_points=9, rho0=rho0))
        out = tmp_path / "traj.csv"
        assert cli.main(["simulate", "--model", model, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            lines = fh.read().split("\r\n")
        assert lines[0] == ("t,re_rho_0_0,im_rho_0_0,re_rho_0_1,im_rho_0_1,"
                            "re_rho_1_0,im_rho_1_0,re_rho_1_1,im_rho_1_1,trace,min_eig")
        assert lines[1] == "0.0,0.5,0.0,0.25,-0.25,0.25,0.25,0.5,0.0,1.0,0.1464466094067261"

    def test_unread_option_rejected(self, tmp_path):
        model = write_model(tmp_path, qubit_doc(t_max=2.0, n_points=3))
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--model", model, "--tol", "1"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["pauli", "--model", model, "--seed", "1"])
        assert exc.value.code == 2

    def test_bad_initial_state_exits_validation(self, tmp_path):
        doc = qubit_doc(rho0=_pairs(np.diag([2.0, 0.0])))
        model = write_model(tmp_path, doc)
        assert cli.main(["simulate", "--model", model]) == cli.EXIT_VALIDATION


class TestReports:
    def test_spectrum(self, tmp_path, capsys):
        model = write_model(tmp_path, qubit_doc())
        assert cli.main(["spectrum", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["orthogonality"] == "pass"
        assert "0,1" in report["eigenvalues"]

    def test_pauli_gibbs_and_balance(self, tmp_path, capsys):
        model = write_model(tmp_path, qubit_doc())
        assert cli.main(["pauli", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["gibbs"] == "pass"
        assert report["checks"]["detailed_balance"] == "pass"
        assert report["checks"]["column_sums"] == "pass"

    @pytest.mark.parametrize("temp", [0.05, 0.02])
    def test_pauli_detailed_balance_at_low_temperature(self, tmp_path, capsys, temp):
        # the rates' real parts come from the expm1 spectrum, so the suppressed rate keeps
        # its Boltzmann ratio e^{-1/T} (e^{-50} at T = 0.02) and the state is the Gibbs state
        doc = qubit_doc()
        doc["bath"]["temperature"] = temp
        model = write_model(tmp_path, doc)
        assert cli.main(["pauli", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["checks"].values()) == {"pass"}
        assert report["detailed_balance_residual"] < 1e-14
        assert report["stationary"][1] == pytest.approx(report["gibbs"][1], rel=1e-13)

    def test_pauli_two_coupling_thermal(self, tmp_path, capsys):
        doc = qubit_doc()
        doc["system"]["couplings"].append(_pairs(np.diag([1.0, -1.0])))
        model = write_model(tmp_path, doc)
        assert cli.main(["pauli", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["gibbs"] == "pass"

    @pytest.mark.parametrize("temps", [[0.1, 0.4], [0.0, 0.25]])
    def test_pauli_mixed_temperatures_have_no_gibbs_reference(self, tmp_path, capsys, temps):
        # sigma_z / 2 commutes with H, so only channel 1 moves population and the
        # stationary state is the Gibbs state at its temperature, not at either's maximum;
        # with unequal temperatures neither check has a reference
        doc = qubit_doc()
        doc["system"]["couplings"].append(_pairs(np.diag([0.5, -0.5])))
        doc["bath"]["temperature"] = temps
        model = write_model(tmp_path, doc)
        assert cli.main(["pauli", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"] == {"column_sums": "pass"}
        assert "gibbs" not in report and "gibbs_residual" not in report
        assert np.isfinite(report["detailed_balance_residual"])
        if temps[0] > 0:
            p = np.exp(-np.array([-0.5, 0.5]) / temps[0])
            assert np.allclose(report["stationary"], p / p.sum(), rtol=0, atol=1e-10)

    def test_pauli_four_level_balance(self, tmp_path, capsys):
        # populations spread over seven decades
        doc = qubit_doc()
        doc["system"] = {
            "hamiltonian": _pairs(np.diag([0.0, 1.1, 2.3, 3.7])),
            "couplings": [_pairs(np.ones((4, 4)) - np.eye(4))],
        }
        doc["bath"]["temperature"] = 0.23
        model = write_model(tmp_path, doc)
        assert cli.main(["pauli", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["gibbs"] == "pass"
        assert report["checks"]["detailed_balance"] == "pass"

    @pytest.mark.parametrize("node", [
        {"variant": "ou", "c": [[0.1]], "lam": 1.0},
        {"variant": "white", "c": [[0.1]]},
    ])
    def test_pauli_ou_and_white_tags(self, tmp_path, capsys, node):
        doc = qubit_doc()
        doc["bath"] = node
        model = write_model(tmp_path, doc)
        assert cli.main(["pauli", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["column_sums"] == "pass"

    def test_module_entry_point_without_runpy_warning(self):
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(oqsolve.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "oqsolve.cli", "pauli",
             "--model", "examples_models/qubit_relaxation.json"],
            cwd=REPO, env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_coefficients(self, tmp_path, capsys):
        model = write_model(tmp_path, qubit_doc(t_max=5.0, n_points=6))
        assert cli.main(["coefficients", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["kms"] == "pass"
        assert report["checks"]["fdi"] == "pass"

    @pytest.mark.parametrize("temperature", [[0.25, 1.0], [0.0, 0.25]])
    def test_coefficients_kms_per_channel(self, tmp_path, capsys, temperature):
        doc = qubit_doc(t_max=1.0, n_points=2)
        doc["system"]["couplings"].append(_pairs(np.diag([1.0, -1.0])))
        doc["bath"]["temperature"] = temperature
        assert cli.main(["coefficients", "--model", write_model(tmp_path, doc)]) == 0
        assert json.loads(capsys.readouterr().out)["checks"]["kms"] == "pass"

    def test_cp_audit(self, tmp_path, capsys):
        model = write_model(tmp_path, qubit_doc(t_max=4.0, n_points=5, weak_points=1201))
        assert cli.main(["cp-audit", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["magnus_cp"] == "pass"
        assert report["checks"]["delta_psd"] == "pass"
        assert report["checks"]["weak_test"] == "pass"

    def test_cp_audit_reports_magnus_quadrature(self, tmp_path, capsys):
        shipped = os.path.join(REPO, "examples_models", "qubit_relaxation.json")
        with open(shipped) as fh:
            doc = json.load(fh)
        doc["run"].update(t_max=1.0, n_points=2, weak_points=11)
        assert cli.main(["cp-audit", "--model", write_model(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        # every gap-pair table is a closed form: the report counts no quadrature nodes
        assert "magnus_nodes_per_time" not in report
        assert report["magnus_change_per_time"][0] <= 1e-9
        assert report["magnus_converged"] is True
        assert set(report["checks"]) == {"magnus_cp", "magnus_quadrature", "delta_psd", "weak_test"}
        assert report["checks"]["magnus_quadrature"] == "pass"
        ou = qubit_doc(t_max=1.0, n_points=2, weak_points=11)
        ou["bath"] = {"variant": "ou", "c": [[0.08]], "lam": 1.1}
        assert cli.main(["cp-audit", "--model", write_model(tmp_path, ou, "ou.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["magnus_converged"] is True and report["magnus_change_per_time"] == [0.0]
        # T = 0: the bound on the table's round-off is carried to Phi2
        cold = qubit_doc(t_max=1e-3, n_points=2, weak_points=11)
        cold["bath"]["temperature"] = 0.0
        assert cli.main(["cp-audit", "--model", write_model(tmp_path, cold, "cold.json")]) == 0
        report = json.loads(capsys.readouterr().out)
        assert 0 < report["magnus_change_per_time"][0] <= 1e-9
        assert report["checks"]["magnus_quadrature"] == "pass"

    @pytest.mark.parametrize("command", ["pauli", "nonlocal"])
    def test_pauli_system_computed_once(self, tmp_path, capsys, monkeypatch, command):
        from oqsolve import spectral

        calls = []
        orig = spectral.pauli_system
        monkeypatch.setattr(spectral, "pauli_system", lambda m: calls.append(m) or orig(m))
        assert cli.main([command, "--model", write_model(tmp_path, qubit_doc())]) == 0
        report = json.loads(capsys.readouterr().out)
        assert "detailed_balance_residual" in report or "asymptotic_state" in report
        assert len(calls) == 1

    def test_cp_audit_external_samples(self, tmp_path, capsys):
        from oqsolve import positivity, tcl2

        m = tcl2.SystemModel(
            h=np.diag([0.5, -0.5]),
            couplings=[np.array([[0.0, 1.0], [1.0, 0.0]])],
            bath=bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.25),
        )
        grid = np.linspace(0.0, 4.0, 801)
        csv_path = tmp_path / "samples.csv"
        positivity.save_superop_samples(
            csv_path, grid, positivity.interaction_dissipator_samples(m, grid)
        )
        model = write_model(tmp_path, qubit_doc(superop_csv=str(csv_path)))
        assert cli.main(["cp-audit", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["source"] == "external-samples"
        assert report["checks"]["weak_test"] == "pass"

    def test_cp_audit_shuffled_external_samples(self, tmp_path, capsys):
        from oqsolve import positivity, tcl2

        m = tcl2.SystemModel(
            h=np.diag([0.5, -0.5]),
            couplings=[np.array([[0.0, 1.0], [1.0, 0.0]])],
            bath=bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.25),
        )
        grid = np.linspace(0.0, 4.0, 201)
        positivity.save_superop_samples(
            tmp_path / "samples.csv", grid, positivity.interaction_dissipator_samples(m, grid)
        )
        rows = [line.split(",") for line in (tmp_path / "samples.csv").read_text().splitlines()]
        order = np.random.default_rng(5).permutation(len(rows[0]))
        (tmp_path / "shuffled.csv").write_text(
            "\n".join(",".join(r[i] for i in order) for r in rows) + "\n")
        weak = {}
        for name in ("samples.csv", "shuffled.csv"):
            model = write_model(tmp_path, qubit_doc(superop_csv=name), name + ".json")
            assert cli.main(["cp-audit", "--model", model]) == 0
            weak[name] = json.loads(capsys.readouterr().out)["weak_test_min_eigenvalue"]
        assert weak["shuffled.csv"] == weak["samples.csv"]

    def test_cp_audit_superop_csv_relative_to_model(self, tmp_path, capsys, monkeypatch):
        from oqsolve import positivity

        models = tmp_path / "models"
        models.mkdir()
        grid = np.linspace(0.0, 1.0, 3)
        positivity.save_superop_samples(models / "samples.csv", grid, np.zeros((3, 4, 4)))
        model = write_model(models, qubit_doc(superop_csv="samples.csv"))
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        assert cli.main(["cp-audit", "--model", model]) == 0
        assert json.loads(capsys.readouterr().out)["weak_test_min_eigenvalue"] == 0.0

    @pytest.mark.parametrize("times", [[0.0], [2.0, 1.0, 0.0]], ids=["one-row", "decreasing"])
    def test_cp_audit_rejects_malformed_sample_grid(self, tmp_path, capsys, times):
        # one row would integrate to nothing (min eigenvalue inf); a decreasing t negates every
        # running integral, so a negative-definite sample set would pass
        from oqsolve import positivity

        samples = -np.eye(4) * np.ones((len(times), 1, 1))
        positivity.save_superop_samples(tmp_path / "samples.csv", times, samples)
        model = write_model(tmp_path, qubit_doc(superop_csv="samples.csv"))
        assert cli.main(["cp-audit", "--model", model]) == cli.EXIT_VALIDATION
        assert "run.superop_csv" in capsys.readouterr().err

    def test_cp_audit_missing_superop_csv(self, tmp_path, capsys):
        model = write_model(tmp_path, qubit_doc(superop_csv="nope.csv"))
        assert cli.main(["cp-audit", "--model", model]) == cli.EXIT_VALIDATION
        assert "run.superop_csv" in capsys.readouterr().err

    def test_cp_audit_rejects_non_hermitian_sample(self, tmp_path, capsys):
        from oqsolve import positivity

        samples = np.zeros((3, 4, 4))
        samples[1, 0, 1] = 1.0
        positivity.save_superop_samples(tmp_path / "samples.csv", [0.0, 0.5, 1.0], samples)
        model = write_model(tmp_path, qubit_doc(superop_csv="samples.csv"))
        assert cli.main(["cp-audit", "--model", model]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith("error: run.superop_csv: dissipator sample 1 is not Hermitian")

    def test_cp_audit_tol_sets_positivity_thresholds(self, tmp_path, capsys, monkeypatch):
        # a Choi matrix and a Delta 1e-6 below zero: fail at the default 1e-10,
        # pass at --tol 1e-5
        from dataclasses import replace

        from oqsolve import positivity

        magnus = positivity.magnus_phi2
        monkeypatch.setattr(positivity, "magnus_phi2", lambda m, t: replace(
            magnus(m, t), delta=magnus(m, t).delta - 1e-6 * np.eye(4)))
        monkeypatch.setattr(cli, "min_choi_eigenvalue", lambda c: np.full(len(c), -1e-6))
        model = write_model(tmp_path, qubit_doc(t_max=1.0, n_points=2, weak_points=11))
        for extra, verdict in (([], "fail"), (["--tol", "1e-5"], "pass")):
            assert cli.main(["cp-audit", "--model", model, *extra]) == 0
            checks = json.loads(capsys.readouterr().out)["checks"]
            assert checks["magnus_cp"] == checks["delta_psd"] == verdict

    def test_nonlocal(self, tmp_path, capsys):
        model = write_model(tmp_path, qubit_doc())
        assert cli.main(["nonlocal", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["pole_match"] == "pass"
        assert "asymptotic_state" in report

    @pytest.mark.parametrize("name", OU_DEPHASING)
    def test_nonlocal_talbot_matches_residue_inversion(self, tmp_path, capsys, name):
        hdiag, ldiags, c, lam, rho0 = OU_DEPHASING[name]
        doc = qubit_doc(invert=True, t_max=4.0, n_points=5, rho0=_pairs(rho0))
        doc["system"] = {"hamiltonian": _pairs(np.diag(hdiag)),
                         "couplings": [_pairs(np.diag(l)) for l in ldiags]}
        doc["bath"] = {"variant": "ou", "c": c, "lam": lam}
        assert cli.main(["nonlocal", "--model", write_model(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert all(v == "pass" for v in report["checks"].values())
        traj = report["talbot_trajectory"]
        grid = [float(t) for t in traj]
        assert grid == [0.0, 1.0, 2.0, 3.0, 4.0]
        got = np.array([[[complex(*z) for z in row] for row in traj[t]] for t in traj])
        want = ou_dephasing_residues(hdiag, ldiags, c, lam, rho0, grid)
        assert np.max(np.abs(got - want)) < 1e-7

    @pytest.mark.parametrize("t_max, verdict", [(11.0, "pass"), (14.0, "fail")])
    def test_nonlocal_talbot_range_check(self, tmp_path, capsys, t_max, verdict):
        # gaps up to 1.7: omega t = 18.7 is inside the Talbot range, 23.8 past it, where
        # this model's trajectory is off by 4.3e-6
        hdiag, ldiags, c, lam, rho0 = OU_DEPHASING["d3-two-channel"]
        doc = qubit_doc(invert=True, t_max=t_max, n_points=2, rho0=_pairs(rho0))
        doc["system"] = {"hamiltonian": _pairs(np.diag(hdiag)),
                         "couplings": [_pairs(np.diag(l)) for l in ldiags]}
        doc["bath"] = {"variant": "ou", "c": c, "lam": lam}
        assert cli.main(["nonlocal", "--model", write_model(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["talbot_max_gap_time"] == pytest.approx(1.7 * t_max, rel=1e-14)
        assert report["checks"]["talbot_range"] == verdict
        assert report["checks"]["pole_match"] == "pass"

    def test_nonlocal_without_invert_has_no_trajectory(self, tmp_path, capsys):
        for run in ({}, {"invert": False}):
            assert cli.main(["nonlocal", "--model", write_model(tmp_path, qubit_doc(**run))]) == 0
            assert "talbot_trajectory" not in json.loads(capsys.readouterr().out)

    def test_nonlocal_zero_temperature_three_level(self, tmp_path, capsys):
        # zero-temperature Laplace transform on the imaginary axis at negative
        # gaps: its real part (half the spectrum) sets the pole positions
        doc = qubit_doc()
        doc["system"] = {
            "hamiltonian": _pairs(np.diag([0.0, 1.0, 2.3])),
            "couplings": [_pairs(np.ones((3, 3)) - np.eye(3))],
        }
        doc["bath"].update(gamma0=0.05, cutoff=5.0, temperature=0.0)
        model = write_model(tmp_path, doc)
        assert cli.main(["nonlocal", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["checks"]["pole_match"] == "pass"
        assert "asymptotic_state_error" not in report
        assert "asymptotic_state" in report

    def test_qrt(self, tmp_path, capsys):
        sx = _pairs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        model = write_model(
            tmp_path,
            qubit_doc(qrt={"x1": sx, "x2": sx, "t1": 2.0, "t2": 0.5}),
        )
        assert cli.main(["qrt", "--model", model]) == 0
        report = json.loads(capsys.readouterr().out)
        reg = complex(*report["regression"])
        cor = complex(*report["correction"])
        tot = complex(*report["corrected"])
        assert abs(reg + cor - tot) < 1e-12
        assert "correction_single_time" in report

    def test_qrt_regression_computed_once(self, tmp_path, capsys, monkeypatch):
        from oqsolve import multitime

        calls = []
        orig = multitime.qrt_correlation
        monkeypatch.setattr(multitime, "qrt_correlation",
                            lambda *a, **k: calls.append(k) or orig(*a, **k))
        sx = _pairs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        sy = _pairs(np.array([[0.0, -1j], [1j, 0.0]]))
        doc = qubit_doc(qrt={"x1": sx, "x2": sy, "t1": 0.5, "t2": 2.0})
        assert cli.main(["qrt", "--model", write_model(tmp_path, doc)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert len(calls) == 1
        # t1 < t2 by conjugate exchange, for the value and both corrections
        doc["run"]["qrt"] = {"x1": sy, "x2": sx, "t1": 2.0, "t2": 0.5}
        assert cli.main(["qrt", "--model", write_model(tmp_path, doc, "swapped.json")]) == 0
        swapped = json.loads(capsys.readouterr().out)
        for key in ("regression", "correction", "correction_single_time", "corrected"):
            assert report[key] == pytest.approx([swapped[key][0], -swapped[key][1]], abs=1e-15)

    def test_qrt_missing_parameters(self, tmp_path):
        model = write_model(tmp_path, qubit_doc(qrt={"t1": 1.0}))
        assert cli.main(["qrt", "--model", model]) == cli.EXIT_VALIDATION

    def test_oracle_compare(self, tmp_path, capsys):
        model = write_model(
            tmp_path, qubit_doc(oracle={"horizon": 5.0, "n_points": 9, "g": 0.12})
        )
        assert cli.main(["oracle-compare", "--model", model, "--seed", "11"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["seed"] == 11
        assert report["checks"]["convergence_order"] == "pass"


def _pairs_per_element(z):
    """The per-element [re, im] encoding that cli._c replaced, as its reference."""
    z = np.asarray(z, dtype=complex)
    if z.ndim == 0:
        z = complex(z)
        return [z.real, z.imag]
    return [_pairs_per_element(x) for x in z]


class TestReportEnvelope:
    JSON_COMMANDS = [c for c in cli._COMMANDS if c != "simulate"]

    @pytest.mark.parametrize("command, superop_csv",
                             [(c, False) for c in JSON_COMMANDS] + [("cp-audit", True)])
    def test_header(self, tmp_path, command, superop_csv):
        from oqsolve import positivity

        sx = _pairs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        run = {"t_max": 1.0, "n_points": 2, "weak_points": 11,
               "qrt": {"x1": sx, "x2": sx, "t1": 1.0, "t2": 0.5},
               "oracle": {"horizon": 1.0, "n_points": 3}}
        if superop_csv:
            grid = np.linspace(0.0, 1.0, 3)
            positivity.save_superop_samples(tmp_path / "samples.csv", grid, np.zeros((3, 4, 4)))
            run["superop_csv"] = "samples.csv"
        out = tmp_path / "report.json"
        argv = [command, "--model", write_model(tmp_path, qubit_doc(**run)), "--out", str(out)]
        takes_tol = command in cli._TOL_DEFAULTS
        assert takes_tol == (command not in ("qrt", "oracle-compare"))
        assert cli.main(argv + (["--tol", "0.375"] if takes_tol else [])) == 0
        report = json.loads(out.read_text())
        assert (report.get("source") == "external-samples") == superop_csv
        keys = list(report)
        assert keys[0] == "command" and report["command"] == command
        if takes_tol:
            assert keys[1] == "tolerance" and report["tolerance"] == 0.375
        else:
            assert "tolerance" not in report

    def test_complex_encoder_matches_per_element_form(self):
        special = np.array([-0.0, 1.5, np.inf, -np.inf, np.nan, -2.5])
        stack = np.resize(special, (3, 2, 2)).astype(complex)
        stack.imag = np.resize(special[::-1], (3, 2, 2))
        matrix = np.array([[complex(-0.0, np.nan), complex(np.inf, -0.0)],
                           [complex(np.nan, -np.inf), complex(1e-300, -1e300)]])
        for value in (np.complex128(complex(-0.0, -np.inf)), np.array(complex(np.nan, -0.0)),
                      matrix, matrix.T, stack, stack.transpose(2, 0, 1)):
            # repr, not ==: it tells -0.0 from 0.0, matches nan to nan and shows a numpy float
            assert repr(cli._c(value)) == repr(_pairs_per_element(value))

    @pytest.mark.parametrize("where", ["missing/report.json", "directory"])
    def test_unwritable_out_exits_validation(self, tmp_path, capsys, where):
        model = write_model(tmp_path, qubit_doc())
        (tmp_path / "directory").mkdir()
        out = tmp_path / where
        assert cli.main(["pauli", "--model", model, "--out", str(out)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: cannot write --out {out}: ")
        assert [f for f in os.listdir(tmp_path) if f.startswith(".oqsolve-")] == []
        assert os.listdir(tmp_path / "directory") == []


class TestValidation:
    def test_missing_file(self, tmp_path):
        assert cli.main(
            ["simulate", "--model", str(tmp_path / "nope.json")]
        ) == cli.EXIT_VALIDATION

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert cli.main(["simulate", "--model", str(path)]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("edit, section", [
        (lambda doc: [doc], "model file"),
        (lambda doc: {**doc, "run": 5}, "run"),
        (lambda doc: {**doc, "system": [1]}, "system"),
        (lambda doc: {**doc, "system": {**doc["system"], "couplings": 7}}, "system.couplings"),
        (lambda doc: {**doc, "run": {"qrt": [1, 2]}}, "run.qrt"),
        (lambda doc: {**doc, "run": {"oracle": 3}}, "run.oracle"),
    ], ids=["top-level-array", "run", "system", "couplings", "qrt", "oracle"])
    def test_non_object_section_exits_validation(self, tmp_path, capsys, edit, section):
        model = write_model(tmp_path, edit(qubit_doc()))
        command = {"run.qrt": "qrt", "run.oracle": "oracle-compare"}.get(section, "simulate")
        assert cli.main([command, "--model", model]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err.startswith(f"error: {section} must ")

    def test_non_hermitian_reports_residual(self, tmp_path, capsys):
        doc = qubit_doc()
        doc["system"]["hamiltonian"] = [[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        model = write_model(tmp_path, doc)
        assert cli.main(["simulate", "--model", model]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "not Hermitian" in err
        assert "max|X - X^dag|" in err

    def test_small_hamiltonian_defect_names_json_path(self, tmp_path, capsys):
        doc = qubit_doc()
        doc["system"]["hamiltonian"][0][1] = [5e-11, 0.0]
        model = write_model(tmp_path, doc)
        assert cli.main(["pauli", "--model", model]) == cli.EXIT_VALIDATION
        assert "system.hamiltonian is not Hermitian" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "nonlocal", "qrt", "oracle-compare"])
    @pytest.mark.parametrize("populations, defect", [
        ([1.2, -0.2], "positive semidefinite"),
        ([0.5, 0.5 + 5e-9], "trace"),
    ])
    def test_every_subcommand_applies_one_state_rule(self, tmp_path, capsys, command,
                                                     populations, defect):
        # the oracle composite's system is a qutrit
        sx = _pairs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        state = _pairs(np.diag(populations))
        doc = qubit_doc(t_max=1.0, n_points=2, rho0=state,
                        qrt={"x1": sx, "x2": sx, "t1": 1.0, "t2": 0.5, "rho0": state},
                        oracle={"horizon": 1.0, "n_points": 3,
                                "rho0": _pairs(np.diag(populations + [0.0]))})
        assert cli.main([command, "--model", write_model(tmp_path, doc)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert "rho0" in err and defect in err

    @pytest.mark.parametrize("command, key, value", [
        ("qrt", "qrt.t1", "abc"),
        ("simulate", "n_points", "abc"),
        ("cp-audit", "weak_points", "abc"),
        ("cp-audit", "weak_points", 1),
        ("coefficients", "frequencies", "abc"),
        ("oracle-compare", "oracle.n_points", 1),
        ("oracle-compare", "oracle.horizon", -1),
        ("nonlocal", "invert", "false"),
        ("nonlocal", "invert", "no"),
        ("nonlocal", "invert", 1),
        ("nonlocal", "invert", None),
    ])
    def test_malformed_run_value_exits_validation(self, tmp_path, capsys, command, key, value):
        sx = _pairs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        doc = qubit_doc(t_max=1.0, n_points=2, weak_points=11,
                        qrt={"x1": sx, "x2": sx, "t1": 1.0, "t2": 0.5},
                        oracle={"horizon": 1.0, "n_points": 3})
        *parents, last = key.split(".")
        node = doc["run"]
        for name in parents:
            node = node[name]
        node[last] = value
        assert cli.main([command, "--model", write_model(tmp_path, doc)]) == cli.EXIT_VALIDATION
        assert f"run.{key} must be" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, defect", [
        ("x1", [[np.nan, 1.0], [1.0, 0.0]], "run.qrt.x1 has a non-finite entry"),
        ("x1", np.eye(3), "run.qrt.x1: shape (3, 3), expected (2, 2)"),
        ("x2", [[0.0, np.inf], [1.0, 0.0]], "run.qrt.x2 has a non-finite entry"),
    ], ids=["x1-nan", "x1-3x3", "x2-inf"])
    def test_qrt_observables_are_finite_d_by_d(self, tmp_path, capsys, key, value, defect):
        # a NaN used to reach the report as bare NaN tokens, and a 3 x 3 observable on the
        # qubit a numpy matmul message that named no key
        sx = _pairs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        doc = qubit_doc(qrt={"x1": sx, "x2": sx, "t1": 1.0, "t2": 0.5})
        doc["run"]["qrt"][key] = _pairs(value)
        assert cli.main(["qrt", "--model", write_model(tmp_path, doc)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {defect}" in captured.err

    @pytest.mark.parametrize("key, where", [
        ("hamiltonian", "system.hamiltonian"), ("couplings", "system.couplings[0]")])
    def test_infinite_system_entry_prints_only_the_error(self, tmp_path, key, where):
        # inf - inf in the Hermiticity defect used to print numpy's RuntimeWarning first
        doc = qubit_doc()
        node = doc["system"][key] if key == "hamiltonian" else doc["system"][key][0]
        node[0][0] = [float("inf"), 0.0]
        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(os.path.abspath(oqsolve.__file__)))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "oqsolve.cli", "pauli", "--model",
                               write_model(tmp_path, doc)], env=env, capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_VALIDATION and proc.stdout == ""
        assert proc.stderr == f"error: {where} has a non-finite entry\n"

    @pytest.mark.parametrize("option, where", [(["--seed", "-1"], "--seed"), ([], "run.oracle.seed")])
    def test_negative_seed_exits_validation(self, tmp_path, capsys, option, where):
        doc = qubit_doc(oracle={"horizon": 1.0, "n_points": 3, "seed": -1})
        model = write_model(tmp_path, doc)
        assert cli.main(["oracle-compare", "--model", model, *option]) == cli.EXIT_VALIDATION
        assert f"{where} must be an integer > -1, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "qrt"])
    def test_unknown_mode_exits_validation(self, tmp_path, capsys, command):
        # only "stationary" and "full-time" are modes; "full" is not an alias
        sx = _pairs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        doc = qubit_doc(t_max=1.0, n_points=2, mode="full",
                        qrt={"x1": sx, "x2": sx, "t1": 1.0, "t2": 0.5, "mode": "full"})
        assert cli.main([command, "--model", write_model(tmp_path, doc)]) == cli.EXIT_VALIDATION
        assert "unknown mode 'full'" in capsys.readouterr().err

    def test_compose_refused(self, tmp_path, capsys):
        doc = qubit_doc()
        doc["compose"] = ["a.json", "b.json"]
        model = write_model(tmp_path, doc)
        assert cli.main(["pauli", "--model", model]) == cli.EXIT_VALIDATION
        assert "refusing to compose" in capsys.readouterr().err

    def test_unknown_bath_variant(self, tmp_path):
        doc = qubit_doc()
        doc["bath"] = {"variant": "mystery"}
        model = write_model(tmp_path, doc)
        assert cli.main(["simulate", "--model", model]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("node, message", [
        ({"variant": "ou", "c": [[0.1]], "lam": "abc"}, "lam must be numeric"),
        ({"variant": "ou", "c": [[0.1]], "lam": None}, "lam must be finite"),
        ({"variant": "ou", "c": [[0.1]], "lam": float("nan")}, "lam must be finite"),
        ({"variant": "ou", "c": [[float("inf")]], "lam": 1.0}, "c must be finite"),
        ({"variant": "ou", "c": [[0.1]], "lam": 0.0}, "one rate lam > 0"),
        ({"variant": "ou", "c": [[[0.1]], [[0.2]]], "lam": [1.0, 2.0]}, "one (n, n) matrix c"),
        ({"variant": "thermal_lorentz", "gamma0": 0.1, "cutoff": 5.0,
          "temperature": float("nan")}, "temperature must be finite"),
        ({"variant": "thermal_lorentz", "gamma0": 0.1, "cutoff": float("inf"),
          "temperature": 0.25}, "cutoff must be finite"),
        ({"variant": "thermal_lorentz", "gamma0": "x", "cutoff": 5.0,
          "temperature": 0.25}, "gamma0 must be numeric"),
        ({"variant": "white", "c": [[float("nan")]]}, "matrix must be finite"),
    ])
    def test_bad_bath_parameter_exits_validation(self, tmp_path, capsys, node, message):
        doc = qubit_doc()
        doc["bath"] = node
        model = write_model(tmp_path, doc)
        assert cli.main(["pauli", "--model", model]) == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key, value", [
        ("pauli", "bath", "path", 5), ("pauli", "bath", "path", None),
        ("cp-audit", "run", "superop_csv", 5), ("cp-audit", "run", "superop_csv", ["a.csv"])])
    def test_model_path_must_be_a_string(self, tmp_path, capsys, command, section, key, value):
        # a non-string bath.path raised TypeError from os.path.join (exit 1), and a
        # non-string run.superop_csv was turned by str() into a path
        doc = qubit_doc()
        if section == "bath":
            doc["bath"] = {"variant": "tabulated", key: value}
        else:
            doc["run"][key] = value
        assert cli.main([command, "--model", write_model(tmp_path, doc)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {section}.{key} must be a JSON string, got {value!r}" in captured.err

    @pytest.mark.parametrize("frequencies", [[1.0, 1.0], [0.0, -0.0], [0.5, 1.0, 0.5]])
    def test_repeated_frequency_exits_validation(self, tmp_path, capsys, frequencies):
        # the table is keyed by frequency: a repeat used to leave one entry, and exit 0
        doc = qubit_doc(t_max=1.0, n_points=2, frequencies=frequencies)
        assert cli.main(["coefficients", "--model", write_model(tmp_path, doc)]) == cli.EXIT_VALIDATION
        captured = capsys.readouterr()
        assert captured.out == "" and "run.frequencies must not repeat a value" in captured.err

    def test_coupling_shape_mismatch(self, tmp_path):
        doc = qubit_doc()
        doc["system"]["couplings"] = [_pairs(np.eye(3))]
        model = write_model(tmp_path, doc)
        assert cli.main(["simulate", "--model", model]) == cli.EXIT_VALIDATION

    @pytest.mark.parametrize("command, place, message", [
        ("spectrum", "hamiltonian", "system.hamiltonian has a non-finite entry"),
        ("simulate", "rho0", "run.rho0 has a non-finite entry"),
        ("cp-audit", "superop_csv", "run.superop_csv: superoperator CSV: every sample entry must be finite"),
    ])
    def test_non_finite_input_exits_validation(self, tmp_path, capsys, command, place, message):
        # every comparison with NaN is False, so these ran to exit 0 with NaN in the output
        from oqsolve import positivity

        doc = qubit_doc()
        if place == "hamiltonian":
            doc["system"]["hamiltonian"][1][1][0] = float("nan")
        elif place == "rho0":
            doc["run"]["rho0"] = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
        else:
            samples = np.zeros((3, 4, 4))
            samples[1, 0, 0] = np.nan
            positivity.save_superop_samples(tmp_path / "samples.csv", [0.0, 0.5, 1.0], samples)
            doc["run"]["superop_csv"] = "samples.csv"
        assert cli.main([command, "--model", write_model(tmp_path, doc)]) == cli.EXIT_VALIDATION
        assert message in capsys.readouterr().err


class TestNumericalFailure:
    def test_tabulated_out_of_range_exits_numerical(self, tmp_path):
        ou = bath.ExponentialOU(c=[[0.1]], lam=1.0)
        tgrid = np.linspace(0.0, 5.0, 201)
        tab = bath.Tabulated(tgrid, np.array([ou.alpha_time(t) for t in tgrid]))
        csv_path = tmp_path / "alpha.csv"
        tab.to_csv(str(csv_path))
        doc = qubit_doc(t_max=20.0, n_points=5)
        doc["bath"] = {"variant": "tabulated", "path": "alpha.csv"}
        model = write_model(tmp_path, doc)
        assert cli.main(["coefficients", "--model", model]) == cli.EXIT_NUMERICAL

    @staticmethod
    def _nan_run(tmp_path, capsys, command, doc, out):
        # a NaN is no JSON number and no trajectory value: exit 3, nothing on stdout, no --out
        target = tmp_path / "out"
        argv = [command, "--model", write_model(tmp_path, doc)]
        argv += ["--out", str(target)] if out else []
        assert cli.main(argv) == cli.EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err)["error"] == "numerical-failure"
        assert sorted(os.listdir(tmp_path)) == ["model.json"]

    @pytest.mark.parametrize("out", [False, True])
    def test_non_finite_report_exits_numerical(self, tmp_path, capsys, monkeypatch, out):
        from oqsolve import multitime

        monkeypatch.setattr(multitime, "nm_correction_integrated", lambda m, req: complex(np.nan, 0))
        sx = _pairs(np.array([[0.0, 1.0], [1.0, 0.0]]))
        doc = qubit_doc(qrt={"x1": sx, "x2": sx, "t1": 2.0, "t2": 0.5})
        self._nan_run(tmp_path, capsys, "qrt", doc, out)

    @pytest.mark.parametrize("out", [False, True])
    def test_non_finite_trajectory_exits_numerical(self, tmp_path, capsys, monkeypatch, out):
        from oqsolve import tcl2

        propagate = tcl2.propagate

        def with_nan(*args, **kwargs):
            traj = propagate(*args, **kwargs)
            traj.states[-1, 0, 0] = np.nan
            return traj

        monkeypatch.setattr(tcl2, "propagate", with_nan)
        self._nan_run(tmp_path, capsys, "simulate", qubit_doc(t_max=2.0, n_points=3), out)

    @pytest.mark.parametrize("command", ["nonlocal", "pauli", "spectrum", "coefficients"])
    def test_tabulated_failed_tail_fit_exits_numerical(self, tmp_path, capsys, command):
        # undamped samples: no exponential tail, so no Laplace transform
        tgrid = np.linspace(0.0, 10.0, 201)
        tab = bath.Tabulated(tgrid, 0.1 * np.cos(1.3 * tgrid))
        assert tab._undamped
        tab.to_csv(str(tmp_path / "alpha.csv"))
        doc = qubit_doc()
        doc["bath"] = {"variant": "tabulated", "path": "alpha.csv"}
        model = write_model(tmp_path, doc)
        assert cli.main([command, "--model", model]) == cli.EXIT_NUMERICAL
        assert "tail" in capsys.readouterr().err


class TestTabulatedModel:
    def test_relative_path_resolution(self, tmp_path):
        ou = bath.ExponentialOU(c=[[0.1]], lam=1.0)
        tgrid = np.linspace(0.0, 30.0, 601)
        tab = bath.Tabulated(tgrid, np.array([ou.alpha_time(t) for t in tgrid]))
        tab.to_csv(str(tmp_path / "alpha.csv"))
        doc = qubit_doc(t_max=4.0, n_points=5)
        doc["bath"] = {"variant": "tabulated", "path": "alpha.csv"}
        model = write_model(tmp_path, doc)
        out = tmp_path / "traj.csv"
        assert cli.main(
            ["simulate", "--model", model, "--out", str(out)]
        ) == 0
        assert out.exists()

    def test_noisy_samples_exit_validation(self, tmp_path, capsys):
        # 1e-6 noise on 0.075 e^{-1.2 t}: no exponential sum predicts the held-out samples
        tgrid = np.linspace(0.0, 8.0, 161)
        noise = 1e-6 * np.random.default_rng(0).standard_normal(tgrid.size)
        with open(tmp_path / "alpha.csv", "w") as fh:
            fh.write("t,re_alpha_0_0,im_alpha_0_0\n")
            for t, a in zip(tgrid, 0.075 * np.exp(-1.2 * tgrid) + noise):
                fh.write(f"{float(t)!r},{float(a)!r},0.0\n")
        doc = qubit_doc()
        doc["bath"] = {"variant": "tabulated", "path": "alpha.csv"}
        model = write_model(tmp_path, doc)
        assert cli.main(["pauli", "--model", model]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        residual = re.search(r"held-out samples by (\S+) of max\|alpha\|", err)
        assert "tolerance 1e-06" in err and residual and float(residual[1]) > 1e-6
