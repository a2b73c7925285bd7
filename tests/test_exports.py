import importlib
import json
import os
import subprocess
import sys

import pytest

import oqsolve

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ["bath", "core", "memkernel", "multitime", "oracle", "positivity", "spectral", "tcl2"]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    mod = importlib.import_module(f"oqsolve.{name}")
    assert [attr for attr in mod.__all__ if not hasattr(mod, attr)] == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def _fresh(code: str):
    """Run code in a new interpreter with the package importable; its last stdout
    line, parsed as JSON."""
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.abspath(oqsolve.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=REPO, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_cold_start_loads_no_deferred_scipy_submodule():
    # scipy.integrate pulls in scipy.optimize and scipy.sparse; these load on first use only
    loaded = _fresh(
        "import json, sys\n"
        "import oqsolve.cli as cli\n"
        "cli.load_model('examples_models/qubit_relaxation.json')\n"
        "deferred = ('scipy.integrate', 'scipy.interpolate', 'scipy.optimize', 'scipy.linalg')\n"
        "print(json.dumps(sorted(set(deferred) & set(sys.modules))))\n"
    )
    assert loaded == []


def test_cli_paths_never_load_scipy_linalg():
    # scipy.linalg runs on scipy's own OpenBLAS, a second copy beside numpy's whose idle
    # worker spins after each call and stalls numpy's next one: every matrix exponential
    # is core.expm, so no subcommand on the shipped model loads it
    loaded = _fresh(
        "import json, os, sys, tempfile\n"
        "import oqsolve.cli as cli\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    codes = [cli.main([c, '--model', 'examples_models/qubit_relaxation.json',\n"
        "                       '--out', os.path.join(out, c)])\n"
        "             for c in ('simulate', 'qrt', 'cp-audit', 'pauli', 'spectrum', 'nonlocal')]\n"
        "print(json.dumps([codes, 'scipy.linalg' in sys.modules]))\n"
    )
    assert loaded == [[0] * 6, False]


def test_cli_paths_load_no_scipy():
    # the special functions are oqsolve._special and the DOP853 tableau is literal: no
    # subcommand, on the shipped model or a full-time T = 0 copy, imports any of scipy
    loaded = _fresh(
        "import json, os, sys, tempfile\n"
        "import oqsolve.cli as cli\n"
        "with open('examples_models/qubit_relaxation.json') as fh:\n"
        "    doc = json.load(fh)\n"
        "doc['bath']['temperature'] = 0.0\n"
        "doc['run']['mode'] = doc['run']['qrt']['mode'] = 'full-time'\n"
        "codes = set()\n"
        "with tempfile.TemporaryDirectory() as out:\n"
        "    t0 = os.path.join(out, 'full-time-t0.json')\n"
        "    with open(t0, 'w') as fh:\n"
        "        json.dump(doc, fh)\n"
        "    for model in ('examples_models/qubit_relaxation.json', t0):\n"
        "        cli.load_model(model)\n"
        "        for c in ('simulate', 'pauli', 'cp-audit', 'spectrum', 'nonlocal', 'qrt',\n"
        "                  'coefficients', 'oracle-compare'):\n"
        "            codes.add(cli.main([c, '--model', model, '--out', os.path.join(out, c)]))\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([sorted(codes), scipy]))\n"
    )
    assert loaded == [[0], []]


def test_deferred_paths_in_a_fresh_interpreter():
    # in-suite tests cannot see a missing local import once another test has
    # loaded the submodule, so each deferred path runs here in a new process
    finite = _fresh(
        "import json\n"
        "import numpy as np\n"
        "from oqsolve import bath, positivity, tcl2\n"
        "sx, sz = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])\n"
        "rho0 = np.array([[1.0, 0.0], [0.0, 0.0]])\n"
        "m = tcl2.SystemModel(h=0.5 * sz, couplings=[sx], bath=bath.ThermalLorentz(\n"
        "    gamma0=0.1, cutoff=5.0, temperature=0.25))\n"
        "grid = np.linspace(0.0, 2.0, 5)\n"
        "t0 = bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.0)\n"
        "t = np.linspace(0.0, 4.0, 41)\n"
        "tab = bath.Tabulated(t, 0.1 * np.exp(-(0.8 + 0.3j) * t))\n"
        "out = {\n"
        "    'stationary': tcl2.propagate(m, rho0, grid).states,\n"
        "    'full-time': tcl2.propagate(m, rho0, grid, mode='full-time').states,\n"
        "    'magnus': positivity.magnus_propagator(m, 1.0),\n"
        "    't0-table': t0.coefficient_integral(1.0, np.array([-1.0, 0.0, 1.0]))[0],\n"
        "    'tabulated-full': tab.coefficient_full(np.array([0.5, 1.0]), 1.0),\n"
        "    'tabulated-laplace': tab.laplace(1.0 + 0.5j),\n"
        "}\n"
        "print(json.dumps({k: bool(np.all(np.isfinite(v))) for k, v in out.items()}))\n"
    )
    assert finite == {k: True for k in ("stationary", "full-time", "magnus", "t0-table",
                                        "tabulated-full", "tabulated-laplace")}


def test_magnus_tables_load_no_quadrature_in_a_fresh_interpreter():
    # every bath's gap-pair table is a closed form: neither the T = 0 channel nor
    # undamped exponential sums reach for scipy.integrate
    loaded = _fresh(
        "import json, sys\n"
        "import numpy as np\n"
        "from oqsolve import bath, positivity, tcl2\n"
        "sx, sz = np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])\n"
        "for b in (bath.ThermalLorentz(gamma0=0.1, cutoff=5.0, temperature=0.0),\n"
        "          bath.ExponentialOU(c=[[[0.05]], [[0.05]]], lam=[1.3j, -1.3j])):\n"
        "    m = tcl2.SystemModel(h=0.5 * sz, couplings=[sx], bath=b)\n"
        "    assert np.all(np.isfinite(positivity.magnus_propagator(m, 1.0)))\n"
        "print(json.dumps('scipy.integrate' in sys.modules))\n"
    )
    assert loaded is False
