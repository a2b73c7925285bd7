"""Batch command-line front end.

Reads a JSON model file describing the system, bath, and run parameters, and
emits deterministic CSV (`simulate`'s trajectory) or a JSON report (every other
subcommand) suitable for plotting pipelines.  Each `cmd_*` function returns its
output; `main` puts `command` (and `tolerance`, for the subcommands that take
`--tol`) at the head of a report, serializes it once and writes it atomically
to `--out`, or to stdout without one.  Complex values are `[re, im]` pairs.
Exit codes: 0 success, 2 validation failure (an unwritable `--out` included),
3 numerical failure.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import bath as bath_mod
from . import memkernel, multitime, oracle, positivity, spectral, tcl2
from .core import (choi_rearrange, herm_part, min_choi_eigenvalue, require_hermitian,
                   require_state, write_matrix_csv)

EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


class ValidationError(Exception):
    pass


class NumericalError(Exception):
    pass


# ---------------------------------------------------------------------------
# model-file ingestion
# ---------------------------------------------------------------------------

def _parse_complex_matrix(node, name):
    try:
        arr = np.asarray(node, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name}: not a numeric array of [re, im] pairs: {exc}")
    if arr.ndim != 3 or arr.shape[-1] != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(
            f"{name}: expected square matrix of [re, im] pairs, got shape {arr.shape}"
        )
    return arr[..., 0] + 1j * arr[..., 1]


def _model_path(node, key, name, model_dir):
    """node[key], which must be a JSON string, resolved against the model file's directory."""
    path = node[key]
    if not isinstance(path, str):
        raise ValidationError(f"{name} must be a JSON string, got {path!r}")
    return os.path.join(model_dir, path)


def _build_bath(node, model_dir, n_channels):
    if not isinstance(node, dict) or "variant" not in node:
        raise ValidationError("bath: expected an object with a 'variant' tag")
    variant = node["variant"]
    try:
        if variant == "thermal_lorentz":
            return bath_mod.ThermalLorentz(gamma0=node["gamma0"], cutoff=node["cutoff"],
                                           temperature=node["temperature"], n_channels=n_channels)
        if variant == "ou":
            b = bath_mod.ExponentialOU(c=node["c"], lam=node["lam"])
            if b.c.ndim != 2 or np.ndim(b.lam) or not (np.isrealobj(b.lam) and b.lam > 0):
                raise ValidationError(f"bath: variant 'ou' takes one (n, n) matrix c and one rate "
                                      f"lam > 0, got c of shape {b.c.shape}, lam {node['lam']!r}")
            return b
        if variant == "white":
            return bath_mod.WhiteNoise(c=node["c"])
        if variant == "tabulated":
            return bath_mod.Tabulated.from_csv(_model_path(node, "path", "bath.path", model_dir))
    except KeyError as exc:
        raise ValidationError(f"bath: missing parameter {exc} for variant {variant!r}")
    except (ValueError, OSError) as exc:
        raise ValidationError(f"bath: {exc}")
    raise ValidationError(f"bath: unknown variant {variant!r}")


def _section(node, key, name, kind=dict):
    """node[key], empty when it is absent; ValidationError naming the section
    when it is not a JSON object (kind=list: an array)."""
    value = node.get(key, kind())
    if not isinstance(value, kind):
        raise ValidationError(f"{name} must be a JSON {'object' if kind is dict else 'array'}, "
                              f"got {type(value).__name__}")
    return value


def load_model(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read model file: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file is not valid JSON (line {exc.lineno}): {exc.msg}")
    if not isinstance(doc, dict):
        raise ValidationError(f"model file must hold a JSON object, got {type(doc).__name__}")
    run = _section(doc, "run", "run")
    if "compose" in doc or "compose" in run:
        raise ValidationError(
            "refusing to compose Liouvillians from separate models: summing "
            "generators derived for different environments is not a valid "
            "master equation; supply a single microscopic model with all "
            "couplings instead"
        )
    if "system" not in doc or "bath" not in doc:
        raise ValidationError("model file must contain 'system' and 'bath' sections")
    sysnode = _section(doc, "system", "system")
    couplings_node = _section(sysnode, "couplings", "system.couplings", list)
    model_dir = os.path.dirname(os.path.abspath(path))
    if "superop_csv" in run:  # read by cp-audit
        run["superop_csv"] = _model_path(run, "superop_csv", "run.superop_csv", model_dir)
    try:
        h = require_hermitian(
            _parse_complex_matrix(sysnode.get("hamiltonian"), "system.hamiltonian"),
            name="system.hamiltonian",
        )
        couplings = []
        for k, lnode in enumerate(couplings_node):
            name = f"system.couplings[{k}]"
            couplings.append(require_hermitian(_parse_complex_matrix(lnode, name), name=name))
        bath = _build_bath(doc["bath"], model_dir, len(couplings))
        return tcl2.SystemModel(h=h, couplings=couplings, bath=bath), run
    except ValueError as exc:
        raise ValidationError(str(exc))


def _parse_operator(node, dim, name):
    """A finite (dim, dim) complex matrix; ValidationError naming it otherwise."""
    op = _parse_complex_matrix(node, name)
    if op.shape != (dim, dim):
        raise ValidationError(f"{name}: shape {op.shape}, expected {(dim, dim)}")
    if not np.isfinite(op).all():
        raise ValidationError(f"{name} has a non-finite entry")
    return op


def _parse_state(node, dim, name="run.rho0"):
    if node is None:
        return np.eye(dim, dtype=complex) / dim
    try:
        return require_state(_parse_operator(node, dim, name), name)
    except ValueError as exc:
        raise ValidationError(str(exc))


def _run_value(node, key, name, default=None, *, integer=False, above=-np.inf, ndim=0):
    """node[key], or default when it is absent (None: the key is required), as
    a finite float, an int (integer=True) or, with ndim=1, a non-empty 1-D
    float array; every value must be > above.  ValidationError naming the key
    otherwise."""
    if key not in node and default is None:
        raise ValidationError(f"{name} is required")
    value = node.get(key, default)
    try:
        arr = np.asarray(value)
        ok = (arr.dtype.kind in "iuf" and arr.ndim == ndim and arr.size > 0
              and bool(np.isfinite(arr).all()) and bool((arr > above).all())
              and not (integer and (arr % 1).any()))
    except (TypeError, ValueError):
        ok = False
    if not ok:
        what = ("a non-empty list of finite numbers" if ndim else
                "an integer" if integer else "a finite number")
        bound = f" > {above:g}" if above > -np.inf else ""
        raise ValidationError(f"{name} must be {what}{bound}, got {value!r}")
    if ndim:
        return arr.astype(float)
    return int(arr) if integer else float(arr)


def _grid(run, default_tmax=10.0, default_n=101):
    tmax = _run_value(run, "t_max", "run.t_max", default_tmax, above=0)
    n = _run_value(run, "n_points", "run.n_points", default_n, integer=True, above=1)
    return np.linspace(0.0, tmax, n)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _c(z):
    """A complex scalar, matrix or stack as nested [re, im] pairs: each
    complex128 viewed as its two float64 halves."""
    return np.array(z, dtype=complex)[..., None].view(float).tolist()


def _emit(out_path, text):
    directory = os.path.dirname(os.path.abspath(out_path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".oqsolve-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


# ---------------------------------------------------------------------------
# subcommands: each returns its report (simulate: its CSV text), and main
# writes it
# ---------------------------------------------------------------------------

def cmd_simulate(model, run, args):
    grid = _grid(run)
    rho0 = _parse_state(run.get("rho0"), model.dim)
    mode = run.get("mode", "stationary")
    try:
        traj = tcl2.propagate(model, rho0, grid, mode=mode)
    except ValueError as exc:
        raise ValidationError(str(exc))
    states = traj.states
    if not np.isfinite(states).all():
        raise NumericalError("the trajectory has a non-finite entry")
    buf = io.StringIO()
    write_matrix_csv(buf, traj.times, states, "rho", extra={
        "trace": np.trace(states, axis1=1, axis2=2).real,
        "min_eig": np.linalg.eigvalsh(herm_part(states))[:, 0],
    })
    return buf.getvalue()


def cmd_spectrum(model, run, args):
    spec = spectral.perturbative_spectrum(model)
    ortho = spectral.damping_basis_orthogonality(spec)
    return {
        "energies": model.basis.energies.tolist(),
        "pairs": [list(p) for p in spec.pairs],
        "eigenvalues": {f"{i},{j}": _c(spec.f[(i, j)]) for (i, j) in spec.pairs},
        "degenerate_groups": [[list(p) for p in g] for g in spec.degenerate_groups],
        "orthogonality_residual": ortho,
        "pauli_eigenvalues": _c(np.sort_complex(spec.pauli.eigenvalues)),
        "checks": {"orthogonality": "pass" if ortho < max(args.tol, 1e-2) else "fail"},
    }


def cmd_pauli(model, run, args):
    ps = spectral.pauli_system(model)
    colsum = float(np.max(np.abs(ps.W.sum(axis=0))))
    checks = {"column_sums": "pass" if colsum < 1e-12 * max(1.0, np.max(np.abs(ps.W))) else "fail"}
    report = {
        "W": ps.W.tolist(),
        "stationary": ps.stationary.tolist(),
        "eigenvalues": _c(np.sort_complex(ps.eigenvalues)),
        "multiple_stationary": bool(ps.multiple_stationary),
    }
    if model.bath.is_thermal():
        # the Gibbs state, and detailed balance at it, are the reference only when every
        # channel has the same temperature
        temp = float(model.bath.temperature[0])
        same = bool(np.all(model.bath.temperature == temp))
        w = model.basis.energies
        if same and temp > 0:
            p = np.exp(-(w - w[0]) / temp)
            gibbs = p / p.sum()
            gerr = float(np.max(np.abs(gibbs - ps.stationary)))
            report["gibbs"] = gibbs.tolist()
            report["gibbs_residual"] = gerr
            checks["gibbs"] = "pass" if gerr < args.tol else "fail"
        balance = spectral.detailed_balance_residual(model, ps.stationary)
        report["detailed_balance_residual"] = balance
        if same:
            checks["detailed_balance"] = "pass" if balance < max(args.tol, 1e-10) else "fail"
    report["checks"] = checks
    return report


def cmd_coefficients(model, run, args):
    b = model.bath
    tgrid = _grid(run, default_n=21)
    wgrid = _run_value(run, "frequencies", "run.frequencies", model.unique_gaps, ndim=1)
    if np.unique(wgrid).size < wgrid.size:  # each keys one table entry; 0.0 == -0.0
        raise ValidationError(f"run.frequencies must not repeat a value, got {run['frequencies']!r}")
    try:
        full = b.coefficient_full(tgrid, wgrid)
    except ValueError as exc:
        raise NumericalError(f"coefficient evaluation failed: {exc}")
    full, stationary = _c(full), _c(b.coefficient_stationary(wgrid))
    table = {
        repr(float(w)): {
            "stationary": stationary[j],
            "full_time": {repr(float(t)): full[i][j] for i, t in enumerate(tgrid)},
        }
        for j, w in enumerate(wgrid)
    }
    kgrid = _run_value(run, "kernel_frequencies", "run.kernel_frequencies",
                       np.linspace(-5, 5, 21), ndim=1)
    kern = bath_mod.kernels(b, kgrid)
    checks = {}
    if b.is_thermal():
        kms = bath_mod.kms_residual(b, kgrid)
        checks["kms"] = "pass" if kms < max(args.tol, 1e-9) else "fail"
    fdi = bath_mod.fdi_check(kern)
    checks["fdi"] = "pass" if fdi > -1e-12 else "fail"
    return {
        "coefficients": table,
        "kernels": {"frequencies": kgrid.tolist(), "nu": _c(kern.nu), "mu": _c(kern.mu),
                    "gamma": _c(kern.gamma)},
        "fdi_min_eigenvalue": fdi,
        "checks": checks,
    }


def cmd_cp_audit(model, run, args):
    if "superop_csv" in run:
        try:
            tgrid, samples = positivity.load_superop_samples(run["superop_csv"])
            weak = positivity.weak_cp_test(samples, tgrid)
        except (OSError, ValueError) as exc:
            raise ValidationError(f"run.superop_csv: {exc}")
        return {
            "source": "external-samples",
            "weak_test_min_eigenvalue": weak,
            "checks": {"weak_test": "pass" if weak >= -1e-8 else "fail"},
        }
    tgrid = _grid(run, default_tmax=8.0, default_n=9)[1:]
    weak_points = _run_value(run, "weak_points", "run.weak_points", 2001, integer=True, above=1)
    gen = positivity.magnus_phi2(model, tgrid)
    delta_min = float(np.min(np.linalg.eigvalsh(gen.delta)[:, 0]))
    choi_mins = min_choi_eigenvalue(choi_rearrange(positivity.algebraic_propagator(model, gen))).tolist()
    converged = bool(np.all(gen.converged))
    dense = np.linspace(0.0, float(tgrid[-1]), weak_points)
    weak = positivity.weak_test_min_eigenvalue(model, dense)
    return {
        "times": tgrid.tolist(),
        "magnus_choi_min": min(choi_mins),
        "magnus_choi_min_per_time": choi_mins,
        "delta_min_eigenvalue": delta_min,
        "magnus_change_per_time": gen.change.tolist(),
        "magnus_converged": converged,
        "weak_test_min_eigenvalue": weak,
        "checks": {
            "magnus_cp": "pass" if min(choi_mins) >= -args.tol else "fail",
            "magnus_quadrature": "pass" if converged else "fail",
            "delta_psd": "pass" if delta_min >= -args.tol else "fail",
            "weak_test": "pass" if weak >= -1e-8 else "fail",
        },
    }


def cmd_nonlocal(model, run, args):
    invert = run.get("invert", False)
    if type(invert) is not bool:
        raise ValidationError(f"run.invert must be true or false, got {invert!r}")
    spec = spectral.perturbative_spectrum(model)
    poles = memkernel.nonlocal_poles(model)
    residual = max(
        (abs(poles[p] - spec.f[p]) for p in spec.pairs), default=0.0
    )
    report = {
        "poles": {f"{i},{j}": _c(v) for (i, j), v in sorted(poles.items())},
        "pole_match_max_residual": float(residual),
        "checks": {"pole_match": "pass" if residual < args.tol else "fail"},
    }
    rho0 = _parse_state(run.get("rho0"), model.dim)
    try:
        report["asymptotic_state"] = _c(memkernel.asymptotic_state(model))
    except ValueError as exc:
        report["asymptotic_state_error"] = str(exc)
    if invert:
        grid = _grid(run, default_tmax=10.0, default_n=6)
        gap_time = float(np.max(np.abs(model.unique_gaps)) * grid[-1])
        report["talbot_max_gap_time"] = gap_time
        in_range = gap_time <= memkernel.TALBOT_MAX_GAP_TIME
        report["checks"]["talbot_range"] = "pass" if in_range else "fail"
        states = _c(memkernel.laplace_trajectory(model, rho0, grid))
        report["talbot_trajectory"] = {repr(float(t)): s for t, s in zip(grid, states)}
    return report


def cmd_qrt(model, run, args):
    qrun = _section(run, "qrt", "run.qrt")
    for key in ("x1", "x2"):
        if key not in qrun:
            raise ValidationError(f"run.qrt.{key} is required")
    x1, x2 = (_parse_operator(qrun[key], model.dim, f"run.qrt.{key}") for key in ("x1", "x2"))
    t1, t2 = (_run_value(qrun, key, f"run.qrt.{key}") for key in ("t1", "t2"))
    rho0 = _parse_state(qrun.get("rho0"), model.dim, "run.qrt.rho0")
    req = multitime.TwoTimeRequest(x1=x1, x2=x2, t1=t1, t2=t2, rho0=rho0)
    mode = qrun.get("mode", "stationary")
    try:
        bare = multitime.qrt_correlation(model, req, mode=mode)
        correction, product = multitime.qrt_corrections(model, req)
    except ValueError as exc:
        raise ValidationError(str(exc))
    corrected = bare + correction
    return {
        "t1": req.t1,
        "t2": req.t2,
        "mode": mode,
        "regression": _c(bare),
        "correction": _c(correction),
        "correction_single_time": _c(product),
        "corrected": _c(corrected),
    }


def cmd_oracle_compare(model, run, args):
    orun = _section(run, "oracle", "run.oracle")
    node, name = (orun, "run.oracle.seed") if args.seed is None else ({"seed": args.seed}, "--seed")
    seed = _run_value(node, "seed", name, 0, integer=True, above=-1)
    g = _run_value(orun, "g", "run.oracle.g", 0.1, above=0)
    horizon = _run_value(orun, "horizon", "run.oracle.horizon", 6.0, above=0)
    npoints = _run_value(orun, "n_points", "run.oracle.n_points", 13, integer=True, above=1)
    comp = oracle.random_composite(seed=seed, g=g)
    rho0 = _parse_state(orun.get("rho0"), comp.dim, "run.oracle.rho0")
    errs = oracle.convergence_errors(comp, rho0, horizon, npoints=npoints)
    ratio = errs[0] / errs[1] if errs[1] > 0 else float("inf")
    return {
        "seed": seed,
        "g": g,
        "horizon": horizon,
        "error_full_coupling": errs[0],
        "error_half_coupling": errs[1],
        "ratio": ratio,
        "checks": {"convergence_order": "pass" if ratio >= 10.0 else "fail"},
    }


_COMMANDS = {
    "simulate": cmd_simulate,
    "spectrum": cmd_spectrum,
    "pauli": cmd_pauli,
    "coefficients": cmd_coefficients,
    "cp-audit": cmd_cp_audit,
    "nonlocal": cmd_nonlocal,
    "qrt": cmd_qrt,
    "oracle-compare": cmd_oracle_compare,
}


# the subcommands that read --tol, with its default
_TOL_DEFAULTS = {"spectrum": 1e-8, "pauli": 1e-8, "coefficients": 1e-9, "cp-audit": 1e-10,
                 "nonlocal": 1e-8}


@functools.cache
def _parser():
    parser = argparse.ArgumentParser(
        prog="oqsolve",
        description="Second-order non-Markovian master equations: batch solver and audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--model", required=True, help="JSON model file")
        p.add_argument("--out", default=None, help="output path (default: stdout)")
        if name in _TOL_DEFAULTS:
            p.add_argument("--tol", type=float, default=_TOL_DEFAULTS[name],
                           help="check tolerance (default: %(default)s)")
        if name == "oracle-compare":
            p.add_argument("--seed", type=int, default=None,
                           help="composite seed (default: run.oracle.seed, else 0)")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

    try:
        model, run = load_model(args.model)
        output = _COMMANDS[args.command](model, run, args)
        if not isinstance(output, str):
            header = {"command": args.command}
            if args.command in _TOL_DEFAULTS:
                header["tolerance"] = args.tol
            # a NaN or inf is not JSON: allow_nan=False raises ValueError for it
            output = json.dumps(header | output, indent=2, allow_nan=False) + "\n"
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NumericalError, ValueError) as exc:
        # input errors are ValidationError by now: a ValueError that escapes a subcommand
        # comes from the numerics (a pole, a tabulated grid's end, an undamped term or a
        # non-finite number in the report)
        print(json.dumps({"error": "numerical-failure", "detail": str(exc)}), file=sys.stderr)
        return EXIT_NUMERICAL
    if args.out is None:
        sys.stdout.write(output)
        return 0
    try:
        _emit(args.out, output)
    except OSError as exc:
        print(f"error: cannot write --out {args.out}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_VALIDATION
    return 0


if __name__ == "__main__":
    sys.exit(main())
