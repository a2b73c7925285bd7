"""Span tracing of oqsolve's layers from outside the package.

`Tracer.install` replaces the public functions listed below in every oqsolve
module namespace that binds them (and the bath methods on their classes) with
wrappers that record a span: name, start, end, parent span and job id.  Spans
stay in memory in flat arrays and are written out once at the end of a run.
"""

from __future__ import annotations

import array
import contextlib
import functools
import gzip
import statistics
import sys
import time
import warnings

LAYER_FUNCTIONS = {
    "cli": ["load_model"],
    "tcl2": ["build_L2", "interaction_L2", "propagate"],
    "spectral": ["pauli_system", "perturbative_spectrum"],
    "memkernel": ["kernel_K2", "resolvent", "talbot_invert", "asymptotic_state", "nonlocal_poles"],
    "positivity": ["magnus_phi2", "magnus_propagator", "interaction_dissipator_samples",
                   "weak_cp_test"],
    "multitime": ["qrt_correlation", "nm_correction_integrated", "two_time_operator"],
    "oracle": ["convergence_errors", "exact_reduced_trajectory", "reduced_model"],
}
BATH_METHODS = ["coefficient_full", "coefficient_stationary", "laplace", "alpha_time",
                "alpha_spectrum"]
BATH_CLASSES = ["BathModel", "WhiteNoise", "ExponentialOU", "ThermalLorentz", "Tabulated"]
SUBCOMMANDS = ["simulate", "spectrum", "pauli", "coefficients", "cp-audit", "nonlocal", "qrt",
               "oracle-compare"]
JOB = "job"


def _build_l2_name(args, kwargs):
    t = args[1] if len(args) > 1 else kwargs.get("t")
    return "tcl2.build_L2.stationary" if t is None else "tcl2.build_L2.time"


class Tracer:
    def __init__(self):
        self.names = [JOB]
        self._ids = {JOB: 0}
        self.name_id = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.job = array.array("i")
        self.nfev = {}         # span index -> solve_ivp nfev
        self.warned = []       # span index of each IntegrationWarning in a bath span
        self._stack = []
        self._job = -1
        self._patches = []

    # -- recording -----------------------------------------------------------
    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_job(self, job_id):
        self._job = job_id
        return self._open(0)

    def end_job(self, idx):
        self._close(idx)
        self._job = -1

    def _wrap(self, name, fn, namer=None):
        tracer = self
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(tracer._id(namer(args, kwargs)) if namer else nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(idx)

        return wrapper

    # -- installation --------------------------------------------------------
    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr) if isinstance(owner, type)
                              else vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, pkg):
        mods = [m for n, m in sorted(sys.modules.items())
                if n == pkg.__name__ or n.startswith(pkg.__name__ + ".")]
        for layer, funcs in LAYER_FUNCTIONS.items():
            home = sys.modules[f"{pkg.__name__}.{layer}"]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig,
                                     _build_l2_name if fname == "build_L2" else None)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._set(mod, attr, wrapped)
        bath = sys.modules[f"{pkg.__name__}.bath"]
        for cname in BATH_CLASSES:
            cls = getattr(bath, cname)
            for meth in BATH_METHODS:
                if meth in cls.__dict__:
                    self._set(cls, meth, self._wrap(f"bath.{meth}", cls.__dict__[meth]))
        cli = sys.modules[f"{pkg.__name__}.cli"]
        self._commands = cli._COMMANDS
        self._saved_commands = dict(cli._COMMANDS)
        for sub, fn in self._saved_commands.items():
            cli._COMMANDS[sub] = self._wrap(f"cli.{sub}", fn)
        tcl2 = sys.modules[f"{pkg.__name__}.tcl2"]
        solve = tcl2.solve_ivp

        def counted_solve_ivp(*args, **kwargs):
            sol = solve(*args, **kwargs)
            top = self._stack[-1]
            self.nfev[top] = self.nfev.get(top, 0) + int(sol.nfev)
            return sol

        self._set(tcl2, "solve_ivp", counted_solve_ivp)

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()
        self._commands.clear()
        self._commands.update(self._saved_commands)

    def _show(self, message, category, *args, **kwargs):
        if any(self.names[self.name_id[i]].startswith("bath.") for i in self._stack):
            self.warned.append(self._stack[-1])

    @contextlib.contextmanager
    def active(self, pkg):
        """Spans recorded and IntegrationWarnings counted (not printed) inside."""
        from scipy.integrate import IntegrationWarning

        self.install(pkg)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("always", IntegrationWarning)
                warnings.showwarning = self._show
                yield
        finally:
            self.uninstall()

    # -- analysis ------------------------------------------------------------
    def self_times(self, lo, hi):
        """Self time of spans lo..hi-1: duration minus the duration of direct children."""
        child = [0.0] * (hi - lo)
        for i in range(lo, hi):
            p = self.parent[i]
            if p >= lo:
                child[p - lo] += self.end[i] - self.start[i]
        return [self.end[i] - self.start[i] - child[i - lo] for i in range(lo, hi)]

    def round_summary(self, lo, hi, jobs):
        """Per-layer values of one traced round made of spans lo..hi-1.

        `jobs` maps job id to (subcommand, number of cp-audit points)."""
        selfs = self.self_times(lo, hi)
        calls, self_s = {}, {}
        job_dur, job_self = {}, {}
        for k, i in enumerate(range(lo, hi)):
            name = self.names[self.name_id[i]]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + selfs[k]
            j = self.job[i]
            job_self[j] = job_self.get(j, 0.0) + selfs[k]
            if name == JOB:
                job_dur[j] = self.end[i] - self.start[i]
        residual = max(abs(job_self[j] - job_dur[j]) for j in job_dur)
        # interaction_L2 builds under each magnus_phi2 call
        magnus = {}
        audit_phi2 = 0
        for i in range(lo, hi):
            name = self.names[self.name_id[i]]
            if name == "positivity.magnus_phi2":
                magnus.setdefault(i, 0)
                if jobs[self.job[i]][0] == "cp-audit":
                    audit_phi2 += 1
            elif name == "tcl2.interaction_L2":
                p = self.parent[i]
                while p >= lo and self.names[self.name_id[p]] != "positivity.magnus_phi2":
                    p = self.parent[p]
                if p >= lo:
                    magnus[p] = magnus.get(p, 0) + 1
        points = sum(jobs[j][1] for j in job_dur if jobs[j][0] == "cp-audit")
        return {
            "calls": calls,
            "self_s": self_s,
            "job_s": {j: job_dur[j] for j in job_dur},
            "self_sum_residual_s": residual,
            "nfev": sum(v for k, v in self.nfev.items() if lo <= k < hi),
            "integration_warnings": sum(1 for k in self.warned if lo <= k < hi),
            "magnus_nodes": list(magnus.values()),
            "phi2_per_audit_point": audit_phi2 / points if points else 0.0,
            "spans": hi - lo,
        }

    def write(self, path, job_names):
        with gzip.open(path, "wt") as fh:
            fh.write("index,name,start_s,end_s,parent,job\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.start)):
                j = self.job[i]
                fh.write(f"{i},{self.names[self.name_id[i]]},{self.start[i] - t0:.9f},"
                         f"{self.end[i] - t0:.9f},{self.parent[i]},{job_names.get(j, j)}\n")


def layer_metrics(summaries, jobs):
    """Per-layer metrics: medians over traced rounds of per-round values."""

    def med(values):
        return float(statistics.median(values)) if values else 0.0

    out = {}
    for layer, funcs in LAYER_FUNCTIONS.items():
        for fname in funcs:
            names = ([f"{layer}.build_L2.stationary", f"{layer}.build_L2.time"]
                     if fname == "build_L2" else [f"{layer}.{fname}"])
            for name in names:
                if name == "cli.load_model":
                    out["cli.load_model.self_s"] = (med([s["self_s"].get(name, 0.0) for s in summaries]), "s")
                    continue
                out[f"{name}.calls"] = (med([s["calls"].get(name, 0) for s in summaries]), "count")
                out[f"{name}.self_s"] = (med([s["self_s"].get(name, 0.0) for s in summaries]), "s")
    for meth in BATH_METHODS:
        name = f"bath.{meth}"
        out[f"{name}.calls"] = (med([s["calls"].get(name, 0) for s in summaries]), "count")
        out[f"{name}.self_s"] = (med([s["self_s"].get(name, 0.0) for s in summaries]), "s")
    out["bath.integration_warnings"] = (med([s["integration_warnings"] for s in summaries]), "count")
    out["tcl2.propagate.nfev"] = (med([s["nfev"] for s in summaries]), "count")
    cli_names = [JOB] + [f"cli.{sub}" for sub in SUBCOMMANDS]
    out["cli.self_s"] = (med([sum(s["self_s"].get(n, 0.0) for n in cli_names) for s in summaries]), "s")
    for sub in SUBCOMMANDS:
        durs = [d for s in summaries for j, d in s["job_s"].items() if jobs[j][0] == sub]
        out[f"cli.{sub}.p50_s"] = (med(durs), "s")
    nodes = [n for s in summaries for n in s["magnus_nodes"]]
    out["positivity.magnus_nodes_per_call"] = (float(sum(nodes)) / len(nodes) if nodes else 0.0, "count")
    out["positivity.magnus_nodes_per_call.max"] = (float(max(nodes, default=0)), "count")
    out["positivity.phi2_per_audit_point"] = (med([s["phi2_per_audit_point"] for s in summaries]), "count")
    out["trace.spans_per_round"] = (med([s["spans"] for s in summaries]), "count")
    return out
