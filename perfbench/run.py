"""Closed-loop benchmark of oqsolve CLI jobs.

    python3 perfbench/run.py --workload {stationary,time-dependent,cp-audit} \
        --seed N --seconds S --trace {0,1}

Run from the repository root.  One client calls `oqsolve.cli.main` in-process
on the workload's fixed job list (models drawn from --seed), round after
round, until --seconds have passed; only whole rounds are run.  Every job's
output is checked against references computed apart from the program
(perfbench/reference.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; with --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones from the span tracer
(perfbench/spans.py).  Run records and spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_INTERPRETERS = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_CODE = (
    "import sys\n"
    "sys.path.insert(0, 'src')\n"
    "import oqsolve.cli as cli\n"
    "for path in sys.argv[1:]:\n"
    "    cli.load_model(path)\n"
)


def _nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _git_sha(root):
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        loose = os.path.join(git, name)
        if os.path.isfile(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup_seconds(paths, host):
    """Fresh interpreters importing oqsolve.cli and loading every model file of
    the workload: (start, wall seconds) of each."""
    times = []
    for _ in range(SETUP_INTERPRETERS):
        host.calibrate()
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, *paths],
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=120)
        times.append((t0, time.perf_counter() - t0))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed: {proc.stderr.decode()[-2000:]}")
    host.calibrate(force=True)
    return times


def _run_round(jobs, paths, cli, tracer, host):
    """One pass over the job list; per job (start, wall seconds, exit code, output)."""
    out = []
    for k, job in enumerate(jobs):
        argv = job.argv(*paths[job.name])
        host.calibrate()
        sid = tracer.begin_job(k) if tracer else None
        t0 = time.perf_counter()
        rc = cli.main(argv)
        dt = time.perf_counter() - t0
        if tracer:
            tracer.end_job(sid)
        text = None
        if rc == 0:
            with open(paths[job.name][1]) as fh:
                text = fh.read()
        out.append((t0, dt, rc, text))
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["stationary", "time-dependent", "cp-audit"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    shipped_path = os.path.join("examples_models", "qubit_relaxation.json")
    if not (os.path.isfile(os.path.join(root, "src", "oqsolve", "cli.py"))
            and os.path.isfile(os.path.join(root, shipped_path))):
        print("error: run from the repository root (src/oqsolve and examples_models/ not found)",
              file=sys.stderr)
        return 2

    # cap BLAS threads before numpy is imported, here and in set-up interpreters
    cap = str(_nproc())
    for var in BLAS_VARS:
        os.environ[var] = cap
    sys.path.insert(0, os.path.join(root, "src"))
    sys.path.insert(0, HERE)

    import numpy as np
    import scipy

    import workloads as wl
    from hostspeed import REFERENCE_S, HostSpeed

    with open(shipped_path) as fh:
        shipped = json.load(fh)
    jobs = wl.build(args.workload, args.seed, shipped)
    tag = f"{args.workload}-seed{args.seed}"
    out_dir = os.path.join(HERE, "out")
    work = os.path.join(out_dir, f"jobs-{tag}-trace{args.trace}")
    os.makedirs(work, exist_ok=True)
    paths = {}
    for job in jobs:
        ext = "csv" if job.sub == "simulate" else "json"
        model = shipped_path if job.doc == shipped else os.path.join(work, f"{job.name}.model.json")
        if model != shipped_path:
            with open(model, "w") as fh:
                json.dump(job.doc, fh, indent=1)
        paths[job.name] = (model, os.path.join(work, f"{job.name}.out.{ext}"))

    host = HostSpeed()
    setup = None
    if args.trace == 0:
        setup = _setup_seconds(sorted({p[0] for p in paths.values()}), host)

    import oqsolve
    import oqsolve.cli as cli
    import spans as tr

    for job in jobs:
        job.prepare()

    tracer = tr.Tracer() if args.trace else None
    # (subcommand, audit points): cp-audit audits n_points - 1 times (default 9)
    job_info = {k: (job.sub, int(job.doc["run"].get("n_points", 9)) - 1 if job.sub == "cp-audit" else 0)
                for k, job in enumerate(jobs)}
    rounds = []  # (traced, results)
    summaries = []
    failures = {}
    last_check = {}
    begin = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        if traced:
            lo = len(tracer.start)
            with tracer.active(oqsolve):
                results = _run_round(jobs, paths, cli, tracer, host)
            summaries.append(tracer.round_summary(lo, len(tracer.start), job_info))
        else:
            results = _run_round(jobs, paths, cli, None, host)
        outputs = {job.name: res[3] for job, res in zip(jobs, results)}
        for job, (_, _, rc, text) in zip(jobs, results):
            if rc != 0:
                ok, detail = False, f"exit code {rc}"
            else:
                ok, detail = job.check(text, outputs)
            last_check[job.name] = detail
            if not ok:
                failures[job.name] = failures.get(job.name, 0) + 1
        rounds.append((traced, results))
        elapsed = time.perf_counter() - begin
        if elapsed >= args.seconds and (not args.trace or len(rounds) >= 2):
            break

    attempted = len(jobs) * len(rounds)
    failed = sum(failures.values())
    unexpected = sorted(n for n in failures if n not in wl.KNOWN_FAULTS)
    correct = not unexpected

    host.calibrate(force=True)

    def corrected(t0, dt):
        return dt * host.scale(t0, t0 + dt)

    def job_medians(sel, raw=False):
        """Each job's median wall time over the traced (sel=True) or untraced
        rounds, host-speed corrected unless raw."""
        return [statistics.median(results[k][1] if raw else corrected(*results[k][:2])
                                  for traced, results in rounds if traced == sel)
                for k in range(len(jobs))]

    def throughput(sel, raw=False):
        return len(jobs) / sum(job_medians(sel, raw))

    metrics = {}
    if args.trace == 0:
        metrics["jobs_per_s"] = (throughput(False), "1/s")
        metrics["job_p50_s"] = (statistics.median(job_medians(False)), "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
        metrics["setup_s"] = (statistics.median(corrected(t0, dt) for t0, dt in setup), "s")
        raw = {"jobs_per_s": throughput(False, raw=True),
               "job_p50_s": statistics.median(job_medians(False, raw=True)),
               "setup_s": statistics.median(dt for _, dt in setup)}
    else:
        metrics.update(tr.layer_metrics(summaries, job_info))
        untraced, traced_rate = throughput(False), throughput(True)
        metrics["trace.untraced_jobs_per_s"] = (untraced, "1/s")
        metrics["trace.jobs_per_s"] = (traced_rate, "1/s")
        metrics["trace.overhead_pct"] = (100.0 * (untraced - traced_rate) / untraced, "%")
        residual = max(s["self_sum_residual_s"] for s in summaries)
        if residual > 1e-6:
            correct = False
        tracer.write(os.path.join(out_dir, f"spans-{tag}.csv.gz"),
                     {k: job.name for k, job in enumerate(jobs)})

    env = {
        "git_sha": _git_sha(root),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": _nproc(),
        "blas_thread_cap": int(cap),
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "rounds": len(rounds), "environment": env,
        "setup_interpreter_s": [dt for _, dt in setup] if setup else None,
        "calibration_s": host.seconds,
        "uncorrected": raw if args.trace == 0 else None,
        "jobs": [{"name": job.name, "subcommand": job.sub,
                  "wall_s": [results[k][1] for _, results in rounds],
                  "corrected_s": [corrected(*results[k][:2]) for _, results in rounds],
                  "failed_rounds": failures.get(job.name, 0),
                  "known_fault": wl.KNOWN_FAULTS.get(job.name),
                  "check": last_check[job.name]} for k, job in enumerate(jobs)],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.trace:
        record["spans"] = {"self_sum_residual_s": residual,
                           "rounds": [{k: v for k, v in s.items() if k != "job_s"} for s in summaries]}
    with open(os.path.join(out_dir, f"run-{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    print(json.dumps({"environment": env}))
    for k, job in enumerate(jobs):
        state = "ok" if failures.get(job.name, 0) == 0 else (
            "FAILED (known fault)" if job.name in wl.KNOWN_FAULTS else "FAILED")
        wall = statistics.median(results[k][1] for _, results in rounds)
        print(f"  {job.name:28s} {wall:9.4f} s  {state}: {last_check[job.name]}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit}")
    if args.trace == 0:
        print(f"  uncorrected wall times: jobs_per_s {raw['jobs_per_s']:.6g} 1/s, "
              f"job_p50_s {raw['job_p50_s']:.6g} s, setup_s {raw['setup_s']:.6g} s; "
              f"median calibration {statistics.median(host.seconds):.4f} s "
              f"(reference {REFERENCE_S} s)")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
