"""Measurement loop of the driftwell benchmark: set-up time, passes of a
workload's jobs, output checks, and the metrics and report of a run.

Import it after `src/` of the checkout is on sys.path; `run.py` does that.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy
import scipy
from driftwell.cli import main as cli_main

import workloads
from tracer import UNITS as LAYER_UNITS
from tracer import Tracer, pass_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 7
E2E_UNITS = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB",
             "rel_err": "ratio"}


def time_setup():
    """Wall time of a fresh interpreter importing driftwell.cli: the cost
    every CLI call pays before its first job can start.  No timeout: with
    one, the wait polls and rounds the time up to 50 ms steps."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import driftwell.cli"],
                   env=dict(os.environ, PYTHONPATH=str(SRC)), cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def environment(jobs):
    def cache(name):
        try:
            return os.sysconf(name)
        except (ValueError, OSError):
            return None

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # the drift field a (one component per axis, padded lattice) is the
    # largest array a job holds; computed, not measured
    largest = max(8 * len(j.grid) * math.prod(g + 2 for g in j.grid)
                  for j in jobs)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "cache_bytes": {lvl: cache(f"SC_LEVEL{lvl}_CACHE_SIZE")
                        for lvl in ("1_DCACHE", "2", "3")},
        "largest_array_bytes": largest,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_THREADS")},
    }


def git_commit():
    """HEAD of the checkout's git directory, read without calling git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_job(job, out, tracer):
    if out.exists():
        shutil.rmtree(out)
    rc, extra, error, job_id = None, None, None, None
    span = tracer.job(job.kind) if tracer else contextlib.nullcontext()
    t0 = time.perf_counter()
    try:
        with span as job_id:
            rc = cli_main([*job.argv, "--out", str(out)])
            if rc == 0 and job.after is not None:
                extra = job.after()
    except Exception:  # a crashing job is a failed job; keep measuring
        error = traceback.format_exc()
    wall = time.perf_counter() - t0
    return workloads.JobResult(job=job, out=out, rc=rc, wall=wall,
                               extra=extra, error=error, job_id=job_id)


def check_pass(results):
    """Check every job of a pass: {job name: error or None} and the pass's
    largest relative error."""
    errors, rel = {}, []
    for name, res in results.items():
        if res.error is not None or res.rc != 0:
            errors[name] = res.error or f"exit code {res.rc}"
            continue
        try:
            err = res.job.check(res, results)
        except (workloads.CheckFailed, OSError, KeyError, ValueError,
                TypeError) as exc:
            errors[name] = f"{type(exc).__name__}: {exc}"
            continue
        errors[name] = None
        if err is not None:
            rel.append(err)
    return errors, max(rel) if rel else None


def run_pass(jobs, rng, out, tracer=None):
    order = list(jobs)
    rng.shuffle(order)
    results = {}
    for job in order:
        results[job.name] = run_job(job, out / job.name.replace(":", "-"),
                                    tracer)
    errors, rel = check_pass(results)
    return results, errors, rel


def latency_stats(values):
    """Sample count, median, and the highest percentile with at least ten
    samples beyond it; that tail is None while it would not lie above the
    median (20 samples or fewer)."""
    n = len(values)
    tail = n > 20
    return {"n": n, "median_s": statistics.median(values),
            "tail": f"p{100 * (n - 10) // n}" if tail else None,
            "tail_s": sorted(values)[n - 11] if tail else None}


def job_bytes(out):
    return sum(f.stat().st_size for f in out.rglob("*") if f.is_file())


def measure(workload, seed, seconds, trace, out, size="full",
            setup_repeats=SETUP_REPEATS, warmup=True):
    """Run `workload` for `seconds` and return (summary dict, report lines).

    Untraced passes give the end-to-end metrics.  Latencies are averaged
    over the whole run: on a shared host the machine's speed drifts over
    seconds, and the median of a few long samples follows that drift more
    than the mean does.  With `trace`, untraced and traced passes alternate;
    the traced ones give the per-layer metrics (median over passes of each
    pass's sum), and the ratio of mean pass times is the tracing overhead."""
    rng = random.Random(seed)
    jobs = workloads.plan(workload, rng, size)
    out.mkdir(parents=True, exist_ok=True)
    setup = []
    if not trace:
        time_setup()  # unmeasured: writes the bytecode caches
    if warmup:
        # lazy imports and first-call costs, paid once per process
        run_pass(workloads.plan(workload, random.Random(seed), "tiny"),
                 random.Random(seed), out / "warmup")

    tracer = Tracer() if trace else None
    passes = []
    t_start = time.perf_counter()
    while (len(passes) < (2 if trace else 1)
           or time.perf_counter() - t_start < seconds):
        traced = trace and len(passes) % 2 == 1
        if traced:
            tracer.install()
        try:
            results, errors, rel = run_pass(jobs, rng, out / "jobs",
                                            tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "results": results,
                       "errors": errors, "rel_err": rel,
                       "bytes": {name: job_bytes(r.out)
                                 for name, r in results.items()}})
        # set-up samples spread evenly over the run, not bunched together
        if not trace and (time.perf_counter() - t_start
                          >= len(setup) * seconds / setup_repeats):
            setup.append(time_setup())
    while not trace and len(setup) < setup_repeats:
        setup.append(time_setup())

    attempted = sum(len(p["errors"]) for p in passes)
    failures = [(i, name, err) for i, p in enumerate(passes)
                for name, err in p["errors"].items() if err is not None]
    plain = [p for p in passes if not p["traced"]]
    pass_walls = [sum(r.wall for r in p["results"].values()) for p in plain]
    samples = {}  # per job and per kind: "<kind>_s" is a subcommand latency
    for p in plain:
        for name, r in p["results"].items():
            samples.setdefault(f"{r.job.kind}_s", []).append(r.wall)
            samples.setdefault(name, []).append(r.wall)
    latency = {name: latency_stats(w) for name, w in samples.items()}

    if trace:
        traced_passes = [p for p in passes if p["traced"]]
        values = {name: [] for name in LAYER_UNITS}
        for p in traced_passes:
            meta = {r.job_id: (r.job.kind, math.prod(r.job.grid),
                               p["bytes"][name])
                    for name, r in p["results"].items()}
            spans = [s for s in tracer.spans if s.job in meta]
            for name, v in pass_metrics(spans, meta).items():
                values[name].append(v)
        metrics = {name: {"value": statistics.median(values[name]),
                          "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
        traced_walls = [sum(r.wall for r in p["results"].values())
                        for p in traced_passes]
        metrics["trace.overhead_frac"]["value"] = (
            statistics.fmean(traced_walls) / statistics.fmean(pass_walls) - 1.0)
    else:
        rels = [p["rel_err"] for p in plain if p["rel_err"] is not None]
        metrics = {
            "setup_s": statistics.median(setup),
            "pass_s": statistics.fmean(pass_walls),
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "rel_err": statistics.median(rels) if rels else None,
        }
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}

    lines = [f"workload {workload}: seed {seed}, {len(passes)} passes "
             f"({len(plain)} untraced), {attempted} jobs, {len(failures)} "
             f"failed (failed_frac {len(failures) / attempted:.3g})"]
    for name, st in latency.items():
        if name.endswith("_s"):
            lines.append(f"  {name:<12} n={st['n']:<3} median {st['median_s']:.4f} s"
                         + ("" if st["tail"] is None else
                            f", {st['tail']} {st['tail_s']:.4f} s"))
    for i, name, err in failures:
        lines.append(f"  FAILED pass {i} {name}: {err.strip().splitlines()[-1]}")
    for name, m in metrics.items():
        lines.append(f"  {name} = {m['value']} {m['unit']}"
                     + (f" ({workloads.REL_ERR[workload]})"
                        if name == "rel_err" else ""))

    summary = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": bool(trace), "size": size,
        "environment": environment(jobs),
        "jobs": [{"name": j.name, "kind": j.kind, "argv": j.argv} for j in jobs],
        "latency": latency,
        "setup_samples_s": setup,
        "passes": [{"traced": p["traced"], "rel_err": p["rel_err"],
                    "walls_s": {n: r.wall for n, r in p["results"].items()}}
                   for p in passes],
        "failures": [{"pass": i, "job": name, "error": err}
                     for i, name, err in failures],
        **summary,
    }
    (out / "result.json").write_text(json.dumps(record, indent=2) + "\n")
    if trace:
        (out / "spans.json").write_text(json.dumps(tracer.dump()) + "\n")
    return summary, lines
