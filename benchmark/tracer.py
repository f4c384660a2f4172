"""Tracing from outside the program: wrap the public functions of driftwell's
modules, record one span per call in memory, and turn the spans of a pass
into per-layer metrics.

A function is wrapped in every driftwell namespace that binds it (the
defining module, the package, and every module that imported it by name),
so calls through `driftwell.cli.principal_eig` and module-global lookups
such as `evolve` calling `step` are both seen.  Spans opened on a thread
with no open span (the sweep's worker threads) take the job's root span as
parent.  Self times are defined in `self_times`.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Layers are driftwell's modules; `cli` is the job's root span.  `grids`
# defines no functions, only lattice classes.
LAYERS = ("potential", "eigensolve1d", "asymptotics", "bounds", "pde2d", "io")
KINDS = ("eig1d", "eig1d_m3", "sweep", "bounds", "lifespan", "well2d",
         "evolve2d")

_SELF = ("assemble_pencil", "principal_eig", "rayleigh_quotient",
         "eigs_bisection", "count_below",
         "adjoint_eigenfunction", "product_formula", "closed_form",
         "well_upper_bound", "p2_envelope", "multiwell_upper_bound",
         "detect_wells", "liouville_q", "check_well_ordering",
         "build_potential_1d", "build_field_2d", "evolve", "step",
         "fit_decay", "extract_profile", "adjoint_profile", "write_csv",
         "write_json")
_CALLS = ("principal_eig", "product_formula", "well_upper_bound",
          "detect_wells", "step", "write_csv")

# Per-layer metric name -> unit.  Each is summed over a pass.
UNITS = {
    **{f"{f}.self_s": "s" for f in _SELF},
    **{f"{f}.calls": "count" for f in _CALLS},
    "principal_eig.iterations": "count",
    "eigs_bisection.sturm_counts": "count",
    "step.cell_updates": "count",
    "step.ns_per_cell": "ns",
    "io.bytes_written": "bytes",
    **{f"cli.{k}.self_s": "s" for k in KINDS},
    "sweep.parallelism": "ratio",
    "lifespan.solves_per_job": "count",
    **{f"layer.{layer}.self_s": "s" for layer in ("cli", *LAYERS)},
    "trace.spans": "count",
    "trace.overhead_frac": "ratio",
}


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    job: int
    thread: int


class Tracer:
    """Span recorder.  Spans are recorded only inside `job()`; outside it
    the wrappers call straight through."""

    def __init__(self):
        self.spans = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._job = None
        self._patches = []

    def install(self):
        wrappers = {}
        for modname, module in list(sys.modules.items()):
            if modname.partition(".")[0] != "driftwell":
                continue
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn):
                    continue
                home, _, layer = fn.__module__.rpartition(".")
                if home != "driftwell" or layer not in LAYERS:
                    continue
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(fn, layer)
                self._patches.append((module, attr, fn))
                setattr(module, attr, wrappers[fn])

    def uninstall(self):
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def _next_id(self):
        with self._lock:
            return next(self._ids)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span):
        with self._lock:
            self.spans.append(span)

    def _wrap(self, fn, layer):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            job = self._job
            if job is None:
                return fn(*args, **kwargs)
            stack = self._stack()
            parent = stack[-1] if stack else job
            sid = self._next_id()
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._record(Span(sid, name, layer, start, end, parent, job,
                                  threading.get_ident()))
        return traced

    @contextmanager
    def job(self, kind):
        """Root span of one job; its id is the job id."""
        root = self._next_id()
        stack = self._stack()
        stack.append(root)
        self._job = root
        start = time.perf_counter()
        try:
            yield root
        finally:
            end = time.perf_counter()
            self._job = None
            stack.pop()
            self._record(Span(root, f"cli.{kind}", "cli", start, end, None,
                              root, threading.get_ident()))

    def dump(self):
        return [asdict(s) for s in self.spans]


def self_times(spans):
    """Span id -> self time: each instant is credited to the innermost open
    spans, split evenly when several threads have one open.  On a single
    thread this is the span's duration minus the part its children cover;
    with the sweep's worker threads it shares the wall time among them, so
    the self times of a job always add up to its wall time."""
    events = sorted([(s.end, 0, -s.id, s) for s in spans]
                    + [(s.start, 1, s.id, s) for s in spans],
                    key=lambda e: e[:3])
    out = dict.fromkeys((s.id for s in spans), 0.0)
    open_children = defaultdict(int)
    innermost = set()
    last = None
    for t, is_start, _, s in events:
        if innermost:
            share = (t - last) / len(innermost)
            for sid in innermost:
                out[sid] += share
        last = t
        if is_start:
            innermost.add(s.id)
            if s.parent is not None:
                open_children[s.parent] += 1
                innermost.discard(s.parent)
        else:
            innermost.discard(s.id)
            if s.parent is not None:
                open_children[s.parent] -= 1
                if open_children[s.parent] == 0:  # a parent outlives its children
                    innermost.add(s.parent)
    return out


def pass_metrics(spans, jobs):
    """Per-layer metrics of one pass.  `jobs` maps job id -> (kind, cells,
    bytes written) for the jobs of the pass; `spans` are their spans.
    trace.overhead_frac is left at 0: it compares whole passes."""
    m = dict.fromkeys(UNITS, 0.0)
    selfs = self_times(spans)
    by_id = {s.id: s for s in spans}
    child_time = defaultdict(float)
    cells = 0
    for s in spans:
        m[f"layer.{s.layer}.self_s"] += selfs[s.id]
        if f"{s.name}.self_s" in m:
            m[f"{s.name}.self_s"] += selfs[s.id]
        if f"{s.name}.calls" in m:
            m[f"{s.name}.calls"] += 1
        if s.parent is None:
            continue
        child_time[s.parent] += s.end - s.start
        parent = by_id[s.parent].name
        if s.name == "rayleigh_quotient" and parent == "principal_eig":
            m["principal_eig.iterations"] += 1
        elif s.name == "count_below" and parent == "eigs_bisection":
            m["eigs_bisection.sturm_counts"] += 1
        elif s.name == "step":
            cells += jobs[s.job][1]
        if s.name == "principal_eig" and jobs[s.job][0] == "lifespan":
            m["lifespan.solves_per_job"] += 1
    sweeps = [s for s in spans if s.name == "cli.sweep"]
    if sweeps:
        m["sweep.parallelism"] = (sum(child_time[s.id] for s in sweeps)
                                  / sum(s.end - s.start for s in sweeps))
    lifespans = sum(1 for kind, _, _ in jobs.values() if kind == "lifespan")
    if lifespans:
        m["lifespan.solves_per_job"] /= lifespans
    m["step.cell_updates"] = cells
    if cells:
        m["step.ns_per_cell"] = 1e9 * m["step.self_s"] / cells
    m["io.bytes_written"] = sum(b for _, _, b in jobs.values())
    m["trace.spans"] = len(spans)
    return m
