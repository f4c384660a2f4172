"""driftwell benchmark: per-job latency of CLI subcommands on three
single-client, closed-loop workloads, with output checks, and a traced run
that breaks the jobs down by module.

    python3 benchmark/run.py --workload pencil1d --seed 0 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all

Run from any directory; the program is imported from `src/` of the checkout
holding this file.  The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones, with --trace 1 the per-layer ones.  Job outputs,
`result.json` (environment, seed, per-job latencies) and, when traced,
`spans.json` go to `.bench_out/<workload>/`.  The exit code is 1 when any
job or output check fails, 2 when the sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("pencil1d", "wells2d", "evolve2d")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "driftwell" / "__init__.py").is_file():
        print(f"benchmark: no driftwell sources at {SRC}", file=sys.stderr)
        return 2
    # before numpy loads: one BLAS/OpenMP thread, so the only concurrency
    # is the program's own
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import driftwell
    if Path(driftwell.__file__).resolve().parent != SRC / "driftwell":
        print(f"benchmark: imported driftwell from {driftwell.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    import harness

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        summary, lines = harness.measure(name, args.seed, args.seconds,
                                         bool(args.trace),
                                         harness.OUT / name)
        print("\n".join(lines), flush=True)
        combined["correct"] &= summary["correct"]
        combined["attempted"] += summary["attempted"]
        combined["failed"] += summary["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        combined["metrics"].update(
            {prefix + k: v for k, v in summary["metrics"].items()})
    print(json.dumps(combined), flush=True)
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
