"""The benchmark's three workloads: the jobs of one pass and the checks on
their outputs.

A job is one `driftwell` CLI call, run in-process through
`driftwell.cli.main`; the two-bump well job also makes the library call a
user makes next (multiwell bounds on the detected wells).  The seed draws
only p values (once per run) and the job order (once per pass), so the work
in a pass is the same for every seed.

Every job has a check.  A check raises CheckFailed, or returns the job's
relative error against a known reference (None when it has no reference);
the largest one in a pass is the pass's `rel_err`.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import driftwell
import driftwell.cli as cli

WORKLOADS = ("pencil1d", "wells2d", "evolve2d")

# Grid sizes and run lengths.  "tiny" is for the smoke test and the untimed
# warm-up pass; its checks hold too.
SIZES = {
    "full": {"n": 4001, "well_grid": 199, "vortex_grid": 99,
             "constant_grid": 199, "vortex_t_end": 0.1,
             "constant_t_end": 0.2},
    "tiny": {"n": 801, "well_grid": 99, "vortex_grid": 49,
             "constant_grid": 49, "vortex_t_end": 0.02,
             "constant_t_end": 0.2},
}

# The three decay cases of the acceptance suite: CLI flags, half-length l and
# the library parameters of the same potential.
CASES_1D = {
    "power": (["--potential", "power", "--alpha", "2", "--l", "1"], 1.0,
              {"alpha": 2.0}),
    "sine": (["--potential", "sine", "--l", repr(1.5 * math.pi)],
             1.5 * math.pi, {}),
    "quartic": (["--potential", "quartic", "--l", "2"], 2.0, {}),
}

# Documented switch of sweep/bounds/lifespan from the solver to the
# asymptotic value (README, numerical design notes).
RELIABLE_SPREAD = 300.0
TAU = 5e-4

# what `rel_err` measures on each workload
REL_ERR = {"pencil1d": "b0_rel_err: fitted b0 against the well depth",
           "wells2d": "two-bump well depths against 2sR/pi",
           "evolve2d": "rate_rel_err: zero-drift rate against pi^2/2"}


class CheckFailed(Exception):
    pass


@dataclass
class Job:
    """One job of a pass.  `name` is unique in the pass and names the input;
    `kind` is the subcommand it measures; `grid` holds the interior nodes per
    axis."""

    name: str
    kind: str
    argv: list
    grid: tuple
    check: Callable
    after: Callable | None = None


@dataclass
class JobResult:
    job: Job
    out: Path
    rc: int | None
    wall: float
    extra: object = None
    error: str | None = None
    job_id: int | None = None  # root span id, when traced


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_rows(path):
    """Data rows of a driftwell CSV as dicts (comment lines skipped)."""
    lines = [ln for ln in Path(path).read_text().splitlines()
             if not ln.startswith("#")]
    return list(csv.DictReader(lines))


def read_json(path):
    return json.loads(Path(path).read_text())


def _p(rng, lo, hi):
    return round(rng.uniform(lo, hi), 2)


def _fmt(values):
    return ",".join(repr(float(v)) for v in values)


def plan(workload, rng, size="full"):
    """Jobs of one pass of `workload`, with p values drawn from `rng`."""
    sz = SIZES[size]
    if workload == "pencil1d":
        return _plan_pencil1d(rng, sz)
    if workload == "wells2d":
        return _plan_wells2d(rng, sz)
    if workload == "evolve2d":
        return _plan_evolve2d(rng, sz)
    raise ValueError(f"unknown workload {workload!r} ({', '.join(WORKLOADS)})")


# --------------------------------------------------------------------------
# pencil1d
# --------------------------------------------------------------------------

def _plan_pencil1d(rng, sz):
    n = sz["n"]
    jobs = []
    for case, (flags, l, params) in CASES_1D.items():
        pot = driftwell.build_potential_1d(case, driftwell.Grid1D(l, n), **params)
        spread = float(pot.b.max() - pot.b.min())
        p40, p30, p200 = _p(rng, 36, 44), _p(rng, 27, 33), _p(rng, 190, 210)
        grid = [10.0, 20.0, 30.0, p40, 50.0, 60.0]
        base = [*flags, "--n", str(n)]
        jobs += [
            Job(f"eig1d:{case}", "eig1d", ["eig1d", *base, "--p", repr(p40)],
                (n,), _check_eig1d(case, p40)),
            Job(f"eig1d_m3:{case}", "eig1d_m3",
                ["eig1d", *base, "--p", repr(p30), "--m", "3"], (n,),
                _check_eig1d_m3),
            Job(f"sweep:{case}", "sweep",
                ["sweep", *base, "--p-list", _fmt(grid + [p200])], (n,),
                _check_sweep(spread)),
            Job(f"bounds:{case}", "bounds",
                ["bounds", *base, "--p-list", _fmt(grid)], (n,), _check_bounds),
            Job(f"lifespan:{case}", "lifespan",
                ["lifespan", *base, "--p", repr(p40)], (n,),
                _check_lifespan(case, p40)),
        ]
    return jobs


def _sweep_lambda(results, case, p):
    rows = read_rows(results[f"sweep:{case}"].out / "sweep.csv")
    match = [r for r in rows if float(r["p"]) == p]
    expect(len(match) == 1, f"sweep:{case} has no row at p={p}")
    return float(match[0]["lambda_solver"])


def _agree(lam, ref, what):
    expect(abs(lam - ref) <= 1e-9 * abs(ref),
           f"{what} lambda {lam!r} differs from the sweep row {ref!r}")


def _check_eig1d(case, p):
    def check(res, results):
        lam = read_json(res.out / "eigen.json")["lambda"]
        _agree(lam, _sweep_lambda(results, case, p), "eig1d")
    return check


def _check_eig1d_m3(res, results):
    eig = read_json(res.out / "eigen.json")["eigenvalues"]
    values = [e["lambda"] for e in eig]
    expect(len(values) == 3, f"expected 3 eigenvalues, got {len(values)}")
    expect(all(a <= b for a, b in zip(values, values[1:])),
           f"eigenvalues not nondecreasing: {values}")
    worst = max(e["residual"] for e in eig)
    expect(worst <= 1e-8, f"residual {worst:.3e} above 1e-8")


def _check_sweep(spread):
    def check(res, results):
        fit = read_json(res.out / "fit.json")
        expect(fit["fitted_b0"] is not None, "sweep fitted no decay exponent")
        err = abs(fit["fitted_b0"] - fit["b0_detected"]) / fit["b0_detected"]
        expect(err <= 0.05, f"fitted b0 off the detected depth by {err:.2%}")
        for row in read_rows(res.out / "sweep.csv"):
            p = float(row["p"])
            want = "asymptotics" if p * spread > RELIABLE_SPREAD else "solver"
            expect(row["source"] == want,
                   f"row p={p} has source {row['source']}, expected {want}")
        return err
    return check


def _check_bounds(res, results):
    solver_rows = 0
    for row in read_rows(res.out / "bounds.csv"):
        lam = float(row["lambda_solver"])
        if math.isnan(lam):
            continue
        solver_rows += 1
        lower, upper = float(row["lower"]), math.exp(float(row["log_upper_combined"]))
        expect(lower <= lam <= upper,
               f"p={row['p']}: {lower!r} <= {lam!r} <= {upper!r} fails")
    expect(solver_rows > 0, "no solver rows to check")


def _check_lifespan(case, p):
    def check(res, results):
        life = read_json(res.out / "lifespan.json")
        expect(life["source"] == "solver", f"source is {life['source']}")
        _agree(life["lambda"], _sweep_lambda(results, case, p), "lifespan")
    return check


# --------------------------------------------------------------------------
# wells2d
# --------------------------------------------------------------------------

def _plan_wells2d(rng, sz):
    g = sz["well_grid"]
    ps = sorted(_p(rng, 20, 100) for _ in range(4))
    base = ["--nx", str(g), "--ny", str(g), "--tol", "0.05"]
    # depth of a radial bump of strength s and radius R: 2 s R / pi
    depths = sorted(2.0 * s * radius / math.pi for _, radius, s in cli.TWO_BUMP)
    return [
        Job("well:two-bump", "well2d", ["well", "--field", "two-bump", *base],
            (g, g), _check_two_bump(g, depths), after=_multiwell(g, ps)),
        Job("well:vortex", "well2d", ["well", "--field", "vortex", *base],
            (g, g), _check_vortex(g)),
    ]


def _multiwell(g, ps):
    """Library follow-up to the two-bump `well` job: detect the wells again
    and bound lambda_2 on them at each p."""
    def after():
        field = cli.make_field({"field": "two-bump", "l": 1.0, "nx": g, "ny": g})
        report = driftwell.detect_wells(field, tol=0.05)
        return report, [driftwell.multiwell_upper_bound(field, report.wells, p)
                        for p in ps]
    return after


def _check_potential_rows(res, g):
    rows = sum(1 for ln in (res.out / "potential.csv").read_text().splitlines()
               if not ln.startswith("#")) - 1
    expect(rows == (g + 2) ** 2, f"potential.csv has {rows} rows, not {(g + 2) ** 2}")


def _check_two_bump(g, depths):
    def check(res, results):
        wells = read_json(res.out / "well.json")["wells"]
        got = sorted(w["depth"] for w in wells)
        expect(len(got) == 2, f"expected 2 wells, found {len(got)}")
        err = max(abs(a - b) for a, b in zip(got, depths))
        expect(err <= 1e-3, f"well depths {got} off {depths} by {err:.3e}")
        _check_potential_rows(res, g)
        report, bounds = res.extra
        expect(len(report.wells) == 2,
               f"library detection found {len(report.wells)} wells, not 2")
        for mw in bounds:
            expect(mw.log_upper_quotient <= mw.log_upper_explicit,
                   f"p={mw.p}: quotient bound above the explicit bound")
        return max(abs(a - b) / b for a, b in zip(got, depths))
    return check


def _check_vortex(g):
    def check(res, results):
        wells = read_json(res.out / "well.json")["wells"]
        expect(len(wells) == 1, f"expected 1 well, found {len(wells)}")
        _check_potential_rows(res, g)
    return check


# --------------------------------------------------------------------------
# evolve2d
# --------------------------------------------------------------------------

def _plan_evolve2d(rng, sz):
    gv, gc = sz["vortex_grid"], sz["constant_grid"]
    tv, tc = sz["vortex_t_end"], sz["constant_t_end"]
    common = ["--tau", repr(TAU)]
    return [
        Job("evolve2d:vortex", "evolve2d",
            ["evolve2d", "--field", "vortex", "--p", repr(_p(rng, 38, 42)),
             "--nx", str(gv), "--ny", str(gv), "--t-end", repr(tv), *common],
            (gv, gv), _check_evolve(tv, None)),
        # zero drift: the Dirichlet Laplacian on (-1, 1)^2, rate pi^2 / 2
        Job("evolve2d:constant", "evolve2d",
            ["evolve2d", "--field", "constant", "--cx", "0", "--cy", "0",
             "--p", "0", "--nx", str(gc), "--ny", str(gc), "--t-end", repr(tc),
             *common],
            (gc, gc), _check_evolve(tc, math.pi ** 2 / 2)),
    ]


def _check_evolve(t_end, exact_rate):
    def check(res, results):
        u = [float(r["u"]) for r in read_rows(res.out / "profile.csv")]
        expect(min(u) >= 0.0 and max(u) <= 1.0,
               f"profile leaves [0, 1]: [{min(u)!r}, {max(u)!r}]")
        steps = round(t_end / TAU)
        rows = len(read_rows(res.out / "norms.csv"))
        expect(rows == steps, f"norms.csv has {rows} rows, not {steps}")
        if exact_rate is None:
            return None
        rate = read_json(res.out / "fit.json")["rate_l2"]
        err = abs(rate - exact_rate) / exact_rate
        expect(err <= 0.05, f"decay rate {rate!r} off pi^2/2 by {err:.2%}")
        return err
    return check
