"""Command-line front end: eigensolves, asymptotics, bounds, wells, decay
sweeps, 2D parabolic runs, and colony lifespans, emitted as CSV/JSON.

Config handling: a flat key = value text file (lists comma-separated, '#'
comments) selected with --config; command-line flags override file values;
unknown keys are rejected.  Exit codes: 0 success, 2 configuration error,
3 numerical failure.  Errors are mirrored as JSON on stderr.  Output files
are byte-identical across reruns except for the timestamp header line and
eigen.json's runtime_s, the wall time of the eigensolve (the one timing
field in any output).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import asymptotics, bounds, pde2d
from .eigensolve1d import (RELIABLE_SPREAD, ConvergenceError,
                           OverflowGuardError, adjoint_eigenfunction,
                           assemble_pencil, eigs_bisection, principal_eig)
from .grids import Grid1D, Grid2D
from .io import write_csv, write_json
from .potential import (CatalogError, build_field_2d, build_potential_1d,
                        check_well_ordering, detect_wells, liouville_q,
                        potential_from_samples)


class ConfigError(ValueError):
    pass


def _float_list(text):
    return [float(tok) for tok in str(text).replace(";", ",").split(",") if tok.strip()]


def _line_spec(text):
    vals = _float_list(text)
    if len(vals) != 4:
        raise ConfigError(f"line needs 4 numbers x0,y0,x1,y1, got {text!r}")
    return ((vals[0], vals[1]), (vals[2], vals[3]))


SCHEMA = {
    "potential": str, "alpha": float, "l": float, "c": float,
    "field": str, "radius": float, "strength": float, "cx": float, "cy": float,
    "n": int, "nx": int, "ny": int,
    "p": float, "p_list": _float_list, "m": int,
    "tau": float, "t_end": float, "rtol": float, "tol": float,
    "beta": float, "omega": float,
    "window_start": float, "window_end": float,
    "line": _line_spec, "snapshot_every": float,
    "out": str, "seed": int,
}

DEFAULTS = {
    "potential": "power", "alpha": 2.0, "l": 1.0, "c": 1.0,
    "field": "vortex", "radius": 0.5, "strength": 1.0, "cx": 1.0, "cy": 0.0,
    "n": 4001, "nx": 99, "ny": 99,
    "p": 10.0, "m": 1,
    "tau": 5e-4, "t_end": 1.0, "rtol": 1e-10,
    "out": "out", "seed": 0,
}

# two-colony preset: disjoint radial bumps of strengths 1 and 2
# entries are (center, radius, strength)
TWO_BUMP = [((0.5, 0.4), 0.4, 1.0), ((-2.0 / 3.0, -0.3), 0.25, 2.0)]


def load_config(path) -> dict:
    cfg = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            cfg[key] = SCHEMA[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return cfg


def resolve_config(args) -> dict:
    cfg = dict(DEFAULTS)
    provided = set()
    if getattr(args, "config", None):
        file_cfg = load_config(args.config)
        cfg.update(file_cfg)
        provided.update(file_cfg)
    for key in SCHEMA:
        flag = getattr(args, key, None)
        if flag is not None:
            cfg[key] = flag
            provided.add(key)
    if not 0.0 < cfg["rtol"] < np.inf:
        raise ConfigError(f"rtol must satisfy 0 < rtol < inf, got {cfg['rtol']!r}")
    for p in [cfg["p"], *(cfg.get("p_list") or [])]:
        if not math.isfinite(p):
            raise ConfigError(f"p must be finite, got {p!r}")
    cfg["_provided"] = provided
    return cfg


@contextmanager
def _as_config_error():
    """Report a ValueError from a grid or catalog builder (a bad size or
    length, a non-finite sample) as a ConfigError; CatalogError keeps its
    own kind."""
    try:
        yield
    except (CatalogError, ConfigError):
        raise
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def make_potential(cfg):
    kind = cfg["potential"]
    with _as_config_error():
        grid = Grid1D(cfg["l"], cfg["n"])
        if kind == "power":
            return build_potential_1d("power", grid, alpha=cfg["alpha"])
        if kind == "constant":
            return build_potential_1d("constant", grid, c=cfg["c"])
        if kind in ("sine", "quartic"):
            return build_potential_1d(kind, grid)
    raise ConfigError(f"unknown potential {kind!r} (power, sine, quartic, constant)")


def closed_form_kind(cfg):
    kind = cfg["potential"]
    if kind == "power":
        return "power", {"alpha": cfg["alpha"], "l": cfg["l"]}
    if kind in ("sine", "quartic"):
        return kind, {"l": cfg["l"]}
    return None, None


def make_field(cfg):
    kind = cfg["field"]
    with _as_config_error():
        grid = Grid2D(cfg["l"], cfg["l"], cfg["nx"], cfg["ny"])
        if kind == "vortex":
            return build_field_2d("bump", grid, radius=cfg["radius"],
                                  strength=cfg["strength"])
        if kind == "two-bump":
            return build_field_2d("bumps", grid, bumps=TWO_BUMP)
        if kind == "constant":
            return build_field_2d("constant", grid, c=(cfg["cx"], cfg["cy"]))
        if kind == "separable":
            pk = cfg["potential"]
            axis = (pk, {"alpha": cfg["alpha"]} if pk == "power"
                    else ({"c": cfg["c"]} if pk == "constant" else {}))
            return build_field_2d("separable", grid, x=axis, y=axis)
    raise ConfigError(f"unknown field {kind!r} (vortex, two-bump, constant, separable)")


def _lattice_blocks(xs, ys, *fields):
    """CSV column blocks of the rows (x_i, y_j, f[i, j], ...), i outer: one
    block per lattice line x = x_i.  The coordinates are formatted once,
    each field line is converted to Python floats as its block is made."""
    y_text = list(map(repr, ys.tolist()))
    for x_text, *lines in zip(map(repr, xs.tolist()), *fields):
        yield [[x_text] * len(y_text), y_text, *(f.tolist() for f in lines)]


def _p_values(cfg) -> list[float]:
    return list(cfg.get("p_list") or [cfg["p"]])


def _solver_pair(pot, p, rtol):
    """Solver eigenpair for derived pipelines (sweep, bounds, lifespan):
    None beyond the relative-accuracy window, where the asymptotic value is
    the trustworthy one.  The window is narrower than the pencil's overflow
    guard, so assembly cannot raise here."""
    if p * (float(pot.b.max()) - float(pot.b.min())) > RELIABLE_SPREAD:
        return None
    return principal_eig(assemble_pencil(pot, p), rtol=rtol)


# --------------------------------------------------------------------------
# subcommands
# --------------------------------------------------------------------------

def cmd_eig1d(cfg) -> int:
    m, n = cfg["m"], cfg["n"]
    if not 1 <= m <= n:
        raise ConfigError(f"eig1d needs 1 <= m <= n, got m={m!r}, n={n!r}")
    out = Path(cfg["out"])
    pot = make_potential(cfg)
    p = cfg["p"]
    t0 = time.perf_counter()
    pencil = assemble_pencil(pot, p)
    if cfg["m"] > 1:
        pairs = eigs_bisection(pencil, cfg["m"], rtol=cfg["rtol"])
    else:
        pairs = [principal_eig(pencil, rtol=cfg["rtol"])]
    runtime = time.perf_counter() - t0
    v1 = adjoint_eigenfunction(pairs[0], pot, p)
    write_json(out / "eigen.json", {
        "p": p, "n": cfg["n"], "rtol": cfg["rtol"], "runtime_s": runtime,
        "scale_log": pencil.scale_log,
        "eigenvalues": [{"index": pr.index, "lambda": pr.value,
                         "residual": pr.residual} for pr in pairs],
        "lambda": pairs[0].value, "residual": pairs[0].residual,
    })
    xs = pot.grid.nodes()
    write_csv(out / "eigenfunction.csv", ["x", "u1", "v1"],
              [[xs.tolist(), pairs[0].u.tolist(), v1.tolist()]],
              meta={"p": p, "potential": cfg["potential"]})
    return 0


def cmd_asym(cfg) -> int:
    out = Path(cfg["out"])
    pot = make_potential(cfg)
    ckind, cparams = closed_form_kind(cfg)
    rows = []
    for p in _p_values(cfg):
        prod = asymptotics.product_formula(pot, p)
        if ckind is not None:
            closed = asymptotics.closed_form(ckind, p, **cparams)
            ratio = float(np.exp(prod.log_lambda - closed.log_lambda))
            rows.append((p, prod.log_lambda, closed.log_lambda, ratio))
        else:
            rows.append((p, prod.log_lambda, float("nan"), float("nan")))
    write_csv(out / "asym.csv",
              ["p", "log_lambda_product", "log_lambda_closed", "ratio"],
              [list(zip(*rows))],
              meta={"potential": cfg["potential"], "l": cfg["l"]})
    return 0


def cmd_bounds(cfg) -> int:
    out = Path(cfg["out"])
    pot = make_potential(cfg)
    report = detect_wells(pot, tol=cfg.get("tol"))
    rows = []
    for p in _p_values(cfg):
        env = bounds.p2_envelope(pot, p)
        if report.deepest is not None:
            wb = bounds.well_upper_bound(pot, report.wells[report.deepest], p,
                                         beta=cfg.get("beta"), omega=cfg.get("omega"))
            log_exp, log_quot = wb.log_upper_explicit, wb.log_upper_quotient
            log_up = min(log_exp, log_quot, env.log_upper)
        else:
            log_exp = log_quot = float("nan")
            log_up = env.log_upper
        pair = _solver_pair(pot, p, cfg["rtol"])
        rows.append((p, log_exp, log_quot, env.lower,
                     pair.value if pair is not None else float("nan"), log_up))
    write_csv(out / "bounds.csv",
              ["p", "log_upper_explicitC", "log_upper_quotient", "lower",
               "lambda_solver", "log_upper_combined"],
              [list(zip(*rows))],
              meta={"potential": cfg["potential"], "l": cfg["l"]})
    return 0


def cmd_well(cfg) -> int:
    """Well detection for the configured 1D potential, or for the 2D field
    when --field was given explicitly."""
    out = Path(cfg["out"])
    two_d = "field" in cfg["_provided"]
    pot = make_field(cfg) if two_d else make_potential(cfg)
    report = detect_wells(pot, tol=cfg.get("tol"))
    payload = {
        "tol": report.tol,
        "b0": report.max_depth,
        "wells": [{
            "min_value": w.min_value, "barrier_value": w.barrier_value,
            "depth": w.depth, "min_nodes": list(w.min_nodes),
            "region_nodes": int(np.count_nonzero(w.region)),
        } for w in report.wells],
    }
    if not two_d:
        payload["ordering_check"] = check_well_ordering(pot).passed
    write_json(out / "well.json", payload)
    q = liouville_q(pot, cfg["p"])
    if two_d:
        grid = pot.grid
        blocks = _lattice_blocks(grid.lattice_x(), grid.lattice_y(), pot.b, q)
        write_csv(out / "potential.csv", ["x", "y", "b", "q"], blocks,
                  meta={"p": cfg["p"], "field": cfg["field"]})
    else:
        write_csv(out / "potential.csv", ["x", "b", "a", "q"],
                  [[pot.grid.nodes().tolist(), pot.b[1:-1].tolist(),
                    pot.a.tolist(), q.tolist()]],
                  meta={"p": cfg["p"], "potential": cfg["potential"]})
    return 0


def fit_decay_exponent(ps, neg_log_lams):
    """Exponent of exp(-b0 p) decay: coefficient of p in the regression
    -log lambda ~ b0 p + c log p + d.  The log p regressor absorbs the
    polynomial prefactor that otherwise biases the slope at moderate p.
    Returns (b0, confidence half-width)."""
    ps = np.asarray(ps, dtype=float)
    y = np.asarray(neg_log_lams, dtype=float)
    X = np.column_stack([ps, np.log(ps), np.ones_like(ps)])
    coef, res, *_ = np.linalg.lstsq(X, y, rcond=None)
    dof = max(len(ps) - 3, 1)
    sigma2 = float(res[0]) / dof if len(res) else float(np.sum((y - X @ coef) ** 2)) / dof
    cov = sigma2 * np.linalg.inv(X.T @ X)
    return float(coef[0]), 2.0 * float(np.sqrt(cov[0, 0]))


def cmd_sweep(cfg) -> int:
    out = Path(cfg["out"])
    pot = make_potential(cfg)
    ps = sorted(_p_values(cfg))
    if len(ps) < 3:
        raise ConfigError("sweep needs at least 3 values of p")
    report = detect_wells(pot, tol=cfg.get("tol"))
    deepest = report.wells[report.deepest] if report.deepest is not None else None

    rows, fit_ps, fit_y = [], [], []
    for p in ps:
        pair = _solver_pair(pot, p, cfg["rtol"])
        lam = pair.value if pair is not None else float("nan")
        prod = asymptotics.product_formula(pot, p)
        env = bounds.p2_envelope(pot, p)
        log_up = env.log_upper
        if deepest is not None and p > 0:
            wb = bounds.well_upper_bound(pot, deepest, p)
            log_up = min(log_up, wb.log_upper_quotient)
        log_lam = np.log(lam) if lam > 0 else prod.log_lambda
        rate = -log_lam / p if p > 0 else float("nan")
        rows.append((p, lam, prod.log_lambda, log_up, env.lower, rate,
                     "solver" if pair is not None else "asymptotics"))
        if p > 0:
            fit_ps.append(p)
            fit_y.append(-log_lam)

    write_csv(out / "sweep.csv",
              ["p", "lambda_solver", "log_lambda_asym", "log_upper", "lower",
               "rate_running", "source"],
              [list(zip(*rows))],
              meta={"potential": cfg["potential"], "l": cfg["l"]})

    fitted_b0, half_width = fit_decay_exponent(fit_ps, fit_y)
    b0_detected = report.max_depth
    decays = fitted_b0 > 0
    write_json(out / "fit.json", {
        "fitted_b0": fitted_b0 if decays else None,
        "fitted_b0_raw": fitted_b0,
        "confidence_half_width": half_width,
        "b0_detected": b0_detected,
        "abs_diff": abs(fitted_b0 - b0_detected) if decays else None,
        "decay": decays,
        "n_rows": len(rows),
    })
    return 0


def cmd_evolve2d(cfg) -> int:
    out = Path(cfg["out"])
    snap = cfg.get("snapshot_every")
    if not (cfg["tau"] > 0 and cfg["t_end"] > 0 and (snap or 0.0) >= 0):
        raise ConfigError(f"evolve2d needs tau > 0, t_end > 0 and "
                          f"snapshot_every >= 0, got tau={cfg['tau']!r}, "
                          f"t_end={cfg['t_end']!r}, snapshot_every={snap!r}")
    field = make_field(cfg)
    p = cfg["p"]
    window = ((cfg["window_start"], cfg["window_end"])
              if cfg.get("window_start") is not None
              and cfg.get("window_end") is not None
              else (0.6 * cfg["t_end"], cfg["t_end"]))
    state, samples, _, snaps = pde2d.evolve(
        field, p, None, cfg["t_end"], cfg["tau"],
        snapshot_every=snap)
    try:
        fit = pde2d.fit_decay(samples, window)
    except ValueError as exc:   # too few steps in the window, or no finite rate
        raise ConfigError(str(exc)) from exc
    grid = field.grid
    xs, ys = grid.nodes_x(), grid.nodes_y()
    for k, (t, log_amp, u) in enumerate(snaps):
        write_csv(out / f"snapshot_{k:04d}.csv", ["x1", "x2", "u"],
                  _lattice_blocks(xs, ys, u),
                  meta={"t": t, "log_amplitude": log_amp, "p": p})
    prof = pde2d.extract_profile(state, line=cfg.get("line"))
    write_json(out / "fit.json", {
        "p": p, "tau": cfg["tau"], "t_end": cfg["t_end"],
        "rate_l2": fit.rate_l2, "rate_max": fit.rate_max,
        "window": list(fit.window), "plateau": fit.plateau_flag,
        "nx": cfg["nx"], "ny": cfg["ny"],
    })
    write_csv(out / "norms.csv", ["t", "log_l2", "log_max"],
              [fit.samples.T.tolist()],
              meta={"p": p, "field": cfg["field"]})
    write_csv(out / "profile.csv", ["x1", "x2", "u"],
              _lattice_blocks(xs, ys, prof.profile),
              meta={"p": p, "field": cfg["field"], "t": state.t})
    write_csv(out / "section.csv", ["s", "u"],
              [[col.tolist() for col in prof.section_y0]],
              meta={"line": "x2=0"})
    if prof.section_line is not None:
        write_csv(out / "section_line.csv", ["s", "u"],
                  [[col.tolist() for col in prof.section_line]],
                  meta={"line": str(cfg.get("line"))})
    v = pde2d.adjoint_profile(state, field, p)
    write_csv(out / "adjoint_profile.csv", ["x1", "x2", "v"],
              _lattice_blocks(xs, ys, v),
              meta={"p": p, "field": cfg["field"], "t": state.t})
    return 0


def cmd_lifespan(cfg) -> int:
    out = Path(cfg["out"])
    pot = make_potential(cfg)
    p = cfg["p"]
    pair = _solver_pair(pot, p, cfg["rtol"])
    if pair is not None:
        log_lam = float(np.log(pair.value))
        source = "solver"
    else:
        log_lam = asymptotics.product_formula(pot, p).log_lambda
        source = "asymptotics"
    log_lifespan = -log_lam
    log_half = float(np.log(np.log(2.0))) - log_lam
    def safe_exp(x):
        return float(np.exp(x)) if -700.0 < x < 700.0 else None
    write_json(out / "lifespan.json", {
        "p": p, "source": source,
        "lambda": safe_exp(log_lam), "log_lambda": log_lam,
        "lifespan": safe_exp(log_lifespan), "log_lifespan": log_lifespan,
        "half_life": safe_exp(log_half), "log_half_life": log_half,
    })
    if pair is not None:
        v1 = adjoint_eigenfunction(pair, pot, p)
        write_csv(out / "colony.csv", ["x", "u1", "v1"],
                  [[pot.grid.nodes().tolist(), pair.u.tolist(), v1.tolist()]],
                  meta={"p": p})
    return 0


def cmd_selfcheck(cfg) -> int:
    rng = np.random.default_rng(cfg["seed"])
    failures = 0

    def check(name, ok):
        nonlocal failures
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        if not ok:
            failures += 1

    grid = Grid1D(1.0, 257)
    xs = grid.nodes_with_endpoints()
    coef = rng.standard_normal(4)
    b = sum(c * np.sin((k + 1) * np.pi * xs) for k, c in enumerate(coef))
    pot = potential_from_samples(grid, b)

    p1, p2 = 7.0, 3.0
    q_diff = liouville_q(pot, p1) - liouville_q(pot, p2)
    q_sum = liouville_q(pot, p1 + p2)
    check("q(p1)-q(p2) = ((p1-p2)/(p1+p2)) q(p1+p2)",
          bool(np.allclose(q_diff, (p1 - p2) / (p1 + p2) * q_sum,
                           rtol=1e-12, atol=1e-12)))

    w1 = detect_wells(pot)
    w2 = detect_wells(potential_from_samples(grid, b + 3.7))
    check("well depths invariant under b -> b + const",
          len(w1.wells) == len(w2.wells) and all(
              abs(a.depth - c.depth) < 1e-12 for a, c in zip(w1.wells, w2.wells)))

    w3 = detect_wells(potential_from_samples(grid, b[::-1].copy()))
    check("well depths invariant under mirror",
          sorted(round(w.depth, 12) for w in w1.wells)
          == sorted(round(w.depth, 12) for w in w3.wells))

    from scipy.linalg import eigh_tridiagonal
    ok = True
    n, h = 201, 2.0 / 202
    off = np.full(n - 1, -1.0 / h**2)
    for _ in range(20):
        qa = rng.uniform(-30, 30, size=n)
        qb = rng.uniform(-30, 30, size=n)
        la = eigh_tridiagonal(2.0 / h**2 + qa, off, select="i",
                              select_range=(0, 0), eigvals_only=True)[0]
        lb = eigh_tridiagonal(2.0 / h**2 + qb, off, select="i",
                              select_range=(0, 0), eigvals_only=True)[0]
        lo, hi = bounds.comparison_bounds(qa, qb, lb)
        ok &= lo - 1e-8 <= la <= hi + 1e-8
    check("comparison interval contains eigenvalue difference", bool(ok))

    pw = build_potential_1d("power", Grid1D(1.0, 801), alpha=2)
    v1 = asymptotics.product_formula(pw, 25.0).log_lambda
    shifted = potential_from_samples(pw.grid, pw.b + 5.0, pw.a)
    v2 = asymptotics.product_formula(shifted, 25.0).log_lambda
    check("product formula invariant under b -> b + const",
          abs(v1 - v2) < 1e-9)

    pen = assemble_pencil(pw, 10.0)
    lam_a = eigs_bisection(pen, 1)[0].value
    lam_b = eigs_bisection(pen.scaled(7.25), 1)[0].value
    check("bisection invariant under pencil scaling",
          abs(lam_a - lam_b) <= 1e-8 * lam_a)

    g2 = Grid2D(1.0, 1.0, 29, 29)
    fld = build_field_2d("bump", g2, radius=0.5)
    u0 = rng.uniform(0.0, 1.0, size=(29, 29))
    st = pde2d.State2D(grid=g2, u=u0, t=0.0, tau=1e-3)
    ok = True
    for _ in range(20):
        st = pde2d.step(st, fld, 15.0)
        ok &= bool(st.u.min() >= -1e-9 and st.u.max() <= u0.max() + 1e-9)
    check("discrete maximum principle on random data", ok)

    return 0 if failures == 0 else 3


COMMANDS = {
    "eig1d": cmd_eig1d,
    "asym": cmd_asym,
    "bounds": cmd_bounds,
    "well": cmd_well,
    "sweep": cmd_sweep,
    "evolve2d": cmd_evolve2d,
    "lifespan": cmd_lifespan,
    "selfcheck": cmd_selfcheck,
}


def build_parser() -> argparse.ArgumentParser:
    """One subparser per command, each with one flag per SCHEMA key."""
    help_text = {"potential": "1D catalog: power, sine, quartic, constant",
                 "field": "2D catalog: vortex, two-bump, constant, separable"}
    parser = argparse.ArgumentParser(
        prog="driftwell",
        description="Principal eigenvalues of -lap + p a.grad with gradient "
                    "drift: solver, bounds, asymptotics, and parabolic runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        for key, kind in SCHEMA.items():
            sp.add_argument("--" + key.replace("_", "-"), dest=key, type=kind,
                            default=None, help=help_text.get(key))
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        return COMMANDS[args.command](cfg)
    except (ConfigError, CatalogError) as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__,
                          "exit_code": 2}), file=sys.stderr)
        return 2
    except (OverflowGuardError, ConvergenceError, pde2d.SolverError,
            bounds.CollarError, np.linalg.LinAlgError) as exc:
        print(json.dumps({"error": str(exc), "kind": type(exc).__name__,
                          "exit_code": 3}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
