"""Command-line front end: eigensolves, asymptotics, bounds, wells, decay
sweeps, 2D parabolic runs, and colony lifespans, emitted as CSV/JSON.

Keys: `COMMANDS` gives each subcommand the `SCHEMA` keys it reads, and only
those are its flags (`--key`, underscores as dashes) and its config-file
keys; a flag or file key the command would ignore exits 2, as an unknown
one does, and so does one that only another catalog entry, field kind or
`well` mode reads.  Config file: a flat key = value text file (lists
comma-separated, '#' comments) selected with --config; command-line flags
override file values.  Exit codes: 0 success, 2 configuration error,
3 numerical failure.  Errors, usage errors included, are mirrored as one
JSON line on stderr.  Output files are byte-identical across reruns except
for the timestamp header line and eigen.json's runtime_s, the wall time of
the eigensolve (the one timing field in any output).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from contextlib import contextmanager, suppress
from pathlib import Path

import numpy as np

from . import asymptotics, bounds, pde2d
from .eigensolve1d import (ConvergenceError, OverflowGuardError,
                           adjoint_eigenfunction, assemble_pencil,
                           eigs_bisection, principal_eig)
from .grids import Grid1D, Grid2D
from .io import write_csv, write_json
from .potential import (CATALOG_1D, CatalogError, build_field_2d,
                        build_potential_1d, check_well_ordering, detect_wells,
                        liouville_q)


class ConfigError(ValueError):
    pass


def _float_list(text):
    """The numbers of a comma-separated list; a list with none is refused,
    not read as unset."""
    vals = [float(tok) for tok in str(text).replace(";", ",").split(",")
            if tok.strip()]
    if not vals:
        raise ConfigError(f"expected at least one number, got {text!r}")
    return vals


def _line_spec(text):
    try:
        vals = _float_list(text)
    except ConfigError:
        vals = []
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
    "out": str,
}

DEFAULTS = {
    "potential": "power", "alpha": 2.0, "l": 1.0, "c": 1.0,
    "field": "vortex", "radius": 0.5, "strength": 1.0, "cx": 1.0, "cy": 0.0,
    "n": 4001, "nx": 99, "ny": 99,
    "p": 10.0, "m": 1,
    "tau": 5e-4, "t_end": 1.0, "rtol": 1e-10,
    "out": "out",
}

# two-colony preset: disjoint radial bumps of strengths 1 and 2
# entries are (center, radius, strength)
TWO_BUMP = [((0.5, 0.4), 0.4, 1.0), ((-2.0 / 3.0, -0.3), 0.25, 2.0)]


def load_config(path, command) -> dict:
    keys = COMMANDS[command][1]
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
        if key not in keys:
            raise ConfigError(f"{path}:{lineno}: {command} does not read key {key!r}")
        try:
            cfg[key] = SCHEMA[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {exc}") from exc
    return cfg


def resolve_config(args) -> dict:
    """The command's keys only: defaults, then the config file, then flags.
    Checked here, before any work: rtol, p, tol and beta where the command
    reads them, then that every number it reads is finite."""
    keys = COMMANDS[args.command][1]
    cfg = {key: value for key, value in DEFAULTS.items() if key in keys}
    provided = set()
    if args.config:
        file_cfg = load_config(args.config, args.command)
        cfg.update(file_cfg)
        provided.update(file_cfg)
    for key in keys:
        flag = getattr(args, key)
        if flag is not None:
            cfg[key] = flag
            provided.add(key)
    if "rtol" in cfg and not 0.0 < cfg["rtol"] < np.inf:
        raise ConfigError(f"rtol must satisfy 0 < rtol < inf, got {cfg['rtol']!r}")
    if "p" in cfg:
        for p in [cfg["p"], *(cfg.get("p_list") or [])]:
            if not 0.0 <= p < math.inf:
                raise ConfigError(f"p must be finite and nonnegative, got {p!r}")
    if "tol" in cfg and not 0.0 <= cfg["tol"] < math.inf:
        raise ConfigError(f"tol must be finite and nonnegative, got {cfg['tol']!r}")
    if cfg.get("beta") is not None and not 0.0 < cfg["beta"] < math.inf:
        raise ConfigError(f"beta must be finite and positive, got {cfg['beta']!r}")
    for key, value in cfg.items():   # floats, p_list and the line's numbers
        if SCHEMA[key] not in (str, int) and not np.all(np.isfinite(value)):
            raise ConfigError(f"{key} must be finite, got {value!r}")
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


def _refuse_unread(cfg, keys, reader):
    """ConfigError when a key among `keys`, which `reader` does not read, was
    given as a flag or in the config file."""
    given = ["--" + key.replace("_", "-") for key in keys
             if key in cfg.get("_provided", ())]
    if given:
        raise ConfigError(f"{reader} does not read {', '.join(given)}")


def _all_params(table):
    """Each key that an entry of `table` reads, once, in table order."""
    return tuple(dict.fromkeys(key for keys in table.values() for key in keys))


def _other_params(table, kind):
    """The keys that only the other entries of `table` read."""
    return [key for key in _all_params(table) if key not in table[kind]]


# parameters of each 1D catalog entry, read from the keys of the same name
_CATALOG_PARAMS = {kind: keys for kind, (_, keys) in CATALOG_1D.items()}


def _catalog_entry(cfg):
    """(kind, params) of the configured 1D catalog potential, each
    parameter its entry reads taken from the key of the same name."""
    kind = cfg["potential"]
    if kind not in _CATALOG_PARAMS:
        raise ConfigError(f"unknown potential {kind!r} ({', '.join(_CATALOG_PARAMS)})")
    _refuse_unread(cfg, _other_params(_CATALOG_PARAMS, kind), f"potential {kind!r}")
    return kind, {key: cfg[key] for key in _CATALOG_PARAMS[kind]}


# what make_potential reads
_POTENTIAL = ("potential", *_all_params(_CATALOG_PARAMS), "l", "n")


def make_potential(cfg):
    kind, params = _catalog_entry(cfg)
    with _as_config_error():
        return build_potential_1d(kind, Grid1D(cfg["l"], cfg["n"]), **params)


# the keys each field kind reads besides field, l, nx and ny: a separable
# field applies the 1D catalog entry per axis
_FIELD_PARAMS = {"vortex": ("radius", "strength"), "two-bump": (),
                 "constant": ("cx", "cy"),
                 "separable": ("potential", *_all_params(_CATALOG_PARAMS))}
# what make_field reads
_FIELD = ("field", *_all_params(_FIELD_PARAMS), "l", "nx", "ny")


def make_field(cfg):
    kind = cfg["field"]
    if kind not in _FIELD_PARAMS:
        raise ConfigError(f"unknown field {kind!r} ({', '.join(_FIELD_PARAMS)})")
    _refuse_unread(cfg, _other_params(_FIELD_PARAMS, kind), f"field {kind!r}")
    with _as_config_error():
        grid = Grid2D(cfg["l"], cfg["l"], cfg["nx"], cfg["ny"])
        if kind == "vortex":
            return build_field_2d("bump", grid, radius=cfg["radius"],
                                  strength=cfg["strength"])
        if kind == "two-bump":
            return build_field_2d("bumps", grid, bumps=TWO_BUMP)
        if kind == "constant":
            return build_field_2d("constant", grid, c=(cfg["cx"], cfg["cy"]))
        axis = _catalog_entry(cfg)   # separable
        return build_field_2d("separable", grid, x=axis, y=axis)


def _p_values(cfg) -> list[float]:
    return list(cfg.get("p_list") or [cfg["p"]])


def _solver_pair(pot, p, rtol):
    """Solver eigenpair for derived pipelines (sweep, bounds, lifespan):
    None past the relative-accuracy window, where assembly refuses and the
    asymptotic value is the trustworthy one."""
    try:
        pencil = assemble_pencil(pot, p)
    except OverflowGuardError:
        return None
    return principal_eig(pencil, rtol=rtol)


def _product_formula(pot, p):
    """asymptotics.product_formula, its refusal of a p too large to
    integrate reported as a ConfigError."""
    with _as_config_error():
        return asymptotics.product_formula(pot, p)


def _log_lambda(pot, p, pair, prod=None):
    """(log lambda, source) from a `_solver_pair` result: the solver's value
    when there is a pair, else the product formula's (`prod`, when the
    caller already holds it)."""
    if pair is not None:
        return float(np.log(pair.value)), "solver"
    if prod is None:
        prod = _product_formula(pot, p)
    return prod.log_lambda, "asymptotics"


def _write_eigenfunction(path, pot, pair, p, **meta):
    """The `x, u1, v1` table of a solver pair, v1 its adjoint
    eigenfunction."""
    write_csv(path, ["x", "u1", "v1"],
              [pot.grid.nodes(), pair.u, adjoint_eigenfunction(pair, pot, p)],
              meta={"p": p, **meta})


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
    write_json(out / "eigen.json", {
        "p": p, "n": cfg["n"], "rtol": cfg["rtol"], "runtime_s": runtime,
        "scale_log": pencil.scale_log,
        "eigenvalues": [{"index": pr.index, "lambda": pr.value,
                         "residual": pr.residual} for pr in pairs],
        "lambda": pairs[0].value, "residual": pairs[0].residual,
    })
    _write_eigenfunction(out / "eigenfunction.csv", pot, pairs[0], p,
                         potential=cfg["potential"])
    return 0


def cmd_asym(cfg) -> int:
    out = Path(cfg["out"])
    pot = make_potential(cfg)
    kind, params = _catalog_entry(cfg)
    rows = []
    for p in _p_values(cfg):
        prod = _product_formula(pot, p)
        log_closed = ratio = float("nan")
        # nan where asymptotics has no closed form: constant drift, or l
        # outside the sine or quartic form's domain
        if p > 0:
            with suppress(CatalogError):
                log_closed = asymptotics.closed_form(kind, p, l=cfg["l"],
                                                     **params).log_lambda
                ratio = float(np.exp(prod.log_lambda - log_closed))
        rows.append((p, prod.log_lambda, log_closed, ratio,
                     "true" if prod.reliable else "false"))
    write_csv(out / "asym.csv",
              ["p", "log_lambda_product", "log_lambda_closed", "ratio",
               "reliable"],
              list(zip(*rows)),
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
              list(zip(*rows)),
              meta={"potential": cfg["potential"], "l": cfg["l"]})
    return 0


def cmd_well(cfg) -> int:
    """Well detection for the configured 1D potential, or for the 2D field
    when --field was given explicitly."""
    out = Path(cfg["out"])
    two_d = "field" in cfg["_provided"]
    _refuse_unread(cfg, ("n",) if two_d else
                   [key for key in _FIELD if key not in _POTENTIAL],
                   f"well {'with' if two_d else 'without'} --field")
    pot = make_field(cfg) if two_d else make_potential(cfg)
    report = detect_wells(pot, tol=cfg.get("tol"))
    payload = {
        "tol": report.tol,
        "b0": report.max_depth,
        "wells": [{
            "min_value": w.min_value, "barrier_value": w.barrier_value,
            "depth": w.depth, "min_nodes": list(w.min_nodes),
            "region_nodes": int(np.count_nonzero(w.crop)),
        } for w in report.wells],
    }
    if not two_d:
        payload["ordering_check"] = check_well_ordering(pot).passed
    with _as_config_error():         # q overflows at huge p
        q = liouville_q(pot, cfg["p"])
    write_json(out / "well.json", payload)
    if two_d:
        grid = pot.grid
        write_csv(out / "potential.csv", ["x", "y", "b", "q"],
                  [grid.lattice_x()[:, None], grid.lattice_y()[None, :],
                   pot.b, q],
                  meta={"p": cfg["p"], "field": cfg["field"]})
    else:
        write_csv(out / "potential.csv", ["x", "b", "a", "q"],
                  [pot.grid.nodes(), pot.b[1:-1], pot.a, q],
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
    ps = sorted(_p_values(cfg))
    if len({p for p in ps if p > 0}) < 3:   # the fit has 3 coefficients
        raise ConfigError(f"sweep needs at least 3 distinct positive values "
                          f"of p, got {ps!r}")
    out = Path(cfg["out"])
    pot = make_potential(cfg)
    report = detect_wells(pot, tol=cfg.get("tol"))
    deepest = report.wells[report.deepest] if report.deepest is not None else None

    rows, fit_ps, fit_y = [], [], []
    for p in ps:
        pair = _solver_pair(pot, p, cfg["rtol"])
        prod = _product_formula(pot, p)
        log_lam, source = _log_lambda(pot, p, pair, prod)
        env = bounds.p2_envelope(pot, p)
        log_up = env.log_upper
        if deepest is not None and p > 0:
            wb = bounds.well_upper_bound(pot, deepest, p)
            log_up = min(log_up, wb.log_upper_quotient)
        rate = -log_lam / p if p > 0 else float("nan")
        rows.append((p, pair.value if pair is not None else float("nan"),
                     prod.log_lambda, log_up, env.lower, rate, source,
                     "true" if prod.reliable else "false"))
        if p > 0:
            fit_ps.append(p)
            fit_y.append(-log_lam)

    write_csv(out / "sweep.csv",
              ["p", "lambda_solver", "log_lambda_asym", "log_upper", "lower",
               "rate_running", "source", "reliable"],
              list(zip(*rows)),
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
    start, end = (f * cfg["t_end"] for f in pde2d.DEFAULT_WINDOW)
    window = (cfg.get("window_start", start), cfg.get("window_end", end))
    try:   # too many steps to record, too few in the window, no finite rate
        pde2d.select_window(pde2d.sample_times(cfg["t_end"], cfg["tau"]),
                            window)
        state, samples, _, snaps = pde2d.evolve(
            field, p, None, cfg["t_end"], cfg["tau"],
            snapshot_every=snap)
        fit = pde2d.fit_decay(samples, window)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    grid = field.grid
    lattice = [grid.nodes_x()[:, None], grid.nodes_y()[None, :]]
    for k, (t, log_amp, u) in enumerate(snaps):
        write_csv(out / f"snapshot_{k:04d}.csv", ["x1", "x2", "u"],
                  [*lattice, u],
                  meta={"t": t, "log_amplitude": log_amp, "p": p})
    prof = pde2d.extract_profile(state, line=cfg.get("line"))
    write_json(out / "fit.json", {
        "p": p, "tau": cfg["tau"], "t_end": cfg["t_end"],
        "rate_l2": fit.rate_l2, "rate_max": fit.rate_max,
        "window": list(window), "plateau": fit.plateau_flag,
        "nx": cfg["nx"], "ny": cfg["ny"],
    })
    write_csv(out / "norms.csv", ["t", "log_l2", "log_max"],
              samples.T,
              meta={"p": p, "field": cfg["field"]})
    write_csv(out / "profile.csv", ["x1", "x2", "u"],
              [*lattice, prof.profile],
              meta={"p": p, "field": cfg["field"], "t": state.t})
    write_csv(out / "section.csv", ["s", "u"],
              prof.section_y0,
              meta={"line": "x2=0"})
    if prof.section_line is not None:
        write_csv(out / "section_line.csv", ["s", "u"],
                  prof.section_line,
                  meta={"line": str(cfg.get("line"))})
    v = pde2d.adjoint_profile(state, field, p)
    write_csv(out / "adjoint_profile.csv", ["x1", "x2", "v"],
              [*lattice, v],
              meta={"p": p, "field": cfg["field"], "t": state.t})
    return 0


def cmd_lifespan(cfg) -> int:
    out = Path(cfg["out"])
    pot = make_potential(cfg)
    p = cfg["p"]
    pair = _solver_pair(pot, p, cfg["rtol"])
    log_lam, source = _log_lambda(pot, p, pair)
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
        _write_eigenfunction(out / "colony.csv", pot, pair, p)
    return 0


# each command and the SCHEMA keys it reads: its flags and config-file keys
COMMANDS = {
    "eig1d": (cmd_eig1d, _POTENTIAL + ("p", "m", "rtol", "out")),
    "asym": (cmd_asym, _POTENTIAL + ("p", "p_list", "out")),
    "bounds": (cmd_bounds, _POTENTIAL + ("p", "p_list", "tol", "beta", "omega",
                                         "rtol", "out")),
    "well": (cmd_well, _POTENTIAL + _FIELD + ("p", "tol", "out")),
    "sweep": (cmd_sweep, _POTENTIAL + ("p", "p_list", "tol", "rtol", "out")),
    "evolve2d": (cmd_evolve2d, _FIELD + ("p", "tau", "t_end", "window_start",
                                         "window_end", "line",
                                         "snapshot_every", "out")),
    "lifespan": (cmd_lifespan, _POTENTIAL + ("p", "rtol", "out")),
}


def _report(exc, exit_code):
    print(json.dumps({"error": str(exc), "kind": type(exc).__name__,
                      "exit_code": exit_code}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    """Reports a usage error, such as a flag the command does not read, as
    one JSON line on stderr before argparse's exit 2."""

    def error(self, message):
        _report(ConfigError(f"{self.prog}: {message}"), 2)
        self.exit(2)


def build_parser(command=None) -> argparse.ArgumentParser:
    """One subparser per command, with one flag per key the command reads;
    given a command, only that command's subparser."""
    help_text = {"potential": "1D catalog: " + ", ".join(CATALOG_1D),
                 "field": "2D catalog: " + ", ".join(_FIELD_PARAMS)}
    parser = _Parser(
        prog="driftwell",
        description="Principal eigenvalues of -lap + p a.grad with gradient "
                    "drift: solver, bounds, asymptotics, and parabolic runs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys) in COMMANDS.items():
        if command not in (None, name):
            continue
        sp = sub.add_parser(name)
        sp.add_argument("--config", type=str, default=None)
        for key, kind in SCHEMA.items():
            if key in keys:
                sp.add_argument("--" + key.replace("_", "-"), dest=key,
                                type=kind, default=None, help=help_text.get(key))
    return parser


def main(argv=None) -> int:
    # a parser for the named command alone parses its argv the same way at a
    # sixth of the build cost; help, a typo or no command get the full one
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        cfg = resolve_config(args)
        return COMMANDS[args.command][0](cfg)
    except (ConfigError, CatalogError) as exc:
        _report(exc, 2)
        return 2
    except (OverflowGuardError, ConvergenceError, pde2d.SolverError,
            bounds.CollarError, np.linalg.LinAlgError) as exc:
        _report(exc, 3)
        return 3


if __name__ == "__main__":
    sys.exit(main())
