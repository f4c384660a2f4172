"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  Criterion 10 has two
tests: the colony peak ratio, and the vortex flat top.  The flat top is
measured on a compact subset of the open well, as the limit theorem states
it; the boundary layer at the rim is checked against the radial oracle.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal
from scipy.special import erf

from driftwell import (Grid1D, Grid2D, adjoint_profile, assemble_pencil,
                       build_field_2d, build_potential_1d, closed_form,
                       comparison_bounds, detect_wells, estimate_decay,
                       extract_profile, laplace_integral, laplace_predict,
                       p2_envelope, principal_eig, product_formula,
                       well_upper_bound)
from driftwell.cli import fit_decay_exponent

DECAY_CASES = [
    ("power", {"alpha": 2.0}, 1.0, 0.5),
    ("sine", {}, 1.5 * np.pi, 2.0),
    ("quartic", {}, 2.0, 2.25),
]


def solver_lambda(kind, params, l, p, n=4001):
    pot = build_potential_1d(kind, Grid1D(l, n), **params)
    return principal_eig(assemble_pencil(pot, p)).value


def solver_lambda_extrapolated(kind, params, l, p, n=2001):
    """Richardson over (h, h/2) to cancel the leading h^2 error."""
    lam_h = solver_lambda(kind, params, l, p, n)
    lam_h2 = solver_lambda(kind, params, l, p, 2 * n + 1)
    return (4.0 * lam_h2 - lam_h) / 3.0


def report(k, detail):
    # surfaced in the run summary via the -rP report option (pyproject)
    print(f"CRITERION {k}: PASS - {detail}", flush=True)


def test_criterion_1_dirichlet_baseline(grid2d_acceptance):
    t0 = time.perf_counter()
    lam = solver_lambda("constant", {"c": 0.0}, 1.0, 0.0)
    t_1d = time.perf_counter() - t0
    exact = np.pi**2 / 4
    assert abs(lam - exact) / exact <= 1e-5
    assert t_1d < 30.0

    t0 = time.perf_counter()
    fld = build_field_2d("constant", grid2d_acceptance, c=(0.0, 0.0))
    fit, _ = estimate_decay(fld, 0.0, t_end=1.0, tau=5e-4)
    t_2d = time.perf_counter() - t0
    target = np.pi**2 / 2
    assert abs(fit.rate_l2 - target) / target <= 0.05
    assert t_2d < 120.0
    report(1, f"lambda_1d rel err {abs(lam - exact) / exact:.2e} ({t_1d:.1f}s); "
              f"2d rate rel err {abs(fit.rate_l2 - target) / target:.2%} ({t_2d:.0f}s)")


def test_criterion_2_constant_drift_shift():
    worst = 0.0
    for c in (0.5, 1.0, 2.0):
        lam0 = solver_lambda("constant", {"c": c}, 1.0, 0.0)
        for p in (5.0, 10.0):
            lam = solver_lambda("constant", {"c": c}, 1.0, p)
            shift = p * p * c * c / 4
            rel = abs(lam - lam0 - shift) / shift
            worst = max(worst, rel)
            assert rel <= 1e-4, (c, p, rel)
    report(2, f"worst relative shift error {worst:.2e} (tolerance 1e-4)")


def test_criterion_3_product_formula_convergence(pot_ax):
    devs = []
    for p in (20.0, 30.0, 40.0, 60.0):
        lam = solver_lambda_extrapolated("power", {"alpha": 2.0}, 1.0, p)
        log_z0 = -product_formula(pot_ax, p).log_lambda
        ratio = lam * math.exp(log_z0)
        devs.append(abs(ratio - 1.0))
        if p == 20.0:
            assert 0.8 <= ratio <= 1.25, ratio
    assert devs[0] > devs[1] > devs[2] > devs[3], devs
    report(3, "ratio at p=20 within [0.8, 1.25]; |ratio-1| = "
              + ", ".join(f"{d:.2e}" for d in devs) + " strictly decreasing")


def test_criterion_4_closed_form_catalog():
    cases = [("power", {"alpha": 1.0}, 1.0), ("power", {"alpha": 2.0}, 1.0),
             ("power", {"alpha": 3.0}, 1.0),
             ("sine", {}, np.pi / 2), ("sine", {}, np.pi),
             ("sine", {}, 1.5 * np.pi), ("quartic", {}, 2.0)]
    worst = 0.0
    for kind, params, l in cases:
        pot = build_potential_1d(kind, Grid1D(l, 4001), **params)
        prod = product_formula(pot, 100.0)
        cf = closed_form(kind, 100.0, l=l, **params)
        rel = abs(prod.log_lambda - cf.log_lambda) / abs(cf.log_lambda)
        worst = max(worst, rel)
        assert rel <= 0.03, (kind, params, l, rel)
        for p in (1e4, 1e6):
            assert np.isfinite(product_formula(pot, p).log_lambda)
            assert np.isfinite(closed_form(kind, p, l=l, **params).log_lambda)
    report(4, f"worst log-domain mismatch at p=100: {worst:.2%} "
              "(tolerance 3%); finite through p = 1e6")


def test_criterion_5_decay_exponent_recovery():
    t0 = time.perf_counter()
    details = []
    for kind, params, l, b0 in DECAY_CASES:
        pot = build_potential_1d(kind, Grid1D(l, 4001), **params)
        ps = [10.0, 20.0, 30.0, 40.0, 50.0, 60.0]
        y = [-math.log(principal_eig(assemble_pencil(pot, p)).value) for p in ps]
        fitted, _ = fit_decay_exponent(ps, y)
        detected = detect_wells(pot).max_depth
        assert abs(detected - b0) <= 0.05 * b0
        assert abs(fitted - detected) <= 0.05 * detected, (kind, fitted, detected)
        details.append(f"{kind}: fit {fitted:.4f} vs well {detected:.4f}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    report(5, "; ".join(details) + f" ({elapsed:.1f}s)")


def test_criterion_6_bounds_sandwich():
    checked = 0
    for kind, params, l, _ in DECAY_CASES:
        pot = build_potential_1d(kind, Grid1D(l, 4001), **params)
        rep = detect_wells(pot)
        well = rep.wells[rep.deepest]
        for p in (10.0, 20.0, 30.0, 40.0, 50.0, 60.0):
            lam = principal_eig(assemble_pencil(pot, p)).value
            env = p2_envelope(pot, p)
            wb = well_upper_bound(pot, well, p)
            assert wb.log_upper_quotient <= wb.log_upper_explicit + 1e-9
            upper_log = min(wb.log_upper_quotient, wb.log_upper_explicit,
                            env.log_upper)
            assert env.lower <= lam, (kind, p)
            assert math.log(lam) <= upper_log, (kind, p)
            checked += 1
    report(6, f"{checked} (potential, p) pairs: lower <= lambda <= "
              "min(explicit-C, quotient), quotient <= explicit-C")


def test_criterion_7_comparison_property_suite():
    rng = np.random.default_rng(2024)
    n = 201
    h = 2.0 / (n + 1)
    off = np.full(n - 1, -1.0 / h**2)

    def ground(q):
        return eigh_tridiagonal(2.0 / h**2 + q, off, select="i",
                                select_range=(0, 0), eigvals_only=True)[0]

    for _ in range(200):
        q1 = rng.uniform(-50.0, 50.0, size=n)
        q2 = rng.uniform(-50.0, 50.0, size=n)
        lam2 = ground(q2)
        lo, hi = comparison_bounds(q1, q2, lam2)
        lam1 = ground(q1)
        assert lo - 1e-8 <= lam1 <= hi + 1e-8
    report(7, "200 randomized (q, q~) pairs inside the comparison interval")


def test_criterion_8_laplace_integral_oracle():
    worst = 0.0
    prev_x = prev_x2 = np.inf
    for p in (1e2, 1e3, 1e4):
        got = laplace_integral(lambda x: x, 1.0, p, L=1.0)
        exact = math.log((1 - math.exp(-p)) / p)
        rel = abs(math.exp(got.log_value - exact) - 1.0)
        worst = max(worst, rel)
        assert rel <= 1e-8
        dev_x = abs(math.exp(got.log_value - laplace_predict(1.0, p)) - 1.0)
        assert dev_x <= prev_x + 1e-15
        prev_x = dev_x

        got2 = laplace_integral(lambda x: x * x, 2.0, p, L=1.0)
        exact2 = math.log(math.sqrt(math.pi) * erf(math.sqrt(p)) / (2 * math.sqrt(p)))
        rel2 = abs(math.exp(got2.log_value - exact2) - 1.0)
        worst = max(worst, rel2)
        assert rel2 <= 1e-8
        dev_x2 = abs(math.exp(got2.log_value - laplace_predict(2.0, p)) - 1.0)
        assert dev_x2 <= prev_x2 + 1e-15
        prev_x2 = dev_x2
    # the ratio reaches 1 to within the quadrature floor (~3e-11)
    assert prev_x < 1e-8 and prev_x2 < 1e-8
    report(8, f"closed-form agreement within {worst:.2e} (tolerance 1e-8); "
              f"ratio to the Gamma prediction reaches 1 (within {prev_x:.1e})")


def test_criterion_9_separability():
    t0 = time.perf_counter()
    lam_1d = solver_lambda("power", {"alpha": 2.0}, 1.0, 10.0)
    target = 2.0 * lam_1d
    rates = {}
    for nx, tau in ((99, 5e-4), (199, 2.5e-4)):
        grid = Grid2D(1.0, 1.0, nx, nx)
        fld = build_field_2d("separable", grid, x=("power", {"alpha": 2.0}),
                             y=("power", {"alpha": 2.0}))
        fit, _ = estimate_decay(fld, 10.0, t_end=1.0, tau=tau)
        rates[nx] = fit.rate_l2
    extrapolated = 2.0 * rates[199] - rates[99]   # first-order in (h, tau)
    rel = abs(extrapolated - target) / target
    assert rel <= 0.05, (extrapolated, target)
    report(9, f"extrapolated 2d rate {extrapolated:.5f} vs 2*lambda_1d "
              f"{target:.5f}: {rel:.2%} ({time.perf_counter() - t0:.0f}s)")


@pytest.fixture(scope="module")
def colony_runs(field_two_bump, vortex_run):
    """The p = 100 two-bump run and the shared p = 40 vortex run, both to
    t = 1 with tau = 5e-4, and their combined wall seconds."""
    state_v, _, elapsed_v = vortex_run
    t0 = time.perf_counter()
    _, state_b = estimate_decay(field_two_bump, 100.0, t_end=1.0, tau=5e-4)
    return state_b, state_v, time.perf_counter() - t0 + elapsed_v


def test_criterion_10_colony_peak_ratio(colony_runs, field_two_bump,
                                        grid2d_acceptance):
    state_b, _, elapsed = colony_runs
    v = adjoint_profile(state_b, field_two_bump, 100.0)
    g = grid2d_acceptance
    X, Y = np.meshgrid(g.nodes_x(), g.nodes_y(), indexing="ij")
    shallow = np.hypot(X - 0.5, Y - 0.4) <= 0.4
    deep = np.hypot(X + 2.0 / 3.0, Y + 0.3) <= 0.25
    ratio = v[shallow].max() / v[deep].max()
    assert 1.0 / (3 * 500) <= ratio <= 3.0 / 500, ratio
    assert elapsed < 900.0
    report(10, f"colony peak ratio 1/{1 / ratio:.0f} within a factor 3 of "
               f"1/500 (2d runs took {elapsed:.0f}s)")


def test_criterion_10_vortex_flat_top(colony_runs, grid2d_acceptance,
                                      field_vortex, radial_vortex_lambda):
    """The p = 40 vortex profile is flat on the well, away from its rim.

    The normalized principal eigenfunction tends to a constant uniformly on
    compact subsets of the basin (Devinatz & Friedman 1978), not up to its
    edge.  The well is the open disk r < R = 0.5; on the rim the drift
    sin(pi r/R) vanishes, so u drops across a boundary layer of width
    (p |b''(R)|)^(-1/2) = (2 pi p)^(-1/2) = 0.063.  The flat top is measured
    on the compact sublevel set {b <= b_min + 0.9 depth} of the detected
    well, i.e. r <= 0.398: the excluded rim is 0.102 wide, 1.6 layer widths.
    There the dip must be below 0.05 (radial oracle 0.030).

    Over the closed support r <= R the dip is the layer's, ~1.3/sqrt(p)
    (0.208 at p = 40 by the radial oracle), so it is checked against the
    oracle to within 0.03 rather than against 0.05.
    """
    _, state_v, _ = colony_runs
    prof = extract_profile(state_v).profile
    rep = detect_wells(field_vortex, tol=0.05)
    well = rep.wells[rep.deepest]
    core = well.region & (field_vortex.b <= well.min_value + 0.9 * well.depth)
    core = core[1:-1, 1:-1]          # well masks span the full lattice
    dip = prof[core].max() - prof[core].min()

    g = grid2d_acceptance
    X, Y = np.meshgrid(g.nodes_x(), g.nodes_y(), indexing="ij")
    support = np.hypot(X, Y) <= 0.5
    dip_support = prof[support].max() - prof[support].min()
    _, r, u_rad = radial_vortex_lambda(40.0)
    dip_oracle = 1.0 - u_rad[r <= 0.5].min()

    assert dip < 0.05, f"max-min on the 90% sublevel set is {dip:.3f}"
    assert dip_support == pytest.approx(dip_oracle, abs=0.03)
    report("10 (flat top)", f"dip {dip:.3f} < 0.05 on b <= 0.9 depth; "
                            f"closed-support dip {dip_support:.3f} vs radial "
                            f"oracle {dip_oracle:.3f} (tolerance 0.03)")
