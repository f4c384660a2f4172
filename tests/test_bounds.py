import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from driftwell import (CollarError, Grid1D, Grid2D, assemble_pencil,
                       build_field_2d, build_potential_1d, comparison_bounds,
                       detect_wells, eigs_bisection, liouville_q,
                       multiwell_upper_bound, no_decay_certificate,
                       p2_envelope, potential_from_samples, principal_eig,
                       sublevel_wells, well_upper_bound)
from driftwell import bounds
from driftwell.asymptotics import _logsumexp
from driftwell.bounds import WellUpperBound, _collar_hops
from driftwell.cli import TWO_BUMP
from driftwell.potential import _interior

from conftest import well_from_mask


class TestComparison:
    def test_constant_shift_collapses(self):
        q = np.linspace(-3, 5, 100)
        lo, hi = comparison_bounds(q + 2.5, q, 1.7)
        assert lo == pytest.approx(4.2)
        assert hi == pytest.approx(4.2)

    def test_ax_interval(self, pot_ax):
        # q(x, 10) = -5 + 25 x^2 against the zero potential; the sampled
        # maximum sits at the last interior node x = 1 - h
        q = liouville_q(pot_ax, 10.0)
        lo, hi = comparison_bounds(q, np.zeros_like(q), np.pi**2 / 4)
        assert lo == pytest.approx(np.pi**2 / 4 - 5.0, abs=1e-10)
        h = pot_ax.grid.h
        assert hi == pytest.approx(np.pi**2 / 4 - 5 + 25 * (1 - h) ** 2, abs=1e-10)
        assert hi == pytest.approx(np.pi**2 / 4 + 20.0, abs=60 * h)
        lam10 = principal_eig(assemble_pencil(pot_ax, 10.0)).value
        assert lo <= lam10 <= hi

    def test_grid_mismatch(self):
        with pytest.raises(ValueError):
            comparison_bounds(np.zeros(5), np.zeros(6), 0.0)

    def test_randomized_interval_property(self):
        # discrete eigenvalue differences of -u'' + q u obey the comparison
        # interval exactly (same Laplacian both sides)
        rng = np.random.default_rng(7)
        n = 201
        h = 2.0 / (n + 1)
        off = np.full(n - 1, -1.0 / h**2)
        for _ in range(40):
            qa = rng.uniform(-40, 40, size=n)
            qb = rng.uniform(-40, 40, size=n)
            la = eigh_tridiagonal(2.0 / h**2 + qa, off, select="i",
                                  select_range=(0, 0), eigvals_only=True)[0]
            lb = eigh_tridiagonal(2.0 / h**2 + qb, off, select="i",
                                  select_range=(0, 0), eigvals_only=True)[0]
            lo, hi = comparison_bounds(qa, qb, lb)
            assert lo - 1e-8 <= la <= hi + 1e-8


class TestEnvelope:
    def test_constant_field_exact(self):
        pot = build_potential_1d("constant", Grid1D(1.0, 1001), c=1.5)
        for p in (3.0, 12.0):
            rep = p2_envelope(pot, p)
            expect = np.pi**2 / 4 + p * p * 1.5**2 / 4
            assert rep.lower == pytest.approx(expect, rel=1e-12)
            assert math.exp(rep.log_upper) == pytest.approx(expect, rel=1e-12)

    def test_ax_envelope_values(self, pot_ax):
        p = 8.0
        rep = p2_envelope(pot_ax, p)
        assert rep.lower == pytest.approx(np.pi**2 / 4 - p / 2, rel=1e-9)
        assert math.exp(rep.log_upper) == pytest.approx(
            np.pi**2 / 4 - p / 2 + p * p / 4, rel=2e-3)

    def test_envelope_contains_solver(self, pot_ax):
        # sandwich holds with slack 3x the grid-convergence estimate (the
        # p = 0 interval is degenerate at the continuum eigenvalue)
        fine = build_potential_1d("power", Grid1D(1.0, 8003), alpha=2)
        for p in (0.0, 5.0, 15.0):
            lam = principal_eig(assemble_pencil(pot_ax, p)).value
            lam_fine = principal_eig(assemble_pencil(fine, p)).value
            slack = 3 * abs(lam - lam_fine)
            rep = p2_envelope(pot_ax, p)
            assert rep.lower - slack <= lam <= math.exp(rep.log_upper) + slack

    def test_vortex_lower_has_no_quadratic_growth(self):
        # inf |a| = 0 outside the support: the lower envelope is linear in p
        g2 = __import__("driftwell").Grid2D(1.0, 1.0, 49, 49)
        fld = build_field_2d("bump", g2, radius=0.5)
        r1 = p2_envelope(fld, 10.0)
        r2 = p2_envelope(fld, 20.0)
        lam0 = np.pi**2 / 2
        slope = (r2.lower - r1.lower) / 10.0
        assert (r1.lower - lam0) / 10.0 == pytest.approx(slope, rel=1e-9)


class TestNoDecay:
    def test_constant_field_certifies(self):
        pot = build_potential_1d("constant", Grid1D(1.0, 201), c=2.0)
        cert = no_decay_certificate(pot, 1.0)
        assert cert.holds
        assert cert.min_q == pytest.approx(1.0)
        assert "nondecreasing" in cert.message

    def test_ax_fails_at_origin(self, pot_ax):
        cert = no_decay_certificate(pot_ax, 6.0)
        assert not cert.holds
        assert cert.min_q == pytest.approx(-3.0, rel=1e-6)
        xs = pot_ax.grid.nodes()
        assert abs(xs[cert.witness]) < 1e-3

    def test_2d_witness_is_a_node_id(self, field_vortex):
        cert = no_decay_certificate(field_vortex, 40.0)
        assert not cert.holds
        q = liouville_q(field_vortex, 40.0)
        assert cert.witness == np.unravel_index(int(np.argmin(q)), q.shape)
        assert all(type(c) is int for c in cert.witness)
        assert f"at node {cert.witness}:" in cert.message

    def test_sign_drift_large_negative_divergence(self):
        # a = sign(x): the sampled divergence spikes at the origin cell
        pot = build_potential_1d("power", Grid1D(1.0, 201), alpha=1.0)
        cert = no_decay_certificate(pot, 5.0)
        assert not cert.holds
        assert cert.min_q < -100.0

    def test_consistency_with_wells(self):
        # certificate true implies no detected well
        pot = build_potential_1d("constant", Grid1D(1.0, 201), c=1.0)
        assert no_decay_certificate(pot, 2.0).holds
        assert detect_wells(pot).deepest is None

    def test_p0_positive_required(self, pot_ax):
        with pytest.raises(ValueError):
            no_decay_certificate(pot_ax, 0.0)


class TestWellUpper:
    def test_decay_rate_and_ordering(self, pot_ax):
        well = detect_wells(pot_ax).wells[0]
        logs_e, logs_q = [], []
        for p in (5.0, 15.0, 25.0, 40.0):
            wb = well_upper_bound(pot_ax, well, p, beta=0.05, omega=0.4)
            logs_e.append(wb.log_upper_explicit)
            logs_q.append(wb.log_upper_quotient)
            assert wb.log_upper_quotient <= wb.log_upper_explicit + 1e-9
            lam = principal_eig(assemble_pencil(pot_ax, p)).value
            assert math.log(lam) <= wb.log_upper_quotient + 1e-12
        # explicit bound decays exactly like e^{-0.4 p}
        slopes = np.diff(logs_e) / np.diff([5.0, 15.0, 25.0, 40.0])
        np.testing.assert_allclose(slopes, -0.4, rtol=1e-12)
        # the quotient bound decays at least that fast
        assert logs_q[-1] - logs_q[0] <= -0.4 * 35 + 1.0

    def test_p_zero_is_classical_rayleigh(self, pot_ax):
        well = detect_wells(pot_ax).wells[0]
        wb = well_upper_bound(pot_ax, well, 0.0)
        assert math.exp(wb.log_upper_quotient) >= np.pi**2 / 4

    def test_defaults_feasible_on_catalog(self, pot_sine_wide, pot_quartic):
        for pot in (pot_sine_wide, pot_quartic):
            well = detect_wells(pot).wells[0]
            wb = well_upper_bound(pot, well, 10.0)
            assert np.isfinite(wb.log_upper_quotient)
            assert wb.omega == pytest.approx(0.5 * well.depth)

    def test_infeasible_levels_rejected(self, pot_ax):
        well = detect_wells(pot_ax).wells[0]
        with pytest.raises(CollarError):
            well_upper_bound(pot_ax, well, 10.0, beta=0.2, omega=0.4)

    def test_exponent_up_to_well_depth(self, field_two_bump):
        # the deepest well supports any decay exponent below its depth
        report = detect_wells(field_two_bump, tol=0.05)
        deepest = report.wells[report.deepest]
        depth = deepest.depth        # ~ 0.318
        wb = well_upper_bound(field_two_bump, deepest, 50.0,
                              beta=0.04 * depth, omega=0.9 * depth)
        assert np.isfinite(wb.log_upper_explicit)
        with pytest.raises(CollarError):
            well_upper_bound(field_two_bump, deepest, 50.0,
                             beta=0.2 * depth, omega=0.9 * depth)


def bfs_hops(region):
    """Reference hop distance from the complement (multi-source BFS,
    2-neighbor in 1D, 4-neighbor in 2D).  Region nodes adjacent to the
    outside get 1; the array edge is not a source."""
    hops = np.zeros(region.shape, dtype=np.int64)
    reached = ~region
    k = 0
    while not reached.all():
        k += 1
        grown = reached.copy()
        if region.ndim == 1:
            grown[1:] |= reached[:-1]
            grown[:-1] |= reached[1:]
        else:
            grown[1:, :] |= reached[:-1, :]
            grown[:-1, :] |= reached[1:, :]
            grown[:, 1:] |= reached[:, :-1]
            grown[:, :-1] |= reached[:, 1:]
        newly = grown & region & ~reached
        if not newly.any():
            break
        hops[newly] = k
        reached |= newly
    return hops


class TestCollarHops:
    """The collar hops of the plateau test function against a BFS oracle."""

    def test_catalog_wells_1d(self, pot_ax, pot_sine_wide, pot_quartic):
        for pot in (pot_ax, pot_sine_wide, pot_quartic):
            wells = detect_wells(pot).wells
            assert wells
            for w in wells:
                np.testing.assert_array_equal(_collar_hops(w.region),
                                              bfs_hops(w.region))

    @pytest.mark.parametrize("n", [99, 199])
    def test_two_bump_and_vortex_wells(self, n):
        grid = Grid2D(1.0, 1.0, n, n)
        fields = [(build_field_2d("bumps", grid, bumps=TWO_BUMP), 2),
                  (build_field_2d("bump", grid, radius=0.5), 1)]
        for field, count in fields:
            wells = detect_wells(field, tol=0.05).wells
            assert len(wells) == count
            for w in wells:
                np.testing.assert_array_equal(_collar_hops(w.region),
                                              bfs_hops(w.region))

    @pytest.mark.parametrize("shape", [(401,), (37, 23)])
    def test_random_interior_regions(self, shape):
        rng = np.random.default_rng(3)
        for fill in (0.3, 0.6, 0.9):
            region = rng.random(shape) < fill
            for axis in range(region.ndim):
                np.moveaxis(region, axis, 0)[[0, -1]] = False
            np.testing.assert_array_equal(_collar_hops(region),
                                          bfs_hops(region))


class TestMultiwell:
    def test_single_well_reduces(self, pot_ax):
        well = detect_wells(pot_ax).wells[0]
        single = well_upper_bound(pot_ax, well, 12.0)
        multi = multiwell_upper_bound(pot_ax, [well], 12.0)
        assert multi.log_upper_quotient == pytest.approx(
            single.log_upper_quotient, abs=1e-12)

    def test_quartic_second_eigenvalue(self, pot_quartic):
        basins = sublevel_wells(pot_quartic, 0.2)
        assert len(basins) == 2
        mw = multiwell_upper_bound(pot_quartic, basins, 40.0)
        pairs = eigs_bisection(assemble_pencil(pot_quartic, 40.0), 2)
        assert math.log(pairs[1].value) <= mw.log_upper_quotient + 1e-9
        assert mw.omega_min_depth == pytest.approx(0.2, abs=1e-3)

    def test_two_bump_second_eigenvalue_exponent(self, field_two_bump):
        report = detect_wells(field_two_bump, tol=0.05)
        mw100 = multiwell_upper_bound(field_two_bump, list(report.wells), 100.0)
        mw50 = multiwell_upper_bound(field_two_bump, list(report.wells), 50.0)
        # decay exponent of the bound ~ omega = half the min depth (0.2546/2)
        slope = (mw100.log_upper_quotient - mw50.log_upper_quotient) / 50.0
        assert slope <= -0.5 * 0.2546 * 0.95

    def test_overlapping_regions_rejected(self, pot_quartic):
        report = detect_wells(pot_quartic)
        w = report.wells[0]
        with pytest.raises(CollarError, match="well region 1 overlaps"):
            multiwell_upper_bound(pot_quartic, [w, w], 10.0)
        # the two disjoint basins pass; the repeat of the first is named
        w0, w1 = sublevel_wells(pot_quartic, 0.2)
        multiwell_upper_bound(pot_quartic, [w0, w1], 10.0)
        with pytest.raises(CollarError, match="well region 2 overlaps"):
            multiwell_upper_bound(pot_quartic, [w0, w1, w0], 10.0)

    def test_empty_well_list_rejected(self, pot_quartic):
        # a level below min b has no sublevel component
        wells = sublevel_wells(pot_quartic, float(pot_quartic.b.min()) - 0.1)
        assert wells == []
        with pytest.raises(ValueError, match="empty well list"):
            multiwell_upper_bound(pot_quartic, wells, 10.0)


# --------------------------------------------------------------------------
# the lattice quotient against its former per-dimension copies
# --------------------------------------------------------------------------

def reference_log_quotient_1d(pot, p, u_hat):
    """log of the exp(-p b)-weighted Rayleigh quotient of nodal u_hat
    (length n+2, zero at both endpoints).  Uses the same midpoint-weight
    convention as the eigensolver pencil (test oracle)."""
    b = pot.b
    h = pot.grid.h
    bref = float(b.min())
    if pot.b_mid is not None:
        log_w = -p * (pot.b_mid - bref)
    else:
        log_w = -p * (0.5 * (b[:-1] + b[1:]) - bref)
    du = np.diff(u_hat)
    mask = du != 0.0
    log_num = _logsumexp(log_w[mask] + 2.0 * np.log(np.abs(du[mask]))) - np.log(h)
    un = u_hat[1:-1]
    nz = un != 0.0
    log_den = _logsumexp(-p * (b[1:-1][nz] - bref) + 2.0 * np.log(un[nz])) + np.log(h)
    return float(log_num - log_den)


def reference_log_quotient_2d(field, p, u_hat):
    """The same quotient on a 2D lattice (test oracle)."""
    b = field.b
    hx, hy = field.grid.hx, field.grid.hy
    bref = float(b.min())
    terms = []
    dux = np.diff(u_hat, axis=0)
    mx = dux != 0.0
    if mx.any():
        log_wx = -p * (0.5 * (b[:-1, :] + b[1:, :]) - bref)
        terms.append(_logsumexp(log_wx[mx] + 2.0 * np.log(np.abs(dux[mx])))
                     + np.log(hy / hx))
    duy = np.diff(u_hat, axis=1)
    my = duy != 0.0
    if my.any():
        log_wy = -p * (0.5 * (b[:, :-1] + b[:, 1:]) - bref)
        terms.append(_logsumexp(log_wy[my] + 2.0 * np.log(np.abs(duy[my])))
                     + np.log(hx / hy))
    log_num = _logsumexp(terms)
    nz = u_hat != 0.0
    log_den = _logsumexp(-p * (b[nz] - bref) + 2.0 * np.log(u_hat[nz])) + np.log(hx * hy)
    return float(log_num - log_den)


def quotient_pairs(pot, wells, ps, reference, beta=0.25):
    """(quotient, oracle) for every plateau function well_upper_bound forms
    on the given wells and drift strengths, with beta = beta * depth (0.25
    is the default) and the default omega and epsilon."""
    pairs = []
    real = bounds._log_quotient

    def spy(pot_, p, u_hat, box):
        value = real(pot_, p, u_hat, box)
        full = np.zeros(pot_.b.shape)
        full[box] = u_hat
        pairs.append((value, reference(pot_, p, full)))
        return value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bounds, "_log_quotient", spy)
        for well in wells:
            for p in ps:
                wb = well_upper_bound(pot, well, p, beta=beta * well.depth)
                assert wb.log_upper_quotient == pairs[-1][0]
    assert len(pairs) == len(wells) * len(ps)
    return pairs


QUOTIENT_PS_2D = [0.0, 10.0, 20.0, 40.0, 80.0, 160.0, 320.0]


class TestQuotientOracle:
    @pytest.mark.parametrize("name", ["pot_ax", "pot_sine_wide", "pot_quartic"])
    def test_catalog_wells_1d(self, request, name):
        pot = request.getfixturevalue(name)
        wells = detect_wells(pot).wells
        assert wells
        for value, ref in quotient_pairs(pot, wells, [10.0, 60.0, 200.0],
                                         reference_log_quotient_1d):
            assert value == ref

    def test_sampled_potential_1d(self):
        # no analytic midpoint channel: edges take the mean of the end values
        grid = Grid1D(1.0, 1001)
        xs = grid.nodes_with_endpoints()
        pot = potential_from_samples(grid, 0.5 * xs**2 - 0.2 * np.cos(9 * xs))
        assert pot.b_mid is None
        wells = detect_wells(pot).wells
        assert len(wells) >= 2
        for value, ref in quotient_pairs(pot, wells, [10.0, 60.0, 200.0],
                                         reference_log_quotient_1d):
            assert value == ref

    @pytest.mark.parametrize("n", [99, 199])
    def test_two_bump_and_vortex_2d(self, n):
        grid = Grid2D(1.0, 1.0, n, n)
        for field in (build_field_2d("bumps", grid, bumps=TWO_BUMP),
                      build_field_2d("bump", grid, radius=0.5)):
            wells = detect_wells(field, tol=0.05).wells
            for value, ref in quotient_pairs(field, wells, QUOTIENT_PS_2D,
                                             reference_log_quotient_2d):
                assert value == ref

    def test_rectangular_cells_within_4_ulps(self):
        # hx != hy: log(hy) - log(hx) rounds apart from log(hy / hx); the
        # default beta leaves no collar in the deeper two-bump well here
        grid = Grid2D(1.0, 1.0, 23, 17)
        assert grid.hx != grid.hy
        got, ref = [], []
        for field in (build_field_2d("bumps", grid, bumps=TWO_BUMP),
                      build_field_2d("bump", grid, radius=0.5)):
            wells = detect_wells(field).wells
            assert wells
            for value, oracle in quotient_pairs(field, wells, QUOTIENT_PS_2D,
                                                reference_log_quotient_2d,
                                                beta=0.1):
                got.append(value)
                ref.append(oracle)
        np.testing.assert_array_max_ulp(np.array(got), np.array(ref), maxulp=4)


# --------------------------------------------------------------------------
# the well bound on its box against the full-lattice computation
# --------------------------------------------------------------------------

def reference_log_quotient(pot, p, u_hat):
    """The plateau quotient with u_hat on the full lattice.  (The former
    `_log_quotient`, verbatim; test oracle for the box form.)"""
    log_mass, log_edge, _ = bounds.weighted_graph(pot, p)
    hs = pot.grid.spacing
    terms = []
    for k, (h, log_w) in enumerate(zip(hs, log_edge)):
        du = np.diff(u_hat, axis=k)
        mask = du != 0.0
        if not mask.any():
            continue
        terms.append(_logsumexp(log_w[mask] + 2.0 * np.log(np.abs(du[mask])))
                     + (np.log(np.prod(hs[:k] + hs[k + 1:])) - np.log(h)))
    nz = u_hat != 0.0
    log_den = (_logsumexp(log_mass[nz] + 2.0 * np.log(u_hat[nz]))
               + np.log(np.prod(hs)))
    return float(_logsumexp(terms) - log_den)


def reference_well_upper_bound(pot, well, p, *, beta=None, omega=None):
    """Both well bounds with every array on the full lattice.  (The former
    `well_upper_bound`, verbatim; test oracle for the box form.)"""
    depth = well.depth
    if beta is None:
        beta = 0.25 * depth
    if omega is None:
        omega = 0.5 * depth
    if not (0.0 < beta and beta + omega < depth):
        raise CollarError("infeasible beta, omega")
    threshold = well.min_value + beta + omega

    b = pot.b
    hs = pot.grid.spacing
    h_dist, cell_vol = min(hs), np.prod(hs)

    region = well.region
    hops = _collar_hops(region)
    violating = region & (b < threshold)
    if violating.any():
        k = int(hops[violating].min()) - 1
    else:
        k = int(hops[region].max())
    if k < 1:
        raise CollarError("no admissible collar")
    eps_len = k * h_dist

    u_hat = np.where(region, np.minimum(hops / k, 1.0), 0.0)

    sub_count = int(np.count_nonzero(region & (b <= well.min_value + beta)))
    collar_count = int(np.count_nonzero(region & (hops >= 1) & (hops <= k)))
    if sub_count == 0:
        raise CollarError("empty sublevel set")
    log_C = (-2.0 * np.log(eps_len)
             + np.log(collar_count * cell_vol)
             - np.log(sub_count * cell_vol))
    log_explicit = float(log_C - omega * p)

    return WellUpperBound(
        omega=omega, log_upper_explicit=log_explicit,
        log_upper_quotient=reference_log_quotient(pot, p, u_hat),
    )


def bound_bits(bound_fn, pot, well, p, **levels):
    """The bound's fields as float hex strings, or the collar error's
    type: a comparison that tells -0.0 from 0.0."""
    try:
        wb = bound_fn(pot, well, p, **levels)
    except CollarError:
        return "CollarError"
    return tuple(float(v).hex() for v in vars(wb).values())


BOX_PS = [0.0, 10.0, 47.3, 160.0]
BOX_LEVELS = [{}, {"beta": 0.05}, {"beta": 0.1, "omega": 0.8}]


def assert_box_matches(pot, wells, ps=BOX_PS, levels=BOX_LEVELS):
    """well_upper_bound equals the full-lattice oracle on every well, p and
    (beta, omega) given as fractions of the depth; returns how many bounds
    (not collar errors) were compared."""
    compared = 0
    for w in wells:
        for p in ps:
            for lev in levels:
                lev = {key: f * w.depth for key, f in lev.items()}
                got = bound_bits(well_upper_bound, pot, w, p, **lev)
                assert got == bound_bits(reference_well_upper_bound, pot, w,
                                         p, **lev)
                compared += got != "CollarError"
    return compared


class TestWellBoundBox:
    """well_upper_bound works on the well's box and a one-node rim; its
    results equal the full-lattice computation bit for bit."""

    @pytest.mark.parametrize("name", ["pot_ax", "pot_sine_wide", "pot_quartic"])
    def test_catalog_wells_1d(self, request, name):
        pot = request.getfixturevalue(name)
        wells = list(detect_wells(pot).wells)
        wells += sublevel_wells(pot, float(pot.b.min()) + 0.15)
        assert assert_box_matches(pot, wells) >= len(wells) * len(BOX_PS)

    @pytest.mark.parametrize("shape", [(99, 99), (199, 199), (23, 17)])
    def test_two_bump_and_vortex_2d(self, shape):
        grid = Grid2D(1.0, 1.0, *shape)
        for field, count in ((build_field_2d("bumps", grid, bumps=TWO_BUMP), 2),
                             (build_field_2d("bump", grid, radius=0.5), 1)):
            wells = detect_wells(field, tol=0.05).wells
            assert len(wells) == count
            assert assert_box_matches(field, wells) > 0

    def test_region_on_the_interior_rim_2d(self):
        # a bump clipped by the lower-left corner: its well runs along the
        # interior's first row and column, so the widened box reaches the
        # lattice edge there
        grid = Grid2D(1.0, 1.0, 39, 31)
        field = build_field_2d("bump", grid, center=(-0.6, -0.55), radius=0.5)
        plateau = 2.0 * 0.5 / np.pi
        region = (field.b < plateau) & _interior(field.b.shape)
        mn = float(field.b[region].min())
        well = well_from_mask(mn, plateau, plateau - mn,
                              (tuple(np.argwhere(field.b == mn)[0]),), region)
        assert well.box[0].start == 1 and well.box[1].start == 1
        assert well.box[0].stop < 40 and well.box[1].stop < 32
        assert assert_box_matches(field, [well]) > 0

    def test_region_on_the_boundary_rejected(self, pot_quartic):
        # the left well of the quartic with the boundary node x = -2 in its
        # region: the full-lattice form returned bounds for a plateau
        # function that is 1 on the Dirichlet boundary
        region = pot_quartic.grid.nodes_with_endpoints() < -0.5
        b = pot_quartic.b
        mn, barrier = float(b[region].min()), float(b[region.sum()])
        well = well_from_mask(mn, barrier, barrier - mn,
                              (int(np.argmin(np.where(region, b, np.inf))),),
                              region)
        assert well.box[0].start == 0
        with pytest.raises(ValueError, match="interior nodes only"):
            well_upper_bound(pot_quartic, well, 10.0)

    def test_region_on_the_interior_rim_1d(self, pot_ax):
        # a region from the first interior node to the last
        region = _interior(pot_ax.b.shape)
        mn = float(pot_ax.b.min())
        top = float(pot_ax.b[region].max())
        well = well_from_mask(mn, top, top - mn,
                              (int(np.argmin(pot_ax.b)),), region)
        assert well.box == (slice(1, pot_ax.b.size - 1),)
        assert assert_box_matches(pot_ax, [well]) > 0
