import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from driftwell import (CatalogError, Field2D, Grid1D, Grid2D, build_field_2d,
                       build_potential_1d, check_well_ordering, detect_wells,
                       liouville_q, potential_from_samples, sublevel_wells)
from driftwell.potential import Well, WellReport, default_well_tol


def fourier_potential(grid, coeffs):
    xs = grid.nodes_with_endpoints()
    b = np.zeros_like(xs)
    for k, c in enumerate(coeffs):
        b += c * np.sin((k + 1) * np.pi * xs / grid.l)
    return potential_from_samples(grid, b)


# The union-find sweep detect_wells ran before it kept its regions as
# sublevel labels: per-component member lists, and a mask built from them at
# every death.  Kept verbatim as the oracle for TestDetectWellsOracle.
def _neighbor_offsets(shape):
    if len(shape) == 1:
        return [(-1,), (1,)]
    return [(-1, 0), (1, 0), (0, -1), (0, 1)]


def reference_detect_wells(pot, tol=None):
    """Sublevel-set persistence of the sampled potential.

    Wells with depth <= tol are dropped (tol defaults to one-cell slack).
    For nested wells the surviving component's region is its full sublevel
    component at death, so regions can contain earlier-died sub-basins; for
    disjoint wells (the multi-well setting) regions are pairwise disjoint.
    """
    if tol is None:
        tol = default_well_tol(pot)
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    b = pot.b
    if b.size == 0:
        raise ValueError("empty grid")
    shape = b.shape
    flat = b.ravel()
    nd = len(shape)

    boundary = np.zeros(shape, dtype=bool)
    if nd == 1:
        boundary[0] = boundary[-1] = True
    else:
        boundary[0, :] = boundary[-1, :] = True
        boundary[:, 0] = boundary[:, -1] = True
    boundary_flat = boundary.ravel()

    interior_ids = np.flatnonzero(~boundary_flat)
    order = interior_ids[np.argsort(flat[interior_ids], kind="stable")]

    # group levels so float noise between nominally equal samples (sums of
    # plateau constants) does not split a single merge event
    brange = float(flat.max() - flat.min())
    level_eps = 1e-12 * max(1.0, brange)

    N = flat.size
    parent = np.full(N + 1, -1, dtype=np.int64)  # index N = boundary pseudo-root
    BOUNDARY = N

    comp_min: dict[int, float] = {BOUNDARY: float(flat[boundary_flat].min())}
    comp_min_nodes: dict[int, list] = {BOUNDARY: []}
    comp_members: dict[int, list] = {BOUNDARY: []}
    comp_stamp: dict[int, int] = {BOUNDARY: -1}
    comp_base: dict[int, int] = {BOUNDARY: 0}

    def find(i):
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def touch(root, level_idx):
        if comp_stamp[root] != level_idx:
            comp_stamp[root] = level_idx
            comp_base[root] = len(comp_members[root])

    wells: list[Well] = []

    def snapshot(root, level_idx):
        members = comp_members[root]
        upto = comp_base[root] if comp_stamp[root] == level_idx else len(members)
        mask = np.zeros(N, dtype=bool)
        mask[members[:upto]] = True
        return mask.reshape(shape)

    def record_death(root, level, level_idx):
        region = snapshot(root, level_idx)
        if not region.any():
            return
        wells.append(Well(
            min_value=comp_min[root],
            barrier_value=level,
            depth=level - comp_min[root],
            min_nodes=tuple(np.unravel_index(i, shape) if nd > 1 else int(i)
                            for i in comp_min_nodes[root]),
            region=region,
        ))

    def union(i, j, level, level_idx):
        ri, rj = find(i), find(j)
        if ri == rj:
            return
        if rj == BOUNDARY:
            ri, rj = rj, ri
        if ri == BOUNDARY:
            touch(rj, level_idx)
            record_death(rj, level, level_idx)
            winner, loser = ri, rj
        else:
            mi, mj = comp_min[ri], comp_min[rj]
            if abs(mi - mj) <= level_eps:
                winner, loser = (ri, rj) if mi <= mj else (rj, ri)
                touch(winner, level_idx)
                touch(loser, level_idx)
                comp_min[winner] = min(mi, mj)
                comp_min_nodes[winner] = comp_min_nodes[winner] + comp_min_nodes[loser]
            else:
                winner, loser = (ri, rj) if mi < mj else (rj, ri)
                touch(winner, level_idx)
                touch(loser, level_idx)
                record_death(loser, level, level_idx)
        comp_members[winner].extend(comp_members[loser])
        parent[loser] = winner
        for d in (comp_min, comp_min_nodes, comp_members, comp_stamp, comp_base):
            d.pop(loser, None)

    strides = np.array([int(np.prod(shape[k + 1:], dtype=np.int64)) for k in range(nd)])
    offsets = [int(np.dot(off, strides)) for off in _neighbor_offsets(shape)]
    coords = np.array(np.unravel_index(order, shape)).T if nd > 1 else None

    parent[BOUNDARY] = BOUNDARY
    level_idx = -1
    level_value = -np.inf
    active = np.zeros(N, dtype=bool)
    active[boundary_flat] = True
    for pos, i in enumerate(order):
        v = float(flat[i])
        if v > level_value + level_eps:
            level_idx += 1
            level_value = v
        parent[i] = i
        comp_min[i] = v
        comp_min_nodes[i] = [int(i)]
        comp_members[i] = [int(i)]
        comp_stamp[i] = level_idx
        comp_base[i] = 0
        active[i] = True
        if nd == 1:
            neigh = [i + o for o in offsets if 0 <= i + o < N]
        else:
            ci = coords[pos]
            neigh = []
            for off, flat_off in zip(_neighbor_offsets(shape), offsets):
                c0, c1 = ci[0] + off[0], ci[1] + off[1]
                if 0 <= c0 < shape[0] and 0 <= c1 < shape[1]:
                    neigh.append(i + flat_off)
        for j in neigh:
            if active[j]:
                union(i, BOUNDARY if boundary_flat[j] else int(j), level_value, level_idx)

    kept = [w for w in wells if w.depth > tol]
    kept.sort(key=lambda w: w.depth, reverse=True)
    deepest = 0 if kept else None
    return WellReport(wells=tuple(kept), deepest=deepest, tol=tol)


class TestGrids:
    def test_spacing_and_nodes(self):
        g = Grid1D(1.0, 9)
        assert g.h == pytest.approx(0.2)
        xs = g.nodes()
        assert len(xs) == 9
        assert xs[0] == pytest.approx(-1.0 + g.h)
        assert xs[-1] == pytest.approx(1.0 - g.h)
        full = g.nodes_with_endpoints()
        assert full[0] == pytest.approx(-1.0) and full[-1] == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(-1.0, 9)
        with pytest.raises(ValueError):
            Grid1D(1.0, 2)
        with pytest.raises(ValueError):
            Grid2D(1.0, 0.0, 9, 9)

    def test_grid2d_axes(self):
        g = Grid2D(1.0, 2.0, 9, 19)
        assert g.hx == pytest.approx(0.2)
        assert g.hy == pytest.approx(0.2)
        assert g.axis_x() == Grid1D(1.0, 9)


class TestCatalog1D:
    def test_power_alpha2_values(self):
        g = Grid1D(1.0, 9)
        pot = build_potential_1d("power", g, alpha=2)
        xs = g.nodes()
        assert pot.b[0] == pytest.approx(0.5)       # b(-1) = 1/2
        assert pot.b[-1] == pytest.approx(0.5)
        mid = np.argmin(np.abs(xs))
        assert pot.b[1:-1][mid] == pytest.approx(0.0, abs=1e-15)
        np.testing.assert_allclose(pot.a, xs, atol=1e-15)

    def test_constant_zero(self):
        g = Grid1D(2.0, 15)
        pot = build_potential_1d("constant", g, c=0.0)
        assert np.all(pot.b == 0.0)
        assert np.all(pot.a == 0.0)

    def test_sine_half_range(self):
        # on [0, l] with l = 3pi/2 the potential -cos spans exactly 2
        g = Grid1D(1.5 * np.pi, 2001)
        pot = build_potential_1d("sine", g)
        xs = g.nodes_with_endpoints()
        half = pot.b[xs >= 0]
        # extrema may fall between nodes: O(h^2) sampling slack
        assert half.max() - half.min() == pytest.approx(2.0, abs=g.h**2)

    def test_alpha_below_one_rejected(self):
        with pytest.raises(CatalogError):
            build_potential_1d("power", Grid1D(1.0, 9), alpha=0.5)

    def test_unknown_kind(self):
        with pytest.raises(CatalogError):
            build_potential_1d("cubic", Grid1D(1.0, 9))

    @pytest.mark.parametrize("kind,params", [
        ("power", {"alpha": 2}),
        ("sine", {}),
        ("quartic", {}),
        ("constant", {"c": 1.5}),
    ])
    def test_derivative_consistency_second_order(self, kind, params):
        # centered differences of sampled b reproduce sampled a at order >= 1.9
        errs = []
        for n in (201, 403):
            g = Grid1D(1.3, n)
            pot = build_potential_1d(kind, g, **params)
            da = (pot.b[2:] - pot.b[:-2]) / (2 * g.h)
            errs.append(np.max(np.abs(da - pot.a)))
        if errs[0] < 1e-13:   # exactly linear potentials difference exactly
            assert errs[1] < 1e-13
        else:
            order = np.log2(errs[0] / errs[1])
            assert order >= 1.9

    def test_bpp_matches_difference_of_a(self):
        g = Grid1D(1.0, 801)
        pot = build_potential_1d("quartic", g)
        da = np.gradient(pot.a, g.h)
        np.testing.assert_allclose(pot.bpp[2:-2], da[2:-2], atol=5e-5)


class TestCatalog2D:
    def test_single_bump_bounds(self):
        g = Grid2D(1.0, 1.0, 99, 99)
        fld = build_field_2d("bump", g, radius=0.5)
        mag = np.hypot(fld.a[:, :, 0], fld.a[:, :, 1])
        assert mag.max() <= 1.0 + 1e-12
        X, Y = g.lattice_meshgrid()
        outside = np.hypot(X, Y) >= 0.5
        assert np.all(mag[outside] == 0.0)

    def test_constant_zero_field(self):
        g = Grid2D(1.0, 1.0, 9, 9)
        fld = build_field_2d("constant", g, c=(0.0, 0.0))
        assert np.all(fld.b == 0.0)

    def test_bump_gradient_consistency(self):
        # a = grad b to second order for the radial bump
        errs = []
        for n in (99, 199):
            g = Grid2D(1.0, 1.0, n, n)
            fld = build_field_2d("bump", g, radius=0.5, strength=1.3)
            gx = np.gradient(fld.b, g.hx, axis=0)
            gy = np.gradient(fld.b, g.hy, axis=1)
            err = np.hypot(gx - fld.a[:, :, 0], gy - fld.a[:, :, 1])
            errs.append(err[2:-2, 2:-2].max())
        assert np.log2(errs[0] / errs[1]) >= 0.9   # one-order drop at kink r=R

    def test_two_bump_depth_oracle(self, field_two_bump):
        # depth of each well = plateau of its own bump: integral of
        # strength*sin(pi r/R) over [0, R] = 2*strength*R/pi
        report = detect_wells(field_two_bump, tol=0.05)
        depths = sorted(w.depth for w in report.wells)
        oracle = sorted([2 * 1.0 * 0.4 / np.pi, 2 * 2.0 * 0.25 / np.pi])
        assert depths == pytest.approx(oracle, abs=2e-3)
        assert not np.any(report.wells[0].region & report.wells[1].region)

    def test_two_bump_default_tol(self, field_two_bump):
        # the default tol (one cell of slack, h * max|a| = 0.040 here) keeps
        # both wells of the acceptance grid
        report = detect_wells(field_two_bump)
        assert report.tol == pytest.approx(0.02 * 2.0, rel=1e-2)
        depths = sorted(w.depth for w in report.wells)
        assert depths == pytest.approx([0.2546, 0.3178], abs=1e-4)

    def test_overlapping_bumps_rejected(self):
        g = Grid2D(1.0, 1.0, 29, 29)
        with pytest.raises(CatalogError):
            build_field_2d("bumps", g, bumps=[((0.0, 0.0), 0.3, 1.0),
                                              ((0.4, 0.0), 0.3, 1.0)])

    def test_bump_outside_domain_rejected(self):
        g = Grid2D(1.0, 1.0, 29, 29)
        with pytest.raises(CatalogError):
            build_field_2d("bumps", g, bumps=[((0.8, 0.0), 0.3, 1.0)])

    def test_separable_is_gradient(self):
        g = Grid2D(1.0, 1.0, 49, 49)
        fld = build_field_2d("separable", g, x=("power", {"alpha": 2}),
                             y=("sine", {}))
        gx = np.gradient(fld.b, g.hx, axis=0)
        np.testing.assert_allclose(gx[2:-2, 2:-2], fld.a[2:-2, 2:-2, 0], atol=2e-3)

    def test_divergence_fallback_matches_analytic(self):
        from driftwell import Field2D
        g = Grid2D(1.0, 1.0, 49, 49)
        fld = build_field_2d("separable", g, x=("quartic", {}), y=("sine", {}))
        stripped = Field2D(grid=g, b=fld.b, a=fld.a, diva=None)
        np.testing.assert_allclose(stripped.divergence(), fld.diva, atol=5e-3)


class TestLiouvilleQ:
    def test_ax_formula(self, pot_ax):
        p = 7.0
        q = liouville_q(pot_ax, p)
        xs = pot_ax.grid.nodes()
        np.testing.assert_allclose(q, -p / 2 + p * p * xs**2 / 4, rtol=1e-12)

    def test_constant_drift(self):
        pot = build_potential_1d("constant", Grid1D(1.0, 101), c=1.5)
        q = liouville_q(pot, 3.0)
        np.testing.assert_allclose(q, 9 * 1.5**2 / 4, rtol=1e-12)

    def test_p_zero(self, pot_ax):
        assert np.all(liouville_q(pot_ax, 0.0) == 0.0)

    def test_2d_constant(self):
        g = Grid2D(1.0, 1.0, 19, 19)
        fld = build_field_2d("constant", g, c=(0.6, 0.8))
        np.testing.assert_allclose(liouville_q(fld, 2.0), 1.0, rtol=1e-12)

    @given(p2=st.floats(0.0, 50.0), dp=st.floats(0.01, 50.0))
    @settings(max_examples=30, deadline=None)
    def test_shift_identity(self, p2, dp):
        # q(p1) - q(p2) = ((p1-p2)/(p1+p2)) q(p1+p2)
        pot = build_potential_1d("quartic", Grid1D(1.7, 101))
        p1 = p2 + dp
        lhs = liouville_q(pot, p1) - liouville_q(pot, p2)
        rhs = (p1 - p2) / (p1 + p2) * liouville_q(pot, p1 + p2)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-10)


class TestDetectWells:
    def test_harmonic_single_well(self, pot_ax):
        report = detect_wells(pot_ax)
        assert len(report.wells) == 1
        w = report.wells[0]
        assert w.depth == pytest.approx(0.5, abs=5e-3)
        assert w.min_value == pytest.approx(0.0, abs=1e-6)
        assert report.max_depth == w.depth

    def test_sine_depth_two(self, pot_sine_wide):
        report = detect_wells(pot_sine_wide)
        assert report.max_depth == pytest.approx(2.0, abs=5e-3)

    def test_quartic_ties_coalesce(self, pot_quartic):
        # equal minima at +-1 coalesce; the single reported well reaches the
        # domain boundary barrier b(2) = 2.25
        report = detect_wells(pot_quartic)
        assert len(report.wells) == 1
        assert report.max_depth == pytest.approx(2.25, abs=2e-2)
        assert len(report.wells[0].min_nodes) == 2

    def test_no_well_for_monotone_b(self):
        pot = build_potential_1d("constant", Grid1D(1.0, 201), c=2.0)
        assert detect_wells(pot).deepest is None

    def test_region_properties(self, pot_ax):
        w = detect_wells(pot_ax).wells[0]
        region = w.region
        b = pot_ax.b
        # contains a minimizer
        assert b[region].min() == pytest.approx(w.min_value)
        # outer neighbors sit at or above the barrier
        outer = np.zeros_like(region)
        outer[1:] |= region[:-1]
        outer[:-1] |= region[1:]
        outer &= ~region
        assert np.all(b[outer] >= w.barrier_value - 1e-9)

    def test_negative_tol_rejected(self, pot_ax):
        with pytest.raises(ValueError):
            detect_wells(pot_ax, tol=-1.0)

    @given(coeffs=st.lists(st.floats(-2, 2), min_size=2, max_size=5),
           shift=st.floats(-5, 5))
    # 1.5 sin(5 pi x): the equal minima at nodes 32-33 and 58-59 first meet
    # at the level where their merged component dies
    @example(coeffs=[0.0, 0.0, 0.0, 0.0, 1.5], shift=1.0)
    @settings(max_examples=25, deadline=None)
    def test_translation_invariance(self, coeffs, shift):
        grid = Grid1D(1.0, 129)
        pot = fourier_potential(grid, coeffs)
        shifted = potential_from_samples(grid, pot.b + shift, pot.a)
        r1 = detect_wells(pot, tol=1e-6)
        r2 = detect_wells(shifted, tol=1e-6)
        assert len(r1.wells) == len(r2.wells)
        # near-equal depths make the ranking float-sensitive: match by location
        key = lambda w: w.min_nodes[0]
        for w1, w2 in zip(sorted(r1.wells, key=key), sorted(r2.wells, key=key)):
            assert w1.depth == pytest.approx(w2.depth, abs=1e-10)
            assert np.array_equal(w1.region, w2.region)

    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=5))
    @settings(max_examples=25, deadline=None)
    def test_mirror_invariance(self, coeffs):
        grid = Grid1D(1.0, 129)
        pot = fourier_potential(grid, coeffs)
        mirrored = potential_from_samples(grid, pot.b[::-1].copy())
        d1 = sorted(w.depth for w in detect_wells(pot, tol=1e-6).wells)
        d2 = sorted(w.depth for w in detect_wells(mirrored, tol=1e-6).wells)
        assert d1 == pytest.approx(d2, abs=1e-10)

    @given(coeffs=st.lists(st.floats(-2, 2), min_size=2, max_size=6))
    @example(coeffs=[0.0, 0.0, 0.0, 0.0, 1.5])
    @settings(max_examples=25, deadline=None)
    def test_region_barrier_property_random(self, coeffs):
        grid = Grid1D(1.0, 129)
        pot = fourier_potential(grid, coeffs)
        for w in detect_wells(pot, tol=1e-9).wells:
            region = w.region
            assert all(region[k] for k in w.min_nodes)
            assert pot.b[region].min() == pytest.approx(w.min_value, abs=1e-12)
            outer = np.zeros_like(region)
            outer[1:] |= region[:-1]
            outer[:-1] |= region[1:]
            outer &= ~region
            assert np.all(pot.b[outer] >= w.barrier_value - 1e-9)

    def test_sublevel_wells_quartic(self, pot_quartic):
        basins = sublevel_wells(pot_quartic, 0.2)
        assert len(basins) == 2
        for b in basins:
            # sampled minimum sits O(h^2) above the true minimum at +-1
            assert b.depth == pytest.approx(0.2, abs=pot_quartic.grid.h**2 * 2)
        assert not np.any(basins[0].region & basins[1].region)


def assert_same_report(got, want):
    assert (got.tol, got.deepest, len(got.wells)) == (want.tol, want.deepest,
                                                     len(want.wells))
    for g, w in zip(got.wells, want.wells):
        assert (g.min_value, g.barrier_value, g.depth) == (
            w.min_value, w.barrier_value, w.depth)
        assert g.min_nodes == tuple(tuple(int(c) for c in k) if isinstance(k, tuple)
                                    else k for k in w.min_nodes)
        assert g.region.dtype == bool
        np.testing.assert_array_equal(g.region, w.region)


def random_field(seed, shape):
    b = np.random.default_rng(seed).standard_normal(shape)
    if len(shape) == 1:
        return potential_from_samples(Grid1D(1.0, shape[0] - 2), b)
    grid = Grid2D(1.0, 0.6, shape[0] - 2, shape[1] - 2)
    return Field2D(grid, b, np.zeros(shape + (2,)))


class TestDetectWellsOracle:
    """detect_wells against the member-list sweep it replaced: the same
    tol, ranking, values, minimum nodes (in order) and regions."""

    @pytest.mark.parametrize("name", ["pot_ax", "pot_sine_wide", "pot_quartic",
                                      "field_two_bump", "field_vortex"])
    def test_catalog(self, name, request):
        pot = request.getfixturevalue(name)
        assert_same_report(detect_wells(pot), reference_detect_wells(pot))

    def test_two_bump_199(self):
        fld = build_field_2d("bumps", Grid2D(1.0, 1.0, 199, 199),
                             bumps=[((0.5, 0.4), 0.4, 1.0),
                                    ((-2.0 / 3.0, -0.3), 0.25, 2.0)])
        report = detect_wells(fld, tol=0.05)
        assert len(report.wells) == 2
        assert_same_report(report, reference_detect_wells(fld, tol=0.05))

    @pytest.mark.parametrize("tol", [0.0, 0.3])
    @pytest.mark.parametrize("shape", [(403,), (39, 25)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random(self, seed, shape, tol):
        pot = random_field(seed, shape)
        report = detect_wells(pot, tol=tol)
        assert len(report.wells) > 10
        assert_same_report(report, reference_detect_wells(pot, tol=tol))


class TestWellOrdering:
    def test_ax_passes(self, pot_ax):
        chk = check_well_ordering(pot_ax)
        assert chk.passed and chk.odd_ok and chk.ordered_ok

    def test_sine_wide_fails(self):
        # minima of -cos on [0, 3pi] at {0, 2pi}, maxima at {pi, 3pi}
        pot = build_potential_1d("sine", Grid1D(3 * np.pi, 2001))
        chk = check_well_ordering(pot)
        assert not chk.passed and chk.odd_ok and not chk.ordered_ok

    def test_quartic_passes(self, pot_quartic):
        assert check_well_ordering(pot_quartic).passed

    def test_even_drift_fails_oddness(self):
        grid = Grid1D(1.0, 101)
        xs = grid.nodes_with_endpoints()
        pot = potential_from_samples(grid, xs**3)  # a ~ 3x^2 is even
        assert not check_well_ordering(pot).odd_ok
