import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from driftwell import (CatalogError, Grid1D, Grid2D, build_field_2d,
                       build_potential_1d, check_well_ordering, detect_wells,
                       liouville_q, potential_from_samples, sublevel_wells)


def fourier_potential(grid, coeffs):
    xs = grid.nodes_with_endpoints()
    b = np.zeros_like(xs)
    for k, c in enumerate(coeffs):
        b += c * np.sin((k + 1) * np.pi * xs / grid.l)
    return potential_from_samples(grid, b)


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

    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=5),
           st.floats(-5, 5))
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

    @given(st.lists(st.floats(-2, 2), min_size=2, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_region_barrier_property_random(self, coeffs):
        grid = Grid1D(1.0, 129)
        pot = fourier_potential(grid, coeffs)
        for w in detect_wells(pot, tol=1e-9).wells:
            region = w.region
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
