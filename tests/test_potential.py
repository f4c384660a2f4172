from array import array

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import ndimage

from driftwell import (CatalogError, Field2D, Grid1D, Grid2D, Potential1D,
                       TridiagPencil, build_field_2d, build_potential_1d,
                       check_well_ordering, detect_wells, laplace_integral,
                       liouville_q, potential_from_samples, sublevel_wells,
                       well_upper_bound)
from driftwell import potential
from driftwell.potential import (Well, WellReport, _bump_arrays, _interior,
                                 _node_id, _sublevel_labels, _sweep_events,
                                 catalog_1d, default_well_tol)

from conftest import well_from_mask


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
        wells.append(well_from_mask(
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
    report = WellReport(wells=tuple(kept), tol=tol)
    assert report.deepest == (0 if kept else None)
    return report


# The union-find sweep detect_wells ran before it visited only the events of
# its basins: every interior node in rank order, a mask per kept well.  Kept
# verbatim as the oracle for TestDetectWellsSweep.  Unlike
# reference_detect_wells it shares the documented rule that equal minima
# first meeting at the death level are separate wells, so it also serves
# plateau fields.  reference_detect_wells stays limited to continuous
# fields: on 240 quantized_field inputs (seeds 0-39, the three shapes of
# TestDetectWellsSweep, jitter 0 and 1, tol 0) it disagrees with
# detect_wells on 237.
def sweep_detect_wells(pot, tol=None):
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
    b = np.asarray(pot.b, dtype=float)
    flat = b.ravel()
    N = flat.size
    interior = _interior(b.shape)
    interior_ids = np.flatnonzero(interior)
    order = interior_ids[np.argsort(flat[interior_ids], kind="stable")]

    # group levels so float noise between nominally equal samples (sums of
    # plateau constants) does not split a single merge event
    brange = float(flat.max() - flat.min())
    level_eps = 1e-12 * max(1.0, brange)

    # Union-find over flat lattice indices.  Boundary nodes start active and
    # hang off the pseudo-root N.  Interior nodes never sit on the lattice
    # edge, so every neighbor offset stays in range.  A root is always one of
    # its component's minimum nodes; `ties` holds the full list only for the
    # roots that coalesced with an equal minimum.
    offsets = (-1, 1) if b.ndim == 1 else (-b.shape[1], b.shape[1], -1, 1)
    roots = np.arange(N + 1, dtype=np.int64)
    roots[:N][~interior.ravel()] = N
    parent = array("q", roots.tobytes())
    active = bytearray((~interior).ravel().tobytes())
    cmin = array("d", flat.tobytes())
    ties: dict[int, list] = {}
    deaths = []  # (min value, barrier, min nodes)

    level = -np.inf
    for i in array("q", order.tobytes()):
        v = cmin[i]
        if v > level + level_eps:
            level = v
        active[i] = 1
        ri = i
        for off in offsets:
            j = i + off
            if not active[j]:
                continue
            rj = j
            while parent[rj] != rj:  # path halving
                parent[rj] = rj = parent[parent[rj]]
            if rj == ri:
                continue
            if ri == N or rj == N:
                loser = rj if ri == N else ri
                winner = N
            else:
                mi, mj = cmin[ri], cmin[rj]
                if abs(mi - mj) <= level_eps:
                    winner, loser = (ri, rj) if mi <= mj else (rj, ri)
                    ties[winner] = ties.pop(winner, [winner]) + ties.pop(loser, [loser])
                    parent[loser] = ri = winner
                    continue
                winner, loser = (ri, rj) if mi < mj else (rj, ri)
            nodes = ties.pop(loser, None)
            # a component born at this level has no node below the barrier
            if cmin[loser] < level:
                deaths.append((cmin[loser], level, nodes or [loser]))
            parent[loser] = ri = winner

    # The region of a death is the component of {b < barrier} holding its
    # minimum nodes: the nodes that had joined it before the barrier's level.
    # Equal minima that meet only at the barrier level sit in different
    # components there and are reported as separate wells; a minimum node
    # within level_eps above the barrier lies in none and is left out.
    wells: list[Well] = []
    for mn, barrier, nodes in deaths:
        if barrier - mn <= tol:
            continue
        labels, _ = _sublevel_labels(b, barrier, interior)
        lab = labels.ravel()
        parts: dict[int, list] = {}
        for k in nodes:
            if lab[k]:
                parts.setdefault(int(lab[k]), []).append(k)
        for label, part in parts.items():
            low = float(flat[part].min())
            wells.append(well_from_mask(
                min_value=low,
                barrier_value=barrier,
                depth=barrier - low,
                min_nodes=tuple(_node_id(k, b.shape) for k in part),
                region=labels == label,
            ))

    kept = [w for w in wells if w.depth > tol]
    kept.sort(key=lambda w: w.depth, reverse=True)
    report = WellReport(wells=tuple(kept), tol=tol)
    assert report.deepest == (0 if kept else None)
    return report


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

    def test_spacing_per_axis(self):
        g1, g2 = Grid1D(1.0, 9), Grid2D(1.0, 2.0, 9, 20)
        assert g1.spacing == (g1.h,)
        assert g2.spacing == (g2.hx, g2.hy)


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

    @pytest.mark.parametrize("alpha", [np.inf, np.nan])
    def test_nonfinite_alpha_rejected(self, alpha):
        with pytest.raises(CatalogError, match="alpha"):
            build_potential_1d("power", Grid1D(1.0, 9), alpha=alpha)

    def test_unknown_kind(self):
        with pytest.raises(CatalogError):
            build_potential_1d("cubic", Grid1D(1.0, 9))

    @pytest.mark.parametrize("kind,params", [
        ("power", {"c": 1.0}),
        ("constant", {"alpha": 2.0}),
        ("sine", {"alpha": 2.0}),
        ("quartic", {"c": 1.0}),
    ])
    def test_unread_parameter_rejected(self, kind, params):
        with pytest.raises(CatalogError, match="does not read"):
            catalog_1d(kind, **params)

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

    def test_separable_unread_parameter_rejected(self):
        with pytest.raises(CatalogError, match="constant does not read alpha"):
            build_field_2d("separable", Grid2D(1.0, 1.0, 9, 9),
                           x=("constant", {"alpha": 2}), y=("sine", {}))

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


def reference_bump_arrays(X, Y, center, radius, strength):
    """The radial bump's b, a1, a2 and diva, every formula evaluated on the
    full lattice.  (The former `_bump_arrays`, verbatim; test oracle for its
    support-box form.)"""
    dx = X - center[0]
    dy = Y - center[1]
    r = np.hypot(dx, dy)
    # open support: at r = radius the magnitude is sin(pi) = 0 exactly
    inside = (r > 0.0) & (r < radius)
    mag = np.where(inside, strength * np.sin(np.pi * np.minimum(r, radius) / radius), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        inv_r = np.where(r > 0.0, 1.0 / np.where(r > 0.0, r, 1.0), 0.0)
    a1 = mag * dx * inv_r
    a2 = mag * dy * inv_r
    b = np.where(
        r <= radius,
        strength * radius / np.pi * (1.0 - np.cos(np.pi * r / radius)),
        2.0 * strength * radius / np.pi,
    )
    # div a = f'(r) + f(r)/r for a radial field f(r) r_hat; limit 2 pi s/R at r=0
    diva = np.where(
        inside,
        strength * np.pi / radius * np.cos(np.pi * np.minimum(r, radius) / radius)
        + mag * inv_r,
        0.0,
    )
    diva = np.where(r == 0.0, 2.0 * strength * np.pi / radius, diva)
    return b, a1, a2, diva


def assert_same_bits(got, ref):
    """Equal float64 arrays bit for bit, so -0.0 and 0.0 stay apart."""
    for g, r in zip(got, ref, strict=True):
        assert g.dtype == r.dtype == np.float64 and g.shape == r.shape
        assert np.array_equal(g.view(np.int64), r.view(np.int64))


def assert_bump_matches(grid, center, radius, strength):
    """_bump_arrays and the bump field equal the full-lattice oracle; at a
    node a subnormal distance from the centre, where the oracle's 1/r
    overflows, they equal its limit: the r = 0 values a = 0.0*dx, 0.0*dy
    and diva = 2 pi s/R (b is the oracle's, 0)."""
    X, Y = grid.lattice_meshgrid()
    dx, dy = X - center[0], Y - center[1]
    with np.errstate(over="ignore", invalid="ignore"):
        ref = reference_bump_arrays(X, Y, center, radius, strength)
    centre = np.hypot(dx, dy) < np.finfo(float).tiny
    ref = (ref[0],
           np.where(centre, 0.0 * dx, ref[1]), np.where(centre, 0.0 * dy, ref[2]),
           np.where(centre, 2.0 * strength * np.pi / radius, ref[3]))
    assert_same_bits(_bump_arrays(X, Y, center, radius, strength), ref)
    fld = build_field_2d("bump", grid, center=center, radius=radius,
                         strength=strength)
    assert_same_bits((fld.b, fld.a[:, :, 0], fld.a[:, :, 1], fld.diva), ref)
    return X, Y, ref


class TestBumpBox:
    """The bump's formulas run on the closed box around its support only;
    every array equals the full-lattice oracle bit for bit."""

    @given(data=st.data(), nx=st.integers(3, 24), ny=st.integers(3, 24),
           lx=st.floats(0.25, 2.0), ly=st.floats(0.25, 2.0),
           strength=st.floats(-4.0, 4.0))
    @settings(max_examples=200, deadline=None)
    def test_random_bumps(self, data, nx, ny, lx, ly, strength):
        grid = Grid2D(lx, ly, nx, ny)
        xs, ys = grid.lattice_x(), grid.lattice_y()
        # centres anywhere, on a node included, and a subnormal distance off
        # the node at 0 (odd nx, ny); radii of any size, and the exact
        # distance to a node, so that r == R there
        tiny = np.finfo(float).tiny
        cx = data.draw(st.one_of(
            st.floats(-1.5 * lx, 1.5 * lx), st.sampled_from(xs.tolist()),
            st.floats(-tiny, tiny)))
        cy = data.draw(st.one_of(
            st.floats(-1.5 * ly, 1.5 * ly), st.sampled_from(ys.tolist()),
            st.floats(-tiny, tiny)))
        i = data.draw(st.integers(0, nx + 1))
        j = data.draw(st.integers(0, ny + 1))
        radius = data.draw(st.one_of(
            st.floats(1e-3, 3.0),
            st.just(float(np.hypot(xs[i] - cx, ys[j] - cy))).filter(
                lambda r: r > 0.0)))
        assert_bump_matches(grid, (cx, cy), radius, strength)

    def test_support_clipped_by_rectangle(self):
        # R > l: the support covers the rectangle and leaves it
        grid = Grid2D(1.0, 0.75, 17, 13)
        X, Y, (b, a1, a2, _) = assert_bump_matches(grid, (0.3, -0.2), 1.6, 1.3)
        assert np.all(np.hypot(X - 0.3, Y + 0.2)[1:-1, 1:-1] < 1.6)
        assert np.signbit(a1).any() and np.signbit(a2).any()

    def test_radius_below_spacing(self):
        # h = 0.2 and R = 0.05: between nodes the box holds no node, on a
        # node it holds that one node
        grid = Grid2D(1.0, 1.0, 9, 9)
        xs, ys = grid.lattice_x(), grid.lattice_y()
        between = (0.5 * (xs[4] + xs[5]), 0.5 * (ys[6] + ys[7]))
        _, _, (b, _, _, diva) = assert_bump_matches(grid, between, 0.05, 2.0)
        assert np.all(b == 2.0 * 2.0 * 0.05 / np.pi) and not diva.any()
        on_node = (float(xs[6]), float(ys[5]))
        _, _, (_, _, _, diva) = assert_bump_matches(grid, on_node, 0.05, 2.0)
        assert np.count_nonzero(diva) == 1

    def test_node_on_the_support_circle(self):
        # h = 0.5: four nodes sit at r == R exactly, the box's closed edges
        grid = Grid2D(1.0, 1.0, 3, 3)
        X, Y, (b, a1, a2, diva) = assert_bump_matches(grid, (0.0, 0.0), 0.5, 1.7)
        on_circle = np.hypot(X, Y) == 0.5
        assert np.count_nonzero(on_circle) == 4
        assert np.all(a1[on_circle] == 0.0) and np.all(diva[on_circle] == 0.0)
        # signed zeros off the support: -0.0 where dx < 0
        assert np.array_equal(np.signbit(a1), X < 0)

    def test_centred_on_a_node(self):
        grid = Grid2D(1.0, 1.0, 19, 19)
        xs, ys = grid.lattice_x(), grid.lattice_y()
        center = (float(xs[7]), float(ys[12]))
        _, _, (_, a1, a2, diva) = assert_bump_matches(grid, center, 0.35, -1.5)
        assert a1[7, 12] == 0.0 and a2[7, 12] == 0.0
        assert diva[7, 12] == 2.0 * -1.5 * np.pi / 0.35

    def test_subnormal_distance_from_the_centre(self):
        # 1/r overflowed at r = 2.2e-311 (a RuntimeWarning, an error under
        # the test settings); the node takes the r = 0 limit
        fld = build_field_2d("bump", Grid2D(1.0, 1.0, 3, 3),
                             center=(0.0, 2.2e-311), radius=1.0)
        assert np.isfinite(fld.a).all() and np.isfinite(fld.diva).all()
        assert fld.b[2, 2] == 0.0 and not fld.a[2, 2].any()
        assert fld.diva[2, 2] == 2.0 * np.pi
        assert_bump_matches(Grid2D(1.0, 1.0, 3, 3), (0.0, 2.2e-311), 1.0, 1.0)
        assert_bump_matches(Grid2D(1.0, 1.0, 9, 9), (-5e-324, 0.0), 0.3, -2.0)

    @pytest.mark.parametrize("n", [99, 199])
    def test_two_bump_field(self, n):
        # the bumps kind sums full-lattice arrays in the order it always did
        grid = Grid2D(1.0, 1.0, n, n)
        X, Y = grid.lattice_meshgrid()
        bumps = [((0.5, 0.4), 0.4, 1.0), ((-2.0 / 3.0, -0.3), 0.25, 2.0)]
        b, a1, a2, diva = (np.zeros_like(X) for _ in range(4))
        for c, r, s in bumps:
            for acc, arr in zip((b, a1, a2, diva),
                                reference_bump_arrays(X, Y, c, r, s)):
                acc += arr
        fld = build_field_2d("bumps", grid, bumps=bumps)
        assert_same_bits((fld.b, fld.a[:, :, 0], fld.a[:, :, 1], fld.diva),
                         (b, a1, a2, diva))


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
        # nan is no nonnegative tol either: it kept no well, depth 0
        with pytest.raises(ValueError):
            detect_wells(pot_ax, tol=float("nan"))

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


def acceptance_field_201(kind):
    """The benchmark's 201^2 lattice fields: two-bump and vortex."""
    grid = Grid2D(1.0, 1.0, 199, 199)
    if kind == "two-bump":
        return build_field_2d("bumps", grid,
                              bumps=[((0.5, 0.4), 0.4, 1.0),
                                     ((-2.0 / 3.0, -0.3), 0.25, 2.0)])
    return build_field_2d("bump", grid, radius=0.5)


class TestDetectWellsOracle:
    """detect_wells against the member-list sweep it replaced: the same
    tol, ranking, values, minimum nodes (in order) and regions."""

    @pytest.mark.parametrize("name", ["pot_ax", "pot_sine_wide", "pot_quartic",
                                      "field_two_bump", "field_vortex"])
    def test_catalog(self, name, request):
        pot = request.getfixturevalue(name)
        assert_same_report(detect_wells(pot), reference_detect_wells(pot))

    def test_two_bump_199(self):
        fld = acceptance_field_201("two-bump")
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


def quantized_field(seed, shape, jitter):
    """random_field rounded to multiples of 1/2: plateaus of exactly equal
    samples, each sample then moved by a random multiple of 1e-13 up to
    +-jitter of them.  At jitter 1 every move is below level_eps (~5e-12
    here), so equal minima and merges hinge on the level grouping; at
    jitter 100 a plateau spans more than level_eps in steps narrower than
    it, so the grouping needs its sequential scan."""
    pot = random_field(seed, shape)
    b = np.round(2 * pot.b) / 2
    b = b + 1e-13 * np.random.default_rng(seed + 1000).integers(
        -jitter, jitter + 1, size=shape)
    if len(shape) == 1:
        return potential_from_samples(pot.grid, b)
    return Field2D(pot.grid, b, pot.a)


def reference_sweep_events(b, interior, level_eps):
    """The sweep's events with each node's steepest neighbor picked by
    argmin over the neighbor ranks and two tuple-index gathers.  (The former
    `_sweep_events`, verbatim but for the module prefix of its helpers; test
    oracle for its running-minimum form.)"""
    flat = b.ravel()
    N = flat.size
    interior_ids = np.flatnonzero(interior)
    order = interior_ids[np.argsort(flat[interior_ids], kind="stable")]
    rank = np.full(N, -1, dtype=np.int64)
    rank[order] = np.arange(order.size)
    nbr = interior_ids + np.array(potential._neighbor_offsets(b.shape))[:, None]
    nrank = rank[nbr]
    steepest = (nrank.argmin(axis=0), np.arange(interior_ids.size))
    own = rank[interior_ids]
    down = np.where(nrank[steepest] < 0, N, nbr[steepest])
    basin = np.full(N + 1, N, dtype=np.int64)
    basin[interior_ids] = np.where(nrank[steepest] < own, down, interior_ids)
    while True:
        jumped = basin[basin]
        if np.array_equal(jumped, basin):
            break
        basin = jumped
    own_basin = basin[interior_ids]
    meets = ((nrank < own) & (basin[nbr] != own_basin)).any(axis=0)
    # basin N has no minimum: the nan makes the comparison false
    tied = flat[interior_ids] - np.append(flat, np.nan)[own_basin] <= level_eps
    event_rank = np.sort(own[meets | tied])
    return (rank, basin, order[event_rank],
            potential._sweep_levels(flat[order], level_eps)[event_rank])


class TestDetectWellsSweep:
    """detect_wells, which runs its union-find only at the events of the
    basins, against the full sweep over every node: the same tol, ranking,
    values, minimum nodes (in order) and regions."""

    @pytest.mark.parametrize("tol", [0.0, 0.3])
    @pytest.mark.parametrize("jitter", [0, 1, 100])
    @pytest.mark.parametrize("shape", [(403,), (39, 25), (61, 61)])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_plateaus(self, seed, shape, jitter, tol):
        pot = quantized_field(seed, shape, jitter)
        report = detect_wells(pot, tol=tol)
        assert len(report.wells) > 3
        assert_same_report(report, sweep_detect_wells(pot, tol=tol))

    def test_white_noise_99(self):
        pot = random_field(0, (101, 101))
        report = detect_wells(pot, tol=0.0)
        assert len(report.wells) > 1000
        assert_same_report(report, sweep_detect_wells(pot, tol=0.0))

    @pytest.mark.parametrize("kind,count", [("two-bump", 2), ("vortex", 1)])
    def test_acceptance_201(self, kind, count):
        fld = acceptance_field_201(kind)
        report = detect_wells(fld, tol=0.05)
        assert len(report.wells) == count
        assert_same_report(report, sweep_detect_wells(fld, tol=0.05))

    @pytest.mark.parametrize("kind", ["random", "integer", "plateau"])
    @pytest.mark.parametrize("shape", [(3,), (4,), (403,), (3, 3), (4, 7),
                                       (39, 25), (61, 61)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_steepest_neighbor_matches_argmin(self, seed, shape, kind):
        # ties among neighbor ranks are boundary (-1) ranks: both neighbors
        # of a lone 1D node, two at each 2D corner node
        rng = np.random.default_rng(seed)
        if kind == "random":
            b = rng.standard_normal(shape)
        elif kind == "integer":
            b = rng.integers(0, 3, shape).astype(float)
        else:   # plateaus of exactly equal samples
            b = np.round(2 * rng.standard_normal(shape)) / 2
        level_eps = 1e-12 * max(1.0, float(b.max() - b.min()))
        got = _sweep_events(b, _interior(b.shape), level_eps)
        want = reference_sweep_events(b, _interior(b.shape), level_eps)
        for g, w in zip(got, want, strict=True):
            assert g.dtype == w.dtype and np.array_equal(g, w)

    def test_events_are_few(self):
        # the mechanism, as a count: on the smooth two-bump field the
        # union-find visits at most 5% of the interior nodes
        b = acceptance_field_201("two-bump").b
        _, _, events, _ = _sweep_events(b, _interior(b.shape),
                                        1e-12 * max(1.0, b.max() - b.min()))
        assert events.size <= 0.05 * 199 * 199

    def test_region_is_a_crop(self):
        fld = acceptance_field_201("two-bump")
        for w in detect_wells(fld, tol=0.05).wells:
            region = w.region
            assert region.shape == fld.b.shape and region.dtype == bool
            rows, cols = np.nonzero(region)
            assert w.box == (slice(rows.min(), rows.max() + 1),
                             slice(cols.min(), cols.max() + 1))
            assert np.array_equal(w.crop, region[w.box])
            assert w.crop.size < region.size / 4
            # a full-lattice mask builds the same well
            again = well_from_mask(w.min_value, w.barrier_value, w.depth,
                                   w.min_nodes, region)
            assert (again.shape, again.box) == (w.shape, w.box)
            assert np.array_equal(again.crop, w.crop)

    def test_empty_region(self):
        w = well_from_mask(0.0, 1.0, 1.0, (), np.zeros((5, 4), dtype=bool))
        assert w.crop.size == 0
        assert np.array_equal(w.region, np.zeros((5, 4), dtype=bool))


# The 1D/2D branches that liouville_q, p2_envelope, default_well_tol,
# _sublevel_labels and sublevel_wells each formed before the grid and field
# types owned them.  Kept as the oracles for TestLatticeForksOracle.
def reference_speed_sq(pot):
    if isinstance(pot, Potential1D):
        return pot.a ** 2
    return pot.a[:, :, 0] ** 2 + pot.a[:, :, 1] ** 2


def reference_default_well_tol(pot):
    if isinstance(pot, Potential1D):
        h = pot.grid.h
        amax = float(np.max(np.abs(pot.a))) if pot.a.size else 0.0
    else:
        h = max(pot.grid.hx, pot.grid.hy)
        amax = float(np.max(np.hypot(pot.a[:, :, 0], pot.a[:, :, 1])))
    return h * amax


def reference_sublevel_mask(b, level):
    mask = b < level
    mask[0] = mask[-1] = False
    if b.ndim == 2:
        mask[:, 0] = mask[:, -1] = False
    return mask


def reference_min_nodes(b, region):
    mn = float(b[region].min())
    idx = np.argwhere(region)
    return tuple(tuple(int(c) for c in row) if b.ndim > 1 else int(row[0])
                 for row in idx[b[region] == mn])


class TestLatticeForksOracle:
    FIELDS = ["pot_ax", "pot_sine_wide", "pot_quartic", "field_two_bump",
              "field_vortex"]

    @pytest.mark.parametrize("name", FIELDS)
    def test_speed_sq_and_well_tol(self, name, request):
        pot = request.getfixturevalue(name)
        assert np.array_equal(pot.speed_sq(), reference_speed_sq(pot))
        assert default_well_tol(pot) == reference_default_well_tol(pot)

    def test_separable_rectangle(self):
        fld = build_field_2d("separable", Grid2D(2.0, 1.0, 31, 17),
                             x=("quartic", {}), y=("power", {"alpha": 3.0}))
        assert fld.grid.hx != fld.grid.hy
        assert np.array_equal(fld.speed_sq(), reference_speed_sq(fld))
        assert default_well_tol(fld) == reference_default_well_tol(fld)

    @pytest.mark.parametrize("shape", [(403,), (39, 25)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_sublevel_mask_and_node_ids(self, seed, shape):
        pot = random_field(seed, shape)
        for level in (-1.0, 0.0, 0.7):
            labels, count = _sublevel_labels(pot.b, level, _interior(pot.b.shape))
            want, want_count = ndimage.label(reference_sublevel_mask(pot.b, level))
            assert count == want_count and np.array_equal(labels, want)
        wells = sublevel_wells(pot, 0.0)
        assert len(wells) > 5
        for w in wells:
            assert w.min_nodes == reference_min_nodes(pot.b, w.region)


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


# Forms the library refuses, each with otherwise valid arguments: a value
# the record derives (depth, deepest, n), the full-mask Well constructor,
# and settings no caller set or read.
REMOVED_FORMS = {
    "Well(region=)": lambda pot: Well(
        0.0, 1.0, 1.0, (), region=np.ones(3, dtype=bool)),
    "Well(depth=)": lambda pot: Well(
        min_value=0.0, barrier_value=1.0, depth=1.0, min_nodes=(),
        shape=(5,), box=(slice(1, 4),), crop=np.ones(3, dtype=bool)),
    "WellReport(deepest=)": lambda pot: WellReport(
        wells=(), deepest=None, tol=0.0),
    "TridiagPencil(n=)": lambda pot: TridiagPencil(
        n=1, diag_M=np.ones(1), edge_w=np.ones(2), h=1.0, scale_log=0.0),
    "well_upper_bound(epsilon=)": lambda pot: well_upper_bound(
        pot, detect_wells(pot).wells[0], 10.0, epsilon=0.1),
    "check_well_ordering(tol=)": lambda pot: check_well_ordering(pot, tol=1e-3),
    "laplace_integral((x, g(x)))": lambda pot: laplace_integral(
        (np.linspace(0.0, 1.0, 9), np.linspace(0.0, 1.0, 9)), 1.0, 100.0),
    "Potential1D(kind=)": lambda pot: Potential1D(
        grid=pot.grid, b=pot.b, a=pot.a, kind="power"),
}


@pytest.mark.parametrize("form", sorted(REMOVED_FORMS))
def test_removed_form_raises(form, pot_ax):
    with pytest.raises(TypeError):
        REMOVED_FORMS[form](pot_ax)
