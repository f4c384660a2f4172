import math
import os

import numpy as np
import pytest
import scipy.sparse as sps
from scipy.fft import dstn, idstn
from scipy.sparse.linalg import spsolve

from driftwell import (Grid2D, State2D, adjoint_profile, build_field_2d,
                       detect_wells, estimate_decay, evolve, extract_profile,
                       p2_envelope, well_upper_bound)
from driftwell import pde2d
from driftwell.cli import TWO_BUMP
from driftwell.pde2d import (SolverError, _apply, _dirichlet_eigs, _gather,
                             _operator, fit_decay)


def reference_step(state: State2D, field, p: float, tau: float) -> State2D:
    """The former public pde2d.step with the former _apply inlined,
    verbatim but for tau, which State2D no longer carries: the operator is
    built on every call, and at zero transport (no gather) the step is a
    forward and an inverse DST-I of the nodal state."""
    G, sym = _operator(field, p, tau)
    u = state.u
    if G is None:
        c = dstn(u, type=1)
    else:
        c = dstn((G @ u.ravel()).reshape(u.shape), type=1, overwrite_x=True)
    c /= sym
    return State2D(grid=state.grid, u=idstn(c, type=1, overwrite_x=True),
                   t=state.t + tau)


class TestStep:
    def test_pure_diffusion_eigenfunction(self, grid2d_acceptance):
        g = grid2d_acceptance
        fld = build_field_2d("constant", g, c=(0.0, 0.0))
        X, Y = np.meshgrid(g.nodes_x(), g.nodes_y(), indexing="ij")
        u0 = np.cos(np.pi * X / 2) * np.cos(np.pi * Y / 2)
        tau = 5e-4
        st1, _, _, _ = evolve(fld, 0.0, u0, t_end=tau, tau=tau)   # one step
        pred = u0 / (1 + tau * np.pi**2 / 2)
        assert np.max(np.abs(st1.u - pred)) / pred.max() < 1e-6
        # exact against the discrete 5-point eigenvalue: the DST-I solve
        # is exact to rounding
        lam_h = 2 * (2 - 2 * np.cos(np.pi * g.hx / 2)) / g.hx**2
        assert np.max(np.abs(st1.u - u0 / (1 + tau * lam_h))) < 1e-9

    def test_zero_stays_zero(self, grid2d_acceptance):
        # a step maps zero to zero on the drifting field, so evolve has no
        # decay rate to record and refuses at its first (here only) step
        g = grid2d_acceptance
        fld = build_field_2d("bump", g, radius=0.5)
        zero = np.zeros((g.nx, g.ny))
        assert np.all(reference_step(State2D(grid=g, u=zero, t=0.0), fld,
                                     40.0, 1e-3).u == 0.0)
        with pytest.raises(SolverError, match="exact zero"):
            evolve(fld, 40.0, zero, t_end=1e-3, tau=1e-3)

    def test_maximum_principle_random_data(self):
        # every one of 30 states, read back from a snapshot at each step
        # (max-normalized) and its recorded log amplitude
        g = Grid2D(1.0, 1.0, 29, 29)
        fld = build_field_2d("bump", g, radius=0.5, strength=1.0)
        rng = np.random.default_rng(3)
        u0 = rng.uniform(0.0, 1.0, size=(29, 29))
        _, samples, _, snaps = evolve(fld, 25.0, u0, t_end=0.03, tau=1e-3,
                                      snapshot_every=1e-3)
        assert len(samples) == len(snaps) == 30
        for (_, log_amp, v), log_max in zip(snaps, samples[:, 2]):
            assert log_amp == log_max
            u = v * math.exp(log_amp)
            assert u.min() >= -1e-10
            assert u.max() <= u0.max() + 1e-10

    def test_evolve_rejects_nonpositive_tau(self, grid2d_acceptance):
        fld = build_field_2d("constant", grid2d_acceptance, c=(0.0, 0.0))
        for tau in (0.0, -1e-3):
            with pytest.raises(ValueError, match="tau must be positive"):
                evolve(fld, 0.0, None, t_end=0.1, tau=tau)

    def test_evolve_rejects_negative_snapshot_interval(self, grid2d_acceptance):
        fld = build_field_2d("constant", grid2d_acceptance, c=(0.0, 0.0))
        with pytest.raises(ValueError, match="snapshot_every"):
            evolve(fld, 0.0, None, t_end=0.1, tau=1e-3, snapshot_every=-0.1)


# The dense bilinear interpolation pde2d ran before its gathers became one
# sparse matrix on the interior state, verbatim: the oracle of
# _reference_step, reference_operator and the section test.
def _bilinear_weights(grid, xq: np.ndarray, yq: np.ndarray):
    """Flat indices into the raveled padded (nx+2, ny+2) array of the four
    lattice corners around each query point, with their bilinear weights;
    the weights are 0 outside the closed rectangle.  Both carry a leading
    axis of length 4."""
    gx = (xq + grid.lx) / grid.hx
    gy = (yq + grid.ly) / grid.hy
    inside = ((xq >= -grid.lx) & (xq <= grid.lx)
              & (yq >= -grid.ly) & (yq <= grid.ly))
    i0 = np.clip(np.floor(gx).astype(np.int64), 0, grid.nx)
    j0 = np.clip(np.floor(gy).astype(np.int64), 0, grid.ny)
    fx = np.clip(gx - i0, 0.0, 1.0)
    fy = np.clip(gy - j0, 0.0, 1.0)
    stride = grid.ny + 2
    base = i0 * stride + j0
    idx = np.stack([base, base + stride, base + 1, base + stride + 1])
    w = np.stack([(1 - fx) * (1 - fy), fx * (1 - fy),
                  (1 - fx) * fy, fx * fy]) * inside
    return idx, w


def _bilinear_at(up: np.ndarray, grid, xq: np.ndarray, yq: np.ndarray) -> np.ndarray:
    """Bilinear interpolation of the padded (boundary-zero) array at query
    points; exact zero outside the closed rectangle."""
    idx, w = _bilinear_weights(grid, xq, yq)
    return np.sum(w * up.ravel()[idx], axis=0)


def _reference_step(u, field, p, tau):
    """One step assembled independently of the stepper: interpolation at
    the departure points, then a sparse direct solve of I + tau (-lap_h)
    with the 5-point Laplacian on the (nx, ny) interior, C-ordered."""
    g = field.grid
    X, Y = np.meshgrid(g.nodes_x(), g.nodes_y(), indexing="ij")
    a = field.a[1:-1, 1:-1, :]
    u_tilde = _bilinear_at(np.pad(u, 1), g, X - p * tau * a[:, :, 0],
                           Y - p * tau * a[:, :, 1])

    def second_difference(n, h):
        return sps.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n)) / h**2

    neg_lap = (sps.kron(second_difference(g.nx, g.hx), sps.identity(g.ny))
               + sps.kron(sps.identity(g.nx), second_difference(g.ny, g.hy)))
    lhs = (sps.identity(g.nx * g.ny) + tau * neg_lap).tocsc()
    return spsolve(lhs, u_tilde.ravel()).reshape(g.nx, g.ny)


class TestStepOracle:
    """The stepper against a reference built from _bilinear_at and a sparse
    direct solve.  The rectangle is not square and nx != ny, so a swapped
    axis in the gather or in the transform symbol shows."""

    @pytest.fixture
    def setup(self):
        g = Grid2D(1.0, 0.6, 23, 17)
        fld = build_field_2d("bump", g, center=(0.3, -0.1), radius=0.5)
        u0 = np.random.default_rng(7).uniform(0.0, 1.0, size=(23, 17))
        return g, fld, u0

    def test_step_matches_sparse_direct_solve(self, setup):
        g, fld, u0 = setup
        tau = 2e-3
        got = evolve(fld, 25.0, u0, t_end=tau, tau=tau)[0].u   # one step
        ref = _reference_step(u0, fld, 25.0, tau)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_evolve_samples_equal_repeated_steps(self, setup):
        # 50 sparse direct solves in sequence: the log-norms agree to 1e-12
        # (measured 2.6e-14), the times bit for bit
        g, fld, u0 = setup
        tau = 2e-3
        _, samples, _, _ = evolve(fld, 25.0, u0, t_end=0.1, tau=tau)
        u, t, ref = u0, 0.0, []
        for _ in range(len(samples)):
            u = _reference_step(u, fld, 25.0, tau)
            t = t + tau
            l2 = np.sqrt(np.sum(u**2) * g.hx * g.hy)
            ref.append((t, np.log(l2), np.log(np.max(np.abs(u)))))
        ref = np.array(ref)
        assert len(samples) == 50
        assert np.array_equal(samples[:, 0], ref[:, 0])
        np.testing.assert_allclose(samples[:, 1:], ref[:, 1:], rtol=0.0,
                                   atol=1e-12)


def reference_operator(field, p, tau):
    """The former dense step operator: (idx, w, sym), the four corner
    indices into the raveled padded (nx+2, ny+2) state and their bilinear
    weights (leading axis 4), and the DST-I symbol.  A node that is its
    own departure point bit for bit takes weights (1, 0, 0, 0) with its
    own index first; every other node is as before, verbatim."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    grid = field.grid
    a_int = field.a[1:-1, 1:-1, :]
    x, y = grid.nodes_x()[:, None], grid.nodes_y()[None, :]
    xd = x - p * a_int[:, :, 0] * tau
    yd = y - p * a_int[:, :, 1] * tau
    sym = 1.0 + tau * (_dirichlet_eigs(grid.nx, grid.hx)[:, None]
                       + _dirichlet_eigs(grid.ny, grid.hy))
    idx, w = _bilinear_weights(grid, xd, yd)
    still = (xd == x) & (yd == y)
    own = ((np.arange(grid.nx)[:, None] + 1) * (grid.ny + 2)
           + np.arange(grid.ny) + 1)
    idx[0][still] = own[still]
    w[:, still] = 0.0
    w[0][still] = 1.0
    return idx, w, sym


def reference_apply(op, u):
    """The former 4-corner gather step, verbatim (test oracle for the
    stored sparse gather)."""
    idx, w, sym = op
    u_tilde = np.sum(w * np.pad(u, 1).ravel()[idx], axis=0)
    return idstn(dstn(u_tilde, type=1) / sym, type=1)


GATHER_CASES = {
    # name: (grid, field kind, field params, p, tau, random start)
    "vortex-99": (Grid2D(1.0, 1.0, 99, 99), "bump", {"radius": 0.5},
                  40.0, 5e-4, False),
    "constant-199": (Grid2D(1.0, 1.0, 199, 199), "constant",
                     {"c": (0.0, 0.0)}, 0.0, 5e-4, False),
    "two-bump-61x47": (Grid2D(1.0, 1.0, 61, 47), "bumps",
                       {"bumps": TWO_BUMP}, 25.0, 5e-4, True),
    # p |a| tau = 0.15 and 0.075 exceed hx and hy: departure points near
    # the upstream walls leave the rectangle
    "drift-41x43": (Grid2D(1.0, 1.0, 41, 43), "constant", {"c": (1.0, 0.5)},
                    3.0, 5e-2, True),
    "bump-23x17": (Grid2D(1.0, 0.6, 23, 17), "bump",
                   {"center": (0.3, -0.1), "radius": 0.5}, 25.0, 2e-3, True),
}


# the cases with a gather to apply (p > 0 on a drifting field)
TRANSPORT_CASES = sorted(name for name, case in GATHER_CASES.items()
                         if case[3] > 0)


@pytest.fixture(params=sorted(GATHER_CASES))
def gather_case(request):
    g, kind, params, p, tau, random_start = GATHER_CASES[request.param]
    fld = build_field_2d(kind, g, **params)
    u0 = (np.random.default_rng(11).uniform(0.0, 1.0, size=(g.nx, g.ny))
          if random_start else np.ones((g.nx, g.ny)))
    return request.param, fld, p, tau, u0


def _zero_transport(fld, p):
    return not np.any(p * fld.a[1:-1, 1:-1])


class TestGatherOracle:
    """The stored sparse gather against the former 4-corner gather: the
    same bits (and signs of zero) at every step, and the stored matrix
    holds exactly the interior corners of nonzero weight, in gather order.
    At zero transport (constant-199) there is no matrix and evolve steps in
    sine space (TestBlockedZeroTransport).  _gather evaluates (node + l)/h
    in floating point, so at the nodes themselves it would build a
    near-identity matrix (diagonal weights down to 1 - 2.8e-14 at 199²),
    not the identity; on a drifting field the still nodes get the exact
    identity row instead."""

    @pytest.mark.parametrize("gather_case", TRANSPORT_CASES, indirect=True)
    def test_steps_bit_identical(self, gather_case):
        _, fld, p, tau, u0 = gather_case
        op = _operator(fld, p, tau)
        ref_op = reference_operator(fld, p, tau)
        u = v = u0
        for k in range(200):
            u, v = _apply(op, u), reference_apply(ref_op, v)
            assert np.array_equal(u, v), k
            assert np.array_equal(np.signbit(u), np.signbit(v)), k
        assert np.all(u > 0)

    def test_one_evolve_step_is_the_former_step(self, gather_case):
        _, fld, p, tau, u0 = gather_case
        ref = reference_step(State2D(grid=fld.grid, u=u0, t=0.0), fld, p, tau)
        state, _, _, _ = evolve(fld, p, u0, t_end=tau, tau=tau)
        assert state.t == ref.t
        assert np.array_equal(state.u, ref.u)
        assert np.array_equal(np.signbit(state.u), np.signbit(ref.u))

    def test_matrix_holds_interior_corners_in_gather_order(self, gather_case):
        name, fld, p, tau, _ = gather_case
        g = fld.grid
        G, sym = _operator(fld, p, tau)
        idx, w, ref_sym = reference_operator(fld, p, tau)
        assert np.array_equal(sym, ref_sym)
        if _zero_transport(fld, p):
            assert G is None                  # the identity, reported
            return
        # corner axis last, so a C-order walk is row by row, corners in
        # gather order
        idx, w = np.moveaxis(idx, 0, -1), np.moveaxis(w, 0, -1)
        ip, jp = np.unravel_index(idx, (g.nx + 2, g.ny + 2))
        interior = (ip >= 1) & (ip <= g.nx) & (jp >= 1) & (jp <= g.ny)
        keep = interior & (w != 0.0)
        cols = np.ravel_multi_index((ip[keep] - 1, jp[keep] - 1), (g.nx, g.ny))
        assert G.shape == (g.nx * g.ny, g.nx * g.ny)
        assert G.nnz == np.count_nonzero(keep)
        assert np.array_equal(G.indices, cols)
        assert np.array_equal(G.data, w[keep])
        assert np.array_equal(np.diff(G.indptr),
                              keep.reshape(g.nx * g.ny, 4).sum(axis=1))
        assert not G.has_sorted_indices
        if name.startswith("drift"):
            assert np.any(np.diff(G.indptr) == 0)     # departure outside

    def test_still_nodes_get_the_identity_row(self):
        # on the 99² vortex at p = 40, 7,861 interior nodes have a = 0
        # exactly; the raw gather at those nodes (node + l)/h is off the
        # lattice in the last bit and gave them 12,432 entries, diagonal
        # weights down to 1 - 1.07e-14
        g = Grid2D(1.0, 1.0, 99, 99)
        fld = build_field_2d("bump", g, radius=0.5)
        G, _ = _operator(fld, 40.0, 5e-4)
        a = fld.a[1:-1, 1:-1]
        still = np.flatnonzero(~np.any(a, axis=-1))
        assert still.size == 7861
        assert np.all(np.diff(G.indptr)[still] == 1)
        assert np.array_equal(G.indices[G.indptr[still]], still)
        assert np.all(G.data[G.indptr[still]] == 1.0)
        x, y = g.nodes_x()[:, None], g.nodes_y()[None, :]
        raw = _gather(g, x - 40.0 * a[:, :, 0] * 5e-4,
                      y - 40.0 * a[:, :, 1] * 5e-4)
        assert np.diff(raw.indptr)[still].sum() == 12432
        assert (raw.nnz, G.nnz) == (20000, 20000 - 12432 + 7861)


class TestInterpolation:
    def test_far_points_get_empty_rows(self):
        # departure points p a tau away at p = 1e300: their lattice
        # coordinates are clipped before the int cast, so they get empty
        # rows without a RuntimeWarning, and every other row keeps its bits
        g = Grid2D(1.0, 1.0, 19, 19)
        rng = np.random.default_rng(3)
        xq, yq = rng.uniform(-1.0, 1.0, (2, 50))
        far_x = np.array([1e300, -1e300, 5e298, 0.3, -np.inf, np.inf, 1.5])
        far_y = np.array([0.2, -0.5, 1e300, -1e300, 0.0, 0.0, 0.0])
        G = _gather(g, np.r_[xq, far_x], np.r_[yq, far_y])
        near = _gather(g, xq, yq)
        assert np.all(np.diff(G.indptr)[50:] == 0)
        assert np.array_equal(G.indptr[:51], near.indptr)
        assert np.array_equal(G.indices, near.indices)
        assert np.array_equal(G.data, near.data)

    def test_linear_function_exact(self):
        g = Grid2D(1.0, 1.0, 19, 19)
        X, Y = np.meshgrid(g.lattice_x(), g.lattice_y(), indexing="ij")
        up = 2.0 + 0.5 * X - 0.25 * Y
        xq = np.array([0.13, -0.41, 0.0])
        yq = np.array([-0.77, 0.32, 0.0])
        got = _bilinear_at(up, g, xq, yq)
        np.testing.assert_allclose(got, 2.0 + 0.5 * xq - 0.25 * yq, atol=1e-13)

    def test_outside_is_zero(self):
        g = Grid2D(1.0, 1.0, 19, 19)
        up = np.ones((21, 21))
        got = _bilinear_at(up, g, np.array([1.5, -1.0001]), np.array([0.0, 0.0]))
        np.testing.assert_array_equal(got, [0.0, 0.0])

    @pytest.mark.parametrize("shape", [(23, 17), (20, 21)])
    def test_sections_match_the_dense_interpolation(self, shape):
        # the sparse gather of extract_profile against the dense one on
        # random data, bit for bit; the line leaves the rectangle at both
        # ends, and with an even node count y = 0 falls between the rows
        g = Grid2D(1.0, 0.6, *shape)
        u = np.random.default_rng(5).uniform(0.0, 1.0, size=shape)
        line = ((-1.3, -0.2), (1.2, 0.9))
        got = extract_profile(State2D(grid=g, u=u, t=0.0), line=line)
        up = np.pad(got.profile, 1)
        xs, vals = got.section_y0
        assert np.array_equal(vals, _bilinear_at(up, g, xs, np.zeros_like(xs)))
        s, vals = got.section_line
        (x0, y0), (x1, y1) = line
        ts = np.linspace(0.0, 1.0, 401)
        ref = _bilinear_at(up, g, x0 + ts * (x1 - x0), y0 + ts * (y1 - y0))
        assert s.size == 401 and np.array_equal(vals, ref)
        assert np.count_nonzero(ref == 0.0) > 0


class TestDecayEstimate:
    def test_pure_diffusion_rate(self):
        g = Grid2D(1.0, 1.0, 49, 49)
        fld = build_field_2d("constant", g, c=(0.0, 0.0))
        fit, _ = estimate_decay(fld, 0.0, t_end=0.8, tau=1e-3)
        assert fit.rate_l2 == pytest.approx(np.pi**2 / 2, rel=0.05)
        assert fit.rate_max == pytest.approx(fit.rate_l2, rel=1e-3)
        assert fit.plateau_flag

    def test_constant_drift_rate_shift(self):
        g = Grid2D(1.0, 1.0, 49, 49)
        fld = build_field_2d("constant", g, c=(1.0, 0.0))
        fit, _ = estimate_decay(fld, 5.0, t_end=0.8, tau=2.5e-4)
        assert fit.rate_l2 == pytest.approx(np.pi**2 / 2 + 25.0 / 4, rel=0.05)

    def test_window_too_short(self):
        g = Grid2D(1.0, 1.0, 19, 19)
        fld = build_field_2d("constant", g, c=(0.0, 0.0))
        with pytest.raises(ValueError, match="10 samples"):
            estimate_decay(fld, 0.0, t_end=0.1, tau=1e-2, window=(0.05, 0.08))

    @pytest.mark.parametrize("c, p", [((0.0, 0.0), 0.0), ((1.0, 0.0), 5.0)],
                             ids=["zero-transport", "drift"])
    def test_sample_times_are_evolve_times(self, c, p):
        # 0.3 / 7e-4 rounds to 429 steps; 7e-4 is inexact in binary
        fld = build_field_2d("constant", Grid2D(1.0, 1.0, 19, 19), c=c)
        _, samples, _, _ = evolve(fld, p, None, t_end=0.3, tau=7e-4)
        times = pde2d.sample_times(0.3, 7e-4)
        assert times.shape == (429,)
        assert times.tobytes() == samples[:, 0].tobytes()

    def test_nonfinite_rate_rejected(self):
        # sample times 1e-300 apart: the slope's denominator underflows to 0
        t = np.arange(1, 21) * 1e-300
        samples = np.column_stack([t, -t, -2.0 * t])
        with pytest.raises(ValueError, match="not finite"):
            fit_decay(samples, (t[0], t[-1]))

    def test_zero_state_errors(self):
        g = Grid2D(1.0, 1.0, 19, 19)
        fld = build_field_2d("constant", g, c=(0.0, 0.0))
        with pytest.raises(SolverError):
            estimate_decay(fld, 0.0, u0=np.zeros((19, 19)), t_end=0.1, tau=1e-3)

    @pytest.mark.parametrize("c, p, floor, renorms", [
        ((1.0, 0.0), 15.0, 1e-3, 4),     # fast decay, fitted rate ~ 47
        ((0.0, 0.0), 0.0, 0.8, 10),      # rate ~ 4.9, sine-space state
    ], ids=["drift", "zero-drift"])
    def test_renormalization_cadence_independent(self, c, p, floor, renorms):
        # log norms must not depend on how often the amplitude scaling is
        # peeled off
        g = Grid2D(1.0, 1.0, 29, 29)
        fld = build_field_2d("constant", g, c=c)
        _, s1, scale1, _ = evolve(fld, p, None, t_end=0.8, tau=1e-3)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pde2d, "_RENORM_FLOOR", floor)
            _, s2, scale2, _ = evolve(fld, p, None, t_end=0.8, tau=1e-3)
        np.testing.assert_allclose(s1[:, 1], s2[:, 1], atol=1e-10)
        np.testing.assert_allclose(s1[:, 2], s2[:, 2], atol=1e-10)
        # replay the rule on the log max norms: each renormalization resets
        # the scale to the step's log max
        scale, count = 0.0, 0
        for log_max in s2[:, 2]:
            if log_max - scale < math.log(floor):
                scale, count = log_max, count + 1
        assert scale1 == 0.0 and count >= renorms
        assert scale2 == pytest.approx(scale, abs=1e-10)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52,
                        reason="np.longdouble is no wider than float64 here")
    def test_zero_drift_against_long_double(self):
        # the same scheme in long double from the same float64 symbol: 400
        # steps of the float64 run keep the log-norms within a few ulp
        g = Grid2D(1.0, 1.0, 49, 49)
        fld = build_field_2d("constant", g, c=(0.0, 0.0))
        tau = 5e-4
        _, samples, _, _ = evolve(fld, 0.0, None, t_end=0.2, tau=tau)
        sym = 1.0 + tau * (_dirichlet_eigs(g.nx, g.hx)[:, None]
                           + _dirichlet_eigs(g.ny, g.hy))
        sym = sym.astype(np.longdouble)
        u = np.ones((g.nx, g.ny), dtype=np.longdouble)
        ref = []
        for _ in range(len(samples)):
            u = idstn(dstn(u, type=1) / sym, type=1)
            ref.append((np.log(np.sqrt(np.sum(u**2) * (g.hx * g.hy))),
                        np.log(np.max(np.abs(u)))))
        assert len(samples) == 400
        np.testing.assert_allclose(samples[:, 1:], np.array(ref, dtype=float),
                                   rtol=0.0, atol=4e-15)


class TestLogNormsAtAnyScale:
    """The log L2 norm is finite at any scale of the state: where the sum
    of squares underflows (1e-300) or overflows (1e200) it is taken with
    the max factored out, so the run's log-norms are the unit run's plus
    log(scale).  Both runs warned and recorded -inf or inf before."""

    @pytest.mark.parametrize("scale", [1e-300, 1e200])
    @pytest.mark.parametrize("c, p", [((0.0, 0.0), 0.0), ((1.0, 0.5), 5.0)],
                             ids=["zero-transport", "drift"])
    def test_log_norms_shift_by_log_scale(self, scale, c, p):
        g = Grid2D(1.0, 1.0, 29, 29)
        fld = build_field_2d("constant", g, c=c)
        _, ref, _, _ = evolve(fld, p, None, t_end=0.05, tau=5e-4)
        _, samples, _, _ = evolve(fld, p, np.full((29, 29), scale),
                                  t_end=0.05, tau=5e-4)
        assert np.all(np.isfinite(samples))
        np.testing.assert_allclose(samples[:, 1:],
                                   ref[:, 1:] + math.log(scale),
                                   rtol=0.0, atol=1e-12)


def reference_zero_transport(fld, u0, t_end, tau, renorm_floor,
                             snapshot_every):
    """evolve's zero-transport run one step at a time: c /= sym and one
    inverse DST-I per step, with the same norms, snapshots and
    renormalization.  Also returns the steps (1-based) that renormalized."""
    g = fld.grid
    G, sym = _operator(fld, 0.0, tau)
    assert G is None
    c = dstn(u0, type=1)
    samples, snapshots, renorms = [], [], []
    t, log_scale = 0.0, 0.0
    next_snap = snapshot_every if snapshot_every else np.inf
    for k in range(1, int(round(t_end / tau)) + 1):
        c /= sym
        u = idstn(c, type=1)
        t = t + tau
        umax = float(np.max(np.abs(u)))
        if umax == 0.0:
            raise SolverError("solution hit exact zero")
        l2 = float(np.sqrt(np.sum(u**2) * (g.hx * g.hy)))
        samples.append((t, np.log(l2) + log_scale, np.log(umax) + log_scale))
        if t >= next_snap - 0.5 * tau:
            snapshots.append((t, np.log(umax) + log_scale, u / umax))
            next_snap += snapshot_every
        if umax < renorm_floor:
            u = u / umax
            c /= umax
            log_scale += np.log(umax)
            renorms.append(k)
    return u, np.array(samples), log_scale, snapshots, renorms


class TestBlockedZeroTransport:
    """evolve makes the inverse DST-I of a block of zero-transport steps in
    one call, on up to two workers; every output equals the per-step loop
    bit for bit, whatever the worker count.  The grid is not square, and
    the block (80 steps at 49 x 41) divides neither 150 nor 161 steps."""

    @pytest.mark.parametrize("workers", [2, 1],
                             ids=["two-workers", "one-worker"])
    @pytest.mark.parametrize("floor, snapshot_every, steps", [
        (1e-60, None, 150),
        (1e-60, 0.0137, 150),     # snapshots at steps 27, 55, ... of 80
        (0.9, 0.0137, 150),       # renormalizes inside a block
        # the last block holds one step, dividing the coefficients left in
        # the block's last slot into its first
        (1e-60, None, 161),
        (None, None, 161),        # renormalizes at a block's last step
    ], ids=["uneven", "snapshots", "renorm", "one-step-block",
            "renorm-at-block-end"])
    def test_bit_identical_to_per_step_loop(self, monkeypatch, workers,
                                            floor, snapshot_every, steps):
        monkeypatch.setattr(pde2d, "_workers", lambda: workers)
        g = Grid2D(1.0, 0.8, 49, 41)
        fld = build_field_2d("constant", g, c=(0.0, 0.0))
        u0 = np.random.default_rng(13).uniform(0.0, 1.0, size=(49, 41))
        tau = 5e-4
        t_end = steps * tau
        block = math.ceil(pde2d._BLOCK_CELLS / u0.size)
        at_block_end = floor is None
        if at_block_end:
            # between the maxima of the first block's last two steps
            log_max = reference_zero_transport(
                fld, u0.copy(), block * tau, tau, 0.0, None)[1][:, 2]
            floor = math.exp(0.5 * (log_max[-2] + log_max[-1]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pde2d, "_RENORM_FLOOR", floor)
            state, samples, log_scale, snaps = evolve(
                fld, 0.0, u0, t_end=t_end, tau=tau,
                snapshot_every=snapshot_every)
        u, ref, ref_scale, ref_snaps, renorms = reference_zero_transport(
            fld, u0.copy(), t_end, tau, floor, snapshot_every)
        assert len(samples) == steps and steps % block != 0
        np.testing.assert_array_equal(samples, ref)
        np.testing.assert_array_equal(state.u, u)
        assert state.u.base is None           # holds no view of the block
        assert log_scale == ref_scale
        assert len(snaps) == len(ref_snaps) == (5 if snapshot_every else 0)
        for (t, amp, v), (t_ref, amp_ref, v_ref) in zip(snaps, ref_snaps):
            assert (t, amp) == (t_ref, amp_ref)
            np.testing.assert_array_equal(v, v_ref)
        if floor > 0.5:
            assert len(renorms) >= 2 and renorms[0] % block != 0
        if at_block_end:
            assert renorms == [block]

    @pytest.mark.parametrize("n, u0, steps", [
        (199, "ones", 400),
        (99, "signed", 600),
        (49, "spike", 600),
        (29, "tiny", 400),
    ], ids=["199-ones", "99-signed-normal", "49-spike", "29-1e-300"])
    def test_cut_keeps_every_bit(self, n, u0, steps):
        # the coefficients evolve sets to zero (below _CUT times the
        # slowest live mode's) change no output bit: at 199² ~98% of them
        # are zero by step 150, and the per-step loop keeps them all
        g = Grid2D(1.0, 1.0, n, n)
        fld = build_field_2d("constant", g, c=(0.0, 0.0))
        u0 = {"ones": lambda: np.ones((n, n)),
              "signed": lambda: np.random.default_rng(5).standard_normal((n, n)),
              "spike": lambda: np.eye(1, n * n, n * n // 3).reshape(n, n),
              "tiny": lambda: np.full((n, n), 1e-300)}[u0]()
        tau = 5e-4
        t_end, snap = steps * tau, steps * tau / 4
        state, samples, log_scale, snaps = evolve(
            fld, 0.0, u0, t_end=t_end, tau=tau, snapshot_every=snap)
        with np.errstate(divide="ignore"):   # its log L2 at 1e-300: log 0
            u, ref, ref_scale, ref_snaps, _ = reference_zero_transport(
                fld, u0.copy(), t_end, tau, pde2d._RENORM_FLOOR, snap)
        # the one sample the oracle cannot hold: the first step's log L2
        # of the 1e-300 state, whose sum of squares underflows
        held = np.isfinite(ref)
        assert np.count_nonzero(~held) == (1 if n == 29 else 0)
        np.testing.assert_array_equal(samples[held], ref[held])
        np.testing.assert_array_equal(state.u, u)
        assert log_scale == ref_scale
        assert len(snaps) == len(ref_snaps) == 4
        for (t, amp, v), (t_ref, amp_ref, v_ref) in zip(snaps, ref_snaps):
            assert (t, amp) == (t_ref, amp_ref)
            np.testing.assert_array_equal(v, v_ref)

    @pytest.mark.parametrize("l, n, t_end", [(1.0, 199, 0.2), (0.1, 29, 1.0)],
                             ids=["benchmark-199", "renormalizing-29"])
    def test_no_subnormal_reaches_the_transform(self, monkeypatch, l, n, t_end):
        # a timing-free guard of the cut: pocketfft is ~100x slower on a
        # subnormal number, and without the cut thousands reach idstn.  The
        # benchmark's zero-drift run, and a run at l = 0.1 whose blocks are
        # 191 steps long and which renormalizes several times
        tiny = np.finfo(float).tiny
        subnormal = []

        def spy(x, *args, **kwargs):
            ax = np.abs(x)
            subnormal.append(int(np.count_nonzero((ax > 0) & (ax < tiny))))
            return idstn(x, *args, **kwargs)

        monkeypatch.setattr(pde2d, "idstn", spy)
        fld = build_field_2d("constant", Grid2D(l, l, n, n), c=(0.0, 0.0))
        _, samples, log_scale, _ = evolve(fld, 0.0, None, t_end=t_end, tau=5e-4)
        block = math.ceil(pde2d._BLOCK_CELLS / n**2)
        assert len(subnormal) >= len(samples) / block
        assert max(subnormal) == 0
        if n == 29:
            assert block == 191 and log_scale < 2 * math.log(pde2d._RENORM_FLOOR)

    @pytest.mark.skipif(not hasattr(os, "sched_getaffinity"),
                        reason="no CPU affinity call on this OS")
    def test_workers_are_the_usable_cpus_up_to_two(self):
        assert pde2d._workers() == min(len(os.sched_getaffinity(0)), 2)

    def test_zero_state_errors_at_the_first_step(self):
        g = Grid2D(1.0, 0.8, 49, 41)
        fld = build_field_2d("constant", g, c=(0.0, 0.0))
        with pytest.raises(SolverError):
            reference_zero_transport(fld, np.zeros((49, 41)), 5e-4, 5e-4,
                                     1e-60, None)
        with pytest.raises(SolverError, match="exact zero"):
            evolve(fld, 0.0, np.zeros((49, 41)), t_end=5e-4, tau=5e-4)


class TestVortex:
    def test_near_stationary_profile(self, vortex_run):
        # normalized profile is nearly frozen from t = 0.2 on: calibrated
        # drift per 0.1 time units is 1.5% for the first interval and < 1%
        # afterwards, decreasing monotonically
        _, snaps, _ = vortex_run
        times = sorted(snaps)
        drifts = [np.max(np.abs(snaps[t1] - snaps[t0]))
                  for t0, t1 in zip(times, times[1:])]
        assert drifts[0] < 0.02
        assert all(d < 0.01 for d in drifts[1:])
        assert all(b < a for a, b in zip(drifts[:4], drifts[1:5]))

    def test_flat_top_matches_radial_oracle(self, vortex_run, field_vortex,
                                            radial_vortex_lambda):
        # the converged dip of u over the support at p = 40 is ~0.21 (radial
        # oracle 0.208); the profile must reproduce it
        state, _, _ = vortex_run
        prof = extract_profile(state).profile
        g = field_vortex.grid
        X, Y = np.meshgrid(g.nodes_x(), g.nodes_y(), indexing="ij")
        sup = np.hypot(X, Y) <= 0.5
        dip = prof[sup].max() - prof[sup].min()
        _, r, u_rad = radial_vortex_lambda(40.0)
        dip_oracle = 1.0 - u_rad[r <= 0.5].min()
        assert dip == pytest.approx(dip_oracle, abs=0.03)

    def test_adjoint_mass_concentrates(self, vortex_run, field_vortex):
        state, _, _ = vortex_run
        v = adjoint_profile(state, field_vortex, 40.0)
        g = field_vortex.grid
        X, Y = np.meshgrid(g.nodes_x(), g.nodes_y(), indexing="ij")
        sup = np.hypot(X, Y) <= 0.5
        assert v[sup].sum() / v.sum() > 0.99

    def test_dihedral_symmetry(self, vortex_run):
        state, _, _ = vortex_run
        prof = extract_profile(state).profile
        assert np.max(np.abs(prof - prof.T)) < 1e-8
        assert np.max(np.abs(prof - prof[::-1, :])) < 1e-8
        assert np.max(np.abs(prof - prof[:, ::-1])) < 1e-8

    def test_rates_inside_rigorous_bounds(self, field_vortex,
                                          radial_vortex_lambda):
        # measured decay rates sit inside [lower, upper] for p <= 30; the
        # p = 40 rate is floor-limited by the first-order scheme bias
        # (~1e-2 at h = 0.02) while the true eigenvalue, dominated by the
        # inscribed-disk oracle, still satisfies the bound
        rep = detect_wells(field_vortex, tol=0.05)
        well = rep.wells[rep.deepest]
        for p in (0.0, 10.0, 20.0, 30.0):
            fit, _ = estimate_decay(field_vortex, p, t_end=0.5, tau=5e-4,
                                    window=(0.3, 0.5))
            env = p2_envelope(field_vortex, p)
            upper = math.exp(env.log_upper)
            if p > 0:
                wb = well_upper_bound(field_vortex, well, p)
                upper = min(upper, math.exp(wb.log_upper_quotient))
            slack = 3 * (fit.tau_bias if hasattr(fit, "tau_bias") else
                         5e-4 * fit.rate_l2**2 / 2 + fit.rate_l2 * 0.02**2)
            assert env.lower - slack <= fit.rate_l2 <= upper + slack
        lam_disk, _, _ = radial_vortex_lambda(40.0)
        wb40 = well_upper_bound(field_vortex, well, 40.0)
        assert lam_disk <= math.exp(wb40.log_upper_quotient)
        assert p2_envelope(field_vortex, 40.0).lower <= lam_disk

    @pytest.mark.parametrize("p", [5.0, 320.0, math.nan])
    def test_radial_oracle_refuses_unchecked_p(self, radial_vortex_lambda, p):
        # at p = 320 the oracle's pencil is singular to working precision
        # and it would return 2.6e-24 against a ~1e-41 trend
        with pytest.raises(ValueError, match="10 <= p <= 160"):
            radial_vortex_lambda(p)


@pytest.fixture(scope="module")
def diffusion_state():
    g = Grid2D(1.0, 1.0, 49, 49)
    fld = build_field_2d("constant", g, c=(0.0, 0.0))
    _, state = estimate_decay(fld, 0.0, t_end=0.8, tau=1e-3)
    return state


class TestProfiles:

    def test_normalization(self, diffusion_state):
        prof = extract_profile(diffusion_state)
        assert prof.profile.max() == pytest.approx(1.0)

    def test_section_matches_cosine(self, diffusion_state):
        prof = extract_profile(diffusion_state)
        xs, vals = prof.section_y0
        np.testing.assert_allclose(vals, np.cos(np.pi * xs / 2), atol=2e-3)

    def test_line_section(self, diffusion_state):
        prof = extract_profile(diffusion_state,
                               line=((-1.0, -0.5), (1.0, 0.7)))
        s, vals = prof.section_line
        assert len(s) == 401
        assert vals.max() <= 1.0 + 1e-12
        # endpoint values near the boundary are small
        assert vals[0] < 0.3 and vals[-1] < 0.3

    def test_adjoint_at_p_zero(self, diffusion_state):
        g = diffusion_state.grid
        fld = build_field_2d("constant", g, c=(0.0, 0.0))
        v = adjoint_profile(diffusion_state, fld, 0.0)
        prof = extract_profile(diffusion_state).profile
        np.testing.assert_allclose(v, prof, rtol=1e-10)

    def test_zero_state_rejected(self, diffusion_state):
        g = diffusion_state.grid
        bad = State2D(grid=g, u=np.zeros_like(diffusion_state.u), t=0.0)
        with pytest.raises(ValueError):
            extract_profile(bad)
