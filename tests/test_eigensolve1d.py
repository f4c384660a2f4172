import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh, lapack

from driftwell import (ConvergenceError, Grid1D, OverflowGuardError,
                       adjoint_eigenfunction, assemble_pencil,
                       build_potential_1d, eigs_bisection, liouville_q,
                       principal_eig, rayleigh_quotient, selfadjoint_check)
from driftwell import eigensolve1d
from driftwell.eigensolve1d import (EigenPair, TridiagPencil, _edge_ldlt,
                                    count_below)


def closed_form_ax(p, l=1.0):
    """sqrt(2/pi) l p^(3/2) exp(-l^2 p / 2), evaluated inline as the oracle."""
    return math.sqrt(2 / math.pi) * l * p**1.5 * math.exp(-l * l * p / 2)


class TestAssemble:
    def test_zero_drift_is_laplacian(self):
        g = Grid1D(1.0, 9)
        pot = build_potential_1d("constant", g, c=0.0)
        pen = assemble_pencil(pot, 17.0)
        np.testing.assert_allclose(pen.diag_A, 2.0 / g.h**2)
        np.testing.assert_allclose(pen.off_A, -1.0 / g.h**2)
        np.testing.assert_allclose(pen.diag_M, 1.0)

    def test_p_zero_matches_laplacian_for_any_potential(self, pot_ax):
        pen = assemble_pencil(pot_ax, 0.0)
        h = pot_ax.grid.h
        np.testing.assert_allclose(pen.diag_A, 2.0 / h**2)
        np.testing.assert_allclose(pen.diag_M, 1.0)

    def test_minimum_mass_weight(self, pot_ax):
        pen = assemble_pencil(pot_ax, 40.0)
        # Dirichlet rows eliminated: the extreme interior node sits at 1-h
        h = pot_ax.grid.h
        assert pen.diag_M.min() == pytest.approx(np.exp(-20.0 * (1 - h) ** 2),
                                                 rel=1e-12)
        assert pen.diag_M.min() == pytest.approx(np.exp(-20.0), rel=0.05)
        assert pen.scale_log == pytest.approx(0.0, abs=1e-12)  # min b = 0

    def test_overflow_guard(self, pot_ax):
        with pytest.raises(OverflowGuardError, match="asym"):
            assemble_pencil(pot_ax, 1201.0)  # p * 0.5 > 600
        assemble_pencil(pot_ax, 1199.0)      # just below the guard

    def test_negative_p_rejected(self, pot_ax):
        with pytest.raises(ValueError):
            assemble_pencil(pot_ax, -1.0)


class TestPrincipal:
    def test_dirichlet_baseline(self, grid_fine):
        pot = build_potential_1d("constant", grid_fine, c=0.0)
        pair = principal_eig(assemble_pencil(pot, 0.0))
        exact = np.pi**2 / 4
        assert pair.value == pytest.approx(exact, rel=1e-6)
        xs = grid_fine.nodes()
        np.testing.assert_allclose(pair.u, np.cos(np.pi * xs / 2), atol=5e-7)
        assert pair.residual < 1e-10
        assert pair.index == 1

    @pytest.mark.parametrize("c,p", [(0.5, 5.0), (1.0, 10.0), (2.0, 10.0)])
    def test_constant_drift_shift(self, grid_fine, c, p):
        pot = build_potential_1d("constant", grid_fine, c=c)
        lam_p = principal_eig(assemble_pencil(pot, p)).value
        lam_0 = principal_eig(assemble_pencil(pot, 0.0)).value
        assert lam_p - lam_0 == pytest.approx(p * p * c * c / 4, rel=1e-4)

    def test_ax_p40_asymptotic_band(self, pot_ax):
        lam = principal_eig(assemble_pencil(pot_ax, 40.0)).value
        assert 0.85 <= lam / closed_form_ax(40.0) <= 1.15

    def test_ax_p40_dense_cross_check(self):
        # independent dense generalized eigensolve (LAPACK) at n = 2000
        g = Grid1D(1.0, 2000)
        pot = build_potential_1d("power", g, alpha=2)
        p, h = 40.0, g.h
        pen = assemble_pencil(pot, p)
        lam = principal_eig(pen).value
        A = (np.diag(pen.diag_A) + np.diag(pen.off_A, 1) + np.diag(pen.off_A, -1))
        M = np.diag(pen.diag_M)
        lam_dense = eigh(A, M, subset_by_index=[0, 0], eigvals_only=True,
                         driver="gvx")[0]
        # the dense route only reaches the absolute floor ~ eps*||A||, which
        # is 4e-3 of lam here; the pencil route must sit inside that floor
        floor = np.finfo(float).eps * 2 * np.max(pen.diag_A) / lam
        assert floor < 0.05
        assert lam == pytest.approx(lam_dense, rel=floor)

    def test_positivity_and_normalization(self, pot_sine_wide):
        pair = principal_eig(assemble_pencil(pot_sine_wide, 25.0))
        assert np.all(pair.u > 0)
        assert pair.u.max() == 1.0

    def test_rayleigh_quotient_compensated(self, pot_ax):
        # the positive-sum quotient is summation-order insensitive
        pen = assemble_pencil(pot_ax, 40.0)
        pair = principal_eig(pen)
        u = pair.u
        du = np.diff(u, prepend=0.0, append=0.0)
        num = math.fsum(pen.edge_w * du * du) / pen.h
        den = math.fsum(pen.diag_M * u * u) * pen.h
        assert num / den == pytest.approx(rayleigh_quotient(pen, u), rel=1e-12)

    @pytest.mark.parametrize("kind,params,p", [
        ("power", {"alpha": 2}, 20.0),
        ("sine", {}, 10.0),
        ("quartic", {}, 8.0),
    ])
    def test_grid_convergence_order(self, kind, params, p):
        lams = []
        for n in (500, 1001, 2003):
            l = 1.4 if kind != "quartic" else 2.0
            pot = build_potential_1d(kind, Grid1D(l, n), **params)
            lams.append(principal_eig(assemble_pencil(pot, p)).value)
        order = np.log2(abs(lams[0] - lams[1]) / abs(lams[1] - lams[2]))
        assert order >= 1.9

    def test_domain_monotonicity(self):
        # principal eigenvalue grows when the interval shrinks
        lam_full = principal_eig(assemble_pencil(
            build_potential_1d("power", Grid1D(1.0, 2001), alpha=2), 10.0)).value
        lam_sub = principal_eig(assemble_pencil(
            build_potential_1d("power", Grid1D(0.7, 2001), alpha=2), 10.0)).value
        assert lam_sub > lam_full

    def test_comparison_order_identity(self, pot_ax):
        # inf q(p1+p2) <= ((p1+p2)/(p1-p2)) (lam(p1)-lam(p2)) <= sup q(p1+p2)
        p1, p2 = 12.0, 8.0
        lam1 = principal_eig(assemble_pencil(pot_ax, p1)).value
        lam2 = principal_eig(assemble_pencil(pot_ax, p2)).value
        q = liouville_q(pot_ax, p1 + p2)
        mid = (p1 + p2) / (p1 - p2) * (lam1 - lam2)
        assert q.min() - 1e-6 <= mid <= q.max() + 1e-6

    def test_nonconvergence_error_payload(self, pot_ax):
        pen = assemble_pencil(pot_ax, 10.0)
        with pytest.raises(ConvergenceError) as exc:
            principal_eig(pen, rtol=1e-16, max_iter=2)
        assert exc.value.last_value is not None


class TestBisection:
    def test_dirichlet_first_three(self):
        g = Grid1D(1.0, 2001)
        pot = build_potential_1d("constant", g, c=0.0)
        pairs = eigs_bisection(assemble_pencil(pot, 0.0), 3)
        for k, pr in enumerate(pairs, start=1):
            assert pr.value == pytest.approx((k * np.pi / 2) ** 2, rel=1e-5)
            assert pr.index == k
        assert pairs[0].value < pairs[1].value < pairs[2].value

    def test_constant_drift_uniform_shift(self):
        g = Grid1D(1.0, 2001)
        pot = build_potential_1d("constant", g, c=1.0)
        e0 = eigs_bisection(assemble_pencil(pot, 0.0), 2)
        e5 = eigs_bisection(assemble_pencil(pot, 5.0), 2)
        gap0 = e0[1].value - e0[0].value
        gap5 = e5[1].value - e5[0].value
        assert gap5 == pytest.approx(gap0, rel=1e-6)

    def test_double_well_near_degeneracy(self, pot_quartic):
        # two equal wells: lam2 - lam1 exponentially small relative to lam3
        pairs = eigs_bisection(assemble_pencil(pot_quartic, 40.0), 3)
        lam1, lam2, lam3 = (pr.value for pr in pairs)
        assert (lam2 - lam1) / lam3 < 1e-3
        assert lam1 < lam2 <= lam3

    def test_agrees_with_principal(self, pot_ax):
        pen = assemble_pencil(pot_ax, 30.0)
        lam_b = eigs_bisection(pen, 1)[0].value
        lam_p = principal_eig(pen).value
        assert lam_b == pytest.approx(lam_p, rel=1e-8)

    def test_excited_state_sign_change(self, pot_ax):
        pairs = eigs_bisection(assemble_pencil(pot_ax, 10.0), 2)
        u2 = pairs[1].u
        assert np.any(u2[:-1] * u2[1:] < 0)
        assert np.all(pairs[0].u > 0)

    def test_scaling_invariance(self, pot_ax):
        pen = assemble_pencil(pot_ax, 10.0)
        lam_a = [pr.value for pr in eigs_bisection(pen, 2)]
        lam_b = [pr.value for pr in eigs_bisection(pen.scaled(7.25), 2)]
        np.testing.assert_allclose(lam_a, lam_b, rtol=1e-8)

    def test_count_below_consistency(self, pot_ax):
        pen = assemble_pencil(pot_ax, 10.0)
        lam1 = principal_eig(pen).value
        assert count_below(pen, lam1 * 0.99) == 0
        assert count_below(pen, lam1 * 1.01) == 1

    def test_count_stable_in_graded_regime(self, pot_sine_wide):
        # weights span ~ e^90 here; the edge recursion must keep inertia exact
        pen = assemble_pencil(pot_sine_wide, 45.0)
        lam1 = principal_eig(pen).value
        assert count_below(pen, lam1 * 0.9) == 0
        assert count_below(pen, lam1 * 1.1) == 1

    def test_m_too_large(self, pot_ax):
        pen = assemble_pencil(pot_ax, 1.0)
        with pytest.raises(ValueError):
            eigs_bisection(pen, pen.n + 1)


class TestAdjoint:
    def test_p_zero_identity(self, pot_ax):
        pair = principal_eig(assemble_pencil(pot_ax, 0.0))
        v = adjoint_eigenfunction(pair, pot_ax, 0.0)
        np.testing.assert_allclose(v, pair.u, rtol=1e-12)

    def test_concentrates_at_well_bottom(self, pot_ax):
        pair = principal_eig(assemble_pencil(pot_ax, 40.0))
        v = adjoint_eigenfunction(pair, pot_ax, 40.0)
        xs = pot_ax.grid.nodes()
        assert abs(xs[np.argmax(v)]) < 0.01
        assert v.max() == pytest.approx(1.0)
        assert np.all(v > 0)

    def test_constant_b(self):
        g = Grid1D(1.0, 501)
        pot = build_potential_1d("constant", g, c=0.0)
        pair = principal_eig(assemble_pencil(pot, 3.0))
        v = adjoint_eigenfunction(pair, pot, 3.0)
        np.testing.assert_allclose(v, pair.u, rtol=1e-12)


class TestSelfadjointCheck:
    def test_p_zero_routes_coincide(self):
        pot = build_potential_1d("power", Grid1D(1.0, 1000), alpha=2)
        chk = selfadjoint_check(pot, 0.0, rtol=1e-8)
        assert not chk.skipped
        assert chk.rel_diff < 1e-10

    def test_moderate_p_agreement(self):
        # both discretizations are second order; their gap at n = 4000 was
        # measured at 3.3e-6 relative (dominated by differing h^2 constants)
        pot = build_potential_1d("power", Grid1D(1.0, 4000), alpha=2)
        chk = selfadjoint_check(pot, 10.0, rtol=1e-5)
        assert not chk.skipped
        assert chk.rel_diff <= 1e-5

    def test_deep_regime_skips_with_floor(self):
        pot = build_potential_1d("power", Grid1D(1.0, 4000), alpha=2)
        chk = selfadjoint_check(pot, 80.0, rtol=1e-5)
        assert chk.skipped
        assert chk.lam_schrodinger is None
        assert chk.floor > 1.0


# --------------------------------------------------------------------------
# LDL^T kernels against the elementwise loops they must reproduce bit for bit
# --------------------------------------------------------------------------

def reference_edge_ldlt(pencil, sigma):
    """The pivot recursion as an elementwise numpy loop (test oracle)."""
    gamma = pencil.edge_w / pencil.h**2
    m = pencil.diag_M
    n = pencil.n
    d = np.empty(n)
    e = gamma[0] - sigma * m[0]
    d[0] = gamma[1] + e
    for i in range(1, n):
        denom = gamma[i] + e
        if denom == 0.0:
            denom = 1e-300
        e = -sigma * m[i] + gamma[i] * e / denom
        d[i] = gamma[i + 1] + e
    lo = -gamma[1:n] / d[: n - 1]
    return d, lo


def reference_ldlt_solve(d, lo, rhs):
    """L D L^T solve as an elementwise numpy loop (test oracle)."""
    n = rhs.shape[0]
    z = np.empty(n)
    z[0] = rhs[0]
    for i in range(1, n):
        z[i] = rhs[i] - lo[i - 1] * z[i - 1]
    z /= d
    y = np.empty(n)
    y[n - 1] = z[n - 1]
    for i in range(n - 2, -1, -1):
        y[i] = z[i] - lo[i] * y[i + 1]
    return y


def assert_kernels_match(pen, sigma, rhs_list=()):
    """Pivots, lo, Sturm count and the given solves equal the oracle."""
    with np.errstate(all="ignore"):
        d_ref, lo_ref = reference_edge_ldlt(pen, sigma)
        d, lo = _edge_ldlt(pen, sigma)
        count = count_below(pen, sigma)
    assert np.array_equal(d, d_ref, equal_nan=True)
    assert np.array_equal(lo, lo_ref, equal_nan=True)
    assert count == int(np.count_nonzero(d_ref < 0))
    for rhs in rhs_list:
        y, info = lapack.dpttrs(d, lo, rhs)
        assert info == 0
        with np.errstate(all="ignore"):
            y_ref = reference_ldlt_solve(d_ref, lo_ref, rhs)
        assert np.array_equal(y, y_ref, equal_nan=True)
    return d_ref


CATALOG_FIXTURES = ["pot_ax", "pot_sine_wide", "pot_quartic"]


class TestKernelOracle:
    @pytest.mark.parametrize("name", CATALOG_FIXTURES)
    @pytest.mark.parametrize("p", [0.0, 30.0, 40.0, "spread290"])
    def test_catalog_pencils(self, request, name, p):
        pot = request.getfixturevalue(name)
        if p == "spread290":
            p = 290.0 / (float(pot.b.max()) - float(pot.b.min()))
        pen = assemble_pencil(pot, p)
        rng = np.random.default_rng(7)
        rhs = [pen.diag_M.copy(), rng.standard_normal(pen.n)]
        assert_kernels_match(pen, 0.0, rhs)
        lam1 = principal_eig(pen).value
        d = assert_kernels_match(pen, 1.01 * lam1, rhs)
        assert np.count_nonzero(d < 0) == 1

    @pytest.mark.parametrize("name", CATALOG_FIXTURES)
    def test_log_sigma_grid(self, request, name):
        pen = assemble_pencil(request.getfixturevalue(name), 40.0)
        lam1 = principal_eig(pen).value
        negatives = [np.count_nonzero(assert_kernels_match(pen, sigma) < 0)
                     for sigma in lam1 * np.exp(np.linspace(-30.0, 60.0, 300))]
        assert negatives[0] == 0 and negatives[-1] > 0
        assert negatives == sorted(negatives)

    def test_scaled_pencil(self, pot_sine_wide):
        pen = assemble_pencil(pot_sine_wide, 30.0).scaled(7.25)
        lam1 = principal_eig(pen).value
        for sigma in (0.0, 0.5 * lam1, 3.0 * lam1):
            assert_kernels_match(pen, sigma, [pen.diag_M.copy()])

    def test_numpy_scalar_sigma(self, pot_quartic):
        pen = assemble_pencil(pot_quartic, 30.0)
        sigma = np.exp(np.float64(np.log(principal_eig(pen).value) + 0.5))
        assert isinstance(sigma, np.float64)
        assert_kernels_match(pen, sigma)
        d, lo = _edge_ldlt(pen, sigma)
        d_f, lo_f = _edge_ldlt(pen, float(sigma))
        assert np.array_equal(d, d_f) and np.array_equal(lo, lo_f)

    def test_zero_denominator_guard(self):
        # gamma = 1, m = 2, sigma = 1: e_0 = -1, so gamma_1 + e_0 == 0
        n = 9
        pen = TridiagPencil(n=n, diag_M=np.full(n, 2.0), edge_w=np.ones(n + 1),
                            h=1.0, scale_log=0.0)
        d = assert_kernels_match(pen, 1.0, [np.ones(n)])
        assert d[1] < -1e299 and np.all(np.isfinite(d))

    @given(data=st.data(), n=st.integers(2, 60))
    @settings(max_examples=60, deadline=None)
    def test_random_graded_weights(self, data, n):
        logw = st.floats(-200.0, 0.0)
        edge_w = 10.0 ** np.array(data.draw(st.lists(logw, min_size=n + 1,
                                                     max_size=n + 1)))
        diag_M = 10.0 ** np.array(data.draw(st.lists(logw, min_size=n,
                                                     max_size=n)))
        h = data.draw(st.floats(1e-3, 1.0))
        pen = TridiagPencil(n=n, diag_M=diag_M, edge_w=edge_w, h=h,
                            scale_log=0.0)
        sigma = data.draw(st.sampled_from([0.0, 1e-300, 1e-100, 1.0, 1e100]))
        rhs = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                          max_size=n)))
        assert_kernels_match(pen, sigma, [diag_M, rhs])


class TestSolverPathsOracle:
    """principal_eig and eigs_bisection return the same bits when their
    kernels are swapped for the elementwise oracles."""

    class _ReferenceLapack:
        @staticmethod
        def dpttrs(d, lo, rhs):
            return reference_ldlt_solve(d, lo, rhs), 0

    def _both(self, monkeypatch, run):
        fast = run()
        with monkeypatch.context() as mp:
            mp.setattr(eigensolve1d, "lapack", self._ReferenceLapack)
            mp.setattr(eigensolve1d, "_edge_ldlt", reference_edge_ldlt)
            slow = run()
        return fast, slow

    @pytest.mark.parametrize("name", CATALOG_FIXTURES)
    def test_principal_eig(self, request, monkeypatch, name):
        pen = assemble_pencil(request.getfixturevalue(name), 40.0)
        fast, slow = self._both(monkeypatch, lambda: principal_eig(pen))
        assert fast.value == slow.value and fast.residual == slow.residual
        assert np.array_equal(fast.u, slow.u)

    def test_eigs_bisection(self, monkeypatch, pot_quartic):
        pen = assemble_pencil(pot_quartic, 30.0)
        fast, slow = self._both(monkeypatch, lambda: eigs_bisection(pen, 3))
        for a, b in zip(fast, slow):
            assert a.value == b.value and a.residual == b.residual
            assert np.array_equal(a.u, b.u)


class TestRtolValidation:
    @pytest.mark.parametrize("rtol", [0.0, -1.0, float("nan"), float("inf")])
    def test_bisection_rejects_rtol(self, pot_ax, rtol):
        with pytest.raises(ValueError, match="rtol"):
            eigs_bisection(assemble_pencil(pot_ax, 10.0), 2, rtol=rtol)

    @pytest.mark.parametrize("rtol", [0.0, -1.0, float("nan"), float("inf")])
    def test_principal_rejects_rtol(self, pot_ax, rtol):
        with pytest.raises(ValueError, match="rtol"):
            principal_eig(assemble_pencil(pot_ax, 10.0), rtol=rtol)


# --------------------------------------------------------------------------
# the principal path against its former stand-alone loop
# --------------------------------------------------------------------------

def reference_apply_A(pencil, u):
    out = pencil.diag_A * u
    out[:-1] += pencil.off_A * u[1:]
    out[1:] += pencil.off_A * u[:-1]
    return out


def reference_residual(pencil, lam, u):
    r = reference_apply_A(pencil, u) - lam * pencil.diag_M * u
    anorm = float(np.max(np.abs(pencil.diag_A))
                  + 2.0 * (np.max(np.abs(pencil.off_A)) if pencil.off_A.size else 0.0))
    return float(np.max(np.abs(r))) / (anorm * float(np.max(np.abs(u))))


def reference_principal_eig(pencil, rtol=1e-10, max_iter=10000):
    """Unshifted inverse iteration as its own loop, with no projection, no
    iterate check and a final division by max(u) (test oracle).  Returns
    (pair, iterations)."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    d, lo = _edge_ldlt(pencil, 0.0)
    if np.any(d <= 0):
        raise ValueError("pencil stiffness is not positive definite")
    u = np.ones(pencil.n)
    lam_prev = np.inf
    for it in range(1, max_iter + 1):
        y, info = lapack.dpttrs(d, lo, pencil.diag_M * u)
        if info != 0:
            raise np.linalg.LinAlgError(f"dpttrs: bad argument {-info}")
        y /= np.max(np.abs(y))
        lam = rayleigh_quotient(pencil, y)
        u = y
        if abs(lam - lam_prev) <= rtol * lam:
            break
        lam_prev = lam
    else:
        raise ConvergenceError(
            f"inverse iteration did not converge in {max_iter} iterations",
            last_value=lam, last_delta=abs(lam - lam_prev))
    u = u / np.max(u)
    pair = EigenPair(value=lam, u=u, residual=reference_residual(pencil, lam, u),
                     index=1)
    return pair, it


def counted_principal_eig(pencil, **kwargs):
    """principal_eig and the number of Rayleigh quotients it took."""
    calls = []

    def counting(pen, u):
        calls.append(None)
        return rayleigh_quotient(pen, u)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolve1d, "rayleigh_quotient", counting)
        pair = principal_eig(pencil, **kwargs)
    return pair, len(calls)


def assert_principal_matches(pen, **kwargs):
    pair, iterations = counted_principal_eig(pen, **kwargs)
    ref, ref_iterations = reference_principal_eig(pen, **kwargs)
    assert iterations == ref_iterations
    assert pair.value == ref.value and pair.residual == ref.residual
    assert np.array_equal(pair.u, ref.u) and pair.index == ref.index
    return pair


class TestPrincipalLoopOracle:
    """The unshifted call of the shared inverse-iteration loop returns the
    bits of the former principal loop, after the same number of steps."""

    @pytest.mark.parametrize("name", CATALOG_FIXTURES)
    @pytest.mark.parametrize("p", [0.0, 10.0, 40.0, "spread290"])
    def test_catalog_pencils(self, request, name, p):
        pot = request.getfixturevalue(name)
        if p == "spread290":
            p = 290.0 / (float(pot.b.max()) - float(pot.b.min()))
        pair = assert_principal_matches(assemble_pencil(pot, p))
        assert pair.u.max() == 1.0

    def test_scaled_pencil(self, pot_sine_wide):
        pen = assemble_pencil(pot_sine_wide, 30.0)
        pair = assert_principal_matches(pen.scaled(7.25))
        assert pair.value == pytest.approx(principal_eig(pen).value, rel=1e-12)

    def test_nonconvergence_payload(self, pot_ax):
        # same value as the former loop; last_delta is now the last change
        # of the quotient (the former loop reported 0.0, the difference of
        # the last quotient with itself)
        pen = assemble_pencil(pot_ax, 10.0)
        prev_value = np.inf
        for max_iter in (1, 2, 3, 4):
            with pytest.raises(ConvergenceError) as new:
                principal_eig(pen, rtol=1e-16, max_iter=max_iter)
            with pytest.raises(ConvergenceError) as ref:
                reference_principal_eig(pen, rtol=1e-16, max_iter=max_iter)
            assert str(new.value) == str(ref.value)
            assert new.value.last_value == ref.value.last_value
            assert ref.value.last_delta == 0.0
            assert new.value.last_delta == abs(ref.value.last_value - prev_value)
            prev_value = ref.value.last_value

    @given(data=st.data(), n=st.integers(2, 60))
    @settings(max_examples=40, deadline=None)
    def test_random_graded_weights(self, data, n):
        logw = st.floats(-200.0, 0.0)
        edge_w = 10.0 ** np.array(data.draw(st.lists(logw, min_size=n + 1,
                                                     max_size=n + 1)))
        diag_M = 10.0 ** np.array(data.draw(st.lists(logw, min_size=n,
                                                     max_size=n)))
        h = data.draw(st.floats(1e-3, 1.0))
        pen = TridiagPencil(n=n, diag_M=diag_M, edge_w=edge_w, h=h,
                            scale_log=0.0)
        try:
            ref, _ = reference_principal_eig(pen, max_iter=2000)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as new:
                principal_eig(pen, max_iter=2000)
            assert new.value.last_value == exc.last_value
            assert not new.value.last_delta <= 1e-10 * exc.last_value
        else:
            assert_principal_matches(pen, max_iter=2000)
