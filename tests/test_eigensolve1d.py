import dataclasses
import decimal
import math
import runpy
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import eigh, eigh_tridiagonal, lapack

from driftwell import (ConvergenceError, Grid1D, OverflowGuardError,
                       adjoint_eigenfunction, assemble_pencil,
                       build_potential_1d, eigs_bisection, liouville_q,
                       potential_from_samples, principal_eig,
                       product_formula, rayleigh_quotient)
from driftwell import eigensolve1d
from driftwell.eigensolve1d import (RELIABLE_SPREAD, EigenPair, TridiagPencil,
                                    _edge_ldlt)
from driftwell.potential import weighted_graph


def float_count_below(pencil, sigma):
    """Inertia of A - sigma M from the float pivots: the number of
    eigenvalues below sigma while the shifted products stay normal."""
    return int(np.count_nonzero(_edge_ldlt(pencil, sigma)[0] < 0))


def assert_same_pair(pair, ref):
    """The two pairs are equal bit for bit."""
    assert pair.value == ref.value and pair.residual == ref.residual
    assert np.array_equal(pair.u, ref.u) and pair.index == ref.index


def scaled(pen, factor):
    """pen with A and M both multiplied by factor and scale_log adjusted;
    the generalized eigenvalues are unchanged."""
    return dataclasses.replace(pen, diag_M=pen.diag_M * factor,
                               edge_w=pen.edge_w * factor,
                               scale_log=pen.scale_log - np.log(factor))


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
            assemble_pencil(pot_ax, 601.0)  # p * 0.5 > RELIABLE_SPREAD = 300
        assemble_pencil(pot_ax, 599.0)      # just inside the window

    def test_benchmark_mirrors_the_window(self):
        # the benchmark routes sweep rows by its own copy of the window (it
        # does not import the program's constant); the two must agree
        path = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"
        assert (runpy.run_path(str(path))["RELIABLE_SPREAD"]
                == eigensolve1d.RELIABLE_SPREAD == 300.0)

    def test_negative_p_rejected(self, pot_ax):
        with pytest.raises(ValueError):
            assemble_pencil(pot_ax, -1.0)


def reference_assemble_pencil(pot, p):
    """Assembly with its own weights: b_mid when the potential carries it,
    else the geometric mean of the nodal weights (test oracle)."""
    if p < 0:
        raise ValueError("p must be nonnegative")
    b = pot.b
    bmin = float(b.min())
    spread = p * (float(b.max()) - bmin)
    if spread > RELIABLE_SPREAD:
        raise OverflowGuardError(
            f"p*(max b - min b) = {spread:.3g} exceeds {RELIABLE_SPREAD:.0f}, "
            "past which the eigenvalue loses its relative accuracy; use the "
            "asymptotics module (CLI subcommand 'asym') in this regime")
    w_node = np.exp(-p * (b - bmin))
    if pot.b_mid is not None:
        w_mid = np.exp(-p * (pot.b_mid - bmin))
    else:
        w_mid = np.sqrt(w_node[:-1] * w_node[1:])
    return TridiagPencil(diag_M=w_node[1:-1].copy(), edge_w=w_mid,
                         h=pot.grid.h, scale_log=-p * bmin)


def two_well_samples(n=401):
    """The deeper well (depth 0.547) does not hold min b = -1, so the
    all-ones start vector is tiny along u_1."""
    grid = Grid1D(1.0, n)
    xs = grid.nodes_with_endpoints()
    return potential_from_samples(
        grid, np.interp(xs, [-1, -0.5, 0, 0.5, 1], [-0.5, -1.0, 0.05, -0.5, 1.0]))


class TestAssembleOracle:
    """The pencil is the exp of weighted_graph: the former assembly's bits
    on every catalog potential, one convention change on sampled ones."""

    @pytest.mark.parametrize("name", ["pot_ax", "pot_sine_wide", "pot_quartic"])
    @pytest.mark.parametrize("p", [0.0, 10.0, 40.0, 60.0])
    def test_catalog_bit_identical(self, request, name, p):
        pot = request.getfixturevalue(name)
        pen, ref = assemble_pencil(pot, p), reference_assemble_pencil(pot, p)
        assert np.array_equal(pen.diag_M, ref.diag_M)
        assert np.array_equal(pen.edge_w, ref.edge_w)
        assert pen.scale_log == ref.scale_log and pen.h == ref.h

    @pytest.mark.parametrize("name", ["pot_ax", "pot_sine_wide", "pot_quartic"])
    def test_refusal_message_unchanged(self, request, name):
        pot = request.getfixturevalue(name)
        p = 1.0001 * RELIABLE_SPREAD / (float(pot.b.max()) - float(pot.b.min()))
        with pytest.raises(OverflowGuardError) as new:
            assemble_pencil(pot, p)
        with pytest.raises(OverflowGuardError) as ref:
            reference_assemble_pencil(pot, p)
        assert str(new.value) == str(ref.value)

    @pytest.mark.parametrize("p", [10.0, 80.0, 150.0])
    def test_sampled_edges_within_1e_13(self, p):
        # sampled potentials carry no b_mid: the edges are now
        # exp(-p(mean b - min b)), the quotient's convention, in place of
        # sqrt(w_i w_{i+1}); equal in exact arithmetic, rounded apart
        pot = two_well_samples()
        pen, ref = assemble_pencil(pot, p), reference_assemble_pencil(pot, p)
        assert np.array_equal(pen.diag_M, ref.diag_M)
        np.testing.assert_allclose(pen.edge_w, ref.edge_w, rtol=1e-13, atol=0)
        assert principal_eig(pen).value == pytest.approx(
            principal_eig(ref).value, rel=1e-13, abs=0)

    def test_graph_finite_where_exp_underflows(self, pot_ax, pot_sine_wide):
        # past the float range a log weight is -inf (weight 0), unwarned
        assert weighted_graph(pot_sine_wide, 1e308)[0].min() == -np.inf
        p = 1e5   # spread 5e4
        log_mass, log_edge, _ = weighted_graph(pot_ax, p)
        assert -log_mass.min() == p * (pot_ax.b.max() - pot_ax.b.min())
        assert log_mass.max() == 0.0
        for logs in (log_mass, *log_edge):
            assert np.all(np.isfinite(logs)) and logs.max() <= 0.0
        assert np.any(np.exp(log_mass) == 0.0)
        with pytest.raises(OverflowGuardError):
            assemble_pencil(pot_ax, p)


class TestPastTheWindow:
    """The window is a documented switch point, not where the float solvers
    fail: on pencils built by hand from weighted_graph (assembly refuses
    them) at spreads 400-600, the two float solvers agree in log lambda,
    and on the wide sine they match the product formula.  Measured: at most
    1.2e-13 apart; at spread 700 the quartic's two part by 1.2e-2."""

    @pytest.mark.parametrize("spread", [400.0, 500.0, 600.0])
    @pytest.mark.parametrize("name", ["pot_ax", "pot_sine_wide", "pot_quartic"])
    def test_float_solvers_agree(self, request, name, spread):
        pot = request.getfixturevalue(name)
        p = spread / (float(pot.b.max()) - float(pot.b.min()))
        log_mass, (log_edge,), scale_log = weighted_graph(pot, p)
        pen = TridiagPencil(diag_M=np.exp(log_mass[1:-1]),
                            edge_w=np.exp(log_edge), h=pot.grid.h,
                            scale_log=scale_log)
        with pytest.raises(OverflowGuardError):
            assemble_pencil(pot, p)
        log_lam = math.log(principal_eig(pen).value)
        assert math.log(eigs_bisection(pen, 1)[0].value) == pytest.approx(
            log_lam, rel=0.0, abs=1e-12)
        if name == "pot_sine_wide":
            assert product_formula(pot, p).log_lambda == pytest.approx(
                log_lam, rel=0.0, abs=1e-12)


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

    @pytest.mark.parametrize("p", [40.0, 80.0, 150.0])
    def test_deeper_well_away_from_min_b(self, p):
        # inverse iteration from all-ones stopped on lambda_2 at p = 80 (63x
        # too large) and 150 (2000x); the certificate hands it to bisection
        pen = assemble_pencil(two_well_samples(), p)
        pair = principal_eig(pen)
        assert pair.index == 1 and pair.u.min() > 0
        assert pair.value == pytest.approx(eigs_bisection(pen, 1)[0].value,
                                           rel=1e-10)
        assert decimal_count_below(pen, pair.value * (1 - 1e-8)) == 0

    def test_nonconvergence_falls_back_to_bisection(self, pot_ax):
        # two steps cannot meet rtol 1e-16, so the pair is bisection's
        pen = assemble_pencil(pot_ax, 10.0)
        assert_same_pair(principal_eig(pen, rtol=1e-16, max_iter=2),
                         eigs_bisection(pen, 1, 1e-16)[0])

    def test_step_cap_hands_slow_loops_to_bisection(self):
        # lambda_2/lambda_1 is near 1 under constant drift: uncapped, the
        # loop crawled 285 steps here before the bound rejected its pair.
        # Now it stops at 64, and the only other quotients are the ones
        # bisection's own eigenvector iteration takes.
        pen = assemble_pencil(
            build_potential_1d("constant", Grid1D(1.0, 4001), c=1.0), 30.0)
        pair, calls = counted_principal_eig(pen)
        (ref,), bisection_calls = counted_quotients(eigs_bisection, pen, 1)
        assert bisection_calls == 3 and calls == 64 + bisection_calls
        assert_same_pair(pair, ref)

    @pytest.mark.parametrize("p", [10.0, 30.0, 60.0])
    def test_constant_drift_within_1e12(self, p):
        # the loop meets rtol 1e-10 here 1e-10 to 6e-9 above lambda_1, and
        # the certificate rejects it
        pen = assemble_pencil(
            build_potential_1d("constant", Grid1D(1.0, 401), c=1.0), p)
        lam = principal_eig(pen).value
        assert decimal_count_below(pen, lam * (1.0 - 1e-12)) == 0
        assert decimal_count_below(pen, lam * (1.0 + 1e-12)) == 1


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
        lam_b = [pr.value for pr in eigs_bisection(scaled(pen, 7.25), 2)]
        np.testing.assert_allclose(lam_a, lam_b, rtol=1e-8)

    def test_count_below_consistency(self, pot_ax):
        pen = assemble_pencil(pot_ax, 10.0)
        lam1 = principal_eig(pen).value
        assert float_count_below(pen, lam1 * 0.99) == 0
        assert float_count_below(pen, lam1 * 1.01) == 1

    def test_count_stable_in_graded_regime(self, pot_sine_wide):
        # weights span ~ e^90 here; the edge recursion must keep inertia exact
        pen = assemble_pencil(pot_sine_wide, 45.0)
        lam1 = principal_eig(pen).value
        assert float_count_below(pen, lam1 * 0.9) == 0
        assert float_count_below(pen, lam1 * 1.1) == 1

    def test_m_too_large(self, pot_ax):
        pen = assemble_pencil(pot_ax, 1.0)
        with pytest.raises(ValueError):
            eigs_bisection(pen, pen.n + 1)

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one(self, pot_ax, m):
        with pytest.raises(ValueError, match=f"asked for {m} eigenvalues"):
            eigs_bisection(assemble_pencil(pot_ax, 1.0), m)


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


# adjoint_eigenfunction's own body before it shared pde2d's log-domain one:
# u is clamped at 1e-300 before the log.  Kept as the oracle for
# TestAdjointOracle.
def reference_adjoint_eigenfunction(pair, pot, p):
    b_int = pot.b[1:-1]
    with np.errstate(divide="ignore"):
        logv = np.where(pair.u > 0, np.log(np.maximum(pair.u, 1e-300)), -np.inf) - p * b_int
    return np.exp(logv - np.max(logv))


class TestAdjointOracle:
    """The shared body differs from the clamped one only where
    0 < u < 1e-300, which no eigenvector inside the window reaches."""

    @pytest.mark.parametrize("spread", [0.0, 150.0, 300.0])
    @pytest.mark.parametrize("kind,l,params", [
        ("power", 1.0, {"alpha": 2.0}), ("sine", 1.5 * np.pi, {}),
        ("quartic", 2.0, {}), ("constant", 3.0, {"c": -2.0})])
    def test_window_bit_identical(self, kind, l, params, spread):
        pot = build_potential_1d(kind, Grid1D(l, 801), **params)
        p = spread / (float(pot.b.max()) - float(pot.b.min()))
        pen = assemble_pencil(pot, p)
        for pair in (principal_eig(pen), eigs_bisection(pen, 2)[0]):
            assert pair.u.min() > 1e-300
            v = adjoint_eigenfunction(pair, pot, p)
            assert np.array_equal(v, reference_adjoint_eigenfunction(pair, pot, p))

    def test_unclamped_below_1e_300(self):
        pot = build_potential_1d("constant", Grid1D(1.0, 5), c=0.0)
        u = np.array([1e-310, 0.5, 1.0, 0.0, -1.0])
        pair = EigenPair(value=1.0, u=u, residual=0.0, index=1)
        v = adjoint_eigenfunction(pair, pot, 0.0)
        assert v[0] == pytest.approx(1e-310, rel=1e-6)    # clamped: 1e-300
        assert np.array_equal(v[1:], reference_adjoint_eigenfunction(pair, pot, 0.0)[1:])
        with pytest.raises(ValueError, match="no positive"):
            adjoint_eigenfunction(EigenPair(1.0, -np.abs(u), 0.0, 1), pot, 0.0)


def schrodinger_lambda(pot, p):
    """Principal eigenvalue of the Schrodinger form -w'' + q(x, p) w on the
    same grid: 2/h^2 + q on the diagonal, by a standard symmetric
    tridiagonal eigensolver.  Its absolute rounding floor is about
    max|q| n eps, so it checks the pencil only where that is below the
    tolerance (moderate p)."""
    h = pot.grid.h
    return float(eigh_tridiagonal(2.0 / h**2 + liouville_q(pot, p),
                                  np.full(pot.grid.n - 1, -1.0 / h**2),
                                  select="i", select_range=(0, 0),
                                  eigvals_only=True)[0])


class TestSchrodingerCrossCheck:
    def test_p_zero_routes_coincide(self):
        pot = build_potential_1d("power", Grid1D(1.0, 1000), alpha=2)
        lam = principal_eig(assemble_pencil(pot, 0.0), rtol=1e-10).value
        assert abs(schrodinger_lambda(pot, 0.0) - lam) / lam < 1e-10

    def test_moderate_p_agreement(self):
        # both discretizations are second order; their gap at n = 4000 was
        # measured at 3.3e-6 relative (dominated by differing h^2 constants)
        pot = build_potential_1d("power", Grid1D(1.0, 4000), alpha=2)
        lam = principal_eig(assemble_pencil(pot, 10.0), rtol=1e-10).value
        assert abs(schrodinger_lambda(pot, 10.0) - lam) / lam <= 1e-5


# --------------------------------------------------------------------------
# LDL^T kernels: the shifted pivots and the solves reproduce the elementwise
# loops bit for bit; the zero-shift pivots meet a 60-digit reference within
# their summation error bound
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


def decimal_zero_shift_pivots(pencil):
    """Zero-shift pivots d and multipliers lo in 60-digit decimal arithmetic,
    from the same float gamma = w/h^2 as the kernel (test oracle)."""
    gamma = (pencil.edge_w / pencil.h**2).tolist()
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        g = [decimal.Decimal(x) for x in gamma]
        d, resistance = [], decimal.Decimal(0)
        for g_i, g_next in zip(g[:-1], g[1:]):
            resistance += 1 / g_i
            d.append(g_next + 1 / resistance)
        lo = [-g_next / d_i for g_next, d_i in zip(g[1:-1], d)]
    return d, lo


def assert_within_roundoff(values, exact, slack):
    """Each float values[i] lies within (i + slack) 2^-53 of exact[i],
    relative."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        for i, (v, x) in enumerate(zip(values.tolist(), exact)):
            err = abs(decimal.Decimal(v) - x) / abs(x)
            assert err <= (i + slack) * decimal.Decimal(2) ** -53, (i, v, x)


def assert_kernels_match(pen, sigma, rhs_list=()):
    """Pivots, lo, Sturm count and the given solves against the oracles.
    At a nonzero shift the pivots and lo equal the elementwise loop's bits.
    At zero shift they are a cumulative sum of resistances: d_i is i + 1
    reciprocals summed, one reciprocal and one addition, so within
    (i + 3) 2^-53 of the 60-digit reference, and lo_i, one division more,
    within (i + 4) 2^-53.  The solve equals the loop's on the same (d, lo)."""
    with np.errstate(all="ignore"):
        d, lo = _edge_ldlt(pen, sigma)
        count = float_count_below(pen, sigma)
    if sigma == 0:
        d_ref, lo_ref = decimal_zero_shift_pivots(pen)
        assert_within_roundoff(d, d_ref, 3)
        assert_within_roundoff(lo, lo_ref, 4)
        assert count == sum(x < 0 for x in d_ref) == 0
    else:
        with np.errstate(all="ignore"):
            d_ref, lo_ref = reference_edge_ldlt(pen, sigma)
        assert np.array_equal(d, d_ref, equal_nan=True)
        assert np.array_equal(lo, lo_ref, equal_nan=True)
        assert count == int(np.count_nonzero(d_ref < 0))
    for rhs in rhs_list:
        y, info = lapack.dpttrs(d, lo, rhs)
        assert info == 0
        with np.errstate(all="ignore"):
            y_ref = reference_ldlt_solve(d, lo, rhs)
        assert np.array_equal(y, y_ref, equal_nan=True)
    return d


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
        pen = scaled(assemble_pencil(pot_sine_wide, 30.0), 7.25)
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
        pen = TridiagPencil(diag_M=np.full(n, 2.0), edge_w=np.ones(n + 1),
                            h=1.0, scale_log=0.0)
        d = assert_kernels_match(pen, 1.0, [np.ones(n)])
        assert d[1] < -1e299 and np.all(np.isfinite(d))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("edge_w", [
        [1.0, 1.0, 0.0, 1.0, 1.0, 1.0],      # zero interior edge
        [1.0, 1.0, 1e-311, 1.0, 1.0, 1.0],   # 1/gamma overflows
        [0.0, 1.0, 1.0, 1.0, 1.0, 1.0],      # zero boundary edge
    ])
    def test_zero_and_subnormal_edge_weights(self, edge_w):
        # an infinite resistance gives e = 0 past it; the loop's e there is
        # 0 or a subnormal that vanishes against the next gamma, so with the
        # other gammas 4 (every pivot exact in both forms) the pivots are the
        # loop's bits, and neither solver warns
        pen = TridiagPencil(diag_M=np.ones(5), edge_w=np.array(edge_w),
                            h=0.5, scale_log=0.0)
        d, lo = _edge_ldlt(pen, 0.0)
        with np.errstate(all="ignore"):
            d_ref, lo_ref = reference_edge_ldlt(pen, 0.0)
        assert np.array_equal(d, d_ref) and np.array_equal(lo, lo_ref)
        lam = principal_eig(pen).value
        pairs = eigs_bisection(pen, 2)
        assert pairs[0].value == pytest.approx(lam, rel=1e-10)
        assert lam < pairs[1].value

    @given(data=st.data(), n=st.integers(2, 60))
    @settings(max_examples=60, deadline=None)
    def test_random_graded_weights(self, data, n):
        logw = st.floats(-200.0, 0.0)
        edge_w = 10.0 ** np.array(data.draw(st.lists(logw, min_size=n + 1,
                                                     max_size=n + 1)))
        diag_M = 10.0 ** np.array(data.draw(st.lists(logw, min_size=n,
                                                     max_size=n)))
        h = data.draw(st.floats(1e-3, 1.0))
        pen = TridiagPencil(diag_M=diag_M, edge_w=edge_w, h=h,
                            scale_log=0.0)
        sigma = data.draw(st.sampled_from([0.0, 1e-300, 1e-100, 1.0, 1e100]))
        rhs = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n,
                                          max_size=n)))
        assert_kernels_match(pen, sigma, [diag_M, rhs])


class TestSolverPathsOracle:
    """principal_eig and eigs_bisection agree to 1e-12 relative, in the value
    and in the max norm of u, when their kernels are swapped for the
    elementwise oracles, whose zero-shift pivots are the former loop's."""

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

    @staticmethod
    def _agree(fast, slow):
        assert fast.index == slow.index
        assert fast.value == pytest.approx(slow.value, rel=1e-12, abs=0)
        assert (np.max(np.abs(fast.u - slow.u))
                <= 1e-12 * np.max(np.abs(slow.u)))

    @pytest.mark.parametrize("name", CATALOG_FIXTURES)
    def test_principal_eig(self, request, monkeypatch, name):
        pen = assemble_pencil(request.getfixturevalue(name), 40.0)
        self._agree(*self._both(monkeypatch, lambda: principal_eig(pen)))

    def test_eigs_bisection(self, monkeypatch, pot_quartic):
        pen = assemble_pencil(pot_quartic, 30.0)
        fast, slow = self._both(monkeypatch, lambda: eigs_bisection(pen, 3))
        assert len(fast) == len(slow) == 3
        for a, b in zip(fast, slow):
            self._agree(a, b)


# --------------------------------------------------------------------------
# eigs_bisection's values against its former log-sigma Sturm bisection
# --------------------------------------------------------------------------

def reference_gershgorin_upper(pencil):
    m, off_A = pencil.diag_M, pencil.off_A
    center = pencil.diag_A / m
    rad = np.zeros_like(center)
    if off_A.size:
        mm = m[:-1] * m[1:]
        # take the roots apart only where the product leaves the normal range
        t = np.abs(off_A) / np.where(mm >= np.finfo(float).tiny, np.sqrt(mm),
                                     np.sqrt(m[:-1]) * np.sqrt(m[1:]))
        rad[:-1] += t
        rad[1:] += t
    return float(np.max(center + rad))


def reference_positive_floor(pencil):
    """Positive lower bound on lambda_1: (min edge weight / max mass) times
    the plain Dirichlet FD eigenvalue, halved.  Zero, and so no floor in log
    sigma, when an edge weight is zero."""
    n, h = pencil.n, pencil.h
    lam_fd = (4.0 / h**2) * np.sin(np.pi / (2.0 * (n + 1))) ** 2
    return 0.5 * float(np.min(pencil.edge_w) / np.max(pencil.diag_M)) * lam_fd


def reference_log_bisection(pencil, m, rtol=1e-10):
    """eigs_bisection's former eigenvalue stage: Sturm-count bisection in
    log sigma from the floor to the Gershgorin bound, each bracket refined
    to relative width rtol/4; returns the bracket midpoints (test oracle)."""
    lo0 = np.log(reference_positive_floor(pencil))
    hi0 = np.log(reference_gershgorin_upper(pencil) * (1.0 + 1e-12))
    values = []
    for k in range(1, m + 1):
        lo, hi = lo0, hi0
        if values:
            lo = max(lo, np.log(values[-1]) - 40 * rtol - 1e-15)
        while hi - lo > 0.25 * rtol:
            mid = 0.5 * (lo + hi)
            if float_count_below(pencil, np.exp(mid)) >= k:
                hi = mid
            else:
                lo = mid
        values.append(float(np.exp(0.5 * (lo + hi))))
    return values


def reference_pairs(pencil, values, rtol=1e-10):
    """eigs_bisection's eigenvector stage, run from the given values."""
    pairs, vectors = [], []
    for k, lam in enumerate(values, start=1):
        u = eigensolve1d._inverse_iterate(pencil, lam, vectors, rtol)
        lam_rq = rayleigh_quotient(pencil, u)
        if abs(lam_rq - lam) <= 4.0 * rtol * lam + 1e-300:
            lam = lam_rq
        pairs.append(EigenPair(value=lam, u=u, residual=0.0, index=k))
        vectors.append(u)
    return pairs


def random_modes_potential(rng):
    """Five random Fourier modes on (-1, 1), n from 21 to 401, with p set
    for a random spread in [0, 300], inside the window."""
    grid = Grid1D(1.0, int(rng.integers(21, 402)))
    xs = grid.nodes_with_endpoints()
    k = np.arange(1, 6)[:, None]
    b = (rng.standard_normal((5, 1)) * np.sin(k * np.pi * xs / 2)
         + rng.standard_normal((5, 1)) * np.cos(k * np.pi * xs / 2)).sum(axis=0)
    spread = float(rng.uniform(0.0, RELIABLE_SPREAD))
    pot = potential_from_samples(grid, b)
    return assemble_pencil(pot, spread / float(b.max() - b.min()))


def catalog_pencil(kind, n, spread):
    l, params = {"power": (1.0, {"alpha": 2}), "sine": (1.5 * np.pi, {}),
                 "quartic": (2.0, {})}[kind]
    pot = build_potential_1d(kind, Grid1D(l, n), **params)
    return assemble_pencil(pot, spread / (float(pot.b.max()) - float(pot.b.min())))


class TestBisectionOracle:
    """The Golub-Kahan values lie within rtol of the former log-sigma
    bisection's midpoints, and the pairs agree to 1e-14 relative with the
    pairs built from those midpoints."""

    @staticmethod
    def _assert(pen, m=3, rtol=1e-10):
        ref = reference_log_bisection(pen, m, rtol)
        values = []
        real = eigensolve1d.eigh_tridiagonal

        def capture(*args, **kwargs):
            s = real(*args, **kwargs)
            # the Golub-Kahan matrix comes scaled by a power of two
            d = _edge_ldlt(pen, 0.0)[0]
            scale = args[1][0] / (np.sqrt(d[0]) / np.sqrt(pen.diag_M[0]))
            values.extend(((s / scale) ** 2).tolist())
            return s

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(eigensolve1d, "eigh_tridiagonal", capture)
            pairs = eigs_bisection(pen, m, rtol)
        np.testing.assert_allclose(values, ref, rtol=rtol, atol=0)
        np.testing.assert_allclose(
            [pr.value for pr in pairs],
            [pr.value for pr in reference_pairs(pen, ref, rtol)],
            rtol=1e-14, atol=0)

    @pytest.mark.parametrize("spread", [10.0, 100.0, 299.0])
    @pytest.mark.parametrize("n", [801, 4001])
    @pytest.mark.parametrize("kind", ["power", "sine", "quartic"])
    def test_catalog(self, kind, n, spread):
        self._assert(catalog_pencil(kind, n, spread))

    @pytest.mark.parametrize("p", [40.0, 80.0, 150.0])
    def test_two_wells(self, p):
        self._assert(assemble_pencil(two_well_samples(), p))

    def test_random_potentials(self):
        rng = np.random.default_rng(20261018)
        for _ in range(12):
            self._assert(random_modes_potential(rng))

    @pytest.mark.parametrize("kind", ["power", "sine", "quartic"])
    def test_sturm_counts_bracket_each_value(self, kind):
        # two float Sturm counts per value check the LAPACK result without
        # LAPACK; <= and >= because sine's lambda_2 and lambda_3 differ by
        # ~1e-12 relative
        pen = catalog_pencil(kind, 4001, 299.0)
        for k, pr in enumerate(eigs_bisection(pen, 3), start=1):
            assert float_count_below(pen, pr.value * (1.0 - 1e-8)) <= k - 1
            assert float_count_below(pen, pr.value * (1.0 + 1e-8)) >= k

    def test_graded_pencils_against_decimal_count(self):
        # weights 10^U(-200, 0): the former zero-shift loop's products went
        # subnormal, and a 60-digit count accepted its lambda_1 on 98 of 300;
        # principal_eig, which kept a stalled loop's value when a float count
        # missed the eigenvalue below, was wrong on 4 (91, 153, 170, 293)
        rng = np.random.default_rng(5)
        wrong = []
        for k in range(300):
            n = int(rng.integers(2, 61))
            pen = TridiagPencil(diag_M=10.0 ** rng.uniform(-200.0, 0.0, n),
                                edge_w=10.0 ** rng.uniform(-200.0, 0.0, n + 1),
                                h=float(rng.uniform(1e-3, 1.0)), scale_log=0.0)
            for solver, lam in (("bisection", eigs_bisection(pen, 1)[0].value),
                                ("principal", principal_eig(pen).value)):
                if (decimal_count_below(pen, lam * (1.0 - 1e-8)) != 0
                        or decimal_count_below(pen, lam * (1.0 + 1e-8)) < 1):
                    wrong.append((solver, k))
        assert wrong == []

    def test_large_entries_keep_relative_accuracy(self):
        # the last mass 1e-195 puts a 1.6e100 entry in the Golub-Kahan
        # matrix; unscaled, dstebz's pivot floor tiny * 1.6e100^2 is ~1e-12
        # of s_1 ~ 7e-96, and lambda_1 came out 1.03e-12 low
        edge_w = np.ones(24)
        edge_w[[0, 1, 9]] = 1e-195
        diag_M = np.ones(23)
        diag_M[-1] = 1e-195
        pen = TridiagPencil(diag_M=diag_M, edge_w=edge_w, h=2.0**-9,
                            scale_log=0.0)
        for lam in (eigs_bisection(pen, 1)[0].value, principal_eig(pen).value):
            assert decimal_count_below(pen, lam * (1.0 - 1e-12)) == 0
            assert decimal_count_below(pen, lam * (1.0 + 1e-12)) == 1

    def test_zero_edge_splits_the_chain(self):
        # the log-sigma bisection never returned here: its floor is 0.  The
        # zero edge cuts the chain into 2 and 3 nodes, each Dirichlet at its
        # outer end and free at the cut: (2 - 2 cos(pi/(2k+1)))/h^2 for k.
        h = 0.1
        pen = TridiagPencil(diag_M=np.ones(5),
                            edge_w=np.array([1.0, 1.0, 0.0, 1.0, 1.0, 1.0]),
                            h=h, scale_log=0.0)
        pairs = eigs_bisection(pen, 2)
        expected = [(2.0 - 2.0 * np.cos(np.pi / 7)) / h**2,
                    (2.0 - 2.0 * np.cos(np.pi / 5)) / h**2]
        np.testing.assert_allclose([pr.value for pr in pairs], expected,
                                   rtol=1e-10)
        assert pairs[0].value == pytest.approx(principal_eig(pen).value,
                                               rel=1e-10)

    def test_zero_stiffness_refused(self):
        pen = TridiagPencil(diag_M=np.ones(4), edge_w=np.zeros(5),
                            h=0.1, scale_log=0.0)
        # zero pivots make lo = 0/0 before the check refuses them
        with np.errstate(invalid="ignore"), \
                pytest.raises(ValueError, match="positive definite"):
            eigs_bisection(pen, 2)


class TestRtolValidation:
    @pytest.mark.parametrize("rtol", [0.0, -1.0, float("nan"), float("inf")])
    def test_bisection_rejects_rtol(self, pot_ax, rtol):
        with pytest.raises(ValueError, match="rtol"):
            eigs_bisection(assemble_pencil(pot_ax, 10.0), 2, rtol=rtol)

    @pytest.mark.parametrize("rtol", [0.0, -1.0, float("nan"), float("inf")])
    def test_principal_rejects_rtol(self, pot_ax, rtol):
        with pytest.raises(ValueError, match="rtol"):
            principal_eig(assemble_pencil(pot_ax, 10.0), rtol=rtol)


def decimal_two_node(pencil):
    """Both eigenvalues of an n = 2 pencil in 60-digit decimal arithmetic,
    from the quadratic det(A - lam M) = 0 in subtraction-free form: the
    constant term g0 g1 + g0 g2 + g1 g2, the discriminant a sum of squares,
    and lambda_1 as 2c over b + sqrt(discriminant) (test oracle)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        h2 = decimal.Decimal(pencil.h) ** 2
        g0, g1, g2 = (decimal.Decimal(w) / h2 for w in pencil.edge_w.tolist())
        m1, m2 = (decimal.Decimal(m) for m in pencil.diag_M.tolist())
        a11, a22 = g0 + g1, g1 + g2
        b = a11 * m2 + a22 * m1
        c = g0 * g1 + g0 * g2 + g1 * g2
        top = b + ((a11 * m2 - a22 * m1) ** 2 + 4 * m1 * m2 * g1 * g1).sqrt()
        return [2 * c / top, top / (2 * m1 * m2)]


def raised(solve, *args, **kwargs):
    """The ValueError solve(*args, **kwargs) raises, as (type, message)."""
    with pytest.raises(ValueError) as exc:
        solve(*args, **kwargs)
    return type(exc.value), str(exc.value)


class TestFrontDoor:
    """Both float solvers enter through one check of rtol, size and the
    zero-shift factor, so each refusal is the same in both."""

    def test_single_node_refused(self):
        pen = TridiagPencil(diag_M=np.ones(1), edge_w=np.ones(2), h=0.1,
                            scale_log=0.0)
        refusal = raised(principal_eig, pen)
        assert refusal == raised(eigs_bisection, pen, 1)
        assert refusal == (ValueError,
                           "the float solvers need at least 2 nodes, got n=1")

    @pytest.mark.parametrize("rtol", [0.0, float("nan")])
    def test_same_rtol_refusal(self, pot_ax, rtol):
        pen = assemble_pencil(pot_ax, 10.0)
        refusal = raised(principal_eig, pen, rtol=rtol)
        assert refusal == raised(eigs_bisection, pen, 1, rtol=rtol)
        assert "rtol" in refusal[1]

    def test_same_zero_stiffness_refusal(self):
        pen = TridiagPencil(diag_M=np.ones(4), edge_w=np.zeros(5),
                            h=0.1, scale_log=0.0)
        # zero pivots make lo = 0/0 before the check refuses them
        with np.errstate(invalid="ignore"):
            refusal = raised(principal_eig, pen)
            assert refusal == raised(eigs_bisection, pen, 1)
        assert "positive definite" in refusal[1]

    def test_two_nodes_against_decimal(self):
        # the smallest pencil the solvers take, plain and with weights and
        # masses 10^U(-200, 0): every value within 1e-14 of the 60-digit
        # roots (2000 such draws stayed within 8.2e-16)
        rng = np.random.default_rng(27)
        pencils = [TridiagPencil(diag_M=np.ones(2), edge_w=np.ones(3), h=0.1,
                                 scale_log=0.0)]
        for _ in range(200):
            pencils.append(TridiagPencil(
                diag_M=10.0 ** rng.uniform(-200.0, 0.0, 2),
                edge_w=10.0 ** rng.uniform(-200.0, 0.0, 3),
                h=float(rng.uniform(1e-3, 1.0)), scale_log=0.0))
        for pen in pencils:
            lam1, lam2 = decimal_two_node(pen)
            principal = principal_eig(pen)
            pairs = eigs_bisection(pen, 2)
            with decimal.localcontext() as ctx:
                ctx.prec = 60
                for value, exact in ((principal.value, lam1),
                                     (pairs[0].value, lam1),
                                     (pairs[1].value, lam2)):
                    err = abs(decimal.Decimal(value) - exact) / exact
                    assert err <= decimal.Decimal("1e-14"), (pen, value, exact)
            assert principal.u.max() == 1.0 and np.all(principal.u > 0)
            assert [pr.index for pr in pairs] == [1, 2]


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


def reference_principal_eig(pencil, rtol=1e-10, max_iter=64):
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
            f"inverse iteration did not converge in {max_iter} iterations")
    u = u / np.max(u)
    pair = EigenPair(value=lam, u=u, residual=reference_residual(pencil, lam, u),
                     index=1)
    return pair, it


def decimal_count_below(pencil, sigma):
    """Sturm count of (A, M) below sigma in 60-digit decimal arithmetic,
    whose exponent range keeps every pivot of a graded pencil normal
    (test oracle)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        h2 = decimal.Decimal(pencil.h) ** 2
        g = [decimal.Decimal(w) / h2 for w in pencil.edge_w]
        s = decimal.Decimal(sigma)
        count, e = 0, g[0]
        for i, m in enumerate(pencil.diag_M):
            if i:
                e = g[i] * e / (g[i] + e)
            e -= s * decimal.Decimal(m)
            count += g[i + 1] + e < 0
        return count


def counted_quotients(solve, pencil, *args, **kwargs):
    """solve(pencil, ...) and the number of Rayleigh quotients it took."""
    calls = []

    def counting(pen, u):
        calls.append(None)
        return rayleigh_quotient(pen, u)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(eigensolve1d, "rayleigh_quotient", counting)
        result = solve(pencil, *args, **kwargs)
    return result, len(calls)


def counted_principal_eig(pencil, **kwargs):
    """principal_eig and the number of Rayleigh quotients it took."""
    return counted_quotients(principal_eig, pencil, **kwargs)


def assert_principal_matches(pen, **kwargs):
    pair, iterations = counted_principal_eig(pen, **kwargs)
    ref, ref_iterations = reference_principal_eig(pen, **kwargs)
    assert iterations == ref_iterations
    assert_same_pair(pair, ref)
    return pair


def reference_certified(pencil, pair):
    """The Collatz-Wielandt bound min u/(A^-1 M u) of the loop's pair lies
    within the default margin 1e-8 of its value (test oracle)."""
    y = reference_ldlt_solve(*_edge_ldlt(pencil, 0.0), pencil.diag_M * pair.u)
    with np.errstate(divide="ignore", invalid="ignore"):
        return bool(np.min(pair.u / y) >= pair.value * (1.0 - 1e-8))


class TestPrincipalLoopOracle:
    """The unshifted call of the shared inverse-iteration loop returns the
    bits of the former principal loop, after the same number of steps, when
    the Collatz-Wielandt bound certifies that loop's value; otherwise the
    pair is eigs_bisection's."""

    @pytest.mark.parametrize("name", CATALOG_FIXTURES)
    @pytest.mark.parametrize("p", [0.0, 10.0, 40.0, "spread290"])
    def test_catalog_pencils(self, request, name, p):
        pot = request.getfixturevalue(name)
        if p == "spread290":
            p = 290.0 / (float(pot.b.max()) - float(pot.b.min()))
        pen = assemble_pencil(pot, p)
        if p == 0.0:
            # from all-ones the loop meets rtol with a vector ~1e-5 off u_1,
            # which the bound does not certify at margin 1e-8
            assert not reference_certified(pen, reference_principal_eig(pen)[0])
            pair = principal_eig(pen)
            assert_same_pair(pair, eigs_bisection(pen, 1)[0])
        else:
            pair = assert_principal_matches(pen)
        assert pair.u.max() == 1.0

    def test_scaled_pencil(self, pot_sine_wide):
        pen = assemble_pencil(pot_sine_wide, 30.0)
        pair = assert_principal_matches(scaled(pen, 7.25))
        assert pair.value == pytest.approx(principal_eig(pen).value, rel=1e-12)

    @pytest.mark.parametrize("name", CATALOG_FIXTURES)
    @pytest.mark.parametrize("rtol", [1e-3, 1e-4, 1e-6])
    @pytest.mark.parametrize("p", [0.0, 1.0, 10.0])
    def test_loose_rtol(self, request, name, rtol, p):
        # a loose rtol stops the loop above lambda_1 by about what it
        # allows; the certificate must not send that value to bisection
        assert_principal_matches(
            assemble_pencil(request.getfixturevalue(name), p), rtol=rtol)

    @given(data=st.data(), n=st.integers(2, 60))
    @settings(max_examples=40, deadline=None)
    def test_random_graded_weights(self, data, n):
        logw = st.floats(-200.0, 0.0)
        edge_w = 10.0 ** np.array(data.draw(st.lists(logw, min_size=n + 1,
                                                     max_size=n + 1)))
        diag_M = 10.0 ** np.array(data.draw(st.lists(logw, min_size=n,
                                                     max_size=n)))
        h = data.draw(st.floats(1e-3, 1.0))
        pen = TridiagPencil(diag_M=diag_M, edge_w=edge_w, h=h,
                            scale_log=0.0)
        try:
            ref, _ = reference_principal_eig(pen, max_iter=2000)
            certified = reference_certified(pen, ref)
        except ConvergenceError:
            certified = False
        # the value is a Rayleigh quotient, so no less than lambda_1: a
        # 60-digit Sturm count, free of the float count's subnormals, finds
        # an eigenvalue at or below it
        pair = principal_eig(pen, max_iter=2000)
        assert decimal_count_below(pen, pair.value * (1.0 + 1e-12)) >= 1
        # the loop's bits when certified, else bisection's pair (weights
        # this graded can stall the loop on a higher eigenvalue)
        if certified:
            assert_principal_matches(pen, max_iter=2000)
        else:
            assert_same_pair(pair, eigs_bisection(pen, 1)[0])
