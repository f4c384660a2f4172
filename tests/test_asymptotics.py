import math

import numpy as np
import pytest
from scipy.special import erf

from driftwell import (CatalogError, Grid1D, build_potential_1d, closed_form,
                       laplace_integral, laplace_predict,
                       potential_from_samples, product_formula,
                       separable_product_caveat)
from driftwell.asymptotics import log_simpson

CATALOG = [
    ("power", {"alpha": 1.0}, 1.0),
    ("power", {"alpha": 2.0}, 1.0),
    ("power", {"alpha": 3.0}, 1.0),
    ("sine", {}, np.pi / 2),
    ("sine", {}, np.pi),
    ("sine", {}, 1.5 * np.pi),
    ("quartic", {}, 2.0),
]


def make(kind, params, l, n=4001):
    return build_potential_1d(kind, Grid1D(l, n), **params)


class TestLogSimpson:
    @pytest.mark.parametrize("npts", [3, 4, 5, 6, 9, 101, 102])
    def test_polynomial_exactness(self, npts):
        # Simpson (and the 3/8 tail) integrate cubics exactly
        xs = np.linspace(0.0, 2.0, npts)
        f = 1.0 + 0.5 * xs + 0.25 * xs**3
        got = np.exp(log_simpson(np.log(f), xs[1] - xs[0]))
        exact = 2.0 + 0.25 * 4.0 + 0.25 * 4.0
        assert got == pytest.approx(exact, rel=1e-13)

    def test_two_points_trapezoid(self):
        xs = np.array([0.0, 1.0])
        got = np.exp(log_simpson(np.log(np.array([1.0, 3.0])), 1.0))
        assert got == pytest.approx(2.0)


class TestProductFormula:
    def test_flat_potential_exact(self):
        for l in (1.0, 2.5):
            pot = build_potential_1d("constant", Grid1D(l, 801), c=0.0)
            val = product_formula(pot, 123.0)
            assert val.log_lambda == pytest.approx(-2 * math.log(l), abs=1e-12)

    def test_ax_p40_matches_closed_form(self, pot_ax):
        val = product_formula(pot_ax, 40.0)
        cf = math.sqrt(2 / math.pi) * 40**1.5 * math.exp(-20.0)
        assert 0.9 <= math.exp(val.log_lambda) / cf <= 1.1

    def test_ax_p4000_log_domain(self, pot_ax):
        val = product_formula(pot_ax, 4000.0)
        expected = (-0.5 * 4000 + 1.5 * math.log(4000)
                    + math.log(math.sqrt(2 / math.pi)))
        assert abs(val.log_lambda - expected) <= 0.02 * abs(expected)

    def test_invariant_under_constant_shift(self, pot_ax):
        shifted = potential_from_samples(pot_ax.grid, pot_ax.b + 11.0, pot_ax.a)
        v1 = product_formula(pot_ax, 25.0).log_lambda
        v2 = product_formula(shifted, 25.0).log_lambda
        assert v1 == pytest.approx(v2, abs=1e-9)

    @pytest.mark.parametrize("kind,params,l", CATALOG)
    def test_finite_up_to_1e6(self, kind, params, l):
        pot = make(kind, params, l)
        for p in (1e3, 1e5, 1e6):
            assert np.isfinite(product_formula(pot, p).log_lambda)

    def test_even_interior_count(self):
        # lattice without a node at x = 0 takes the half-cell patch path
        pot_even = build_potential_1d("power", Grid1D(1.0, 4000), alpha=2)
        pot_odd = build_potential_1d("power", Grid1D(1.0, 4001), alpha=2)
        v_even = product_formula(pot_even, 40.0).log_lambda
        v_odd = product_formula(pot_odd, 40.0).log_lambda
        assert v_even == pytest.approx(v_odd, abs=1e-5)

    def test_unreliable_flag_when_ordering_fails(self):
        pot = build_potential_1d("sine", Grid1D(3 * np.pi, 2001))
        val = product_formula(pot, 30.0)
        assert not val.reliable
        assert np.isfinite(val.log_lambda)

    def test_rate_recovers_well_depth(self, pot_ax):
        # 3-parameter fit of -log lambda over a wide sweep recovers the
        # decay exponent (the well depth 1/2) within 2%
        from driftwell.cli import fit_decay_exponent
        ps = [50.0, 100.0, 200.0, 400.0]
        y = [-product_formula(pot_ax, p).log_lambda for p in ps]
        b0, _ = fit_decay_exponent(ps, y)
        assert b0 == pytest.approx(0.5, rel=0.02)


class TestLaplaceIntegral:
    @pytest.mark.parametrize("p", [1e2, 1e3, 1e4])
    def test_linear_exponent_closed_form(self, p):
        lq = laplace_integral(lambda x: x, 1.0, p, L=1.0)
        exact = math.log((1 - math.exp(-p)) / p)
        assert abs(math.exp(lq.log_value - exact) - 1) < 1e-8

    @pytest.mark.parametrize("p", [1e2, 1e3, 1e4])
    def test_quadratic_exponent_erf(self, p):
        lq = laplace_integral(lambda x: x * x, 2.0, p, L=1.0)
        exact = math.log(math.sqrt(math.pi) * erf(math.sqrt(p)) / (2 * math.sqrt(p)))
        assert abs(math.exp(lq.log_value - exact) - 1) < 1e-8

    def test_cubic_ratio_tends_to_one(self):
        # the truncated-tail deficit is only visible at moderate p; by
        # p = 100 the ratio is already 1 to machine precision
        devs = []
        for p in (2.0, 10.0, 100.0):
            lq = laplace_integral(lambda x: x**3, 3.0, p, L=1.0)
            devs.append(abs(math.exp(lq.log_value - laplace_predict(3.0, p)) - 1))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < 1e-9

    def test_error_estimate_is_a_bound_here(self):
        lq = laplace_integral(lambda x: x * x, 2.0, 100.0, L=1.0)
        exact = math.log(math.sqrt(math.pi) * erf(10.0) / 20.0)
        true_err = abs(math.exp(lq.log_value) - math.exp(exact))
        assert true_err <= math.exp(lq.abs_error_log) + 1e-300

    def test_invalid_mu(self):
        with pytest.raises(ValueError):
            laplace_integral(lambda x: x, 0.0, 10.0, L=1.0)

    def test_wrong_normalization_detected(self):
        with pytest.raises(ValueError):
            laplace_integral(lambda x: 3.0 * x, 1.0, 10.0, L=1.0)


class TestClosedForm:
    def test_alpha_one_is_p_squared(self):
        # coefficient (1/1)^1 l^0 / Gamma(2) = 1: lambda ~ p^2 e^{-p}
        val = closed_form("power", 37.0, alpha=1.0, l=1.0)
        assert val.log_lambda == pytest.approx(2 * math.log(37.0) - 37.0, abs=1e-12)

    def test_ax_value_at_p40(self):
        val = closed_form("power", 40.0, alpha=2.0, l=1.0)
        assert math.exp(val.log_lambda) == pytest.approx(
            math.sqrt(2 / math.pi) * 252.98 * 2.0612e-9, rel=1e-4)

    def test_sine_at_pi(self):
        val = closed_form("sine", 50.0, l=np.pi)
        assert val.log_lambda == pytest.approx(
            math.log(1 / (2 * math.pi)) + math.log(50.0) - 100.0, abs=1e-12)

    def test_parameter_ranges(self):
        for alpha in (0.3, np.inf, np.nan):
            with pytest.raises(CatalogError, match="alpha"):
                closed_form("power", 10.0, alpha=alpha, l=1.0)
        with pytest.raises(CatalogError, match="2 pi"):
            closed_form("sine", 10.0, l=7.0)
        with pytest.raises(CatalogError, match="sqrt"):
            closed_form("quartic", 10.0, l=1.0)
        with pytest.raises(CatalogError):
            closed_form("cubic", 10.0, l=1.0)

    @pytest.mark.parametrize("p", [0.0, -1.0, float("nan")])
    def test_needs_positive_p(self, p):
        # a large-p limit: p = 0 took log(0) and returned -inf
        for kind, params in (("power", {"alpha": 2.0}), ("sine", {}),
                             ("quartic", {})):
            with pytest.raises(ValueError, match="p > 0"):
                closed_form(kind, p, l=2.0, **params)

    @pytest.mark.parametrize("kind,params,l",
                             [c for c in CATALOG if abs(c[2] - np.pi) > 1e-9])
    def test_product_ratio_monotone(self, kind, params, l):
        # |product/closed - 1| decreases along p = 20, 40, 80, 160 down to
        # the floating-point noise floor of the two routes
        pot = make(kind, params, l)
        devs = []
        for p in (20.0, 40.0, 80.0, 160.0):
            pv = product_formula(pot, p)
            cf = closed_form(kind, p, l=l, **params)
            devs.append(abs(math.exp(pv.log_lambda - cf.log_lambda) - 1.0))
        # quadrature noise floor ~ (p h)^4 for the steepest catalog entry
        noise = 2e-6
        for a, b in zip(devs, devs[1:]):
            assert b < a or (a < noise and b < noise)

    def test_sine_at_interior_maximum_offset(self):
        # when the half-interval ends exactly at the interior maximum of b
        # (l = pi), the catalog constant 1/(2 pi) sits a fixed factor 4 below
        # the Laplace evaluation of the product formula, so the ratio
        # converges to 4 rather than 1.  The weighted solver agrees with the
        # product formula, pinning the factor on the printed constant.
        pot = make("sine", {}, np.pi)
        devs = []
        for p in (20.0, 40.0, 80.0, 160.0):
            pv = product_formula(pot, p)
            cf = closed_form("sine", p, l=np.pi)
            devs.append(abs(math.exp(pv.log_lambda - cf.log_lambda) - 4.0))
        assert devs[0] > devs[1] > devs[2] > devs[3]
        assert devs[3] < 0.05


class TestSeparable:
    def test_single_axis_reduces(self, pot_ax):
        comp = separable_product_caveat([pot_ax], 40.0)
        single = product_formula(pot_ax, 40.0).log_lambda
        assert comp.log_sum == pytest.approx(single, abs=1e-12)
        assert comp.log_naive_product == pytest.approx(single - math.log(4.0),
                                                       abs=1e-12)

    def test_two_identical_axes(self, pot_ax):
        comp = separable_product_caveat([pot_ax, pot_ax], 40.0)
        lam1 = product_formula(pot_ax, 40.0).log_lambda
        assert comp.log_sum == pytest.approx(lam1 + math.log(2.0), abs=1e-12)
        assert comp.log_naive_product == pytest.approx(2 * lam1 - math.log(16.0),
                                                       abs=1e-12)
        # the naive product is smaller by many orders
        assert comp.log_sum - comp.log_naive_product > 15.0

    def test_slowest_axis_dominates(self):
        fast = build_potential_1d("power", Grid1D(1.5, 2001), alpha=2)  # depth 1.125
        slow = build_potential_1d("power", Grid1D(1.0, 2001), alpha=2)  # depth 0.5
        comp = separable_product_caveat([slow, fast], 60.0)
        lam_slow = product_formula(slow, 60.0).log_lambda
        assert comp.log_sum == pytest.approx(lam_slow, abs=1e-10)
