import math

import numpy as np
import pytest
import scipy
from scipy.special import dawsn, erf, logsumexp

from driftwell import (CatalogError, Grid1D, build_potential_1d, closed_form,
                       laplace_integral, laplace_predict,
                       potential_from_samples, product_formula,
                       separable_product_caveat)
from driftwell.asymptotics import _log_exp_integral, _logsumexp

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
        # the closed form is the leading term; the product formula sits
        # 1/p above it in the log (p |product/closed - 1| -> 1 for alpha = 2)
        val = product_formula(pot_ax, 4000.0)
        expected = (-0.5 * 4000 + 1.5 * math.log(4000)
                    + math.log(math.sqrt(2 / math.pi)))
        assert abs(val.log_lambda - expected) <= 2.0 / 4000

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
        # a lattice without a node at x = 0 starts [0, l] with a half cell
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

    @pytest.mark.parametrize("kind,l,n", [("quartic", 2.0, 801),
                                          ("sine", 1.5 * np.pi, 4000)])
    def test_peak_inside_a_cell(self, kind, l, n):
        # at p = 1e6 the peak of e^{-pb} (quartic, x = 1) or e^{+pb} (sine,
        # x = pi) lies between two nodes and is about one cell wide; the
        # O(1/p) term p (closed - product) keeps its p = 1e5 value
        pot = build_potential_1d(kind, Grid1D(l, n))
        terms = [p * (closed_form(kind, p, l=l).log_lambda
                      - product_formula(pot, p).log_lambda) for p in (1e5, 1e6)]
        assert terms[1] == pytest.approx(terms[0], abs=5e-3)

    @pytest.mark.parametrize("kind,params,l", CATALOG)
    def test_samples_match_the_closure(self, kind, params, l):
        # without b_fn the integrals run on the cubic through the four
        # nearest samples in [0, l]; tolerance fixed before the run
        pot = make(kind, params, l)
        sampled = potential_from_samples(pot.grid, pot.b)
        for p in (10.0, 40.0, 200.0):
            assert (product_formula(sampled, p).log_lambda
                    == pytest.approx(product_formula(pot, p).log_lambda,
                                     abs=1e-8))


class TestPieceCap:
    """_log_exp_integral counts its Gauss pieces from the cell ends and
    midpoints and refuses, before it forms any, more than _MAX_PIECES or an
    exponent that overflows; at p = 1e12 the power potential would take
    5e8 pieces (~100 GB), and at 1e300 the count overflowed the int cast."""

    @pytest.mark.parametrize("kind,params,l,p", [
        ("power", {"alpha": 2.0}, 1.0, 1e300),
        ("power", {"alpha": 2.0}, 1.0, 1e308),
        ("quartic", {}, 2.0, 1e308),      # few pieces, but p b overflows
    ])
    def test_huge_p_refused(self, kind, params, l, p):
        with pytest.raises(ValueError, match="cannot be integrated"):
            product_formula(make(kind, params, l), p)

    def test_count_checked_before_any_piece(self, pot_ax):
        sizes = []

        def b(x):
            x = np.asarray(x, dtype=float)
            sizes.append(x.size)
            return pot_ax.b_fn(x)

        xs = pot_ax.grid.nodes()
        edges = np.concatenate(([0.0], xs[xs > 0.25 * pot_ax.grid.h], [1.0]))
        with pytest.raises(ValueError, match="5e\\+08 Gauss pieces"):
            _log_exp_integral(b, edges, 1e12)
        # b was evaluated at the graded cell ends and midpoints only; an
        # integral it lets through evaluates b at 6 nodes per piece
        assert max(sizes) <= edges.size + 51
        assert np.isfinite(_log_exp_integral(b, edges, 1e6))
        assert max(sizes) >= 6 * edges.size


def exact_log_lambda(alpha, p):
    """-log int_0^1 e^{-pb} - log int_0^1 e^{+pb} in closed form for
    b = x^2/2 (erf and Dawson's integral) and b = |x| (elementary)."""
    if alpha == 1.0:
        return 2.0 * math.log(p) - p - 2.0 * math.log1p(-math.exp(-p))
    c = math.sqrt(p / 2.0)
    minus = math.log(math.sqrt(math.pi / (2.0 * p)) * erf(c))
    plus = p / 2.0 + math.log(dawsn(c) / c)
    return -(minus + plus)


class TestExactHalfIntervals:
    @pytest.mark.parametrize("alpha", [1.0, 2.0])
    @pytest.mark.parametrize("p", [2e3, 1e4, 1e5, 1e6])
    def test_product_formula_is_the_exact_integral(self, alpha, p):
        # the integrand's peak at x = 0 or l is 1/p wide, far below the
        # lattice spacing 5e-4; tolerance fixed before the run
        pot = make("power", {"alpha": alpha}, 1.0)
        got = product_formula(pot, p).log_lambda
        assert got == pytest.approx(exact_log_lambda(alpha, p), abs=1e-9)


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

    @pytest.mark.parametrize("p", [1e2, 1e3, 1e4])
    def test_square_root_exponent_closed_form(self, p):
        # g = sqrt(x): int_0^1 e^{-p sqrt x} dx = (2/p^2)(1 - e^{-p}(1 + p))
        lq = laplace_integral(np.sqrt, 0.5, p, L=1.0)
        exact = math.log(2.0 / p**2 * -math.expm1(math.log1p(p) - p))
        assert abs(math.exp(lq.log_value - exact) - 1) < 1e-8

    def test_error_estimate_is_a_bound_here(self):
        # g = x^2, and g = sqrt(x), whose kink at 0 sets the error
        for g, mu, exact in (
                (lambda x: x * x, 2.0, math.sqrt(math.pi) * erf(10.0) / 20.0),
                (np.sqrt, 0.5, 2.0 / 100.0**2 * (1.0 - 101.0 * math.exp(-100.0)))):
            lq = laplace_integral(g, mu, 100.0, L=1.0)
            true_err = abs(math.exp(lq.log_value) - exact)
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
        # |product/closed - 1| is the O(1/p) correction to the leading
        # closed form, so it decreases strictly from p = 20 to 1e6.  For
        # b = |x| it is 2 e^{-p}, which is below the rounding of log lambda
        # (4 ulp) from p = 40 on; only there may two deviations tie.
        pot = make(kind, params, l)
        devs, floors = [], []
        for p in (20.0, 40.0, 80.0, 160.0, 2e3, 1e4, 1e5, 1e6):
            pv = product_formula(pot, p)
            cf = closed_form(kind, p, l=l, **params)
            devs.append(abs(math.exp(pv.log_lambda - cf.log_lambda) - 1.0))
            floors.append(4 * np.spacing(abs(cf.log_lambda)))
        for a, b, fa, fb in zip(devs, devs[1:], floors, floors[1:]):
            assert b < a or (a <= fa and b <= fb)

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


def logsumexp_cases(count, seed):
    """Seeded 1-D arrays of every shape the quotients feed the log-sum-exp:
    sizes 1 to 5000, spreads 1e-3 to 1e3 around a centre in [-800, 800],
    ties at the max (integer steps, all equal), and -inf entries."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(1, 5000)) if k % 4 else int(rng.integers(1, 8))
        spread = 10.0 ** rng.uniform(-3, 3)
        a = rng.standard_normal(n) * spread + rng.uniform(-800, 800)
        if k % 3 == 0:
            a = np.round(2 * a / spread) * spread / 2
        if k % 5 == 0:
            a[rng.random(n) < 0.3] = -np.inf
        if k % 7 == 0:
            a[:] = a.max()
        yield a


class TestLogSumExp:
    """The numpy log-sum-exp against scipy.special.logsumexp: bit for bit
    on a scipy whose form it repeats (1.17), and to rounding on another,
    whose log(sum) form loses log1p's last bits near a result of 0."""

    EXACT = tuple(map(int, scipy.__version__.split(".")[:2])) >= (1, 17)

    def test_matches_scipy(self):
        got, want = [], []
        for a in logsumexp_cases(2000, 20241020):
            got.append(_logsumexp(a))
            want.append(float(logsumexp(a)))
        got, want = np.array(got), np.array(want)
        if self.EXACT:
            assert np.array_equal(got.view(np.int64), want.view(np.int64))
        else:
            np.testing.assert_allclose(got, want, rtol=1e-15, atol=1e-15)

    @pytest.mark.parametrize("a,want", [
        ([], -np.inf), ([-np.inf], -np.inf), ([-np.inf, -np.inf], -np.inf),
        ([np.inf, 1.0], np.inf), ([np.inf, -np.inf], np.inf),
        ([np.nan, 1.0], np.nan), ([1e308, 1e308], 1e308),
        ([0.0, -40.0], math.log1p(math.exp(-40.0))),
    ])
    def test_edge_cases(self, a, want):
        got = _logsumexp(np.array(a, dtype=float))
        assert type(got) is float
        assert got == want or (math.isnan(got) and math.isnan(want))
