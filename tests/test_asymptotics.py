import math
import re

import mpmath
import pytest

from costarb import (
    AmbiguousRegimeError,
    LambdaRangeError,
    beta_star,
    c_s,
    expected_min,
    f_eval,
    f_prime,
    g_eval,
    g_prime,
    gamma_fn,
    lambda_hint,
    predict,
)
from costarb import asymptotics


def quad_f(beta):
    """Independent quadrature route for f, avoiding the erf-based one."""
    root = mpmath.sqrt(beta)
    integral = mpmath.quad(lambda t: mpmath.exp(-t * t / 2), [0, root])
    return float(root * integral + mpmath.exp(-beta / 2))


class TestF:
    def test_endpoints(self):
        assert f_eval(0.0) == 1.0
        assert f_prime(0.0) == 0.5

    def test_f_of_two_against_quadrature(self):
        assert abs(f_eval(2.0) - 1.861525) < 1e-5
        assert abs(f_eval(2.0) - quad_f(2.0)) < 1e-10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            f_eval(-0.1)
        with pytest.raises(ValueError):
            f_prime(-0.1)

    @pytest.mark.parametrize("beta", [0.1, 1.0, 5.0, 50.0])
    def test_derivative_matches_central_difference(self, beta):
        h = 1e-5
        approx = (f_eval(beta + h) - f_eval(beta - h)) / (2 * h)
        assert abs(f_prime(beta) - approx) < 1e-6

    def test_prime_strictly_decreasing(self):
        grid = [10.0**k for k in range(-6, 4)]
        values = [f_prime(b) for b in grid]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestG:
    def test_identity_with_f(self):
        assert g_eval(1.0) == pytest.approx(f_eval(1.0), abs=1e-14)
        for k in range(-30, 31):
            beta = 10.0 ** (k / 10.0)
            assert abs(g_eval(beta) - beta * f_eval(1.0 / beta)) < 1e-12

    def test_half_value(self):
        assert abs(g_eval(0.5) - 0.5 * f_eval(2.0)) < 1e-14
        assert abs(g_eval(0.5) - 0.930762) < 1e-5

    def test_prime_limit_at_infinity(self):
        assert 1.0 <= g_prime(1e6) <= 1.01

    @pytest.mark.parametrize("beta", [0.1, 1.0, 5.0, 50.0])
    def test_derivative_matches_central_difference(self, beta):
        h = 1e-5
        approx = (g_eval(beta + h) - g_eval(beta - h)) / (2 * h)
        assert abs(g_prime(beta) - approx) < 1e-6

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            g_eval(0.0)
        with pytest.raises(ValueError):
            g_prime(-1.0)


class TestBetaStar:
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45])
    def test_residuals(self, alpha):
        b = beta_star(alpha, "CASE2")
        assert abs(f_prime(b) - alpha) <= 1e-10

    @pytest.mark.parametrize("alpha", [1.05, 1.5, 2.0, 5.0, 100.0])
    def test_case3_residuals(self, alpha):
        b = beta_star(alpha, "CASE3")
        assert abs(g_prime(b) - alpha) <= 1e-10

    def test_small_alpha_asymptote(self):
        # f'(b) ~ sqrt(pi/(8b)) for large b, so b* ~ pi/(8 alpha^2)
        b = beta_star(0.1, "CASE2")
        assert abs(b - math.pi / 0.08) / (math.pi / 0.08) < 0.05

    def test_alpha_near_half_gives_tiny_root(self):
        assert beta_star(0.4999, "CASE2") < 0.002

    def test_case3_against_independent_quadrature(self):
        b = beta_star(1.05, "CASE3")
        root = mpmath.sqrt(b)
        integral = mpmath.quad(lambda t: mpmath.exp(-t * t / 2), [0, 1 / root])
        gp = float(integral / (2 * root) + mpmath.exp(-1 / (2 * b)))
        assert abs(gp - 1.05) < 1e-9

    @pytest.mark.parametrize("alpha", [1 + 1e-12, 1 + 1e-9, 1 + 1e-6])
    def test_case3_near_one_against_mpmath(self, alpha):
        # g'(b) - 1 ~ 1/(24 b**2) is flat here: a stop on the residual of g'
        # once returned 2**17 at 1 + 1e-12, about 36% below the root
        def g_prime_mp(b):
            return mpmath.sqrt(mpmath.pi / (8 * b)) * mpmath.erf(
                1 / mpmath.sqrt(2 * b)
            ) + mpmath.exp(-1 / (2 * b))

        with mpmath.workdps(50):
            target = mpmath.mpf(alpha)
            root = mpmath.findroot(
                lambda b: g_prime_mp(b) - target, 1 / mpmath.sqrt(24 * (target - 1))
            )
        assert beta_star(alpha, "CASE3") == pytest.approx(float(root), rel=1e-8)

    def test_domain_errors(self):
        for alpha in (0.0, 0.5, 0.7, -1.0):
            with pytest.raises(ValueError):
                beta_star(alpha, "CASE2")
        for alpha in (1.0, 0.5, math.nan):
            with pytest.raises(ValueError, match=f"CASE3 requires alpha > 1, got {alpha}"):
                beta_star(alpha, "CASE3")
        with pytest.raises(ValueError):
            beta_star(0.3, "CASE9")

    @pytest.mark.parametrize("alpha", [1e150, 1e160])
    def test_case3_huge_alpha_meets_the_small_b_asymptote(self, alpha):
        # g'(b) is sqrt(pi/(8b)) to the last bit for tiny b; at 1e160 the root
        # is subnormal, within a float of pi/(8 alpha**2) and its rounding
        b = beta_star(alpha, "CASE3")
        assert abs(b - math.pi / 8.0 / alpha / alpha) <= 1e-14 * b + 2 * math.ulp(0.0)

    @pytest.mark.parametrize("alpha", [1e200, math.inf])
    def test_case3_root_that_underflows_names_alpha(self, alpha):
        with pytest.raises(ArithmeticError, match=re.escape(f"underflows at alpha = {alpha}")):
            beta_star(alpha, "CASE3")

    def test_case3_left_end_lies_left_of_the_root(self):
        # g' is decreasing, so the bisection needs g'(lo) > alpha at its start
        for k in range(-12, 161):
            alpha = 1.0 + 10.0 ** k
            lo = asymptotics._case3_left_end(alpha)
            assert asymptotics._g_prime_excess(lo) > alpha - 1.0, alpha

    def test_bracket_that_does_not_close_raises(self):
        # f'(b) ~ sqrt(pi/(8b)) stays above 1e-300 past b = 1e300
        with pytest.raises(ArithmeticError, match="bracket for beta_star failed to close"):
            beta_star(1e-300, "CASE2")


class TestUnimodality:
    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.45])
    def test_f_surrogate_unimodal(self, alpha):
        grid = [10.0 ** (k / 20.0) for k in range(-80, 81)]
        vals = [f_eval(b) - alpha * b for b in grid]
        peak = vals.index(max(vals))
        assert all(a <= b + 1e-12 for a, b in zip(vals[:peak], vals[1 : peak + 1]))
        assert all(a >= b - 1e-12 for a, b in zip(vals[peak:], vals[peak + 1 :]))

    @pytest.mark.parametrize("alpha", [1.05, 2.0, 10.0])
    def test_g_surrogate_unimodal(self, alpha):
        grid = [10.0 ** (k / 20.0) for k in range(-80, 81)]
        vals = [g_eval(b) - alpha * b for b in grid]
        peak = vals.index(max(vals))
        assert all(a <= b + 1e-12 for a, b in zip(vals[:peak], vals[1 : peak + 1]))
        assert all(a >= b - 1e-12 for a, b in zip(vals[peak:], vals[peak + 1 :]))


class TestGamma:
    def test_integer_values(self):
        assert abs(gamma_fn(1.0) - 1.0) < 1e-12
        assert abs(gamma_fn(2.0) - 1.0) < 1e-12

    def test_three_halves(self):
        assert abs(gamma_fn(1.5) - math.sqrt(math.pi) / 2) < 1e-10

    def test_against_high_precision(self):
        assert abs(gamma_fn(1.25) - 0.9064024771) < 1e-9
        mpmath.mp.dps = 30
        for x in [0.05, 0.3, 0.77, 1.0, 2.5, 7.7, 19.3, 50.0]:
            exact = float(mpmath.gamma(x))
            assert abs(gamma_fn(x) - exact) / exact < 1e-14

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            gamma_fn(0.0)
        with pytest.raises(ValueError):
            gamma_fn(-2.5)


class TestCs:
    def test_uniform_case(self):
        assert abs(c_s(1.0) - math.sqrt(math.pi / 2)) < 1e-9

    def test_half(self):
        expected = gamma_fn(1.25) * 6.0**0.25
        assert abs(c_s(0.5) - expected) < 1e-12
        assert abs(c_s(0.5) - 1.41869) < 1e-4

    def test_against_high_precision(self):
        # the s < 1 target C_s^2 n^(2-s) / (4 c0) carries this error twice
        with mpmath.workdps(30):
            for s in [k / 50 for k in range(1, 51)]:
                t = mpmath.mpf(s)
                exact = mpmath.gamma(t / 2 + 1) * (
                    mpmath.gamma(2 / t + 1) / mpmath.gamma(1 / t + 1) ** 2
                ) ** (t / 2)
                assert abs(c_s(s) - float(exact)) / float(exact) < 4e-15, s

    def test_small_s_stays_finite(self):
        assert math.isfinite(c_s(0.01))

    def test_links_uniform_formula(self):
        # C_1^2 n^(2-s) / (4 c0) at s=1 equals pi*n/(8*c0)
        n, c0 = 3000, 50.0
        assert abs(c_s(1.0) ** 2 * n / (4 * c0) - math.pi * n / (8 * c0)) < 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            c_s(0.0)
        with pytest.raises(ValueError):
            c_s(1.2)


class TestExpectedMin:
    def test_tiny_lambda_regime(self):
        n = 1000
        val = expected_min(n, 0.5 / (n * math.log(n)))
        assert val.regime == "E1" and val.value == 1.0 / n

    def test_huge_lambda_regime(self):
        n = 1000
        lam = 2 * n * math.log(n)
        val = expected_min(n, lam)
        assert val.regime == "E5" and val.value == lam / n

    def test_mid_regime_value(self):
        val = expected_min(100_000, 0.01)
        assert val.regime == "E3"
        assert abs(val.value - 3.9633e-4) < 1e-7

    def test_boundaries_use_higher_regime(self):
        n = 1000
        log_n = math.log(n)
        assert expected_min(n, n * log_n).regime == "E5"
        assert expected_min(n, n / log_n).regime == "E4"
        assert expected_min(n, log_n / n).regime == "E3"
        assert expected_min(n, 1.0 / (n * log_n)).regime == "E2"

    def test_adjacent_regimes_agree_at_boundary(self):
        n = 10_000
        lam = math.log(n) / n  # E2/E3 seam
        e2 = f_eval(lam * n) / n
        e3 = math.sqrt(math.pi / 2) * math.sqrt(lam / n)
        assert abs(e2 - e3) / e3 < 0.25
        lam = n / math.log(n)  # E3/E4 seam
        e3 = math.sqrt(math.pi / 2) * math.sqrt(lam / n)
        e4 = g_eval(lam / n)
        assert abs(e4 - e3) / e3 < 0.25

    def test_power_law_formula(self):
        n, lam, s = 10_000, 1.0, 0.5
        val = expected_min(n, lam, s)
        assert val.regime == "ES"
        assert abs(val.value - c_s(s) * math.sqrt(lam) / n ** (s / 2)) < 1e-12

    def test_power_law_range_guard(self):
        with pytest.raises(LambdaRangeError):
            expected_min(10_000, 1e-6, 0.5)
        with pytest.raises(LambdaRangeError):
            expected_min(10_000, 1e4, 0.5)
        with pytest.raises(ValueError, match="n must be at least 2"):
            expected_min(1, 1.0, 0.5)
        for s in (0.0, 1.5):
            with pytest.raises(ValueError, match="s must lie in"):
                expected_min(10_000, 1.0, s)

    @pytest.mark.parametrize("s", [1.0, 0.5])
    @pytest.mark.parametrize("lam", [math.nan, math.inf, -1.0])
    def test_rejects_a_multiplier_outside_the_model(self, lam, s):
        # NaN once fell through every regime comparison to E1
        with pytest.raises(ValueError, match="nonnegative and finite"):
            expected_min(100, lam, s)


class TestPredict:
    def test_case1_worked_example(self):
        pred = predict(3000, math.sqrt(3000), 1.0)
        assert pred.regime == "CASE1"
        assert abs(pred.w_star - 21.51) < 0.01
        assert abs(pred.lambda_star_hint - math.pi * 3000 / (8 * 3000)) < 1e-9

    def test_case2_slack(self):
        pred = predict(1000, 600.0, 1.0)
        assert pred.regime == "CASE2_SLACK" and pred.w_star == 1.0

    def test_case2_tight(self):
        pred = predict(2000, 600.0, 1.0)
        assert pred.regime == "CASE2_TIGHT"
        assert 0 < pred.alpha < 0.5
        b = pred.beta_star
        assert abs(f_prime(b) - 0.3) <= 1e-10
        assert pred.w_star == pytest.approx(f_eval(b) - 0.3 * b)

    def test_case3_infeasible(self):
        pred = predict(1000, 0.8, 1.0)
        assert pred.regime == "CASE3_INFEASIBLE" and pred.w_star is None

    def test_case3_tight(self):
        pred = predict(2000, 2.0, 1.0)
        assert pred.regime == "CASE3_TIGHT"
        b = pred.beta_star
        assert abs(g_prime(b) - 2.0) <= 1e-10
        assert pred.w_star == pytest.approx((g_eval(b) - 2.0 * b) * 2000)

    def test_power_law_regime(self):
        pred = predict(2000, 2000**0.75, 0.5)
        assert pred.regime == "THEOREM2"
        expected = c_s(0.5) ** 2 * 2000**1.5 / (4 * 2000**0.75)
        assert pred.w_star == pytest.approx(expected)

    def test_ambiguous_cases(self):
        with pytest.raises(AmbiguousRegimeError):
            predict(1000, 1.0, 1.0)  # constant budget exactly 1
        with pytest.raises(AmbiguousRegimeError):
            predict(2000, 5.0, 0.5)  # below the s<1 band

    def test_case_consistency_limits(self):
        # tiny alpha in the proportional regime reduces to the intermediate formula
        alpha = 1e-4
        b = beta_star(alpha, "CASE2")
        assert abs((f_eval(b) - alpha * b) - math.pi / (8 * alpha)) / (
            math.pi / (8 * alpha)
        ) < 0.02
        # huge constant budget does too
        alpha = 1e3
        b = beta_star(alpha, "CASE3")
        assert abs((g_eval(b) - alpha * b) - math.pi / (8 * alpha)) / (
            math.pi / (8 * alpha)
        ) < 0.02

    def test_lambda_hint(self):
        # predict's hint wherever predict gives one, bit for bit
        for n, c0, s in ((3000, math.sqrt(3000), 1.0), (2000, 600.0, 1.0),
                         (2000, 2.0, 1.0), (2000, 2000**0.75, 0.5)):
            assert lambda_hint(n, c0, s) == predict(n, c0, s).lambda_star_hint
        # 0.0 where predict has none: slack, infeasible and ambiguous budgets
        for c0 in (600.0, 0.8, 1.0):
            assert lambda_hint(1000, c0) == 0.0
        # for s < 1 the closed form holds off predict's band too, and c0**2
        # underflowing to 0 gives inf, not ZeroDivisionError
        assert lambda_hint(2000, 5.0, 0.5) == c_s(0.5) ** 2 * 2000**1.5 / (4 * 5.0 * 5.0)
        assert lambda_hint(2000, 1e-170, 0.5) == math.inf
        for n, c0, s in ((1, 5.0, 0.5), (100, 0.0, 0.5), (100, math.nan, 0.5), (100, 5.0, 0.0)):
            with pytest.raises(ValueError):
                lambda_hint(n, c0, s)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            predict(1, 5.0, 1.0)
        with pytest.raises(ValueError):
            predict(100, -1.0, 1.0)
        with pytest.raises(ValueError):
            predict(100, 5.0, 0.0)

    @pytest.mark.parametrize("c0", [math.inf, math.nan])
    def test_rejects_a_non_finite_budget(self, c0):
        with pytest.raises(ValueError, match="finite"):
            predict(100, c0, 1.0)
