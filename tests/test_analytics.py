"""Closed-form age formulas, approximations, and threshold optimization."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicast_aoi import (
    age_earliest_k,
    age_earliest_k_approx,
    age_preselected_k,
    age_preselected_k_approx,
    age_preselected_k_process,
    age_wait_for_all,
    age_wait_for_all_general,
    optimal_alpha,
    optimal_k_closed_form,
    optimal_k_exact,
    order_stat_moments,
)
from multicast_aoi.analytics import AgeResult

EULER_GAMMA = 0.5772156649015329

RATE_GRID = (0.5, 1.0, 2.0)
SHIFT_GRID = (0.0, 0.5, 1.0, 2.0)
N_GRID = (1, 2, 5, 10, 50, 100)


class TestWaitForAll:
    def test_single_node_shifted_exponential(self):
        result = age_wait_for_all(1.0, 1.0, 1)
        assert result.total == pytest.approx(3.25, abs=1e-12)
        assert result.breakdown["shift_term"] == pytest.approx(1.5)
        assert result.breakdown["rate_term"] == pytest.approx(1.0)
        assert result.breakdown["harmonic_term"] == pytest.approx(0.5)
        assert result.breakdown["variance_ratio_term"] == pytest.approx(0.25)

    def test_two_exponential_links(self):
        assert age_wait_for_all(1.0, 0.0, 2).total == pytest.approx(13 / 6, rel=1e-12)

    def test_general_form_examples(self):
        assert age_wait_for_all_general(2.0, 2.0, 5.0).total == pytest.approx(3.25)
        assert age_wait_for_all_general(1.0, 1.5, 3.5).total == pytest.approx(13 / 6)
        # degenerate deterministic delay: age is 3c/2
        c = 0.8
        assert age_wait_for_all_general(c, c, c * c).total == pytest.approx(1.5 * c)

    def test_general_form_rejects_impossible_moments(self):
        with pytest.raises(ValueError):
            age_wait_for_all_general(1.0, 2.0, 3.9)
        with pytest.raises(ValueError):
            age_wait_for_all_general(0.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="interval_mean must be finite and > 0, got 0.0"):
            age_wait_for_all_general(1.0, 0.0, 1.0)
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            age_wait_for_all(1.0, 0.0, 0)

    def test_matches_general_form_fed_with_order_stat_moments(self):
        for rate in RATE_GRID:
            for shift in SHIFT_GRID:
                for n in N_GRID:
                    top = order_stat_moments(rate, shift, n, n)
                    general = age_wait_for_all_general(
                        shift + 1.0 / rate, top.mean, top.second_moment
                    )
                    direct = age_wait_for_all(rate, shift, n)
                    assert direct.total == pytest.approx(general.total, rel=1e-10)

    def test_logarithmic_growth_for_large_n(self):
        n = 1_000_000
        result = age_wait_for_all(1.0, 0.0, n)
        log_form = 1.0 + (math.log(n) + EULER_GAMMA) / 2.0
        assert result.total == pytest.approx(log_form, rel=1e-2)
        assert result.breakdown["variance_ratio_term"] / result.total < 1e-2


class TestEarliestK:
    def test_hand_values(self):
        assert age_earliest_k(1.0, 0.0, 2, 1).total == pytest.approx(1.5, abs=1e-12)
        assert age_earliest_k(1.0, 1.0, 1, 1).total == pytest.approx(3.25, abs=1e-12)

    def test_k_equals_n_collapses_to_wait_for_all(self):
        assert age_earliest_k(1.0, 0.0, 2, 2).total == pytest.approx(13 / 6, rel=1e-12)

    def test_k_bounds_enforced(self):
        with pytest.raises(ValueError):
            age_earliest_k(1.0, 0.0, 2, 0)
        with pytest.raises(ValueError):
            age_earliest_k(1.0, 0.0, 2, 3)

    def test_memoryless_age_increases_with_k(self):
        for n in (2, 10, 100):
            ages = [age_earliest_k(1.0, 0.0, n, k).total for k in range(1, n + 1)]
            assert all(b > a for a, b in zip(ages, ages[1:]))


class TestEarliestKApprox:
    def test_values(self):
        assert age_earliest_k_approx(1.0, 0.0, 0.5).total == pytest.approx(
            1.0 + math.log(2) / 2
        )
        assert age_earliest_k_approx(1.0, 1.0, 0.5).total == pytest.approx(
            1.0 + math.log(2) / 2 + 2.5
        )

    def test_memoryless_case_increasing_in_alpha(self):
        alphas = [i / 100 for i in range(1, 100)]
        ages = [age_earliest_k_approx(2.0, 0.0, a).total for a in alphas]
        assert all(b > a for a, b in zip(ages, ages[1:]))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.2, -0.3])
    def test_domain_errors(self, alpha):
        with pytest.raises(ValueError):
            age_earliest_k_approx(1.0, 1.0, alpha)

    def test_tight_for_moderate_thresholds(self):
        # relative error of the log approximation stays under 5% up to k=95
        for k in range(1, 96):
            exact = age_earliest_k(1.0, 1.0, 100, k).total
            approx = age_earliest_k_approx(1.0, 1.0, k / 100).total
            assert abs(approx - exact) / exact <= 0.05


class TestPreselectedK:
    def test_hand_value(self):
        result = age_preselected_k(1.0, 0.0, 2, 1)
        assert result.total == pytest.approx(25 / 12, abs=1e-12)
        assert result.breakdown["delta1"] == pytest.approx(0.75)
        assert result.breakdown["interval_term"] == pytest.approx(5 / 6)
        assert result.breakdown["variance_ratio_term"] == pytest.approx(0.5)

    def test_k_equals_n_collapses_to_wait_for_all(self):
        for rate in RATE_GRID:
            for shift in SHIFT_GRID:
                for n in N_GRID:
                    wfa = age_wait_for_all(rate, shift, n).total
                    assert age_preselected_k(rate, shift, n, n).total == pytest.approx(
                        wfa, rel=1e-9
                    )
                    assert age_earliest_k(rate, shift, n, n).total == pytest.approx(
                        wfa, rel=1e-9
                    )

    def test_k_bounds_enforced(self):
        with pytest.raises(ValueError):
            age_preselected_k(1.0, 0.0, 3, 4)


class TestPreselectedKProcess:
    def test_hand_derived_renewal_value(self):
        # n=2, k=1, Exp(1): group round Y~X, bystander delivery Y~max of 2,
        # failure Y~min of 2; grinding the renewal algebra gives exactly 2.
        result = age_preselected_k_process(1.0, 0.0, 2, 1)
        assert result.total == pytest.approx(2.0, abs=1e-12)
        assert result.breakdown["delta1"] == pytest.approx(5 / 6)

    def test_equals_closed_form_at_k_n(self):
        for rate in RATE_GRID:
            for shift in (0.0, 1.0):
                for n in N_GRID:
                    assert age_preselected_k_process(rate, shift, n, n).total == pytest.approx(
                        age_preselected_k(rate, shift, n, n).total, rel=1e-12
                    )

    @pytest.mark.parametrize("x", [1.0, 1e4, 1e8])
    def test_variance_term_equals_closed_form_at_k_n(self, x):
        # rate*shift = x; at k = n the published form is exact
        for n in (1, 10, 100):
            process = age_preselected_k_process(1.0, x, n, n).breakdown["variance_ratio_term"]
            published = age_preselected_k(1.0, x, n, n).breakdown["variance_ratio_term"]
            assert process == pytest.approx(published, rel=1e-12, abs=0)

    def test_matches_exact_rational_moment_form(self):
        # Var[gap] as E[gap^2] - E[gap]^2, in exact rationals: no cancellation
        def tail(n, k, power):
            return sum(Fraction(1, j**power) for j in range(n - k + 1, n + 1))

        def exact(rate, shift, n, k):
            def moments(m, j):  # mean and second moment of X_{j:m}
                mean = shift + tail(m, j, 1) / rate
                return mean, mean * mean + tail(m, j, 2) / (rate * rate)

            p = Fraction(k, n)
            a = Fraction(k, k + 1)
            p_any = p + (1 - p) * a
            w_group, w_bystander = p / p_any, (1 - p) * a / p_any
            group, group2 = moments(k, k)
            overall, overall2 = moments(k + 1, k + 1)
            runner, runner2 = moments(k + 1, k)
            q = 1 - p_any
            failures, failures2 = q / p_any, q * (1 + q) / (p_any * p_any)
            mean_round = w_group * group + w_bystander * overall
            mean_gap = mean_round + failures * runner
            second_gap = (
                w_group * group2 + w_bystander * overall2
                + 2 * mean_round * failures * runner
                + failures * (runner2 - runner * runner) + failures2 * runner * runner
            )
            return mean_gap / 2, (second_gap - mean_gap * mean_gap) / (2 * mean_gap)

        grid = ((1, 0), (2, Fraction(1, 2)), (Fraction(1, 3), 1), (1, 10**4), (1, 10**8))
        for rate, shift in grid:
            for n in (1, 2, 5, 10, 40):
                for k in range(1, n + 1):
                    got = age_preselected_k_process(float(rate), float(shift), n, k).breakdown
                    interval, variance_ratio = exact(rate, shift, n, k)
                    assert abs(float(got["interval_term"] / interval - 1)) <= 1e-14
                    assert abs(float(got["variance_ratio_term"] / variance_ratio - 1)) <= 1e-14

    def test_never_above_classical_closed_form(self):
        for rate in RATE_GRID:
            for shift in (0.0, 1.0):
                for n in (2, 5, 10, 100):
                    # strictly below for k < n; k = n is test_equals_closed_form_at_k_n
                    for k in range(1, n):
                        process = age_preselected_k_process(rate, shift, n, k).total
                        classical = age_preselected_k(rate, shift, n, k).total
                        assert process < classical


class TestPreselectedKApprox:
    def test_small_case_coincidence(self):
        # at (1, 0, 2, 1) the dropped variance term happens to cancel the
        # sign flip in the delivered-delay term, so approx == closed form
        assert age_preselected_k_approx(1.0, 0.0, 2, 1).total == pytest.approx(25 / 12)

    def test_error_vs_closed_form_at_n100(self):
        exact = age_preselected_k(1.0, 1.0, 100, 100).total
        approx = age_preselected_k_approx(1.0, 1.0, 100, 100).total
        rel = abs(approx - exact) / exact
        # measured gap is ~2.5%; keep both bounds so a regression either way shows up
        assert 0.02 < rel < 0.03

    def test_tiny_n_weakness_documented(self):
        # the approximation collapses for n = 1: 1.5 versus the exact 2.0
        assert age_preselected_k_approx(1.0, 0.0, 1, 1).total == pytest.approx(1.5)
        assert age_preselected_k(1.0, 0.0, 1, 1).total == pytest.approx(2.0)


class TestDelta1Bound:
    """delta1 is the mean delay of a delivered update, at most ``c + 1/lambda``.

    A group member's delay has mean ``c + 1/lambda``; a bystander is
    delivered only when it beats the group's slowest member, so its
    delivered delay has a smaller mean.  The bound needs no paper text.
    """

    @pytest.mark.parametrize("age", [age_preselected_k, age_preselected_k_process])
    @pytest.mark.parametrize("k, delta1", [(1, (1.025, 1.048)), (7, (1.340, 1.348)),
                                           (19, (1.493, 1.493)), (20, (1.5, 1.5))])
    def test_exact_forms_obey_the_bound(self, age, k, delta1):
        got = age(1.0, 0.5, 20, k).breakdown["delta1"]
        exact = delta1[age is age_preselected_k_process]
        assert got == pytest.approx(exact, abs=5e-4)
        assert got <= 1.5 * (1 + 1e-15)

    def test_approximation_breaches_the_bound(self):
        # A reproduction finding, asserted so that it stays visible: the
        # approximation adds the bystander term that the published delta1
        # subtracts (see age_preselected_k_approx), which puts it above the
        # bound at every k < n.  The paper's text, which could settle the
        # sign, is not at hand, so the approximation is left as it is.
        delta1 = [age_preselected_k_approx(1.0, 0.5, 20, k).breakdown["delta1"]
                  for k in range(1, 21)]
        assert all(d > 1.5 for d in delta1[:-1])
        assert delta1[-1] == 1.5
        assert [round(delta1[k - 1], 3) for k in (1, 7, 19)] == [1.975, 1.660, 1.507]


class TestOptimalThreshold:
    def test_alpha_values(self):
        assert optimal_alpha(1.0, 0.0) == 0.0
        assert optimal_alpha(5.0, 0.0) == 0.0
        assert optimal_alpha(1.0, 1.0) == pytest.approx(math.sqrt(3) - 1, rel=1e-12)
        assert optimal_alpha(1.0, 0.5) == pytest.approx(math.sqrt(1.25) - 0.5, rel=1e-12)

    def test_alpha_depends_only_on_rate_shift_product(self):
        for t in (0.1, 2.0, 7.5):
            assert optimal_alpha(1.0 * t, 1.0 / t) == pytest.approx(
                optimal_alpha(1.0, 1.0), rel=1e-12
            )

    @settings(max_examples=100, deadline=None)
    @given(
        rate=st.floats(min_value=0.01, max_value=100.0),
        shift=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_alpha_in_unit_interval(self, rate, shift):
        alpha = optimal_alpha(rate, shift)
        assert 0.0 <= alpha < 1.0

    @pytest.mark.parametrize("product", [1e16, 1e160])
    def test_alpha_tends_to_one_for_large_products(self, product):
        # 1 - alpha* ~ 1/(2x): below half an ulp of 1.0 here, so alpha* rounds to 1.0
        assert optimal_alpha(product, 1.0) == 1.0
        assert optimal_alpha(1.0, product) == 1.0
        assert optimal_k_closed_form(product, 1.0, 10) == 10
        assert optimal_k_exact(product, 1.0, 10)[0] == 10

    def test_alpha_continuous_across_one(self):
        below = optimal_alpha(1.0, math.nextafter(1.0, 0.0))
        assert below < optimal_alpha(1.0, 1.0) == pytest.approx(math.sqrt(3) - 1, rel=1e-15)
        assert optimal_alpha(1.0, 1.0) - below < 1e-15
        assert optimal_alpha(1e8, 1.0) == pytest.approx(1.0 - 0.5e-8, rel=1e-15)

    def test_closed_form_k(self):
        assert optimal_k_closed_form(1.0, 1.0, 100) == 73
        assert optimal_k_closed_form(2.0, 0.0, 50) == 1
        assert optimal_k_closed_form(1.0, 0.5, 100) == 62

    def test_exhaustive_k(self):
        assert optimal_k_exact(1.0, 0.0, 10)[0] == 1
        k, best = optimal_k_exact(1.0, 1.0, 1)
        assert k == 1 and best.total == pytest.approx(3.25)
        k, best = optimal_k_exact(1.0, 1.0, 100)
        assert abs(k - 73) <= 3
        approx_at_opt = age_earliest_k_approx(1.0, 1.0, optimal_alpha(1.0, 1.0)).total
        assert abs(best.total - approx_at_opt) / approx_at_opt <= 0.01


class TestExhaustiveThreshold:
    # k_exhaustive as found by the earlier per-k loop over age_earliest_k
    @pytest.mark.parametrize(
        "rate,shift,n,k_star",
        [
            (1.0, 1.0, 2000, 1464),
            (1.0, 1.0, 8000, 5857),
            (2.0, 0.25, 2000, 1236),
            (2.0, 0.25, 8000, 4944),
            (0.5, 3.0, 2000, 1583),
            (0.5, 3.0, 8000, 6330),
        ],
    )
    def test_pinned_minimizers(self, rate, shift, n, k_star):
        k, best = optimal_k_exact(rate, shift, n)
        assert k == k_star
        assert best.total == age_earliest_k(rate, shift, n, k_star).total

    @settings(max_examples=60, deadline=None)
    @given(
        rate=st.floats(min_value=0.05, max_value=20.0),
        shift=st.floats(min_value=0.0, max_value=10.0),
        n=st.integers(min_value=1, max_value=300),
    )
    def test_equals_brute_force_argmin(self, rate, shift, n):
        ages = [age_earliest_k(rate, shift, n, k).total for k in range(1, n + 1)]
        brute = ages.index(min(ages)) + 1  # smallest k on ties
        k, best = optimal_k_exact(rate, shift, n)
        assert k == brute
        assert best.total == ages[brute - 1]

    def test_matches_closed_form_at_ten_million(self):
        n = 10_000_000
        k, best = optimal_k_exact(1.0, 1.0, n)
        assert k == optimal_k_closed_form(1.0, 1.0, n)
        approx = age_earliest_k_approx(1.0, 1.0, optimal_alpha(1.0, 1.0)).total
        assert best.total == pytest.approx(approx, rel=1e-6)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            optimal_k_exact(1.0, 1.0, 0)
        with pytest.raises(ValueError):
            optimal_k_exact(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            optimal_k_exact(1.0, -1.0, 10)


class TestStructuralProperties:
    @settings(max_examples=120, deadline=None)
    @given(
        rate=st.floats(min_value=0.1, max_value=10.0),
        shift=st.floats(min_value=0.0, max_value=5.0),
        n=st.integers(min_value=1, max_value=150),
        scale=st.floats(min_value=0.1, max_value=10.0),
        data=st.data(),
    )
    def test_scale_covariance(self, rate, shift, n, scale, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        for fn in (age_earliest_k, age_preselected_k, age_preselected_k_process):
            base = fn(rate, shift, n, k).total
            scaled = fn(rate / scale, shift * scale, n, k).total
            assert scaled == pytest.approx(base * scale, rel=1e-10)
        assert age_wait_for_all(rate / scale, shift * scale, n).total == pytest.approx(
            age_wait_for_all(rate, shift, n).total * scale, rel=1e-10
        )

    @pytest.mark.parametrize("scale", [1e170, 1e-170])
    @pytest.mark.parametrize("shift", [0.0, 1.0])
    def test_scale_covariance_at_extreme_scales(self, scale, shift):
        rate = 1.0
        for n in (1, 10, 100):
            for k in sorted({1, n // 2 or 1, n}):
                for fn in (age_earliest_k, age_preselected_k,
                           age_preselected_k_process):
                    scaled = fn(rate / scale, shift * scale, n, k).total
                    assert scaled == pytest.approx(fn(rate, shift, n, k).total * scale, rel=1e-12)
            scaled = age_wait_for_all(rate / scale, shift * scale, n).total
            assert scaled == pytest.approx(age_wait_for_all(rate, shift, n).total * scale, rel=1e-12)
            k, best = optimal_k_exact(rate / scale, shift * scale, n)
            k_base, best_base = optimal_k_exact(rate, shift, n)
            assert k == k_base
            assert best.total == pytest.approx(best_base.total * scale, rel=1e-12)

    @settings(max_examples=120, deadline=None)
    @given(
        rate=st.floats(min_value=0.1, max_value=10.0),
        shift=st.floats(min_value=0.0, max_value=5.0),
        n=st.integers(min_value=1, max_value=150),
        data=st.data(),
    )
    def test_breakdown_sums_to_total(self, rate, shift, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        results = [
            age_wait_for_all(rate, shift, n),
            age_earliest_k(rate, shift, n, k),
            age_preselected_k(rate, shift, n, k),
            age_preselected_k_process(rate, shift, n, k),
            age_preselected_k_approx(rate, shift, n, k),
        ]
        if k < n:
            results.append(age_earliest_k_approx(rate, shift, k / n))
        for result in results:
            assert result.total == pytest.approx(
                math.fsum(result.breakdown.values()), rel=1e-10
            )
            assert result.total > 0
            if shift > 0:
                assert result.total >= shift


def every_formula(rate, shift):
    """Each analytics entry point, and the order statistics, at one (rate, shift)."""
    return [
        age_wait_for_all(rate, shift, 50),
        age_earliest_k(rate, shift, 50, 30),
        age_earliest_k_approx(rate, shift, 0.6),
        age_preselected_k(rate, shift, 50, 30),
        age_preselected_k_process(rate, shift, 50, 30),
        age_preselected_k_approx(rate, shift, 50, 30),
        optimal_k_exact(rate, shift, 50),
        optimal_alpha(rate, shift),
        order_stat_moments(rate, shift, 30, 50),
    ]


class TestParameterSpellings:
    """A numpy or int rate and shift compute as the Python floats they equal."""

    @pytest.mark.parametrize("rate, shift", [
        (np.float32(0.3), 0.7), (0.3, np.float32(0.7)), (np.float64(1.0), np.float64(1.0)),
        (np.int64(2), 1), (2, np.int32(1)), (True, np.float16(0.5)),
    ])
    def test_same_bits_as_python_floats(self, rate, shift):
        # under NEP 50 a float32 rate would compute in float32 (4.7e-8 off at
        # earliest-k 30 of 50); a repr tells np.float64 from float, and shows
        # every bit of a float
        assert repr(every_formula(rate, shift)) == repr(every_formula(float(rate), float(shift)))

    def test_results_hold_python_floats(self):
        _, best = optimal_k_exact(np.float64(1.0), 1.0, 5)
        assert (type(best.params["lambda"]), type(best.params["shift"])) == (float, float)
        assert {type(term) for term in best.breakdown.values()} == {float}


MOMENTS = ("mean_delay", "interval_mean", "interval_second_moment")
GENERAL_MOMENTS = (1.3, 2.0, 5.0)


def general_form_with(position, value):
    """The general form at ``GENERAL_MOMENTS``, its ``position``-th moment set to ``value``."""
    moments = list(GENERAL_MOMENTS)
    moments[position] = value
    return age_wait_for_all_general(*moments)


class TestRealInputs:
    """alpha and the general-form moments compute as the Python floats they equal."""

    # no integer lies in alpha's domain (0, 1); a Fraction is the exact spelling
    @pytest.mark.parametrize("alpha", [np.float32(0.6), np.float64(0.6), Fraction(3, 5)],
                             ids=["float32", "float64", "fraction"])
    def test_alpha_same_bits_as_python_float(self, alpha):
        result = age_earliest_k_approx(1.0, 1.0, alpha)
        assert repr(result) == repr(age_earliest_k_approx(1.0, 1.0, float(alpha)))
        assert {type(param) for param in result.params.values()} == {float}
        assert {type(term) for term in result.breakdown.values()} == {float}

    @pytest.mark.parametrize("position", range(3), ids=MOMENTS)
    @pytest.mark.parametrize("spell", [np.float32, np.float64, int], ids=lambda f: f.__name__)
    def test_moments_same_bits_as_python_floats(self, position, spell):
        value = spell(GENERAL_MOMENTS[position])  # int(1.3) is 1
        result = general_form_with(position, value)
        assert repr(result) == repr(general_form_with(position, float(value)))
        assert {type(param) for param in result.params.values()} == {float}
        assert {type(term) for term in result.breakdown.values()} == {float}

    @pytest.mark.parametrize("bad", ["0.6", math.nan, math.inf, -math.inf])
    def test_alpha_rejects_non_finite_and_non_reals(self, bad):
        with pytest.raises(ValueError, match="^alpha must "):
            age_earliest_k_approx(1.0, 1.0, bad)

    @pytest.mark.parametrize("position", range(3), ids=MOMENTS)
    @pytest.mark.parametrize("bad", ["2.0", math.nan, math.inf, -math.inf])
    def test_moments_reject_non_finite_and_non_reals(self, position, bad):
        with pytest.raises(ValueError, match=f"^{MOMENTS[position]} must "):
            general_form_with(position, bad)


class TestAgeResultValidation:
    def test_total_must_match_breakdown(self):
        with pytest.raises(ValueError):
            AgeResult(total=2.0, breakdown={"a": 0.5}, kind="exact", scheme="earliest_k")

    @pytest.mark.parametrize("total, params, message", [
        (-1.0, {}, "must be positive"),
        (1.0, {"shift": 2.0}, "below the delay lower bound 2.0"),
    ])
    def test_total_out_of_range_rejected(self, total, params, message):
        with pytest.raises(ValueError, match=message):
            AgeResult(total=total, breakdown={"a": total}, kind="exact", scheme="earliest_k",
                      params=params)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_total_rejected(self, bad):
        with pytest.raises(ValueError, match="not finite"):
            AgeResult(total=bad, breakdown={"a": bad}, kind="exact", scheme="earliest_k")

    def test_kind_and_scheme_validated(self):
        with pytest.raises(ValueError):
            AgeResult(total=1.0, breakdown={"a": 1.0}, kind="guessed", scheme="earliest_k")
        with pytest.raises(ValueError):
            AgeResult(total=1.0, breakdown={"a": 1.0}, kind="exact", scheme="nearest_k")
