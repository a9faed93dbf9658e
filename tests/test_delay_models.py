"""Delay distributions, harmonic sums, and order-statistic closed forms."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicast_aoi import (
    HyperExponential,
    RandomStream,
    ShiftedExponential,
    harmonic,
    harmonic2,
    order_stat_moments,
    partial_order_mean_sum,
)
from multicast_aoi.delay_models import _SAMPLE_BLOCK, _tail_sums
from scalar_oracles import order_stat_mc_oracle


class TestModels:
    def test_shifted_exponential_support_lower_bound(self):
        model = ShiftedExponential(1.0, 1.0)
        draws = model.sample(RandomStream(3), 100_000)
        assert float(draws.min()) >= 1.0

    def test_exponential_sample_mean(self):
        model = ShiftedExponential(2.0, 0.0)
        draws = model.sample(RandomStream(5), 1_000_000)
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) <= 3 * stderr

    def test_hyperexponential_sample_moments(self):
        model = HyperExponential((1.0, 6.0), (0.4, 0.6))
        assert model.mean() == pytest.approx(0.4 * 1.0 + 0.6 / 6.0)
        draws = model.sample(RandomStream(7), 2_000_000)
        centred = draws - draws.mean()
        variance = centred.var()
        mean_stderr = math.sqrt(variance / draws.size)
        variance_stderr = math.sqrt(((centred**4).mean() - variance**2) / draws.size)
        assert abs(draws.mean() - model.mean()) <= 4 * mean_stderr
        assert abs(variance - model.variance()) <= 4 * variance_stderr
        assert float(draws.min()) >= 0.0

    def test_closed_form_moments(self):
        assert ShiftedExponential(1.0, 1.0).mean() == pytest.approx(2.0)
        assert ShiftedExponential(1.0, 1.0).variance() == pytest.approx(1.0)
        assert ShiftedExponential(2.0, 0.0).mean() == pytest.approx(0.5)
        hyper = HyperExponential((1.0, 6.0), (0.4, 0.6))
        assert hyper.mean() == pytest.approx(0.5)
        # mixture second moment 2*sum(w/r^2) minus squared mean
        assert hyper.variance() == pytest.approx(2 * (0.4 + 0.6 / 36) - 0.25)

    @pytest.mark.parametrize(
        "bad",
        [
            lambda: ShiftedExponential(0.0, 1.0),
            lambda: ShiftedExponential(-1.0, 0.0),
            lambda: ShiftedExponential(1.0, -0.5),
            lambda: HyperExponential((1.0, -2.0), (0.5, 0.5)),
            lambda: HyperExponential((1.0, 2.0), (0.5, 0.4)),
            lambda: HyperExponential((1.0,), (0.5, 0.5)),
            lambda: HyperExponential((), ()),
            # sums to 1 with a negative weight
            lambda: HyperExponential((1.0, 2.0), (1.5, -0.5)),
        ],
    )
    def test_invalid_models_rejected(self, bad):
        with pytest.raises(ValueError):
            bad()


# Plain versions of the samplers; the in-place ones must give the same bits
# on the same stream.
def reference_shifted_sample(model, stream, size=None):
    u = stream.generator.random(size)
    return model.shift - np.log1p(-u) / model.rate


def reference_hyper_sample(model, stream, size=None):
    """One uniform per delay, element by element: u in component c's interval
    [low_c, high_c) (the last of positive weight up to 1.0, any after it
    empty at 1.0) gives (log width_c - log(high_c - u)) / rate_c."""
    u = stream.generator.random(size)
    last = max(c for c, w in enumerate(model.weights) if w > 0)
    edges = [float(e) if c < last else 1.0 for c, e in enumerate(np.cumsum(model.weights)[:-1])]
    lows, highs = [0.0, *edges], [*edges, 1.0]
    draws = np.empty_like(u)
    for i, x in enumerate(u.flat):
        c = sum(x >= edge for edge in edges)
        inv_rate = 1.0 / model.rates[c]
        log_width = np.log(highs[c] - lows[c])
        draws.flat[i] = log_width * inv_rate - np.log(highs[c] - x) * inv_rate
    return draws


class _ScriptedGenerator:
    """Hands out prepared uniforms in order, through Generator.random's interface."""

    def __init__(self, values):
        self._values = iter(values)

    def random(self, size=None, out=None):
        target = np.empty(size) if out is None else out
        flat = target.reshape(-1)
        for i in range(flat.size):
            flat[i] = next(self._values)
        return target


class _ScriptedStream:
    def __init__(self, values):
        self.generator = _ScriptedGenerator(values)


SAMPLERS = [
    (ShiftedExponential(1.0, 1.0), reference_shifted_sample),
    (ShiftedExponential(0.37, 0.0), reference_shifted_sample),
    (HyperExponential((1.0, 6.0), (0.4, 0.6)), reference_hyper_sample),
    # a zero weight: the middle component is never drawn
    (HyperExponential((1.0, 3.0, 6.0), (0.2, 0.0, 0.8)), reference_hyper_sample),
    (HyperExponential((2.5,), (1.0,)), reference_hyper_sample),
]
SAMPLER_IDS = ["exp_1_1", "exp_0.37", "hyper2", "hyper3_zero_weight", "hyper1"]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class TestSamplersBitIdentical:
    @pytest.mark.parametrize("model, reference", SAMPLERS, ids=SAMPLER_IDS)
    @pytest.mark.parametrize("shape", [(1, 1), (1562, 100)])
    @pytest.mark.parametrize("seed", [0, 905])
    def test_array_draws(self, model, reference, shape, seed):
        expected = reference(model, RandomStream(seed, 4), shape)
        assert same_bits(model.sample(RandomStream(seed, 4), shape), expected)
        out = np.empty(shape)
        assert model.sample(RandomStream(seed, 4), out=out) is out
        assert same_bits(out, expected)

    @pytest.mark.parametrize("model, reference", SAMPLERS, ids=SAMPLER_IDS)
    def test_a_draw_needs_size_or_out(self, model, reference):
        stream = RandomStream(3)
        with pytest.raises(ValueError, match="^sample needs one of size and out$"):
            model.sample(stream)
        # the refused call drew nothing
        assert same_bits(model.sample(stream, 5), reference(model, RandomStream(3), 5))

    def test_consecutive_draws_into_one_buffer_follow_the_stream(self):
        model = HyperExponential((1.0, 6.0), (0.4, 0.6))
        stream, reference_stream = RandomStream(12), RandomStream(12)
        out = np.empty((300, 50))
        for rows in (300, 17, 1):
            view = out[:rows]
            model.sample(stream, out=view)
            assert same_bits(view, reference_hyper_sample(model, reference_stream, (rows, 50)))

    @pytest.mark.parametrize("model, reference", SAMPLERS, ids=SAMPLER_IDS)
    @pytest.mark.parametrize("split", [1, 3 * 40 + 7, _SAMPLE_BLOCK - 1, _SAMPLE_BLOCK + 3])
    def test_one_uniform_per_delay_in_element_order(self, model, reference, split):
        # 250 rows of 40 are more than one of HyperExponential's blocks
        whole = model.sample(RandomStream(8, 2), (250, 40)).ravel()
        stream = RandomStream(8, 2)
        head = model.sample(stream, split)
        assert same_bits(np.concatenate([head, model.sample(stream, whole.size - split)]), whole)
        skipped = RandomStream(8, 2)
        skipped.skip(split)
        assert same_bits(model.sample(skipped, whole.size - split), whole[split:])

    def test_zero_weight_component_is_never_drawn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = HyperExponential((1.0, 3.0, 6.0), (0.2, 0.0, 0.8))
        # the middle component's interval [0.2, 0.2) is empty; drawing it
        # would give log 0 - log 0, not a number
        edge = 0.2
        below = [0.0, 0.1, math.nextafter(edge, 0.0)]
        above = [edge, math.nextafter(edge, 1.0), 0.5, 1.0 - 2.0**-53]
        drawn = model.sample(_ScriptedStream(below + above), len(below) + len(above))
        assert np.isfinite(drawn).all()
        expected = [math.log(edge / (edge - u)) for u in below]
        expected += [math.log(0.8 / (1.0 - u)) / 6.0 for u in above]
        # the log form is exact to a few 1e-16 absolute
        assert drawn.tolist() == pytest.approx(expected, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("rates, weights", [((1.0, 3.0), (0.5, 0.5 - 5e-13)),
                                                ((1.0, 3.0, 6.0), (0.5, 0.5 - 5e-13, 0.0))],
                             ids=["two", "zero_weight_last"])
    def test_uniform_above_the_last_cumulative_weight(self, rates, weights):
        # weights summing to 1 - 5e-13 leave room for a uniform above the
        # last edge; the last component of positive weight owns it, up to
        # 1.0, and a zero-weight one after it owns nothing
        model = HyperExponential(rates, weights)
        assert math.fsum(model.weights) < 1.0
        last_edge = float(np.cumsum(model.weights)[-1])
        uniforms = [0.2, last_edge, math.nextafter(last_edge, 1.0), 1.0 - 2.0**-53]
        drawn = model.sample(_ScriptedStream(uniforms), (2, 2))
        assert same_bits(drawn, reference_hyper_sample(model, _ScriptedStream(uniforms), (2, 2)))
        assert np.isfinite(drawn).all()
        assert drawn[0, 0] == pytest.approx(math.log(0.5 / 0.3), rel=1e-12)
        for delay, u in zip(drawn.flat[1:], uniforms[1:]):
            assert delay == pytest.approx(math.log(0.5 / (1.0 - u)) / 3.0, rel=1e-9)


class TestRandomStream:
    def test_reproducible(self):
        a = ShiftedExponential(1.0, 0.0).sample(RandomStream(42, 3), 1000)
        b = ShiftedExponential(1.0, 0.0).sample(RandomStream(42, 3), 1000)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = ShiftedExponential(1.0, 0.0).sample(RandomStream(42, 0), 1000)
        b = ShiftedExponential(1.0, 0.0).sample(RandomStream(42, 1), 1000)
        assert not np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ValueError):
            RandomStream(-1)
        with pytest.raises(ValueError):
            RandomStream(2**64)
        with pytest.raises(ValueError):
            RandomStream(0, -1)


class TestHarmonic:
    def test_small_values(self):
        assert harmonic(0) == 0.0
        assert harmonic(1) == 1.0
        assert harmonic2(0) == 0.0
        assert harmonic2(1) == 1.0
        assert harmonic(4) == pytest.approx(25 / 12, rel=1e-15)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            harmonic(-1)
        with pytest.raises(ValueError):
            harmonic2(-3)

    def test_second_order_limit(self):
        # monotone from below toward pi^2/6, gap ~ 1/n
        limit = math.pi**2 / 6
        values = [harmonic2(n) for n in (10, 100, 1000, 10_000)]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(v < limit for v in values)
        assert limit - harmonic2(1_000_000) < 1.1e-6


def exact_tails(n, ks):
    """Exact ``(T1, T2, k - (n-k) T1)`` over n-k < j <= n for each k in ``ks``.

    Sums ``L/j`` and ``L^2/j^2`` in integers with ``L = lcm(1..n)``, so the
    reference carries no rounding at all.
    """
    lcm = math.lcm(*range(1, n + 1))
    lcm2 = lcm * lcm
    wanted, exact = set(ks), {}
    s1 = s2 = 0
    for k in range(1, n + 1):
        j = n - k + 1
        s1 += lcm // j
        s2 += lcm2 // (j * j)
        if k in wanted:
            t1 = Fraction(s1, lcm)
            exact[k] = (t1, Fraction(s2, lcm2), k - (n - k) * t1)
    return exact


def relative_error(got, want):
    return abs(Fraction(got) - want) / want


class TestTailSumKernel:
    # Every branch boundary of the kernel (direct sums up to 64 terms, the
    # asymptotic expansion from index 32 upward) plus k = 1 and k = n.
    N_GRID = (1, 2, 3, 10, 31, 32, 33, 64, 65, 66, 97, 100, 1000, 20_000)

    @staticmethod
    def k_grid(n):
        ks = {1, 2, 3, 32, 33, 64, 65, 66, n // 2, n - 65, n - 64, n - 33, n - 32, n - 31, n - 1, n}
        return sorted(k for k in ks if 1 <= k <= n)

    def test_against_exact_rationals(self):
        worst = Fraction(0)
        for n in self.N_GRID:
            ks = self.k_grid(n)
            for k, (t1, t2, excess) in exact_tails(n, ks).items():
                got = _tail_sums(n, k)
                for value, want in zip(got, (t1, t2, excess)):
                    worst = max(worst, relative_error(value, want))
                for rate, shift in ((1.0, 0.0), (0.7, 0.3), (3.0, 2.0)):
                    r, c = Fraction(rate), Fraction(shift)
                    m = order_stat_moments(rate, shift, k, n)
                    worst = max(
                        worst,
                        relative_error(m.mean, c + t1 / r),
                        relative_error(m.variance, t2 / (r * r)),
                        relative_error(
                            partial_order_mean_sum(rate, shift, k, n), k * c + excess / r
                        ),
                    )
        assert worst <= 1e-12, float(worst)

    def test_harmonic_numbers_match_exact_rationals(self):
        for n in (64, 65, 100, 1000):
            t1, t2, _ = exact_tails(n, [n])[n]
            assert relative_error(harmonic(n), t1) <= 1e-15
            assert relative_error(harmonic2(n), t2) <= 1e-15

    def test_single_largest_index_at_ten_million(self):
        n = 10_000_000
        m = order_stat_moments(1.0, 0.0, 1, n)
        assert m.mean == 1.0 / n
        assert m.variance == pytest.approx(1.0 / n**2, rel=1e-15)
        assert partial_order_mean_sum(1.0, 0.0, 1, n) == 1.0 / n
        # sum_{i<=k} E[X_{i:n}] = sum_{i<=k} i/(n-k+i) for Exp(1): formed from
        # the tail sum as k - (n-k) T1 it would lose ~1e-10 here
        for k in (2, 3, 100, 1000):
            exact = sum(Fraction(i, n - k + i) for i in range(1, k + 1))
            assert relative_error(partial_order_mean_sum(1.0, 0.0, k, n), exact) <= 1e-15

    def test_asymptotics_at_ten_million(self):
        n = 10_000_000
        euler_gamma = 0.57721566490153286
        h = math.log(n) + euler_gamma + 1 / (2 * n) - 1 / (12 * n**2)
        h2 = math.pi**2 / 6 - 1 / n + 1 / (2 * n**2) - 1 / (6 * n**3)
        assert harmonic(n) == pytest.approx(h, rel=1e-15)
        assert harmonic2(n) == pytest.approx(h2, rel=1e-15)
        # a long tail away from both ends: log(n/m) plus O(k/(mn)) corrections
        t1, t2, _ = _tail_sums(n, n // 2)
        m = n - n // 2
        assert t1 == pytest.approx(math.log(n / m) - (1 / m - 1 / n) / 2, rel=1e-14)
        assert t2 == pytest.approx((1 / m - 1 / n) - (1 / m**2 - 1 / n**2) / 2, rel=1e-13)


class TestOrderStatMoments:
    def test_single_draw(self):
        m = order_stat_moments(1.0, 1.0, 1, 1)
        assert m.mean == pytest.approx(2.0)
        assert m.variance == pytest.approx(1.0)
        assert m.second_moment == pytest.approx(5.0)

    def test_min_of_two_exponentials(self):
        # min of two Exp(1) is Exp(2)
        m = order_stat_moments(1.0, 0.0, 1, 2)
        assert m.mean == pytest.approx(0.5)
        assert m.variance == pytest.approx(0.25)

    def test_max_of_two_exponentials(self):
        m = order_stat_moments(1.0, 0.0, 2, 2)
        assert m.mean == pytest.approx(1.5)
        assert m.variance == pytest.approx(1.25)
        assert m.second_moment == pytest.approx(3.5)

    @pytest.mark.parametrize("rate,shift,k,n", [(1, 0, 0, 2), (1, 0, 3, 2), (0, 0, 1, 1),
                                                (-2, 0, 1, 1), (1, -1, 1, 1), (1, 0, 0, 0)])
    def test_rejects_bad_parameters(self, rate, shift, k, n):
        with pytest.raises(ValueError):
            order_stat_moments(rate, shift, k, n)

    @settings(max_examples=150, deadline=None)
    @given(
        rate=st.floats(min_value=0.1, max_value=10.0),
        shift=st.floats(min_value=0.0, max_value=5.0),
        n=st.integers(min_value=1, max_value=300),
        data=st.data(),
    )
    def test_moment_identities(self, rate, shift, n, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        m = order_stat_moments(rate, shift, k, n)
        assert m.second_moment == pytest.approx(m.variance + m.mean**2, rel=1e-12)
        if k < n:
            assert order_stat_moments(rate, shift, k + 1, n).mean >= m.mean
        assert order_stat_moments(rate, shift, n, n).mean == pytest.approx(
            shift + harmonic(n) / rate, rel=1e-12
        )
        assert order_stat_moments(rate, shift, 1, n).mean == pytest.approx(
            shift + 1.0 / (n * rate), rel=1e-12
        )

    def test_variance_mean_ratio_vanishes(self):
        m = order_stat_moments(1.0, 1.0, 5_000, 10_000)
        assert m.variance / m.mean < 1e-3


class TestPartialOrderMeanSum:
    def test_examples(self):
        assert partial_order_mean_sum(1.0, 0.0, 1, 2) == pytest.approx(0.5)
        assert partial_order_mean_sum(1.0, 0.0, 2, 2) == pytest.approx(2.0)
        for n in (1, 4, 9):
            assert partial_order_mean_sum(1.0, 1.0, n, n) == pytest.approx(2.0 * n)

    def test_matches_explicit_sum_up_to_200(self):
        for n in range(1, 201):
            explicit = 0.0
            for k in range(1, n + 1):
                explicit += order_stat_moments(0.7, 0.3, k, n).mean
                assert partial_order_mean_sum(0.7, 0.3, k, n) == pytest.approx(
                    explicit, rel=1e-10
                )


@pytest.mark.parametrize(
    "check",
    [order_stat_moments, partial_order_mean_sum,
     lambda rate, shift, k, n: ShiftedExponential(rate, shift)],
    ids=["order_stat_moments", "partial_order_mean_sum", "ShiftedExponential"],
)
@pytest.mark.parametrize(
    "rate, shift",
    [(math.nan, 0.0), (math.inf, 0.0), (0.0, 0.0), (-1.0, 0.0),
     (1.0, math.nan), (1.0, math.inf), (1.0, -0.5), ("1", 0.0), (1.0, None),
     pytest.param(10**400, 0.0, id="int-beyond-doubles")],
)
def test_one_rate_shift_rule(check, rate, shift):
    with pytest.raises(ValueError, match="rate|shift"):
        check(rate, shift, 1, 2)


class TestModelParameters:
    """A model's parameters are read as Python floats, whatever their spelling."""

    @pytest.mark.parametrize("rate, shift", [
        (2, 1), (np.float64(2.0), np.float32(1.0)), (np.int64(2), True), (2.0, 1.0),
    ])
    def test_real_numbers_are_stored_as_floats(self, rate, shift):
        model = ShiftedExponential(rate, shift)
        assert (type(model.rate), type(model.shift)) == (float, float)
        assert repr(model) == "ShiftedExponential(rate=2.0, shift=1.0)"
        hyper = HyperExponential((rate, 6), (np.float64(0.4), 0.6))
        assert repr(hyper) == repr(HyperExponential((2.0, 6.0), (0.4, 0.6)))

    def test_negative_zero_is_zero(self):
        model = ShiftedExponential(1.0, -0.0)
        assert math.copysign(1.0, model.shift) == 1.0
        assert model.label() == "shifted_exp(rate=1,shift=0)"
        weights = HyperExponential((1.0, 2.0), (1.0, -0.0)).weights
        assert math.copysign(1.0, weights[1]) == 1.0

    @pytest.mark.parametrize("build, message", [
        (lambda: ShiftedExponential("1", 0), "^rate must be a real number, got '1'"),
        (lambda: ShiftedExponential(1, "0"), "^shift must be a real number, got '0'"),
        (lambda: ShiftedExponential(1, 1j), "^shift must be a real number"),
        (lambda: HyperExponential(("1", "6"), ("0.4", "0.6")), r"^rates\[0\] must be a real"),
        (lambda: HyperExponential((1, 6), (0.4, None)), r"^weights\[1\] must be a real"),
    ], ids=["rate_string", "shift_string", "complex", "hyper_strings", "hyper_none"])
    def test_a_non_real_is_a_value_error_naming_the_parameter(self, build, message):
        # strings once raised a bare TypeError, or were parsed by float()
        with pytest.raises(ValueError, match=message):
            build()


class TestMcOracle:
    def test_agrees_with_closed_forms(self):
        stream = RandomStream(2024)
        for rate, shift in ((1.0, 0.0), (2.0, 1.0)):
            for n in (1, 5, 20):
                for k in sorted({1, (n + 1) // 2, n}):
                    est = order_stat_mc_oracle(
                        ShiftedExponential(rate, shift), k, n, 30_000, stream
                    )
                    closed = order_stat_moments(rate, shift, k, n)
                    assert abs(est.mean - closed.mean) <= 4 * est.stderr
                    assert abs(est.variance - closed.variance) <= 4 * est.variance_stderr

    def test_hyperexponential_estimate_is_finite(self):
        est = order_stat_mc_oracle(
            HyperExponential((1.0, 6.0), (0.4, 0.6)), 50, 100, 20_000, RandomStream(9)
        )
        assert math.isfinite(est.mean) and est.mean > 0
        assert math.isfinite(est.variance) and est.variance > 0

    def test_minimum_sample_size_enforced(self):
        with pytest.raises(ValueError):
            order_stat_mc_oracle(ShiftedExponential(1.0), 1, 1, 999, RandomStream(1))


def test_sample_delay_matrix_shape():
    draws = ShiftedExponential(1.0, 0.0).sample(RandomStream(1), (50, 3))
    assert draws.shape == (50, 3)
