"""Monte Carlo engine: round resolution, sawtooth accounting, oracle agreement."""

import dataclasses
import inspect
import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multicast_aoi import (
    EarliestK,
    HyperExponential,
    PreSelectedK,
    RandomStream,
    ShiftedExponential,
    SimConfig,
    SimulationError,
    WaitForAll,
    age_earliest_k,
    age_preselected_k_process,
    age_wait_for_all,
    replicate,
    run_rounds,
)
from multicast_aoi import simulator
from multicast_aoi.simulator import (
    _SLICE_ELEMENTS,
    _Run,
    _Workspace,
    _credit_deliveries,
    _credit_rounds,
    _slowest_rank_cdf,
)
from scalar_oracles import NodeAgeState, accumulate_delivery, run_round


class TestRunRound:
    def test_earliest_one(self):
        y, delivered = run_round(EarliestK(1), [0.7, 0.3, 0.9])
        assert y == 0.3 and delivered == {1}

    def test_wait_for_all(self):
        y, delivered = run_round(WaitForAll(), [0.7, 0.3, 0.9])
        assert y == 0.9 and delivered == {0, 1, 2}

    def test_preselected_bystander_beats_group(self):
        y, delivered = run_round(PreSelectedK(1, "fixed"), [0.7, 0.3, 0.9])
        assert y == 0.7 and delivered == {0, 1}

    def test_tie_goes_to_lowest_index(self):
        y, delivered = run_round(EarliestK(1), [0.5, 0.5, 0.7])
        assert y == 0.5 and delivered == {0}
        y, delivered = run_round(EarliestK(2), [0.5, 0.5, 0.5])
        assert delivered == {0, 1}

    def test_k_above_n_rejected(self):
        with pytest.raises(ValueError):
            run_round(EarliestK(4), [0.1, 0.2, 0.3])
        with pytest.raises(ValueError):
            run_round(PreSelectedK(4), [0.1, 0.2, 0.3], group_stream=RandomStream(1))

    def test_negative_delays_rejected(self):
        with pytest.raises(ValueError):
            run_round(WaitForAll(), [0.1, -0.2])

    def test_negative_zero_is_a_valid_delay(self):
        y, delivered = run_round(WaitForAll(), [0.0, -0.0, 0.5])
        assert y == 0.5 and delivered == {0, 1, 2}

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("policy", [WaitForAll(), EarliestK(1), PreSelectedK(1, "fixed")])
    def test_non_finite_delays_rejected(self, bad, policy):
        with pytest.raises(ValueError, match="finite"):
            run_round(policy, [0.1, bad, 0.3])
        delays = np.full((4, 3), 0.5)
        delays[2, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            run_rounds(policy, delays)

    def test_preselected_needs_group_source(self):
        with pytest.raises(ValueError):
            run_round(PreSelectedK(1), [0.1, 0.2])

    @pytest.mark.parametrize("policy, delays, message", [
        (WaitForAll(), np.full(5, 0.5),
         r"delays must be a \(rounds, n\) matrix, got shape \(5,\)"),
    ])
    def test_malformed_arrays_rejected(self, policy, delays, message):
        with pytest.raises(ValueError, match=message):
            run_rounds(policy, delays)

    def test_kept_group_is_the_first_k_nodes(self):
        # no rank uniforms are needed
        delays = ShiftedExponential(1.0, 0.5).sample(RandomStream(6), (400, 5))
        y, delivered = run_rounds(PreSelectedK(2, "fixed"), delays)
        np.testing.assert_array_equal(y, np.maximum(delays[:, 0], delays[:, 1]))
        np.testing.assert_array_equal(delivered, delays <= y[:, None])


class TestRunRounds:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32),
        n=st.integers(min_value=1, max_value=8),
        rounds=st.integers(min_value=1, max_value=30),
        data=st.data(),
    )
    def test_matches_scalar_run_round(self, seed, n, rounds, data):
        k = data.draw(st.integers(min_value=1, max_value=n))
        rng = np.random.default_rng(seed)
        delays = rng.random((rounds, n))
        for policy in (WaitForAll(), EarliestK(k), PreSelectedK(k, "fixed")):
            y, delivered = run_rounds(policy, delays)
            for j in range(rounds):
                y_one, delivered_one = run_round(policy, delays[j])
                assert y[j] == y_one
                assert frozenset(np.flatnonzero(delivered[j])) == delivered_one

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_matches_pure_python_oracle_with_ties(self, n, data):
        # integer-valued delays from {0, 1, 2, 3}: most rows hold ties,
        # also at the k-th smallest value
        k = data.draw(st.integers(min_value=1, max_value=n))
        rows = data.draw(
            st.lists(st.lists(st.integers(0, 3), min_size=n, max_size=n), min_size=1, max_size=12)
        )
        delays = np.array(rows, dtype=float)
        y, delivered = run_rounds(EarliestK(k), delays)
        for j, row in enumerate(rows):
            first_k = sorted((delay, index) for index, delay in enumerate(row))[:k]
            assert y[j] == first_k[-1][0]
            assert set(np.flatnonzero(delivered[j])) == {index for _, index in first_k}
        y, delivered = run_rounds(PreSelectedK(k, "fixed"), delays)
        for j, row in enumerate(rows):
            slowest = max(row[:k])
            assert y[j] == slowest
            assert set(np.flatnonzero(delivered[j])) == {i for i in range(n) if row[i] <= slowest}
        y, delivered = run_rounds(WaitForAll(), delays)
        assert y.tolist() == [max(row) for row in rows] and delivered.all()

    def test_earliest_delivers_exactly_k(self):
        delays = ShiftedExponential(1.0).sample(RandomStream(3), (500, 7))
        _, delivered = run_rounds(EarliestK(3), delays)
        assert (delivered.sum(axis=1) == 3).all()

    def test_preselected_delivers_at_least_k(self):
        delays = ShiftedExponential(1.0).sample(RandomStream(4), (500, 7))
        y, delivered = run_rounds(PreSelectedK(3), delays, RandomStream(5).generator.random(500))
        assert (delivered.sum(axis=1) >= 3).all()
        np.testing.assert_array_equal(delivered, delays <= y[:, None])


@pytest.mark.parametrize("model", ["shifted_exp", None, ShiftedExponential],
                         ids=["string", "none", "class"])
def test_a_non_model_is_a_value_error_naming_model(model):
    # each was once accepted and failed at the first draw
    with pytest.raises(ValueError, match="^model must be"):
        SimConfig(n=5, policy=EarliestK(2), model=model, updates=200, seed=1)


@pytest.mark.parametrize("policy", ["earliest_k", EarliestK, None],
                         ids=["string", "class", "none"])
class TestNonPolicyRejected:
    """A non-policy is a ValueError naming ``policy``, not an AttributeError."""

    def test_sim_config(self, policy):
        with pytest.raises(ValueError, match="^policy must be"):
            SimConfig(n=5, policy=policy, model=ShiftedExponential(1.0, 1.0), updates=200,
                      seed=1)

    def test_run_rounds(self, policy):
        with pytest.raises(ValueError, match="^policy must be"):
            run_rounds(policy, np.ones((2, 5)))


class TestSlowestRankDraw:
    """Per-update groups enter only through the rank of their slowest member."""

    @pytest.mark.parametrize("n", [2, 3, 7, 50, 301, 2000])
    def test_cdf_matches_exact_binomial_ratio(self, n):
        for k in sorted({1, 2, n // 3, n // 2, n - 2, n - 1} & set(range(1, n))):
            cdf = _slowest_rank_cdf(n, k)
            assert cdf.shape == (n - k + 1,) and cdf[-1] == 1.0
            total = math.comb(n, k)
            for r, got in zip(range(k, n + 1), cdf):
                exact = float(Fraction(math.comb(r, k), total))
                # below 1e-300 (C(r, k)/C(n, k) at mid-range k and n = 2000)
                # the downward product reaches subnormals; a uniform draw
                # cannot resolve probabilities that small anyway
                assert math.isclose(got, exact, rel_tol=1e-12, abs_tol=1e-300), (k, r)

    @pytest.mark.parametrize(
        "row, k", [([0, 1, 1, 3, 1], 2), ([2, 0, 2, 2, 1], 3), ([1, 1, 0, 1, 1], 1)]
    )
    def test_outcome_frequencies_with_ties(self, row, k):
        # exact law of (y, delivered set) from all C(5, k) explicit groups,
        # each resolved as a kept group by moving its nodes to the front
        exact = {}
        groups = list(itertools.combinations(range(5), k))
        for group in groups:
            order = list(group) + [i for i in range(5) if i not in group]
            y, delivered = run_round(PreSelectedK(k, "fixed"), [row[i] for i in order])
            key = (y, tuple(sorted(order[i] for i in delivered)))
            exact[key] = exact.get(key, 0) + Fraction(1, len(groups))
        rounds = 200_000
        delays = np.tile(np.array(row, dtype=float), (rounds, 1))
        uniforms = RandomStream(61).generator.random(rounds)
        y, delivered = run_rounds(PreSelectedK(k), delays, uniforms)
        outcomes, counts = np.unique(np.column_stack([y, delivered]), axis=0, return_counts=True)
        seen = {}
        for outcome, count in zip(outcomes, counts):
            key = (float(outcome[0]), tuple(int(i) for i in np.flatnonzero(outcome[1:])))
            seen[key] = int(count)
        assert set(seen) <= set(exact)
        for key, p in exact.items():
            sigma = math.sqrt(float(p * (1 - p)) / rounds)
            assert abs(seen.get(key, 0) / rounds - float(p)) <= 4 * sigma, key

    def test_one_uniform_per_round(self):
        delays = ShiftedExponential(1.0, 0.5).sample(RandomStream(8), (300, 9))
        uniforms = RandomStream(9, 3).generator.random(300)
        y, delivered = run_rounds(PreSelectedK(4), delays, uniforms)
        stream = RandomStream(9, 3)
        for j in range(300):
            y_one, delivered_one = run_round(PreSelectedK(4), delays[j], group_stream=stream)
            assert y[j] == y_one
            assert frozenset(np.flatnonzero(delivered[j])) == delivered_one
        assert stream.generator.random() == RandomStream(9, 3).generator.random(301)[-1]


class TestAccumulateDelivery:
    def test_fresh_start_triangle(self):
        state = NodeAgeState()
        accumulate_delivery(state, 2.0, 1.5)
        assert state.area == pytest.approx(2.0)
        assert state.observed_span == pytest.approx(2.0)

    def test_trapezoid(self):
        state = NodeAgeState(last_delivery_wall=3.0, last_gen_timestamp=2.0)
        accumulate_delivery(state, 5.0, 4.5)
        assert state.area == pytest.approx(1.0 * 2.0 + 2.0)
        assert state.observed_span == pytest.approx(2.0)

    def test_hand_built_trace_matches_interval_sum_form(self):
        # delivery at delay x1, then two skipped rounds, then delivery at x2;
        # the accumulated area must equal (W + x2)^2/2 - x1^2/2 with W the
        # sum of the three round durations between the generation instants.
        x1, x2 = 0.5, 0.4
        y = (0.8, 1.1, 0.7)
        w = sum(y)
        state = NodeAgeState()
        accumulate_delivery(state, 0.0 + x1, 0.0)
        area_before = state.area
        accumulate_delivery(state, w + x2, w)
        added = state.area - area_before
        assert added == pytest.approx(0.5 * (w + x2) ** 2 - 0.5 * x1 * x1, abs=1e-12)

    def test_rejects_time_travel(self):
        state = NodeAgeState(last_delivery_wall=2.0, last_gen_timestamp=1.0)
        with pytest.raises(ValueError):
            accumulate_delivery(state, 1.5, 1.2)
        with pytest.raises(ValueError):
            accumulate_delivery(state, 3.0, 0.5)
        with pytest.raises(ValueError):
            accumulate_delivery(state, 3.0, 3.5)


def reference_simulate(config, width=None):
    """Scalar re-implementation of the engine from the public primitives.

    Each round draws ``width`` delays (default n), of which the nodes read
    the first n, and one uniform for a per-update group; a kept
    pre-selected group is nodes 0..k-1.  Returns the per-node averages, the delivery fractions,
    the virtual time and the batch means: the measured updates fall into
    ``max(1, min(32, updates // 50))`` batches of consecutive rounds, the
    first ``updates % batches`` of them one round longer, and each delivery
    is credited to the batch of its round.  A batch mean is the batch's
    area over its span, both summed over all nodes.
    """
    n = config.n
    delay_stream = RandomStream(config.seed, 0)
    group_stream = RandomStream(config.seed, 1)
    total = config.warmup + config.updates
    delays = config.model.sample(delay_stream, (total, width or n))[:, :n]
    states = [NodeAgeState() for _ in range(n)]
    counts = np.zeros(n, dtype=int)
    batches = max(1, min(32, config.updates // 50))
    base, extra = divmod(config.updates, batches)
    batch_of_round = np.repeat(np.arange(batches), [base + (b < extra) for b in range(batches)])
    batch_area = np.zeros(batches)
    batch_span = np.zeros(batches)
    t = 0.0
    virtual = 0.0
    for j in range(total):
        if j == config.warmup:
            for s in states:
                s.area = 0.0
                s.observed_span = 0.0
            counts[:] = 0
        y, delivered = run_round(config.policy, delays[j], group_stream=group_stream)
        for i in delivered:
            area, span = states[i].area, states[i].observed_span
            accumulate_delivery(states[i], t + delays[j, i], t)
            counts[i] += 1
            if j >= config.warmup:
                b = batch_of_round[j - config.warmup]
                batch_area[b] += states[i].area - area
                batch_span[b] += states[i].observed_span - span
        t += y
        if j >= config.warmup:
            virtual += y
    per_node = np.array([s.area / s.observed_span for s in states])
    batch_means = batch_area[batch_span > 0] / batch_span[batch_span > 0]
    return per_node, counts / config.updates, virtual, batch_means


def batch_std_error(batch_means):
    return float(np.std(batch_means, ddof=1) / math.sqrt(len(batch_means)))


class TestEngineMatchesScalarReference:
    @pytest.mark.parametrize(
        "policy, n",
        [
            (WaitForAll(), 3),
            (EarliestK(1), 3),
            (EarliestK(2), 3),
            (PreSelectedK(2, regroup="fixed"), 3),
            (PreSelectedK(2), 3),
            (EarliestK(3), 6),
            # 40 nodes share one delivery per round: most nodes get none in
            # a chunk of 50 rounds
            (EarliestK(1), 40),
        ],
        ids=["policy0", "policy1", "policy2", "policy3", "preselected2_of_3",
             "earliest3_of_6", "earliest1_of_40"],
    )
    def test_per_node_averages_identical(self, policy, n):
        config = SimConfig(
            n=n,
            policy=policy,
            model=ShiftedExponential(1.3, 0.4),
            updates=400,
            warmup=25,
            seed=97,
        )
        result = replicate(config)
        per_node, fraction, virtual, batch_means = reference_simulate(config)
        np.testing.assert_allclose(result.per_node_avg_age, per_node, rtol=1e-12)
        np.testing.assert_array_equal(result.delivery_fraction, fraction)
        assert result.virtual_time == pytest.approx(virtual, rel=1e-12)
        assert len(batch_means) == 8
        assert result.std_error == pytest.approx(batch_std_error(batch_means), rel=1e-9)

    def test_zero_warmup_boundary(self):
        config = SimConfig(
            n=2,
            policy=EarliestK(1),
            model=ShiftedExponential(1.0, 0.0),
            updates=250,
            warmup=0,
            seed=5,
        )
        result = replicate(config)
        per_node, _, _, batch_means = reference_simulate(config)
        np.testing.assert_allclose(result.per_node_avg_age, per_node, rtol=1e-12)
        # 250 updates: 5 batches of 50 rounds
        assert len(batch_means) == 5
        assert result.std_error == pytest.approx(batch_std_error(batch_means), rel=1e-9)

    @pytest.mark.parametrize(
        "policy, n, paths",
        [
            (WaitForAll(), 3, {"rounds"}),
            (EarliestK(1), 3, {"deliveries"}),
            # one miss per round: 5% of the pairs, below 1/16
            (EarliestK(19), 20, {"rounds"}),
            # misses in about 4.5% of the pairs, 45 per 50-round chunk on
            # average, against 62.5 at the threshold
            (PreSelectedK(10), 20, {"rounds"}),
            (PreSelectedK(10, regroup="fixed"), 20, {"rounds"}),
            # about 6.7% misses: chunks on both sides of the threshold
            (PreSelectedK(8), 20, {"rounds", "deliveries"}),
        ],
        ids=["wait_for_all", "earliest1_of_3", "earliest19_of_20", "preselected10_of_20",
             "preselected10_of_20_fixed", "preselected8_of_20"],
    )
    def test_batches_spanning_slices(self, monkeypatch, policy, n, paths):
        # 64-element slices: every batch of 50 rounds, one chunk, spans
        # several slices; a chunk with few misses is credited in one call,
        # any other slice by slice
        monkeypatch.setattr(simulator, "_SLICE_ELEMENTS", 64)
        taken = []

        def spy(name):
            original = getattr(simulator, name)
            signature = inspect.signature(original)

            def credit(*args):
                taken.append((name, len(signature.bind(*args).arguments["delays"])))
                return original(*args)

            monkeypatch.setattr(simulator, name, credit)

        spy("_credit_rounds")
        spy("_credit_deliveries")
        config = SimConfig(
            n=n, policy=policy, model=ShiftedExponential(1.3, 0.4), updates=400, warmup=25,
            seed=97,
        )
        result = replicate(config)
        per_node, fraction, virtual, batch_means = reference_simulate(config)
        np.testing.assert_allclose(result.per_node_avg_age, per_node, rtol=1e-12)
        np.testing.assert_array_equal(result.delivery_fraction, fraction)
        assert result.virtual_time == pytest.approx(virtual, rel=1e-12)
        assert len(batch_means) == 8
        assert result.std_error == pytest.approx(batch_std_error(batch_means), rel=1e-9)
        # the path each chunk took, and the rounds of each of its calls
        step = 64 // n
        calls = {"_credit_rounds": [50],
                 "_credit_deliveries": [min(step, 50 - first) for first in range(0, 50, step)]}
        chunks = []
        while taken:
            name = taken[0][0]
            expected = [(name, rounds) for rounds in calls[name]]
            assert taken[:len(expected)] == expected
            del taken[:len(expected)]
            chunks.append(name.removeprefix("_credit_"))
        assert len(chunks) == 8 and set(chunks) == paths

    @pytest.mark.parametrize("points", [
        [(EarliestK(4), 10)],
        # 15 of 16 misses 1/16 of the pairs: credited round by round
        [(EarliestK(4), 10), (EarliestK(2), 6), (EarliestK(15), 16), (EarliestK(5), 12)],
    ], ids=["alone", "group"])
    def test_ties_at_y_go_to_the_lowest_indices(self, monkeypatch, points):
        # delays on a grid of 1/4 tie at y in most rounds; 64-element slices
        # cut each batch of 50 rounds into several
        sample = ShiftedExponential.sample

        def coarse(model, stream, size=None, out=None):
            drawn = sample(model, stream, size, out)
            np.multiply(drawn, 4.0, out=drawn)
            np.floor(drawn, out=drawn)
            return np.multiply(drawn, 0.25, out=drawn)

        monkeypatch.setattr(ShiftedExponential, "sample", coarse)
        monkeypatch.setattr(simulator, "_SLICE_ELEMENTS", 64)
        model = ShiftedExponential(1.3, 0.4)
        width = max(n for _, n in points)
        delays = np.sort(model.sample(RandomStream(97, 0), (425, width))[:, :10], axis=1)
        assert np.mean(delays[:, 3] == delays[:, 4]) > 0.5
        configs = [SimConfig(n=n, policy=policy, model=model, updates=400, warmup=25, seed=97)
                   for policy, n in points]
        for config, result in zip(configs, replicate(configs)):
            per_node, fraction, _, _ = reference_simulate(config, width=width)
            np.testing.assert_array_equal(result.delivery_fraction, fraction)
            np.testing.assert_allclose(result.per_node_avg_age, per_node, rtol=1e-12)


def assert_same_results(got, expected):
    """Every field of two lists of results, bit for bit."""
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        for x, y in zip(dataclasses.astuple(a), dataclasses.astuple(b)):
            assert_same_bits(np.asarray(x), np.asarray(y))


class TestGroups:
    """Configs that share every input of their draws run in lockstep, as a group."""

    BASE = dict(model=ShiftedExponential(1.3, 0.4), updates=400, warmup=100, seed=97)

    def test_each_config_reads_the_first_n_columns_of_shared_draws(self):
        # the widest config sets the draw; the pre-selected ones share the
        # rank uniforms, and the dense path credits strided views
        points = [(EarliestK(1), 8), (WaitForAll(), 3), (PreSelectedK(2), 5),
                  (PreSelectedK(1, "fixed"), 4), (PreSelectedK(3), 3), (EarliestK(2), 6)]
        configs = [SimConfig(n=n, policy=policy, **self.BASE) for policy, n in points]
        for config, result in zip(configs, replicate(configs)):
            per_node, fraction, virtual, batch_means = reference_simulate(config, width=8)
            np.testing.assert_allclose(result.per_node_avg_age, per_node, rtol=1e-12)
            np.testing.assert_array_equal(result.delivery_fraction, fraction)
            assert result.virtual_time == pytest.approx(virtual, rel=1e-12)
            assert result.std_error == pytest.approx(batch_std_error(batch_means), rel=1e-9)

    def test_a_group_of_one_is_the_config_alone(self):
        config = SimConfig(n=6, policy=PreSelectedK(2), replications=3, **self.BASE)
        assert_same_results(replicate([config]), [replicate(config)])

    @pytest.mark.parametrize("field, value", [
        ("model", ShiftedExponential(1.0, 0.4)), ("updates", 500), ("warmup", 10),
        ("seed", 98), ("replications", 2),
    ])
    def test_a_config_that_differs_in_a_shared_field_runs_apart(self, field, value):
        # in one group the n = 3 config would read 3 of 4 columns
        config = SimConfig(n=3, policy=EarliestK(1), **self.BASE)
        other = dataclasses.replace(config, n=4, **{field: value})
        assert_same_results(replicate([config, other]), [replicate(config), replicate(other)])

    def test_mixed_models_and_seeds_give_the_per_group_results_in_order(self):
        hyper = HyperExponential((1.0, 6.0), (0.4, 0.6))
        configs = [
            SimConfig(n=n, policy=policy, **{**self.BASE, "model": model, "seed": seed})
            for n, policy, model, seed in [
                (5, EarliestK(2), hyper, 97), (3, PreSelectedK(2), self.BASE["model"], 97),
                (4, WaitForAll(), hyper, 98), (6, PreSelectedK(3), hyper, 97),
                (2, EarliestK(1), self.BASE["model"], 98), (4, EarliestK(4), hyper, 98),
            ]
        ]
        expected: list = [None] * len(configs)
        for key in {(c.model, c.seed) for c in configs}:
            indices = [i for i, c in enumerate(configs) if (c.model, c.seed) == key]
            for i, result in zip(indices, replicate([configs[i] for i in indices])):
                expected[i] = result
        assert_same_results(replicate(configs), expected)

    def test_a_config_twice_gives_its_result_twice(self):
        config = SimConfig(n=5, policy=PreSelectedK(2), **self.BASE)
        alone = replicate(config)
        assert_same_results(replicate([config, config]), [alone, alone])

    def test_a_config_of_another_model_leaves_the_others_alone(self):
        configs = [SimConfig(n=n, policy=EarliestK(2), **self.BASE) for n in (3, 7, 5)]
        other = dataclasses.replace(configs[0], n=9, model=ShiftedExponential(2.0, 0.0))
        results = replicate(configs)
        assert_same_results(replicate(configs + [other])[:3], results)
        assert_same_results(replicate([other] + configs)[1:], results)

    @pytest.mark.parametrize("points, warmup, replications, calls", [
        # width 5, so chunks of 32 rounds: 8 batches of 50 rounds make 16
        # chunks; the warmup's first block of 32 rounds delivers to every node
        ([(WaitForAll(), 3), (EarliestK(3), 5)], 100, 2, 2 * (2 * 16 + 2)),
        # chunks of 3 rounds: 8 x 17 chunks; 40 warmup rounds cannot reach
        # 50 nodes one at a time, so all 14 blocks of at most 3 rounds are scanned
        ([(EarliestK(1), 50)], 40, 1, 8 * 17 + 14),
        ([(PreSelectedK(2), 4)], 0, 1, 8 * 2),
    ], ids=["group", "every_warmup_block", "no_warmup"])
    def test_each_chunk_and_warmup_block_resolves_through_run_rounds(
        self, monkeypatch, points, warmup, replications, calls
    ):
        # the benchmark counts resolves by wrapping this module attribute
        counted = []

        def counting(*args, **kwargs):
            counted.append(args)
            return run_rounds(*args, **kwargs)

        monkeypatch.setattr(simulator, "_CHUNK_ELEMENTS", 160)
        monkeypatch.setattr(simulator, "run_rounds", counting)
        base = {**self.BASE, "warmup": warmup, "replications": replications}
        replicate([SimConfig(n=n, policy=policy, **base) for policy, n in points])
        assert len(counted) == calls

    @pytest.mark.parametrize("group", [[], ["not a config"]], ids=["empty", "str"])
    def test_a_group_is_a_non_empty_sequence_of_configs(self, group):
        with pytest.raises(ValueError, match="non-empty sequence of SimConfigs"):
            replicate(group)

    @pytest.mark.parametrize("uniforms, message", [
        (None, "needs rank_uniforms"),
        (np.full(4, 0.5), r"one uniform per round \(3\), got shape \(4,\)"),
        (np.array([0.5, 1.0, 0.5]), r"must lie in \[0, 1\)"),
        (np.array([0.5, -0.1, 0.5]), r"must lie in \[0, 1\)"),
    ], ids=["missing", "one_too_many", "one", "negative"])
    def test_rank_uniforms_are_one_per_round_in_the_unit_interval(self, uniforms, message):
        with pytest.raises(ValueError, match=message):
            run_rounds(PreSelectedK(2), np.ones((3, 4)), uniforms)


class TestWarmupScan:
    @pytest.mark.parametrize(
        "policy, n",
        [(PreSelectedK(2), 3), (EarliestK(3), 6), (EarliestK(1), 40)],
        ids=["preselected2_of_3", "earliest3_of_6", "earliest1_of_40"],
    )
    def test_long_warmup_matches_scalar_reference(self, policy, n):
        # 300 rounds are four blocks; one delivery per round leaves nodes of
        # earliest1_of_40 without a delivery in the newest blocks
        config = SimConfig(n=n, policy=policy, model=ShiftedExponential(1.3, 0.4),
                           updates=400, warmup=300, seed=97)
        result = replicate(config)
        per_node, fraction, virtual, batch_means = reference_simulate(config)
        np.testing.assert_allclose(result.per_node_avg_age, per_node, rtol=1e-12)
        np.testing.assert_array_equal(result.delivery_fraction, fraction)
        assert result.virtual_time == pytest.approx(virtual, rel=1e-12)
        assert result.std_error == pytest.approx(batch_std_error(batch_means), rel=1e-9)

    def test_blocks_double_back_from_the_end(self):
        assert list(simulator._warmup_blocks(0, 10)) == []
        assert list(simulator._warmup_blocks(20, 10)) == [(0, 20)]
        assert list(simulator._warmup_blocks(1000, 10)) == [
            (968, 32), (904, 64), (776, 128), (520, 256), (8, 512), (0, 8)]
        # capped at a chunk: 4 000 000 // 200 000 = 20 rounds
        assert list(simulator._warmup_blocks(50, 200_000)) == [(30, 20), (10, 20), (0, 10)]

    def test_long_warmup_draws_only_its_tail(self, monkeypatch):
        drawn = []
        sample = ShiftedExponential.sample

        def counted(model, stream, size=None, out=None):
            delays = sample(model, stream, size, out)
            drawn.append(delays.size)
            return delays

        monkeypatch.setattr(ShiftedExponential, "sample", counted)
        config = SimConfig(n=100, policy=EarliestK(73), model=ShiftedExponential(1, 1),
                           updates=100, warmup=10**6, seed=3)
        started = time.perf_counter()
        result = replicate(config)
        assert time.perf_counter() - started < 1.0
        assert sum(drawn) <= (100 + 64) * 100
        # the measured rounds draw where a run that drew the warmup would
        stream = RandomStream(3, 0)
        stream.skip(10**6 * 100)
        y, _ = run_rounds(EarliestK(73), ShiftedExponential(1, 1).sample(stream, (100, 100)))
        assert result.virtual_time == pytest.approx(y.sum(), rel=1e-12)

    @pytest.mark.parametrize(
        "policy, n, warmup",
        [(EarliestK(1), 40, 300), (EarliestK(1), 40, 40), (PreSelectedK(3), 10, 500),
         (WaitForAll(), 5, 100)],
        ids=["earliest1_of_40", "earliest1_of_40_short", "preselected3_of_10", "wait_for_all"],
    )
    def test_hyperexponential_scan_matches_forward_pass(self, policy, n, warmup):
        model = HyperExponential((1.0, 6.0), (0.4, 0.6))
        config = SimConfig(n=n, policy=policy, model=model, updates=100, warmup=warmup, seed=11)
        last_wall, last_gen = simulator._warmup_states([config], 1, _Workspace())[0]
        # The same blocks drawn oldest first from one stream pair, each node's
        # state moved round by round, with times from the warmup's start.
        delay_stream, group_stream = RandomStream(11, 2), RandomStream(11, 3)
        wall, gen = np.zeros((2, n))
        t = 0.0
        for _, rounds in reversed(list(simulator._warmup_blocks(warmup, n))):
            delays = model.sample(delay_stream, (rounds, n))
            y, delivered = run_rounds(policy, delays, group_stream.generator.random(rounds))
            for j in range(rounds):
                gen[delivered[j]] = t
                wall[delivered[j]] = t + delays[j, delivered[j]]
                t += y[j]
        np.testing.assert_allclose(last_gen, gen - t, rtol=0, atol=1e-12 * t)
        np.testing.assert_allclose(last_wall, wall - t, rtol=0, atol=1e-12 * t)


def credit_slices(path, t0, y, delays, delivered, cuts, last_wall, last_gen):
    """The run after crediting the rounds, cut into slices at ``cuts``, each
    slice on ``path`` (``rounds`` or ``deliveries``) and into a batch of its
    own.  As in the engine, a slice without misses reaches the round-by-round
    path with no mask."""
    run = _Run(last_wall.copy(), last_gen.copy(), len(cuts) + 1)
    t_edges = t0 + np.concatenate(([0.0], np.cumsum(y)))
    ws = _Workspace()
    bounds = [0, *cuts, len(y)]
    for b, (first, stop) in enumerate(zip(bounds[:-1], bounds[1:])):
        mask = delivered[first:stop]
        if path == "rounds":
            increments = _credit_rounds(t_edges[first:stop + 1], y[first:stop], delays[first:stop],
                                        None if mask.all() else mask, run.last_wall,
                                        run.last_gen, ws)
        else:
            increments = _credit_deliveries(t_edges[first:stop], delays[first:stop], mask,
                                            run.last_wall, run.last_gen, ws)
        run._add(b, *increments)
    return run


def run_state(run):
    """A run's per-node state, then its per-batch area and span sums."""
    return (run.area, run.span, run.count, run.last_wall, run.last_gen,
            np.stack((run.batch_area, run.batch_span), axis=1))


class TestAccumulationPaths:
    """Crediting a slice round by round and by its deliveries agree."""

    @pytest.mark.parametrize(
        "policy, rows, cuts",
        [
            # integer delays: rows tie at y, inside and outside the k first
            (EarliestK(2), [[1, 1, 2, 0], [2, 2, 2, 2], [0, 1, 1, 1], [3, 1, 3, 3],
                            [1, 0, 0, 1], [2, 1, 2, 2]], [2, 4]),
            # zero delays, and a round that lasts no time at all
            (PreSelectedK(2, "fixed"), [[0, 1, 0, 0], [0, 0, 0, 0], [1, 2, 0, 0],
                                        [0, 0, 2, 0], [0, 0, 0, 3]], [3]),
            # node 3 receives nothing; node 2 nothing in the first slice
            (EarliestK(1), [[0.4, 0.2, 0.9, 5.0], [0.3, 0.8, 0.6, 5.0], [0.2, 0.7, 0.9, 5.0],
                            [0.9, 0.5, 0.1, 5.0], [0.8, 0.6, 0.3, 5.0]], [3]),
            # runs of two and three misses inside one slice
            (EarliestK(1), [[0.3, 0.5, 0.2, 0.9], [0.1, 0.5, 0.6, 0.9], [0.4, 0.2, 0.6, 0.9],
                            [0.5, 0.6, 0.7, 0.1], [0.8, 0.7, 0.1, 0.9], [0.2, 0.9, 0.5, 0.8]], []),
            # one-round slices
            (PreSelectedK(2, "fixed"), [[0.5, 1.5, 0.25, 0.75], [2.0, 0.25, 0.5, 1.0],
                                        [0.75, 1.0, 1.25, 0.5], [1.0, 0.5, 2.0, 0.25]],
             [1, 2, 3]),
        ],
        ids=["ties_at_y", "zero_delays", "node_without_delivery", "runs_of_misses",
             "one_round_slices"],
    )
    @pytest.mark.parametrize("fresh", [False, True], ids=["carried_state", "fresh_state"])
    def test_both_paths_agree(self, policy, rows, cuts, fresh):
        delays = np.array(rows, dtype=float)
        y, delivered = run_rounds(policy, delays)
        if fresh:
            last_wall, last_gen = np.zeros((2, 4))
        else:
            last_gen = np.array([6.5, 9.0, 2.0, 8.75])
            last_wall = last_gen + np.array([1.5, 0.5, 0.25, 1.25])
        by_rounds = run_state(
            credit_slices("rounds", 10.0, y, delays, delivered, cuts, last_wall, last_gen))
        by_deliveries = run_state(
            credit_slices("deliveries", 10.0, y, delays, delivered, cuts, last_wall, last_gen))
        np.testing.assert_array_equal(by_rounds[2], by_deliveries[2])
        for a, b in zip(by_rounds, by_deliveries):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("policy", [WaitForAll(), PreSelectedK(73)],
                             ids=["wait_for_all", "preselected73"])
    @pytest.mark.parametrize("fresh", [False, True], ids=["carried_state", "fresh_state"])
    def test_dense_chunk_longer_than_a_slice(self, monkeypatch, policy, fresh):
        # 1 000 rounds of 100 nodes fill three default slices and part of a
        # fourth: crediting the chunk whole equals crediting it slice by slice
        n, rounds, t0 = 100, 1000, 40.0
        delays = ShiftedExponential(1.0, 1.0).sample(RandomStream(17), (rounds, n))
        y, delivered = run_rounds(policy, delays, RandomStream(18).generator.random(rounds))
        if fresh:
            last_wall, last_gen = np.zeros((2, n))
        else:
            last_gen = t0 - RandomStream(19).generator.uniform(2.0, 9.0, n)
            last_wall = last_gen + RandomStream(20).generator.uniform(1.0, 2.0, n)
        step = _SLICE_ELEMENTS // n
        assert rounds * n > 3 * _SLICE_ELEMENTS
        sliced = run_state(credit_slices("rounds", t0, y, delays, delivered,
                                         range(step, rounds, step), last_wall, last_gen))
        # the engine's step credits the chunk in one call
        calls = []
        credit_rounds = simulator._credit_rounds
        monkeypatch.setattr(simulator, "_credit_rounds",
                            lambda *args: calls.append(args) or credit_rounds(*args))
        run = _Run(last_wall.copy(), last_gen.copy(), 1)
        run.t = t0
        run.credit(0, y, delays, delivered, _Workspace())
        assert len(calls) == 1
        whole = run_state(run)
        # count, last_wall and last_gen
        for a, b in zip(whole[2:5], sliced[2:5]):
            assert_same_bits(a, b)
        # A span adds one difference of deliveries per call.  From zero the
        # slices' differences telescope exactly; the first one from a carried
        # last_wall may round apart from the whole chunk's, by one rounding.
        if fresh:
            assert_same_bits(whole[1], sliced[1])
        else:
            np.testing.assert_allclose(whole[1], sliced[1], rtol=2**-52, atol=0)
        np.testing.assert_allclose(whole[0], sliced[0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(whole[5].sum(axis=0), sliced[5].sum(axis=0), rtol=1e-12)


def read_only(path):
    """``path`` wrapped to assert that it writes none of the arrays it is handed."""

    def credit(*args):
        arrays = [a for a in args if isinstance(a, np.ndarray)]
        before = [a.copy() for a in arrays]
        increments = path(*args)
        for a, b in zip(arrays, before):
            assert_same_bits(a, b)
        return increments

    return credit


def drive_engine(policy, model, n, chunk_rounds, seed, reuse):
    """Sample, resolve and credit consecutive chunks as the engine does.

    With ``reuse`` one workspace serves every chunk; without it, every call
    gets fresh arrays.  Returns, per chunk, ``y``, the delivery mask and the
    run's state after the chunk.  Asserts that no call writes the arrays it
    is handed; for the crediting paths these include the run's last
    deliveries, which they only read.
    """
    delay_stream, group_stream = RandomStream(seed, 0), RandomStream(seed, 1)
    run = _Run(np.zeros(n), np.zeros(n), len(chunk_rounds))
    workspace = _Workspace()
    records = []
    with pytest.MonkeyPatch.context() as patch:
        for name in ("_credit_rounds", "_credit_deliveries"):
            patch.setattr(simulator, name, read_only(getattr(simulator, name)))
        for b, rounds in enumerate(chunk_rounds):
            if reuse:
                delays = model.sample(delay_stream, out=workspace.array("delays", (rounds, n)))
            else:
                delays = model.sample(delay_stream, (rounds, n))
            delays_before = delays.copy()
            y, delivered = run_rounds(
                policy, delays, group_stream.generator.random(rounds),
                workspace=workspace if reuse else None,
            )
            np.testing.assert_array_equal(delays, delays_before)
            record = [y.copy(), delivered.copy()]
            run.credit(b, y, delays, delivered, workspace if reuse else _Workspace())
            np.testing.assert_array_equal(delays, delays_before)
            np.testing.assert_array_equal(y, record[0])
            np.testing.assert_array_equal(delivered, record[1])
            records.append(record + [a.copy() for a in run_state(run)])
    return records


def assert_same_bits(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestWorkspace:
    @pytest.mark.parametrize(
        "policy, model, n",
        [
            (WaitForAll(), ShiftedExponential(1.0, 1.0), 100),
            (EarliestK(73), ShiftedExponential(1.0, 1.0), 100),
            (PreSelectedK(73), ShiftedExponential(1.0, 1.0), 100),
            (EarliestK(50), HyperExponential((1.0, 6.0), (0.4, 0.6)), 100),
            (WaitForAll(), ShiftedExponential(1.0, 1.0), 1),
            (EarliestK(1), ShiftedExponential(0.5, 0.0), 1),
            (PreSelectedK(1), ShiftedExponential(0.5, 0.0), 1),
        ],
        ids=["wait_for_all", "earliest_k", "preselected_k", "hyperexp",
             "n1_wait_for_all", "n1_earliest_k", "n1_preselected_k"],
    )
    def test_reused_buffers_match_fresh_arrays(self, policy, model, n):
        # later chunks see views of buffers that still hold the earlier
        # chunks' values; at n = 1 the last chunk also grows them
        chunks = (1562, 1000, 1) if n > 1 else (1562, 1000, 1, 40_000)
        fresh = drive_engine(policy, model, n, chunks, seed=41, reuse=False)
        reused = drive_engine(policy, model, n, chunks, seed=41, reuse=True)
        for fresh_chunk, reused_chunk in zip(fresh, reused):
            for a, b in zip(fresh_chunk, reused_chunk):
                assert_same_bits(a, b)

    @pytest.mark.parametrize("n", [100, 1])
    def test_wait_for_all_chunk_credits_without_mask(self, monkeypatch, n):
        # each wait-for-all chunk reaches _credit_rounds whole and with no
        # mask; handing it the all-true mask instead keeps every bit of area,
        # span, count, last_wall, last_gen and the batch sums
        model = ShiftedExponential(1.0, 1.0)
        chunks = (1562, 1000, 1)
        credit_rounds, masks = simulator._credit_rounds, []

        def with_mask(t_edges, y, delays, delivered, *state):
            masks.append((len(y), delivered))
            return credit_rounds(t_edges, y, delays, np.ones(delays.shape, bool), *state)

        direct = drive_engine(WaitForAll(), model, n, chunks, seed=43, reuse=True)
        monkeypatch.setattr(simulator, "_credit_rounds", with_mask)
        masked = drive_engine(WaitForAll(), model, n, chunks, seed=43, reuse=True)
        assert masks == [(rounds, None) for rounds in chunks]
        for masked_chunk, direct_chunk in zip(masked, direct):
            for a, b in zip(masked_chunk, direct_chunk):
                assert_same_bits(a, b)

    def test_a_repeated_shape_gets_a_view_of_the_same_memory(self):
        workspace = _Workspace()
        first = workspace.array("x", (3, 4))
        again = workspace.array("x", (3, 4))
        assert again.shape == (3, 4) and again.ctypes.data == first.ctypes.data
        assert np.shares_memory(first, again)

    def test_after_the_buffer_grows_a_smaller_shape_reads_the_new_buffer(self):
        workspace = _Workspace()
        small = workspace.array("x", (2, 3))
        large = workspace.array("x", (5, 3))
        again = workspace.array("x", (2, 3))
        assert np.shares_memory(again, large) and not np.shares_memory(again, small)

    @pytest.mark.parametrize("policy", [WaitForAll(), EarliestK(2), PreSelectedK(2)])
    def test_second_call_leaves_first_results_alone(self, policy):
        first_delays = ShiftedExponential(1.0, 0.0).sample(RandomStream(2), (50, 5))
        y, delivered = run_rounds(policy, first_delays, RandomStream(3).generator.random(50))
        y_copy, delivered_copy = y.copy(), delivered.copy()
        run_rounds(policy, first_delays[::-1].copy(), RandomStream(4).generator.random(50))
        assert_same_bits(y, y_copy)
        assert_same_bits(delivered, delivered_copy)


class TestOracleAgreement:
    def assert_close(self, config, expected, sigmas=4.0):
        result = replicate(config)
        tol = max(sigmas * result.std_error, 0.004 * expected)
        assert abs(result.grand_mean - expected) <= tol, (
            f"{config.policy}: simulated {result.grand_mean:.5f} "
            f"vs expected {expected:.5f} (stderr {result.std_error:.5f})"
        )

    def test_single_node(self):
        config = SimConfig(
            n=1, policy=EarliestK(1), model=ShiftedExponential(1, 1), updates=150_000, seed=11
        )
        self.assert_close(config, 3.25)

    def test_earliest_one_of_two(self):
        config = SimConfig(
            n=2, policy=EarliestK(1), model=ShiftedExponential(1, 0), updates=150_000, seed=12
        )
        self.assert_close(config, age_earliest_k(1, 0, 2, 1).total)

    def test_preselected_one_of_two_matches_renewal_analysis(self):
        # the delivered process, not the classical closed form (which gives
        # 25/12 here); renewal analysis and simulation both give 2.0
        config = SimConfig(
            n=2, policy=PreSelectedK(1), model=ShiftedExponential(1, 0), updates=150_000, seed=13
        )
        self.assert_close(config, age_preselected_k_process(1, 0, 2, 1).total)

    def test_wait_for_all(self):
        config = SimConfig(
            n=5, policy=WaitForAll(), model=ShiftedExponential(2, 1), updates=150_000, seed=14
        )
        self.assert_close(config, age_wait_for_all(2, 1, 5).total)

    @pytest.mark.parametrize("rate, shift, n, k", [(1, 1, 20, 7), (1, 1, 10, 2), (0.5, 1, 10, 3)])
    def test_kept_group_members_age_as_wait_for_all(self, rate, shift, n, k):
        # the members of a kept group, nodes 0..k-1, wait only for each other:
        # they form a wait-for-all network of size k.  A bystander is in the
        # group with probability 0, as in a per-update group of k among
        # 10**15 nodes.  Each side's mean age over 20 seeds against its exact
        # age, by Student t with 19 degrees of freedom (two-sided 0.1%
        # quantile 3.883)
        ages = [
            replicate(SimConfig(n=n, policy=PreSelectedK(k, "fixed"),
                                model=ShiftedExponential(rate, shift), updates=50_000,
                                seed=seed)).per_node_avg_age
            for seed in range(20)
        ]
        for nodes, exact in [(slice(k), age_wait_for_all(rate, shift, k).total),
                             (slice(k, n), age_preselected_k_process(rate, shift, 10**15, k).total)]:
            means = [age[nodes].mean() for age in ages]
            t = (np.mean(means) - exact) / (np.std(means, ddof=1) / math.sqrt(len(means)))
            assert abs(t) <= 3.883, (nodes, t)

    def test_hyperexponential_against_moment_fed_general_form(self):
        # the earliest-k decomposition holds for any delay law; feed it with
        # Monte Carlo order-statistic moments estimated from separate draws
        model = HyperExponential((1.0, 6.0), (0.4, 0.6))
        n, k = 5, 2
        draws = np.sort(model.sample(RandomStream(2030), (400_000, n)), axis=1)
        delta1 = float(draws[:, :k].mean())
        kth = draws[:, k - 1]
        mean_kn = float(kth.mean())
        var_kn = float(kth.var(ddof=1))
        expected = delta1 + (2 * n - k) / (2 * k) * mean_kn + var_kn / (2 * mean_kn)
        config = SimConfig(
            n=n, policy=EarliestK(k), model=model, updates=200_000, seed=15
        )
        result = replicate(config)
        assert abs(result.grand_mean - expected) <= max(
            4 * result.std_error, 0.01 * expected
        )


class TestErrorCalibration:
    # batch-means z scores against the exact age over 300 fixed seeds: with
    # 32 batches z follows Student t (31 dof, standard deviation 1.034); 300
    # samples estimate that within about +-0.04
    @staticmethod
    def assert_calibrated(policy, exact):
        z = []
        for seed in range(300):
            config = SimConfig(
                n=5, policy=policy, model=ShiftedExponential(1.0, 1.0),
                updates=5_000, warmup=200, seed=seed,
            )
            result = replicate(config)
            z.append((result.grand_mean - exact) / result.std_error)
        z = np.array(z)
        assert 0.85 <= z.std(ddof=1) <= 1.20
        assert np.mean(np.abs(z) > 3) <= 0.02

    def test_z_scores_are_calibrated(self):
        self.assert_calibrated(EarliestK(2), age_earliest_k(1.0, 1.0, 5, 2).total)

    def test_preselected_z_scores_are_calibrated(self):
        self.assert_calibrated(PreSelectedK(2), age_preselected_k_process(1.0, 1.0, 5, 2).total)


class TestDeliveryStatistics:
    def test_earliest_fraction_is_k_over_n(self):
        config = SimConfig(
            n=10, policy=EarliestK(3), model=ShiftedExponential(1, 0), updates=50_000, seed=21
        )
        result = replicate(config)
        assert result.delivery_fraction.mean() == pytest.approx(0.3, abs=1e-12)
        sigma = math.sqrt(0.3 * 0.7 / config.updates)
        assert np.all(np.abs(result.delivery_fraction - 0.3) <= 4 * sigma)

    def test_preselected_fraction_matches_delivery_probability(self):
        n, k = 10, 3
        p = k / n + (n - k) / n * k / (k + 1)
        config = SimConfig(
            n=n, policy=PreSelectedK(k), model=ShiftedExponential(1, 0), updates=50_000, seed=22
        )
        result = replicate(config)
        sigma = math.sqrt(p * (1 - p) / config.updates)
        assert np.all(np.abs(result.delivery_fraction - p) <= 4 * sigma)

    def test_fixed_group_members_always_delivered(self):
        config = SimConfig(
            n=6,
            policy=PreSelectedK(2, regroup="fixed"),
            model=ShiftedExponential(1, 0),
            updates=5_000,
            seed=23,
        )
        result = replicate(config)
        fractions = result.delivery_fraction
        # the members, nodes 0 and 1, at exactly 1; outsiders near k/(k+1)
        assert fractions[:2].tolist() == [1.0, 1.0]
        sigma = math.sqrt((2 / 3) * (1 / 3) / config.updates)
        assert np.all(np.abs(fractions[2:] - 2 / 3) <= 5 * sigma)

    def test_rounds_between_deliveries_geometric(self):
        n, k = 10, 3
        delays = ShiftedExponential(1.0).sample(RandomStream(24), (120_000, n))
        _, delivered = run_rounds(EarliestK(k), delays)
        gaps = np.diff(np.flatnonzero(delivered[:, 0]))
        mean_expected = n / k
        second_expected = 2 * n * n / (k * k) - n / k
        gap_stderr = gaps.std(ddof=1) / math.sqrt(gaps.size)
        assert abs(gaps.mean() - mean_expected) <= 3 * gap_stderr
        sq = gaps.astype(float) ** 2
        sq_stderr = sq.std(ddof=1) / math.sqrt(sq.size)
        assert abs(sq.mean() - second_expected) <= 3 * sq_stderr


class TestDeterminismAndAggregation:
    def test_bit_identical_results(self):
        config = SimConfig(
            n=4, policy=EarliestK(2), model=ShiftedExponential(1, 1), updates=5_000, seed=31
        )
        a, b = replicate(config), replicate(config)
        np.testing.assert_array_equal(a.per_node_avg_age, b.per_node_avg_age)
        np.testing.assert_array_equal(a.delivery_fraction, b.delivery_fraction)
        assert a.grand_mean == b.grand_mean
        assert a.std_error == b.std_error
        assert a.virtual_time == b.virtual_time

    # grand mean, std error, virtual time and delivery counts of one run per
    # policy, recorded with the per-node engine loop (package version 0.2.0),
    # per-update pre-selected with its rank draw (0.4.0), the kept group as
    # nodes 0..k-1 (0.8.0): the random streams are pinned, only area sums may
    # move in their last bits
    PINNED = [
        (WaitForAll(), 3.747621505938757, 0.008019297591899382, 82013.51147343863, [20000] * 20),
        (
            EarliestK(7), 2.9109553695195154, 0.004632407123302904, 18356.23708561449,
            [6964, 7102, 7000, 6832, 6904, 6853, 7250, 6940, 6828, 7083,
             7011, 7053, 7037, 7058, 7031, 6934, 7010, 7058, 7013, 7039],
        ),
        (
            PreSelectedK(7), 3.33854724659079, 0.007739294880568067, 61984.625862946516,
            [18380, 18404, 18404, 18363, 18291, 18374, 18437, 18423, 18394, 18406,
             18381, 18361, 18367, 18408, 18364, 18432, 18425, 18410, 18349, 18378],
        ),
        (
            PreSelectedK(7, regroup="fixed"), 3.332142143143662, 0.007565728319799246,
            61768.146059561666,
            [20000] * 7 + [17539, 17576, 17535, 17513, 17497, 17491, 17467, 17490, 17470,
                           17577, 17476, 17478, 17469],
        ),
    ]

    @pytest.mark.parametrize("policy, grand_mean, std_error, virtual_time, counts", PINNED)
    def test_pinned_results(self, policy, grand_mean, std_error, virtual_time, counts):
        config = SimConfig(
            n=20, policy=policy, model=ShiftedExponential(1.0, 0.5), updates=20_000, seed=5
        )
        result = replicate(config)
        assert result.grand_mean == pytest.approx(grand_mean, rel=1e-12, abs=0)
        # a spread of 32 batch means: it amplifies last-bit changes of the sums
        assert result.std_error == pytest.approx(std_error, rel=1e-10, abs=0)
        assert result.virtual_time == virtual_time
        np.testing.assert_array_equal(result.delivery_fraction, np.array(counts) / 20_000)

    # float.hex of grand mean, std error and virtual time of the runs above
    # (and a hyper-exponential earliest-k run), recorded with version 0.3.0,
    # per-update pre-selected with 0.4.0, std errors from per-batch sums with
    # 0.6.1, wait-for-all's area credited round by round with 0.6.2, the kept
    # group as nodes 0..k-1 with 0.8.0, the warmup scanned from its end and
    # times taken from the warmup's end with 0.9.0, the hyper-exponential run
    # with one uniform per delay with 0.11.0, on x86-64 with numpy 2.4:
    # no engine change that keeps every random stream and every crediting
    # path may move a bit
    PINNED_BITS = [
        (WaitForAll(), None,
         "0x1.dfb20fbee587ap+1", "0x1.06c6be7271fa8p-7", "0x1.405d82efec5bbp+16"),
        (EarliestK(7), None,
         "0x1.749a2f8019d7dp+1", "0x1.2f96e518a9dfcp-8", "0x1.1ed0f2c692426p+14"),
        (PreSelectedK(7), None,
         "0x1.ab558424210fep+1", "0x1.fb33d267f888fp-8", "0x1.e44140711bae2p+15"),
        (PreSelectedK(7, regroup="fixed"), None,
         "0x1.aa83a23d3673ep+1", "0x1.efd3dbb436b76p-8", "0x1.e2904ac851a14p+15"),
        (EarliestK(7), HyperExponential((1.0, 6.0), (0.4, 0.6)),
         "0x1.6200d645ec95fp-2", "0x1.49758843920aap-10", "0x1.2387166e88ee1p+11"),
    ]

    @pytest.mark.parametrize(
        "policy, model, grand_mean, std_error, virtual_time", PINNED_BITS,
        ids=["wait_for_all", "earliest_k", "preselected_k", "preselected_k_fixed", "hyperexp"],
    )
    def test_pinned_bits(self, policy, model, grand_mean, std_error, virtual_time):
        config = SimConfig(
            n=20, policy=policy, model=model or ShiftedExponential(1.0, 0.5),
            updates=20_000, seed=5,
        )
        result = replicate(config)
        assert result.grand_mean.hex() == grand_mean
        assert result.std_error.hex() == std_error
        assert result.virtual_time.hex() == virtual_time

    # float.hex as above, recorded with version 0.15.1 on x86-64 with numpy
    # 2.4, of earliest-k runs at n = 100: at k = 73 and 50 each batch of 625
    # rounds spans two 2**15-element slices of the deliveries path; k = 96
    # misses 4% of the pairs, so its batches are credited round by round
    PINNED_N100_BITS = [
        (EarliestK(73), ShiftedExponential(1.0, 0.5),
         "0x1.4b535bba884b8p+1", "0x1.56a79d1ddbce5p-10", "0x1.186abc76141dbp+15"),
        (EarliestK(50), HyperExponential((1.0, 6.0), (0.4, 0.6)),
         "0x1.97641bc87b2cdp-2", "0x1.401e00689828fp-11", "0x1.0089eef11c2a2p+12"),
        (EarliestK(96), ShiftedExponential(1.0, 0.5),
         "0x1.ad2b2627e5cccp+1", "0x1.06cb2b454b34bp-9", "0x1.19bf058a6b101p+16"),
    ]

    @pytest.mark.parametrize(
        "policy, model, grand_mean, std_error, virtual_time", PINNED_N100_BITS,
        ids=["earliest_k_sliced", "hyperexp_sliced", "earliest_k_round_by_round"],
    )
    def test_pinned_n100_bits(self, policy, model, grand_mean, std_error, virtual_time):
        result = replicate(SimConfig(n=100, policy=policy, model=model, updates=20_000, seed=5))
        assert result.grand_mean.hex() == grand_mean
        assert result.std_error.hex() == std_error
        assert result.virtual_time.hex() == virtual_time

    # float.hex as above, same version, of one lockstep group at fig6's k*:
    # every point reads the first n of 191 columns, and the narrow ones
    # credit strided views
    PINNED_GROUP_BITS = [
        (11, 8, "0x1.c1f9660b9741dp+1", "0x1.68c3f29735740p-8", "0x1.55dd5a7c3c7e5p+15"),
        (61, 45, "0x1.c2d17b88b8724p+1", "0x1.867ce56e5c1b4p-10", "0x1.69c5b92330adep+15"),
        (191, 140, "0x1.c2fd074069009p+1", "0x1.0f79065fcfb3ep-10", "0x1.696590718e9c8p+15"),
    ]

    def test_pinned_group_bits(self):
        configs = [
            SimConfig(n=n, policy=EarliestK(k), model=ShiftedExponential(1.0, 1.0),
                      updates=20_000, seed=5)
            for n, k, *_ in self.PINNED_GROUP_BITS
        ]
        for (*_, grand_mean, std_error, virtual_time), result in zip(
            self.PINNED_GROUP_BITS, replicate(configs)
        ):
            assert result.grand_mean.hex() == grand_mean
            assert result.std_error.hex() == std_error
            assert result.virtual_time.hex() == virtual_time

    # float.hex as above, recorded with version 0.5.0 (std errors with 0.6.1,
    # wait-for-all and pre-selected credited round by round with 0.6.2, the
    # warmup scanned from its end with 0.9.0), of runs whose warmup hands its
    # state on to the measured updates: at n = 200 a warmup of 25 000 rounds
    # is longer than a chunk; EarliestK(1) with a warmup of 3 leaves most of
    # the 40 nodes with no delivery, so they start from the warmup's start
    PINNED_WARMUP_BITS = [
        (WaitForAll(), 200, 25_000,
         "0x1.352bc27860b17p+2", "0x1.fba38bd19e92bp-7", "0x1.8f9169ba05c61p+13"),
        (EarliestK(150), 200, 25_000,
         "0x1.4dccd24adf49dp+1", "0x1.94ac93f145696p-9", "0x1.d540972253951p+11"),
        (PreSelectedK(150), 200, 25_000,
         "0x1.2aab696ed8409p+2", "0x1.0f09c5bfce479p-6", "0x1.7b0230ee15119p+13"),
        (EarliestK(1), 40, 3,
         "0x1.45a40ded59626p+4", "0x1.39c4272b19c7fp-1", "0x1.06457ba84da0bp+10"),
    ]

    @pytest.mark.parametrize(
        "policy, n, warmup, grand_mean, std_error, virtual_time", PINNED_WARMUP_BITS,
        ids=["wait_for_all", "earliest_k", "preselected_k", "earliest_one_short_warmup"],
    )
    def test_pinned_warmup_bits(self, policy, n, warmup, grand_mean, std_error, virtual_time):
        config = SimConfig(
            n=n, policy=policy, model=ShiftedExponential(1.0, 0.5),
            updates=2000, warmup=warmup, seed=5,
        )
        result = replicate(config)
        assert result.grand_mean.hex() == grand_mean
        assert result.std_error.hex() == std_error
        assert result.virtual_time.hex() == virtual_time

    def test_all_k_equals_n_policies_identical(self):
        results = []
        for policy in (WaitForAll(), EarliestK(3), PreSelectedK(3)):
            config = SimConfig(
                n=3, policy=policy, model=ShiftedExponential(1, 0), updates=2_000, seed=32
            )
            results.append(replicate(config))
        assert results[0].grand_mean == results[1].grand_mean == results[2].grand_mean
        np.testing.assert_array_equal(
            results[0].per_node_avg_age, results[2].per_node_avg_age
        )

    def test_replication_error_scaling(self):
        base = dict(
            n=20, policy=EarliestK(10), model=ShiftedExponential(2, 0), updates=4_000
        )
        one = replicate(SimConfig(seed=34, replications=1, **base))
        sixteen = replicate(SimConfig(seed=34, replications=16, **base))
        ratio = one.std_error / sixteen.std_error
        # 16x the data should shrink the error about 4x; both estimates are noisy
        assert 2.2 <= ratio <= 7.0
        assert sixteen.rounds == 16 * 4_000
        assert sixteen.grand_mean == pytest.approx(float(sixteen.per_node_avg_age.mean()))

    def test_grand_mean_is_node_average(self):
        config = SimConfig(
            n=5, policy=EarliestK(2), model=ShiftedExponential(1, 1), updates=3_000, seed=35
        )
        result = replicate(config)
        assert result.grand_mean == pytest.approx(float(result.per_node_avg_age.mean()))
        assert np.all(result.per_node_avg_age >= 1.0)  # at least the delay floor
        assert np.all((result.delivery_fraction >= 0) & (result.delivery_fraction <= 1))

    def test_per_node_spread_shrinks_with_rounds(self):
        def spread(updates):
            config = SimConfig(
                n=5, policy=EarliestK(2), model=ShiftedExponential(1, 0),
                updates=updates, seed=36,
            )
            ages = replicate(config).per_node_avg_age
            return float(ages.max() - ages.min())

        assert spread(200_000) < spread(2_000)


MODEL = ShiftedExponential(1, 0)


class TestFailureModes:
    def test_starved_node_raises(self):
        config = SimConfig(
            n=10_000,
            policy=EarliestK(1),
            model=ShiftedExponential(1, 0),
            updates=100,
            warmup=0,
            seed=41,
        )
        with pytest.raises(SimulationError):
            replicate(config)

    def test_config_validation(self):
        model = ShiftedExponential(1, 0)
        with pytest.raises(ValueError):
            SimConfig(n=0, policy=WaitForAll(), model=model, updates=100, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n=2, policy=EarliestK(3), model=model, updates=100, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n=2, policy=EarliestK(1), model=model, updates=0, seed=1)
        with pytest.raises(ValueError):
            SimConfig(n=2, policy=EarliestK(1), model=model, updates=100, warmup=-1, seed=1)
        with pytest.raises(ValueError, match="replications must be >= 1, got 0"):
            SimConfig(n=2, policy=EarliestK(1), model=model, updates=100, seed=1,
                      replications=0)
        with pytest.raises(ValueError):
            PreSelectedK(2, regroup="sometimes")
        for policy in (EarliestK, PreSelectedK):
            with pytest.raises(ValueError, match="k must be >= 1, got 0"):
                policy(0)
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
                SimConfig(n=2, policy=EarliestK(1), model=model, updates=100, seed=seed)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: SimConfig(n=2, policy=EarliestK(1), model=MODEL, updates=100, seed=1.5),
            lambda: SimConfig(n=2, policy=EarliestK(1), model=MODEL, updates=1000.0, seed=1),
            lambda: SimConfig(n=5.0, policy=EarliestK(1), model=MODEL, updates=100, seed=1),
            lambda: SimConfig(n=2, policy=EarliestK(1), model=MODEL, updates=100, seed=1,
                              warmup=10.0),
            lambda: SimConfig(n=2, policy=EarliestK(1), model=MODEL, updates=100, seed=1,
                              replications=2.0),
            lambda: RandomStream(1.7),
            lambda: RandomStream(1, 0.5),
            lambda: EarliestK(2.5),
            lambda: PreSelectedK(2.0),
        ],
        ids=["seed", "updates", "n", "warmup", "replications", "stream_seed", "stream_index",
             "earliest_k", "preselected_k"],
    )
    def test_non_integral_counts_and_seeds_rejected(self, build):
        with pytest.raises(ValueError, match="must be an integer"):
            build()

    def test_numpy_integers_run_as_python_integers(self):
        as_numpy = SimConfig(n=np.int64(3), policy=PreSelectedK(np.int32(2)), model=MODEL,
                             updates=np.int64(200), seed=np.uint64(7), warmup=np.int64(40))
        as_python = SimConfig(n=3, policy=PreSelectedK(2), model=MODEL, updates=200, seed=7,
                              warmup=40)
        assert as_numpy == as_python
        assert type(as_numpy.warmup) is int and type(as_numpy.policy.k) is int
        assert replicate(as_numpy).grand_mean == replicate(as_python).grand_mean

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0],
                             ids=["nan", "inf", "minus_inf", "negative"])
    @pytest.mark.parametrize("block", [0, 1], ids=["warmup", "measured"])
    @pytest.mark.parametrize("sizes", [[8], [3, 8, 5]], ids=["alone", "group"])
    def test_every_drawn_delay_is_screened(self, monkeypatch, bad, block, sizes):
        # a warmup of 25 rounds is one block, drawn first; the bad delay sits
        # in the last column, which only the widest point reads
        sample, calls = ShiftedExponential.sample, []

        def spoiled(model, stream, size=None, out=None):
            drawn = sample(model, stream, size, out)
            if len(calls) == block:
                drawn[-1, -1] = bad
            calls.append(drawn.shape)
            return drawn

        monkeypatch.setattr(ShiftedExponential, "sample", spoiled)
        configs = [SimConfig(n=n, policy=EarliestK(2), model=MODEL, updates=200, warmup=25,
                             seed=3) for n in sizes]
        with pytest.raises(ValueError, match="finite"):
            replicate(configs if len(configs) > 1 else configs[0])
        assert calls[block][1] == 8

    def test_too_few_updates_for_statistics(self):
        with pytest.raises(ValueError, match="at least 100 measured updates"):
            SimConfig(
                n=2, policy=EarliestK(1), model=ShiftedExponential(1, 0), updates=99, seed=1
            )
