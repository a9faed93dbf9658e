"""Sweep tables, figure reproductions, and the validation grid."""

import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from multicast_aoi import (
    SCHEMES,
    EarliestK,
    PreSelectedK,
    SweepRow,
    WaitForAll,
    age_earliest_k,
    age_earliest_k_approx,
    age_preselected_k,
    age_preselected_k_approx,
    age_preselected_k_process,
    age_wait_for_all,
    run_fig4,
    run_fig5,
    run_fig6,
    run_sweep,
    run_validation,
)
from multicast_aoi.cli import csv_text, json_text, main, table
from multicast_aoi.delay_models import HyperExponential, ShiftedExponential
from multicast_aoi.experiments import CSV_COLUMNS, _group_seed, simulate_point
from multicast_aoi.simulator import _policy_threshold


def rows_to_csv_text(rows):
    return csv_text(*table(rows))


def rows_by(rows, **match):
    out = [r for r in rows if all(getattr(r, key) == val for key, val in match.items())]
    return out


@pytest.fixture(scope="module")
def fig4_rows():
    return run_fig4(k_step=10, rounds=8_000, warmup=500, seed=404)


@pytest.fixture(scope="module")
def fig5_rows():
    return run_fig5(k_step=20, rounds=8_000, warmup=500, seed=505)


@pytest.fixture(scope="module")
def tiny_fig6_rows():
    return run_fig6(n_values=(1, 2), rounds=500, replications=1, seed=707, warmup=50)


class TestSchemeRegistry:
    CLI_NAMES = {
        "wait-for-all": "wait_for_all",
        "earliest-k": "earliest_k",
        "pre-selected-k": "preselected_k",
    }

    @staticmethod
    def chains(rate, shift, n, k):
        """(policy, estimated age, approximate age) per scheme, written out one by one."""
        return {
            "wait_for_all": (WaitForAll(), age_wait_for_all(rate, shift, n).total, None),
            "earliest_k": (
                EarliestK(k),
                age_earliest_k(rate, shift, n, k).total,
                age_earliest_k_approx(rate, shift, k / n).total if k < n else None,
            ),
            "preselected_k": (
                PreSelectedK(k),
                age_preselected_k_process(rate, shift, n, k).total,
                age_preselected_k_approx(rate, shift, n, k).total,
            ),
        }

    def test_names(self):
        assert {s.cli_name: name for name, s in SCHEMES.items()} == self.CLI_NAMES
        assert all(s.name == name for name, s in SCHEMES.items())

    @pytest.mark.parametrize("rate, shift", [(1.0, 0.0), (0.5, 1.0), (2.0, 0.25)])
    @pytest.mark.parametrize("n", [1, 2, 7, 20])
    def test_matches_the_per_scheme_chains(self, rate, shift, n):
        for k in sorted({1, (n + 1) // 2, n}):
            chains = self.chains(rate, shift, n, k)
            assert set(SCHEMES) == set(chains)
            for name, (policy, estimated, approx) in chains.items():
                scheme = SCHEMES[name]
                assert scheme.policy is type(policy)
                assert scheme.estimated(rate, shift, n, k).total == estimated
                got = scheme.approx(rate, shift, n, k)
                assert (None if got is None else got.total) == approx
            published = SCHEMES["preselected_k"].published(rate, shift, n, k)
            assert published.total == age_preselected_k(rate, shift, n, k).total


def wait_for_all_row(sim_stderr, sim_age=13 / 6):
    """A wait-for-all row at rate 1, shift 0, n = 2, whose exact age is 13/6."""
    return SweepRow("wait_for_all", "shifted_exp(rate=1,shift=0)", 1.0, 0.0, 2, 2,
                    sim_age, sim_stderr, 13 / 6, None, False)


@pytest.fixture
def stub_sweep(monkeypatch):
    """Validation rows whose z are 0.5, then two with no usable standard error."""
    rows = [wait_for_all_row(0.1, 13 / 6 + 0.05), wait_for_all_row(math.nan),
            wait_for_all_row(0.0)]
    monkeypatch.setattr("multicast_aoi.experiments.run_sweep", lambda *args: rows)
    return rows


@pytest.fixture(scope="module")
def default_report():
    return run_validation(rounds=20_000, seed=7)


class TestSimulatePoint:
    """A point is (model, policy, n): the policy alone says what its row runs."""

    @staticmethod
    def policies(n):
        return [WaitForAll()] + [
            policy for k in range(1, n + 1)
            for policy in (EarliestK(k), PreSelectedK(k), PreSelectedK(k, "fixed"))
        ]

    @pytest.mark.parametrize("model", [ShiftedExponential(1.0, 0.5),
                                       HyperExponential((1.0, 6.0), (0.4, 0.6))],
                             ids=["shifted_exp", "hyperexp"])
    def test_a_wait_for_all_row_has_k_equal_to_n(self, model):
        for n in (1, 4):
            _, row = simulate_point(model, WaitForAll(), n, 200, 10, 1)
            assert (row.scheme, row.n, row.k) == ("wait_for_all", n, n)

    @pytest.mark.parametrize("n", [1, 3])
    def test_only_a_kept_group_below_n_has_no_exact_or_approximate_age(self, n):
        model = ShiftedExponential(1.0, 0.5)
        for policy in self.policies(n):
            _, row = simulate_point(model, policy, n, 200, 10, 1)
            k = _policy_threshold(policy, n)
            assert SCHEMES[row.scheme].policy is type(policy)
            assert (row.n, row.k) == (n, k)
            kept = isinstance(policy, PreSelectedK) and policy.regroup == "fixed" and k < n
            assert (row.exact_age is None) == kept, policy
            assert row.approx_age is None or not kept, policy

    def test_scheme_names_and_regroup_strings_are_not_points(self):
        # a point once carried a scheme name, a separate k and a regroup
        # string, so a wait-for-all row could read k = 9 at n = 5 and a
        # misspelt regroup ran earliest-k without its exact age
        model = ShiftedExponential(1.0, 0.5)
        with pytest.raises(ValueError, match="^policy must be"):
            simulate_point(model, "wait_for_all", 5, 9, 200, 10, 1)
        with pytest.raises(TypeError, match="regroup"):
            simulate_point(model, "earliest_k", 5, 2, 200, 10, 1, regroup="fixed")

    @pytest.mark.parametrize("policy", ["earliest_k", EarliestK, None],
                             ids=["string", "class", "none"])
    def test_a_non_policy_is_a_value_error_naming_policy(self, policy):
        # a string once raised a bare KeyError from the registry lookup
        with pytest.raises(ValueError, match="^policy must be"):
            simulate_point(ShiftedExponential(1.0, 0.5), policy, 5, 200, 10, 1)


class TestRunSweep:
    def test_rows_follow_the_points_and_repeat(self):
        model = ShiftedExponential(1.0, 0.0)
        points = [(model, EarliestK(3), 5), (model, WaitForAll(), 5), (model, EarliestK(1), 5)]
        rows = run_sweep(points, rounds=500, warmup=50, seed=11)
        assert [(r.scheme, r.n, r.k) for r in rows] == [
            ("earliest_k", 5, 3), ("wait_for_all", 5, 5), ("earliest_k", 5, 1)
        ]
        assert run_sweep(points, rounds=500, warmup=50, seed=11) == rows
        # a row depends on the other points of its model only through their
        # largest n, here the same
        assert run_sweep(points[:1], rounds=500, warmup=50, seed=11) == rows[:1]

    def test_numpy_integer_points_give_python_int_rows(self):
        model = ShiftedExponential(1.0, 1.0)
        rows = run_sweep([(model, EarliestK(np.int64(2)), np.int64(3))], 200, 10, 1)
        assert type(rows[0].n) is int and type(rows[0].k) is int
        assert rows == run_sweep([(model, EarliestK(2), 3)], 200, 10, 1)
        assert json.loads(json_text(rows))[0]["n"] == 3

    @staticmethod
    def figure_points(figure):
        """Each figure's point list, in order, written out from its description."""
        if figure == "fig4":
            return [(model, EarliestK(k), 100)
                    for model in (ShiftedExponential(2.0, 0.0),
                                  HyperExponential((1.0, 6.0), (0.4, 0.6)))
                    for k in (1, 51, 100)]
        if figure == "fig5":
            return [(ShiftedExponential(rate, 1.0), policy(k), 100)
                    for rate, kstar in ((0.5, 62), (1.0, 73), (2.0, 83))
                    for policy in (EarliestK, PreSelectedK)
                    for k in sorted({1, 51, 100, kstar})]
        return [(ShiftedExponential(1.0, 1.0), EarliestK(k), n)
                for n, k in ((1, 1), (4, 3), (9, 7))]

    @pytest.mark.parametrize("figure, run", [
        ("fig4", lambda **run: run_fig4(k_step=50, **run)),
        ("fig5", lambda **run: run_fig5(k_step=50, **run)),
        ("fig6", lambda **run: run_fig6(n_values=(1, 4, 9), **run)),
    ], ids=["fig4", "fig5", "fig6"])
    def test_a_row_can_be_rerun_alone(self, figure, run):
        # the points of one model are a group seeded from the sweep's seed and
        # the model: rerun alone, they give their rows; where they share one
        # n (every fig4 and fig5 point is at n = 100), so does each point
        seed, rounds, warmup = 31, 2_000, 100
        rows = run(rounds=rounds, warmup=warmup, seed=seed)
        points = self.figure_points(figure)
        assert len(rows) == len(points)
        row_of = {(row.model, SCHEMES[row.scheme].policy(row.k), row.n): row for row in rows}
        for model in {model: None for model, _, _ in points}:
            group = [point for point in points if point[0] == model]
            alone = run_sweep(group, rounds, warmup, seed)
            for (_, policy, n), row in zip(group, alone):
                assert repr(row) == repr(row_of[model.label(), policy, n])
            if figure != "fig6":
                assert {n for _, _, n in group} == {100}
                for point, row in zip(group, alone):
                    _, single = simulate_point(*point, rounds, warmup, _group_seed(seed, model))
                    assert repr(single) == repr(row)

    def test_other_points_of_a_model_leave_a_row_alone(self):
        # lockstep points share their delays, their rank uniforms and one
        # workspace: adding or removing a point no wider than its group's
        # widest may not move another row by a bit
        exp = ShiftedExponential(1.0, 0.5)
        hyper = HyperExponential((1.0, 6.0), (0.4, 0.6))
        points = [
            # earliest-1 of 40 scans several warmup blocks; the rest stop sooner
            (exp, EarliestK(1), 40),
            (exp, WaitForAll(), 3),
            (exp, PreSelectedK(2), 6),
            (exp, PreSelectedK(3, "fixed"), 5),
            (exp, EarliestK(2), 2),
            (hyper, EarliestK(3), 9),
            (hyper, PreSelectedK(2), 4),
            (hyper, WaitForAll(), 2),
        ]
        extra = [(hyper, PreSelectedK(7, "fixed"), 9), (exp, PreSelectedK(30), 40),
                 (exp, EarliestK(7), 12)]
        run = dict(rounds=600, warmup=400, seed=17)
        rows = [repr(row) for row in run_sweep(points, **run)]
        assert [repr(row) for row in run_sweep(points + extra, **run)][:len(points)] == rows
        for drop in range(len(points)):
            if drop in (0, 5):  # the widest point of each model
                continue
            kept = [i for i in range(len(points)) if i != drop]
            got = run_sweep([points[i] for i in kept], **run)
            assert [repr(row) for row in got] == [rows[i] for i in kept], points[drop]
        widest = run_sweep([points[5], points[0]], **run)
        assert [repr(row) for row in widest] == [rows[5], rows[0]]

    def test_seeds_are_hashed_not_offset(self):
        # seeds once went point by point, seed + 1009(i + 1), so point 1 of a
        # sweep seeded 5 drew what point 0 of a sweep seeded 1014 drew
        model = ShiftedExponential(1.0, 1.0)
        two = run_sweep([(model, EarliestK(3), 20), (model, EarliestK(5), 20)], 1000, 100, 5)
        assert two[1] != run_sweep([(model, EarliestK(5), 20)], 1000, 100, 1014)[0]
        assert two[1] == run_sweep([(model, EarliestK(5), 20)], 1000, 100, 5)[0]
        assert _group_seed(5, model) != _group_seed(5, ShiftedExponential(1.0, 2.0))

    def test_equal_models_share_their_draws_however_spelled(self):
        # int and float parameters once made two reprs, so two groups on
        # unrelated seeds: sim_age 3.7834 against 3.8917
        points = [(ShiftedExponential(1, 1), EarliestK(1), 2),
                  (ShiftedExponential(1.0, 1.0), EarliestK(1), 2)]
        first, second = run_sweep(points, 500, 50, 3)
        assert repr(first) == repr(second)

    def test_numpy_parameters_give_the_float_rows(self):
        def rows(rate, shift):
            return run_sweep([(ShiftedExponential(rate, shift), EarliestK(2), 3)], 200, 10, 1)

        spelled = rows(np.float64(1.0), np.float64(0.5))
        assert repr(spelled) == repr(rows(1.0, 0.5))
        # a numpy rate once wrote np.float64(1.0) into the lambda column
        record = next(csv.DictReader(io.StringIO(rows_to_csv_text(spelled))))
        assert (record["lambda"], record["shift"]) == ("1.0", "0.5")

    @pytest.mark.parametrize("model", ["shifted_exp", None, ShiftedExponential, [1.0, 1.0]],
                             ids=["string", "none", "class", "list"])
    def test_a_non_model_is_a_value_error_naming_model(self, model, monkeypatch):
        # rejected before it is hashed into a group seed; a list is unhashable
        monkeypatch.setattr("multicast_aoi.experiments._group_seed", None)
        with pytest.raises(ValueError, match="^model must be"):
            run_sweep([(model, EarliestK(2), 5)], 200, 10, 1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # group seeds are hashed from the sweep seed, which must fit 64 bits
        points = [(ShiftedExponential(1.0, 0.0), EarliestK(3), 5)]
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            run_sweep(points, rounds=500, warmup=50, seed=seed)

    @pytest.mark.parametrize("step", [0, -1])
    @pytest.mark.parametrize("run", [run_fig4, run_fig5], ids=["fig4", "fig5"])
    def test_k_step_below_one_rejected(self, run, step, monkeypatch):
        # rejected before any point is simulated
        monkeypatch.setattr("multicast_aoi.experiments.replicate", None)
        with pytest.raises(ValueError, match=f"k step must be >= 1, got {step}$"):
            run(k_step=step, rounds=500, warmup=50)


class TestCommonRandomNumbers:
    def test_neighbouring_thresholds_share_their_noise(self):
        # rows k = 73 and 68 of one group, against the same rows of groups
        # seeded apart: row 73 of seed s is paired with row 68 of seed s - 1,
        # so each row enters one independent difference
        model = ShiftedExponential(1.0, 1.0)
        points = [(model, EarliestK(73), 100), (model, EarliestK(68), 100)]
        ages = np.array([[row.sim_age for row in run_sweep(points, 5_000, 100, seed)]
                         for seed in range(30)])
        shared = np.var(ages[:, 0] - ages[:, 1], ddof=1)
        independent = np.var(ages[:, 0] - np.roll(ages[:, 1], 1), ddof=1)
        assert independent >= 5 * shared


class TestValidationGrid:
    def test_default_grid_passes(self, default_report):
        report = default_report
        assert report.passed, "\n".join(report.lines())
        assert len(report.cells) == 4 * (3 + 5 + 7 + 7)
        assert all("pass" in line or "cells" in line for line in report.lines())

    def test_mutated_formula_fails_loudly(self, monkeypatch):
        # the registry looks the analytics up by name at call time
        def broken(lam, shift, n, k):
            result = age_earliest_k(lam, shift, n, k)
            term = result.breakdown["variance_ratio_term"]
            return dataclasses.replace(
                result, total=result.total - 2 * term,
                breakdown={**result.breakdown, "variance_ratio_term": -term},
            )

        monkeypatch.setattr("multicast_aoi.experiments.age_earliest_k", broken)
        report = run_validation(rounds=20_000, seed=7)
        assert not report.passed
        failing = [c for c in report.cells if not c.passed]
        assert failing and all(c.scheme == "earliest_k" for c in failing)

    def test_row_without_a_standard_error_fails(self, stub_sweep):
        report = run_validation(rounds=200)
        assert [cell.z for cell in report.cells] == [pytest.approx(0.5), math.inf, math.inf]
        assert [cell.passed for cell in report.cells] == [True, False, False]
        assert not report.passed
        assert report.lines()[1].startswith("FAIL") and report.lines()[1].endswith("z=inf")

    @pytest.mark.parametrize("threshold", [np.float32(0.3), np.float64(0.3), 3],
                             ids=["float32", "float64", "int"])
    def test_threshold_same_bits_as_python_float(self, stub_sweep, threshold):
        report = run_validation(rounds=200, z_threshold=threshold)
        assert repr(report) == repr(run_validation(rounds=200, z_threshold=float(threshold)))
        assert type(report.z_threshold) is float

    @pytest.mark.parametrize("threshold", ["4", math.nan, math.inf, -math.inf, 0])
    def test_threshold_rejected_before_simulating(self, monkeypatch, threshold):
        monkeypatch.setattr("multicast_aoi.experiments.run_sweep",
                            lambda *args: pytest.fail("simulated"))
        with pytest.raises(ValueError, match="^z_threshold must "):
            run_validation(rounds=200, z_threshold=threshold)

    def test_k_equals_n_single_analytic_value(self, default_report):
        # every scheme has a k = n cell at each (lambda, shift, n)
        by_key = {}
        for cell in default_report.cells:
            if cell.k == cell.n:
                by_key.setdefault((cell.lam, cell.shift, cell.n), []).append(
                    round(cell.exact_age, 12)
                )
        assert len(by_key) == 4 * 4
        assert all(len(values) == 3 and len(set(values)) == 1 for values in by_key.values())


class TestFig4:
    def test_models_and_grid(self, fig4_rows):
        exp_rows = rows_by(fig4_rows, model="shifted_exp(rate=2,shift=0)")
        hyper_rows = rows_by(fig4_rows, model="hyperexp(rates=1|6,weights=0.4|0.6)")
        assert {r.k for r in exp_rows} == set(range(1, 101, 10)) | {1, 100}
        assert len(exp_rows) == len(hyper_rows)
        assert all(r.exact_age is None and r.approx_age is None for r in hyper_rows)
        assert all(r.exact_age is not None and r.exact_age > 0 for r in exp_rows)

    def test_exact_column_increases_monotonically(self, fig4_rows):
        exp_rows = rows_by(fig4_rows, model="shifted_exp(rate=2,shift=0)")
        exact = [r.exact_age for r in exp_rows]
        assert all(b > a for a, b in zip(exact, exact[1:]))

    def test_log_approximation_tracks_simulation(self, fig4_rows):
        for r in rows_by(fig4_rows, model="shifted_exp(rate=2,shift=0)"):
            if r.approx_age is not None and r.k <= 90:
                assert abs(r.approx_age - r.sim_age) / r.sim_age <= 0.05

    def test_heavier_tail_starts_lower_and_climbs_faster(self, fig4_rows):
        # mixture and exponential share the mean, but the mixture's min is
        # faster (lower age at k=1) and its max is heavier (steeper overall
        # rise); the curves cross in the top decile of k
        exp_rows = {r.k: r for r in rows_by(fig4_rows, model="shifted_exp(rate=2,shift=0)")}
        hyper_rows = {
            r.k: r for r in rows_by(fig4_rows, model="hyperexp(rates=1|6,weights=0.4|0.6)")
        }
        margin = 3 * math.hypot(exp_rows[1].sim_stderr, hyper_rows[1].sim_stderr)
        assert hyper_rows[1].sim_age < exp_rows[1].sim_age - margin
        hyper_slope = hyper_rows[100].sim_age - hyper_rows[1].sim_age
        exp_slope = exp_rows[100].sim_age - exp_rows[1].sim_age
        assert hyper_slope > exp_slope

    def test_sim_matches_exact_within_band(self, fig4_rows):
        checked = [r for r in fig4_rows if r.exact_age is not None]
        ok = sum(abs(r.sim_age - r.exact_age) <= 3 * r.sim_stderr for r in checked)
        assert ok / len(checked) >= 0.95


class TestFig5:
    def test_kstar_rows_flagged(self, fig5_rows):
        for rate, kstar in ((0.5, 62), (1.0, 73)):
            flagged = rows_by(fig5_rows, lam=rate, kstar_flag=True)
            assert flagged and all(r.k == kstar for r in flagged)

    def test_schemes_agree_at_k_equals_n(self, fig5_rows):
        for rate in (0.5, 1.0):
            pair = rows_by(fig5_rows, lam=rate, k=100)
            assert len(pair) == 2
            a, b = pair
            assert abs(a.sim_age - b.sim_age) <= 3 * math.hypot(a.sim_stderr, b.sim_stderr)

    def test_earliest_wins_at_kstar(self, fig5_rows):
        for rate in (0.5, 1.0):
            flagged = rows_by(fig5_rows, lam=rate, kstar_flag=True)
            earliest = next(r for r in flagged if r.scheme == "earliest_k")
            preselected = next(r for r in flagged if r.scheme == "preselected_k")
            assert earliest.sim_age < preselected.sim_age

    def test_sim_matches_exact_within_band(self, fig5_rows):
        ok = sum(abs(r.sim_age - r.exact_age) <= 3 * r.sim_stderr for r in fig5_rows)
        assert ok / len(fig5_rows) >= 0.95


class TestFig6:
    def test_small_scale_run(self):
        rows = run_fig6(n_values=(1, 2, 5), rounds=4_000, replications=1, seed=606)
        assert [r.n for r in rows] == [1, 2, 5]
        first = rows[0]
        assert first.k == 1
        assert first.exact_age == pytest.approx(3.25, abs=1e-12)
        assert all(r.kstar_flag for r in rows)
        assert all(math.isfinite(r.sim_age) and r.sim_age > 0 for r in rows)


class TestOutputFormats:
    def test_csv_schema_and_determinism(self, tiny_fig6_rows, tmp_path):
        rows = tiny_fig6_rows
        text = rows_to_csv_text(rows)
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0] == list(CSV_COLUMNS)
        assert len(parsed) == len(rows) + 1
        # The same sweep through the CLI, written to a file.
        path = tmp_path / "rows.csv"
        assert main(["experiment", "fig6", "--n-min", "1", "--n-max", "2", "--rounds", "500",
                     "--replications", "1", "--seed", "707", "--warmup", "50",
                     "--format", "csv", "--output", str(path)]) == 0
        assert path.read_text() == text

    def test_missing_values_are_empty_fields(self):
        # earliest-1 of 100 over 500 rounds leaves some node without an
        # update in most seeds; 2 000 rounds give every node one
        rows = run_fig4(k_step=100, rounds=2_000, warmup=50, seed=708)
        text = rows_to_csv_text(rows)
        parsed = list(csv.reader(io.StringIO(text)))
        header = parsed[0]
        hyper = [
            dict(zip(header, line))
            for line in parsed[1:]
            if line[header.index("model")].startswith("hyperexp")
        ]
        assert hyper
        assert all(r["exact_age"] == "" and r["lambda"] == "" for r in hyper)

    def test_json_mirror(self, tiny_fig6_rows):
        rows = tiny_fig6_rows
        payload = json.loads(json_text(rows))
        assert len(payload) == len(rows)
        assert payload[0]["n"] == rows[0].n
        assert payload[0]["kstar_flag"] is True

    def test_byte_identical_across_runs(self):
        a = rows_to_csv_text(run_fig6(n_values=(2,), rounds=500, replications=1, seed=9, warmup=50))
        b = rows_to_csv_text(run_fig6(n_values=(2,), rounds=500, replications=1, seed=9, warmup=50))
        assert a == b
