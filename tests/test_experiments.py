"""Sweep tables, figure reproductions, and the validation grid."""

import csv
import io
import json
import math

import pytest

from multicast_aoi import (
    SCHEMES,
    EarliestK,
    PreSelectedK,
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
from multicast_aoi.experiments import CSV_COLUMNS, _point_seed, simulate_point


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
                assert scheme.policy(k, "per_update") == policy
                assert scheme.estimated(rate, shift, n, k).total == estimated
                got = scheme.approx(rate, shift, n, k)
                assert (None if got is None else got.total) == approx
            published = SCHEMES["preselected_k"].published(rate, shift, n, k)
            assert published.total == age_preselected_k(rate, shift, n, k).total
            assert SCHEMES["preselected_k"].policy(k, "fixed") == PreSelectedK(k, "fixed")


@pytest.fixture(scope="module")
def default_report():
    return run_validation(rounds=20_000, seed=7)


class TestRunSweep:
    def test_rows_follow_the_points_and_repeat(self):
        model = ShiftedExponential(1.0, 0.0)
        points = [(model, "earliest_k", 5, 3), (model, "wait_for_all", 5, 5),
                  (model, "earliest_k", 5, 1)]
        rows = run_sweep(points, rounds=500, warmup=50, seed=11)
        assert [(r.scheme, r.n, r.k) for r in rows] == [(s, n, k) for _, s, n, k in points]
        assert run_sweep(points, rounds=500, warmup=50, seed=11) == rows
        # a point's seed depends on its position alone
        assert run_sweep(points[:1], rounds=500, warmup=50, seed=11) == rows[:1]

    @staticmethod
    def figure_points(figure):
        """Each figure's point list, in order, written out from its description."""
        if figure == "fig4":
            return [(model, "earliest_k", 100, k)
                    for model in (ShiftedExponential(2.0, 0.0),
                                  HyperExponential((1.0, 6.0), (0.4, 0.6)))
                    for k in (1, 51, 100)]
        if figure == "fig5":
            return [(ShiftedExponential(rate, 1.0), scheme, 100, k)
                    for rate, kstar in ((0.5, 62), (1.0, 73), (2.0, 83))
                    for scheme in ("earliest_k", "preselected_k")
                    for k in sorted({1, 51, 100, kstar})]
        return [(ShiftedExponential(1.0, 1.0), "earliest_k", n, k)
                for n, k in ((1, 1), (4, 3), (9, 7))]

    @pytest.mark.parametrize("figure, run", [
        ("fig4", lambda **run: run_fig4(k_step=50, **run)),
        ("fig5", lambda **run: run_fig5(k_step=50, **run)),
        ("fig6", lambda **run: run_fig6(n_values=(1, 4, 9), **run)),
    ], ids=["fig4", "fig5", "fig6"])
    def test_a_row_can_be_rerun_alone(self, figure, run):
        # point i of a figure is seeded with _point_seed(seed, i) over the
        # figure's whole point list; fig5 once seeded each rate apart
        seed, rounds, warmup = 31, 2_000, 100
        rows = run(rounds=rounds, warmup=warmup, seed=seed)
        points = self.figure_points(figure)
        index = {(model.label(), scheme, n, k): i
                 for i, (model, scheme, n, k) in enumerate(points)}
        assert len(rows) == len(points)
        for row in rows:
            i = index[row.model, row.scheme, row.n, row.k]
            _, alone = simulate_point(*points[i], rounds, warmup, _point_seed(seed, i))
            assert repr(alone) == repr(row)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_rejected(self, seed):
        # point seeds wrap mod 2**64; the sweep seed itself must not
        points = [(ShiftedExponential(1.0, 0.0), "earliest_k", 5, 3)]
        with pytest.raises(ValueError, match="seed must be a 64-bit unsigned integer"):
            run_sweep(points, rounds=500, warmup=50, seed=seed)


class TestValidationGrid:
    def test_default_grid_passes(self, default_report):
        report = default_report
        assert report.passed, "\n".join(report.lines())
        assert len(report.cells) == 4 * (3 + 5 + 7 + 7)
        assert all("pass" in line or "cells" in line for line in report.lines())

    def test_mutated_formula_fails_loudly(self):
        def broken(scheme, lam, shift, n, k):
            if scheme == "wait_for_all":
                return age_wait_for_all(lam, shift, n).total
            if scheme == "earliest_k":
                result = age_earliest_k(lam, shift, n, k)
                return result.total - 2 * result.breakdown["variance_ratio_term"]
            return age_preselected_k_process(lam, shift, n, k).total

        report = run_validation(rounds=20_000, seed=7, exact_age_fn=broken)
        assert not report.passed
        failing = [c for c in report.cells if not c.passed]
        assert failing and all(c.scheme == "earliest_k" for c in failing)

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
        rows = run_fig4(k_step=100, rounds=500, warmup=50, seed=708)
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
