"""Command-line interface: flags, formats, exit codes, determinism."""

import argparse
import csv
import inspect
import io
import json
import re

import pytest

from multicast_aoi import DEFAULT_SEED, SweepRow, age_wait_for_all, cli
from multicast_aoi.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_wait_for_all_breakdown(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--scheme", "wait-for-all", "--lambda", "1", "--shift", "1", "--n", "1"],
            capsys,
        )
        assert code == 0
        assert "exact age: 3.25" in out
        for term, value in (
            ("shift_term", "1.5"),
            ("rate_term", "1"),
            ("harmonic_term", "0.5"),
            ("variance_ratio_term", "0.25"),
        ):
            assert f"{term}: {value}" in out

    def test_earliest_k_with_alpha_only(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--scheme", "earliest-k", "--lambda", "1", "--alpha", "0.5"],
            capsys,
        )
        assert code == 0
        assert "approximate age: 1.34657359028" in out
        assert "exact age: (none)" in out

    def test_preselected_shows_process_value(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--scheme", "pre-selected-k", "--lambda", "1", "--shift", "0",
             "--n", "2", "--k", "1"],
            capsys,
        )
        assert code == 0
        assert "exact age: 2.08333333333" in out
        assert "process-exact age (matches simulation): 2" in out

    def test_human_round_trips_through_json(self, capsys):
        args = ["analyze", "--scheme", "earliest-k", "--lambda", "1.7", "--shift", "0.3",
                "--n", "40", "--k", "13"]
        code, human, _ = run_cli(args + ["--format", "human"], capsys)
        assert code == 0
        code, as_json, _ = run_cli(args + ["--format", "json"], capsys)
        assert code == 0
        payload = json.loads(as_json)
        human_exact = float(re.search(r"exact age: ([0-9.eE+-]+)", human).group(1))
        human_approx = float(re.search(r"approximate age: ([0-9.eE+-]+)", human).group(1))
        # half an ulp of the 12th significant digit
        assert human_exact == pytest.approx(payload["exact"]["total"], rel=5e-12)
        assert human_approx == pytest.approx(payload["approx"]["total"], rel=5e-12)
        for name, value in payload["exact"]["breakdown"].items():
            shown = float(re.search(rf"{name}: ([0-9.eE+-]+)", human).group(1))
            assert shown == pytest.approx(value, rel=5e-12)

    def test_mutually_exclusive_k_and_alpha(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--scheme", "earliest-k", "--lambda", "1", "--n", "4",
             "--k", "2", "--alpha", "0.5"],
            capsys,
        )
        assert code == 2
        assert "--k" in err and "--alpha" in err

    def test_n_rejected_with_alpha(self, capsys):
        code, out, err = run_cli(
            ["analyze", "--scheme", "earliest-k", "--lambda", "1", "--alpha", "0.5",
             "--n", "10"],
            capsys,
        )
        assert code == 2 and out == ""
        assert "--n" in err and "--alpha" in err

    def test_k_above_n_rejected(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--scheme", "earliest-k", "--lambda", "1", "--n", "2", "--k", "3"],
            capsys,
        )
        assert code == 2 and "--k 3" in err

    def test_k_rejected_for_wait_for_all(self, capsys):
        code, out, err = run_cli(
            ["analyze", "--scheme", "wait-for-all", "--lambda", "1", "--n", "5", "--k", "3"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == "error: --k does not apply to --scheme wait-for-all\n"

    def test_hyperexp_rejected(self, capsys):
        code, _, err = run_cli(
            ["analyze", "--scheme", "earliest-k", "--hyperexp", "1,6:0.4,0.6",
             "--n", "4", "--k", "2"],
            capsys,
        )
        assert code == 2 and "simulate" in err

    def test_requires_lambda(self, capsys):
        code, out, err = run_cli(
            ["analyze", "--scheme", "earliest-k", "--n", "5", "--k", "2"], capsys
        )
        assert code == 2 and out == ""
        assert err == "error: analyze requires --lambda\n"

    def test_process_age_at_tiny_rate_is_finite(self, capsys):
        # squared means near 1e340 are never formed; at rate*shift = 1e-170
        # the age is 1e170 times the age at rate 1, shift 0
        code, out, err = run_cli(
            ["analyze", "--scheme", "pre-selected-k", "--lambda", "1e-170", "--shift", "1",
             "--n", "10", "--k", "5", "--format", "json"],
            capsys,
        )
        assert code == 0 and err == ""
        process = json.loads(out)["process"]["total"]
        assert process == pytest.approx(2.4621654501216548e170, rel=1e-12)

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            ["analyze", "--scheme", "wait-for-all", "--lambda", "1", "--shift", "1",
             "--n", "1", "--format", "csv"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["section", "name", "value"]
        totals = {r[1]: r[2] for r in rows if r[0] == "exact"}
        assert float(totals["total"]) == 3.25


class TestOptimize:
    def test_threshold_claim(self, capsys):
        code, out, _ = run_cli(
            ["optimize", "--lambda", "1", "--shift", "0.5", "--n", "100"], capsys
        )
        assert code == 0
        assert "alpha*: 0.61803398875" in out
        assert "closed-form k*: 62" in out
        assert "exhaustive k*: 62" in out

    def test_json_round_trip(self, capsys):
        args = ["optimize", "--lambda", "1", "--shift", "1", "--n", "50"]
        code, human, _ = run_cli(args, capsys)
        assert code == 0
        code, as_json, _ = run_cli(args + ["--format", "json"], capsys)
        payload = json.loads(as_json)
        assert payload["k_closed_form"] == 37
        shown = float(re.search(r"alpha\*: ([0-9.eE+-]+)", human).group(1))
        assert shown == pytest.approx(payload["alpha_star"], rel=5e-12)

    def test_requires_lambda(self, capsys):
        code, _, err = run_cli(["optimize", "--n", "10"], capsys)
        assert code == 2 and "--lambda" in err

    def test_memoryless_skips_alpha_age(self, capsys):
        code, out, _ = run_cli(
            ["optimize", "--lambda", "2", "--shift", "0", "--n", "10"], capsys
        )
        assert code == 0
        assert "alpha*: 0" in out
        assert "closed-form k*: 1" in out
        assert "approximate age at alpha*" not in out


    @pytest.mark.parametrize("lam", ["1e16", "1e160"])
    def test_alpha_rounding_to_one_skips_alpha_age(self, capsys, lam):
        code, out, _ = run_cli(["optimize", "--lambda", lam, "--shift", "1", "--n", "10"], capsys)
        assert code == 0
        assert "alpha*: 1\n" in out
        assert "approximate age at alpha*" not in out
        assert "closed-form k*: 10\nexact age at closed-form k*: 1.5\n" in out
        assert "exhaustive k*: 10\nexact age at exhaustive k*: 1.5\n" in out
        code, as_json, _ = run_cli(
            ["optimize", "--lambda", lam, "--shift", "1", "--n", "10", "--format", "json"], capsys
        )
        assert code == 0 and json.loads(as_json)["approx_age_at_alpha_star"] is None

    def test_tiny_rate(self, capsys):
        code, out, err = run_cli(
            ["optimize", "--lambda", "1e-170", "--shift", "1", "--n", "10", "--format", "json"],
            capsys,
        )
        assert code == 0, err
        payload = json.loads(out)
        assert payload["k_exhaustive"] == payload["k_closed_form"] == 1
        assert payload["exact_age_at_k_exhaustive"] == pytest.approx(1.1e170, rel=1e-12)

    def test_overflowing_age_is_an_argument_error(self, capsys):
        code, out, err = run_cli(["optimize", "--lambda", "1e-320", "--n", "10"], capsys)
        assert code == 2 and out == ""
        assert err == "error: average age is not finite: inf\n"


class TestSimulate:
    BASE = [
        "simulate", "--scheme", "earliest-k", "--n", "2", "--k", "1",
        "--lambda", "1", "--shift", "0", "--updates", "20000", "--seed", "7",
    ]

    def test_human_output_matches_theory(self, capsys):
        code, out, _ = run_cli(self.BASE, capsys)
        assert code == 0
        mean = float(re.search(r"grand mean age: ([0-9.eE+-]+)", out).group(1))
        assert mean == pytest.approx(1.5, rel=0.02)
        assert "exact age: 1.5" in out

    def test_deterministic_bytes(self, capsys, tmp_path):
        a_path, b_path = tmp_path / "a.csv", tmp_path / "b.csv"
        args = self.BASE + ["--format", "csv"]
        assert main(args + ["--output", str(a_path)]) == 0
        assert main(args + ["--output", str(b_path)]) == 0
        assert a_path.read_bytes() == b_path.read_bytes()

    def test_seed_changes_output(self, capsys):
        _, out_a, _ = run_cli(self.BASE, capsys)
        _, out_b, _ = run_cli(self.BASE[:-1] + ["8"], capsys)
        assert out_a != out_b

    def test_json_fields(self, capsys):
        code, out, _ = run_cli(self.BASE + ["--format", "json"], capsys)
        payload = json.loads(out)
        assert payload["config"]["seed"] == 7
        assert len(payload["per_node_avg_age"]) == 2
        assert payload["exact_age"] == 1.5

    def test_hyperexp_model(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--scheme", "earliest-k", "--n", "3", "--k", "1",
             "--hyperexp", "1,6:0.4,0.6", "--updates", "5000", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert "hyperexp(rates=1|6,weights=0.4|0.6)" in out

    @pytest.mark.parametrize("flags", [["--lambda", "7"], ["--shift", "0.5"], ["--shift", "0"]])
    def test_exponential_flags_rejected_with_hyperexp(self, capsys, flags):
        code, out, err = run_cli(
            ["simulate", "--scheme", "earliest-k", "--n", "3", "--k", "1",
             "--hyperexp", "1,6:0.4,0.6", "--updates", "5000", "--seed", "3"] + flags,
            capsys,
        )
        assert code == 2 and out == ""
        assert err == "error: --lambda and --shift do not apply with --hyperexp\n"

    def test_bad_hyperexp_spec(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--scheme", "earliest-k", "--n", "3", "--k", "1",
             "--hyperexp", "1;6", "--updates", "5000"],
            capsys,
        )
        assert code == 2 and "--hyperexp" in err

    def test_k_required_for_earliest(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--scheme", "earliest-k", "--n", "3", "--lambda", "1",
             "--updates", "5000"],
            capsys,
        )
        assert code == 2 and "--k" in err

    def test_k_rejected_for_wait_for_all(self, capsys):
        code, _, err = run_cli(
            ["simulate", "--scheme", "wait-for-all", "--n", "3", "--k", "2",
             "--lambda", "1", "--updates", "5000"],
            capsys,
        )
        assert code == 2

    @pytest.mark.parametrize("scheme", [["wait-for-all"], ["earliest-k", "--k", "2"]])
    @pytest.mark.parametrize("regroup", ["fixed", "per-update"])
    def test_regroup_rejected_without_preselected(self, capsys, scheme, regroup):
        # the flag once reached only PreSelectedK and was ignored by the others
        code, out, err = run_cli(
            ["simulate", "--scheme", *scheme, "--lambda", "1", "--n", "3",
             "--updates", "200", "--regroup", regroup],
            capsys,
        )
        assert code == 2 and out == ""
        assert err == f"error: --regroup does not apply to --scheme {scheme[0]}\n"

    def test_regroup_defaults_to_per_update(self, capsys):
        args = ["simulate", "--scheme", "pre-selected-k", "--k", "2", "--lambda", "1",
                "--n", "3", "--updates", "200", "--seed", "7"]
        code, out, _ = run_cli(args, capsys)
        assert code == 0
        assert run_cli(args + ["--regroup", "per-update"], capsys) == (0, out, "")
        assert run_cli(args + ["--regroup", "fixed"], capsys)[1] != out

    FIXED = ["simulate", "--scheme", "pre-selected-k", "--lambda", "1", "--shift", "1",
             "--n", "10", "--updates", "2000", "--seed", "1", "--regroup", "fixed"]

    def test_fixed_group_shows_no_per_update_age(self, capsys):
        # the per-update exact age, 3.86364 at k = 2, lies well below a kept
        # group's simulated age (3.896 +- 0.002 at 200 000 updates)
        args = self.FIXED + ["--k", "2"]
        payload = json.loads(run_cli(args + ["--format", "json"], capsys)[1])
        assert payload["exact_age"] is None and payload["approx_age"] is None
        (row,) = csv.DictReader(io.StringIO(run_cli(args + ["--format", "csv"], capsys)[1]))
        assert row["exact_age"] == "" and row["approx_age"] == ""
        code, out, _ = run_cli(args, capsys)
        assert code == 0 and "grand mean age" in out
        assert "exact age" not in out and "approximate age" not in out

    def test_fixed_group_of_all_nodes_keeps_its_exact_age(self, capsys):
        # with k = n every node is a member, as in wait-for-all
        payload = json.loads(run_cli(self.FIXED + ["--k", "10", "--format", "json"], capsys)[1])
        assert payload["exact_age"] == pytest.approx(age_wait_for_all(1.0, 1.0, 10).total)

    def test_starved_nodes_are_an_argument_error(self, capsys):
        # 100 rounds of earliest-1 among 100 nodes leave some node without an update
        code, out, err = run_cli(
            ["simulate", "--scheme", "earliest-k", "--lambda", "1", "--n", "100", "--k", "1",
             "--updates", "100", "--warmup", "0"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: nodes [") and "try more rounds" in err

    def test_environment_does_not_set_the_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("AOI_SEED", "99")
        code, out, _ = run_cli(self.BASE[:-2], capsys)  # drop --seed 7
        assert code == 0 and "seed: 123456789" in out


class TestExperimentAndValidate:
    def test_experiment_fig6_csv(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["experiment", "fig6", "--rounds", "600", "--warmup", "50",
                "--n-min", "1", "--n-max", "2", "--seed", "5", "--format", "csv"]
        assert main(args + ["--output", str(out_a)]) == 0
        assert main(args + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        rows = list(csv.reader(io.StringIO(out_a.read_text())))
        assert rows[0][0] == "scheme" and len(rows) == 3

    def test_experiment_fig4_json(self, capsys):
        code, out, _ = run_cli(
            ["experiment", "fig4", "--rounds", "2000", "--warmup", "50", "--step", "100",
             "--seed", "5", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert {row["model"].split("(")[0] for row in payload} == {"shifted_exp", "hyperexp"}

    def test_short_sweep_is_an_argument_error(self, capsys):
        code, out, err = run_cli(
            ["experiment", "fig4", "--step", "50", "--rounds", "200", "--warmup", "0"], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error: nodes [") and "try more rounds" in err

    @pytest.mark.parametrize(
        "args, flag",
        [
            (["fig4", "--step", "0"], "--step"),
            (["fig4", "--step", "-3"], "--step"),
            (["fig5", "--step", "-1"], "--step"),
            (["fig6", "--n-step", "0"], "--n-step"),
            (["fig6", "--n-step", "-2"], "--n-step"),
        ],
    )
    def test_step_below_one_rejected(self, capsys, args, flag):
        code, out, err = run_cli(["experiment"] + args + ["--rounds", "200"], capsys)
        assert code == 2 and out == ""
        assert err == f"error: {flag} must be >= 1, got {args[-1]}\n"

    @pytest.mark.parametrize(
        "figure, flags, rejected",
        [
            ("fig6", ["--step", "50"], "--step"),
            ("fig4", ["--n-min", "2"], "--n-min"),
            ("fig4", ["--n-max", "5"], "--n-max"),
            ("fig5", ["--n-step", "3"], "--n-step"),
            ("fig5", ["--step", "50", "--n-max", "5"], "--n-max"),
        ],
    )
    def test_other_figures_flags_rejected(self, capsys, figure, flags, rejected):
        # they were once accepted and ignored
        code, out, err = run_cli(["experiment", figure, "--rounds", "200"] + flags, capsys)
        assert code == 2 and out == ""
        assert err == f"error: {rejected} does not apply to experiment {figure}\n"

    @pytest.mark.parametrize(
        "argv, sweep, expected",
        [
            (["fig4"], "run_fig4", {"k_step": 5}),
            (["fig5", "--step", "7"], "run_fig5", {"k_step": 7}),
            (["fig6"], "run_fig6", {"n_values": tuple(range(1, 201))}),
            (["fig6", "--n-min", "3", "--n-max", "9", "--n-step", "2"], "run_fig6",
             {"n_values": (3, 5, 7, 9)}),
        ],
    )
    def test_figure_flag_defaults(self, capsys, monkeypatch, argv, sweep, expected):
        seen = {}

        def fake_sweep(**kwargs):
            seen.update(kwargs)
            return []

        monkeypatch.setattr(cli, sweep, fake_sweep)
        monkeypatch.setattr(cli, "table", lambda rows: ((), []))
        assert run_cli(["experiment", *argv, "--rounds", "200"], capsys)[0] == 0
        assert {key: seen[key] for key in expected} == expected

    @pytest.mark.parametrize("figure", ["fig4", "fig5", "fig6"])
    def test_figure_table_restates_the_sweep_defaults(self, figure):
        # the table's flag defaults and paper rounds must be the sweep's own,
        # and experiment --help must show each of them
        _, flags, rounds = cli._FIGURES[figure]
        sweep = inspect.signature(getattr(cli, "run_" + figure)).parameters
        assert rounds == sweep["rounds"].default
        if figure == "fig6":
            n_values = tuple(range(flags["n_min"], flags["n_max"] + 1, flags["n_step"]))
            assert n_values == sweep["n_values"].default
        else:
            assert flags == {"step": sweep["k_step"].default}
        experiment = next(
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ).choices["experiment"]
        helps = {action.dest: action.help for action in experiment._actions}
        for dest, default in {**flags, "rounds": rounds}.items():
            assert re.search(rf"[ (]{default} for (\w+/)*{figure}\b", helps[dest]), dest

    @pytest.mark.parametrize("figure", ["fig4", "fig5", "fig6"])
    @pytest.mark.parametrize("rounds", ["0", "-5"])
    def test_rounds_below_minimum_rejected(self, capsys, figure, rounds):
        # 0 once fell back to the paper default instead of reaching the check
        code, out, err = run_cli(["experiment", figure, "--rounds", rounds], capsys)
        assert code == 2 and out == ""
        assert err == f"error: rounds must be >= 100, got {rounds}\n"

    @pytest.mark.parametrize("n_min, n_max", [("5", "3"), ("0", "3")])
    def test_fig6_n_range_rejected(self, capsys, n_min, n_max):
        code, out, err = run_cli(
            ["experiment", "fig6", "--n-min", n_min, "--n-max", n_max, "--rounds", "200"], capsys
        )
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    SEEDED = {
        "fig4": ["experiment", "fig4", "--rounds", "200", "--warmup", "10", "--step", "100"],
        "fig5": ["experiment", "fig5", "--rounds", "200", "--warmup", "10", "--step", "100"],
        "fig6": ["experiment", "fig6", "--n-max", "3", "--n-step", "2", "--rounds", "200",
                 "--warmup", "10"],
        "validate": ["validate", "--rounds", "200", "--warmup", "10"],
    }

    @pytest.mark.parametrize("command", list(SEEDED))
    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_rejected(self, capsys, command, seed):
        # sweep seeds once wrapped mod 2**64: 2**64 printed the output of seed 0
        code, out, err = run_cli(self.SEEDED[command] + ["--seed", seed], capsys)
        assert code == 2 and out == ""
        assert err == f"error: seed must be a 64-bit unsigned integer, got {seed}\n"

    @pytest.mark.parametrize("command", list(SEEDED))
    @pytest.mark.parametrize("value", ["99", "-1", str(2**64), "not-a-number"])
    def test_environment_seed_is_ignored(self, capsys, monkeypatch, command, value):
        # these commands print no seed, so an exported AOI_SEED once changed their numbers
        monkeypatch.delenv("AOI_SEED", raising=False)
        expected = run_cli(self.SEEDED[command] + ["--seed", str(DEFAULT_SEED)], capsys)
        monkeypatch.setenv("AOI_SEED", value)
        assert run_cli(self.SEEDED[command], capsys) == expected

    def test_largest_seed_accepted(self, capsys):
        code, out, _ = run_cli(self.SEEDED["fig6"] + ["--seed", str(2**64 - 1)], capsys)
        assert code == 0 and out

    def test_validate_passes(self, capsys):
        code, out, _ = run_cli(
            ["validate", "--rounds", "5000", "--seed", "7"], capsys
        )
        assert code == 0
        assert "0 failures" in out

    def test_validate_fails_on_a_row_without_a_standard_error(self, capsys, monkeypatch):
        row = SweepRow("wait_for_all", "shifted_exp(rate=1,shift=0)", 1.0, 0.0, 2, 2,
                       13 / 6, float("nan"), 13 / 6, None, False)
        monkeypatch.setattr("multicast_aoi.experiments.run_sweep", lambda *args: [row])
        code, out, _ = run_cli(["validate", "--rounds", "200"], capsys)
        assert code == 1
        assert out.splitlines()[-2].startswith("FAIL") and out.splitlines()[-2].endswith("z=inf")

    def test_validate_fails_with_tiny_threshold(self, capsys):
        code, out, _ = run_cli(
            ["validate", "--rounds", "5000", "--seed", "7", "--z", "0.05"], capsys
        )
        assert code == 1
        assert "FAIL" in out


def subcommands(parser):
    return next(
        action for action in parser._actions if isinstance(action, argparse._SubParsersAction)
    ).choices


def action_fields(parser):
    return [(a.option_strings, a.dest, a.default, a.type, a.choices, a.required, a.help)
            for a in parser._actions]


COMMANDS = ["analyze", "simulate", "optimize", "experiment", "validate"]


class TestParserPerCommand:
    """A call builds only its own command, and parses as the full parser does."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_own_flags_match_the_full_build(self, command):
        full_parser, own_parser = cli.build_parser(), cli.build_parser(command)
        full, own = subcommands(full_parser), subcommands(own_parser)
        assert list(own) == [command]
        assert action_fields(own[command]) == action_fields(full[command])
        assert own_parser.format_usage() == full_parser.format_usage()

    @pytest.mark.parametrize("command, parsers", [("optimize", 2), (None, 6)])
    def test_parsers_built(self, monkeypatch, command, parsers):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli.build_parser(command)
        assert len(built) == parsers

    @pytest.mark.parametrize("command", COMMANDS)
    def test_help_matches_the_full_build(self, capsys, command):
        full = subcommands(cli.build_parser())[command].format_help()
        assert run_cli([command, "-h"], capsys) == (0, full, "")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_unknown_flag_fails_as_in_the_full_build(self, capsys, command):
        argv = [command, "--bogus"]
        self.assert_fails_as_in_the_full_build(capsys, argv)

    def test_stray_positional_fails_as_in_the_full_build(self, capsys):
        # the main parser reports it, under the usage line that lists every command
        argv = ["optimize", "--lambda", "1", "--n", "3", "extra"]
        err = self.assert_fails_as_in_the_full_build(capsys, argv)
        assert "{analyze,simulate,optimize,experiment,validate}" in err

    @staticmethod
    def assert_fails_as_in_the_full_build(capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        expected = capsys.readouterr()
        assert run_cli(argv, capsys) == (exc.value.code, "", expected.err)
        assert exc.value.code == 2 and expected.err
        return expected.err

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        argv = ["optimize", "--lambda", "1", "--shift", "1", "--n", "100"]
        expected = run_cli(argv, capsys)
        monkeypatch.setattr("sys.argv", ["multicast-aoi", *argv])
        assert run_cli(None, capsys) == expected
        assert expected[0] == 0 and expected[1]


class TestArgumentErrors:
    def test_unknown_flag(self, capsys):
        # the usage lists every command, though only analyze is built
        code, out, err = run_cli(["analyze", "--scheme", "earliest-k", "--bogus", "1"], capsys)
        assert code == 2 and out == ""
        assert err.startswith(
            "usage: multicast-aoi [-h] {analyze,simulate,optimize,experiment,validate} ...\n"
        )
        assert err.endswith("error: unrecognized arguments: --bogus 1\n")

    def test_missing_subcommand(self, capsys):
        code, out, err = run_cli([], capsys)
        assert code == 2 and out == ""
        assert err.endswith("error: the following arguments are required: command\n")

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--scheme", "wait-for-all", "--n", "3"],
         "a delay model is required: give --lambda (and --shift) or --hyperexp"),
        (["analyze", "--scheme", "wait-for-all", "--lambda", "1", "--alpha", "0.5"],
         "--alpha applies only to --scheme earliest-k"),
        (["analyze", "--scheme", "earliest-k", "--lambda", "1"],
         "--scheme earliest-k requires --n"),
    ])
    def test_incomplete_arguments_rejected(self, capsys, argv, message):
        assert run_cli(argv, capsys) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("z", ["nan", "-1", "0", "inf"])
    def test_validate_rejects_threshold_before_simulating(self, capsys, monkeypatch, z):
        # a NaN threshold once failed every cell and exited 1 after the whole grid
        monkeypatch.setattr("multicast_aoi.experiments.run_sweep",
                            lambda *args, **kwargs: pytest.fail("simulated"))
        code, out, err = run_cli(["validate", "--rounds", "200", "--z", z], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_unwritable_output_rejected_before_simulating(self, capsys, monkeypatch, tmp_path):
        # once a FileNotFoundError traceback (exit 1) after the simulation
        monkeypatch.setattr("multicast_aoi.experiments.replicate",
                            lambda config: pytest.fail("simulated"))
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run_cli(
            ["simulate", "--scheme", "wait-for-all", "--lambda", "1", "--n", "3",
             "--updates", "200", "--output", str(path)], capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith(f"error: cannot write --output {path}: ") and err.count("\n") == 1
