"""CLI outputs at small sizes, byte for byte against recorded files.

Each case is one CLI invocation whose stdout is stored in
``tests/golden/<name>.txt``.  The cases cover every command and format,
so a change that keeps the random streams must leave all of them
untouched.
Floats are printed in full, so the files hold for one platform (recorded
on x86-64 with numpy 2.4), like the pinned bits in ``test_simulator.py``.

To record the files again, after a change that moves an output on purpose
and names it in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

re-records the named cases (every case when no name is given), rejects an
unknown name before it writes anything, and prints the path of every file
whose bytes changed, followed by the largest relative difference between
its old and new numbers, or by "text changed" when the text around the
numbers differs (a rounding-only change shows a small difference).
"""

import argparse
import contextlib
import io
import pathlib
import re
import sys

import pytest

from multicast_aoi.cli import build_parser, main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_SIM = ["--n", "20", "--updates", "2000", "--warmup", "100", "--seed", "5"]
_EXP = ["--warmup", "100", "--seed", "5"]

CASES = {
    "analyze_wait_for_all": ["analyze", "--scheme", "wait-for-all", "--lambda", "1",
                             "--shift", "1", "--n", "20"],
    "analyze_wait_for_all_json": ["analyze", "--scheme", "wait-for-all", "--lambda", "1",
                                  "--shift", "1", "--n", "20", "--format", "json"],
    "analyze_wait_for_all_csv": ["analyze", "--scheme", "wait-for-all", "--lambda", "1",
                                 "--shift", "1", "--n", "20", "--format", "csv"],
    "analyze_earliest_k": ["analyze", "--scheme", "earliest-k", "--lambda", "1.7",
                           "--shift", "0.3", "--n", "40", "--k", "13"],
    "analyze_earliest_k_json": ["analyze", "--scheme", "earliest-k", "--lambda", "1.7",
                                "--shift", "0.3", "--n", "40", "--k", "13", "--format", "json"],
    "analyze_earliest_k_alpha_csv": ["analyze", "--scheme", "earliest-k", "--lambda", "1",
                                     "--alpha", "0.5", "--format", "csv"],
    "analyze_preselected_k": ["analyze", "--scheme", "pre-selected-k", "--lambda", "1",
                              "--shift", "0.5", "--n", "20", "--k", "7"],
    "analyze_preselected_k_csv": ["analyze", "--scheme", "pre-selected-k", "--lambda", "1",
                                  "--shift", "0.5", "--n", "20", "--k", "7", "--format", "csv"],
    "optimize": ["optimize", "--lambda", "1", "--shift", "1", "--n", "100"],
    "optimize_memoryless": ["optimize", "--lambda", "1", "--shift", "0", "--n", "100"],
    "optimize_json": ["optimize", "--lambda", "0.5", "--shift", "3", "--n", "2000",
                      "--format", "json"],
    "optimize_csv": ["optimize", "--lambda", "2", "--shift", "0.25", "--n", "300",
                     "--format", "csv"],
    "simulate_wait_for_all": ["simulate", "--scheme", "wait-for-all", "--lambda", "1",
                              "--shift", "0.5"] + _SIM,
    "simulate_earliest_k_json": ["simulate", "--scheme", "earliest-k", "--k", "7",
                                 "--lambda", "1", "--shift", "0.5", "--format", "json"] + _SIM,
    "simulate_earliest_k_replications": ["simulate", "--scheme", "earliest-k", "--k", "7",
                                         "--lambda", "1", "--shift", "0.5",
                                         "--replications", "3"] + _SIM,
    "simulate_hyperexp_csv": ["simulate", "--scheme", "earliest-k", "--k", "7",
                              "--hyperexp", "1,6:0.4,0.6", "--format", "csv"] + _SIM,
    "simulate_preselected_k_fixed_json": ["simulate", "--scheme", "pre-selected-k", "--k", "7",
                                          "--regroup", "fixed", "--lambda", "1", "--shift",
                                          "0.5", "--format", "json"] + _SIM,
    "simulate_preselected_k": ["simulate", "--scheme", "pre-selected-k", "--k", "7",
                               "--lambda", "1", "--shift", "0.5"] + _SIM,
    "simulate_preselected_k_csv": ["simulate", "--scheme", "pre-selected-k", "--k", "7",
                                   "--lambda", "1", "--shift", "0.5", "--format", "csv"] + _SIM,
    "simulate_preselected_k_all_nodes": ["simulate", "--scheme", "pre-selected-k", "--k", "20",
                                         "--lambda", "1", "--shift", "0.5"] + _SIM,
    # a warmup of 25 000 rounds at n = 200 spans two chunks of the engine
    "simulate_wait_for_all_long_warmup": ["simulate", "--scheme", "wait-for-all", "--lambda",
                                          "1", "--shift", "0.5", "--n", "200", "--updates",
                                          "2000", "--warmup", "25000", "--seed", "5"],
    "simulate_earliest_k_long_warmup_json": ["simulate", "--scheme", "earliest-k", "--k", "150",
                                             "--lambda", "1", "--shift", "0.5", "--n", "200",
                                             "--updates", "2000", "--warmup", "25000",
                                             "--seed", "5", "--format", "json"],
    "experiment_fig4": ["experiment", "fig4", "--rounds", "2000", "--step", "50"] + _EXP,
    "experiment_fig4_csv": ["experiment", "fig4", "--rounds", "2000", "--step", "50",
                            "--format", "csv"] + _EXP,
    "experiment_fig4_json": ["experiment", "fig4", "--rounds", "2000", "--step", "50",
                             "--format", "json"] + _EXP,
    "experiment_fig5_csv": ["experiment", "fig5", "--rounds", "2000", "--step", "50",
                            "--format", "csv"] + _EXP,
    "experiment_fig6_csv": ["experiment", "fig6", "--rounds", "2000", "--n-min", "1",
                            "--n-max", "30", "--n-step", "7", "--format", "csv"] + _EXP,
    "experiment_fig6_json": ["experiment", "fig6", "--rounds", "1000", "--n-min", "3",
                             "--n-max", "5", "--replications", "2", "--format", "json"] + _EXP,
    "validate": ["validate", "--rounds", "2000"] + _EXP,
    "validate_json": ["validate", "--rounds", "2000", "--format", "json"] + _EXP,
    "validate_csv": ["validate", "--rounds", "2000", "--format", "csv"] + _EXP,
}


# A number, unless it is part of a word such as "fig4".
_NUMBER = re.compile(r"(?<![\w.])([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")


def numeric_change(old: str, new: str) -> str:
    """How ``new`` differs from ``old``: the largest relative difference of
    their numbers, or "text changed" when anything but the numbers differs."""
    old_parts, new_parts = _NUMBER.split(old), _NUMBER.split(new)
    if len(old_parts) != len(new_parts) or old_parts[::2] != new_parts[::2]:
        return "text changed"
    largest = 0.0
    for a, b in zip(map(float, old_parts[1::2]), map(float, new_parts[1::2])):
        if a != b:
            largest = max(largest, abs(a - b) / max(abs(a), abs(b)))
    return f"largest relative difference {largest:.3g}"


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{argv} exited with {code}"
    return out.getvalue()


def test_every_command_and_format_has_a_case():
    covered = {
        (argv[0], argv[argv.index("--format") + 1] if "--format" in argv else "human")
        for argv in CASES.values()
    }
    commands = next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    missing = [
        (command, fmt)
        for command, parser in commands.items()
        for action in parser._actions if action.dest == "format"
        for fmt in action.choices
        if (command, fmt) not in covered
    ]
    assert not missing


def test_numeric_change_tells_rounding_from_text():
    old = "n,age\n20,3.75,1e-05\nfig4\n"
    assert numeric_change(old, old) == "largest relative difference 0"
    assert numeric_change(old, old.replace("3.75", "3.7500000000000004")) == (
        "largest relative difference 1.18e-16"
    )
    assert numeric_change(old, old.replace("1e-05", "2e-05")) == "largest relative difference 0.5"
    assert numeric_change(old, old.replace("fig4", "fig5")) == "text changed"
    assert numeric_change(old, old.replace("age", "mean")) == "text changed"
    assert numeric_change(old, old + "21,3.5\n") == "text changed"


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    golden = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    assert _run(CASES[name]).encode() == golden


if __name__ == "__main__":
    names = sys.argv[1:] or list(CASES)
    unknown = [name for name in names if name not in CASES]
    if unknown:
        sys.exit(f"unknown golden case(s): {' '.join(unknown)}")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in names:
        path = GOLDEN_DIR / f"{name}.txt"
        recorded = _run(CASES[name]).encode()
        if not path.exists():
            path.write_bytes(recorded)
            print(path, "new file")
        elif path.read_bytes() != recorded:
            change = numeric_change(path.read_text(), recorded.decode())
            path.write_bytes(recorded)
            print(path, change)
