"""CLI outputs at small sizes, byte for byte against recorded files.

Each case is one CLI invocation whose stdout is stored in
``tests/golden/<name>.txt``.  The cases cover every command and format
except per-update pre-selected-k simulation (``simulate --scheme
pre-selected-k`` without ``--regroup fixed``, fig5 and ``validate``), so a
change that keeps the random streams must leave all of them untouched.
Floats are printed in full, so the files hold for one platform (recorded
on x86-64 with numpy 2.4), like the pinned bits in ``test_simulator.py``.

To record the files again, after a change that moves an output on purpose
and names it in CHANGES.md::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import pathlib

import pytest

from multicast_aoi.cli import main

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

_SIM = ["--n", "20", "--updates", "2000", "--warmup", "100", "--seed", "5"]
_EXP = ["--warmup", "100", "--seed", "5"]

CASES = {
    "analyze_wait_for_all": ["analyze", "--scheme", "wait-for-all", "--lambda", "1",
                             "--shift", "1", "--n", "20"],
    "analyze_earliest_k_json": ["analyze", "--scheme", "earliest-k", "--lambda", "1.7",
                                "--shift", "0.3", "--n", "40", "--k", "13", "--format", "json"],
    "analyze_earliest_k_alpha_csv": ["analyze", "--scheme", "earliest-k", "--lambda", "1",
                                     "--alpha", "0.5", "--format", "csv"],
    "analyze_preselected_k": ["analyze", "--scheme", "pre-selected-k", "--lambda", "1",
                              "--shift", "0.5", "--n", "20", "--k", "7"],
    "analyze_preselected_k_csv": ["analyze", "--scheme", "pre-selected-k", "--lambda", "1",
                                  "--shift", "0.5", "--n", "20", "--k", "7", "--format", "csv"],
    "optimize": ["optimize", "--lambda", "1", "--shift", "1", "--n", "100"],
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
    "simulate_preselected_k_all_nodes": ["simulate", "--scheme", "pre-selected-k", "--k", "20",
                                         "--lambda", "1", "--shift", "0.5"] + _SIM,
    "experiment_fig4_csv": ["experiment", "fig4", "--rounds", "2000", "--step", "50",
                            "--format", "csv"] + _EXP,
    "experiment_fig6_csv": ["experiment", "fig6", "--rounds", "2000", "--n-min", "1",
                            "--n-max", "30", "--n-step", "7", "--format", "csv"] + _EXP,
    "experiment_fig6_json": ["experiment", "fig6", "--rounds", "1000", "--n-min", "3",
                             "--n-max", "5", "--replications", "2", "--format", "json"] + _EXP,
}


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, f"{argv} exited with {code}"
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name):
    golden = (GOLDEN_DIR / f"{name}.txt").read_bytes()
    assert _run(CASES[name]).encode() == golden


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN_DIR / f"{name}.txt").write_bytes(_run(argv).encode())
