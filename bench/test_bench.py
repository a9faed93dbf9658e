"""Tests of the benchmark itself: tiny runs, clean tracing, and caught mutations."""

import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import multicast_aoi
import multicast_aoi.cli  # noqa: F401  (the tracer wraps cli.main)

import checks
import run
import worker
from tracer import Tracer

TINY = {
    "engine-n100": {"n": 10, "updates": 2000, "warmup": 100},
    "sweep-fig6": {"rounds": 1600, "warmup": 100, "n_step": 50, "n_max": 100},
    "optimize-large-n": {"sizes": (50, 200)},
}


def _tiny_ops():
    rng = random.Random(0)
    return [op for name, plan in run.WORKLOADS.items() for group in plan(rng, **TINY[name])
            for op in group]


def _package_state():
    """Identity of every attribute of the package's modules and delay-model classes."""
    state = {}
    for name, module in sys.modules.items():
        if name == "multicast_aoi" or name.startswith("multicast_aoi."):
            state.update({(name, attr): id(value) for attr, value in vars(module).items()})
    for cls in (multicast_aoi.ShiftedExponential, multicast_aoi.HyperExponential):
        state.update({(cls.__name__, attr): id(value) for attr, value in vars(cls).items()})
    return state


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_of_each_workload(workload, tmp_path):
    manifest, result = run.run(
        workload, seed=3, seconds=0, trace=1, outdir=tmp_path, plan_kwargs=TINY[workload]
    )
    assert result["correct"] and result["failed"] == 0, manifest["errors"]
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == set(run.LAYER_UNITS)
    assert set(run.E2E_UNITS) <= set(manifest["metrics"])
    assert manifest["metrics"]["wall_s"]["median"] > 0
    assert manifest["metrics"]["setup_s"]["median"] > 0
    assert list(tmp_path.glob(f"{workload}.*.spans.jsonl"))


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    _, result = run.run(
        "optimize-large-n", seed=4, seconds=0, trace=0, outdir=tmp_path,
        plan_kwargs=TINY["optimize-large-n"],
    )
    assert result["correct"]
    assert set(result["metrics"]) == set(run.E2E_UNITS)


def test_tracing_leaves_the_package_unpatched(tmp_path):
    before = _package_state()
    reply = worker.run_job({"ops": _tiny_ops(), "outdir": str(tmp_path), "trace": True})
    assert all(record["ok"] for record in reply["ops"]), reply["ops"]
    layers = reply["layers"]
    assert layers["simulator.resolve_calls"] > 0 and layers["analytics.age_calls"] > 0
    assert _package_state() == before
    with pytest.raises(RuntimeError):
        with Tracer():
            assert id(multicast_aoi.replicate) != before[("multicast_aoi", "replicate")]
            raise RuntimeError("interrupted run")
    assert _package_state() == before


def test_wrong_exact_age_shows_in_error_rate(tmp_path, monkeypatch):
    def wrong(*args):
        return 1.1 * checks.exact_age(*args)

    def in_process(job, src, deadline):
        return worker.run_job(job, exact=wrong), 0.1, 0.2

    monkeypatch.setattr(run, "run_child", in_process)
    # Enough updates that a 10% error lies far beyond the z threshold in every case.
    sizes = {"engine-n100": {**TINY["engine-n100"], "updates": 20_000}}
    for workload in ("engine-n100", "sweep-fig6"):
        manifest, result = run.run(
            workload, seed=5, seconds=0, trace=0, outdir=tmp_path,
            plan_kwargs=sizes.get(workload, TINY[workload]),
        )
        assert not result["correct"]
        assert manifest["error_rate"] == 1.0


def test_quadrature_matches_the_exponential_closed_form():
    for rate, n, k in ((6.0, 100, 50), (1.0, 100, 73), (2.0, 10, 10)):
        assert checks.earliest_k_age_numeric((rate,), (1.0,), n, k) == pytest.approx(
            multicast_aoi.age_earliest_k(rate, 0.0, n, k).total, rel=1e-9
        )


def test_fsum_age_matches_the_package():
    for rate, shift, n, k in ((1.0, 1.0, 8000, 5857), (0.5, 2.0, 37, 1), (2.0, 0.5, 37, 37)):
        assert checks.earliest_k_age_fsum(rate, shift, n, k) == pytest.approx(
            multicast_aoi.age_earliest_k(rate, shift, n, k).total, rel=1e-12
        )


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(Path(run.BENCH_DIR), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "engine-n100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
