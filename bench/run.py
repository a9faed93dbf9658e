"""Benchmark of the multicast_aoi entry points, end to end and per layer.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload engine-n100 --seed 1 --seconds 40 --trace 0

Workloads (see BENCHMARK.json for why each exists):

* ``engine-n100``      -- ``replicate`` at n = 100 in four cases;
* ``sweep-fig6``       -- ``cli.main(["experiment", "fig6", ...])``;
* ``optimize-large-n`` -- ``cli.main(["optimize", ...])`` at n = 2000 and 8000.

All load comes from one single-threaded process at a time.  Every
repetition starts fresh interpreters that import the package from
``src/`` of the checkout (optimize runs each n in its own interpreter, so
each starts with empty caches).  Repetitions run until ``--seconds`` is
used up, each with inputs drawn from ``--seed`` and the repetition index.
Every output is checked; a wrong output counts as a failed operation.
Times are scaled to a reference host speed measured in every worker (see
run() and README.md).

With ``--trace 1`` odd repetitions run with the tracer installed from
outside the package (``tracer.py``) and report per-layer metrics; even
repetitions stay untraced, and the difference of the two medians is the
tracing overhead.  The last stdout line is the result object; the line
before it is the run's manifest, also written with the spans of the last
traced repetition to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# A run ends within this many seconds however slow its repetitions are.
RUN_BUDGET_S = 170.0
# Every run makes at least this many repetitions, however short --seconds is.
MIN_REPS = 3
# Medians of the worker's numpy import and python_probe() on the reference
# host (2-core x86-64 VM, Python 3.11, numpy 2.4); see speed scaling in run().
REF_NUMPY_IMPORT_S = 0.17
REF_PYTHON_PROBE_S = 0.03

E2E_UNITS = {"wall_s": "s", "setup_s": "s"}
LAYER_UNITS = {
    "delay_models.sample_s": "s",
    "delay_models.draws": "count",
    "delay_models.harmonic_s": "s",
    "delay_models.harmonic_calls": "count",
    "simulator.resolve_s": "s",
    "simulator.resolve_calls": "count",
    "simulator.engine_self_s": "s",
    "analytics.optimal_k_exact_s": "s",
    "analytics.age_calls": "count",
    "analytics.self_s": "s",
    "experiments.sweep_self_s": "s",
    "experiments.self_s": "s",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "tracing_overhead_s": "s",
}
# Units of the per-op figures (see op_metric); other manifest figures are in s.
OP_UNITS = {"ns_per_round_node": "ns", "node_rounds_per_s": "1/s", "optimize_s": "s"}
SHIFTED_1_1 = {"family": "shifted_exp", "rate": 1.0, "shift": 1.0}


def engine_n100(rng, n=100, updates=50_000, warmup=1000):
    """Four ``replicate`` calls at n = 100 in one interpreter.

    k = 73 is the closed-form k* for rate 1, shift 1; the hyper-exponential
    case is the fig4 mixture.
    """
    hyper = {"family": "hyperexp", "rates": [1.0, 6.0], "weights": [0.4, 0.6]}
    cases = (
        ("wait_for_all", "wait_for_all", n, SHIFTED_1_1),
        ("earliest_k", "earliest_k", round(0.73 * n), SHIFTED_1_1),
        ("preselected_k", "preselected_k", round(0.73 * n), SHIFTED_1_1),
        ("hyperexp", "earliest_k", n // 2, hyper),
    )
    return [[
        {
            "kind": "replicate", "name": f"ns_per_round_node.{case}", "case": case,
            "policy": policy, "n": n, "k": k, "model": model,
            "updates": updates, "warmup": warmup, "seed": rng.randrange(2**63),
        }
        for case, policy, k, model in cases
    ]]


def sweep_fig6(rng, rounds=5000, warmup=1000, n_step=10, n_max=200):
    """One fig6 sweep, 20 simulations from n = 1 to 191 at the closed-form k*."""
    argv = [
        "experiment", "fig6", "--n-step", str(n_step), "--n-max", str(n_max),
        "--rounds", str(rounds), "--warmup", str(warmup),
        "--seed", str(rng.randrange(2**63)), "--output", "{output}",
    ]
    return [[{
        "kind": "cli", "check": "fig6", "name": "node_rounds_per_s", "argv": argv,
        "model": SHIFTED_1_1, "rounds": rounds, "warmup": warmup,
        "n_values": list(range(1, n_max + 1, n_step)),
    }]]


def optimize_large_n(rng, sizes=(2000, 8000)):
    """``optimize`` at each n, each in its own interpreter.

    The cost does not depend on rate and shift, so the seed draws them.
    """
    rate = 2.0 ** rng.uniform(-1.0, 1.0)
    shift = rng.uniform(0.5, 2.0)
    return [
        [{
            "kind": "cli", "check": "optimize", "name": f"optimize_s.n{n}",
            "argv": ["optimize", "--lambda", repr(rate), "--shift", repr(shift),
                     "--n", str(n), "--format", "json", "--output", "{output}"],
            "rate": rate, "shift": shift, "n": n,
        }]
        for n in sizes
    ]


WORKLOADS = {
    "engine-n100": engine_n100,
    "sweep-fig6": sweep_fig6,
    "optimize-large-n": optimize_large_n,
}


def op_metric(op: dict, wall: float) -> float:
    """The op's own end-to-end figure, named by ``op["name"]``."""
    if op["kind"] == "replicate":
        return wall * 1e9 / ((op["updates"] + op["warmup"]) * op["n"])
    if op["check"] == "fig6":
        return sum(op["n_values"]) * (op["rounds"] + op["warmup"]) / wall
    return wall


class ChildError(RuntimeError):
    pass


def run_child(job: dict, src: Path, deadline: float) -> tuple[dict, float, float]:
    """Run one job in a fresh interpreter.

    Returns the reply and the seconds from starting the interpreter until
    ``import numpy`` and ``import multicast_aoi`` returned.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
    env.update(
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0"
    )
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=str(src.parent), env=env,
    )
    try:
        out, _ = proc.communicate(
            (json.dumps(job) + "\n").encode(), timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildError("repetition ran past the run's time budget") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise ChildError(f"worker exited with code {proc.returncode}")
    try:
        reply = json.loads(out.decode().strip().splitlines()[-1])
        package_dir = Path(reply["package_file"]).resolve().parent
    except (IndexError, KeyError, ValueError) as exc:
        raise ChildError(f"worker sent no reply: {out[-500:]!r}") from exc
    if package_dir != (src / "multicast_aoi").resolve():
        raise ChildError(f"imported {package_dir}, not the package in {src}")
    return reply, reply["numpy_at"] - started, reply["ready_at"] - started


def summarize(values: list, unit: str) -> dict:
    """Median, 90th percentile, maximum and count."""
    values = sorted(values)
    p90 = values[0]
    if len(values) >= 2:
        p90 = statistics.quantiles(values, n=10, method="inclusive")[-1]
    return {
        "unit": unit,
        "median": statistics.median(values),
        "p90": p90,
        "max": values[-1],
        "count": len(values),
    }


def git_commit():
    """The checked-out commit, or None outside a git repository."""
    try:
        done = subprocess.run(
            ["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
            capture_output=True, text=True,
        )
    except OSError:
        return None
    return done.stdout.strip() or None


def run(workload, seed, seconds, trace, outdir=None, plan_kwargs=None):
    """Measure one workload; return ``(manifest, result)``."""
    plan = WORKLOADS[workload]
    src = ROOT / "src"
    outdir = Path(outdir or ROOT / ".bench_out")
    outdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + RUN_BUDGET_S
    # Warm-up interpreter: compiles bytecode once, as an installed package would have.
    run_child({"ops": [], "outdir": str(outdir), "trace": False}, src, deadline)

    samples: dict = {}
    walls = {False: [], True: []}
    attempted = failed = 0
    errors, versions, params = [], None, None
    numpy_imports, package_imports, probes, speeds = [], [], [], []
    unscaled = {"wall_s": [], "setup_s": []}
    begin = time.monotonic()
    for rep in itertools.count():
        traced = bool(trace) and rep % 2 == 1
        groups = plan(random.Random(f"{workload}/{seed}/{rep}"), **(plan_kwargs or {}))
        params = params or groups
        rep_walls, raw_walls, layers = [], [], {}
        for index, ops in enumerate(groups):
            attempted += len(ops)
            job = {"ops": ops, "outdir": str(outdir), "trace": traced}
            if traced:
                job["spans_path"] = str(outdir / f"{workload}.{index}.spans.jsonl")
            try:
                reply, numpy_import, setup = run_child(job, src, deadline)
            except (ChildError, OSError, ValueError) as exc:
                failed += len(ops)
                errors.append(f"rep {rep} group {index}: {exc}")
                rep_walls.append(None)
                continue
            versions = versions or reply["versions"]
            # The host's speed changes by tens of percent within seconds.  A
            # fresh interpreter importing numpy and a fixed pure-Python sum
            # (timed before and after the job), both outside the package,
            # slow down with it.  This worker's times are reported at the
            # reference speed: scaled by the geometric mean of the two
            # reference-over-measured ratios (rates are divided by it).
            speed = math.sqrt(
                REF_NUMPY_IMPORT_S / numpy_import
                * REF_PYTHON_PROBE_S / statistics.fmean(reply["python_probe_s"])
            )
            numpy_imports.append(numpy_import)
            package_imports.append(setup - numpy_import)
            probes.extend(reply["python_probe_s"])
            speeds.append(speed)
            unscaled["setup_s"].append(setup)
            samples.setdefault("setup_s", []).append(setup * speed)
            for op, record in zip(ops, reply["ops"]):
                if not record["ok"]:
                    failed += 1
                    errors.append(f"rep {rep} {op['name']}: {record['error']}")
                wall = record.get("wall_s")
                raw_walls.append(wall)
                rep_walls.append(None if wall is None else wall * speed)
                if wall is not None and not traced:
                    samples.setdefault(op["name"], []).append(op_metric(op, wall * speed))
            for name, value in reply.get("layers", {}).items():
                if LAYER_UNITS.get(name, "s") == "s":
                    value *= speed
                layers[name] = layers.get(name, 0) + value
        if None not in rep_walls:
            walls[traced].append(sum(rep_walls))
            if not traced:
                unscaled["wall_s"].append(sum(raw_walls))
            for name, value in layers.items():
                samples.setdefault(name, []).append(value)
        # Stop before a repetition of a quarter more than the mean would overrun.
        elapsed = time.monotonic() - begin
        out_of_time = elapsed * (1 + 1.25 / (rep + 1)) > seconds
        if (rep + 1 >= MIN_REPS and out_of_time) or time.monotonic() > deadline - 5:
            break

    if walls[False]:
        samples["wall_s"] = walls[False]
    if walls[True]:
        samples["traced_wall_s"] = walls[True]
        if walls[False]:
            samples["tracing_overhead_s"] = [
                statistics.median(walls[True]) - statistics.median(walls[False])
            ]
    if not numpy_imports:
        raise ChildError(f"no repetition ran: {errors[:3]}")
    units = {**E2E_UNITS, **LAYER_UNITS, **OP_UNITS}
    summary = {
        name: summarize(values, units.get(name.split(".")[0], units.get(name, "s")))
        for name, values in sorted(samples.items())
    }
    manifest = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(bool(trace)),
        "versions": versions,
        "git_commit": git_commit(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "params": params,
        "repetitions": rep + 1,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "errors": errors[:20],
        "metrics": summary,
        "numpy_import_s": summarize(numpy_imports, "s"),
        # The package's own share of setup_s, unscaled: the import after numpy's.
        "package_import_s": summarize(package_imports, "s"),
        "python_probe_s": summarize(probes, "s"),
        "speed_factor": summarize(speeds, "1"),
        "unscaled_medians": {name: statistics.median(v) for name, v in unscaled.items() if v},
    }
    wanted = LAYER_UNITS if trace else E2E_UNITS
    if not all(name in summary for name in wanted):
        missing = sorted(set(wanted) - set(summary))
        raise ChildError(f"no successful repetition measured {missing}: {errors[:3]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": summary[name]["median"], "unit": unit} for name, unit in wanted.items()
        },
    }
    with open(outdir / f"{workload}.manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "multicast_aoi" / "__init__.py").is_file():
        print(f"error: no multicast_aoi package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        manifest, result = run(args.workload, args.seed, args.seconds, args.trace)
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"manifest": manifest}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
