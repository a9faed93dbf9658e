"""One benchmark repetition in a fresh interpreter.

Run as a script: the imports of numpy and then ``multicast_aoi`` come
first, and the process reports the system-wide monotonic clock at the
moment each returns, so the parent can time interpreter start-up plus each
import.  The numpy import does not involve the package; the parent uses it,
with a fixed pure-Python sum timed before and after the job, to gauge the
host's speed.  The job arrives as one JSON line on stdin; the
result leaves as one JSON line on stdout.  Anything the package prints
goes to stderr.
"""

import time

import numpy as np

NUMPY_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import multicast_aoi  # noqa: E402

READY_AT = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import multicast_aoi.cli  # noqa: E402

from checks import check_fig6, check_optimize, check_replicate, exact_age  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402


def _model(spec: dict):
    if spec["family"] == "hyperexp":
        return multicast_aoi.HyperExponential(tuple(spec["rates"]), tuple(spec["weights"]))
    return multicast_aoi.ShiftedExponential(spec["rate"], spec["shift"])


def _policy(name: str, k: int):
    if name == "wait_for_all":
        return multicast_aoi.WaitForAll()
    if name == "earliest_k":
        return multicast_aoi.EarliestK(k)
    return multicast_aoi.PreSelectedK(k)


def _call(op: dict, outdir: str):
    """Make the op's entry-point call; return (output, seconds, bytes written)."""
    if op["kind"] == "replicate":
        config = multicast_aoi.SimConfig(
            n=op["n"],
            policy=_policy(op["policy"], op["k"]),
            model=_model(op["model"]),
            updates=op["updates"],
            warmup=op["warmup"],
            seed=op["seed"],
        )
        start = time.perf_counter()
        result = multicast_aoi.replicate(config)
        seconds = time.perf_counter() - start
        return {"grand_mean": result.grand_mean, "std_error": result.std_error}, seconds, 0
    path = os.path.join(outdir, f"{op['name']}.out")
    argv = [path if arg == "{output}" else arg for arg in op["argv"]]
    start = time.perf_counter()
    code = multicast_aoi.cli.main(argv)
    seconds = time.perf_counter() - start
    if code != 0:
        raise RuntimeError(f"cli exited with {code}")
    with open(path) as fh:
        text = fh.read()
    os.remove(path)
    return text, seconds, len(text.encode())


def _check(op: dict, output, exact) -> list:
    if op["kind"] == "replicate":
        return check_replicate(op, output, exact)
    if op["check"] == "fig6":
        return check_fig6(op, output, exact)
    return check_optimize(op, output)


def python_probe() -> float:
    """Seconds for a fixed interpreter-bound sum, timed to gauge the host's speed."""
    start = time.perf_counter()
    math.fsum(1.0 / j for j in range(1, 300_001))
    return time.perf_counter() - start


def run_job(job: dict, exact=exact_age) -> dict:
    """Run the job's ops in order, traced if asked, then check every output.

    ``exact`` supplies the reference ages; tests replace it to show that a
    wrong reference is caught.
    """
    ops, outdir = job["ops"], job["outdir"]
    probes = [python_probe()]
    records, outputs = [], []
    with Tracer() if job["trace"] else contextlib.nullcontext() as tracer:
        for op in ops:
            try:
                output, seconds, nbytes = _call(op, outdir)
            except Exception:
                records.append({"name": op["name"], "ok": False, "error": traceback.format_exc()})
                outputs.append(None)
                continue
            records.append({"name": op["name"], "ok": True, "wall_s": seconds, "bytes": nbytes})
            outputs.append(output)
    # The host's speed changes within seconds; a probe on each side of a long
    # op tracks it better than one before.
    probes.append(python_probe())
    for op, record, output in zip(ops, records, outputs):
        if not record["ok"]:
            continue
        try:
            failures = _check(op, output, exact)
        except Exception:
            failures = [traceback.format_exc()]
        if failures:
            record.update(ok=False, error="; ".join(failures))
    reply = {
        "numpy_at": NUMPY_AT,
        "python_probe_s": probes,
        "ready_at": READY_AT,
        "package_file": multicast_aoi.__file__,
        "versions": {
            "multicast_aoi": multicast_aoi.__version__,
            "numpy": np.__version__,
            "python": sys.version.split()[0],
        },
        "ops": records,
    }
    if tracer is not None:
        reply["layers"] = layer_metrics(tracer)
        reply["layers"]["cli.output_bytes"] = sum(r.get("bytes", 0) for r in records)
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    return reply


def main() -> int:
    line = sys.stdin.readline()
    reply_to = sys.stdout
    sys.stdout = sys.stderr
    job = json.loads(line)
    reply = run_job(job)
    reply_to.write(json.dumps(reply) + "\n")
    reply_to.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
