"""Reference values and output checks for the benchmark workloads.

Each check returns a list of failure messages; an empty list means the
operation's output is correct.  A simulated age passes when it lies within
a Student-t threshold of its exact age, measured in the run's batch-means
standard errors.  Exact ages come from the package's closed forms, except
for the hyper-exponential case, which is integrated numerically here, and
for ``optimize``, whose minimum is re-derived with ``math.fsum`` tail sums.
"""

from __future__ import annotations

import csv
import io
import json
import math
from functools import lru_cache
from statistics import NormalDist

import numpy as np

import multicast_aoi
from multicast_aoi.experiments import CSV_COLUMNS

# Two-sided false-alarm probability of one z check.  A run makes a few
# hundred checks, so a correct program fails one about once in 10^4 runs.
FALSE_ALARM = 1e-6


def batch_dof(updates: int) -> int:
    """Degrees of freedom of the engine's batch-means standard error.

    The engine splits ``updates`` into ``max(1, min(32, updates // 50))``
    batches and takes the standard error of their means.
    """
    return max(1, min(32, updates // 50)) - 1


def z_threshold(dof: int, alpha: float = FALSE_ALARM) -> float:
    """Two-sided Student-t quantile by the Cornish-Fisher expansion in 1/dof."""
    z = NormalDist().inv_cdf(1.0 - alpha / 2.0)
    nu = float(dof)
    return (
        z
        + (z**3 + z) / (4 * nu)
        + (5 * z**5 + 16 * z**3 + 3 * z) / (96 * nu**2)
        + (3 * z**7 + 19 * z**5 + 17 * z**3 - 15 * z) / (384 * nu**3)
        + (79 * z**9 + 776 * z**7 + 1482 * z**5 - 1920 * z**3 - 945 * z) / (92160 * nu**4)
    )


@lru_cache(maxsize=None)
def earliest_k_age_numeric(rates: tuple, weights: tuple, n: int, k: int) -> float:
    """Earliest-k average age for a hyper-exponential link, by quadrature.

    For any continuous i.i.d. delay law the age is
    ``S/k + (2n-k)/(2k) E[X_{k:n}] + Var[X_{k:n}] / (2 E[X_{k:n}])`` with
    ``S = sum_{i<=k} E[X_{i:n}]``.  With ``B ~ Binomial(n, F(x))``,
    ``S = int E[(k-B)^+] dx`` and ``E[X_{k:n}^p] = int p x^(p-1) P(B<k) dx``;
    the integrals are evaluated by composite Simpson on a uniform grid.
    """
    upper = (math.log(n) + 45.0) / min(rates)
    x = np.linspace(0.0, upper, 100_001)
    survival = sum(w * np.exp(-r * x) for r, w in zip(rates, weights))
    odds = (1.0 - survival) / survival
    pmf = survival**n
    below_k = np.zeros_like(x)
    shortfall = np.zeros_like(x)
    for j in range(k):
        below_k += pmf
        shortfall += (k - j) * pmf
        pmf = pmf * ((n - j) / (j + 1.0)) * odds

    def integral(f):
        h = x[1] - x[0]
        return h / 3.0 * (f[0] + f[-1] + 4.0 * f[1:-1:2].sum() + 2.0 * f[2:-1:2].sum())

    mean = integral(below_k)
    second = integral(2.0 * x * below_k)
    return (
        integral(shortfall) / k
        + (2.0 * n - k) / (2.0 * k) * mean
        + (second - mean * mean) / (2.0 * mean)
    )


def exact_age(policy: str, model: dict, n: int, k: int) -> float:
    """Exact average age of one simulated configuration.

    Pre-selected-k uses the process-exact renewal formula; the paper's own
    closed form does not describe the simulated process.
    """
    if model["family"] == "hyperexp":
        if policy != "earliest_k":
            raise ValueError(f"no exact hyper-exponential age for {policy}")
        return earliest_k_age_numeric(tuple(model["rates"]), tuple(model["weights"]), n, k)
    rate, shift = model["rate"], model["shift"]
    if policy == "wait_for_all":
        return multicast_aoi.age_wait_for_all(rate, shift, n).total
    if policy == "earliest_k":
        return multicast_aoi.age_earliest_k(rate, shift, n, k).total
    return multicast_aoi.age_preselected_k_process(rate, shift, n, k).total


def _z_failures(label: str, sim: float, stderr: float, exact: float, dof: int) -> list:
    limit = z_threshold(dof)
    if not (math.isfinite(sim) and math.isfinite(stderr) and stderr > 0):
        return [f"{label}: unusable estimate {sim} +- {stderr}"]
    z = abs(sim - exact) / stderr
    if z > limit:
        return [f"{label}: sim {sim} vs exact {exact}, |z| = {z:.2f} > {limit:.2f}"]
    return []


def check_replicate(op: dict, output: dict, exact=exact_age) -> list:
    """The simulated grand mean agrees with the exact age."""
    return _z_failures(
        op["case"],
        output["grand_mean"],
        output["std_error"],
        exact(op["policy"], op["model"], op["n"], op["k"]),
        batch_dof(op["updates"]),
    )


def check_fig6(op: dict, text: str, exact=exact_age) -> list:
    """20 rows in the standard schema, each at k* and agreeing with its exact age."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != list(CSV_COLUMNS):
        return [f"fig6 header {header} is not {list(CSV_COLUMNS)}"]
    rows = [dict(zip(header, row)) for row in reader]
    if sorted(int(r["n"]) for r in rows) != op["n_values"]:
        return [f"fig6 rows cover n = {[r['n'] for r in rows]}, expected {op['n_values']}"]
    model = op["model"]
    failures = []
    for r in rows:
        n, k = int(r["n"]), int(r["k"])
        label = f"fig6 n={n}"
        k_star = multicast_aoi.optimal_k_closed_form(model["rate"], model["shift"], n)
        if (r["scheme"], k, r["kstar_flag"]) != ("earliest_k", k_star, "1"):
            failures.append(f"{label}: row {r} is not earliest-k at k* = {k_star}")
            continue
        reference = exact("earliest_k", model, n, k)
        if not math.isclose(float(r["exact_age"]), reference, rel_tol=1e-9):
            failures.append(f"{label}: exact_age {r['exact_age']} != {reference}")
        failures += _z_failures(
            label, float(r["sim_age"]), float(r["sim_stderr"]), reference,
            batch_dof(op["rounds"]),
        )
    return failures


def earliest_k_age_fsum(rate: float, shift: float, n: int, k: int) -> float:
    """Earliest-k exact age from tail sums ``sum_{j=n-k+1..n} 1/j`` taken with fsum."""
    tail = math.fsum(1.0 / j for j in range(n - k + 1, n + 1))
    tail2 = math.fsum(1.0 / (j * j) for j in range(n - k + 1, n + 1))
    mean = shift + tail / rate
    variance = tail2 / (rate * rate)
    delta1 = shift + 1.0 / rate - (n - k) * tail / (rate * k)
    return math.fsum(
        (delta1, (2.0 * n - k) / (2.0 * k) * mean, variance / (2.0 * mean))
    )


def check_optimize(op: dict, text: str) -> list:
    """The exhaustive k* is no worse than its neighbours under an independent age."""
    out = json.loads(text)
    rate, shift, n = op["rate"], op["shift"], op["n"]
    k = out["k_exhaustive"]
    if not 1 <= k <= n:
        return [f"optimize n={n}: k_exhaustive {k} outside [1, {n}]"]
    age = earliest_k_age_fsum(rate, shift, n, k)
    failures = []
    if not math.isclose(out["exact_age_at_k_exhaustive"], age, rel_tol=1e-10):
        failures.append(
            f"optimize n={n}: reported age {out['exact_age_at_k_exhaustive']} != {age} at k={k}"
        )
    for other in (k - 1, k + 1):
        if 1 <= other <= n:
            neighbour = earliest_k_age_fsum(rate, shift, n, other)
            if neighbour < age * (1.0 - 1e-12):
                failures.append(
                    f"optimize n={n}: k={other} has age {neighbour} < {age} at k_exhaustive={k}"
                )
    return failures
