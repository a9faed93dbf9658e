"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Criterion 2 makes two checks on the same simulations.  First, every cell
must match the exact age of the process it simulates: the closed forms
for wait-for-all and earliest-k, and the renewal analysis
``age_preselected_k_process`` for the pre-selected scheme.  Second, it
asserts the reproduction finding: at every pre-selected cell with k < n
the paper's published closed form ``age_preselected_k`` lies more than 3
standard errors above the simulated mean, because that form treats the
round duration as independent of one node's delivery outcome.  The
published form itself stays pinned exactly as published by criterion 3.
"""

import math
import time

import numpy as np
import pytest

from multicast_aoi import (
    EarliestK,
    PreSelectedK,
    RandomStream,
    ShiftedExponential,
    SimConfig,
    WaitForAll,
    age_earliest_k,
    age_earliest_k_approx,
    age_preselected_k,
    age_preselected_k_process,
    age_wait_for_all,
    optimal_alpha,
    optimal_k_closed_form,
    order_stat_moments,
    replicate,
)
from multicast_aoi.cli import main
from scalar_oracles import order_stat_mc_oracle

SEED = 20250810


def _report(num: int, label: str, ok: bool, started: float, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {num:02d}: {label} ({time.perf_counter() - started:.1f}s)"
    if detail:
        line += f" -- {detail}"
    print(line)


def test_criterion_01_scheme_coincidence_identity():
    started = time.perf_counter()
    worst = 0.0
    for lam in (0.5, 1.0, 2.0):
        for c in (0.0, 1.0):
            for n in (1, 2, 5, 10, 50, 100):
                wfa = age_wait_for_all(lam, c, n).total
                for other in (
                    age_earliest_k(lam, c, n, n).total,
                    age_preselected_k(lam, c, n, n).total,
                ):
                    worst = max(worst, abs(other - wfa) / wfa)
    ok = worst <= 1e-9
    _report(1, "scheme coincidence at k=n", ok, started, f"max rel dev {worst:.2e}")
    assert ok, f"worst relative deviation {worst:.3e} exceeds 1e-9"


def test_criterion_02_simulation_vs_theory_oracle():
    started = time.perf_counter()
    published_fns = {
        "wait_for_all": lambda lam, c, n, k: age_wait_for_all(lam, c, n).total,
        "earliest_k": lambda lam, c, n, k: age_earliest_k(lam, c, n, k).total,
        "preselected_k": lambda lam, c, n, k: age_preselected_k(lam, c, n, k).total,
    }
    oracle_fns = dict(
        published_fns,
        preselected_k=lambda lam, c, n, k: age_preselected_k_process(lam, c, n, k).total,
    )
    cells = []
    for lam, c in ((1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 1.0)):
        for n in (1, 2, 5, 10):
            cells.append(("wait_for_all", lam, c, n, n))
            for k in sorted({1, math.ceil(n / 2), n}):
                cells.append(("earliest_k", lam, c, n, k))
                cells.append(("preselected_k", lam, c, n, k))

    policies = {
        "wait_for_all": lambda k: WaitForAll(),
        "earliest_k": EarliestK,
        "preselected_k": PreSelectedK,
    }
    misses = 0
    published_z = []
    offending = []
    for index, (scheme, lam, c, n, k) in enumerate(cells):
        config = SimConfig(
            n=n,
            policy=policies[scheme](k),
            model=ShiftedExponential(lam, c),
            updates=1_000_000,
            seed=SEED + index,
        )
        result = replicate(config)
        oracle = oracle_fns[scheme](lam, c, n, k)
        published = published_fns[scheme](lam, c, n, k)
        tolerance = max(3 * result.std_error, 0.01 * oracle)
        missed = abs(result.grand_mean - oracle) > tolerance
        misses += missed
        # the reproduction finding: at k < n the published pre-selected form
        # lies significantly above the age of the process it claims to describe
        not_rejected = False
        if scheme == "preselected_k" and k < n:
            z = (published - result.grand_mean) / result.std_error
            published_z.append(z)
            not_rejected = z <= 3.0
        if missed or not_rejected:
            offending.append((scheme, lam, c, n, k, result, oracle, published))

    rejected = sum(z > 3.0 for z in published_z)
    ok = not offending
    _report(
        2,
        "simulation vs theory oracle, 1e6 rounds",
        ok,
        started,
        f"{len(cells) - misses}/{len(cells)} cells within max(3 stderr, 1%) of the "
        f"process-exact oracle; published pre-selected form rejected at "
        f"{rejected}/{len(published_z)} k<n cells (min z {min(published_z):.1f})",
    )
    if offending:
        lines = [
            f"{misses} of {len(cells)} cells exceed max(3 stderr, 1%) of the "
            "process-exact oracle;",
            f"{len(published_z) - rejected} of {len(published_z)} pre-selected k<n "
            "cells do not reject the published form (z(published) <= 3).",
            "",
            "scheme         lam  c  n   k   simulated    process-exact published    "
            "z(process) z(published)",
        ]
        for scheme, lam, c, n, k, result, oracle, published in offending:
            lines.append(
                f"{scheme:<14} {lam:<4g} {c:<2g} {n:<3} {k:<3} "
                f"{result.grand_mean:<12.5f} {oracle:<13.5f} {published:<12.5f} "
                f"{(result.grand_mean - oracle) / result.std_error:<10.2f} "
                f"{(published - result.grand_mean) / result.std_error:.2f}"
            )
        assert ok, "\n".join(lines)


def test_criterion_03_hand_derived_point_values():
    started = time.perf_counter()
    checks = (
        (age_earliest_k(1.0, 0.0, 2, 1).total, 1.5),
        (age_preselected_k(1.0, 0.0, 2, 1).total, 25 / 12),
        (age_wait_for_all(1.0, 1.0, 1).total, 3.25),
    )
    ok = all(abs(got - want) <= 1e-10 for got, want in checks)
    _report(3, "hand-derived point values", ok, started,
            " ".join(f"{got:.12g}" for got, _ in checks))
    for got, want in checks:
        assert abs(got - want) <= 1e-10


def test_criterion_04_threshold_claim():
    started = time.perf_counter()
    alpha = optimal_alpha(1.0, 0.5)
    kstar = optimal_k_closed_form(1.0, 0.5, 100)
    ok = abs(alpha - 0.6180) <= 5e-5 and kstar == 62 and kstar > 60
    _report(4, "optimal threshold at rate*shift=0.5", ok, started,
            f"alpha*={alpha:.6f} k*={kstar}")
    assert ok, (alpha, kstar)


def test_criterion_05_memoryless_monotonicity():
    started = time.perf_counter()
    exact = [age_earliest_k(2.0, 0.0, 100, k).total for k in range(1, 101)]
    strictly_increasing = all(b > a for a, b in zip(exact, exact[1:]))

    ks = sorted(set(range(1, 101, 5)) | {100})
    sims = []
    for index, k in enumerate(ks):
        config = SimConfig(
            n=100,
            policy=EarliestK(k),
            model=ShiftedExponential(2.0, 0.0),
            updates=100_000,
            seed=SEED + 1000 + index,
        )
        result = replicate(config)
        sims.append((result.grand_mean, result.std_error))
    no_significant_drop = all(
        b_mean - a_mean >= -3 * math.hypot(a_err, b_err)
        for (a_mean, a_err), (b_mean, b_err) in zip(sims, sims[1:])
    )
    ok = strictly_increasing and no_significant_drop
    _report(5, "memoryless age increases with k", ok, started,
            f"exact strict: {strictly_increasing}, sim non-decreasing: {no_significant_drop}")
    assert ok


def test_criterion_06_approximation_tightness():
    started = time.perf_counter()
    worst = 0.0
    for k in range(1, 96):
        exact = age_earliest_k(1.0, 1.0, 100, k).total
        approx = age_earliest_k_approx(1.0, 1.0, k / 100).total
        worst = max(worst, abs(approx - exact) / exact)
    ok = worst <= 0.05
    _report(6, "log approximation within 5% for k<=95", ok, started,
            f"max rel err {worst:.4f}")
    assert ok, worst


def test_criterion_07_scheme_dominance_at_kstar():
    started = time.perf_counter()
    details = []
    ok = True
    for index, lam in enumerate((0.5, 1.0, 2.0)):
        kstar = optimal_k_closed_form(lam, 1.0, 100)
        results = {}
        for offset, policy in enumerate((EarliestK(kstar), PreSelectedK(kstar))):
            config = SimConfig(
                n=100,
                policy=policy,
                model=ShiftedExponential(lam, 1.0),
                updates=1_000_000,
                seed=SEED + 2000 + 10 * index + offset,
            )
            results[type(policy).__name__] = replicate(config)
        earliest = results["EarliestK"]
        preselected = results["PreSelectedK"]
        margin = preselected.grand_mean - earliest.grand_mean
        needed = 3 * math.hypot(earliest.std_error, preselected.std_error)
        details.append(f"lam={lam:g}: margin {margin:.4f} vs 3se {needed:.4f}")
        ok = ok and margin > needed
    _report(7, "earliest-k beats pre-selected-k at k*", ok, started, "; ".join(details))
    assert ok, details


def test_criterion_08_n_scaling_plateau():
    started = time.perf_counter()
    plateau = [
        age_earliest_k(1.0, 1.0, n, optimal_k_closed_form(1.0, 1.0, n)).total
        for n in (50, 100, 150, 200)
    ]
    variation = max(plateau) / min(plateau) - 1.0
    single = age_earliest_k(1.0, 1.0, 1, optimal_k_closed_form(1.0, 1.0, 1)).total
    ok = variation < 0.02 and single == 3.25
    _report(8, "minimum age plateaus in n", ok, started,
            f"variation {variation:.4%}, n=1 value {single}")
    assert ok, (variation, single)


def test_criterion_09_order_statistics_oracle():
    started = time.perf_counter()
    stream = RandomStream(SEED + 3000)
    worst_mean_z = worst_var_z = 0.0
    cells = 0
    for lam in (0.5, 1.0, 2.0):
        for c in (0.0, 1.0):
            for n in (1, 2, 5, 10, 100):
                for k in sorted({1, math.ceil(n / 2), n}):
                    closed = order_stat_moments(lam, c, k, n)
                    est = order_stat_mc_oracle(
                        ShiftedExponential(lam, c), k, n, 100_000, stream
                    )
                    worst_mean_z = max(worst_mean_z, abs(est.mean - closed.mean) / est.stderr)
                    worst_var_z = max(
                        worst_var_z, abs(est.variance - closed.variance) / est.variance_stderr
                    )
                    cells += 1
    ok = worst_mean_z <= 4.0 and worst_var_z <= 4.0
    _report(9, "order-statistic closed forms vs Monte Carlo", ok, started,
            f"{cells} cells, worst |z|: mean {worst_mean_z:.2f}, variance {worst_var_z:.2f}")
    assert ok, (worst_mean_z, worst_var_z)


def test_criterion_10_determinism(tmp_path):
    started = time.perf_counter()
    sim_args = [
        "simulate", "--scheme", "earliest-k", "--n", "5", "--k", "2",
        "--lambda", "1", "--shift", "1", "--updates", "30000",
        "--seed", str(SEED), "--format", "csv",
    ]
    exp_args = [
        "experiment", "fig6", "--rounds", "2000", "--warmup", "100",
        "--n-min", "1", "--n-max", "3", "--seed", str(SEED), "--format", "csv",
    ]
    outputs = []
    for label, args in (("sim", sim_args), ("exp", exp_args)):
        pair = []
        for attempt in ("a", "b"):
            path = tmp_path / f"{label}_{attempt}.csv"
            assert main(args + ["--output", str(path)]) == 0
            pair.append(path.read_bytes())
        outputs.append(pair)
    ok = all(a == b for a, b in outputs)
    _report(10, "byte-identical repeated runs", ok, started)
    assert ok
