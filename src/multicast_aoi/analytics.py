"""Closed-form average-age formulas for the three stopping schemes.

Every operation returns an :class:`AgeResult` whose ``breakdown`` sums to
``total``, so each additive term of the underlying formula stays auditable.
Exact formulas use true harmonic partial sums; the logarithmic substitute
``H_n ~ log n + gamma`` appears only inside operations flagged
``kind="approximate"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .delay_models import (
    _check_count,
    _check_kn,
    _check_rate_shift,
    _check_real,
    _tail_sums,
    harmonic,
    harmonic2,
    partial_order_mean_sum,
)

__all__ = [
    "AgeResult",
    "age_wait_for_all_general",
    "age_wait_for_all",
    "age_earliest_k",
    "age_earliest_k_approx",
    "age_preselected_k",
    "age_preselected_k_process",
    "age_preselected_k_approx",
    "optimal_alpha",
    "optimal_k_closed_form",
    "optimal_k_exact",
]

_SCHEMES = ("wait_for_all", "earliest_k", "preselected_k")
_KINDS = ("exact", "approximate")


@dataclass(frozen=True)
class AgeResult:
    """An average-age value with its additive breakdown and provenance.

    ``total`` always equals the sum of ``breakdown`` values; ``kind`` says
    whether the number came from an exact formula or a large-n
    approximation; ``params`` records the inputs that produced it.
    """

    total: float
    breakdown: Mapping[str, float]
    kind: str
    scheme: str
    params: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"kind must be one of {_KINDS}, got {self.kind!r}")
        if self.scheme not in _SCHEMES:
            raise ValueError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if not math.isfinite(self.total):
            raise ValueError(f"average age is not finite: {self.total}")
        total = math.fsum(self.breakdown.values())
        if not math.isclose(self.total, total, rel_tol=1e-10, abs_tol=1e-12):
            raise ValueError(
                f"total {self.total} does not match breakdown sum {total}"
            )
        if not self.total > 0:
            raise ValueError(f"average age must be positive, got {self.total}")
        shift = self.params.get("shift")
        if shift is not None and shift > 0 and self.total < shift:
            raise ValueError(
                f"average age {self.total} below the delay lower bound {shift}"
            )


def _result(scheme: str, kind: str, params: dict, breakdown: dict) -> AgeResult:
    return AgeResult(
        total=math.fsum(breakdown.values()),
        breakdown=breakdown,
        kind=kind,
        scheme=scheme,
        params=params,
    )


def _variance_ratio(rate, shift, t1, t2):
    """``Var[X_{k:n}] / (2 E[X_{k:n}])`` from the tail sums of the k-th order statistic.

    Written as ``T2 / (2 rate (rate shift + T1))``, which forms no square
    of the rate (that square underflows below rate 1e-154 and overflows
    above 1e154).  Works elementwise on numpy arrays.
    """
    return t2 / (2.0 * rate * (rate * shift + t1))


def _earliest_k_terms(rate, shift, n, k, t1, t2, excess):
    """The delta1, interval and variance-ratio terms of the earliest-k age.

    Takes the tail sums over n-k < j <= n and ``excess = k - (n-k) T1``.
    Works elementwise on numpy arrays of k.
    """
    return (
        shift + excess / k / rate,
        (2.0 * n - k) / (2.0 * k) * (shift + t1 / rate),
        _variance_ratio(rate, shift, t1, t2),
    )


def age_wait_for_all_general(
    mean_delay: float, interval_mean: float, interval_second_moment: float
) -> AgeResult:
    """Average age when the sender waits for every node, for ANY delay law.

    ``mean_delay`` is E[X] of one link; ``interval_mean`` and
    ``interval_second_moment`` are the first two moments of the round
    duration (the maximum of the n delays).  The age is
    ``E[X] + E[Y^2] / (2 E[Y])``, valid for any delay distribution under
    the zero-wait protocol with instantaneous acknowledgements.
    """
    mean_delay = _check_real("mean_delay", mean_delay, positive=True)
    interval_mean = _check_real("interval_mean", interval_mean, positive=True)
    interval_second_moment = _check_real("interval_second_moment", interval_second_moment)
    if interval_second_moment < interval_mean * interval_mean * (1.0 - 1e-12):
        raise ValueError(
            "interval_second_moment must be >= interval_mean**2 "
            f"(got {interval_second_moment} < {interval_mean ** 2})"
        )
    variance = max(interval_second_moment - interval_mean * interval_mean, 0.0)
    return _result(
        scheme="wait_for_all",
        kind="exact",
        params={
            "mean_delay": mean_delay,
            "interval_mean": interval_mean,
            "interval_second_moment": interval_second_moment,
        },
        breakdown={
            "delta1": mean_delay,
            "interval_term": interval_mean / 2.0,
            "variance_ratio_term": variance / (2.0 * interval_mean),
        },
    )


def age_wait_for_all(rate: float, shift: float, n: int) -> AgeResult:
    """Exact average age of the wait-for-all scheme on shifted-exponential links.

    Evaluates ``3c/2 + 1/rate + H_n/(2 rate) + H2_n/(2 rate^2 c + 2 rate H_n)``
    with true harmonic sums (c is the shift).
    """
    rate, shift = _check_rate_shift(rate, shift)
    n = _check_count("n", n)
    hn = harmonic(n)
    h2n = harmonic2(n)
    return _result(
        scheme="wait_for_all",
        kind="exact",
        params={"lambda": rate, "shift": shift, "n": n},
        breakdown={
            "shift_term": 1.5 * shift,
            "rate_term": 1.0 / rate,
            "harmonic_term": hn / (2.0 * rate),
            "variance_ratio_term": _variance_ratio(rate, shift, hn, h2n),
        },
    )


def age_earliest_k(rate: float, shift: float, n: int, k: int) -> AgeResult:
    """Exact average age when the sender stops at the earliest k of n acks.

    Three additive terms: the mean delay of a successfully delivered
    update (average of the k smallest order-statistic means), the
    inter-delivery interval term ``(2n-k)/(2k) * E[X_{k:n}]``, and the
    variance ratio ``Var[X_{k:n}] / (2 E[X_{k:n}])``.
    """
    rate, shift = _check_rate_shift(rate, shift)
    k, n = _check_kn(k, n)
    delta1, interval, variance_ratio = _earliest_k_terms(
        rate, shift, n, k, *_tail_sums(n, k)
    )
    return _result(
        scheme="earliest_k",
        kind="exact",
        params={"lambda": rate, "shift": shift, "n": n, "k": k},
        breakdown={
            "delta1": delta1,
            "interval_term": interval,
            "variance_ratio_term": variance_ratio,
        },
    )


def age_earliest_k_approx(rate: float, shift: float, alpha: float) -> AgeResult:
    """Large-n approximation of the earliest-k age at threshold ratio ``alpha = k/n``.

    ``1/rate - log(1 - alpha)/(2 rate) + shift/alpha + shift/2``.  Tight
    only for alpha < 1; the logarithm diverges as alpha -> 1.
    """
    rate, shift = _check_rate_shift(rate, shift)
    alpha = _check_real("alpha", alpha, positive=True)
    if not alpha < 1.0:
        raise ValueError(f"alpha must lie strictly in (0, 1), got {alpha}")
    return _result(
        scheme="earliest_k",
        kind="approximate",
        params={"lambda": rate, "shift": shift, "alpha": alpha},
        breakdown={
            "rate_term": 1.0 / rate,
            "log_term": -math.log1p(-alpha) / (2.0 * rate),
            "shift_over_alpha_term": shift / alpha,
            "half_shift_term": shift / 2.0,
        },
    )


def age_preselected_k(rate: float, shift: float, n: int, k: int) -> AgeResult:
    """The paper's published closed form for the pre-selected-k scheme.

    The sender waits on a pre-selected group of k nodes.  The form assumes
    the round duration is independent of one node's delivery outcome, which
    holds only at k = n: there it equals the process age (and wait-for-all);
    for k < n it lies above the age of the process it describes.  Compare
    simulations with :func:`age_preselected_k_process`, not with this form.

    The delivered-update delay mixes the group case (plain E[X]) with the
    bystander case (mean of the k smallest of k+1 delays); the interval
    term uses the group's maximum ``X_{k:k}`` scaled by
    ``(2n - k + nk) / (2(k + nk))``, which comes from the per-node delivery
    probability ``k/n + ((n-k)/n) * k/(k+1)``.
    """
    rate, shift = _check_rate_shift(rate, shift)
    k, n = _check_kn(k, n)
    mean_delay = shift + 1.0 / rate
    bystander_sum = partial_order_mean_sum(rate, shift, k, k + 1)
    delta1 = (k / n) * mean_delay + ((n - k) / (k * n)) * bystander_sum
    hk, h2k = harmonic(k), harmonic2(k)
    coeff = (2.0 * n - k + n * k) / (2.0 * (k + n * k))
    return _result(
        scheme="preselected_k",
        kind="exact",
        params={"lambda": rate, "shift": shift, "n": n, "k": k},
        breakdown={
            "delta1": delta1,
            "interval_term": coeff * (shift + hk / rate),
            "variance_ratio_term": _variance_ratio(rate, shift, hk, h2k),
        },
    )


def age_preselected_k_process(rate: float, shift: float, n: int, k: int) -> AgeResult:
    """Exact renewal analysis of the simulated pre-selected delivery process.

    :func:`age_preselected_k` treats the round duration as independent of
    one node's delivery outcome and mixes the delivered-delay cases with
    unconditional group-membership weights.  Neither holds for the actual
    process: a bystander is delivered exactly when the group maximum
    exceeds its own delay, which ties the round length to the outcome.
    Conditioning on the outcome, the round duration is distributed as

    * ``X_{k:k}``     when the node is in the group (always delivered),
    * ``X_{k+1:k+1}`` when a bystander beats the group maximum,
    * ``X_{k:k+1}``   when a bystander misses the update,

    and the failure count between deliveries is geometric with success
    probability ``k/n + ((n-k)/n) k/(k+1)``.  The resulting average age is
    what simulation converges to; it coincides with
    :func:`age_preselected_k` at k = n and exceeds it nowhere.
    """
    rate, shift = _check_rate_shift(rate, shift)
    k, n = _check_kn(k, n)
    p = k / n
    a = k / (k + 1.0)
    p_any = p + (1.0 - p) * a
    w_group = p / p_any
    w_bystander = (1.0 - p) * a / p_any
    delta1 = (
        w_group * (shift + 1.0 / rate)
        + w_bystander * partial_order_mean_sum(rate, shift, k, k + 1) / k
    )
    # Tail sums of the group maximum X_{k:k}, the overall maximum
    # X_{k+1:k+1} and the runner-up X_{k:k+1}: means are shift + T1/rate,
    # variances T2/rate^2.
    t1_group, t2_group, _ = _tail_sums(k, k)
    t1_all, t2_all, _ = _tail_sums(k + 1, k + 1)
    t1_runner, t2_runner, _ = _tail_sums(k + 1, k)
    runner_up = shift + t1_runner / rate
    q = (n - k) / (n * (k + 1.0))  # 1 - p_any, without cancellation
    mean_failures = q / p_any
    mean_gap = (
        w_group * (shift + t1_group / rate)
        + w_bystander * (shift + t1_all / rate)
        + mean_failures * runner_up
    )
    # The gap is the delivery round plus a geometric number F of failed
    # rounds (E[F] = q/p_any, Var[F] = q/p_any^2), so Var[gap] =
    # Var[D] + E[F] Var[R] + Var[F] E[R]^2.  It is formed directly rather
    # than as E[gap^2] - E[gap]^2, which cancels when rate*shift is large.
    # The delivery-round mixture's two means differ by 1/((k+1) rate)
    # whatever the shift.  Variances stay in units of 1/rate^2 (the T2
    # sums), and Var[F] E[R]^2 / (2 E[gap]) is taken as
    # Var[F] E[R] (E[R] / (2 E[gap])), so nothing squares the rate or a mean.
    variance_units = (
        w_group * t2_group
        + w_bystander * t2_all
        + w_group * w_bystander / ((k + 1.0) * (k + 1.0))
        + mean_failures * t2_runner
    )
    variance_ratio = (
        variance_units / (2.0 * rate * (rate * mean_gap))
        + q / (p_any * p_any) * runner_up * (runner_up / (2.0 * mean_gap))
    )
    return _result(
        scheme="preselected_k",
        kind="exact",
        params={"lambda": rate, "shift": shift, "n": n, "k": k},
        breakdown={
            "delta1": delta1,
            "interval_term": mean_gap / 2.0,
            "variance_ratio_term": variance_ratio,
        },
    )


def age_preselected_k_approx(rate: float, shift: float, n: int, k: int) -> AgeResult:
    """Approximate pre-selected-k age: a delta1 term plus the interval term.

    ``shift + 1/rate + ((n-k)/(rate k n)) (H_{k+1} - 1)
    + ((2n - k + nk)/(2(k + nk))) (shift + H_k/rate)``.
    The interval term is that of :func:`age_preselected_k`, and there is no
    variance-ratio term.  The delta1 term is not the published one: the
    published delta1 subtracts ``((n-k)/(rate k n)) (H_{k+1} - 1)`` from
    ``shift + 1/rate`` where this one adds it, so the two sum to exactly
    ``2 (shift + 1/rate)``.  Loose for small n; quantify against
    :func:`age_preselected_k`.
    """
    rate, shift = _check_rate_shift(rate, shift)
    k, n = _check_kn(k, n)
    delta1 = (
        shift
        + 1.0 / rate
        + ((n - k) / (rate * k * n)) * (harmonic(k + 1) - 1.0)
    )
    coeff = (2.0 * n - k + n * k) / (2.0 * (k + n * k))
    return _result(
        scheme="preselected_k",
        kind="approximate",
        params={"lambda": rate, "shift": shift, "n": n, "k": k},
        breakdown={
            "delta1": delta1,
            "interval_term": coeff * (shift + harmonic(k) / rate),
        },
    )


def optimal_alpha(rate: float, shift: float) -> float:
    """Age-minimizing threshold ratio ``sqrt(r^2 c^2 + 2 r c) - r c`` in [0, 1].

    Depends only on the product ``x = rate * shift``.  Evaluated without
    cancellation as ``2x / (sqrt(x^2 + 2x) + x)`` for x < 1 and, where
    ``x^2`` could overflow, as ``2 / (sqrt(1 + 2/x) + 1)`` for x >= 1.  The
    ratio tends to 1 as x grows and rounds to 1.0 for x above about 1e16.
    """
    rate, shift = _check_rate_shift(rate, shift)
    x = rate * shift
    if x == 0.0:
        return 0.0
    if x >= 1.0:
        return 2.0 / (math.sqrt(1.0 + 2.0 / x) + 1.0)
    return 2.0 * x / (math.sqrt(x * x + 2.0 * x) + x)


def optimal_k_closed_form(rate: float, shift: float, n: int) -> int:
    """Nearest-integer threshold ``round(alpha* n)`` clamped to [1, n]."""
    n = _check_count("n", n)
    k = math.floor(optimal_alpha(rate, shift) * n + 0.5)
    return min(max(k, 1), n)


def _running_sums(terms, total, error):
    """Running sums of ``terms`` continued from ``total``, with their rounding errors.

    ``np.cumsum`` adds in sequence, so each step's rounding error is
    recovered exactly by TwoSum and accumulated on top of ``error``;
    ``sums + errors`` is the compensated running sum.
    """
    partial = np.cumsum(np.concatenate(([total], terms)))
    before, sums = partial[:-1], partial[1:]
    added = sums - before
    step_error = (before - (sums - added)) + (terms - added)
    return sums, error + np.cumsum(step_error)


# Thresholds k evaluated per vectorized step of optimal_k_exact.
_K_BLOCK = 1 << 15


def optimal_k_exact(rate: float, shift: float, n: int) -> tuple[int, AgeResult]:
    """Exhaustive age-minimizing threshold over k = 1..n (smallest k on ties).

    One vectorized pass over k in blocks of fixed size, so O(n) time in
    bounded memory: the tail sums of ``1/j`` and ``1/j^2`` for every k are
    compensated running sums from j = n downward, and the earliest-k age
    is evaluated for a whole block at once.  The returned breakdown comes
    from :func:`age_earliest_k` at the minimizer.
    """
    rate, shift = _check_rate_shift(rate, shift)
    n = _check_count("n", n)
    best_k, best_age = 1, math.inf
    t1 = e1 = t2 = e2 = 0.0
    # Ages out of floating-point range become inf here, without warnings;
    # age_earliest_k rejects them at the minimizer.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for first in range(1, n + 1, _K_BLOCK):
            k = np.arange(first, min(first + _K_BLOCK, n + 1), dtype=float)
            j = n + 1.0 - k
            s1, c1 = _running_sums(1.0 / j, t1, e1)
            s2, c2 = _running_sums(1.0 / (j * j), t2, e2)
            t1, e1, t2, e2 = s1[-1], c1[-1], s2[-1], c2[-1]
            tail1 = s1 + c1
            delta1, interval, variance_ratio = _earliest_k_terms(
                rate, shift, n, k, tail1, s2 + c2, k - (n - k) * tail1
            )
            age = delta1 + interval + variance_ratio
            i = int(np.argmin(age))
            if age[i] < best_age:
                best_k, best_age = first + i, float(age[i])
    return best_k, age_earliest_k(rate, shift, n, best_k)
