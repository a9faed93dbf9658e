"""One rule for every count: integers only, each at or above its own floor.

Node counts, thresholds and numbers of draws are whole numbers.  A float
where a count belongs is rejected with a ValueError that names the
argument, never truncated or carried into a formula, and numpy integers
give the same results, bit for bit, as Python integers.
"""

import numpy as np
import pytest

from multicast_aoi import (
    HyperExponential,
    RandomStream,
    ShiftedExponential,
    age_earliest_k,
    age_preselected_k,
    age_preselected_k_approx,
    age_preselected_k_process,
    age_wait_for_all,
    harmonic,
    harmonic2,
    optimal_k_closed_form,
    optimal_k_exact,
    order_stat_moments,
    partial_order_mean_sum,
    run_fig4,
    run_sweep,
)

HYPEREXP = HyperExponential((1.0, 6.0), (0.4, 0.6))


@pytest.mark.parametrize("call, message", [
    (lambda: harmonic(2.5), "n must be an integer, got 2.5"),
    (lambda: harmonic2(2.5), "n must be an integer, got 2.5"),
    (lambda: age_wait_for_all(1, 1, 20.5), "n must be an integer, got 20.5"),
    (lambda: age_earliest_k(1, 1, 20, 7.5), "k must be an integer, got 7.5"),
    (lambda: age_preselected_k(1, 1, 20, 7.5), "k must be an integer, got 7.5"),
    (lambda: age_preselected_k_process(1, 1, 20, 7.5), "k must be an integer, got 7.5"),
    (lambda: age_preselected_k_approx(1, 1, 20, 7.5), "k must be an integer, got 7.5"),
    (lambda: optimal_k_exact(1, 1, 20.5), "n must be an integer, got 20.5"),
    (lambda: optimal_k_closed_form(1, 1, 20.5), "n must be an integer, got 20.5"),
    (lambda: order_stat_moments(1, 1, 2.5, 5), "k must be an integer, got 2.5"),
    (lambda: partial_order_mean_sum(1, 1, 2.5, 5), "k must be an integer, got 2.5"),
    (lambda: order_stat_moments(1, 1, 2, 5.0), "n must be an integer, got 5.0"),
    (lambda: RandomStream(1).skip(-1), "draws must be >= 0, got -1"),
    (lambda: RandomStream(1).skip(2.0), "draws must be an integer, got 2.0"),
    (lambda: ShiftedExponential(1.0).skip(RandomStream(1), -1), "count must be >= 0, got -1"),
    (lambda: HYPEREXP.skip(RandomStream(1), 3.0), "count must be an integer, got 3.0"),
    (lambda: run_sweep([(ShiftedExponential(1.0), "earliest_k", 2, 1)], 1000.0, 10, 1),
     "rounds must be an integer, got 1000.0"),
    (lambda: run_fig4(k_step=2.5, rounds=100), "k step must be an integer, got 2.5"),
], ids=["harmonic", "harmonic2", "wait_for_all", "earliest_k", "preselected_k",
        "preselected_k_process", "preselected_k_approx", "optimal_k_exact",
        "optimal_k_closed_form", "order_stat_moments", "partial_order_mean_sum",
        "order_stat_moments_n", "stream_skip_negative", "stream_skip_float",
        "shifted_skip_negative", "hyperexp_skip_float", "sweep_rounds", "k_step"])
def test_bad_counts_raise_a_value_error_naming_the_argument(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("fn, rate_shift, counts", [
    (harmonic, (), (37,)),
    (harmonic2, (), (37,)),
    (age_wait_for_all, (1.0, 1.0), (20,)),
    (age_earliest_k, (1.0, 1.0), (20, 7)),
    (age_earliest_k, (0.5, 2.0), (200, 150)),
    (age_preselected_k, (1.0, 1.0), (20, 7)),
    (age_preselected_k_process, (1.0, 1.0), (20, 7)),
    (age_preselected_k_approx, (1.0, 1.0), (20, 7)),
    (optimal_k_exact, (1.0, 1.0), (200,)),
    (optimal_k_closed_form, (1.0, 1.0), (200,)),
    (order_stat_moments, (2.0, 0.5), (3, 80)),
    (partial_order_mean_sum, (2.0, 0.5), (70, 80)),
])
@pytest.mark.parametrize("to_numpy", [np.int64, np.int32, np.uint16])
def test_numpy_integers_give_the_python_integer_results(fn, rate_shift, counts, to_numpy):
    as_python = fn(*rate_shift, *counts)
    as_numpy = fn(*rate_shift, *(to_numpy(c) for c in counts))
    assert repr(as_numpy) == repr(as_python)
    assert as_numpy == as_python
