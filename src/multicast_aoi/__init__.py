"""Average age of information at the receivers of a multicast update stream.

A single source pushes time-stamped updates to n nodes over i.i.d. random
links and preempts each update once enough acknowledgements arrive.  This
package computes the resulting time-averaged age per node in closed form
(shifted-exponential links), finds the age-minimizing stopping threshold,
and cross-checks everything with a discrete-event Monte Carlo simulator.
"""

from .analytics import (
    AgeResult,
    age_earliest_k,
    age_earliest_k_approx,
    age_preselected_k,
    age_preselected_k_approx,
    age_preselected_k_process,
    age_wait_for_all,
    age_wait_for_all_general,
    optimal_alpha,
    optimal_k_closed_form,
    optimal_k_exact,
)
from .delay_models import (
    DelayModel,
    HyperExponential,
    OrderStatMoments,
    RandomStream,
    ShiftedExponential,
    harmonic,
    harmonic2,
    order_stat_moments,
    partial_order_mean_sum,
)
from .experiments import (
    DEFAULT_SEED,
    SCHEMES,
    Scheme,
    SweepRow,
    ValidationCell,
    ValidationReport,
    run_fig4,
    run_fig5,
    run_fig6,
    run_sweep,
    run_validation,
)
from .simulator import (
    EarliestK,
    PreSelectedK,
    SimConfig,
    SimResult,
    SimulationError,
    StoppingPolicy,
    WaitForAll,
    replicate,
    run_rounds,
)

__version__ = "0.14.1"
