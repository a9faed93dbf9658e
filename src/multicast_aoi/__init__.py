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
    EULER_GAMMA,
    DelayModel,
    HyperExponential,
    McOrderStat,
    OrderStatMoments,
    RandomStream,
    ShiftedExponential,
    harmonic,
    harmonic2,
    model_mean,
    model_variance,
    order_stat_mc_oracle,
    order_stat_moments,
    partial_order_mean_sum,
    sample_delay,
    sample_delay_matrix,
)
from .experiments import (
    DEFAULT_SEED,
    SweepRow,
    SweepSpec,
    ValidationCell,
    ValidationReport,
    rows_to_csv_text,
    rows_to_json,
    run_fig4,
    run_fig5,
    run_fig6,
    run_sweep,
    run_validation,
    write_rows_csv,
)
from .simulator import (
    EarliestK,
    NodeAgeState,
    PreSelectedK,
    SimConfig,
    SimResult,
    SimulationError,
    StoppingPolicy,
    WaitForAll,
    accumulate_delivery,
    replicate,
    run_round,
    run_rounds,
    simulate,
)

__version__ = "0.4.0"
