"""The scheme registry, scenario sweeps and the simulation-vs-theory grid.

:data:`SCHEMES` maps each stopping scheme to its CLI name, its policy and
the ages a simulation of it is compared with.  :func:`simulate_point` turns
a ``(model, scheme_name, n, k)`` point into a result and a table row.  A
sweep is a list of points, one comprehension per figure and for the grid;
:func:`run_sweep` seeds point i with ``_point_seed(seed, i)``, so tables are
byte-stable and any row can be rerun alone.  The figures sort their rows
by (scheme, model, n, k); the grid keeps its points' order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from types import MappingProxyType
from typing import Callable, Optional, Sequence

from .analytics import (
    AgeResult,
    age_earliest_k,
    age_earliest_k_approx,
    age_preselected_k,
    age_preselected_k_approx,
    age_preselected_k_process,
    age_wait_for_all,
    optimal_k_closed_form,
)
from .delay_models import DelayModel, HyperExponential, ShiftedExponential, _check_seed
from .simulator import (
    EarliestK,
    PreSelectedK,
    SimConfig,
    SimResult,
    StoppingPolicy,
    WaitForAll,
    replicate,
)

__all__ = [
    "DEFAULT_SEED",
    "Scheme",
    "SCHEMES",
    "SweepRow",
    "simulate_point",
    "as_record",
    "run_sweep",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "ValidationCell",
    "ValidationReport",
    "run_validation",
    "CSV_COLUMNS",
]

DEFAULT_SEED = 123456789

_AgeFn = Callable[[float, float, int, int], AgeResult]


@dataclass(frozen=True)
class Scheme:
    """A stopping scheme: its names, its policy and its reference ages.

    ``policy(k, regroup)`` builds the stopping policy.  Each age function
    takes ``(rate, shift, n, k)``: ``estimated`` is the exact age that a
    simulation of the policy estimates, ``approx`` the large-n
    approximation (None where there is none), and ``published`` the
    paper's closed form where it is not ``estimated``.  The functions call
    the analytics by their module-level names at call time, so wrapping
    those names (as a tracer does) sees every call.
    """

    name: str
    cli_name: str
    policy: Callable[[int, str], StoppingPolicy]
    estimated: _AgeFn
    approx: Callable[[float, float, int, int], Optional[AgeResult]]
    published: Optional[_AgeFn] = None
    has_k: bool = True


SCHEMES = MappingProxyType({scheme.name: scheme for scheme in (
    Scheme(
        "wait_for_all", "wait-for-all",
        policy=lambda k, regroup: WaitForAll(),
        estimated=lambda rate, shift, n, k: age_wait_for_all(rate, shift, n),
        approx=lambda rate, shift, n, k: None,
        has_k=False,
    ),
    Scheme(
        "earliest_k", "earliest-k",
        policy=lambda k, regroup: EarliestK(k),
        estimated=lambda rate, shift, n, k: age_earliest_k(rate, shift, n, k),
        approx=lambda rate, shift, n, k: (
            age_earliest_k_approx(rate, shift, k / n) if k < n else None
        ),
    ),
    # A simulation estimates the renewal analysis of the simulated process;
    # the paper's closed form for this scheme is biased at k < n.
    Scheme(
        "preselected_k", "pre-selected-k",
        policy=lambda k, regroup: PreSelectedK(k, regroup),
        estimated=lambda rate, shift, n, k: age_preselected_k_process(rate, shift, n, k),
        approx=lambda rate, shift, n, k: age_preselected_k_approx(rate, shift, n, k),
        published=lambda rate, shift, n, k: age_preselected_k(rate, shift, n, k),
    ),
)})


def _column(f) -> str:
    return f.metadata.get("column", f.name)


def as_record(row) -> dict:
    """A dataclass as ``{column: value}``, one column per field in field order.

    A column takes the field's name unless the field renames it (``lam``
    is the ``lambda`` column).
    """
    return {_column(f): getattr(row, f.name) for f in fields(row)}


@dataclass(frozen=True)
class SweepRow:
    """One sweep point: simulated age plus analytic columns when defined."""

    scheme: str
    model: str
    lam: Optional[float] = field(metadata={"column": "lambda"})
    shift: Optional[float]
    n: int
    k: int
    sim_age: float
    sim_stderr: float
    exact_age: Optional[float]
    approx_age: Optional[float]
    kstar_flag: bool


CSV_COLUMNS = tuple(_column(f) for f in fields(SweepRow))


def simulate_point(model: DelayModel, scheme: str, n: int, k: int, updates: int, warmup: int,
                   seed: int, replications: int = 1,
                   regroup: str = "per_update") -> tuple[SimResult, SweepRow]:
    """Simulate one point: its result, and its table row.

    The analytic columns (exact and approximate age, whether k is the
    closed-form k*) exist for shifted-exponential links only.  A group of
    k < n kept for the whole run (``regroup="fixed"``) has no exact or
    approximate age: both describe per-update regrouping, another process.
    """
    spec = SCHEMES[scheme]
    config = SimConfig(n=n, policy=spec.policy(k, regroup), model=model, updates=updates,
                       seed=seed, warmup=warmup, replications=replications)
    result = replicate(config)
    lam = shift = exact = approx = None
    kstar = False
    if isinstance(model, ShiftedExponential):
        lam, shift = model.rate, model.shift
        if regroup == "per_update" or k == n:
            exact = spec.estimated(lam, shift, n, k).total
            approx_age = spec.approx(lam, shift, n, k)
            approx = None if approx_age is None else approx_age.total
        kstar = k == optimal_k_closed_form(lam, shift, n)
    return result, SweepRow(scheme, model.label(), lam, shift, n, k,
                            result.grand_mean, result.std_error, exact, approx, kstar)


def _point_seed(seed: int, index: int) -> int:
    return (seed + 1009 * (index + 1)) % 2**64


def run_sweep(
    points: Sequence[tuple],
    rounds: int,
    warmup: int,
    seed: int,
    replications: int = 1,
) -> list[SweepRow]:
    """Simulate each ``(model, scheme_name, n, k)`` point, in order, into a row.

    Point i is seeded with ``_point_seed(seed, i)``, from ``seed`` and i
    alone.  The rows come back in the order of the points.
    """
    if rounds < 100:
        raise ValueError(f"rounds must be >= 100, got {rounds}")
    if not points:
        raise ValueError("a sweep needs at least one point")
    _check_seed(seed)
    return [
        simulate_point(model, scheme, n, k, rounds, warmup, _point_seed(seed, index),
                       replications)[1]
        for index, (model, scheme, n, k) in enumerate(points)
    ]


def _sorted(rows: list[SweepRow]) -> list[SweepRow]:
    return sorted(rows, key=lambda r: (r.scheme, r.model, r.n, r.k))


def _k_values(n: int, step: int, extra: Sequence[int] = ()) -> tuple:
    values = set(range(1, n + 1, step)) | {1, n} | set(extra)
    return tuple(sorted(values))


def run_fig4(
    k_step: int = 5,
    rounds: int = 100_000,
    warmup: int = 1000,
    replications: int = 1,
    seed: int = DEFAULT_SEED,
) -> list[SweepRow]:
    """Earliest-k threshold sweep at n=100 for exponential vs hyper-exponential delay.

    Both models share mean 0.5: exponential rate 2, and a two-component
    mixture with rates (1, 6) and weights (0.4, 0.6).  Approximate ages
    are attached for the exponential rows.
    """
    points = [
        (model, "earliest_k", 100, k)
        for model in (ShiftedExponential(2.0, 0.0), HyperExponential((1.0, 6.0), (0.4, 0.6)))
        for k in _k_values(100, k_step)
    ]
    return _sorted(run_sweep(points, rounds, warmup, seed, replications))


def run_fig5(
    k_step: int = 5,
    rounds: int = 100_000,
    warmup: int = 1000,
    replications: int = 1,
    seed: int = DEFAULT_SEED,
) -> list[SweepRow]:
    """Earliest-k vs pre-selected-k sweep at n=100, shift 1, rates 0.5, 1 and 2.

    Each rate's k grid always includes its closed-form optimum k*, and
    that row carries ``kstar_flag``.  The three rates form one sweep.
    """
    points = [
        (ShiftedExponential(rate, 1.0), scheme, 100, k)
        for rate in (0.5, 1.0, 2.0)
        for scheme in ("earliest_k", "preselected_k")
        for k in _k_values(100, k_step, extra=(optimal_k_closed_form(rate, 1.0, 100),))
    ]
    return _sorted(run_sweep(points, rounds, warmup, seed, replications))


def run_fig6(
    n_values: Sequence[int] = tuple(range(1, 201)),
    rounds: int = 1_000_000,
    warmup: int = 1000,
    replications: int = 1,
    seed: int = DEFAULT_SEED,
) -> list[SweepRow]:
    """Minimum average age versus network size at rate 1, shift 1, stopping at k*."""
    model = ShiftedExponential(1.0, 1.0)
    points = [(model, "earliest_k", n, optimal_k_closed_form(1.0, 1.0, n)) for n in n_values]
    return _sorted(run_sweep(points, rounds, warmup, seed, replications))


@dataclass(frozen=True)
class ValidationCell:
    scheme: str
    lam: float = field(metadata={"column": "lambda"})
    shift: float
    n: int
    k: int
    sim_age: float
    sim_stderr: float
    exact_age: float
    z: float
    passed: bool


@dataclass(frozen=True)
class ValidationReport:
    cells: tuple
    z_threshold: float

    @property
    def passed(self) -> bool:
        return all(cell.passed for cell in self.cells)

    def lines(self) -> list[str]:
        out = [
            f"{'pass' if c.passed else 'FAIL'}  {c.scheme:<14} lambda={c.lam:g} "
            f"shift={c.shift:g} n={c.n:<3} k={c.k:<3} sim={c.sim_age:.6f} "
            f"exact={c.exact_age:.6f} z={c.z:.2f}"
            for c in self.cells
        ]
        n_fail = sum(not c.passed for c in self.cells)
        out.append(
            f"{len(self.cells)} cells, {n_fail} failures "
            f"(|z| threshold {self.z_threshold:g})"
        )
        return out


def run_validation(
    rounds: int = 100_000,
    seed: int = DEFAULT_SEED,
    warmup: int = 1000,
    z_threshold: float = 4.0,
    exact_age_fn: Optional[Callable[[str, float, float, int, int], float]] = None,
) -> ValidationReport:
    """Run the full oracle-agreement grid and score each cell by z.

    Grid: all three schemes, (rate, shift) in {(1,0),(1,1),(2,0),(2,1)},
    n in {1,2,5,10}, k in {1, ceil(n/2), n}.  A cell passes when the
    simulated grand mean lies within ``z_threshold`` standard errors of
    the exact formula.  ``exact_age_fn`` can replace the analytic side,
    which lets the harness itself be mutation-tested.
    """
    if not z_threshold > 0:
        raise ValueError(f"z threshold must be positive, got {z_threshold}")
    points = [
        (ShiftedExponential(lam, shift), scheme, n, k)
        for lam, shift in ((1.0, 0.0), (1.0, 1.0), (2.0, 0.0), (2.0, 1.0))
        for n in (1, 2, 5, 10)
        for scheme in SCHEMES
        # A scheme without k (wait-for-all) runs once per (lam, shift, n).
        for k in (sorted({1, math.ceil(n / 2), n}) if SCHEMES[scheme].has_k else (n,))
    ]
    cells = []
    for row in run_sweep(points, rounds, warmup, seed):
        exact = row.exact_age if exact_age_fn is None else exact_age_fn(
            row.scheme, row.lam, row.shift, row.n, row.k
        )
        if row.sim_stderr > 0 and math.isfinite(row.sim_stderr):
            z = abs(row.sim_age - exact) / row.sim_stderr
        else:
            z = math.inf
        cells.append(ValidationCell(row.scheme, row.lam, row.shift, row.n, row.k, row.sim_age,
                                    row.sim_stderr, exact, z, z <= z_threshold))
    return ValidationReport(cells=tuple(cells), z_threshold=z_threshold)
