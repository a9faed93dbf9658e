"""Scalar reference implementations that the tests compare the engine against.

:func:`run_round` resolves one update round through the engine's own
:func:`~multicast_aoi.simulator.run_rounds`; :class:`NodeAgeState` and
:func:`accumulate_delivery` credit one delivery at a time, the semantics
that the engine's node-major pass applies to whole blocks; and
:func:`order_stat_mc_oracle` estimates order-statistic moments by brute
force for any delay model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np

from multicast_aoi.delay_models import DelayModel, RandomStream, _check_kn
from multicast_aoi.simulator import StoppingPolicy, run_rounds


def run_round(
    policy: StoppingPolicy,
    delays,
    group_stream: Optional[RandomStream] = None,
) -> tuple[float, frozenset]:
    """Resolve a single update round; returns ``(y, delivered node indices)``.

    A kept pre-selected group is nodes 0..k-1, as in the engine; a
    per-update group takes one uniform from ``group_stream``.
    """
    row = np.atleast_2d(np.asarray(delays, dtype=float))
    rank_uniforms = None if group_stream is None else group_stream.generator.random(1)
    y, delivered = run_rounds(policy, row, rank_uniforms)
    return float(y[0]), frozenset(int(i) for i in np.flatnonzero(delivered[0]))


@dataclass
class NodeAgeState:
    """Per-node sawtooth accounting between update deliveries."""

    last_delivery_wall: float = 0.0
    last_gen_timestamp: float = 0.0
    area: float = 0.0
    observed_span: float = 0.0


def accumulate_delivery(state: NodeAgeState, delivery_wall: float, gen_timestamp: float) -> None:
    """Credit one delivery to a node's sawtooth accounting.

    Adds the trapezoid between the previous delivery and this one: with
    gap ``g`` and starting age ``a0`` (the age right after the previous
    delivery), the area grows by ``a0*g + g**2/2``.  The generation
    timestamp may equal the stored one only for the time-zero initial
    update; anything older is rejected as time travel.
    """
    if delivery_wall < state.last_delivery_wall:
        raise ValueError(
            f"delivery_wall {delivery_wall} precedes previous delivery "
            f"{state.last_delivery_wall}"
        )
    if gen_timestamp < state.last_gen_timestamp:
        raise ValueError(
            f"gen_timestamp {gen_timestamp} is staler than the held update "
            f"{state.last_gen_timestamp}"
        )
    if delivery_wall < gen_timestamp:
        raise ValueError(
            f"delivery_wall {delivery_wall} precedes generation {gen_timestamp}"
        )
    g = delivery_wall - state.last_delivery_wall
    a0 = state.last_delivery_wall - state.last_gen_timestamp
    state.area += a0 * g + 0.5 * g * g
    state.observed_span += g
    state.last_delivery_wall = delivery_wall
    state.last_gen_timestamp = gen_timestamp


class McOrderStat(NamedTuple):
    """Monte Carlo estimate of one order statistic's moments.

    ``stderr`` is the standard error of ``mean``; ``variance_stderr`` is the
    standard error of ``variance`` (from the fourth central moment), so both
    estimates carry a usable confidence band.
    """

    mean: float
    variance: float
    stderr: float
    variance_stderr: float


def order_stat_mc_oracle(
    model: DelayModel, k: int, n: int, samples: int, stream: RandomStream
) -> McOrderStat:
    """Brute-force estimate of the k-th order statistic's moments.

    Draws ``samples`` batches of n i.i.d. delays, extracts the k-th
    smallest of each batch, and returns its empirical mean and variance
    with standard errors.  Works for any delay model; this is the
    independent check for the closed forms.
    """
    _check_kn(k, n)
    if samples < 1_000:
        raise ValueError(f"samples must be >= 1000, got {samples}")
    draws = model.sample(stream, (samples, n))
    if n == 1:
        kth = draws[:, 0]
    else:
        kth = np.partition(draws, k - 1, axis=1)[:, k - 1]
    m = float(samples)
    mean = float(kth.mean())
    variance = float(kth.var(ddof=1))
    stderr = math.sqrt(variance / m)
    central4 = float(np.mean((kth - mean) ** 4))
    var_of_var = (central4 - variance * variance * (m - 3.0) / (m - 1.0)) / m
    return McOrderStat(
        mean=mean,
        variance=variance,
        stderr=stderr,
        variance_stderr=math.sqrt(max(var_of_var, 0.0)),
    )
