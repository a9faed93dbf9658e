"""Monte Carlo engine for the multicast sawtooth age process.

One update round: the source samples n link delays, the stopping policy
decides when the round ends (duration Y) and which nodes got the update,
the wall clock advances by Y, and the next update starts immediately
(zero wait).  A delivered node's age drops at its own arrival instant;
between deliveries the age grows at slope one.  Per-node average age is
the accumulated sawtooth area divided by the observed span.

The engine advances whole blocks of rounds with vectorized numpy and is
deterministic given ``(seed, replication index)`` for a given package
version.  Per block it samples the delays, resolves every round at once
and credits the rounds, with no loop over nodes.
Earliest-k and per-update pre-selected rounds share one resolve: a sorted
copy of each row, from which earliest-k reads its k-th smallest delay, and
pre-selected the delay of its group's slowest member, whose rank is drawn
without ever drawing the group (see :func:`run_rounds`).  A block is
credited on one of two paths, chosen by the share of its (round, node)
pairs that miss the update.  With few misses, as when the policy waits for
all n nodes or for a pre-selected group of most of them, each node's age
integral over the block is one matrix-vector product of the round
durations with the delays, plus one correction per miss.  Otherwise the
block is cut into slices, and each slice's deliveries are picked out of
its node-major copy into one flat array and credited as trapezoids between
consecutive deliveries of a node.  Both paths leave the same state, up to
the rounding of the area (see :func:`_credit_chunk`).  Warmup rounds are
sampled and resolved like the others, so the random streams advance alike,
but their sawtooth is not accounted: each node keeps only its last
delivery, the state that the measured rounds start from.  Each run keeps
one workspace of flat buffers that every block reuses: the delays are
drawn into it, and resolution and accumulation work in it in place, so
that a block costs no fresh pages.

A run is one loop over a chunk list (the warmup, then each batch of
measured rounds, each cut at ``chunk_rounds``) that adds each credited
area and span and each chunk's duration into per-batch vectors.  The list
fixes the random stream: a hyper-exponential call draws all its component
uniforms before its values, and the rounding of the round start times
``t_edges`` depends on where each chunk starts; so changing the list is a
named stream change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .delay_models import DelayModel, RandomStream, _check_seed

__all__ = [
    "WaitForAll",
    "EarliestK",
    "PreSelectedK",
    "StoppingPolicy",
    "SimConfig",
    "SimResult",
    "SimulationError",
    "run_rounds",
    "replicate",
]

_REGROUP_MODES = ("per_update", "fixed")
_CHUNK_ELEMENTS = 4_000_000
# A chunk credited by its deliveries is cut into slices of this many (round,
# node) elements, so that the arrays of _credit_deliveries' passes stay in
# the CPU cache; a chunk credited round by round is never cut.  On a 2-core
# x86-64 VM (AVX-512, numpy 2.4), best of four 51 000-round runs per
# policy: at n = 100, 2**15 was fastest for every policy, 2**18-element
# slices ran 1.04-1.2x slower and 2**13 1.1-1.2x; at n = 200, 2**16-2**17
# were up to 4% faster for earliest-k and 2**15 fastest for the others.
# (The 1.6-2x once seen for wait-for-all at 2**18 came from the page faults
# of fresh allocations in every slice.)
_SLICE_ELEMENTS = 1 << 15
# A chunk in which at most this share of the (round, node) pairs miss the
# update is credited round by round, any other by its deliveries.  Same VM,
# best of nine alternating passes over 6 000 rounds per case: at 0.35% misses
# (pre-selected 73 of 100) the round-by-round path took 2.8 ns per pair and
# the deliveries 6.7; the two cost the same at about 6% misses for n = 100,
# 5% for n = 20 and n = 200, and 9% for n = 1000.
_DENSE_MISS_SHARE = 1 / 16
_INF_BITS = np.float64(np.inf).view(np.uint64)
_MAX_BATCHES = 32


class SimulationError(RuntimeError):
    """A simulation could not produce well-defined statistics."""


@dataclass(frozen=True)
class WaitForAll:
    """Stop only when every node has acknowledged the update."""


@dataclass(frozen=True)
class EarliestK:
    """Stop at the k-th acknowledgement, whichever nodes answer first."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")


@dataclass(frozen=True)
class PreSelectedK:
    """Wait on a designated group of k nodes.

    Non-group nodes still receive the update whenever their delay beats
    the group's slowest member.  ``regroup`` controls whether the group is
    redrawn for every update (``per_update``, the analyzed mode) or drawn
    once and kept (``fixed``).  A per-update group is never drawn node by
    node: only the rank of its slowest member matters, and that rank has a
    law of its own (see :func:`run_rounds`).
    """

    k: int
    regroup: str = "per_update"

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.regroup not in _REGROUP_MODES:
            raise ValueError(
                f"regroup must be one of {_REGROUP_MODES}, got {self.regroup!r}"
            )


StoppingPolicy = Union[WaitForAll, EarliestK, PreSelectedK]


def _policy_threshold(policy: StoppingPolicy, n: int) -> int:
    """Acknowledgement count the policy waits for; validates k <= n."""
    if isinstance(policy, WaitForAll):
        return n
    if policy.k > n:
        raise ValueError(f"policy waits for k={policy.k} acks but only n={n} nodes exist")
    return policy.k


class _Workspace:
    """Flat buffers that the engine reuses from chunk to chunk.

    ``array(name, shape, dtype)`` returns a view of the buffer ``name``,
    allocated on first use and replaced by a larger one when a shape needs
    more; its contents are whatever the last user left.  Reuse saves the
    page faults of fresh allocations: every large array of the engine lives
    here, and what a view holds is safe only until its name is asked for
    again.
    """

    def __init__(self):
        self._buffers: dict = {}

    def array(self, name: str, shape, dtype=float) -> np.ndarray:
        size = math.prod(shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[name] = np.empty(size, dtype)
        return buffer[:size].reshape(shape)


def _slowest_rank_cdf(n: int, k: int) -> np.ndarray:
    """P(R <= r) for r = k..n, R the rank of a uniform k-group's slowest member.

    P(R <= r) = C(r, k)/C(n, k), built downward from P(R <= n) = 1 by
    P(R <= r-1) = P(R <= r)*(r-k)/r: no binomials, no overflow at any n.
    """
    r = np.arange(n, k, -1)
    cdf = np.empty(n - k + 1)
    cdf[-1] = 1.0
    cdf[-2::-1] = np.cumprod((r - k) / r)
    return cdf


def run_rounds(
    policy: StoppingPolicy,
    delays: np.ndarray,
    group_stream: Optional[RandomStream] = None,
    group: Optional[np.ndarray] = None,
    workspace: Optional[_Workspace] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve many update rounds at once.

    ``delays`` has shape (rounds, n).  Returns ``(y, delivered)`` where
    ``y[j]`` is round j's duration and ``delivered[j]`` is the boolean
    delivery mask.  Ties are broken toward the lowest node index.  For a
    pre-selected policy, ``group`` (k node indices) may fix the group of
    every round; otherwise per-update groups come from ``group_stream``,
    one uniform per round, and are never materialized.  Ranking a round's
    delays (ties by node index), the slowest member of a uniform k-group
    drawn independently of the delays has rank R with
    P(R = r) = C(r-1, k-1)/C(n, k), r = k..n, whatever the delays are; so
    the R-th smallest delay as ``y`` gives ``(y, delivered)`` the law of an
    explicit group, ties included.  Without a ``workspace`` the caller owns
    the returned arrays; with one, they may be views of its buffers.
    """
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 2:
        raise ValueError(f"delays must be a (rounds, n) matrix, got shape {delays.shape}")
    # Read as unsigned integers, the bits of finite nonnegative doubles lie
    # below those of +inf, and the bits of NaN, negatives and -0.0 above; so
    # one integer max screens the matrix in a single pass.  The exact check
    # runs only when the screen fails, and lets -0.0 through.
    if delays.size and delays.view(np.uint64).max() >= _INF_BITS:
        if not (delays.min() >= 0 and delays.max() < np.inf):
            raise ValueError("delays must be finite and nonnegative")
    rounds, n = delays.shape
    k = _policy_threshold(policy, n)
    ws = workspace if workspace is not None else _Workspace()
    delivered = ws.array("delivered", (rounds, n), bool)

    if k == n:
        # Wait-for-all, or any policy with k == n.
        y = delays.max(axis=1)
        delivered.fill(True)
        return y, delivered

    if isinstance(policy, PreSelectedK) and group is not None:
        # Indexing a range checks the bounds and wraps negative indices.
        group = np.arange(n)[np.asarray(group)]
        if group.shape != (k,):
            raise ValueError(f"group must have shape ({k},), got {group.shape}")
        # The indices are in range, so take needs no bounds check (and no
        # buffering).
        members = np.take(delays, group, axis=1, out=ws.array("members", (rounds, k)),
                          mode="clip")
        y = members.max(axis=1)
    else:
        if isinstance(policy, PreSelectedK) and group_stream is None:
            raise ValueError("pre-selected policy needs a group_stream or a fixed group")
        # A full in-place sort of the rows is faster here than a partition
        # for earliest-k's k-th smallest delay, and gives the same value.
        ordered = ws.array("sorted", (rounds, n))
        np.copyto(ordered, delays)
        ordered.sort(axis=1)
        if isinstance(policy, EarliestK):
            y = ordered[:, k - 1]
        else:
            # Column R - 1 of each sorted row, as a flat index.
            pick = np.searchsorted(
                _slowest_rank_cdf(n, k), group_stream.generator.random(rounds), side="right"
            )
            pick += np.arange(k - 1, rounds * n, n)
            y = np.take(ordered, pick)
    np.less_equal(delays, y[:, None], out=delivered)
    if isinstance(policy, EarliestK):
        # A row holds more than k delays <= y only when several tie at y, that
        # is when its sorted copy holds y again at index k: there every delay
        # below y is delivered and the remaining places go to the tied nodes,
        # lowest index first.
        tied = np.flatnonzero(ordered[:, k] == y)
        if tied.size:
            rows, y_tied = delays[tied], y[tied, None]
            at_y = rows == y_tied
            room = k - np.count_nonzero(rows < y_tied, axis=1)
            delivered[tied] &= ~at_y | (np.cumsum(at_y, axis=1) <= room[:, None])
    return y, delivered


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run."""

    n: int
    policy: StoppingPolicy
    model: DelayModel
    updates: int
    seed: int
    warmup: int = 1000
    replications: int = 1

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.updates < 100:
            raise ValueError(
                f"at least 100 measured updates are needed to report statistics, "
                f"got {self.updates}"
            )
        if self.warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {self.warmup}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        _check_seed(self.seed)
        _policy_threshold(self.policy, self.n)


@dataclass(frozen=True)
class SimResult:
    """Outcome of a simulation: per-node averages plus run bookkeeping.

    ``std_error`` comes from the batch means of a single run (per-batch sums
    of area over span) and from replication grand means when aggregated.
    """

    per_node_avg_age: np.ndarray
    grand_mean: float
    std_error: float
    virtual_time: float
    rounds: int
    delivery_fraction: np.ndarray


def _credit_chunk(t_edges, y, delays, delivered, last_wall, last_gen, area, span, count, ws):
    """Credit a chunk of rounds to each node's sawtooth area, span and count.

    Round j starts (and generates its update) at ``t_edges[j]`` and lasts
    ``y[j]``; the chunk ends at ``t_edges[-1]``.  Node i receives round j's
    update at ``t_edges[j] + delays[j, i]`` when ``delivered[j, i]``; every
    round delivers to at least one node.  The area and span a node gains are
    those between its last delivery before the chunk (``last_wall``, of the
    update generated at ``last_gen``) and its last delivery in it, which
    becomes the new ``last_wall``/``last_gen``; a node with no delivery in
    the chunk keeps its state.  Returns the area and the span added, summed
    over all nodes, per credited slice, in order.

    A chunk in which at most ``_DENSE_MISS_SHARE`` of its (round, node)
    pairs miss the update is credited round by round in one call
    (:func:`_credit_rounds`, with ``delivered`` None when nothing misses);
    any other chunk by its deliveries (:func:`_credit_deliveries`), in
    slices of ``_SLICE_ELEMENTS``.  On the same rounds the two paths leave
    the same state up to the rounding of the area: spans, counts and the
    last deliveries are the same floats on both.  One call in place of
    several moves the area, and the spans' sums of differences, by rounding
    alone.
    """
    misses = delivered.size - np.count_nonzero(delivered)
    if misses <= _DENSE_MISS_SHARE * delivered.size:
        return [_credit_rounds(t_edges, y, delays, delivered if misses else None, last_wall,
                               last_gen, area, span, count, ws)]
    step = max(1, _SLICE_ELEMENTS // delays.shape[1])
    t_prev = t_edges[:-1]
    return [_credit_deliveries(t_prev[i:i + step], delays[i:i + step], delivered[i:i + step],
                               last_wall, last_gen, area, span, count, ws)
            for i in range(0, len(y), step)]


def _credit_rounds(t_edges, y, delays, delivered, last_wall, last_gen, area, span, count, ws):
    """The dense path of :func:`_credit_chunk`: rounds with few misses.

    Over round j, node i's age starts at ``A[j, i]`` and grows at slope one
    for ``e[j, i] = min(delays[j, i], y[j])``, until the update arrives or
    the round ends; after an arrival it is the time since ``t_edges[j]``.
    So the round adds ``A[j, i]*e[j, i] + y[j]**2/2`` to the integral of the
    node's age over the rounds, and ``e`` does not depend on how ties were
    broken.  ``A[0]`` is ``t_edges[0] - last_gen``; ``A[j]`` is ``y[j-1]``
    after a delivery in round j-1 and ``y[j-1] + A[j-1]`` after a miss.
    With no miss (``delivered`` None), ``e`` is ``delays`` and the integral
    is ``A[0]*delays[0]``, plus one matrix-vector product
    ``sum_j y[j-1]*delays[j]``, plus ``sum_j y[j]**2/2``.  Each miss (i, m)
    then corrects two terms: round m grows for ``y[m]`` instead of
    ``delays[m, i]``, and round m+1 starts ``A[m, i]`` older.  Head and tail
    terms turn the integral over ``[t_edges[0], t_edges[-1]]`` into the
    area between a node's last delivery before the rounds and its last in
    them.  The product is einsum's own loop, not BLAS, whose threads could
    make the bits depend on the thread count.
    """
    rounds, n = delays.shape
    t_start, t_end = t_edges[0], t_edges[-1]
    first_age = t_start - last_gen
    integral = np.einsum("j,ji->i", y[:-1], delays[1:])
    integral += first_age * delays[0]
    integral += 0.5 * np.einsum("j,j->", y, y)
    if delivered is None:
        count += rounds
        hit = slice(None)
        gen, delay = t_edges[-2], delays[-1]
    else:
        miss = np.flatnonzero(np.logical_not(delivered, out=ws.array("miss", (rounds, n), bool)))
        j, i = np.divmod(miss, n)
        # The misses node by node, each node's in round order.
        order = np.argsort(i * rounds + j)
        miss, j, i = miss[order], j[order], i[order]
        count += rounds - np.bincount(i, minlength=n)
        # The first round of the run of consecutive misses that holds each miss.
        starts = np.ones(miss.size, bool)
        np.not_equal(miss[1:], miss[:-1] + n, out=starts[1:])
        run = j[np.maximum.accumulate(np.where(starts, np.arange(miss.size), 0))]
        # A[m, i] is the time since the generation of the update the node
        # still holds; a miss in the last round carries it on through
        # last_gen, so its round m+1 term is 0.
        opening_age = first_age[i]
        elapsed = np.concatenate(([0.0], np.cumsum(y)))
        age = elapsed[j] - np.where(run > 0, elapsed[run - 1], -opening_age)
        assumed = np.where(j > 0, y[j - 1], opening_age)
        grow = np.minimum(delays.take(miss + n, mode="clip"), np.append(y, 0.0)[j + 1])
        term = assumed * (y[j] - delays.take(miss)) + age * grow
        integral += np.bincount(i, term, minlength=n)
        # The row of each node's last delivery in the rounds, -1 for none.
        row = np.full(n, rounds - 1)
        at_end = j == rounds - 1
        row[i[at_end]] = run[at_end] - 1
        hit = np.flatnonzero(row >= 0)
        gen, delay = t_edges[row[hit]], delays[row[hit], hit]
    wall = gen + delay
    head = t_start - last_wall[hit]
    tail = t_end - wall
    added_area = (integral[hit] + head * (last_wall[hit] - last_gen[hit] + 0.5 * head)
                  - tail * (delay + 0.5 * tail))
    added_span = wall - last_wall[hit]
    area[hit] += added_area
    span[hit] += added_span
    last_wall[hit] = wall
    last_gen[hit] = gen
    return float(added_area.sum()), float(added_span.sum())


def _credit_deliveries(t_prev, delays, delivered, last_wall, last_gen, area, span, count, ws):
    """The sparse path of :func:`_credit_chunk`: a slice with many misses.

    A delivery after a gap ``g`` since the node's previous one, whose age
    right after that previous delivery was ``a0``, adds the trapezoid
    ``a0*g + g**2/2`` to the node's area and ``g`` to its span.  All
    deliveries of the slice are picked out of its node-major copy into one
    flat array, node by node and in round order within a node, so that each
    delivery's predecessor is the previous element; only the first delivery
    of each node takes its predecessor from ``last_wall``/``last_gen``.  The
    slice-sized arrays are buffers of ``ws``; only the index of the
    deliveries is allocated anew (``np.flatnonzero`` takes no ``out``).
    """
    rounds, n = delays.shape
    node_major = ws.array("node_major", (n, rounds))
    np.copyto(node_major, delays.T)
    mask = ws.array("node_mask", (n, rounds), bool)
    np.copyto(mask, delivered.T)
    delivery = np.flatnonzero(mask)
    # Where each node's deliveries start in the delivery index.
    bounds = np.searchsorted(delivery, np.arange(0, n * rounds + 1, rounds))
    per_node = np.diff(bounds)
    hit = np.flatnonzero(per_node)
    first, last = bounds[hit], bounds[hit + 1] - 1
    delay = np.take(node_major, delivery, out=ws.array("delay", delivery.shape), mode="clip")
    node_major[...] = t_prev
    wall = np.take(node_major, delivery, out=ws.array("wall", delivery.shape), mode="clip")
    gen = wall[last]
    np.add(wall, delay, out=wall)
    total = wall.size
    # g is the gap since each delivery's predecessor; the age right after
    # the predecessor is the predecessor's own delay.
    g = ws.array("gap", (total,))
    np.subtract(wall[1:], wall[:-1], out=g[1:])
    g[first] = wall[first] - last_wall[hit]
    term = ws.array("term", (total,))
    term[1:] = delay[:-1]
    term[first] = last_wall[hit] - last_gen[hit]
    # a0*g + 0.5*g*g, formed in place; delay is no longer needed.
    np.multiply(term, g, out=term)
    np.multiply(0.5, g, out=delay)
    np.multiply(delay, g, out=delay)
    np.add(term, delay, out=term)
    added_area = np.add.reduceat(term, first)
    added_span = wall[last] - last_wall[hit]
    area[hit] += added_area
    span[hit] += added_span
    count += per_node
    last_wall[hit] = wall[last]
    last_gen[hit] = gen
    return float(added_area.sum()), float(added_span.sum())


def _keep_last_deliveries(
    t_prev: np.ndarray,
    delays: np.ndarray,
    delivered: np.ndarray,
    last_wall: np.ndarray,
    last_gen: np.ndarray,
) -> None:
    """Move each node's state to its last delivery in a block of warmup rounds.

    The state is what :func:`_credit_chunk` leaves, formed by the same
    float operations, without its area, span and count.
    """
    rounds, n = delays.shape
    row = rounds - 1 - np.argmax(delivered[::-1], axis=0)
    nodes = np.flatnonzero(delivered[row, np.arange(n)])
    row = row[nodes]
    last_gen[nodes] = t_prev[row]
    last_wall[nodes] = t_prev[row] + delays[row, nodes]


def _simulate_single(config: SimConfig, replication: int) -> SimResult:
    n = config.n
    policy = config.policy
    model = config.model
    delay_stream = RandomStream(config.seed, 2 * replication)
    group_stream = RandomStream(config.seed, 2 * replication + 1)

    fixed_group = None
    if isinstance(policy, PreSelectedK) and policy.regroup == "fixed" and policy.k < n:
        fixed_group = group_stream.generator.permuted(np.arange(n))[: policy.k]

    last_wall, last_gen, area, span = np.zeros((4, n))
    count = np.zeros(n, dtype=np.int64)
    t = 0.0
    ws = _Workspace()
    chunk_rounds = max(1, _CHUNK_ELEMENTS // n)

    batches = max(1, min(_MAX_BATCHES, config.updates // 50))
    base, extra = divmod(config.updates, batches)
    # (batch, rounds) of every chunk: the warmup as batch -1, then each batch,
    # each cut into pieces of at most chunk_rounds.
    lengths = [config.warmup] + [base + (b < extra) for b in range(batches)]
    chunks = [(b, min(chunk_rounds, rounds - done))
              for b, rounds in enumerate(lengths, -1)
              for done in range(0, rounds, chunk_rounds)]
    batch_area, batch_span, batch_time = np.zeros((3, batches))

    for b, r in chunks:
        delays = model.sample(delay_stream, out=ws.array("delays", (r, n)))
        y, delivered = run_rounds(
            policy, delays, group_stream=group_stream, group=fixed_group, workspace=ws
        )
        cs = np.cumsum(y)
        # Start of each round, then the end of the chunk.
        t_edges = t + np.concatenate(([0.0], cs))
        if b < 0:
            _keep_last_deliveries(t_edges[:-1], delays, delivered, last_wall, last_gen)
        else:
            for added_area, added_span in _credit_chunk(
                t_edges, y, delays, delivered, last_wall, last_gen, area, span, count, ws
            ):
                batch_area[b] += added_area
                batch_span[b] += added_span
            batch_time[b] += float(cs[-1])
        t += float(cs[-1])

    starved = np.flatnonzero((count == 0) | (span <= 0.0))
    if starved.size:
        raise SimulationError(
            f"nodes {starved.tolist()} received no update after warmup; "
            f"average age is undefined (try more rounds)"
        )

    per_node = area / span
    batch_means = batch_area[batch_span > 0.0] / batch_span[batch_span > 0.0]
    std_error = (float(np.std(batch_means, ddof=1) / math.sqrt(len(batch_means)))
                 if len(batch_means) >= 2 else float("nan"))
    return SimResult(
        per_node_avg_age=per_node,
        grand_mean=float(per_node.mean()),
        std_error=std_error,
        # accumulate adds in order, as the batches were run; a sum would not
        virtual_time=float(np.add.accumulate(batch_time)[-1]),
        rounds=config.updates,
        delivery_fraction=count / config.updates,
    )


def replicate(config: SimConfig) -> SimResult:
    """Aggregate ``config.replications`` independently seeded simulations.

    Replication r draws from its own stream pair, so results merge
    deterministically by replication index regardless of execution order.
    """
    results = [_simulate_single(config, rep) for rep in range(config.replications)]
    if len(results) == 1:
        return results[0]
    per_node = np.mean([r.per_node_avg_age for r in results], axis=0)
    grand_means = [r.grand_mean for r in results]
    std_error = float(np.std(grand_means, ddof=1) / math.sqrt(len(grand_means)))
    return SimResult(
        per_node_avg_age=per_node,
        grand_mean=float(per_node.mean()),
        std_error=std_error,
        virtual_time=float(math.fsum(r.virtual_time for r in results)),
        rounds=sum(r.rounds for r in results),
        delivery_fraction=np.mean([r.delivery_fraction for r in results], axis=0),
    )
