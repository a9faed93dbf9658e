"""Monte Carlo engine for the multicast sawtooth age process.

One update round: the source samples n link delays, the stopping policy
decides when the round ends (duration Y) and which nodes got the update,
the wall clock advances by Y, and the next update starts immediately
(zero wait).  A delivered node's age drops at its own arrival instant;
between deliveries the age grows at slope one.  Per-node average age is
the accumulated sawtooth area divided by the observed span.

The engine advances whole blocks of rounds with vectorized numpy and is
deterministic given ``(seed, replication index)`` for a given package
version.  Per block it samples the delays, screens them once, at the
block's full width (finite and nonnegative), resolves every round at once
and credits the rounds, with no loop over nodes.
Earliest-k and per-update pre-selected rounds share one resolve: a sorted
copy of each row, from which earliest-k reads its k-th smallest delay, and
pre-selected the delay of its group's slowest member, whose rank is drawn
without ever drawing the group (see :func:`run_rounds`).  A kept group is
nodes 0..k-1: the links are i.i.d., so any k nodes would do.  A block is
credited on one of two paths, chosen by the share of its (round, node)
pairs that miss the update.  With few misses, as when the policy waits for
all n nodes or for a pre-selected group of most of them, each node's age
integral over the block is one matrix-vector product of the round
durations with the delays, plus one correction per miss.  Otherwise the
block is cut into slices, and each slice's deliveries are picked out of
its node-major copy into one flat array and credited as trapezoids between
consecutive deliveries of a node.  Both paths give the same increments, up
to the rounding of the area (see :meth:`_Run.credit`).

For a policy that delivers to each round's k earliest nodes (earliest-k,
or k == n), resolution hands on the round durations and the rounds tied at
them, not a mask: such a round misses exactly n - k deliveries, so the path
is chosen without one, and each path builds the mask in the layout it
reads, the deliveries path by one comparison of its node-major copy.  A
pre-selected group short of n hands on a round-major mask.

Each run keeps one workspace of flat buffers that every block reuses: the
delays are drawn into it, and resolution and accumulation work in it in
place, so that a block costs no fresh pages.  Blocks are small at small
n, so numpy's per-call costs weigh as much as the arithmetic: the hot path
calls ndarray methods and slices rather than numpy's Python wrappers.

The warmup's sawtooth is not accounted: all it hands the measured rounds
is each node's last warmup delivery, the generation and arrival times of
that update.  So the warmup is scanned from its end, in blocks that double
going back (see :func:`_warmup_states`), and the scan stops as soon as
every node has a delivery; a threshold policy usually needs one small
block.  Each block draws from fresh streams jumped to its first round, and
the measured rounds draw from streams jumped past the whole warmup: every
delay takes one uniform, and PCG64 moves on any number of draws in
O(log n) steps.  Times are taken from the end of the warmup, where the
measured rounds start at t = 0.

A run's state is one object (:class:`_Run`).  Each batch of measured
rounds is cut into chunks; both crediting paths only read the state and
hand back per-node increments, which one method applies.  Since each delay
takes one uniform, in element order, the draws are the same whatever the
layouts; only the rounding of round start times depends on the chunks.

Runs that agree on every input of their draws form a group (see
:func:`replicate`) that moves in lockstep, each run reading the first n
columns of blocks drawn once, as wide as the group's largest n: drawing is
the only stage that does not depend on the run.  A run alone is a group of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .delay_models import (
    DelayModel,
    RandomStream,
    _check_count,
    _check_integer,
    _check_kn,
    _check_model,
    _check_seed,
)

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
# The newest warmup block, the one that a threshold policy usually needs
# alone, has this many rounds; each older one twice as many as the next.
_FIRST_WARMUP_BLOCK = 32


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
        object.__setattr__(self, "k", _check_count("k", self.k))


@dataclass(frozen=True)
class PreSelectedK:
    """Wait on a designated group of k nodes.

    Non-group nodes still receive the update whenever their delay beats
    the group's slowest member.  ``regroup`` controls whether the group is
    redrawn for every update (``per_update``, the analyzed mode) or kept
    (``fixed``).  A kept group is nodes 0..k-1: with i.i.d. links any k
    nodes give the same law.  A per-update group is never drawn node by
    node: only the rank of its slowest member matters, and that rank has a
    law of its own (see :func:`run_rounds`).
    """

    k: int
    regroup: str = "per_update"

    def __post_init__(self):
        object.__setattr__(self, "k", _check_count("k", self.k))
        if self.regroup not in _REGROUP_MODES:
            raise ValueError(
                f"regroup must be one of {_REGROUP_MODES}, got {self.regroup!r}"
            )


# isinstance against this tuple is several times faster than against the Union.
_POLICIES = (WaitForAll, EarliestK, PreSelectedK)
StoppingPolicy = Union[_POLICIES]


def _policy_threshold(policy: StoppingPolicy, n: int) -> int:
    """Acknowledgement count the policy waits for; validates the policy and 1 <= k <= n."""
    if not isinstance(policy, _POLICIES):
        raise ValueError(
            f"policy must be a WaitForAll, EarliestK or PreSelectedK instance, got {policy!r}"
        )
    return _check_kn(n if isinstance(policy, WaitForAll) else policy.k, n)[0]


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


def _screen(delays: np.ndarray) -> None:
    """Raise unless every delay is finite and nonnegative.

    Read as unsigned integers, the bits of finite nonnegative doubles lie
    below those of +inf, and the bits of NaN, negatives and -0.0 above; so
    one integer max screens the matrix in a single pass.  The exact check
    runs only when the screen fails, and lets -0.0 through.
    """
    if delays.size and delays.view(np.uint64).max() >= _INF_BITS:
        if not (delays.min() >= 0 and delays.max() < np.inf):
            raise ValueError("delays must be finite and nonnegative")


class _FirstK:
    """The deliveries of rounds that each reach their k earliest nodes.

    ``y`` holds the rounds' durations and ``tied``, in increasing order,
    the rounds in which more than k delays are at most ``y``.  Sliced by
    rows like the mask it stands for; :meth:`mask` builds that mask.
    """

    __slots__ = ("y", "k", "tied")

    def __init__(self, y, k, tied):
        self.y, self.k, self.tied = y, k, tied

    def __getitem__(self, rows: slice) -> "_FirstK":
        tied = self.tied
        if tied.size:
            first, stop = tied.searchsorted((rows.start, rows.stop))
            tied = tied[first:stop] - rows.start
        # A node-major mask compares each node's row against y, twice as
        # fast when y is contiguous.
        return _FirstK(self.y[rows].copy(), self.k, tied)

    def mask(self, delays, out):
        """``out``, filled with the (rounds, n) delivery mask of ``delays``.

        Either may be the transpose of a node-major array: the comparison
        runs in memory order.  In a tied round every delay below y is
        delivered and the remaining places go to the tied nodes, lowest
        index first.
        """
        np.less_equal(delays, self.y[:, None], out=out)
        tied = self.tied
        if tied.size:
            rows, y_tied = delays[tied], self.y[tied, None]
            at_y = rows == y_tied
            room = self.k - np.count_nonzero(rows < y_tied, axis=1)
            out[tied] &= ~at_y | (at_y.cumsum(axis=1) <= room[:, None])
        return out


def run_rounds(
    policy: StoppingPolicy,
    delays: np.ndarray,
    rank_uniforms: Optional[np.ndarray] = None,
    workspace: Optional[_Workspace] = None,
    *,
    engine: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve many update rounds at once.

    ``delays`` has shape (rounds, n).  Returns ``(y, delivered)`` where
    ``y[j]`` is round j's duration and ``delivered[j]`` is the boolean
    delivery mask.  Ties are broken toward the lowest node index.  A
    pre-selected policy with ``regroup="fixed"`` keeps the group of nodes
    0..k-1 in every round and needs no uniforms; with ``per_update`` the
    groups come from ``rank_uniforms``, one uniform in [0, 1) per round, and
    are never materialized.  Ranking a round's delays (ties by node index),
    the slowest member of a uniform k-group drawn independently of the
    delays has rank R with
    P(R = r) = C(r-1, k-1)/C(n, k), r = k..n, whatever the delays are; so
    the R-th smallest delay as ``y`` gives ``(y, delivered)`` the law of an
    explicit group, ties included.  Without a ``workspace`` the caller owns
    the returned arrays; with one, they may be views of its buffers.

    ``engine=True`` is the engine's call: its delays were screened when
    their block was drawn (:func:`_draw`), and for earliest-k or k == n
    ``delivered`` is a :class:`_FirstK`, from which the crediting path
    builds the mask in the layout it reads.
    """
    delays = np.asarray(delays, dtype=float)
    if delays.ndim != 2:
        raise ValueError(f"delays must be a (rounds, n) matrix, got shape {delays.shape}")
    if not engine:
        _screen(delays)
    rounds, n = delays.shape
    k = _policy_threshold(policy, n)
    ws = workspace if workspace is not None else _Workspace()
    tied = None
    if k == n:
        # Wait-for-all, or any policy with k == n: no round has a tie to break.
        y, tied = delays.max(axis=1), np.empty(0, int)
    elif isinstance(policy, PreSelectedK) and policy.regroup == "fixed":
        y = delays[:, :k].max(axis=1)
    else:
        if isinstance(policy, PreSelectedK):
            rank_uniforms = _check_rank_uniforms(rank_uniforms, rounds)
        # A full in-place sort of the rows is faster here than a partition
        # for earliest-k's k-th smallest delay, and gives the same value.
        ordered = ws.array("sorted", (rounds, n))
        np.copyto(ordered, delays)
        ordered.sort(axis=1)
        if isinstance(policy, EarliestK):
            # y stays a strided column: _credit_rounds' einsum sums round
            # differently over a contiguous copy, which would move output bits.
            y = ordered[:, k - 1]
            # A row holds more than k delays <= y only when several tie at
            # y, that is when its sorted copy holds y again at index k.
            tied = (ordered[:, k] == y).nonzero()[0]
        else:
            # Column R - 1 of each sorted row, as a flat index.
            pick = np.searchsorted(_slowest_rank_cdf(n, k), rank_uniforms, side="right")
            pick += np.arange(k - 1, rounds * n, n)
            y = ordered.take(pick)
    if tied is None:
        # A pre-selected group short of n: every delay <= y is delivered.
        return y, np.less_equal(delays, y[:, None], out=ws.array("delivered", (rounds, n), bool))
    first_k = _FirstK(y, k, tied)
    return y, (first_k if engine else _round_major(first_k, delays, ws))


def _check_rank_uniforms(u, rounds: int) -> np.ndarray:
    if u is None:
        raise ValueError("per-update pre-selected policy needs rank_uniforms")
    u = np.asarray(u, dtype=float)
    if u.shape != (rounds,):
        raise ValueError(f"rank_uniforms must hold one uniform per round ({rounds}), "
                         f"got shape {u.shape}")
    if rounds and not (u.min() >= 0 and u.max() < 1):
        raise ValueError("rank_uniforms must lie in [0, 1)")
    return u


@dataclass(frozen=True)
class SimConfig:
    """Full description of one simulation run.

    ``warmup`` rounds precede the ``updates`` measured ones; they are not
    accounted, and only set the state (each node's last delivery) that the
    measured rounds start from.  A node with no warmup delivery starts as
    if an update generated at the warmup's start had reached it at once.
    The warmup is drawn from its end only as far as that state needs, so a
    long warmup usually costs no more than a short one.  Counts and the
    seed must be integers, and ``model`` a link model.
    """

    n: int
    policy: StoppingPolicy
    model: DelayModel
    updates: int
    seed: int
    warmup: int = 1000
    replications: int = 1

    def __post_init__(self):
        for name in ("n", "updates", "seed", "warmup", "replications"):
            object.__setattr__(self, name, _check_integer(name, getattr(self, name)))
        _policy_threshold(self.policy, self.n)
        _check_model(self.model)
        if self.updates < 100:
            raise ValueError(
                f"at least 100 measured updates are needed to report statistics, "
                f"got {self.updates}"
            )
        _check_count("warmup", self.warmup, 0)
        _check_count("replications", self.replications)
        _check_seed(self.seed)


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


class _Run:
    """A run's state: per node, the last delivery (``last_wall``, of the
    update generated at ``last_gen``) and the sawtooth ``area``, ``span`` and
    delivery ``count``; per batch, the area, span and time added; and ``t``,
    the end of the last chunk.  Times run from the end of the warmup."""

    def __init__(self, last_wall, last_gen, batches):
        self.last_wall, self.last_gen = last_wall, last_gen
        self.area, self.span = np.zeros((2, len(last_wall)))
        self.count = np.zeros(len(last_wall), dtype=np.int64)
        self.batch_area, self.batch_span, self.batch_time = np.zeros((3, batches))
        self.t = 0.0

    def credit(self, b, y, delays, delivered, ws):
        """Credit a chunk of rounds, of durations ``y``, to batch ``b``.

        ``delivered`` is a round-major mask or a :class:`_FirstK`, whose
        misses are counted without a mask.  A chunk in which at most
        ``_DENSE_MISS_SHARE`` of its (round, node) pairs miss the update is
        credited round by round in one call (:func:`_credit_rounds`, on the
        round-major mask, None when nothing misses); any other chunk by its
        deliveries (:func:`_credit_deliveries`, on a node-major mask), in
        slices of ``_SLICE_ELEMENTS``.  On the same rounds the two paths give
        the same increments up to the rounding of the area: spans, counts and
        the last deliveries are the same floats.  One call in place of several
        moves the area, and the spans' sums of differences, by rounding alone.
        """
        # Start of each round, then the end of the chunk.
        t_edges = ws.array("t_edges", (len(y) + 1,))
        t_edges[0] = 0.0
        y.cumsum(out=t_edges[1:])
        duration = float(t_edges[-1])
        t_edges += self.t
        rounds, n = delays.shape
        if isinstance(delivered, _FirstK):
            misses = rounds * (n - delivered.k)
        else:
            misses = delivered.size - np.count_nonzero(delivered)
        if misses <= _DENSE_MISS_SHARE * delays.size:
            self._add(b, *_credit_rounds(t_edges, y, delays,
                                         _round_major(delivered, delays, ws) if misses else None,
                                         self.last_wall, self.last_gen, ws))
        else:
            step = max(1, _SLICE_ELEMENTS // n)
            for i in range(0, rounds, step):
                rows = slice(i, min(i + step, rounds))
                self._add(b, *_credit_deliveries(t_edges[rows], delays[rows], delivered[rows],
                                                 self.last_wall, self.last_gen, ws))
        self.batch_time[b] += duration
        self.t += duration

    def _add(self, b, hit, added_area, wall, gen, count):
        """Apply one path's increments (see :func:`_credit_rounds`) in batch ``b``."""
        added_span = wall - self.last_wall[hit]
        self.area[hit] += added_area
        self.span[hit] += added_span
        self.count += count
        self.last_wall[hit] = wall
        self.last_gen[hit] = gen
        self.batch_area[b] += float(added_area.sum())
        self.batch_span[b] += float(added_span.sum())

    def result(self, updates: int) -> SimResult:
        starved = np.flatnonzero((self.count == 0) | (self.span <= 0.0))
        if starved.size:
            raise SimulationError(
                f"nodes {starved.tolist()} received no update after warmup; "
                f"average age is undefined (try more rounds)"
            )
        per_node = self.area / self.span
        credited = self.batch_span > 0.0
        batch_means = self.batch_area[credited] / self.batch_span[credited]
        std_error = (float(np.std(batch_means, ddof=1) / math.sqrt(len(batch_means)))
                     if len(batch_means) >= 2 else float("nan"))
        return SimResult(
            per_node_avg_age=per_node,
            grand_mean=float(per_node.mean()),
            std_error=std_error,
            # accumulate adds in order, as the batches were run; a sum would not
            virtual_time=float(np.add.accumulate(self.batch_time)[-1]),
            rounds=updates,
            delivery_fraction=self.count / updates,
        )


def _credit_rounds(t_edges, y, delays, delivered, last_wall, last_gen, ws):
    """The dense path of :meth:`_Run.credit`: rounds with few misses.

    Round j starts (and generates its update) at ``t_edges[j]`` and lasts
    ``y[j]``; node i receives it ``delays[j, i]`` later if ``delivered[j,
    i]``, and every round delivers to some node.  Returns ``(hit,
    added_area, wall, gen, count)``: the nodes delivered to, the area each
    gains from its last delivery before the rounds (``last_wall``, of the
    update generated at ``last_gen``) to its last in them (at ``wall``, of
    the update generated at ``gen``), and the deliveries per node.

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
        count = rounds
        hit = slice(None)
        gen, delay = t_edges[-2], delays[-1]
    else:
        missed = np.logical_not(delivered, out=ws.array("miss", (rounds, n), bool))
        miss = missed.reshape(-1).nonzero()[0]
        j, i = np.divmod(miss, n)
        # The misses node by node, each node's in round order.
        order = (i * rounds + j).argsort()
        miss, j, i = miss[order], j[order], i[order]
        count = rounds - np.bincount(i, minlength=n)
        # The first round of the run of consecutive misses that holds each miss.
        starts = np.ones(miss.size, bool)
        np.not_equal(miss[1:], miss[:-1] + n, out=starts[1:])
        run = j[np.maximum.accumulate(np.where(starts, np.arange(miss.size), 0))]
        # A[m, i] is the time since the generation of the update the node
        # still holds; a miss in the last round carries it on through
        # last_gen, so its round m+1 term is 0.
        opening_age = first_age[i]
        elapsed = np.concatenate(([0.0], y.cumsum()))
        age = elapsed[j] - np.where(run > 0, elapsed[run - 1], -opening_age)
        assumed = np.where(j > 0, y[j - 1], opening_age)
        # Indexed by (round, node): a flat take would copy a column view whole.
        grow = np.minimum(delays[np.minimum(j + 1, rounds - 1), i], np.append(y, 0.0)[j + 1])
        term = assumed * (y[j] - delays[j, i]) + age * grow
        integral += np.bincount(i, term, minlength=n)
        # The row of each node's last delivery in the rounds, -1 for none.
        row = np.full(n, rounds - 1)
        at_end = j == rounds - 1
        row[i[at_end]] = run[at_end] - 1
        hit = (row >= 0).nonzero()[0]
        gen, delay = t_edges[row[hit]], delays[row[hit], hit]
    wall = gen + delay
    head = t_start - last_wall[hit]
    tail = t_end - wall
    added_area = (integral[hit] + head * (last_wall[hit] - last_gen[hit] + 0.5 * head)
                  - tail * (delay + 0.5 * tail))
    return hit, added_area, wall, gen, count


def _credit_deliveries(t_prev, delays, delivered, last_wall, last_gen, ws):
    """The sparse path of :meth:`_Run.credit`: a slice with many misses.

    A delivery after a gap ``g`` since the node's previous one, whose age
    right after that previous delivery was ``a0``, adds the trapezoid
    ``a0*g + g**2/2`` to the node's area and ``g`` to its span.  All
    deliveries of the slice are picked out of its node-major copy into one
    flat array, node by node and in round order within a node, so that each
    delivery's predecessor is the previous element; only the first delivery
    of each node takes its predecessor from ``last_wall``/``last_gen``.  A
    :class:`_FirstK` builds the node-major mask from the node-major copy; a
    round-major mask is transposed.  The slice-sized arrays are buffers of
    ``ws``; only the index of the deliveries is allocated anew (``nonzero``
    takes no ``out``).  Returns what :func:`_credit_rounds` does, for rounds
    starting at ``t_prev``.
    """
    rounds, n = delays.shape
    node_major = ws.array("node_major", (n, rounds))
    node_major[...] = delays.T
    mask = ws.array("node_mask", (n, rounds), bool)
    if isinstance(delivered, _FirstK):
        delivered.mask(node_major.T, mask.T)
    else:
        mask[...] = delivered.T
    delivery = mask.reshape(-1).nonzero()[0]
    # Where each node's deliveries start in the delivery index.
    bounds = delivery.searchsorted(np.arange(0, n * rounds + 1, rounds))
    per_node = bounds[1:] - bounds[:-1]
    hit = per_node.nonzero()[0]
    first, last = bounds[hit], bounds[hit + 1] - 1
    delay, wall, g, term = ws.array("deliveries", (4, delivery.size))
    node_major.take(delivery, out=delay, mode="clip")
    node_major[...] = t_prev
    node_major.take(delivery, out=wall, mode="clip")
    gen = wall[last]
    np.add(wall, delay, out=wall)
    # g is the gap since each delivery's predecessor; the age right after
    # the predecessor is the predecessor's own delay.
    np.subtract(wall[1:], wall[:-1], out=g[1:])
    g[first] = wall[first] - last_wall[hit]
    term[1:] = delay[:-1]
    term[first] = last_wall[hit] - last_gen[hit]
    # a0*g + 0.5*g*g, formed in place; delay is no longer needed.
    np.multiply(term, g, out=term)
    np.multiply(0.5, g, out=delay)
    np.multiply(delay, g, out=delay)
    np.add(term, delay, out=term)
    return hit, np.add.reduceat(term, first), wall[last], gen, per_node


def _round_major(delivered, delays, ws):
    """The (rounds, n) mask that ``delivered``, a mask or a :class:`_FirstK`, stands for."""
    if isinstance(delivered, _FirstK):
        return delivered.mask(delays, ws.array("delivered", delays.shape, bool))
    return delivered


def _warmup_blocks(warmup: int, n: int):
    """``(first round, rounds)`` of each warmup block, newest first.

    The blocks end at the warmup's last round and double in size going
    back, from ``_FIRST_WARMUP_BLOCK`` rounds, each capped at a chunk of
    ``_CHUNK_ELEMENTS``; the oldest block holds what is left.
    """
    cap = max(1, _CHUNK_ELEMENTS // n)
    end, size = warmup, _FIRST_WARMUP_BLOCK
    while end > 0:
        rounds = min(size, cap, end)
        end -= rounds
        size *= 2
        yield end, rounds


def _streams(seed: int, replication: int, rounds: int, width: int):
    """The delay and group streams of a replication, moved past ``rounds`` rounds of ``width``."""
    delay_stream = RandomStream(seed, 2 * replication)
    group_stream = RandomStream(seed, 2 * replication + 1)
    delay_stream.skip(rounds * width)
    group_stream.skip(rounds)
    return delay_stream, group_stream


def _draw(model: DelayModel, streams, rounds: int, width: int, ws: _Workspace):
    """A (rounds, width) block of delays, screened, and its rounds' rank uniforms.

    Every group draws the uniforms, one per round from its group stream;
    :func:`run_rounds` reads them only for a per-update pre-selected policy.
    """
    delay_stream, group_stream = streams
    delays = model.sample(delay_stream, out=ws.array("delays", (rounds, width)))
    _screen(delays)
    return delays, group_stream.generator.random(rounds)


def _warmup_states(configs, replication: int, ws: _Workspace) -> list:
    """Each point's last warmup delivery per node, as a ``(last_wall, last_gen)`` array.

    Times are relative to the end of the warmup, where the measured rounds
    start.  Only that state survives the warmup, so it is built from the
    warmup's end: block by block, newest first (:func:`_warmup_blocks`),
    each drawn by :func:`_draw` as wide as the group, rank uniforms
    included, from fresh streams moved to its first round, and scanned by every point that still has a node without a
    delivery, until none has or round 0 has been scanned.  A node with no
    warmup delivery keeps the state of the warmup's start.
    """
    lead = configs[0]
    width = max(config.n for config in configs)
    states = [np.zeros((2, config.n)) for config in configs]
    pending = [np.ones(config.n, bool) for config in configs]
    ends = [0.0] * len(configs)  # the end of the next block each point scans
    for first, rounds in _warmup_blocks(lead.warmup, width):
        scanning = [i for i, nodes in enumerate(pending) if nodes.any()]
        if not scanning:
            break
        streams = _streams(lead.seed, replication, first, width)
        delays, ranks = _draw(lead.model, streams, rounds, width, ws)
        for i in scanning:
            n, (last_wall, last_gen) = configs[i].n, states[i]
            view = delays[:, :n]
            y, delivered = run_rounds(configs[i].policy, view, ranks, ws, engine=True)
            delivered = _round_major(delivered, view, ws)
            # From the start of each round to the end of the block.
            to_end = y[::-1].cumsum()[::-1]
            row = rounds - 1 - delivered[::-1].argmax(axis=0)
            nodes = (pending[i] & delivered[row, np.arange(n)]).nonzero()[0]
            row = row[nodes]
            last_gen[nodes] = ends[i] - to_end[row]
            last_wall[nodes] = last_gen[nodes] + view[row, nodes]
            pending[i][nodes] = False
            ends[i] -= to_end[0]
    for state, nodes, end in zip(states, pending, ends):
        state[:, nodes] = end
    return states


def _simulate_group(configs, replication: int) -> list:
    """One replication of every point of a group, in lockstep (see :func:`replicate`)."""
    lead = configs[0]
    width = max(config.n for config in configs)
    ws = _Workspace()
    batches = max(1, min(_MAX_BATCHES, lead.updates // 50))
    runs = [_Run(*state, batches) for state in _warmup_states(configs, replication, ws)]
    streams = _streams(lead.seed, replication, lead.warmup, width)
    chunk_rounds = max(1, _CHUNK_ELEMENTS // width)
    base, extra = divmod(lead.updates, batches)
    for b in range(batches):
        # The batch's rounds, cut into chunks of at most chunk_rounds.
        rounds = base + (b < extra)
        for done in range(0, rounds, chunk_rounds):
            size = min(chunk_rounds, rounds - done)
            delays, ranks = _draw(lead.model, streams, size, width, ws)
            for config, run in zip(configs, runs):
                view = delays[:, :config.n]
                y, delivered = run_rounds(config.policy, view, ranks, ws, engine=True)
                run.credit(b, y, view, delivered, ws)
    return [run.result(lead.updates) for run in runs]


# The inputs of a run's draws; configs that agree on them form a group.
_GROUP_FIELDS = ("model", "updates", "seed", "warmup", "replications")


def replicate(
    config: Union[SimConfig, Sequence[SimConfig]],
) -> Union[SimResult, list[SimResult]]:
    """Aggregate ``config.replications`` independently seeded simulations.

    Replication r draws from its own stream pair, so results merge
    deterministically by replication index regardless of execution order.

    ``config`` may also be a non-empty sequence of configs; the result is
    then a list, one result per config, in order.  Configs that agree on
    every input of their draws (``_GROUP_FIELDS``) form a group, which runs
    in lockstep: each block of rounds is drawn once, as wide as the group's
    largest n (W), each config resolves and credits the first n columns,
    and the per-update pre-selected configs read the same rank uniforms.
    Any other config runs apart.  So a config's result depends on the
    others only through W, and a config alone is the group of one (W = n).
    """
    configs = [config] if isinstance(config, SimConfig) else list(config)
    if not configs or not all(isinstance(c, SimConfig) for c in configs):
        raise ValueError("replicate needs a SimConfig or a non-empty sequence of SimConfigs")
    groups: dict = {}
    for index, c in enumerate(configs):
        groups.setdefault(tuple(getattr(c, name) for name in _GROUP_FIELDS), []).append(index)
    results: list = [None] * len(configs)
    for indices in groups.values():
        group = [configs[i] for i in indices]
        runs = [_simulate_group(group, rep) for rep in range(group[0].replications)]
        for i, point_runs in zip(indices, zip(*runs)):
            results[i] = _merge(point_runs)
    return results[0] if isinstance(config, SimConfig) else results


def _merge(results) -> SimResult:
    """One config's replications as one result."""
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
