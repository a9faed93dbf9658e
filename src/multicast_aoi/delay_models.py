"""Link-delay distributions, seeded sampling, and shifted-exponential order statistics.

The multicast model assumes every source-to-node link draws an i.i.d.
delay per update.  Two delay families are supported:

* :class:`ShiftedExponential` -- exponential of rate ``lam`` translated
  right by a constant ``shift`` (``shift = 0`` is the plain exponential).
  Order-statistic moments have closed forms in harmonic numbers.
* :class:`HyperExponential` -- a finite mixture of exponentials.  No
  closed-form order statistics are provided.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import NamedTuple, Union

import numpy as np

__all__ = [
    "RandomStream",
    "ShiftedExponential",
    "HyperExponential",
    "DelayModel",
    "harmonic",
    "harmonic2",
    "OrderStatMoments",
    "order_stat_moments",
    "partial_order_mean_sum",
]

_MAX_SEED = 2**64
# HyperExponential.sample turns component uniforms into rates in blocks of
# this many draws, so that its index arrays stay small.
_SAMPLE_BLOCK = 1 << 13


@dataclass(frozen=True, eq=True)
class RandomStream:
    """A reproducible, independently seeded random source.

    The same ``(seed, stream_index)`` pair always yields the identical
    sample sequence; distinct stream indices yield statistically
    independent sequences.  Each instance owns its own generator state,
    so separate instances may be used concurrently.
    """

    seed: int
    stream_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "seed", _check_seed(self.seed))
        index = _check_count("stream_index", self.stream_index, 0)
        object.__setattr__(self, "stream_index", index)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(index,))
        object.__setattr__(self, "_generator", np.random.Generator(np.random.PCG64(ss)))

    @property
    def generator(self) -> np.random.Generator:
        return self._generator  # type: ignore[attr-defined]

    def skip(self, draws: int) -> None:
        """Move the stream on as if ``draws`` uniforms had been drawn.

        A uniform double takes one 64-bit output of PCG64, whose jump costs
        O(log draws) steps whatever the count.
        """
        self.generator.bit_generator.advance(_check_count("draws", draws, 0))


def _check_integer(name: str, value) -> int:
    """``value`` as an int; Python and numpy integers pass, floats do not."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_count(name: str, value, low: int = 1) -> int:
    """``value`` as an int of at least ``low``: the one rule for every count."""
    value = _check_integer(name, value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return value


def _check_seed(seed) -> int:
    seed = _check_integer("seed", seed)
    if not 0 <= seed < _MAX_SEED:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _check_rate_shift(rate: float, shift: float) -> None:
    if not (math.isfinite(rate) and rate > 0):
        raise ValueError(f"rate must be finite and > 0, got {rate}")
    if not (math.isfinite(shift) and shift >= 0):
        raise ValueError(f"shift must be finite and >= 0, got {shift}")


@dataclass(frozen=True)
class ShiftedExponential:
    """Exponential(rate) delay translated right by ``shift`` >= 0.

    CDF: ``1 - exp(-rate * (x - shift))`` for ``x >= shift``.
    """

    rate: float
    shift: float = 0.0

    def __post_init__(self):
        _check_rate_shift(self.rate, self.shift)

    def mean(self) -> float:
        return self.shift + 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / (self.rate * self.rate)

    def sample(self, stream: RandomStream, size=None, out=None):
        """Draw an array of ``size`` delays.

        ``out``, a contiguous float64 array, receives the draws in place of
        a new array and is returned.  One of ``size`` and ``out`` is needed.
        """
        # Inverse CDF on u in [0, 1): shift - log1p(-u)/rate, always finite
        # and >= shift.
        u = stream.generator.random(size, out=out)
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.divide(u, self.rate, out=u)
        return np.subtract(self.shift, u, out=u)

    def skip(self, stream: RandomStream, count: int) -> None:
        """Move ``stream`` past ``count`` delays: one uniform each, in order."""
        stream.skip(_check_count("count", count, 0))

    def label(self) -> str:
        return f"shifted_exp(rate={self.rate:g},shift={self.shift:g})"


@dataclass(frozen=True)
class HyperExponential:
    """Mixture of exponentials: component i has rate ``rates[i]``, weight ``weights[i]``."""

    rates: tuple
    weights: tuple

    def __post_init__(self):
        rates = tuple(float(r) for r in self.rates)
        weights = tuple(float(w) for w in self.weights)
        object.__setattr__(self, "rates", rates)
        object.__setattr__(self, "weights", weights)
        if len(rates) != len(weights) or len(rates) < 1:
            raise ValueError("rates and weights must have equal length >= 1")
        if any(not (math.isfinite(r) and r > 0) for r in rates):
            raise ValueError(f"all rates must be finite and > 0, got {rates}")
        if any(not (math.isfinite(w) and w >= 0) for w in weights):
            raise ValueError(f"all weights must be finite and >= 0, got {weights}")
        if abs(math.fsum(weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1 within 1e-12, got {weights}")
        object.__setattr__(self, "_cum_weights", np.cumsum(weights))
        # Negated, so that one division turns log1p(-u) into a draw.
        object.__setattr__(self, "_negated_rates", -np.asarray(rates))

    def mean(self) -> float:
        return math.fsum(w / r for w, r in zip(self.weights, self.rates))

    def variance(self) -> float:
        second = math.fsum(2.0 * w / (r * r) for w, r in zip(self.weights, self.rates))
        m = self.mean()
        return second - m * m

    def _component(self, u):
        # The number of cumulative-weight edges at or below u, over all but
        # the last edge: the weights may sum to a little below 1.
        return sum(u >= edge for edge in self._cum_weights[:-1])  # type: ignore[attr-defined]

    def sample(self, stream: RandomStream, size=None, out=None):
        """Draw an array of ``size`` delays.

        ``out``, a contiguous float64 array, receives the draws in place of
        a new array and is returned.  One of ``size`` and ``out`` is needed.
        All component uniforms are drawn before all value uniforms.
        """
        gen = stream.generator
        negated_rates = self._negated_rates  # type: ignore[attr-defined]
        out = gen.random(size, out=out)
        # The component uniforms fill out first; block by block, each is
        # turned into a component index and its place takes the next value
        # uniform, so no array of the full size is allocated.
        flat = out.ravel(order="K")
        for start in range(0, flat.size, _SAMPLE_BLOCK):
            block = flat[start:start + _SAMPLE_BLOCK]
            comp = self._component(block)
            gen.random(out=block)
            np.negative(block, out=block)
            np.log1p(block, out=block)
            np.divide(block, negated_rates[comp], out=block)
        return out

    def skip(self, stream: RandomStream, count: int) -> None:
        """Move ``stream`` past ``count`` delays, two uniforms each.

        A call draws all its component uniforms before its value uniforms,
        so this matches the draws of :meth:`sample` only for whole calls:
        ``count`` must end where a call would end.
        """
        stream.skip(2 * _check_count("count", count, 0))

    def label(self) -> str:
        r = "|".join(f"{x:g}" for x in self.rates)
        w = "|".join(f"{x:g}" for x in self.weights)
        return f"hyperexp(rates={r},weights={w})"


DelayModel = Union[ShiftedExponential, HyperExponential]


# Tail sums over the k largest indices, n-k < j <= n, come from one kernel:
# T1 = sum 1/j, T2 = sum 1/j^2, and the excess k - (n-k) T1 = sum (j-(n-k))/j,
# which partial_order_mean_sum needs and which cancels badly when formed
# from T1.  Up to _DIRECT_TERMS terms are summed directly with math.fsum.
# Longer tails take the indices above _ASYMPTOTIC_FROM from the asymptotic
# (Euler-Maclaurin) expansions of digamma and trigamma, and the rest, fewer
# than _ASYMPTOTIC_FROM terms, directly.
_DIRECT_TERMS = 64
_ASYMPTOTIC_FROM = 32
# Bernoulli numbers B_2, B_4, ..., B_12.  With m >= 32 the first omitted
# term is below 1e-17 of the tail sum.
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730)


def _log1p_excess(x: float) -> float:
    """``x - log(1 + x)`` for x > 0, accurate also where the two nearly cancel."""
    if x > 1.0:
        return x - math.log1p(x)
    # log(1 + x) = 2 atanh(u) = 2 (u + u^3/3 + u^5/5 + ...) with u = x / (2 + x),
    # and x - 2u = x^2 / (2 + x); for x <= 1, u^2 <= 1/9.
    u = x / (2.0 + x)
    u2 = u * u
    series, power, j = 0.0, u * u2, 3
    while power > 1e-17 * series:
        series += power / j
        power *= u2
        j += 2
    return x * x / (2.0 + x) - 2.0 * series


def _asymptotic_tail(n: int, m: int) -> tuple[float, float, float]:
    """``(T1, T2, excess)`` over m < j <= n for m >= _ASYMPTOTIC_FROM.

    ``T1 = psi(n+1) - psi(m+1)`` and ``T2 = psi'(m+1) - psi'(n+1)``.  Every
    difference ``a^p - b^p`` (a = 1/m, b = 1/n) of the expansions is formed
    as ``d S_p`` with ``d = a - b = k/(mn)`` and ``S_p = sum_i a^i b^(p-1-i)``,
    so no two large terms are subtracted.
    """
    k = n - m
    a, b = 1.0 / m, 1.0 / n
    s, b_power = 1.0, b
    sums = [s]  # sums[p - 1] = S_p
    for _ in range(2 * len(_BERNOULLI)):
        s = a * s + b_power
        b_power *= b
        sums.append(s)
    # psi(x+1) ~ log x + 1/(2x) - sum_j B_2j / (2j x^2j)
    e1 = sums[0] / 2.0 - sum(
        b2j / (2 * j) * sums[2 * j - 1] for j, b2j in enumerate(_BERNOULLI, 1)
    )
    # psi'(x+1) ~ 1/x - 1/(2x^2) + sum_j B_2j / x^(2j+1)
    e2 = sums[0] - sums[1] / 2.0 + sum(
        b2j * sums[2 * j] for j, b2j in enumerate(_BERNOULLI, 1)
    )
    x = k / m
    d = x / n
    return (
        math.log1p(x) - d * e1,
        d * e2,
        m * _log1p_excess(x) + (k / n) * e1,
    )


def _tail_sums(n: int, k: int) -> tuple[float, float, float]:
    """``(T1, T2, excess)`` over n-k < j <= n, each to a few ulps; 0 <= k <= n."""
    m = n - k
    if k <= _DIRECT_TERMS:
        terms = range(m + 1, n + 1)
        return (
            math.fsum(1.0 / j for j in terms),
            math.fsum(1.0 / (j * j) for j in terms),
            math.fsum((j - m) / j for j in terms),
        )
    low = max(m, _ASYMPTOTIC_FROM)
    t1, t2, excess = _asymptotic_tail(n, low)
    if m < low:
        terms = range(m + 1, low + 1)
        t1 += math.fsum(1.0 / j for j in terms)
        t2 += math.fsum(1.0 / (j * j) for j in terms)
        # m < 32 < k here, so m T1 stays well below k.
        excess = k - m * t1
    return t1, t2, excess


def harmonic(n: int) -> float:
    """Partial sum ``H_n = sum_{j=1..n} 1/j`` to a few ulps; ``H_0 = 0``."""
    n = _check_count("n", n, 0)
    return _tail_sums(n, n)[0]


def harmonic2(n: int) -> float:
    """Second-order partial sum ``sum_{j=1..n} 1/j^2`` (limit pi^2/6); zero at n=0."""
    n = _check_count("n", n, 0)
    return _tail_sums(n, n)[1]


class OrderStatMoments(NamedTuple):
    """Closed-form moments of the k-th smallest of n i.i.d. shifted exponentials."""

    mean: float
    variance: float
    second_moment: float
    k: int
    n: int


def _check_kn(k: int, n: int) -> tuple[int, int]:
    """``(k, n)`` as ints with 1 <= k <= n."""
    n = _check_count("n", n)
    k = _check_integer("k", k)
    if not 1 <= k <= n:
        raise ValueError(f"k must satisfy 1 <= k <= n, got k={k}, n={n}")
    return k, n


def order_stat_moments(rate: float, shift: float, k: int, n: int) -> OrderStatMoments:
    """Mean, variance, and second moment of the k-th order statistic.

    For i.i.d. ShiftedExponential(rate, shift) delays, with the tail sums
    ``T1 = sum_{j=n-k+1..n} 1/j`` and ``T2 = sum_{j=n-k+1..n} 1/j^2``:

    * mean     = shift + T1 / rate
    * variance = T2 / rate^2
    * second moment = mean^2 + variance
    """
    _check_rate_shift(rate, shift)
    k, n = _check_kn(k, n)
    t1, t2, _ = _tail_sums(n, k)
    mean = shift + t1 / rate
    variance = t2 / rate / rate
    return OrderStatMoments(
        mean=mean, variance=variance, second_moment=mean * mean + variance, k=k, n=n
    )


def partial_order_mean_sum(rate: float, shift: float, k: int, n: int) -> float:
    """Sum of the k smallest order-statistic means, in closed form.

    ``sum_{i=1..k} E[X_{i:n}] = k shift + (k - (n-k) T1) / rate`` with the
    tail sum ``T1 = H_n - H_{n-k}``, a consequence of the series identity
    ``sum_{i=1..k} H_i = (k+1)(H_{k+1} - 1)``.  The difference
    ``k - (n-k) T1 = sum_{j=n-k+1..n} (j - n + k)/j`` is taken without
    cancellation.
    """
    _check_rate_shift(rate, shift)
    k, n = _check_kn(k, n)
    return k * shift + _tail_sums(n, k)[2] / rate
