"""Latency quantiles: one exact percentile rule and one mergeable histogram.

:func:`percentile` is the exact rule for sample lists kept whole
(``repro spans``, test oracles): linear interpolation between closest
ranks (numpy ``linear`` / R type 7), at position ``q * (n - 1)``.

:class:`Histogram` is every other latency store (daemon, slam workers,
metrics registry).  As in DDSketch (Masson, Rim and Lee, VLDB 2019,
https://arxiv.org/abs/1908.10693), a value ``x > 0`` counts in bucket
``i = ceil(log_gamma(x))``, which holds ``(gamma**(i-1), gamma**i]``
for ``gamma = (1 + ALPHA) / (1 - ALPHA)``; a quantile reports the
bucket's midpoint ``2 * gamma**i / (gamma + 1)``, within :data:`ALPHA`
of every value in it.  Recording is O(1), memory one entry per
occupied bucket (about 2,200 at most for 64-bit integers), and merge
and subtraction are exact bucket for bucket.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["ALPHA", "Histogram", "percentile"]

#: Relative accuracy of every :class:`Histogram` quantile.
ALPHA = 0.01

_GAMMA = (1 + ALPHA) / (1 - ALPHA)
_LOG_GAMMA = math.log(_GAMMA)

#: Bucket index of exact zeros, below the index of every positive float.
_ZERO = -(1 << 20)

#: Buckets whose upper edges are the Prometheus ``le`` bounds: those
#: nearest 1, 2 and 5 times 1e3 ... 1e9, and 1e10 (1 us to 10 s in ns).
_LE_INDICES: Tuple[int, ...] = tuple(
    round(math.log(mantissa * 10.0**exponent) / _LOG_GAMMA)
    for exponent in range(3, 11)
    for mantissa in (1, 2, 5)
    if mantissa * 10**exponent <= 10**10
)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence.

    ``q`` in [0, 1], else :class:`ValueError`.  Returns 0.0 for an
    empty sequence, so an empty run reads as zeros.  The sequence must
    already be sorted (re-sorting here would hide an O(n log n)).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"percentile q must be in [0, 1], got {q}")
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return float(sorted_values[0])
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return float(
        sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction
    )


def _edge(index: int) -> float:
    """The upper edge of bucket ``index``."""
    return 0.0 if index == _ZERO else _GAMMA**index


class Histogram:
    """A log-bucketed distribution of non-negative values.

    ``counts`` maps a bucket index to its sample count.  ``count``,
    ``total``, ``min`` and ``max`` are exact (min and max None while
    empty).  :meth:`time` observes wall time in integer nanoseconds.
    """

    __slots__ = ("name", "counts", "count", "total", "min", "max")

    def __init__(self, name: str = ""):
        self.name = name
        self.counts: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        """Record one sample; raises :class:`ValueError` if it is negative."""
        if value > 0:
            index = math.ceil(math.log(value) / _LOG_GAMMA)
        elif value == 0:
            index = _ZERO
        else:
            raise ValueError(
                f"histogram {self.name!r} holds non-negative values, got {value!r}"
            )
        counts = self.counts
        counts[index] = counts.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @contextmanager
    def time(self) -> Iterator[None]:
        """Observe the elapsed wall time of a block, in nanoseconds."""
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.observe(time.perf_counter_ns() - start)

    def merge(self, other: "Histogram") -> "Histogram":
        """Add ``other``'s samples to this histogram; returns self."""
        counts = self.counts
        for index, count in other.counts.items():
            counts[index] = counts.get(index, 0) + count
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        return self

    def __sub__(self, earlier: "Histogram") -> "Histogram":
        """The samples recorded since ``earlier``, a snapshot of this histogram.

        Buckets, count and sum subtract exactly; min and max narrow to
        the edges of the outermost occupied buckets (within ALPHA).
        """
        for index, count in earlier.counts.items():
            if self.counts.get(index, 0) < count:
                raise ValueError("can only subtract an earlier snapshot")
        diff = Histogram(self.name)
        for index, count in self.counts.items():
            left = count - earlier.counts.get(index, 0)
            if left:
                diff.counts[index] = left
        diff.count = self.count - earlier.count
        diff.total = self.total - earlier.total
        if diff.counts:
            low = min(diff.counts)
            diff.min = max(self.min, _edge(low - 1) if low != _ZERO else 0.0)
            diff.max = min(self.max, _edge(max(diff.counts)))
        return diff

    @property
    def mean(self) -> float:
        """Arithmetic mean of the observed samples (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def quantiles(self, qs: Sequence[float]) -> List[float]:
        """The values at ascending quantiles ``qs``, in one pass.

        The value at ``q`` is within :data:`ALPHA` of the order
        statistic of rank ``floor(q * (count - 1))``, clamped to
        [min, max].  An empty histogram reports zeros.
        """
        if not all(0.0 <= q <= 1.0 for q in qs):
            raise ValueError(f"quantiles must be in [0, 1], got {qs}")
        if not self.count:
            return [0.0] * len(qs)
        indices = iter(sorted(self.counts))
        index = next(indices)
        seen = self.counts[index]
        values = []
        for q in qs:
            rank = q * (self.count - 1)
            while seen <= rank:
                index = next(indices)
                seen += self.counts[index]
            middle = 0.0 if index == _ZERO else 2 * _GAMMA**index / (_GAMMA + 1)
            values.append(float(min(max(middle, self.min), self.max)))
        return values

    def cumulative(self) -> List[Tuple[int, int]]:
        """``(le, samples <= le)`` at 22 fixed bucket edges, 1 us to 10 s.

        Each ``le`` is a bucket's upper edge rounded down to an integer,
        so for integer samples (nanoseconds) every count is exact.
        """
        return [
            (math.floor(_edge(le)), sum(n for i, n in self.counts.items() if i <= le))
            for le in _LE_INDICES
        ]

    def as_dict(self) -> Dict[str, Any]:
        """The ``repro.obs/1`` record; ``buckets`` maps ``<=EDGE`` to counts."""
        return {
            "kind": "histogram",
            "name": self.name,
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "buckets": {
                f"<={_edge(index):.6g}": self.counts[index]
                for index in sorted(self.counts)
            },
        }
