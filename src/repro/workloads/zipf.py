"""Zipf-distributed sampling.

File system access popularity is famously heavy-tailed; the paper leans
on "the severe access skew that is typical of file system workloads"
(Section 4.5).  All popularity choices in the synthetic workloads —
which activity a session runs, which noise file a daemon touches —
flow through the sampler defined here, so skew is controlled by a
single exponent parameter per choice point.  The parameter checks every
generator shares live here too: a generator checks its knobs before it
draws, so a bad value fails at construction, not mid-trace.
"""

from __future__ import annotations

import bisect
import itertools
import math
import random
from typing import List, Sequence, TypeVar

from ..errors import WorkloadError

T = TypeVar("T")


def check_probability(label: str, value: float) -> float:
    """``value`` when it is a probability in [0, 1] (never NaN)."""
    if not 0.0 <= value <= 1.0:
        raise WorkloadError(f"{label} must be in [0, 1], got {value!r}")
    return value


def check_mean(label: str, mean: float) -> float:
    """``mean`` when it is a finite geometric mean of at least 1.

    An infinite mean would make every draw loop forever, and NaN would
    silently read as 1.
    """
    if not 1.0 <= mean < math.inf:
        raise WorkloadError(f"{label} must be a finite number >= 1, got {mean!r}")
    return mean


def check_exponent(label: str, exponent: float, n: int = 1) -> float:
    """``exponent`` when it is a finite Zipf exponent >= 0 that weighs ``n`` ranks.

    The lightest weight is ``1 / n ** exponent``; past about
    ``1024 / log2(n)`` the power overflows a float.
    """
    if not 0.0 <= exponent < math.inf:
        raise WorkloadError(f"{label} must be a finite number >= 0, got {exponent!r}")
    try:
        float(n) ** exponent
    except OverflowError:
        raise WorkloadError(
            f"{label} {exponent!r} is too large to weigh {n} ranks"
        ) from None
    return exponent


class ZipfSampler:
    """Samples ranks ``0..n-1`` with probability proportional to ``1/(rank+1)^s``.

    The cumulative distribution is precomputed once, so each draw is a
    uniform variate plus a binary search — O(log n).
    """

    def __init__(self, n: int, exponent: float = 1.0):
        if not isinstance(n, int) or n <= 0:
            raise WorkloadError(f"ZipfSampler needs an integer n > 0, got {n!r}")
        self.n = n
        self.exponent = check_exponent("Zipf exponent", exponent, n)
        weights = [1.0 / (rank + 1) ** exponent for rank in range(n)]
        self._cumulative: List[float] = list(itertools.accumulate(weights))
        self._total = self._cumulative[-1]

    def sample(self, rng: random.Random) -> int:
        """Draw one rank using the supplied RNG."""
        point = rng.random() * self._total
        return bisect.bisect_left(self._cumulative, point)

    def probability(self, rank: int) -> float:
        """The probability mass assigned to ``rank``."""
        if not 0 <= rank < self.n:
            raise WorkloadError(f"rank {rank} out of range [0, {self.n})")
        weight = 1.0 / (rank + 1) ** self.exponent
        return weight / self._total


def zipf_choice(items: Sequence[T], rng: random.Random, exponent: float = 1.0) -> T:
    """Pick one item with Zipf-decaying probability by position.

    Convenience for small sequences where building a persistent sampler
    is not worth it; the first item is the most likely.
    """
    if not items:
        raise WorkloadError("zipf_choice over an empty sequence")
    sampler = ZipfSampler(len(items), exponent)
    return items[sampler.sample(rng)]


def geometric(rng: random.Random, mean: float) -> int:
    """A geometric draw with the given mean, minimum 1.

    Used for burst lengths (how long a session stays on one activity
    before the scheduler considers switching).  A mean of 1 draws no
    variate.  The interleaver and repeat expansion inline this loop, so
    their draws match a call variate for variate.
    """
    check_mean("geometric mean", mean)
    if mean == 1.0:
        return 1
    # For a geometric on {1, 2, ...} with success probability p, the
    # mean is 1/p.
    p = 1.0 / mean
    draws = 1
    while rng.random() > p:
        draws += 1
    return draws
