"""Shared percentile math for every latency surface.

The daemon's per-endpoint :class:`~repro.serve.server.LatencyRing`,
the windowed ``repro.ts/1`` telemetry, the slam driver's client-side
report, and the span analyzer all summarize latency distributions.
They must use *one* interpolation rule — a client p99 is only
comparable to a server p99 if both were computed the same way — so the
rule lives here, with no dependencies, importable from either side of
the wire.

The rule is linear interpolation between closest ranks (the numpy
``linear`` / R type-7 default): for ``n`` ascending samples and ``q``
in [0, 1], the percentile sits at fractional position ``q * (n - 1)``.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["percentile"]


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile of an ascending sequence.

    ``q`` in [0, 1].  Returns 0.0 for an empty sequence — latency
    reports render percentiles unconditionally and an empty run reads
    as zeros.  Raises :class:`ValueError` for ``q`` outside [0, 1];
    the sequence must already be sorted ascending (callers keep sorted
    windows, re-sorting here would hide an O(n log n) in a summary).
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
