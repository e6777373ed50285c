"""Latency cost model: turning fetch counts into access time.

The paper's motivation is latency: "We group files to reduce access
latency" (Section 2).  Its evaluation reports request *counts*; this
module supplies the cost model that converts those counts into time, so
the trade grouping makes — fewer round trips, more bytes per trip,
some of them wasted — can be priced explicitly.

Model (classical request-cost decomposition):

* a cache hit costs ``hit_time``;
* a remote fetch costs one ``request_latency`` (RTT + service) plus
  ``transfer_time`` per file shipped — so a group of g files costs
  ``request_latency + g * transfer_time``, while fetching the same g
  files on demand costs ``g * (request_latency + transfer_time)``;
* prefetched files that are evicted unused cost their transfer anyway —
  that waste is measured, not assumed away.

:func:`price_replay` compares priced configurations, reading which
companions were used and which were evicted unused from the flight
recorder's prefetch provenance (:mod:`repro.obs.tracing`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..core.aggregating_cache import AggregatingClientCache
from ..errors import SimulationError
from ..obs import tracing


@dataclass(frozen=True)
class CostModel:
    """Latency parameters, in arbitrary consistent time units.

    Defaults approximate a 2002-era LAN file server in milliseconds:
    sub-millisecond local hits, a ~2 ms request round trip, ~1 ms
    per-file transfer.
    """

    hit_time: float = 0.05
    request_latency: float = 2.0
    transfer_time: float = 1.0

    def validate(self) -> None:
        """Reject negative components."""
        for label, value in (
            ("hit_time", self.hit_time),
            ("request_latency", self.request_latency),
            ("transfer_time", self.transfer_time),
        ):
            if value < 0:
                raise SimulationError(f"{label} must be >= 0, got {value}")

    def demand_only_cost(self, hits: int, misses: int) -> float:
        """Total latency for a plain demand-fetch cache."""
        return hits * self.hit_time + misses * (
            self.request_latency + self.transfer_time
        )

    def grouped_cost(self, hits: int, group_fetches: int, files_shipped: int) -> float:
        """Total latency when misses are served by group fetches."""
        return (
            hits * self.hit_time
            + group_fetches * self.request_latency
            + files_shipped * self.transfer_time
        )


class PricedComparison(dict):
    """{configuration: {latency metrics}} with a convenience ratio."""

    def speedup(self, baseline: str, candidate: str) -> float:
        """Mean-latency ratio baseline/candidate (>1 means faster)."""
        base = self[baseline]["mean_latency"]
        cand = self[candidate]["mean_latency"]
        if cand == 0:
            return float("inf")
        return base / cand


def price_replay(
    sequence: Sequence[str],
    capacity: int,
    group_size: int = 5,
    model: Optional[CostModel] = None,
) -> PricedComparison:
    """Price plain LRU vs the aggregating cache on one sequence.

    Returns per-configuration totals: mean and total latency, request
    counts, files shipped, and (for grouping) prefetch accuracy and the
    wasted-transfer overhead.
    """
    cost_model = model if model is not None else CostModel()
    cost_model.validate()
    if not sequence:
        raise SimulationError("cannot price an empty sequence")

    plain = AggregatingClientCache(capacity=capacity, group_size=1)
    plain.replay(sequence)
    plain_total = cost_model.demand_only_cost(
        plain.stats.hits, plain.stats.misses
    )

    grouped = AggregatingClientCache(capacity=capacity, group_size=group_size)
    # The recorder's provenance accounting is exact however small its
    # ring: a companion is useful when demanded while still resident and
    # wasted when evicted without ever being demanded.
    with tracing.recording(capacity=1) as recorder:
        grouped.replay(sequence)
    prefetch = recorder.component_summary("client")
    useful = prefetch["group_used"]
    wasted = prefetch["group_evicted_unused"]
    grouped_total = cost_model.grouped_cost(
        grouped.stats.hits,
        grouped.fetch_log.group_fetches,
        grouped.fetch_log.files_retrieved,
    )

    events = len(sequence)
    return PricedComparison(
        {
            "lru": {
                "total_latency": plain_total,
                "mean_latency": plain_total / events,
                "requests": plain.stats.misses,
                "files_shipped": plain.stats.misses,
                "hit_rate": plain.stats.hit_rate,
            },
            f"g{group_size}": {
                "total_latency": grouped_total,
                "mean_latency": grouped_total / events,
                "requests": grouped.fetch_log.group_fetches,
                "files_shipped": grouped.fetch_log.files_retrieved,
                "hit_rate": grouped.stats.hit_rate,
                # Useful share of the companions whose fate is decided.
                "prefetch_accuracy": (
                    useful / (useful + wasted) if useful + wasted else 0.0
                ),
                "wasted_transfers": wasted,
            },
        }
    )
