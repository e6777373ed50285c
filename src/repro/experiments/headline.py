"""Headline claims (paper Sections 1 and 6).

The abstract and conclusion condense the evaluation into three numbers,
each regenerated here from the same machinery as the figures:

* "At the file system client, grouping can reduce LRU demand fetches by
  50 to 60%" — computed from Figure 3 on the ``server`` workload.
* "For LRU client caches of less than 200 file capacity, the
  aggregating cache improved server cache hit rates by 20 to 1200%" —
  computed from Figure 4.
* "For larger client caches, the aggregating cache continued to provide
  hit rates of 30 to 60% where simple LRU caching fails to provide any
  hits" — also from Figure 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Mapping, Optional, Sequence

from ..analysis.series import FigureData
from .common import DEFAULT_EVENTS, FIG4_SERVER_CAPACITY
from .fig3 import fetch_reduction, run_fig3
from .fig4 import improvement_over_lru, run_fig4

#: The Figure 4 workloads the server-side claims read.
HEADLINE_WORKLOADS = ("workstation", "users", "server")


@dataclass
class HeadlineReport:
    """Measured values for each headline claim, plus the paper's bands."""

    client_workload: str
    client_reduction_g5: float
    client_reduction_g10: float
    client_reduction_g2: float
    server_workloads: List[str]
    server_small_filter_improvements: List[float]
    server_large_filter_g5_rates: List[float]
    server_large_filter_lru_rates: List[float]
    events: int

    def to_rows(self) -> List[List[Any]]:
        """Paper-claim vs measured-value rows for reporting."""
        rows: List[List[Any]] = [["claim", "paper", "measured"]]
        rows.append(
            [
                "client demand-fetch reduction (g5)",
                "50-60%",
                f"{100 * self.client_reduction_g5:.1f}%",
            ]
        )
        rows.append(
            [
                "client demand-fetch reduction (g2, >40% claim)",
                ">40%",
                f"{100 * self.client_reduction_g2:.1f}%",
            ]
        )
        rows.append(
            [
                "client demand-fetch reduction (g10, no deterioration)",
                ">= g5 - epsilon",
                f"{100 * self.client_reduction_g10:.1f}%",
            ]
        )
        if self.server_small_filter_improvements:
            low = min(self.server_small_filter_improvements)
            high = max(self.server_small_filter_improvements)
            rows.append(
                [
                    "server hit-rate improvement, filter < 200",
                    "20-1200%",
                    f"{100 * low:.0f}% to {100 * high:.0f}%",
                ]
            )
        if self.server_large_filter_g5_rates:
            low = min(self.server_large_filter_g5_rates)
            high = max(self.server_large_filter_g5_rates)
            lru_high = max(self.server_large_filter_lru_rates)
            rows.append(
                [
                    "server g5 hit rate, filter >= server capacity",
                    "30-60% (LRU ~ 0)",
                    f"{low:.0f}% to {high:.0f}% (LRU <= {lru_high:.0f}%)",
                ]
            )
        return rows


def headline_from_figures(
    fig3: FigureData,
    fig4: Mapping[str, FigureData],
    events: int,
    client_workload: str = "server",
    client_capacity: int = 400,
) -> HeadlineReport:
    """Read every headline number off one Figure 3 panel (run on
    ``client_workload``) and the Figure 4 panels keyed by workload."""
    small_improvements: List[float] = []
    large_g5_rates: List[float] = []
    large_lru_rates: List[float] = []
    for figure in fig4.values():
        improvements = improvement_over_lru(figure, "g5")
        for capacity, ratio in improvements.items():
            if capacity < 200:
                small_improvements.append(ratio)
        g5_points = dict(figure.get_series("g5").points)
        lru_points = dict(figure.get_series("lru").points)
        for capacity, rate in g5_points.items():
            if capacity >= FIG4_SERVER_CAPACITY:
                large_g5_rates.append(rate)
                large_lru_rates.append(lru_points.get(capacity, 0.0))

    return HeadlineReport(
        client_workload=client_workload,
        client_reduction_g5=fetch_reduction(fig3, "g5", client_capacity),
        client_reduction_g10=fetch_reduction(fig3, "g10", client_capacity),
        client_reduction_g2=fetch_reduction(fig3, "g2", client_capacity),
        server_workloads=list(fig4),
        server_small_filter_improvements=small_improvements,
        server_large_filter_g5_rates=large_g5_rates,
        server_large_filter_lru_rates=large_lru_rates,
        events=events,
    )


def run_headline(
    events: int = DEFAULT_EVENTS,
    client_workload: str = "server",
    server_workloads: Sequence[str] = HEADLINE_WORKLOADS,
    client_capacity: int = 400,
    seed: Optional[int] = None,
) -> HeadlineReport:
    """Recompute every headline number from fresh figure runs."""
    fig3 = run_fig3(workload=client_workload, events=events, seed=seed)
    fig4 = {
        workload: run_fig4(workload=workload, events=events, seed=seed)
        for workload in server_workloads
    }
    return headline_from_figures(
        fig3, fig4, events, client_workload, client_capacity
    )
