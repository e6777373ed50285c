"""Extension experiments: the paper's Section 6 future-work directions.

Three studies the paper proposes but does not evaluate, built on the
same substrate as the figure reproductions:

* :func:`run_placement` — grouping for data placement: mean seek
  distance of five layout strategies on a train/test split of a
  workload (``repro.placement``).
* :func:`run_hoarding` — grouping for mobile file hoarding: offline
  miss rate of three hoard policies across hoard budgets
  (``repro.hoarding``).
* :func:`run_cooperation` — the Figure 2 vs Section 4.3 design axis
  made explicit: how much server-side grouping performance is lost when
  clients do *not* piggy-back their full access streams and the server
  must learn from its filtered miss stream alone.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..analysis.series import FigureData
from ..caching.lru import LRUCache
from ..caching.multilevel import TwoLevelHierarchy
from ..core.aggregating_cache import AggregatingServerCache
from ..core.successors import SuccessorTracker
from ..errors import ExperimentError
from ..hoarding.hoard import compare_hoards
from ..placement.strategies import PLACEMENTS, compare_placements
from .common import DEFAULT_EVENTS, check_workload, workload_sequence


def run_placement(
    workload: str = "server",
    events: int = DEFAULT_EVENTS,
    group_sizes: Sequence[int] = (2, 5, 10),
    seed: Optional[int] = None,
) -> FigureData:
    """Mean seek distance per layout strategy, per group size.

    The trace's first half trains each layout; the second half is
    replayed against it.  Strategies that ignore groups ("random",
    "name", "frequency") are flat across the group-size axis but are
    swept anyway so every figure cell is measured under identical
    conditions.
    """
    check_workload(workload)
    if not group_sizes:
        raise ExperimentError("group_sizes must be non-empty")
    sequence = workload_sequence(workload, events, seed)
    half = len(sequence) // 2
    train, test = sequence[:half], sequence[half:]
    figure = FigureData(
        figure_id=f"placement-{workload}",
        title=f"Placement ({workload}): mean seek distance by layout",
        xlabel="Group Size",
        ylabel="Mean Seek Distance (slots)",
        notes=f"{events} events; first half trains the layout",
    )
    for strategy in sorted(PLACEMENTS):
        series = figure.add_series(strategy)
        for group_size in group_sizes:
            results = compare_placements(
                train, test, group_size=group_size, strategies=[strategy]
            )
            series.add(group_size, results[strategy]["mean_seek"])
    return figure


def run_hoarding(
    workload: str = "server",
    events: int = DEFAULT_EVENTS,
    budgets: Sequence[int] = (50, 100, 200, 400),
    offline_events: Optional[int] = None,
    group_size: int = 40,
    seed: Optional[int] = None,
) -> FigureData:
    """Offline miss rate per hoard policy across hoard budgets.

    Disconnection happens ``offline_events`` before the end of the
    trace (default: a tenth of the trace, capped at 2000); the tail is
    the disconnected window (a task-continuation scenario — the regime
    hoarding exists for).
    """
    check_workload(workload)
    if not budgets:
        raise ExperimentError("budgets must be non-empty")
    if offline_events is None:
        offline_events = min(2000, max(events // 10, 1))
    sequence = list(workload_sequence(workload, events, seed))
    disconnect_at = len(sequence) - offline_events
    if disconnect_at <= 0:
        raise ExperimentError(
            f"offline_events={offline_events} leaves no history "
            f"(trace has {len(sequence)} events)"
        )
    figure = FigureData(
        figure_id=f"hoarding-{workload}",
        title=f"Hoarding ({workload}): offline miss rate by policy",
        xlabel="Hoard Budget (files)",
        ylabel="Offline Miss Rate",
        notes=(
            f"{events} events; disconnected for the last "
            f"{offline_events}; closure depth {group_size}"
        ),
    )
    series_by_policy = {}
    for budget in budgets:
        for report in compare_hoards(
            sequence, disconnect_at, budget, group_size=group_size
        ):
            series = series_by_policy.get(report.policy)
            if series is None:
                series = figure.add_series(report.policy)
                series_by_policy[report.policy] = series
            series.add(budget, report.miss_rate)
    return figure


def run_cooperation(
    workload: str = "server",
    events: int = DEFAULT_EVENTS,
    filter_capacities: Sequence[int] = (50, 150, 300, 500),
    server_capacity: int = 300,
    group_size: int = 5,
    seed: Optional[int] = None,
) -> FigureData:
    """Server hit rate with and without client cooperation.

    ``cooperative``: clients piggy-back every access, so the server's
    successor metadata sees the unfiltered stream (the Figure 2
    design).  ``filtered``: the Section 4.3 assumption — metadata is
    learned from the server's own request stream only.
    """
    check_workload(workload)
    if not filter_capacities:
        raise ExperimentError("filter_capacities must be non-empty")
    sequence = workload_sequence(workload, events, seed)
    figure = FigureData(
        figure_id=f"cooperation-{workload}",
        title=(
            f"Cooperation ({workload}): server hit rate with/without "
            f"piggy-backed access statistics"
        ),
        xlabel="Filter Capacity (files)",
        ylabel="Hit Rate (%)",
        notes=f"{events} events; server capacity {server_capacity}, g{group_size}",
    )
    cooperative_series = figure.add_series("cooperative")
    filtered_series = figure.add_series("filtered")
    for filter_capacity in filter_capacities:
        # Uncooperative: the standard Figure 4 configuration.
        plain_server = AggregatingServerCache(
            capacity=server_capacity, group_size=group_size
        )
        hierarchy = TwoLevelHierarchy(LRUCache(filter_capacity), plain_server)
        result = hierarchy.replay(sequence)
        filtered_series.add(filter_capacity, 100 * result.server_hit_rate)

        # Cooperative: the tracker observes the *unfiltered* stream
        # (clients piggy-back every access); the server itself must not
        # re-observe its filtered request stream.
        shared_tracker = SuccessorTracker(policy="lru", capacity=8)
        cooperative_server = AggregatingServerCache(
            capacity=server_capacity,
            group_size=group_size,
            shared_tracker=shared_tracker,
            observe_requests=False,
        )
        client = LRUCache(filter_capacity)
        for file_id in sequence:
            shared_tracker.observe(file_id)
            if not client.access(file_id):
                cooperative_server.access(file_id)
        cooperative_series.add(
            filter_capacity, 100 * cooperative_server.stats.hit_rate
        )
    return figure


def run_attribution(
    events: int = DEFAULT_EVENTS,
    workloads: Sequence[str] = ("users", "write", "workstation", "server"),
    capacities: Sequence[int] = (1, 2, 4, 8),
    seed: Optional[int] = None,
) -> FigureData:
    """Global vs per-client successor tracking (Section 2.2, question 4).

    For each workload and successor-list capacity, measures the miss
    probability of a single global tracker against per-client
    partitioned trackers, reporting the partitioned design's fractional
    improvement.  Expected: large gains on the many-client ``users``
    workload, approximately zero on single-client workloads.
    """
    from ..core.partitioned import evaluate_partitioned_misses
    from .common import workload_trace

    if not workloads or not capacities:
        raise ExperimentError("workloads and capacities must be non-empty")
    for workload in workloads:
        check_workload(workload)
    figure = FigureData(
        figure_id="attribution",
        title="Attribution: miss reduction from per-client successor tracking",
        xlabel="Successor List Capacity",
        ylabel="Miss Reduction vs Global Tracking",
        notes=f"{events} events per workload",
    )
    for workload in workloads:
        trace = workload_trace(workload, events, seed)
        series = figure.add_series(workload)
        for capacity in capacities:
            comparison = evaluate_partitioned_misses(trace, capacity=capacity)
            series.add(capacity, comparison.improvement)
    return figure


def run_adaptation(
    workload: str = "server",
    events: int = DEFAULT_EVENTS,
    capacity: int = 300,
    group_size: int = 5,
    interval: int = 1000,
    seed: Optional[int] = None,
    shift_seed: int = 777,
) -> FigureData:
    """Adaptation speed after an abrupt workload shift.

    Concatenates two differently seeded instances of the same workload
    (disjoint file populations — a whole-environment change, the
    hardest possible shift) and plots the per-interval hit rate of
    plain LRU vs the aggregating cache.  Grouping metadata from the old
    phase is useless in the new one, so this measures how quickly
    dynamic groups re-form: the paper's adaptivity claim ("group
    construction can be delayed ... without conflicting with the
    existing workload") made visible.
    """
    from ..core.aggregating_cache import AggregatingClientCache
    from .common import workload_sequence

    check_workload(workload)
    if interval <= 0:
        raise ExperimentError(f"interval must be positive, got {interval}")
    half = events // 2
    phase1 = workload_sequence(workload, half, seed)
    phase2 = workload_sequence(workload, half, shift_seed)
    combined = list(phase1) + list(phase2)

    figure = FigureData(
        figure_id=f"adaptation-{workload}",
        title=f"Adaptation ({workload}): hit rate across a workload shift",
        xlabel="Event",
        ylabel="Interval Hit Rate",
        notes=(
            f"two {half}-event phases with disjoint seeds; shift at "
            f"event {half}; interval {interval}"
        ),
    )
    for label, group in (("lru", 1), (f"g{group_size}", group_size)):
        cache = AggregatingClientCache(capacity=capacity, group_size=group)
        series = figure.add_series(label)
        # One replay per interval; cache and successor state carry over.
        for start in range(0, len(combined), interval):
            end = min(start + interval, len(combined))
            hits_before = cache.stats.hits
            cache.replay(combined[start:end])
            # Every access is one hit or one miss.
            series.add(end, (cache.stats.hits - hits_before) / (end - start))
    return figure


def run_server_capacity(
    workload: str = "workstation",
    events: int = DEFAULT_EVENTS,
    server_capacities: Sequence[int] = (100, 200, 300, 450, 600),
    filter_capacity: int = 300,
    group_size: int = 5,
    seed: Optional[int] = None,
) -> FigureData:
    """Sensitivity of the Figure 4 result to the server cache size.

    Figure 4 fixes the server at 300 files; this sweeps the server
    capacity at a fixed client filter, checking that the aggregating
    cache's advantage is not an artifact of one operating point.
    """
    from .fig4 import make_server_cache, server_hit_rate

    check_workload(workload)
    if not server_capacities:
        raise ExperimentError("server_capacities must be non-empty")
    sequence = workload_sequence(workload, events, seed)
    figure = FigureData(
        figure_id=f"server-capacity-{workload}",
        title=(
            f"Server capacity sweep ({workload}): hit rate at a fixed "
            f"{filter_capacity}-file client cache"
        ),
        xlabel="Server Cache Capacity (files)",
        ylabel="Hit Rate (%)",
        notes=f"{events} events; filter fixed at {filter_capacity}",
    )
    for scheme in (f"g{group_size}", "lru", "lfu"):
        series = figure.add_series(scheme)
        for capacity in server_capacities:
            cache = make_server_cache(scheme, capacity)
            series.add(
                capacity, server_hit_rate(sequence, filter_capacity, cache)
            )
    return figure


def run_peer_caching(
    workload: str = "users",
    events: int = DEFAULT_EVENTS,
    client_capacity: int = 150,
    group_sizes: Sequence[int] = (1, 5),
    seed: Optional[int] = None,
) -> FigureData:
    """Peer caching × grouping: who serves the misses?

    For each configuration (peers on/off × group size), reports the
    fraction of demand accesses that had to reach the server.  Peers
    absorb misses on files *shared across clients*; grouping absorbs
    misses on each client's *own sequential* files — the experiment
    shows the two tiers are complementary, not redundant.
    """
    from ..sim.cooperative import PeerNetwork
    from .common import workload_trace

    check_workload(workload)
    if not group_sizes:
        raise ExperimentError("group_sizes must be non-empty")
    if client_capacity <= 0:
        raise ExperimentError("client_capacity must be positive")
    trace = workload_trace(workload, events, seed)
    figure = FigureData(
        figure_id=f"peer-{workload}",
        title=f"Peer caching ({workload}): server-fetch rate by configuration",
        xlabel="Group Size",
        ylabel="Server Fetch Rate",
        notes=f"{events} events; {client_capacity}-file client caches",
    )
    for peers in (False, True):
        label = "with-peers" if peers else "no-peers"
        series = figure.add_series(label)
        for group_size in group_sizes:
            network = PeerNetwork(
                client_capacity=client_capacity,
                group_size=group_size,
                peer_sharing=peers,
            )
            metrics = network.replay(trace)
            series.add(group_size, metrics.server_fetch_rate)
    return figure


def run_metadata_budget(
    workload: str = "server",
    events: int = DEFAULT_EVENTS,
    successor_capacities: Sequence[int] = (1, 2, 4, 8, 16),
    capacity: int = 300,
    group_size: int = 5,
    seed: Optional[int] = None,
) -> FigureData:
    """The "minimal metadata" claim, quantified (Sections 3-4.4).

    Sweeps the per-file successor-list capacity and reports both the
    fetch performance it buys and the metadata it costs (total retained
    entries, normalized per tracked file).  The paper's position —
    "only a very small number of successors are needed to capture most
    relationship information" — should appear as a fetch curve that
    flattens within a handful of entries while the metadata line keeps
    climbing.
    """
    from ..core.aggregating_cache import AggregatingClientCache

    check_workload(workload)
    if not successor_capacities:
        raise ExperimentError("successor_capacities must be non-empty")
    sequence = workload_sequence(workload, events, seed)
    figure = FigureData(
        figure_id=f"metadata-{workload}",
        title=(
            f"Metadata budget ({workload}): fetches and state vs "
            f"successor-list capacity"
        ),
        xlabel="Successor List Capacity (entries per file)",
        ylabel="Demand Fetches / Metadata Entries",
        notes=f"{events} events; client capacity {capacity}, g{group_size}",
    )
    fetches_series = figure.add_series("demand-fetches")
    metadata_series = figure.add_series("metadata-entries")
    for successor_capacity in successor_capacities:
        cache = AggregatingClientCache(
            capacity=capacity,
            group_size=group_size,
            successor_capacity=successor_capacity,
        )
        cache.replay(sequence)
        fetches_series.add(successor_capacity, cache.demand_fetches)
        metadata_series.add(
            successor_capacity, cache.tracker.metadata_entries()
        )
    return figure
