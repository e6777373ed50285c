"""repro — Group-Based Management of Distributed File Caches.

A full reproduction of Amer, Long & Burns (ICDCS 2002): dynamic file
grouping from per-file successor lists, the aggregating cache (client-
and server-side), the successor-entropy predictability metric, and the
trace-driven simulation substrate needed to regenerate every figure in
the paper's evaluation.

Quickstart::

    from repro import AggregatingClientCache, make_server

    trace = make_server(events=50_000)
    cache = AggregatingClientCache(capacity=300, group_size=5)
    cache.replay(trace.file_ids())
    print(cache.demand_fetches, cache.stats.hit_rate)

See README.md for the architecture overview and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced figure.
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: The public names, listed under the subpackage or module that exports each.
_EXPORTS = {
    "caching": [
        "ARCCache",
        "Cache",
        "CacheStats",
        "ClockCache",
        "FIFOCache",
        "LFUCache",
        "LRUCache",
        "MQCache",
        "MultiLevelHierarchy",
        "NullCache",
        "OPTCache",
        "RandomCache",
        "TwoLevelHierarchy",
        "make_cache",
    ],
    "core": [
        "AggregatingClientCache",
        "AggregatingServerCache",
        "FirstSuccessorPredictor",
        "Group",
        "GroupBuilder",
        "LastSuccessorPredictor",
        "NoopPredictor",
        "OracleSuccessorList",
        "PrefetchingCache",
        "ProbabilityGraphPredictor",
        "RelationshipGraph",
        "SuccessorTracker",
        "entropy_profile",
        "evaluate_successor_misses",
        "filtered_entropy_profile",
        "successor_entropy",
        "successor_entropy_breakdown",
    ],
    "hoarding": [
        "FrequencyHoard",
        "GroupClosureHoard",
        "RecencyHoard",
        "compare_hoards",
        "simulate_disconnection",
    ],
    "placement": [
        "DiskLayout",
        "compare_placements",
        "group_layout",
        "replicated_group_layout",
    ],
    "errors": [
        "AnalysisError",
        "CacheConfigurationError",
        "ExperimentError",
        "ReproError",
        "SimulationError",
        "TraceError",
        "TraceFormatError",
        "WorkloadError",
    ],
    "sim": ["DistributedFileSystem", "Store", "replay_cache"],
    "traces": [
        "EventKind",
        "Trace",
        "TraceEvent",
        "cache_filtered",
        "read_trace",
        "summarize",
        "write_trace",
    ],
    "workloads": [
        "WORKLOADS",
        "WorkloadSpec",
        "build_workload",
        "make_server",
        "make_users",
        "make_workload",
        "make_workstation",
        "make_write",
    ],
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
