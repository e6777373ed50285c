"""The paper's core contribution.

Successor tracking, dynamic group construction, the aggregating cache
(client- and server-side), the successor-entropy predictability metric,
and the related-work predictors it is benchmarked against.
"""

from .._lazy import lazy_exports

#: The public names, listed under the submodule that defines each.
_EXPORTS = {
    "aggregating_cache": [
        "AggregatingClientCache",
        "AggregatingServerCache",
        "GroupFetchLog",
    ],
    "context": ["PPMPredictor"],
    "partitioned": [
        "AttributionComparison",
        "PartitionedSuccessorTracker",
        "evaluate_partitioned_misses",
    ],
    "entropy": [
        "EntropyBreakdown",
        "entropy_profile",
        "filtered_entropy_profile",
        "perplexity",
        "successor_entropy",
        "successor_entropy_breakdown",
    ],
    "graph": ["Edge", "RelationshipGraph", "graph_summary_rows", "hub_files"],
    "grouping": ["AdaptiveGroupBuilder", "Group", "GroupBuilder"],
    "predictors": [
        "PREDICTORS",
        "FirstSuccessorPredictor",
        "LastSuccessorPredictor",
        "NoopPredictor",
        "PrefetchingCache",
        "Predictor",
        "ProbabilityGraphPredictor",
    ],
    "successors": [
        "SUCCESSOR_POLICIES",
        "HybridSuccessorList",
        "LFUSuccessorList",
        "LRUSuccessorList",
        "OracleSuccessorList",
        "SuccessorList",
        "SuccessorMissReport",
        "SuccessorTracker",
        "evaluate_successor_misses",
        "make_successor_list",
    ],
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
