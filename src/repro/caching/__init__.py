"""Cache policy substrate.

Whole-file caches keyed on file identifiers, all sharing the
:class:`~repro.caching.base.Cache` interface so trace replay, the
multi-level hierarchy, and the aggregating cache compose with any
policy.  ``POLICIES`` maps policy names to constructors for CLI and
sweep use.
"""

from .._lazy import lazy_exports

#: The public names, listed under the submodule that defines each.
_EXPORTS = {
    "arc": ["ARCCache"],
    "base": ["Cache", "CacheStats", "NullCache"],
    "clock": ["ClockCache"],
    "fifo": ["FIFOCache"],
    "lfu": ["LFUCache"],
    "lirs": ["LIRSCache"],
    "lru": ["LRUCache"],
    "mq": ["MQCache"],
    "multilevel": ["HierarchyResult", "MultiLevelHierarchy", "TwoLevelHierarchy"],
    "opt": ["OPTCache", "opt_miss_count"],
    "policies": ["POLICIES", "make_cache"],
    "random_cache": ["RandomCache"],
    "slru": ["SLRUCache"],
    "stack_distance": [
        "hit_rate_curve",
        "miss_curve",
        "stack_distances",
        "working_set_knee",
    ],
    "twoq": ["TwoQCache"],
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
