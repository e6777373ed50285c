"""Simulation engine: replay driver, system topology, costs, metrics, sweeps."""

from .._lazy import lazy_exports

#: The public names, listed under the submodule that defines each.
_EXPORTS = {
    "costs": ["CostModel", "PricedComparison", "price_replay"],
    "cooperative": ["PeerMetrics", "PeerNetwork"],
    "engine": ["DistributedFileSystem", "Store", "SystemMetrics", "replay_cache"],
    "sweep": ["Record", "SweepGrid", "pivot", "run_sweep"],
}

__getattr__, __dir__, __all__ = lazy_exports(__name__, _EXPORTS)
