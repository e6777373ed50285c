"""Simulation engine: replay driver, system topology, costs, metrics, sweeps."""

from .costs import (
    CostModel,
    InstrumentedAggregatingCache,
    PrefetchOutcome,
    PricedComparison,
    price_replay,
)
from .cooperative import PeerMetrics, PeerNetwork
from .engine import DistributedFileSystem, Store, SystemMetrics, replay_cache
from .perf import PerfTimer, PhaseStats, ThroughputReport, measure_replay
from .sweep import POINT_SECONDS_KEY, Record, SweepGrid, pivot, run_sweep

__all__ = [
    "POINT_SECONDS_KEY",
    "PerfTimer",
    "PhaseStats",
    "ThroughputReport",
    "measure_replay",
    "CostModel",
    "DistributedFileSystem",
    "InstrumentedAggregatingCache",
    "PeerMetrics",
    "PeerNetwork",
    "PrefetchOutcome",
    "PricedComparison",
    "price_replay",
    "Record",
    "Store",
    "SweepGrid",
    "SystemMetrics",
    "pivot",
    "replay_cache",
    "run_sweep",
]
