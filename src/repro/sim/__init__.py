"""Simulation engine: replay driver, system topology, costs, metrics, sweeps."""

from .costs import CostModel, PricedComparison, price_replay
from .cooperative import PeerMetrics, PeerNetwork
from .engine import DistributedFileSystem, Store, SystemMetrics, replay_cache
from .sweep import Record, SweepGrid, pivot, run_sweep

__all__ = [
    "CostModel",
    "DistributedFileSystem",
    "PeerMetrics",
    "PeerNetwork",
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
