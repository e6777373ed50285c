"""The online policies by name, for the CLI and sweeps."""

from __future__ import annotations

from typing import Callable, Dict

from .arc import ARCCache
from .base import Cache
from .clock import ClockCache
from .fifo import FIFOCache
from .lfu import LFUCache
from .lirs import LIRSCache
from .lru import LRUCache
from .mq import MQCache
from .random_cache import RandomCache
from .slru import SLRUCache
from .twoq import TwoQCache

#: Online policies constructible from a capacity alone.
POLICIES: Dict[str, Callable[[int], Cache]] = {
    "lru": LRUCache,
    "lfu": LFUCache,
    "fifo": FIFOCache,
    "clock": ClockCache,
    "mq": MQCache,
    "arc": ARCCache,
    "lirs": LIRSCache,
    "random": RandomCache,
    "2q": TwoQCache,
    "slru": SLRUCache,
}


def make_cache(policy: str, capacity: int) -> Cache:
    """Construct an online cache by policy name.

    Raises KeyError listing the valid names when the policy is unknown.
    """
    try:
        constructor = POLICIES[policy]
    except KeyError:
        names = ", ".join(sorted(POLICIES))
        raise KeyError(f"unknown policy {policy!r} (expected one of: {names})")
    return constructor(capacity)
