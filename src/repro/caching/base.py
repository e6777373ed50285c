"""Cache framework: the common interface and statistics.

Every cache in this library is a *whole-file* cache keyed on file
identifiers, matching the paper's granularity ("we are measuring the
hit-rate for a whole file cache based on file open requests", Section
4.1).  Capacity is counted in files, not bytes, for the same reason.

The central method is :meth:`Cache.access`: present a key, learn whether
it hit, and (on a miss) have the key installed according to the policy.
That single call is what trace replay drives.  Caches also expose
``install`` for callers — like the aggregating cache — that bring in
keys *not* demanded by the workload (group members), so hit accounting
stays honest: only demand accesses touch the statistics.

Every policy is also observable for free: when collection is on, the
demand and eviction paths below record ``cache.<policy>.*`` counters
and emit flight-recorder ``open``/``evict``/``demand_fetch`` records,
so baseline-vs-aggregating comparisons show up in ``repro metrics``
and ``repro explain`` without per-policy instrumentation.  Disabled
runs stay one branch per site.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Iterator, Optional

from ..errors import CacheConfigurationError
from ..obs import registry as _obs
from ..obs import tracing as _tracing


@dataclass
class CacheStats:
    """Hit/miss accounting for one cache.

    ``installs`` counts keys brought in outside the demand path (group
    members, prefetches); ``evictions`` counts every removal caused by
    capacity pressure.
    """

    hits: int = 0
    misses: int = 0
    installs: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        """Total demand accesses observed."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits divided by demand accesses (0.0 when never accessed)."""
        if not self.accesses:
            return 0.0
        return self.hits / self.accesses

    @property
    def miss_rate(self) -> float:
        """Misses divided by demand accesses (0.0 when never accessed)."""
        if not self.accesses:
            return 0.0
        return self.misses / self.accesses

    def reset(self) -> None:
        """Zero all counters."""
        self.hits = 0
        self.misses = 0
        self.installs = 0
        self.evictions = 0

    def snapshot(self) -> "CacheStats":
        """An independent copy of the current counters."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            installs=self.installs,
            evictions=self.evictions,
        )


class Cache(abc.ABC):
    """Abstract whole-file cache with demand and non-demand paths.

    Subclasses implement the four primitive hooks (`_lookup`,
    `_admit`, `_evict_one`, `_remove`); the public methods layer
    accounting and capacity enforcement on top so every policy counts
    the same way.
    """

    #: Human-readable policy name, used in reports and figure legends.
    policy_name = "cache"

    #: Component name used in flight-recorder trace records.  Defaults
    #: to the policy name; owners that deploy several caches (the
    #: replay engine's per-client caches, the aggregating caches) set
    #: an instance attribute so traces name the *role*, not the policy.
    trace_name: Optional[str] = None

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise CacheConfigurationError(
                f"cache capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.stats = CacheStats()

    # -- primitive hooks -------------------------------------------------
    @abc.abstractmethod
    def _lookup(self, key: str) -> bool:
        """Return whether ``key`` is resident, applying on-hit promotion."""

    @abc.abstractmethod
    def _admit(self, key: str) -> None:
        """Make ``key`` resident (capacity already ensured by caller)."""

    @abc.abstractmethod
    def _evict_one(self) -> str:
        """Remove and return the policy's victim (cache is non-empty)."""

    @abc.abstractmethod
    def _remove(self, key: str) -> None:
        """Forcibly remove a resident ``key`` (used by invalidation)."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of resident keys."""

    @abc.abstractmethod
    def __contains__(self, key: str) -> bool:
        """Whether ``key`` is resident, with no side effects."""

    @abc.abstractmethod
    def keys(self) -> Iterator[str]:
        """Iterate over resident keys (policy order not guaranteed)."""

    # -- observability ----------------------------------------------------
    def _record_access(self, key: str, hit: bool) -> None:
        """Record one demand access (called only when collection is on)."""
        registry = _obs.get_registry()
        if hit:
            registry.counter(f"cache.{self.policy_name}.hits").inc()
        else:
            registry.counter(f"cache.{self.policy_name}.misses").inc()
        recorder = _tracing.ACTIVE
        if recorder is not None:
            recorder.open(self.trace_name or self.policy_name, key, hit, len(self))

    def _record_eviction(self, victim: str, cause: Optional[str] = None) -> None:
        """Record one eviction (called only when collection is on).

        Policies that evict outside the base :meth:`_make_room` loop
        (ARC, LIRS) call this from their own eviction sites so counter
        totals always equal ``stats.evictions`` deltas.
        """
        _obs.get_registry().counter(f"cache.{self.policy_name}.evictions").inc()
        recorder = _tracing.ACTIVE
        if recorder is not None:
            recorder.evict(self.trace_name or self.policy_name, victim, cause)

    # -- public protocol --------------------------------------------------
    def access(self, key: str) -> bool:
        """Demand access: return True on hit; install the key on miss."""
        if self._lookup(key):
            self.stats.hits += 1
            if _obs.ENABLED:
                self._record_access(key, hit=True)
            return True
        self.stats.misses += 1
        if _obs.ENABLED:
            self._record_access(key, hit=False)
        self._make_room()
        self._admit(key)
        if _obs.ENABLED and _tracing.ACTIVE is not None:
            _tracing.ACTIVE.demand_fetch(self.trace_name or self.policy_name, key)
        return False

    def probe(self, key: str) -> bool:
        """Hit test with neither accounting nor promotion side effects."""
        return key in self

    def install(self, key: str) -> bool:
        """Bring ``key`` in outside the demand path (e.g. a group member).

        Returns True when the key was newly installed, False when it was
        already resident (in which case the policy's on-hit promotion is
        deliberately *not* applied: an unconfirmed group member must not
        gain retention priority, Section 3).
        """
        if key in self:
            return False
        self.stats.installs += 1
        if _obs.ENABLED:
            _obs.get_registry().counter(f"cache.{self.policy_name}.installs").inc()
            recorder = _tracing.ACTIVE
            if recorder is not None:
                # Evictions forced by a non-demand install are the
                # prefetch's cost, not the demand stream's.
                with recorder.cause("group_install"):
                    self._make_room()
                    self._admit(key)
                return True
        self._make_room()
        self._admit(key)
        return True

    def invalidate(self, key: str) -> bool:
        """Remove ``key`` if resident; returns whether it was resident."""
        if key in self:
            self._remove(key)
            return True
        return False

    def _make_room(self) -> None:
        """Evict until there is room for one more key."""
        while len(self) >= self.capacity:
            victim = self._evict_one()
            self.stats.evictions += 1
            if _obs.ENABLED:
                self._record_eviction(victim)

    def clear(self) -> None:
        """Drop all resident keys (statistics are kept)."""
        for key in list(self.keys()):
            self._remove(key)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"{type(self).__name__}(capacity={self.capacity}, "
            f"resident={len(self)}, hit_rate={self.stats.hit_rate:.3f})"
        )


class NullCache(Cache):
    """A cache that holds nothing: every access misses.

    Used to model the degenerate "no intervening cache" configuration
    in multi-level experiments (a filter capacity of zero) without
    special-casing the topology code.
    """

    policy_name = "null"

    def __init__(self):
        # Bypass the positive-capacity check deliberately.
        self.capacity = 0
        self.stats = CacheStats()

    def _lookup(self, key: str) -> bool:
        return False

    def _admit(self, key: str) -> None:
        return None

    def _evict_one(self) -> str:  # pragma: no cover - never holds keys
        raise CacheConfigurationError("NullCache never holds keys")

    def _remove(self, key: str) -> None:  # pragma: no cover - never holds keys
        return None

    def __len__(self) -> int:
        return 0

    def __contains__(self, key: str) -> bool:
        return False

    def keys(self) -> Iterator[str]:
        return iter(())

    def access(self, key: str) -> bool:
        self.stats.misses += 1
        return False

    def install(self, key: str) -> bool:
        return False
