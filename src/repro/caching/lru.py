"""Least-recently-used cache.

LRU is the paper's universal baseline: the client cache in Figure 3,
the intervening filter cache in Figures 4 and 8, and one of the two
server policies grouping is compared against.

Beyond the standard policy this implementation exposes *two insertion
ends* — MRU head and LRU tail — because the aggregating cache places the
demanded file at the head and appends unconfirmed group members at the
tail (Section 3).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator, List, Tuple

from ..obs import registry as _obs
from .base import Cache


class LRUCache(Cache):
    """Classic LRU over file identifiers, with dual-ended insertion.

    The recency order is kept in an :class:`collections.OrderedDict`
    whose *last* entry is the most recently used and whose *first*
    entry is the eviction victim.
    """

    policy_name = "lru"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._order: "OrderedDict[str, None]" = OrderedDict()

    def _lookup(self, key: str) -> bool:
        if key in self._order:
            self._order.move_to_end(key)
            return True
        return False

    def _admit(self, key: str) -> None:
        self._order[key] = None

    def _evict_one(self) -> str:
        key, _ = self._order.popitem(last=False)
        return key

    def _remove(self, key: str) -> None:
        del self._order[key]

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, key: str) -> bool:
        return key in self._order

    def keys(self) -> Iterator[str]:
        """Resident keys from LRU victim to MRU head."""
        return iter(self._order)

    # -- aggregating-cache support ---------------------------------------
    def install_at_tail(self, key: str) -> bool:
        """Install ``key`` at the LRU end (first to be evicted).

        Used for unconfirmed group members so they never displace the
        retention priority of demand-fetched files.  Returns True when
        the key was newly installed; an already-resident key is left at
        its current position.
        """
        if key in self._order:
            return False
        self.stats.installs += 1
        if _obs.ENABLED:
            _obs.get_registry().counter("cache.lru.installs").inc()
        while len(self._order) >= self.capacity:
            victim = self._evict_one()
            self.stats.evictions += 1
            if _obs.ENABLED:
                self._record_eviction(victim, "group_install")
        self._order[key] = None
        self._order.move_to_end(key, last=False)
        return True

    def install_group_at_tail(self, keys) -> int:
        """Install a batch of keys at the LRU end, nearest-first.

        This is the aggregating cache's placement step: the group's
        companions are "appended to the end" of the LRU list in
        predicted access order, so the *farthest* prediction is the
        first evicted.  Installation is a batch operation — victims are
        evicted from the old tail before any companion is placed —
        because per-key insertion at the eviction end would make each
        companion evict the previous one whenever the cache is full.

        Already-resident keys are left untouched (no promotion), the
        batch is trimmed to ``capacity - 1`` so the demanded MRU file
        is never displaced, and the number of newly installed keys is
        returned.
        """
        newcomers = []
        seen = set()
        for key in keys:
            if key not in self._order and key not in seen:
                newcomers.append(key)
                seen.add(key)
        newcomers = newcomers[: max(self.capacity - 1, 0)]
        if not newcomers:
            return 0
        record = _obs.ENABLED
        if record:
            _obs.get_registry().counter("cache.lru.installs").inc(len(newcomers))
        overflow = len(self._order) + len(newcomers) - self.capacity
        for _ in range(max(overflow, 0)):
            victim = self._evict_one()
            self.stats.evictions += 1
            if record:
                self._record_eviction(victim, "group_install")
        for key in newcomers:
            self._order[key] = None
            self._order.move_to_end(key, last=False)
            self.stats.installs += 1
        return len(newcomers)

    def plan_group_install(self, keys) -> Tuple[List[str], List[Tuple[str, str]]]:
        """Predict :meth:`install_group_at_tail`'s outcome without mutating.

        Returns ``(installed, skipped)``: the keys the install would
        newly place, and each unplaced key paired with its reason —
        ``"resident"`` (already cached, not shipped twice) or
        ``"capacity"`` (trimmed so the demanded MRU file survives).
        Used by flight-recorder ``group_fetch`` records, which must
        explain *why* members were skipped, not just how many.
        """
        installed: List[str] = []
        skipped: List[Tuple[str, str]] = []
        seen = set()
        budget = max(self.capacity - 1, 0)
        for key in keys:
            if key in self._order or key in seen:
                skipped.append((key, "resident"))
                continue
            seen.add(key)
            if len(installed) < budget:
                installed.append(key)
            else:
                skipped.append((key, "capacity"))
        return installed, skipped

    def victim(self) -> str:
        """The key that would be evicted next (cache must be non-empty)."""
        return next(iter(self._order))

    def install_group_at_tail_fast(self, order, keys, stats) -> int:
        """Inline of :meth:`install_group_at_tail` for hot replay loops.

        ``order`` and ``stats`` are this cache's own ``_order`` dict and
        stats object, passed in so callers that already hold them avoid
        the attribute loads.  Count-for-count identical to the public
        method (the replay fast-path tests assert byte-equal metrics).
        """
        newcomers = []
        seen = set()
        for key in keys:
            if key not in order and key not in seen:
                newcomers.append(key)
                seen.add(key)
        capacity = self.capacity
        newcomers = newcomers[: capacity - 1 if capacity > 1 else 0]
        if not newcomers:
            return 0
        overflow = len(order) + len(newcomers) - capacity
        if overflow > 0:
            popitem = order.popitem
            for _ in range(overflow):
                popitem(last=False)
            stats.evictions += overflow
        move_to_front = order.move_to_end
        for key in newcomers:
            order[key] = None
            move_to_front(key, last=False)
        stats.installs += len(newcomers)
        return len(newcomers)

    def recency_rank(self, key: str) -> int:
        """0-based rank from the MRU end; raises KeyError if absent.

        Exposed for tests and for the insertion-position ablation.
        """
        for rank, candidate in enumerate(reversed(self._order)):
            if candidate == key:
                return rank
        raise KeyError(key)


def record_lru_counters(
    registry, hits: int = 0, misses: int = 0, evictions: int = 0, installs: int = 0
) -> None:
    """Batch-credit ``cache.lru.*`` counter deltas to a registry.

    The replay fast loops bypass :meth:`Cache.access` and the install
    methods, so they report their per-policy counters as one delta per
    replay through here.  Counters are created only for non-zero deltas
    — exactly matching the generic path, which creates each counter on
    its first increment — so fast and generic replays produce identical
    registry snapshots (asserted by the equivalence tests).
    """
    if hits:
        registry.counter("cache.lru.hits").inc(hits)
    if misses:
        registry.counter("cache.lru.misses").inc(misses)
    if evictions:
        registry.counter("cache.lru.evictions").inc(evictions)
    if installs:
        registry.counter("cache.lru.installs").inc(installs)
