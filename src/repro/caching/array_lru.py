"""Array-backed exact-LRU eviction core for the batch replay kernel.

:class:`~repro.caching.lru.LRUCache` keeps recency in an
``OrderedDict``: correct, general, and string-keyed — but every hit
pays a hash probe plus ``move_to_end``'s linked-list splice, and every
miss pays ``popitem`` plus two dict writes.  Once a replay runs over a
:class:`~repro.traces.columnar.ColumnarTrace`, keys are dense integer
codes in ``[0, universe)``, and recency can live in flat arrays
indexed by code instead:

``stamp``
    one monotone timestamp per code (a plain python list).  A *hit* is
    a single indexed store — ``stamp[key] = clock`` — with no hashing,
    no splice, no dict traffic.
``in_cache``
    the residency bitmap (a ``bytearray``, one byte per code).  This
    is the ``in_cache[]`` array of the classic intrusive-list design;
    membership is ``in_cache[key]``, again no hashing.

Eviction order is recovered *lazily*: the cache keeps a descending
stamp-sorted ``queue`` of ``(stamp, key)`` snapshots so ``queue.pop()``
yields the oldest candidate; entries whose stamp changed since the
snapshot (the file was touched again) or whose residency bit cleared
are stale and skipped.  When the queue drains, it is rebuilt in one
batch scan of the residency bitmap.  Rebuilds are rare — every resident
file must be re-touched before a second rebuild can include it — so the
amortized eviction cost stays near one list pop.

Tail installs (the aggregating cache's *unconfirmed companion* end)
stamp newcomers from a globally *decreasing* ``cold`` counter, so the
most recent unconfirmed install is the coldest entry — exactly
:meth:`LRUCache.install_group_at_tail` order, where the last companion
placed is the first victim.  Cold installs are additionally pushed on a
flat LIFO ``cold_stack``; because cold stamps only ever decrease, a
*valid* stack top is always the global minimum stamp, giving the common
install-then-evict cycle an O(1) victim without consulting the queue.

Design note — why stamps, not an intrusive doubly-linked list: a
``prev[]``/``next[]`` DLL keeps the exact order eagerly but touches ~6
array cells per hit (unlink + relink at head) plus head/tail
bookkeeping; measured on this interpreter a list store is ~13ns while
the DLL splice costs ~10 indexed ops.  The stamp design moves that
work to the *miss* path (where a group fetch already dwarfs it) and
makes the hit path a single store.  The batch queue rebuild and the
ordered export share one residency-bitmap scan (``bytearray.find``, a
C loop); ``array('q')`` stamp storage was rejected because its boxed
stores measure ~3x a plain list store.

The replay kernel (:func:`repro.sim.kernel.replay_columns_v2`) uses
instances as state containers and inlines these operations on local
bindings; the class methods are the reference semantics, held to
:class:`LRUCache` count-for-count by the differential tests in
``tests/test_array_lru.py``.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

from ..errors import CacheConfigurationError


def _resident_pairs(in_cache: bytearray, stamp: list) -> List[tuple]:
    """Every resident's ``(stamp, key)`` pair, in key order.

    ``bytearray.find`` walks the residency bitmap in C, so the python
    loop runs once per resident, not once per code.
    """
    find = in_cache.find
    pairs = []
    append = pairs.append
    position = find(1)
    while position >= 0:
        append((stamp[position], position))
        position = find(1, position + 1)
    return pairs


def refill_queue(queue: list, in_cache: bytearray, stamp: list) -> None:
    """Rebuild the lazy eviction queue from the live arrays.

    Appends every resident ``(stamp, key)`` pair to ``queue`` in
    *descending* stamp order, so ``queue.pop()`` yields the
    least-recently-stamped resident.  The caller only invokes this when
    the queue has drained; with at least one resident the refill is
    never empty, so eviction always terminates.
    """
    pairs = _resident_pairs(in_cache, stamp)
    pairs.sort(reverse=True)
    queue.extend(pairs)


class ArrayLRU:
    """Exact LRU over dense integer keys, backed by flat arrays.

    ``capacity`` bounds residency; ``universe`` is the key space size
    (keys must be ints in ``[0, universe)`` — columnar file codes).
    Semantics mirror :class:`~repro.caching.lru.LRUCache` operation for
    operation: ``access`` is the demand path (hit-promote or
    evict-and-admit), ``install_tail`` is the batch companion install
    at the eviction end, ``evict`` pops the exact least-recently-used
    resident.
    """

    __slots__ = (
        "capacity",
        "universe",
        "stamp",
        "in_cache",
        "size",
        "clock",
        "cold",
        "cold_stack",
        "queue",
    )

    def __init__(self, capacity: int, universe: int):
        if capacity <= 0:
            raise CacheConfigurationError(
                f"cache capacity must be positive, got {capacity}"
            )
        if universe < 0:
            raise CacheConfigurationError(
                f"key universe must be >= 0, got {universe}"
            )
        self.capacity = capacity
        self.universe = universe
        self.stamp: List[int] = [0] * universe
        self.in_cache = bytearray(universe)
        self.size = 0
        #: Monotone hot clock; every touch stamps and advances it.
        self.clock = 0
        #: Decreasing cold clock for tail installs; always below every
        #: stamp ever issued, so unconfirmed companions sort before all
        #: demanded files and newer installs sort before older ones.
        self.cold = -1
        #: Flat LIFO of (key, stamp) pushes — stored as alternating
        #: ``key, stamp`` ints — for cold-installed entries.  A valid
        #: top is always the globally coldest resident.
        self.cold_stack: List[int] = []
        #: Lazy eviction queue: (stamp, key) snapshots, descending, so
        #: ``pop()`` is the oldest.  Stale entries are skipped on pop.
        self.queue: List[tuple] = []

    # -- construction / export -------------------------------------------

    @classmethod
    def from_keys(
        cls, keys: Iterable[int], capacity: int, universe: int
    ) -> "ArrayLRU":
        """Build from resident keys in LRU-to-MRU order.

        Imported entries get *negative* stamps (``-size .. -1``) so the
        hot clock can start at 0 without colliding, and the cold clock
        starts below them all — exactly how the replay kernel imports a
        warm :class:`LRUCache` between replays.
        """
        cache = cls(capacity, universe)
        stamp = cache.stamp
        in_cache = cache.in_cache
        resident = list(keys)
        for position, key in enumerate(resident, -len(resident)):
            stamp[key] = position
            in_cache[key] = 1
        cache.size = len(resident)
        cache.cold = -len(resident) - 1
        return cache

    def export(self) -> List[int]:
        """Resident keys in LRU-to-MRU order (the ``OrderedDict`` order)."""
        pairs = _resident_pairs(self.in_cache, self.stamp)
        pairs.sort()
        return [key for _stamp, key in pairs]

    def keys(self) -> List[int]:
        """Alias of :meth:`export`, matching ``LRUCache.keys`` order."""
        return self.export()

    def clear(self) -> None:
        """Drop every resident and reset the clocks."""
        self.in_cache = bytearray(self.universe)
        self.stamp = [0] * self.universe
        self.size = 0
        self.clock = 0
        self.cold = -1
        self.cold_stack = []
        self.queue = []

    # -- core operations --------------------------------------------------

    def __contains__(self, key: int) -> bool:
        return bool(self.in_cache[key])

    def __len__(self) -> int:
        return self.size

    def touch(self, key: int) -> bool:
        """Promote ``key`` to MRU if resident; returns whether it was."""
        if self.in_cache[key]:
            self.stamp[key] = self.clock
            self.clock += 1
            return True
        return False

    def admit(self, key: int) -> None:
        """Admit a non-resident key at the MRU end (no capacity check —
        the demand path evicts first, mirroring the dict cache)."""
        self.in_cache[key] = 1
        self.stamp[key] = self.clock
        self.clock += 1
        self.size += 1

    def access(self, key: int) -> bool:
        """Demand access: promote on hit, evict-to-fit and admit on miss.

        Returns True on hit — the same contract as
        :meth:`repro.caching.base.Cache.access`, minus the stats object
        (callers batch their own counts).
        """
        if self.in_cache[key]:
            self.stamp[key] = self.clock
            self.clock += 1
            return True
        while self.size >= self.capacity:
            self.evict()
        self.admit(key)
        return False

    def evict(self) -> int:
        """Remove and return the exact least-recently-used resident.

        A valid ``cold_stack`` top beats the queue (cold stamps only
        decrease, so the newest valid cold entry is the global
        minimum); otherwise stale queue entries are skipped until a
        live one surfaces, rebuilding the queue when it drains.
        """
        if self.size == 0:
            raise KeyError("evict from an empty ArrayLRU")
        in_cache = self.in_cache
        stamp = self.stamp
        cold_stack = self.cold_stack
        victim = -1
        while cold_stack:
            snapshot = cold_stack.pop()
            key = cold_stack.pop()
            if in_cache[key] and stamp[key] == snapshot:
                victim = key
                break
        if victim < 0:
            queue = self.queue
            while True:
                if queue:
                    snapshot, key = queue.pop()
                    if in_cache[key] and stamp[key] == snapshot:
                        victim = key
                        break
                    continue
                refill_queue(queue, in_cache, stamp)
        in_cache[victim] = 0
        self.size -= 1
        return victim

    def install_tail(self, keys: Iterable[int]) -> int:
        """Batch-install companions at the LRU end; returns installs.

        Count-for-count :meth:`LRUCache.install_group_at_tail`: dedupe
        non-residents keeping order, trim to ``capacity - 1`` so the
        demanded MRU file survives, evict the overflow from the old
        tail *before* placing, then stamp newcomers from the cold clock
        so the last one placed is the next victim.
        """
        in_cache = self.in_cache
        newcomers: Optional[List[int]] = None
        for key in keys:
            if not in_cache[key]:
                if newcomers is None:
                    newcomers = [key]
                elif key not in newcomers:
                    newcomers.append(key)
        if newcomers is None:
            return 0
        capacity = self.capacity
        limit = capacity - 1 if capacity > 1 else 0
        if len(newcomers) > limit:
            del newcomers[limit:]
            if not newcomers:
                return 0
        overflow = self.size + len(newcomers) - capacity
        for _ in range(overflow if overflow > 0 else 0):
            self.evict()
        stamp = self.stamp
        cold = self.cold
        push = self.cold_stack.append
        for key in newcomers:
            in_cache[key] = 1
            stamp[key] = cold
            push(key)
            push(cold)
            cold -= 1
        self.cold = cold
        self.size += len(newcomers)
        return len(newcomers)
