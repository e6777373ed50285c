"""Multi-Queue (MQ) cache — Zhou, Philbin & Li, USENIX ATC 2001.

The paper's related-work section points to MQ as the contemporaneous
answer to the same problem its Section 4.3 studies: second-level
(server) buffer caches whose locality has been stripped by a first-level
cache.  Implementing MQ lets the benchmark harness compare the
aggregating cache against the strongest non-predictive second-level
policy of its era.

Algorithm sketch (following the ATC'01 paper):

* ``m`` LRU queues ``Q0..Q(m-1)``; a block whose lifetime access count
  is ``f`` lives in queue ``min(floor(log2 f), m-1)``.
* Every resident block carries ``expire_time = now + life_time``; when
  the head of a queue expires it is demoted one queue down (aging), so
  once-hot blocks eventually become evictable.
* The victim is the LRU head of the lowest non-empty queue.
* ``Qout``, a FIFO history of bounded size, remembers the access counts
  of recently evicted blocks so a quick re-reference re-enters at its
  old frequency level.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from .base import Cache


@dataclass
class _MQEntry:
    """Per-resident-block MQ metadata."""

    frequency: int
    queue_index: int
    expire_time: int


class MQCache(Cache):
    """Multi-Queue replacement with frequency history (Qout)."""

    policy_name = "mq"

    def __init__(
        self,
        capacity: int,
        queue_count: int = 8,
        life_time: Optional[int] = None,
        history_capacity: Optional[int] = None,
    ):
        super().__init__(capacity)
        if queue_count <= 0:
            raise ValueError("queue_count must be positive")
        self.queue_count = queue_count
        # Zhou et al. recommend the observed peak temporal distance; a
        # small multiple of capacity is the standard online surrogate.
        self.life_time = life_time if life_time is not None else 2 * capacity
        self.history_capacity = (
            history_capacity if history_capacity is not None else 4 * capacity
        )
        self._queues = [OrderedDict() for _ in range(queue_count)]
        self._entries: Dict[str, _MQEntry] = {}
        self._history: "OrderedDict[str, int]" = OrderedDict()
        self._clock = 0

    def _queue_for(self, frequency: int) -> int:
        """Queue index for a block with lifetime access count ``frequency``."""
        index = frequency.bit_length() - 1  # floor(log2 f) for f >= 1
        return min(index, self.queue_count - 1)

    def _enqueue(self, key: str, frequency: int) -> None:
        index = self._queue_for(frequency)
        self._queues[index][key] = None
        self._entries[key] = _MQEntry(
            frequency=frequency,
            queue_index=index,
            expire_time=self._clock + self.life_time,
        )

    def _dequeue(self, key: str) -> _MQEntry:
        entry = self._entries.pop(key)
        del self._queues[entry.queue_index][key]
        return entry

    def _age(self) -> None:
        """Demote expired queue heads one level (the MQ Adjust step)."""
        for index in range(1, self.queue_count):
            queue = self._queues[index]
            if not queue:
                continue
            head = next(iter(queue))
            entry = self._entries[head]
            if entry.expire_time < self._clock:
                del queue[head]
                entry.queue_index = index - 1
                entry.expire_time = self._clock + self.life_time
                self._queues[index - 1][head] = None

    def _lookup(self, key: str) -> bool:
        self._clock += 1
        self._age()
        if key not in self._entries:
            return False
        entry = self._dequeue(key)
        self._enqueue(key, entry.frequency + 1)
        return True

    def _admit(self, key: str) -> None:
        remembered = self._history.pop(key, 0)
        self._enqueue(key, remembered + 1)

    def _evict_one(self) -> str:
        for queue in self._queues:
            if queue:
                key, _ = queue.popitem(last=False)
                entry = self._entries.pop(key)
                self._remember(key, entry.frequency)
                return key
        raise RuntimeError("evict from empty MQCache")  # pragma: no cover

    def _remember(self, key: str, frequency: int) -> None:
        """Record an evicted block's count in the Qout history."""
        if self.history_capacity <= 0:
            return
        self._history[key] = frequency
        self._history.move_to_end(key)
        while len(self._history) > self.history_capacity:
            self._history.popitem(last=False)

    def _remove(self, key: str) -> None:
        self._dequeue(key)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> Iterator[str]:
        return iter(list(self._entries))

    def queue_index_of(self, key: str) -> int:
        """Which queue a resident key currently occupies (for tests)."""
        return self._entries[key].queue_index
