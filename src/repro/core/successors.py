"""Per-file immediate successor tracking (paper Sections 2.2, 3, 4.4).

The aggregating cache's entire metadata footprint is one short list per
file: the file's most likely *immediate successors*.  The paper's key
empirical finding about this metadata (Figure 5) is that **recency beats
frequency** as the replacement policy for these lists — "pure LRU
replacement is consistently superior" — and that a handful of entries
per file closely matches an oracle with unbounded memory.

This module provides the three list policies the paper evaluates (LRU,
LFU, Oracle), the :class:`SuccessorTracker` that maintains one list per
file over an access stream, and the Figure 5 evaluator
:func:`evaluate_successor_misses`.
"""

from __future__ import annotations

import abc
from collections import Counter, OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence

from ..errors import CacheConfigurationError
from ..obs import registry as _obs
from ..obs import tracing as _tracing

#: Sentinel capacity meaning "unbounded" (used by the oracle policy).
UNBOUNDED = 0


class SuccessorList(abc.ABC):
    """A bounded list of one file's likely immediate successors.

    ``observe`` records that a successor followed the file once more;
    ``predict`` returns the candidates in most-likely-first order, which
    is what group construction chains on.
    """

    policy_name = "successors"

    def __init__(self, capacity: int):
        if capacity < 0:
            raise CacheConfigurationError(
                f"successor list capacity must be >= 0, got {capacity}"
            )
        self.capacity = capacity

    @abc.abstractmethod
    def observe(self, successor: str) -> None:
        """Record one observed immediate successor."""

    @abc.abstractmethod
    def predict(self) -> List[str]:
        """Candidates, most likely first."""

    @abc.abstractmethod
    def __contains__(self, successor: str) -> bool:
        """Whether the successor is currently retained."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of retained successors."""

    def most_likely(self) -> Optional[str]:
        """The single most likely successor, or None when empty."""
        candidates = self.predict()
        return candidates[0] if candidates else None


class LRUSuccessorList(SuccessorList):
    """Recency-managed successor list — the paper's recommended policy.

    The most recently observed successor is the most likely; when the
    list is full the least recently observed entry is evicted.
    """

    policy_name = "lru"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        if capacity == UNBOUNDED:
            raise CacheConfigurationError("LRU successor lists must be bounded")
        #: Retained successors, most recently observed first.  A plain
        #: list beats an OrderedDict here: capacity is a handful of
        #: entries (the paper's finding is ~4-8 suffice), so C-level
        #: ``remove``/``insert`` on a short list outruns hashing, and
        #: prediction order is the list itself — no reversal, no copy of
        #: dict keys.  The replay kernels index these lists directly
        #: (``slist._items``) and the array successor tracker shares
        #: them in place, which is what makes its chunk-boundary fold
        #: free for already-known predecessors.  ``observe`` tests
        #: membership before ``remove``: most non-repeat transitions
        #: bring a successor the list does not hold (first-ever
        #: successors miss for every policy, Section 4.5), and such an
        #: update costs about 2.7 times as much when ``remove`` raises
        #: ``ValueError`` as when an ``in`` scan of the few entries
        #: comes first (0.37 against 0.14 us for 8 int entries on
        #: CPython 3.11).  Every replay loop updates the lists the same
        #: way.
        self._items: List[str] = []

    def observe(self, successor: str) -> None:
        items = self._items
        if items:
            if items[0] == successor:
                return
            if successor in items:
                items.remove(successor)
            elif len(items) >= self.capacity:
                items.pop()
        items.insert(0, successor)

    def predict(self) -> List[str]:
        return list(self._items)

    def __contains__(self, successor: str) -> bool:
        return successor in self._items

    def __len__(self) -> int:
        return len(self._items)


class LFUSuccessorList(SuccessorList):
    """Frequency-managed successor list — the paper's straw man.

    Retains the successors with the highest observation counts; when
    full, the entry with the lowest count is evicted (oldest first on
    ties).  A new successor always misses the list's retention if every
    retained entry already has a higher count — exactly the sluggishness
    that makes frequency lose to recency on shifting workloads.
    """

    policy_name = "lfu"

    def __init__(self, capacity: int):
        super().__init__(capacity)
        if capacity == UNBOUNDED:
            raise CacheConfigurationError("LFU successor lists must be bounded")
        self._counts: "OrderedDict[str, int]" = OrderedDict()

    def observe(self, successor: str) -> None:
        if successor in self._counts:
            self._counts[successor] += 1
            return
        if len(self._counts) >= self.capacity:
            victim = min(self._counts, key=self._counts.get)
            del self._counts[victim]
        self._counts[successor] = 1

    def predict(self) -> List[str]:
        # Most frequent first; insertion order (older first) breaks ties
        # deterministically.
        return sorted(self._counts, key=lambda s: -self._counts[s])

    def __contains__(self, successor: str) -> bool:
        return successor in self._counts

    def __len__(self) -> int:
        return len(self._counts)

    def count_of(self, successor: str) -> int:
        """Observation count of a retained successor (for tests)."""
        return self._counts[successor]


class OracleSuccessorList(SuccessorList):
    """Unbounded memory of every successor ever observed.

    The paper's upper bound: "an oracle that has perfect knowledge of
    all previously observed immediate successor events... the best
    performance possible by any on-line algorithm regardless of
    state-space limitations."  Its only misses are successors never
    seen before.
    """

    policy_name = "oracle"

    def __init__(self, capacity: int = UNBOUNDED):
        super().__init__(UNBOUNDED)
        self._counts: Counter = Counter()
        self._recency: "OrderedDict[str, None]" = OrderedDict()

    def observe(self, successor: str) -> None:
        self._counts[successor] += 1
        if successor in self._recency:
            self._recency.move_to_end(successor)
        else:
            self._recency[successor] = None

    def predict(self) -> List[str]:
        # Most frequent first, recency breaking ties — the best estimate
        # available to unbounded state.
        recency_rank = {s: i for i, s in enumerate(self._recency)}
        return sorted(
            self._counts, key=lambda s: (-self._counts[s], -recency_rank[s])
        )

    def __contains__(self, successor: str) -> bool:
        return successor in self._counts

    def __len__(self) -> int:
        return len(self._counts)


class HybridSuccessorList(SuccessorList):
    """Exponentially decayed frequency — recency and frequency combined.

    The paper's closing question: "The ideal likelihood estimate may
    well be based on a combination of recency and frequency, but the
    exact nature of such an ideal is a subject of future
    investigation."  This list investigates the classical combination:
    each successor's score is a frequency count whose past decays
    geometrically per observation, ``score = 1 + decay * old_score``
    on re-observation and ``score *= decay`` for everyone else.

    ``decay = 0`` reduces to pure recency (only the latest observation
    has weight); ``decay -> 1`` approaches pure frequency.  The
    default 0.8 sits in between.
    """

    policy_name = "hybrid"

    #: Score decay applied to every retained successor per observation.
    DEFAULT_DECAY = 0.8

    #: Rescale the lazily inflated scores once the common factor grows
    #: past this bound, keeping floats finite.  Rescaling touches every
    #: retained entry but fires only every ``log(BOUND)/log(1/decay)``
    #: observations, so ``observe`` stays amortized O(1).
    _INFLATION_BOUND = 1e100

    def __init__(self, capacity: int, decay: float = DEFAULT_DECAY):
        super().__init__(capacity)
        if capacity == UNBOUNDED:
            raise CacheConfigurationError("hybrid successor lists must be bounded")
        if not 0.0 <= decay < 1.0:
            raise CacheConfigurationError(
                f"decay must be in [0, 1), got {decay}"
            )
        self.decay = decay
        # Lazy global decay: instead of multiplying every retained score
        # by ``decay`` per observation (O(capacity) per event), scores
        # are stored pre-multiplied by a shared inflation factor
        # ``decay ** -stamp``; one observation only bumps the factor and
        # touches the observed entry.  Effective score = stored /
        # inflation, and since the factor is common and positive, stored
        # scores order exactly like effective ones.
        self._scores: Dict[str, float] = {}
        self._inflation = 1.0
        #: Monotone tiebreaker: later observation wins score ties.
        self._stamp = 0
        self._last_seen: Dict[str, int] = {}

    def observe(self, successor: str) -> None:
        self._stamp += 1
        decay = self.decay
        scores = self._scores
        if decay > 0.0:
            self._inflation /= decay
            if self._inflation > self._INFLATION_BOUND:
                self._rescale()
            bump = self._inflation
        else:
            # Total decay: every older entry's effective score is
            # exactly 0; the observed successor's becomes exactly 1.
            # Representing that lazily, "stored == stamp at last
            # observation" lets predict()/score_of() recover it without
            # touching the other entries.
            bump = None
        if successor in scores:
            if bump is None:
                scores[successor] = 1.0
            else:
                scores[successor] += bump
        else:
            if len(scores) >= self.capacity:
                last_seen = self._last_seen
                if bump is None:
                    # All retained effective scores are 0 here (the
                    # stamp was just advanced), so only recency ranks.
                    victim = min(scores, key=last_seen.__getitem__)
                else:
                    # Stored scores share one positive inflation
                    # factor, so they rank exactly like effective ones.
                    victim = min(
                        scores,
                        key=lambda s: (scores[s], last_seen[s]),
                    )
                del scores[victim]
                del last_seen[victim]
            scores[successor] = 1.0 if bump is None else bump
        self._last_seen[successor] = self._stamp

    def _rescale(self) -> None:
        """Fold the inflation factor back into the stored scores."""
        inflation = self._inflation
        for retained in self._scores:
            self._scores[retained] /= inflation
        self._inflation = 1.0

    def _effective(self, successor: str) -> float:
        """The true decayed score of a retained successor."""
        if self.decay > 0.0:
            return self._scores[successor] / self._inflation
        return 1.0 if self._last_seen[successor] == self._stamp else 0.0

    def predict(self) -> List[str]:
        if self.decay > 0.0:
            # Stored scores share one positive inflation factor, so they
            # sort identically to the effective scores.
            scores = self._scores
            last_seen = self._last_seen
            return sorted(
                scores, key=lambda s: (-scores[s], -last_seen[s])
            )
        last_seen = self._last_seen
        stamp = self._stamp
        return sorted(
            self._scores,
            key=lambda s: (
                -1.0 if last_seen[s] == stamp else 0.0,
                -last_seen[s],
            ),
        )

    def __contains__(self, successor: str) -> bool:
        return successor in self._scores

    def __len__(self) -> int:
        return len(self._scores)

    def score_of(self, successor: str) -> float:
        """Current decayed score of a retained successor (for tests)."""
        if successor not in self._scores:
            raise KeyError(successor)
        return self._effective(successor)


#: Policy-name registry for CLI/sweep construction.
SUCCESSOR_POLICIES = {
    "lru": LRUSuccessorList,
    "lfu": LFUSuccessorList,
    "hybrid": HybridSuccessorList,
    "oracle": OracleSuccessorList,
}


def make_successor_list(policy: str, capacity: int) -> SuccessorList:
    """Construct a successor list by policy name."""
    try:
        constructor = SUCCESSOR_POLICIES[policy]
    except KeyError:
        names = ", ".join(sorted(SUCCESSOR_POLICIES))
        raise KeyError(f"unknown successor policy {policy!r} (expected: {names})")
    return constructor(capacity)


class SuccessorTracker:
    """Maintains one successor list per file over an access stream.

    This is the server's relationship metadata (Figure 2): "Dynamic
    group construction is based on simple per-file metadata, consisting
    of immediate successor lists."  Feed it the access sequence with
    :meth:`observe` (it remembers the previous access) or
    :meth:`observe_transition` (explicit pairs).
    """

    def __init__(self, policy: str = "lru", capacity: int = 8):
        if policy not in SUCCESSOR_POLICIES:
            names = ", ".join(sorted(SUCCESSOR_POLICIES))
            raise KeyError(f"unknown successor policy {policy!r} (expected: {names})")
        self.policy = policy
        self.capacity = capacity
        self._lists: Dict[str, SuccessorList] = {}
        self._previous: Optional[str] = None

    def observe(self, file_id: str) -> None:
        """Record the next access in the stream."""
        if self._previous is not None:
            self.observe_transition(self._previous, file_id)
        self._previous = file_id

    def observe_transition(self, predecessor: str, successor: str) -> None:
        """Record that ``successor`` immediately followed ``predecessor``."""
        slist = self._lists.get(predecessor)
        if slist is None:
            slist = make_successor_list(self.policy, self.capacity)
            self._lists[predecessor] = slist
        if _obs.ENABLED:
            _obs.get_registry().counter("successors.transitions").inc()
            recorder = _tracing.ACTIVE
            if recorder is not None:
                new = successor not in slist
                slist.observe(successor)
                recorder.group_update(predecessor, successor, new, len(slist))
                return
        slist.observe(successor)

    def observe_sequence(self, sequence: Iterable[str]) -> None:
        """Feed a whole access sequence through :meth:`observe`."""
        for file_id in sequence:
            self.observe(file_id)

    def reset_stream(self) -> None:
        """Forget the previous access (e.g. across trace boundaries)."""
        self._previous = None

    def successors(self, file_id: str) -> List[str]:
        """Predicted successors of a file, most likely first."""
        slist = self._lists.get(file_id)
        return slist.predict() if slist is not None else []

    def most_likely(self, file_id: str) -> Optional[str]:
        """The most likely immediate successor, or None if unknown."""
        slist = self._lists.get(file_id)
        return slist.most_likely() if slist is not None else None

    def probe(self, predecessor: str, successor: str) -> bool:
        """Whether ``successor`` is currently retained on ``predecessor``'s
        list, with no side effects — the fair check-then-update primitive
        online evaluations need (Figure 5).
        """
        slist = self._lists.get(predecessor)
        retained = slist is not None and successor in slist
        if _obs.ENABLED:
            registry = _obs.get_registry()
            if retained:
                registry.counter("successors.probe.hits").inc()
            else:
                registry.counter("successors.probe.misses").inc()
        return retained

    def would_miss(self, predecessor: str, successor: str) -> bool:
        """Whether predicting ``predecessor``'s successors right now would
        miss ``successor`` — i.e. the metadata does not retain it.
        """
        return not self.probe(predecessor, successor)

    def has_metadata_for(self, file_id: str) -> bool:
        """Whether any successor has ever been observed for the file."""
        return file_id in self._lists

    def tracked_files(self) -> Iterator[str]:
        """Files that currently carry successor metadata."""
        return iter(self._lists)

    def metadata_entries(self) -> int:
        """Total successor entries retained across all lists.

        The aggregating cache's whole metadata budget, in entries —
        useful for the paper's "minimal metadata" claims.
        """
        return sum(len(slist) for slist in self._lists.values())


class ArraySuccessorTracker:
    """Flat successor-slot state over dense integer codes.

    The batch replay kernel's view of a :class:`SuccessorTracker`: one
    slot per file code instead of a dict keyed by file id.  Two flat
    arrays carry the hot path:

    ``slots[code]``
        the predecessor's successor list — the *same* ``_items`` list
        object the tracker's :class:`LRUSuccessorList` holds, shared in
        place.  Mutating a slot mutates the canonical tracker state, so
        folding back at a chunk boundary costs nothing for any
        predecessor the tracker already knew.
    ``heads[code]``
        a cache of ``slots[code][0]`` — the most recent successor —
        letting the kernel's per-event no-op check (``heads[prev] !=
        successor``, the overwhelmingly common repeat transition) skip
        the list access entirely, and letting each group-build step
        start from the frontier's head.  The kernel keeps it in sync on
        every slot mutation.

    Predecessors first observed *during* the replay accumulate in
    ``new_preds``; :meth:`fold_into` wraps their slot lists into real
    ``LRUSuccessorList`` objects (sharing, not copying) and registers
    them with the tracker.  One extra slot — ``self.dummy`` — absorbs
    observations with no predecessor (``prev is None``), so the kernel
    loop needs no per-event None check; the dummy slot is never folded.

    Observation semantics are exactly ``LRUSuccessorList.observe``
    (asserted against the canonical tracker by the differential tests);
    :meth:`observe_batch` is the reference bulk form the kernel inlines.
    """

    __slots__ = ("capacity", "universe", "dummy", "slots", "heads", "new_preds")

    def __init__(self, capacity: int, universe: int):
        if capacity <= 0:
            raise CacheConfigurationError(
                f"successor slot capacity must be positive, got {capacity}"
            )
        self.capacity = capacity
        self.universe = universe
        # Codes run over [0, universe); the one slot past them is the
        # dummy.
        self.dummy = universe
        self.slots: List[Optional[List[int]]] = [None] * (universe + 1)
        self.heads: List[Optional[int]] = [None] * (universe + 1)
        self.new_preds: List[int] = []

    @classmethod
    def from_tracker(
        cls, tracker: "SuccessorTracker", universe: int
    ) -> Optional["ArraySuccessorTracker"]:
        """Share a tracker's lists into slot form, or None if it can't.

        Importable state means every list key and every retained entry
        is an int code in ``[0, universe)`` — keys and entries become
        group-build frontiers and companions, which the kernel indexes
        straight into its arrays.  A fresh tracker imports for free; a
        string-keyed one (a prior event-trace replay) returns None and
        the caller replays the decoded events instead.
        """
        array = cls(tracker.capacity, universe)
        slots = array.slots
        heads = array.heads
        for key, slist in tracker._lists.items():
            if not (type(key) is int and 0 <= key < universe):
                return None
            items = slist._items
            for entry in items:
                if not (type(entry) is int and 0 <= entry < universe):
                    return None
            slots[key] = items
            if items:
                heads[key] = items[0]
        return array

    def observe_batch(self, predecessors, successors) -> None:
        """Fold flat ``(pred, succ)`` observation pairs, in order.

        The reference form of the kernel's inlined update: one slot
        mutation per non-repeat transition, heads kept in sync.
        """
        slots = self.slots
        heads = self.heads
        capacity = self.capacity
        new_preds = self.new_preds
        for predecessor, successor in zip(predecessors, successors):
            if heads[predecessor] == successor:
                continue
            items = slots[predecessor]
            if items is None:
                slots[predecessor] = [successor]
                new_preds.append(predecessor)
            else:
                if successor in items:
                    items.remove(successor)
                elif len(items) >= capacity:
                    items.pop()
                items.insert(0, successor)
            heads[predecessor] = successor

    def predict(self, code: int) -> List[int]:
        """Successors of a code, most likely first (a copy)."""
        items = self.slots[code]
        return list(items) if items is not None else []

    def fold_into(self, tracker: "SuccessorTracker") -> int:
        """Register replay-discovered predecessors with the tracker.

        Existing predecessors need nothing — their list objects were
        shared all along.  Each new predecessor's slot list is wrapped
        (shared, not copied) into a ``LRUSuccessorList``; the dummy
        slot is skipped.  Returns how many lists were added, and resets
        ``new_preds`` so a session can fold once per chunk.
        """
        dummy = self.dummy
        slots = self.slots
        lists = tracker._lists
        capacity = self.capacity
        added = 0
        for predecessor in self.new_preds:
            if predecessor == dummy or predecessor in lists:
                continue
            slist = LRUSuccessorList(capacity)
            slist._items = slots[predecessor]
            lists[predecessor] = slist
            added += 1
        self.new_preds = []
        return added


@dataclass
class SuccessorMissReport:
    """Outcome of replaying a stream against successor lists (Figure 5).

    ``opportunities`` counts every transition whose predecessor could in
    principle be predicted (i.e., every consecutive pair); ``misses``
    counts the transitions whose actual successor was absent from the
    predecessor's list at prediction time.  First-ever successors are
    misses for every policy, including the oracle — "an on-line
    predictive algorithm cannot be expected to predict a symbol that it
    has never encountered before" (Section 4.5).
    """

    policy: str
    capacity: int
    opportunities: int
    misses: int

    @property
    def miss_probability(self) -> float:
        """P(a future successor was not retained), the Figure 5 y-axis."""
        if not self.opportunities:
            return 0.0
        return self.misses / self.opportunities


def evaluate_successor_misses(
    sequence: Sequence[str], policy: str, capacity: int
) -> SuccessorMissReport:
    """Replay a sequence, measuring successor-list miss probability.

    For each consecutive pair ``(f, s)``: check whether ``s`` is already
    in ``f``'s list (miss if not), *then* observe the transition.  The
    check-then-update order is what makes this a fair online
    evaluation.  Weighting by file access frequency (Equation 2's
    weighting) happens naturally because every occurrence of ``f``
    contributes one trial.
    """
    tracker = SuccessorTracker(policy=policy, capacity=capacity)
    would_miss = tracker.would_miss
    observe_transition = tracker.observe_transition
    opportunities = 0
    misses = 0
    previous: Optional[str] = None
    for file_id in sequence:
        if previous is not None:
            opportunities += 1
            if would_miss(previous, file_id):
                misses += 1
            observe_transition(previous, file_id)
        previous = file_id
    return SuccessorMissReport(
        policy=policy,
        capacity=capacity,
        opportunities=opportunities,
        misses=misses,
    )
