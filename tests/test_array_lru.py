"""Differential tests for the array-backed eviction core.

The batch replay kernel's correctness rests on two flat-array state
machines being *count-identical* to their dict-based references:
:class:`repro.caching.array_lru.ArrayLRU` vs
:class:`repro.caching.lru.LRUCache`, and
:class:`repro.core.successors.ArraySuccessorTracker` vs
:class:`repro.core.successors.SuccessorTracker`.  Hypothesis drives
both sides of each pair with identical operation streams and asserts
identical hit/miss results and identical LRU order after every
operation — with numpy loaded and with numpy unimportable.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.caching.array_lru import ArrayLRU
from repro.caching.lru import LRUCache
from repro.core.successors import ArraySuccessorTracker, SuccessorTracker
from repro.errors import CacheConfigurationError
from tests.numpy_hosts import NUMPY_HOSTS, numpy_host

#: Small key space so hypothesis streams collide constantly — hits,
#: repeat installs, and full-capacity evictions all get exercised.
UNIVERSE = 16


def _operations():
    """Streams of demand accesses and batch tail installs."""
    key = st.integers(min_value=0, max_value=UNIVERSE - 1)
    return st.lists(
        st.one_of(
            st.tuples(st.just("access"), key),
            st.tuples(st.just("install"), st.lists(key, max_size=6)),
        ),
        max_size=80,
    )


def run_differential(capacity, operations):
    """Drive both caches with one stream; assert identical behaviour."""
    dict_cache = LRUCache(capacity)
    array_cache = ArrayLRU(capacity, UNIVERSE)
    for op, payload in operations:
        if op == "access":
            dict_result = dict_cache.access(payload)
            array_result = array_cache.access(payload)
        else:
            dict_result = dict_cache.install_group_at_tail(list(payload))
            array_result = array_cache.install_tail(list(payload))
        # Identical hit/miss result or install count, event for event.
        assert array_result == dict_result
        # Identical contents in identical LRU-to-MRU order, so every
        # eviction took the same victim.
        assert array_cache.export() == list(dict_cache.keys())
        assert len(array_cache) == len(dict_cache)


class TestArrayLRUDifferential:
    @pytest.mark.parametrize("host", NUMPY_HOSTS)
    @given(capacity=st.integers(min_value=1, max_value=8), ops=_operations())
    @settings(max_examples=120, deadline=None)
    def test_matches_dict_lru(self, host, capacity, ops):
        with numpy_host(host):
            run_differential(capacity, ops)

    def test_long_adversarial_stream(self, numpy_host_leg):
        """A long seeded stream at tiny capacity: the queue drains and
        refills many times, cold-stack entries go stale, and the two
        caches must still agree on every single event."""
        rng = random.Random(0xA11)
        operations = []
        for _ in range(4000):
            if rng.random() < 0.75:
                operations.append(("access", rng.randrange(UNIVERSE)))
            else:
                group = [rng.randrange(UNIVERSE) for _ in range(rng.randrange(6))]
                operations.append(("install", group))
        run_differential(capacity=5, operations=operations)

    def test_warm_import_matches_dict_lru(self, numpy_host_leg):
        """`from_keys` seeds the same state as a warmed dict cache."""
        warm = [7, 2, 9, 4]
        dict_cache = LRUCache(5)
        for key in warm:
            dict_cache.access(key)
        array_cache = ArrayLRU.from_keys(warm, capacity=5, universe=UNIVERSE)
        assert array_cache.export() == warm
        # The imported LRU entry is the first demand-miss victim.
        dict_cache.access(11)
        dict_cache.access(12)
        array_cache.access(11)
        array_cache.access(12)
        assert array_cache.export() == list(dict_cache._order)


class TestArrayLRUUnit:
    def test_rejects_bad_configuration(self):
        with pytest.raises(CacheConfigurationError):
            ArrayLRU(0, UNIVERSE)
        with pytest.raises(CacheConfigurationError):
            ArrayLRU(4, -1)

    def test_evict_from_empty_raises(self):
        with pytest.raises(KeyError):
            ArrayLRU(4, UNIVERSE).evict()

    def test_touch_promotes_only_residents(self):
        cache = ArrayLRU(3, UNIVERSE)
        assert not cache.touch(5)
        for key in (1, 2, 3):
            cache.access(key)
        assert cache.touch(1)
        assert cache.export() == [2, 3, 1]
        cache.access(4)  # evicts 2, the exact LRU after the promotion
        assert cache.export() == [3, 1, 4]

    def test_install_tail_trims_and_orders_victims(self):
        cache = ArrayLRU(4, UNIVERSE)
        cache.access(1)
        installed = cache.install_tail([2, 3, 2, 4, 5])
        # Deduped to [2, 3, 4, 5], trimmed to capacity - 1 = 3.
        assert installed == 3
        assert cache.export() == [4, 3, 2, 1]
        # Last companion placed is the first victim, then the others.
        cache.access(6)
        assert cache.export() == [3, 2, 1, 6]
        cache.access(7)
        assert cache.export() == [2, 1, 6, 7]
        cache.access(8)
        assert cache.export() == [1, 6, 7, 8]

    def test_install_tail_is_noop_at_capacity_one(self):
        cache = ArrayLRU(1, UNIVERSE)
        cache.access(3)
        assert cache.install_tail([4, 5]) == 0
        assert cache.export() == [3]

    def test_clear_resets_everything(self):
        cache = ArrayLRU(3, UNIVERSE)
        for key in (1, 2, 3, 4):
            cache.access(key)
        cache.install_tail([5])
        cache.clear()
        assert len(cache) == 0
        assert cache.export() == []
        assert 2 not in cache
        cache.access(6)
        assert cache.export() == [6]


class TestArraySuccessorTrackerDifferential:
    @given(
        capacity=st.integers(min_value=1, max_value=5),
        warm=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30
        ),
        batch=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=30
        ),
    )
    @settings(max_examples=120, deadline=None)
    def test_matches_dict_tracker(self, capacity, warm, batch):
        """warm transitions via the dict tracker, then a batch via the
        array form folded back, equals one tracker fed everything."""
        reference = SuccessorTracker(policy="lru", capacity=capacity)
        target = SuccessorTracker(policy="lru", capacity=capacity)
        for predecessor, successor in warm:
            reference.observe_transition(predecessor, successor)
            target.observe_transition(predecessor, successor)
        array_tracker = ArraySuccessorTracker.from_tracker(target, universe=10)
        assert array_tracker is not None
        array_tracker.observe_batch(
            [pair[0] for pair in batch], [pair[1] for pair in batch]
        )
        array_tracker.fold_into(target)
        for predecessor, successor in batch:
            reference.observe_transition(predecessor, successor)
        for code in range(10):
            assert target.successors(code) == reference.successors(code)
            assert array_tracker.predict(code) == reference.successors(code)

    def test_shared_slots_mutate_tracker_in_place(self):
        tracker = SuccessorTracker(policy="lru", capacity=4)
        tracker.observe_transition(1, 2)
        array_tracker = ArraySuccessorTracker.from_tracker(tracker, universe=10)
        array_tracker.observe_batch([1], [3])
        # No fold needed for a known predecessor: the list is shared.
        assert tracker.successors(1) == [3, 2]

    def test_dummy_slot_absorbs_unknown_previous(self):
        array_tracker = ArraySuccessorTracker(capacity=4, universe=10)
        array_tracker.observe_batch([array_tracker.dummy], [5])
        tracker = SuccessorTracker(policy="lru", capacity=4)
        assert array_tracker.fold_into(tracker) == 0
        assert tracker.successors(5) == []

    def test_string_keyed_tracker_is_not_importable(self):
        tracker = SuccessorTracker(policy="lru", capacity=4)
        tracker.observe_transition("a", "b")
        assert ArraySuccessorTracker.from_tracker(tracker, universe=10) is None

    def test_out_of_range_entries_are_not_importable(self):
        tracker = SuccessorTracker(policy="lru", capacity=4)
        tracker.observe_transition(1, 99)
        assert ArraySuccessorTracker.from_tracker(tracker, universe=10) is None
