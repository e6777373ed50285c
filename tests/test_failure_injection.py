"""Failure-injection and adversarial-input tests.

The aggregating cache is server infrastructure: it must stay correct
under churned metadata, hostile access patterns, concurrent
invalidation storms, and malformed trace input — not just on the happy
path the figures exercise.
"""

import random

import pytest

from repro.caching.lru import LRUCache
from repro.core.aggregating_cache import AggregatingClientCache, AggregatingServerCache
from repro.core.grouping import GroupBuilder
from repro.core.successors import SuccessorTracker


class TestAdversarialAccessPatterns:
    def test_pathological_self_loop_stream(self):
        cache = AggregatingClientCache(capacity=4, group_size=5)
        cache.replay(["same"] * 1000)
        assert cache.stats.hits == 999
        assert len(cache) <= 4
        # The only metadata is the self-edge; groups stay singletons.
        assert cache.tracker.successors("same") == ["same"]

    def test_all_unique_stream(self):
        cache = AggregatingClientCache(capacity=50, group_size=5)
        cache.replay([f"once{i}" for i in range(2000)])
        assert cache.stats.hits == 0
        assert cache.fetch_log.predicted_installed == 0
        assert len(cache) <= 50

    def test_adversarial_cycle_equal_to_capacity_plus_one(self):
        # The classic LRU-killer: cycle one larger than the cache.
        files = [f"f{i}" for i in range(11)]
        cache = AggregatingClientCache(capacity=10, group_size=5)
        cache.replay(files * 50)
        # Grouping must rescue what LRU cannot.
        lru = LRUCache(10)
        for key in files * 50:
            lru.access(key)
        assert lru.stats.hits == 0
        assert cache.stats.hits > 100

    def test_alternating_hot_cold_phases(self):
        rng = random.Random(0)
        hot = [f"hot{i}" for i in range(5)]
        sequence = []
        for phase in range(20):
            if phase % 2 == 0:
                sequence += hot * 10
            else:
                sequence += [f"cold{phase}.{i}" for i in range(50)]
        cache = AggregatingClientCache(capacity=20, group_size=5)
        cache.replay(sequence)
        assert cache.stats.accesses == len(sequence)
        assert len(cache) <= 20

    def test_group_size_larger_than_cache(self):
        cache = AggregatingClientCache(capacity=3, group_size=10)
        chain = [f"c{i}" for i in range(8)]
        cache.replay(chain * 20)
        assert len(cache) <= 3
        # The demanded file must never be displaced by its own group.
        cache.access("c0")
        assert "c0" in cache


class TestMetadataChurn:
    def test_tracker_survives_interleaved_resets(self):
        tracker = SuccessorTracker(capacity=4)
        rng = random.Random(1)
        for i in range(1000):
            tracker.observe(f"f{rng.randrange(20)}")
            if i % 97 == 0:
                tracker.reset_stream()
        builder = GroupBuilder(tracker, 5)
        for file_id in list(tracker.tracked_files()):
            group = builder.build(file_id)
            assert len(set(group.members)) == len(group.members)

    def test_server_cache_invalidation_storm(self):
        server = AggregatingServerCache(capacity=30, group_size=5)
        rng = random.Random(2)
        for i in range(2000):
            server.access(f"f{rng.randrange(60)}")
            if i % 3 == 0:
                server.invalidate(f"f{rng.randrange(60)}")
        assert len(server) <= 30
        assert server.stats.accesses == 2000


class TestMalformedTraceInput:
    def test_truncated_file(self, tmp_path):
        from repro.errors import TraceFormatError
        from repro.traces.reader import read_trace

        path = tmp_path / "broken.trace"
        path.write_text("open a\nopen\n", encoding="utf-8")
        with pytest.raises(TraceFormatError) as excinfo:
            read_trace(path)
        assert excinfo.value.line_number == 2

    def test_binary_garbage(self, tmp_path):
        from repro.errors import TraceError
        from repro.traces.reader import read_trace

        path = tmp_path / "garbage.trace"
        path.write_bytes(bytes(range(256)))
        with pytest.raises((TraceError, UnicodeDecodeError, ValueError)):
            read_trace(path)

    def test_empty_file_is_empty_trace(self, tmp_path):
        from repro.traces.reader import read_trace

        path = tmp_path / "empty.trace"
        path.write_text("", encoding="utf-8")
        assert len(read_trace(path)) == 0


class TestNumericEdgeCases:
    def test_capacity_one_everything(self):
        cache = AggregatingClientCache(capacity=1, group_size=5)
        cache.replay(["a", "b"] * 100)
        assert len(cache) == 1
        assert cache.stats.accesses == 200

    def test_zero_length_replay(self):
        cache = AggregatingClientCache(capacity=5, group_size=3)
        stats = cache.replay([])
        assert stats.accesses == 0
        assert cache.fetch_log.mean_group_size == 0.0

    def test_entropy_of_giant_alphabet(self):
        from repro.core.entropy import successor_entropy

        # Every file appears exactly twice, successors all distinct.
        sequence = []
        for i in range(500):
            sequence += [f"x{i}", f"y{i}", f"x{i}", f"z{i}"]
        value = successor_entropy(sequence)
        assert value >= 0.0
