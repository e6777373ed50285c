"""Unit tests for the distributed file system replay engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import DistributedFileSystem, Store, replay_cache
from repro.traces.events import Trace, TraceEvent


class TestStore:
    def test_fetch_counting(self):
        store = Store()
        store.fetch("a")
        store.fetch("b")
        assert store.fetches == 2

    def test_fetch_returns_identity(self):
        store = Store()
        assert store.fetch("x") == "x"


class TestDistributedFileSystem:
    def test_client_caches_created_lazily(self):
        system = DistributedFileSystem(client_capacity=4)
        system.access("c1", "a")
        system.access("c2", "b")
        assert set(system.clients) == {"c1", "c2"}

    def test_client_hit_no_remote_request(self):
        system = DistributedFileSystem(client_capacity=4, group_size=1)
        system.access("c1", "a")
        requests_after_miss = system.remote_requests
        system.access("c1", "a")
        assert system.remote_requests == requests_after_miss

    def test_group_fetch_counts_store_fetches(self):
        system = DistributedFileSystem(client_capacity=10, group_size=3)
        # Train: chain a -> b -> c.
        for _ in range(2):
            for key in ["a", "b", "c"]:
                system.access("c1", key)
        metrics = system.metrics()
        assert metrics.store_fetches >= 3
        assert metrics.remote_requests >= 3

    def test_cooperative_tracker_sees_hits(self):
        system = DistributedFileSystem(client_capacity=10, group_size=2)
        for _ in range(3):
            system.access("c1", "a")
            system.access("c1", "b")
        assert system.tracker.most_likely("a") == "b"

    def test_server_cache_absorbs_repeat_misses(self):
        system = DistributedFileSystem(
            client_capacity=1, server_capacity=10, group_size=1
        )
        for _ in range(4):
            system.access("c1", "a")
            system.access("c1", "b")
        metrics = system.metrics()
        # Client (capacity 1) misses most accesses; server absorbs all
        # but the two cold fetches.
        assert metrics.server_stats.hits > 0
        assert metrics.store_fetches == 2

    def test_replay_uses_event_client_ids(self):
        system = DistributedFileSystem(client_capacity=4)
        trace = Trace()
        trace.append(TraceEvent("a", client_id="east"))
        trace.append(TraceEvent("b", client_id="west"))
        trace.append(TraceEvent("a"))  # defaults to client00
        metrics = system.replay(trace)
        assert set(metrics.client_stats) == {"east", "west", "client00"}
        assert metrics.total_client_accesses == 3

    def test_mean_client_hit_rate(self):
        system = DistributedFileSystem(client_capacity=4, group_size=1)
        for _ in range(5):
            system.access("c1", "a")
        metrics = system.metrics()
        assert metrics.mean_client_hit_rate == pytest.approx(4 / 5)

    def test_grouping_reduces_remote_requests(self):
        files = [f"f{i}" for i in range(30)]
        sequence = files * 6
        plain = DistributedFileSystem(client_capacity=15, group_size=1)
        for key in sequence:
            plain.access("c", key)
        grouped = DistributedFileSystem(client_capacity=15, group_size=5)
        for key in sequence:
            grouped.access("c", key)
        assert grouped.remote_requests < plain.remote_requests

    def test_metadata_entries_reported(self):
        system = DistributedFileSystem(client_capacity=4)
        for key in ["a", "b", "c"]:
            system.access("c1", key)
        assert system.metrics().metadata_entries == 2

    def test_empty_metrics(self):
        system = DistributedFileSystem(client_capacity=4)
        metrics = system.metrics()
        assert metrics.total_client_accesses == 0
        assert metrics.mean_client_hit_rate == 0.0


class TestReplayCache:
    def test_replays_and_snapshots(self):
        from repro.caching.lru import LRUCache

        cache = LRUCache(2)
        stats = replay_cache(cache, ["a", "b", "a"])
        assert stats.accesses == 3
        assert stats.hits == 1

    def test_rejects_statless_target(self):
        class Weird:
            def access(self, key):
                return False

        with pytest.raises(SimulationError, match="stats"):
            replay_cache(Weird(), ["a"])


class TestWriteInvalidation:
    """Writes and deletes are plain demand accesses: replay invalidates
    nothing (per-file invalidation is the daemon's ``/invalidate``)."""

    def _trace_with_writes(self):
        from repro.traces.events import EventKind

        trace = Trace()
        # Both clients read the shared file, then c1 writes it.
        trace.append(TraceEvent("shared", client_id="c1"))
        trace.append(TraceEvent("shared", client_id="c2"))
        trace.append(TraceEvent("shared", EventKind.WRITE, client_id="c1"))
        trace.append(TraceEvent("shared", client_id="c2"))  # still cached
        trace.append(TraceEvent("shared", client_id="c1"))
        return trace

    def test_without_flag_no_invalidation(self):
        system = DistributedFileSystem(client_capacity=4, group_size=1)
        metrics = system.replay(self._trace_with_writes())
        assert metrics.client_stats["c2"].misses == 1

    def test_write_workload_end_to_end(self):
        from repro.workloads import make_write

        trace = make_write(4000)
        system = DistributedFileSystem(client_capacity=150, group_size=5)
        metrics = system.replay(trace)
        assert metrics.total_client_accesses == len(trace)
        assert metrics.mean_client_hit_rate > 0.3
