"""Equivalence tests for the inlined replay fast paths.

The engine and the aggregating client cache both carry specialized
replay loops.  These tests lock in the contract: the fast loops are
count-for-count identical to driving the generic per-event ``access``
path, across all four synthetic workloads.
"""

import pytest

from repro.core.aggregating_cache import AggregatingClientCache
from repro.experiments.common import workload_codes, workload_sequence, workload_trace
from repro.sim.engine import DistributedFileSystem

WORKLOADS = ("server", "users", "write", "workstation")
EVENTS = 4000


def generic_engine_metrics(system, trace):
    """Reference replay: per-event access() calls, no fast loop."""
    for event in trace:
        client = event.client_id or "client00"
        system.access(client, event.file_id)
    return system.metrics()


def metrics_equal(left, right):
    return (
        {k: v for k, v in left.client_stats.items()}
        == {k: v for k, v in right.client_stats.items()}
        and left.server_stats == right.server_stats
        and left.store_fetches == right.store_fetches
        and left.remote_requests == right.remote_requests
        and left.metadata_entries == right.metadata_entries
    )


class TestEngineFastReplay:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_fast_replay_matches_generic(self, workload):
        trace = workload_trace(workload, EVENTS)
        config = dict(client_capacity=250, server_capacity=300, group_size=5)
        reference = generic_engine_metrics(
            DistributedFileSystem(**config), trace
        )
        fast = DistributedFileSystem(**config).replay(trace)
        assert metrics_equal(fast, reference)

    def test_no_server_and_small_group_configs(self):
        trace = workload_trace("server", EVENTS)
        for config in (
            dict(client_capacity=200, server_capacity=0, group_size=5),
            dict(client_capacity=200, server_capacity=150, group_size=3),
            dict(client_capacity=200, server_capacity=0, group_size=1),
        ):
            reference = generic_engine_metrics(
                DistributedFileSystem(**config), trace
            )
            fast = DistributedFileSystem(**config).replay(trace)
            assert metrics_equal(fast, reference), config

    def test_string_replay_keeps_string_residency(self):
        trace = workload_trace("server", EVENTS)
        system = DistributedFileSystem(client_capacity=50, server_capacity=0)
        system.replay(trace)
        cache = next(iter(system.clients.values()))
        assert all(isinstance(key, str) for key in cache.keys())


class TestAggregatingFastReplay:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_fast_replay_matches_generic(self, workload):
        sequence = workload_sequence(workload, EVENTS)
        reference = AggregatingClientCache(capacity=250, group_size=5)
        for file_id in sequence:
            reference.access(file_id)
        fast = AggregatingClientCache(capacity=250, group_size=5)
        fast.replay(sequence)
        # The figure sweeps replay the same sequence as integer codes.
        coded = AggregatingClientCache(capacity=250, group_size=5)
        coded.replay(workload_codes(workload, EVENTS))
        for candidate in (fast, coded):
            assert candidate.stats == reference.stats
            assert (
                candidate.fetch_log.__dict__ == reference.fetch_log.__dict__
            )
            assert (
                candidate.tracker.metadata_entries()
                == reference.tracker.metadata_entries()
            )
        # The string-keyed fast path also preserves exact residency.
        assert list(fast.resident_files()) == list(reference.resident_files())

    def test_subclass_takes_generic_path(self):
        class Instrumented(AggregatingClientCache):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.misses_seen = 0

            def access(self, file_id):
                hit = super().access(file_id)
                self.misses_seen += not hit
                return hit

        sequence = workload_sequence("server", EVENTS)
        cache = Instrumented(capacity=100, group_size=5)
        assert not cache._fast_replay_ok()
        cache.replay(sequence)
        assert cache.misses_seen == cache.stats.misses > 0
