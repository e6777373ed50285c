"""Equivalence tests for the inlined replay fast paths.

The engine and the aggregating client cache both carry specialized
replay loops.  These tests lock in the contract: the fast loops are
count-for-count identical to driving the generic per-event ``access``
path, across all four synthetic workloads, and in final state on
hypothesis-drawn traces over small alphabets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregating_cache import AggregatingClientCache
from repro.experiments.common import workload_codes, workload_sequence, workload_trace
from repro.sim.engine import DistributedFileSystem
from repro.traces.events import Trace, TraceEvent

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


def successor_lists(tracker):
    return {key: list(slist._items) for key, slist in tracker._lists.items()}


def engine_state(system):
    """Metrics, every LRU order, and the successor lists in order."""
    server = system.server_cache
    return (
        system.metrics(),
        {cid: list(cache._order) for cid, cache in system.clients.items()},
        list(server._order) if server is not None else None,
        successor_lists(system.tracker),
        system.tracker._previous,
    )


def aggregating_state(cache):
    """Stats, fetch log, LRU order, and the successor lists in order."""
    return (
        cache.stats.snapshot(),
        dict(cache.fetch_log.__dict__),
        list(cache.resident_files()),
        successor_lists(cache.tracker),
        cache.tracker._previous,
    )


@st.composite
def _engine_cases(draw):
    """Events over at most 12 files and 3 clients, a configuration with
    1-3 successors per list, and a split point for chained replays."""
    n_files = draw(st.integers(1, 12))
    clients = ("", "c1", "c2")[: draw(st.integers(1, 3))]
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n_files - 1), st.sampled_from(clients)),
            max_size=80,
        )
    )
    events = [
        TraceEvent(file_id=f"f{file}", client_id=client) for file, client in pairs
    ]
    config = dict(
        client_capacity=draw(st.integers(1, 5)),
        server_capacity=draw(st.sampled_from((0, 1, 2, 3, 6))),
        group_size=draw(st.sampled_from((1, 2, 3, 5))),
        successor_capacity=draw(st.integers(1, 3)),
    )
    return events, config, draw(st.integers(0, len(events)))


@st.composite
def _sequence_cases(draw):
    """Codes over at most 12 files, a configuration with 1-3 successors
    per list, and a split point for chained replays."""
    n_files = draw(st.integers(1, 12))
    codes = draw(st.lists(st.integers(0, n_files - 1), max_size=80))
    config = dict(
        capacity=draw(st.integers(1, 5)),
        group_size=draw(st.sampled_from((1, 2, 3, 5))),
        successor_capacity=draw(st.integers(1, 3)),
    )
    return codes, config, draw(st.integers(0, len(codes)))


class TestDictLoopDifferential:
    """Both fused dict loops against per-event ``access()``, state and
    all.  Short successor lists fill quickly, so the updates that drop
    the oldest successor and move a retained one to the front both run."""

    @given(case=_engine_cases())
    @settings(max_examples=300, deadline=None)
    def test_engine_loop_matches_access(self, case):
        events, config, split = case
        system = DistributedFileSystem(**config)
        reference = DistributedFileSystem(**config)
        assert system._fast_replay_ok()
        for part in (events[:split], events[split:], events):
            system.replay(Trace(events=part))
            generic_engine_metrics(reference, part)
            assert engine_state(system) == engine_state(reference)

    @pytest.mark.parametrize("form", (int, "f{}".format), ids=("int", "str"))
    @given(case=_sequence_cases())
    @settings(max_examples=300, deadline=None)
    def test_aggregating_loop_matches_access(self, form, case):
        codes, config, split = case
        sequence = [form(code) for code in codes]
        cache = AggregatingClientCache(**config)
        reference = AggregatingClientCache(**config)
        assert cache._fast_replay_ok()
        for part in (sequence[:split], sequence[split:], sequence):
            cache.replay(part)
            for file_id in part:
                reference.access(file_id)
            assert aggregating_state(cache) == aggregating_state(reference)
