"""Integration tests: cross-module flows exercised end to end."""

import importlib
import pkgutil

import pytest

from repro import (
    AggregatingClientCache,
    AggregatingServerCache,
    DistributedFileSystem,
    LRUCache,
    RelationshipGraph,
    SuccessorTracker,
    TwoLevelHierarchy,
    cache_filtered,
    make_workload,
    read_trace,
    successor_entropy,
    summarize,
    write_trace,
)
from repro.core.grouping import GroupBuilder
from repro.traces.filters import opens_only


class TestTraceLifecycle:
    def test_generate_persist_reload_analyze(self, tmp_path):
        trace = make_workload("workstation", 5000)
        path = tmp_path / "ws.trace"
        write_trace(trace, path)
        reloaded = read_trace(path)
        assert reloaded.file_ids() == trace.file_ids()
        original = summarize(trace)
        recovered = summarize(reloaded)
        assert recovered.unique_files == original.unique_files
        assert recovered.write_fraction == pytest.approx(original.write_fraction)

    def test_filter_chain_composition(self):
        trace = make_workload("users", 5000)
        opens = opens_only(trace)
        filtered = cache_filtered(opens, LRUCache(50))
        assert len(filtered) < len(opens) < len(trace) + 1
        # Entropy of the filtered stream is still computable.
        assert successor_entropy(filtered.file_ids()) >= 0.0


class TestClientServerStack:
    def test_full_system_against_manual_composition(self):
        """DistributedFileSystem must agree with a hand-built client stack."""
        trace = make_workload("server", 6000)
        sequence = trace.file_ids()

        system = DistributedFileSystem(client_capacity=200, group_size=5)
        for key in sequence:
            system.access("c", key)
        manual = AggregatingClientCache(capacity=200, group_size=5)
        manual.replay(sequence)

        system_stats = system.metrics().client_stats["c"]
        assert system_stats.misses == manual.stats.misses
        assert system_stats.hits == manual.stats.hits
        assert system.remote_requests == manual.demand_fetches

    def test_server_cache_reduces_store_load(self):
        trace = make_workload("workstation", 6000)
        without = DistributedFileSystem(client_capacity=50, group_size=5)
        with_server = DistributedFileSystem(
            client_capacity=50, server_capacity=400, group_size=5
        )
        for event in trace:
            without.access("c", event.file_id)
            with_server.access("c", event.file_id)
        assert (
            with_server.metrics().store_fetches < without.metrics().store_fetches
        )

    def test_aggregating_server_in_hierarchy_beats_lru_server(self):
        sequence = make_workload("server", 10_000).file_ids()
        lru_stack = TwoLevelHierarchy(LRUCache(150), LRUCache(300))
        lru_result = lru_stack.replay(sequence)
        agg_stack = TwoLevelHierarchy(
            LRUCache(150), AggregatingServerCache(capacity=300, group_size=5)
        )
        agg_result = agg_stack.replay(sequence)
        assert agg_result.server_hit_rate > lru_result.server_hit_rate


class TestMetadataConsistency:
    def test_tracker_and_graph_agree_on_top_successor(self):
        sequence = make_workload("server", 4000).file_ids()
        tracker = SuccessorTracker(policy="lru", capacity=8)
        tracker.observe_sequence(sequence)
        graph = RelationshipGraph.from_sequence(sequence)
        # For files with a single dominant successor the recency pick
        # and the frequency pick coincide; check a sample.
        agreements = 0
        checked = 0
        for file_id in list(tracker.tracked_files())[:200]:
            ranked = graph.successors_of(file_id, k=2)
            if len(ranked) == 1 or (
                len(ranked) >= 2 and ranked[0][1] >= 3 * max(ranked[1][1], 1)
            ):
                checked += 1
                if tracker.most_likely(file_id) == ranked[0][0]:
                    agreements += 1
        assert checked > 10
        assert agreements / checked > 0.8

    def test_group_builder_consistent_with_graph_groups(self):
        sequence = ["a", "b", "c", "d"] * 25
        tracker = SuccessorTracker(capacity=4)
        tracker.observe_sequence(sequence)
        builder = GroupBuilder(tracker, 3)
        graph = RelationshipGraph.from_sequence(sequence)
        assert list(builder.build("a").members) == graph.group_for("a", 3)


class TestFailureAndChurnScenarios:
    def test_invalidation_mid_stream(self):
        """Deleted files can be invalidated without corrupting the cache."""
        server = AggregatingServerCache(capacity=50, group_size=3)
        sequence = [f"f{i % 20}" for i in range(200)]
        for index, key in enumerate(sequence):
            server.access(key)
            if index % 37 == 0:
                server.invalidate(f"f{index % 20}")
        assert len(server) <= 50
        assert server.stats.accesses == 200

    def test_cold_restart_of_server_metadata(self):
        """A server losing its metadata recovers: hit rate climbs again."""
        sequence = make_workload("server", 4000).file_ids()
        cache = AggregatingClientCache(capacity=200, group_size=5)
        cache.replay(sequence)
        warm_hit_rate = cache.stats.hit_rate

        restarted = AggregatingClientCache(capacity=200, group_size=5)
        # Replay the same trace twice: second pass represents post-
        # restart behaviour with re-learned metadata.
        restarted.replay(sequence)
        first_pass = restarted.stats.snapshot()
        restarted.replay(sequence)
        second_pass_hits = restarted.stats.hits - first_pass.hits
        second_pass_rate = second_pass_hits / len(sequence)
        assert second_pass_rate >= warm_hit_rate * 0.9

    def test_workload_shift_adapts(self):
        """Grouping keeps helping after an abrupt working-set change."""
        phase1 = [f"p1/f{i % 40}" for i in range(3000)]
        phase2 = [f"p2/f{i % 40}" for i in range(3000)]
        cache = AggregatingClientCache(capacity=20, group_size=5)
        cache.replay(phase1)
        fetches_phase1 = cache.demand_fetches
        cache.replay(phase2)
        fetches_phase2 = cache.demand_fetches - fetches_phase1

        lru = AggregatingClientCache(capacity=20, group_size=1)
        lru.replay(phase1)
        lru_phase1 = lru.demand_fetches
        lru.replay(phase2)
        lru_phase2 = lru.demand_fetches - lru_phase1
        assert fetches_phase2 < lru_phase2 * 0.6


class TestPublicAPISurface:
    def test_package_exports_resolve(self):
        import repro

        packages = [repro] + [
            importlib.import_module(f"repro.{info.name}")
            for info in pkgutil.iter_modules(repro.__path__)
            if info.ispkg
        ]
        for package in packages:
            for name in package.__all__:
                assert hasattr(package, name), f"{package.__name__}.{name}"

    def test_version(self):
        import repro

        assert repro.__version__ == "1.0.0"


class TestReportEndToEnd:
    def test_small_scale_report_generates(self, tmp_path):
        """The full default report pipeline runs end to end (tiny scale)."""
        from repro.analysis.report import write_report

        path = write_report(tmp_path / "report.md", events=1500)
        text = path.read_text()
        assert "# Full evaluation report" in text
        assert "## Headline claims" in text
        # Every default section rendered.
        for marker in ("Figure 3 (server)", "Figure 4 (users)",
                       "Figure 5 (workstation)", "Figure 7",
                       "Figure 8 (write)", "Placement",
                       "Hoarding", "Cooperation", "Attribution",
                       "Adaptation", "Server capacity sweep",
                       "Peer caching"):
            assert marker in text, marker
