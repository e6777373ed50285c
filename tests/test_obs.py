"""Unit and equivalence tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.core.aggregating_cache import AggregatingClientCache
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObservabilityError,
    collecting,
    load_jsonl,
    snapshot_records,
    write_jsonl,
)
from repro.obs import registry as obs_registry
from repro.obs.export import write_records
from repro.sim.engine import DistributedFileSystem
from repro.workloads.synthetic import make_workload


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        counter = Counter("c")
        assert counter.value == 0
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_rejects_negative_increment(self):
        with pytest.raises(ObservabilityError):
            Counter("c").inc(-1)

    def test_zero_increment_is_allowed(self):
        counter = Counter("c")
        counter.inc(0)
        assert counter.value == 0


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(5.0)
        gauge.add(-2.0)
        assert gauge.value == 3.0


class TestHistogram:
    def test_count_sum_min_max_mean(self):
        hist = Histogram("h")
        for value in (1, 5, 100):
            hist.observe(value)
        assert hist.count == 3
        assert hist.total == 106
        assert hist.min == 1
        assert hist.max == 100
        assert hist.mean == pytest.approx(106 / 3)

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("h").mean == 0.0

    def test_bucketing_and_overflow(self):
        hist = Histogram("h", bounds=(10, 100))
        hist.observe(3)
        hist.observe(10)  # boundary lands in its own bucket (value <= bound)
        hist.observe(50)
        hist.observe(5000)
        buckets = hist.as_dict()["buckets"]
        assert buckets["<=10"] == 2
        assert buckets["<=100"] == 1
        assert buckets[">100"] == 1

    def test_rejects_unsorted_or_empty_bounds(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", bounds=(5, 1))
        with pytest.raises(ObservabilityError):
            Histogram("h", bounds=())

    def test_time_context_manager_observes_nanoseconds(self):
        hist = Histogram("h")
        with hist.time():
            pass
        assert hist.count == 1
        assert hist.min >= 0


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.histogram("h") is registry.histogram("h")

    def test_kind_conflict_is_an_error(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ObservabilityError):
            registry.gauge("name")
        with pytest.raises(ObservabilityError):
            registry.histogram("name")

    def test_len_and_reset(self):
        registry = MetricsRegistry()
        registry.counter("a")
        registry.gauge("b")
        registry.histogram("c")
        assert len(registry) == 3
        registry.reset()
        assert len(registry) == 0

    def test_snapshot_shape_and_sorting(self):
        registry = MetricsRegistry()
        registry.counter("z").inc(2)
        registry.counter("a").inc(1)
        registry.histogram("h").observe(7)
        snap = registry.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        assert snap["counters"]["z"] == 2
        assert snap["histograms"]["h"]["count"] == 1


class TestEnableDisable:
    def test_collecting_restores_flag_and_registry(self):
        assert not obs_registry.ENABLED
        default = obs_registry.get_registry()
        with collecting() as registry:
            assert obs_registry.ENABLED
            assert obs_registry.get_registry() is registry
        assert not obs_registry.ENABLED
        assert obs_registry.get_registry() is default

    def test_disabled_run_allocates_no_metrics(self):
        """With collection off, replays must not touch the registry."""
        registry = MetricsRegistry()
        previous = obs_registry.set_registry(registry)
        try:
            trace = make_workload("server", 2000, 7)
            DistributedFileSystem(
                client_capacity=100, server_capacity=150, group_size=4
            ).replay(trace)
            cache = AggregatingClientCache(capacity=100, group_size=4)
            cache.replay(trace.file_ids())
            assert len(registry) == 0
        finally:
            obs_registry.set_registry(previous)


def _strip_timers(snapshot):
    """Snapshot minus the path-specific entries: the wall-clock
    histograms (``*.ns`` — the fast path records one fused-loop timer,
    the generic path per-build latencies) and the
    ``engine.replay.path.*`` counters, whose entire purpose is to
    differ by which loop ran."""
    return {
        "counters": {
            name: value
            for name, value in snapshot["counters"].items()
            if not name.startswith("engine.replay.path.")
        },
        "gauges": snapshot["gauges"],
        "histograms": {
            name: summary
            for name, summary in snapshot["histograms"].items()
            if not name.endswith(".ns")
        },
    }


class TestReplayPathEquivalence:
    def test_engine_fast_and_generic_paths_record_identical_metrics(self):
        trace = make_workload("server", 4000, 11)
        snapshots = []
        for fast in (True, False):
            with collecting() as registry:
                system = DistributedFileSystem(
                    client_capacity=120, server_capacity=200, group_size=5
                )
                if not fast:
                    system._fast_replay_ok = lambda: False
                system.replay(trace)
            snapshots.append(_strip_timers(registry.snapshot()))
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]["counters"]["engine.client.hits"] > 0
        assert snapshots[0]["counters"]["successors.transitions"] == 3999

    def test_client_cache_fast_and_generic_paths_record_identical_metrics(self):
        sequence = make_workload("users", 3000, 3).file_ids()
        snapshots = []
        for fast in (True, False):
            with collecting() as registry:
                cache = AggregatingClientCache(capacity=150, group_size=5)
                if not fast:
                    cache._fast_replay_ok = lambda: False
                cache.replay(sequence)
            snapshots.append(_strip_timers(registry.snapshot()))
        assert snapshots[0] == snapshots[1]
        assert snapshots[0]["counters"]["client_cache.hits"] > 0
        assert snapshots[0]["histograms"]["client_cache.group_fetch.size"]["count"] > 0


class TestJsonlExport:
    def test_round_trip_preserves_every_metric(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("hits").inc(7)
        registry.gauge("clients").set(3)
        registry.histogram("sizes").observe(4)
        path = tmp_path / "snap.jsonl"
        lines = write_jsonl(registry, path, meta={"run": "test"})
        assert lines == 4  # meta + three metrics
        loaded = load_jsonl(path)
        assert loaded["meta"] == {"run": "test"}
        assert loaded["counters"] == {"hits": 7}
        assert loaded["gauges"] == {"clients": 3}
        assert loaded["histograms"]["sizes"]["count"] == 1
        assert loaded["histograms"]["sizes"]["sum"] == 4

    def test_meta_line_comes_first_with_schema(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        records = snapshot_records(registry)
        assert records[0]["kind"] == "meta"
        assert records[0]["schema"] == "repro.obs/1"

    def test_write_records_emits_one_sorted_json_object_per_line(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        path = tmp_path / "nested" / "snapshot.jsonl"
        count = write_records(path, snapshot_records(registry, {"b": 1, "a": 2}))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == count == 2
        records = [json.loads(line) for line in lines]
        assert all(isinstance(record, dict) for record in records)
        assert lines == [json.dumps(record, sort_keys=True) for record in records]
        assert list(records[0]) == ["a", "b", "kind", "schema"]

    def test_load_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "meta", "schema": "other/9"}\n')
        with pytest.raises(ObservabilityError):
            load_jsonl(path)

    def test_load_rejects_missing_meta_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "counter", "name": "c", "value": 1}\n')
        with pytest.raises(ObservabilityError):
            load_jsonl(path)

    def test_load_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json}\n")
        with pytest.raises(ObservabilityError):
            load_jsonl(path)


class TestMetricsCli:
    def test_metrics_subcommand_writes_loadable_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "metrics.jsonl"
        code = main(
            [
                "metrics",
                "--workload",
                "server",
                "--events",
                "2000",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        loaded = load_jsonl(out)
        assert loaded["counters"]["engine.client.hits"] > 0
        assert loaded["counters"]["engine.client.misses"] > 0
        assert loaded["histograms"]["engine.group_fetch.size"]["count"] > 0
        assert "engine.client.hits" in capsys.readouterr().out
        # the CLI run must not leak collection into later code
        assert not obs_registry.ENABLED
