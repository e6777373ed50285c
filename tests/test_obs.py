"""Unit and equivalence tests for the observability layer (repro.obs)."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.obs.quantiles import ALPHA
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
        # Each value lands in the one bucket whose (upper / gamma, upper]
        # range holds it; past the last le bound (10 s of ns) a value
        # counts only toward the +Inf bucket of the exposition.
        values = (3, 10, 50, 5000, 10**11)
        hist = Histogram("h")
        for value in values:
            hist.observe(value)
        buckets = hist.as_dict()["buckets"]
        assert list(buckets.values()) == [1] * len(values)
        gamma = (1 + ALPHA) / (1 - ALPHA)
        for value, key in zip(values, buckets):
            upper = float(key[2:])
            assert upper / gamma < value <= upper * (1 + 1e-5)
        assert hist.cumulative()[-1][1] == len(values) - 1

    def test_negative_value_is_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            Histogram("h").observe(-1)

    def test_registry_record_keeps_exact_summary(self):
        hist = Histogram("h")
        for value in (0, 3, 10, 10, 5000):
            hist.observe(value)
        record = hist.as_dict()
        assert record["count"] == 5 and record["sum"] == 5023
        assert record["min"] == 0 and record["max"] == 5000
        assert record["mean"] == pytest.approx(5023 / 5)
        assert sum(record["buckets"].values()) == 5
        assert list(record["buckets"])[0] == "<=0"
        assert Histogram("e").as_dict()["min"] is None

    def test_time_context_manager_observes_nanoseconds(self):
        hist = Histogram("h")
        with hist.time():
            pass
        assert hist.count == 1
        assert hist.min >= 0


#: Latency-like samples: zero, sub-unit floats are not recorded by any
#: caller, so integers from 0 up to about 10^12 ns (17 minutes).
samples = st.lists(st.integers(0, 10**12), min_size=1, max_size=200)


def _filled(values):
    hist = Histogram("h")
    for value in values:
        hist.observe(value)
    return hist


class TestHistogramProperties:
    @settings(max_examples=200, deadline=None)
    @given(samples, st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5))
    def test_quantiles_within_alpha_of_the_order_statistic(self, values, qs):
        qs = sorted(qs)
        ordered = sorted(values)
        reported = _filled(values).quantiles(qs)
        for q, value in zip(qs, reported):
            exact = ordered[int(q * (len(ordered) - 1))]
            assert abs(value - exact) <= (ALPHA + 1e-9) * exact
            assert ordered[0] <= value <= ordered[-1]

    @settings(max_examples=200, deadline=None)
    @given(samples, samples)
    def test_merge_equals_concatenation_and_subtraction_undoes_it(self, left, right):
        merged = _filled(left).merge(_filled(right))
        whole = _filled(left + right)
        assert merged.counts == whole.counts
        assert (merged.count, merged.total) == (whole.count, whole.total)
        assert (merged.min, merged.max) == (whole.min, whole.max)
        undone = merged - _filled(right)
        alone = _filled(left)
        assert undone.counts == alone.counts
        assert (undone.count, undone.total) == (alone.count, alone.total)
        # min and max are not subtractable: they narrow to bucket edges.
        gamma = (1 + ALPHA) / (1 - ALPHA) * (1 + 1e-9)
        assert undone.min <= alone.min <= undone.min * gamma
        assert alone.max <= undone.max <= alone.max * gamma

    @settings(max_examples=200, deadline=None)
    @given(samples)
    def test_count_sum_min_max_are_exact(self, values):
        hist = _filled(values)
        assert hist.count == len(values) == sum(hist.counts.values())
        assert hist.total == sum(values)
        assert (hist.min, hist.max) == (min(values), max(values))
        assert hist.mean == pytest.approx(sum(values) / len(values))

    @settings(max_examples=200, deadline=None)
    @given(samples)
    def test_cumulative_counts_are_exact(self, values):
        rows = _filled(values).cumulative()
        assert len(rows) <= 30
        assert [le for le, _count in rows] == sorted({le for le, _ in rows})
        for le, count in rows:
            assert count == sum(1 for value in values if value <= le)

    @given(st.integers(0, 10**12))
    def test_single_sample_is_every_quantile(self, value):
        hist = _filled([value])
        assert hist.quantiles((0.0, 0.5, 0.99, 1.0)) == [value] * 4

    def test_empty_histogram_reports_zeros(self):
        hist = Histogram()
        assert hist.quantiles((0.5, 0.95, 0.99)) == [0.0, 0.0, 0.0]
        assert hist.mean == 0.0 and hist.count == 0
        assert hist.cumulative()[-1][1] == 0

    def test_subtracting_a_later_state_is_rejected(self):
        with pytest.raises(ValueError, match="earlier snapshot"):
            _filled([5]) - _filled([5, 7])

    def test_out_of_range_q_is_rejected(self):
        with pytest.raises(ValueError):
            _filled([1]).quantiles((0.5, 1.5))


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
