"""Unit and equivalence tests for windowed time-series telemetry.

The load-bearing contract here is the acceptance criterion from the
observability roadmap: the windowed series recorded while the *fast*
replay loop runs must be sample-identical (modulo wall-clock fields) to
the series recorded while the *generic* loop runs, and activating
windowing must not change the end-of-run metrics at all.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.analysis.predictability import entropy_timeline
from repro.obs import (
    ObservabilityError,
    TS_SCHEMA,
    WindowSample,
    WindowedCollector,
    get_collector,
    load_ts_jsonl,
    prometheus_text,
    serve_metrics,
    set_collector,
    ts_records,
    windowing,
    write_ts_jsonl,
)
from repro.sim.engine import DistributedFileSystem
from repro.sim.sweep import SweepGrid, run_sweep
from repro.traces.events import Trace, TraceEvent
from repro.workloads.synthetic import make_workload


@pytest.fixture(autouse=True)
def _no_leaked_collector():
    """Every test must leave the module-global hook dormant."""
    assert get_collector() is None
    yield
    set_collector(None)


def _system(**overrides):
    defaults = dict(client_capacity=150, server_capacity=200, group_size=4)
    defaults.update(overrides)
    return DistributedFileSystem(**defaults)


def _trace(events=4000):
    return make_workload("server", events, seed=7)


def square_point(n):
    """Module-level (hence picklable) point runner for parallel tests."""
    return {"square": n * n, "events": n}


class TestWindowSample:
    def test_derived_ratios(self):
        sample = WindowSample(
            events=100,
            seconds=2.0,
            hits=60,
            misses=40,
            remote_requests=40,
            store_fetches=50,
            group_installs=30,
            companion_slots=120,
            speculative_fetches=10,
            evictions=5,
        )
        assert sample.hit_ratio == pytest.approx(0.6)
        assert sample.eviction_rate == pytest.approx(0.05)
        assert sample.events_per_sec == pytest.approx(50.0)
        assert sample.prefetch_efficiency == pytest.approx(30 / 120)
        assert sample.wasted_fetch_share == pytest.approx(10 / 50)

    def test_ratios_defined_on_empty_window(self):
        sample = WindowSample()
        assert sample.hit_ratio == 0.0
        assert sample.eviction_rate == 0.0
        assert sample.events_per_sec == 0.0
        assert sample.prefetch_efficiency == 0.0
        assert sample.wasted_fetch_share == 0.0

    def test_deterministic_dict_excludes_wall_clock(self):
        payload = WindowSample(events=10, seconds=1.5).deterministic_dict()
        assert "seconds" not in payload
        assert "events_per_sec" not in payload
        assert payload["events"] == 10

    def test_round_trip_via_dict(self):
        sample = WindowSample(
            source="sweep",
            index=3,
            start=7,
            events=5,
            seconds=0.25,
            hits=4,
            misses=1,
            entropy=1.25,
            label="g=4",
        )
        assert WindowSample.from_dict(sample.to_dict()) == sample

    def test_round_trip_preserves_none_entropy(self):
        sample = WindowSample(entropy=None)
        assert WindowSample.from_dict(sample.to_dict()).entropy is None


class TestWindowedCollector:
    def test_rejects_bad_window(self):
        with pytest.raises(ObservabilityError):
            WindowedCollector(window=0)

    def test_rejects_bad_bytes_per_file(self):
        with pytest.raises(ObservabilityError):
            WindowedCollector(bytes_per_file=0)

    def test_series_skips_none_entropy(self):
        collector = WindowedCollector(window=10)
        collector.append(WindowSample(index=0, entropy=None))
        collector.append(WindowSample(index=1, entropy=2.0))
        assert collector.series("entropy") == [2.0]

    def test_series_filters_by_source(self):
        collector = WindowedCollector(window=10)
        collector.append(WindowSample(source="replay", events=5))
        collector.append(WindowSample(source="sweep", events=9))
        assert collector.series("events", source="sweep") == [9.0]

    def test_on_sample_hook_fans_out(self):
        seen = []
        collector = WindowedCollector(window=10, on_sample=seen.append)
        sample = WindowSample(index=0)
        collector.append(sample)
        assert seen == [sample]

    def test_record_point_labels_and_counts(self):
        collector = WindowedCollector(window=10)
        first = collector.record_point(
            0, {"g": 4, "c": 100}, {"events": 500}, 0.5
        )
        second = collector.record_point(1, {"g": 8, "c": 100}, {}, 0.25)
        assert first.source == "sweep"
        assert first.label == "g=4,c=100"
        assert first.events == 500
        assert second.events == 0
        assert [s.index for s in collector.sweep_samples()] == [0, 1]


class TestWindowedReplay:
    def test_window_count_and_positions(self):
        trace = _trace(4500)
        with windowing(window=1000) as collector:
            _system().replay(trace)
        samples = collector.replay_samples()
        assert len(samples) == 5
        assert [s.start for s in samples] == [0, 1000, 2000, 3000, 4000]
        assert [s.index for s in samples] == [0, 1, 2, 3, 4]
        assert [s.events for s in samples] == [1000, 1000, 1000, 1000, 500]
        assert sum(s.events for s in samples) == len(trace)

    def test_final_metrics_identical_to_unwindowed(self):
        trace = _trace()
        baseline = _system().replay(trace)
        with windowing(window=700):
            windowed = _system().replay(trace)
        assert windowed == baseline

    def test_fast_and_generic_series_sample_identical(self):
        """The acceptance criterion: fast == generic, window by window."""
        trace = _trace()
        with windowing(window=500) as fast_collector:
            _system().replay(trace)

        generic_system = _system()
        generic_system._fast_replay_ok = lambda: False
        with windowing(window=500) as generic_collector:
            generic_system.replay(trace)

        fast = [s.deterministic_dict() for s in fast_collector.samples]
        generic = [s.deterministic_dict() for s in generic_collector.samples]
        assert fast == generic

    def test_window_entropy_matches_predictability_tooling(self):
        trace = _trace(3000)
        with windowing(window=1000) as collector:
            _system().replay(trace)
        ids = [event.file_id for event in trace.events]
        for sample in collector.replay_samples():
            chunk = ids[sample.start : sample.start + sample.events]
            expected = entropy_timeline(chunk, window=len(chunk))[0][1]
            assert sample.entropy == pytest.approx(expected)

    def test_counter_sums_match_final_metrics(self):
        trace = _trace()
        with windowing(window=600) as collector:
            metrics = _system().replay(trace)
        totals = collector.totals()
        client_hits = sum(s.hits for s in metrics.client_stats.values())
        client_misses = sum(s.misses for s in metrics.client_stats.values())
        assert totals["events"] == len(trace)
        assert totals["hits"] == client_hits
        assert totals["misses"] == client_misses
        assert totals["remote_requests"] == metrics.remote_requests
        assert totals["store_fetches"] == metrics.store_fetches

    def test_collector_suspended_during_chunk_replay(self):
        """The recursion guard: chunks replay with the hook dormant."""
        observed = []

        def spy(sample):
            observed.append(get_collector())

        with windowing(collector=WindowedCollector(window=1000, on_sample=spy)):
            _system().replay(_trace(2000))
        assert observed and all(active is None for active in observed)

    def test_context_restores_previous_collector(self):
        outer = WindowedCollector(window=10)
        set_collector(outer)
        try:
            with windowing(window=5) as inner:
                assert get_collector() is inner
            assert get_collector() is outer
        finally:
            set_collector(None)

    def test_successive_replays_keep_monotone_cursors(self):
        trace = _trace(2000)
        with windowing(window=1000) as collector:
            _system().replay(trace)
            _system().replay(trace)
        samples = collector.replay_samples()
        assert [s.index for s in samples] == [0, 1, 2, 3]
        assert [s.start for s in samples] == [0, 1000, 2000, 3000]

    def test_progress_reports_each_window(self):
        seen = []
        with windowing(window=1000):
            _system().replay(
                _trace(3000),
                progress=lambda i, total, params, elapsed: seen.append(
                    (i, total, params["window"], params["start"])
                ),
            )
        assert seen == [(0, 3, 0, 0), (1, 3, 1, 1000), (2, 3, 2, 2000)]

    def test_dormant_replay_records_nothing(self):
        collector = WindowedCollector(window=100)
        _system().replay(_trace(500))
        assert len(collector) == 0
        assert get_collector() is None


class TestSweepSamples:
    def test_serial_sweep_streams_points(self):
        grid = SweepGrid().add_axis("n", [1, 2, 3])
        with windowing(window=10) as collector:
            records = run_sweep(grid, square_point)
        samples = collector.sweep_samples()
        assert [record["square"] for record in records] == [1, 4, 9]
        assert len(samples) == 3
        assert [s.start for s in samples] == [0, 1, 2]
        assert [s.label for s in samples] == ["n=1", "n=2", "n=3"]
        assert [s.events for s in samples] == [1, 2, 3]
        # Each point's wall time reaches its sample.
        assert all(s.seconds >= 0.0 for s in samples)

    def test_parallel_sweep_aggregates_in_parent(self):
        grid = SweepGrid().add_axis("n", [1, 2, 3, 4])
        with windowing(window=10) as collector:
            records = run_sweep(grid, square_point, workers=2)
        serial = run_sweep(grid, square_point)
        assert records == serial
        samples = collector.sweep_samples()
        assert len(samples) == 4
        assert sorted(s.label for s in samples) == ["n=1", "n=2", "n=3", "n=4"]


class TestJsonlRoundTrip:
    def _collector_with_samples(self):
        with windowing(window=500) as collector:
            _system().replay(_trace(1500))
        collector.record_point(0, {"g": 4}, {"events": 1500}, 0.1)
        return collector

    def test_round_trip_preserves_samples(self, tmp_path):
        collector = self._collector_with_samples()
        path = tmp_path / "series.jsonl"
        lines = write_ts_jsonl(collector, path, meta={"workload": "server"})
        assert lines == len(collector.samples) + 1
        loaded = load_ts_jsonl(path)
        assert loaded["samples"] == collector.samples
        assert loaded["meta"]["workload"] == "server"
        assert loaded["meta"]["window"] == 500
        assert loaded["meta"]["samples"] == len(collector.samples)

    def test_meta_line_is_first_and_schema_tagged(self):
        collector = self._collector_with_samples()
        records = ts_records(collector)
        assert records[0]["kind"] == "meta"
        assert records[0]["schema"] == TS_SCHEMA
        assert all(record["kind"] == "sample" for record in records[1:])

    def test_rejects_wrong_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "meta", "schema": "repro.obs/1"}) + "\n")
        with pytest.raises(ObservabilityError, match="unsupported schema"):
            load_ts_jsonl(path)

    def test_rejects_missing_meta(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        record = WindowSample(events=1, hits=1).to_dict()
        path.write_text(json.dumps(record) + "\n")
        with pytest.raises(ObservabilityError, match="no repro.ts/1 meta"):
            load_ts_jsonl(path)

    def test_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "mystery"}) + "\n")
        with pytest.raises(ObservabilityError, match="unknown record kind"):
            load_ts_jsonl(path)

    def test_rejects_non_numeric_required_field(self, tmp_path):
        record = WindowSample(events=1).to_dict()
        record["hits"] = "many"
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "meta", "schema": TS_SCHEMA})
            + "\n"
            + json.dumps(record)
            + "\n"
        )
        with pytest.raises(ObservabilityError, match="numeric 'hits'"):
            load_ts_jsonl(path)

    def test_rejects_unknown_source(self, tmp_path):
        record = WindowSample(events=1).to_dict()
        record["source"] = "oracle"
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "meta", "schema": TS_SCHEMA})
            + "\n"
            + json.dumps(record)
            + "\n"
        )
        with pytest.raises(ObservabilityError, match="unknown sample source"):
            load_ts_jsonl(path)

    def test_rejects_invalid_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("{not json\n")
        with pytest.raises(ObservabilityError, match="not valid JSON"):
            load_ts_jsonl(path)


class TestPrometheusText:
    def test_counters_and_gauges_render(self):
        with windowing(window=500) as collector:
            _system().replay(_trace(1500))
        text = prometheus_text(collector)
        totals = collector.totals()
        assert f"repro_ts_events_total {totals['events']}" in text
        assert f"repro_ts_hits_total {totals['hits']}" in text
        assert "repro_ts_windows_total 3" in text
        assert "# TYPE repro_ts_hit_ratio gauge" in text
        assert text.endswith("# EOF\n")

    def test_every_sample_line_parses(self):
        with windowing(window=500) as collector:
            _system().replay(_trace(1500))
        for line in prometheus_text(collector).splitlines():
            if line.startswith("#"):
                continue
            name, value = line.split()
            assert name.startswith("repro_ts_")
            float(value)

    def test_accepts_plain_sample_sequence(self):
        samples = [WindowSample(index=0, events=10, hits=8, misses=2)]
        text = prometheus_text(samples)
        assert "repro_ts_events_total 10" in text
        assert "repro_ts_hit_ratio 0.8" in text

    def test_no_gauges_without_replay_samples(self):
        collector = WindowedCollector(window=10)
        collector.record_point(0, {"g": 4}, {}, 0.1)
        text = prometheus_text(collector)
        assert "repro_ts_hit_ratio" not in text
        assert "repro_ts_windows_total 1" in text


class TestMetricsServer:
    def test_serves_rendered_metrics(self):
        with windowing(window=500) as collector:
            _system().replay(_trace(1000))
        server = serve_metrics(collector)
        try:
            with urllib.request.urlopen(server.url, timeout=5) as response:
                assert response.status == 200
                assert "text/plain" in response.headers["Content-Type"]
                body = response.read().decode("utf-8")
            assert body == prometheus_text(collector)
        finally:
            server.close()

    def test_unknown_path_is_404(self):
        server = serve_metrics(WindowedCollector(window=10))
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{server.host}:{server.port}/other", timeout=5
                )
            excinfo.value.close()  # the error holds the response's socket
            assert excinfo.value.code == 404
        finally:
            server.close()


class TestHandBuiltTraces:
    def test_windowing_composes_with_explicit_trace(self):
        events = [TraceEvent(file_id=f"f{i % 3}") for i in range(10)]
        trace = Trace(events=events, name="tiny")
        with windowing(window=4) as collector:
            DistributedFileSystem(client_capacity=2).replay(trace)
        samples = collector.replay_samples()
        assert [s.events for s in samples] == [4, 4, 2]
        # The final 2-event window still has defined entropy input.
        assert samples[-1].entropy is not None
