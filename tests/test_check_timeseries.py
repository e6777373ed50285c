"""Tests for the time-series checks of the ``ts`` smoke (scripts/smoke.py)."""

import importlib.util
import json
from pathlib import Path

from repro.obs import (
    TS_SCHEMA,
    WindowSample,
    WindowedCollector,
    prometheus_text,
    windowing,
    write_ts_jsonl,
)
from repro.obs.export import exposition
from repro.obs.quantiles import Histogram
from repro.sim.engine import DistributedFileSystem
from repro.workloads.synthetic import make_workload

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "smoke.py"
_spec = importlib.util.spec_from_file_location("smoke", _SCRIPT)
smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(smoke)


def _real_series(tmp_path):
    with windowing(window=500) as collector:
        DistributedFileSystem(client_capacity=150, group_size=4).replay(
            make_workload("server", 1500, seed=7)
        )
    path = tmp_path / "series.jsonl"
    write_ts_jsonl(collector, path)
    return path


class TestCheckTimeseries:
    def test_real_export_is_clean(self, tmp_path):
        path = _real_series(tmp_path)
        assert smoke.check_timeseries(path) == []

    def test_unreadable_file_is_one_problem(self, tmp_path):
        problems = smoke.check_timeseries(tmp_path / "missing.jsonl")
        assert len(problems) == 1

    def test_flags_sample_count_mismatch(self, tmp_path):
        path = _real_series(tmp_path)
        lines = path.read_text().splitlines()
        meta = json.loads(lines[0])
        meta["samples"] = 99
        path.write_text("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        problems = smoke.check_timeseries(path)
        assert any("meta claims 99" in problem for problem in problems)

    def test_flags_non_monotone_window_starts(self, tmp_path):
        collector = WindowedCollector(window=100)
        collector.append(
            WindowSample(index=0, start=100, events=100, hits=50, misses=50)
        )
        collector.append(
            WindowSample(index=1, start=0, events=100, hits=50, misses=50)
        )
        path = tmp_path / "bad.jsonl"
        write_ts_jsonl(collector, path)
        problems = smoke.check_timeseries(path)
        assert any("not strictly increasing" in problem for problem in problems)

    def test_flags_empty_replay_series(self, tmp_path):
        collector = WindowedCollector(window=100)
        collector.record_point(0, {"g": 4}, {}, 0.1)
        path = tmp_path / "sweep-only.jsonl"
        write_ts_jsonl(collector, path)
        problems = smoke.check_timeseries(path)
        assert any("no replay samples" in problem for problem in problems)

    def test_flags_oversized_window(self, tmp_path):
        collector = WindowedCollector(window=100)
        collector.append(
            WindowSample(index=0, start=0, events=500, hits=250, misses=250)
        )
        path = tmp_path / "bad.jsonl"
        write_ts_jsonl(collector, path)
        problems = smoke.check_timeseries(path)
        assert any("exceed window" in problem for problem in problems)


class TestPrometheusChecker:
    def test_real_rendering_is_clean(self):
        samples = [WindowSample(index=0, events=10, hits=8, misses=2)]
        assert smoke.check_prometheus(prometheus_text(samples)) == []

    def test_missing_eof_flagged(self):
        assert any(
            "EOF" in problem
            for problem in smoke.check_prometheus("x_total 1")
        )

    def test_undeclared_metric_flagged(self):
        text = "undeclared_metric 5\n# EOF"
        problems = smoke.check_prometheus(text)
        assert any("no # TYPE" in problem for problem in problems)

    def test_non_numeric_value_flagged(self):
        text = "# TYPE m counter\nm banana\n# EOF"
        problems = smoke.check_prometheus(text)
        assert any("non-numeric" in problem for problem in problems)

    def test_histogram_family_is_clean(self):
        latency = Histogram()
        for value in (900, 150_000, 150_000, 7_000_000):
            latency.observe(value)
        text = exposition([("lat_ns", "histogram", "Latency", latency)])
        assert smoke.check_prometheus(text) == []
        assert 'lat_ns_bucket{le="+Inf"} 4' in text and "lat_ns_count 4" in text

    def test_le_label_outside_a_histogram_bucket_flagged(self):
        text = (
            "# TYPE c counter\nc{le=\"5\"} 1\n"
            "# TYPE h histogram\nh_sum{le=\"5\"} 1\n# EOF"
        )
        problems = smoke.check_prometheus(text)
        assert sum("le label" in problem for problem in problems) == 2

    def test_histogram_bucket_without_le_flagged(self):
        text = "# TYPE h histogram\nh_bucket 3\n# EOF"
        problems = smoke.check_prometheus(text)
        assert any("le label" in problem for problem in problems)

    def test_bare_histogram_sample_flagged(self):
        text = "# TYPE h histogram\nh 3\n# EOF"
        problems = smoke.check_prometheus(text)
        assert any("suffix" in problem for problem in problems)

    def test_bucket_of_undeclared_family_flagged(self):
        text = "# TYPE h gauge\nh_bucket{le=\"1\"} 3\n# EOF"
        problems = smoke.check_prometheus(text)
        assert any("no # TYPE" in problem for problem in problems)

    def test_other_labels_and_bad_bounds_flagged(self):
        text = (
            "# TYPE h histogram\nh_bucket{quantile=\"1\"} 3\n"
            "h_bucket{le=\"soon\"} 3\n# EOF"
        )
        problems = smoke.check_prometheus(text)
        assert any("expected 'name value'" in problem for problem in problems)
        assert any("non-numeric le bound" in problem for problem in problems)

    def test_schema_tag_exported(self):
        assert smoke.TS_SCHEMA == TS_SCHEMA
