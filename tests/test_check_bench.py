"""Tests for the CI perf-regression gate (scripts/check_bench.py)."""

import importlib.util
import json
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_bench.py"
_spec = importlib.util.spec_from_file_location("check_bench", _SCRIPT)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def _bench_file(tmp_path, name, benchmarks):
    """Write a minimal pytest-benchmark JSON and return its path."""
    path = tmp_path / name
    path.write_text(json.dumps({"benchmarks": benchmarks}))
    return path


def _bench(name, eps=None, median=None):
    record = {"name": name, "stats": {}, "extra_info": {}}
    if eps is not None:
        record["extra_info"]["events_per_second"] = eps
    if median is not None:
        record["stats"]["median"] = median
    return record


class TestEventsPerSecond:
    def test_prefers_extra_info_throughput(self):
        bench = _bench("b", eps=1000, median=0.5)
        assert check_bench.events_per_second(bench) == 1000

    def test_falls_back_to_inverse_median(self):
        bench = _bench("b", median=0.25)
        assert check_bench.events_per_second(bench) == pytest.approx(4.0)

    def test_unmeasurable_benchmark_returns_none(self):
        assert check_bench.events_per_second(_bench("b")) is None
        assert check_bench.events_per_second(_bench("b", median=0)) is None


class TestCompare:
    def test_identical_runs_have_no_regressions(self):
        table = {"b": _bench("b", eps=1000)}
        comparisons, missing, extra = check_bench.compare(table, dict(table))
        assert not missing and not extra
        assert len(comparisons) == 1
        assert not comparisons[0]["regressed"]

    def test_thirty_percent_drop_regresses_at_default_threshold(self):
        baseline = {"b": _bench("b", eps=1000)}
        fresh = {"b": _bench("b", eps=700)}
        comparisons, _, _ = check_bench.compare(baseline, fresh)
        assert comparisons[0]["regressed"]

    def test_twenty_percent_drop_passes_at_default_threshold(self):
        baseline = {"b": _bench("b", eps=1000)}
        fresh = {"b": _bench("b", eps=800)}
        comparisons, _, _ = check_bench.compare(baseline, fresh)
        assert not comparisons[0]["regressed"]

    def test_strict_names_use_the_strict_threshold(self):
        baseline = {"b": _bench("b", eps=1000)}
        fresh = {"b": _bench("b", eps=900)}  # -10%: fine at 25%, not at 5%
        loose, _, _ = check_bench.compare(baseline, fresh)
        assert not loose[0]["regressed"] and not loose[0]["strict"]
        strict, _, _ = check_bench.compare(baseline, fresh, strict=["b"])
        assert strict[0]["regressed"] and strict[0]["strict"]
        assert strict[0]["threshold"] == 0.05

    def test_strict_allows_small_drift(self):
        baseline = {"b": _bench("b", eps=1000)}
        fresh = {"b": _bench("b", eps=960)}  # -4%: within the 5% bar
        comparisons, _, _ = check_bench.compare(baseline, fresh, strict=["b"])
        assert not comparisons[0]["regressed"]

    def test_missing_and_extra_names_are_reported_not_compared(self):
        baseline = {"old": _bench("old", eps=10), "both": _bench("both", eps=10)}
        fresh = {"new": _bench("new", eps=10), "both": _bench("both", eps=10)}
        comparisons, missing, extra = check_bench.compare(baseline, fresh)
        assert [row["name"] for row in comparisons] == ["both"]
        assert missing == ["old"]
        assert extra == ["new"]


class TestMain:
    def test_identical_baselines_pass(self, tmp_path):
        benches = [_bench("a", eps=1000), _bench("b", median=0.1)]
        baseline = _bench_file(tmp_path, "base.json", benches)
        fresh = _bench_file(tmp_path, "fresh.json", benches)
        code = check_bench.main(
            ["--baseline", str(baseline), "--fresh", str(fresh)]
        )
        assert code == 0

    def test_committed_baseline_passes_against_itself(self):
        baseline = str(_SCRIPT.parent.parent / "BENCH_micro.json")
        code = check_bench.main(["--baseline", baseline, "--fresh", baseline])
        assert code == 0

    def test_thirty_percent_regression_fails(self, tmp_path, capsys):
        baseline = _bench_file(tmp_path, "base.json", [_bench("a", eps=1000)])
        fresh = _bench_file(tmp_path, "fresh.json", [_bench("a", eps=700)])
        code = check_bench.main(
            ["--baseline", str(baseline), "--fresh", str(fresh)]
        )
        assert code == 1
        captured = capsys.readouterr()
        assert "REGRESSION" in captured.out
        assert "regressed" in captured.err

    def test_missing_and_extra_names_warn_but_pass(self, tmp_path, capsys):
        baseline = _bench_file(
            tmp_path, "base.json", [_bench("kept", eps=10), _bench("gone", eps=10)]
        )
        fresh = _bench_file(
            tmp_path, "fresh.json", [_bench("kept", eps=10), _bench("added", eps=10)]
        )
        code = check_bench.main(
            ["--baseline", str(baseline), "--fresh", str(fresh)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "warning" in out and "gone" in out and "added" in out

    def test_no_common_benchmarks_fails(self, tmp_path):
        baseline = _bench_file(tmp_path, "base.json", [_bench("a", eps=10)])
        fresh = _bench_file(tmp_path, "fresh.json", [_bench("b", eps=10)])
        code = check_bench.main(
            ["--baseline", str(baseline), "--fresh", str(fresh)]
        )
        assert code == 1

    def test_missing_file_is_an_error_not_a_crash(self, tmp_path, capsys):
        baseline = _bench_file(tmp_path, "base.json", [_bench("a", eps=10)])
        code = check_bench.main(
            ["--baseline", str(baseline), "--fresh", str(tmp_path / "nope.json")]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err

    def test_strict_gate_fails_a_ten_percent_drop(self, tmp_path, capsys):
        baseline = _bench_file(tmp_path, "base.json", [_bench("a", eps=1000)])
        fresh = _bench_file(tmp_path, "fresh.json", [_bench("a", eps=900)])
        args = ["--baseline", str(baseline), "--fresh", str(fresh)]
        assert check_bench.main(args) == 0
        assert check_bench.main(args + ["--strict", "a"]) == 1
        assert "[strict]" in capsys.readouterr().out

    def test_missing_strict_benchmark_fails_the_gate(self, tmp_path, capsys):
        baseline = _bench_file(tmp_path, "base.json", [_bench("a", eps=10)])
        fresh = _bench_file(tmp_path, "fresh.json", [_bench("a", eps=10)])
        code = check_bench.main(
            [
                "--baseline",
                str(baseline),
                "--fresh",
                str(fresh),
                "--strict",
                "vanished",
            ]
        )
        assert code == 1
        assert "strict benchmark(s) missing" in capsys.readouterr().err

    def test_ci_strict_benches_exist_in_committed_baseline(self):
        # The Makefile/CI strict names must track benchmark renames.
        baseline = check_bench.load_benchmarks(
            _SCRIPT.parent.parent / "BENCH_micro.json"
        )
        for name in (
            "test_system_replay_throughput",
            "test_aggregating_replay_fast_throughput",
            "test_columnar_kernel_v2_replay_throughput",
            "test_array_lru_throughput",
            "test_columnar_scan_pure_int_throughput",
        ):
            assert name in baseline

    def test_custom_threshold_tightens_the_gate(self, tmp_path):
        baseline = _bench_file(tmp_path, "base.json", [_bench("a", eps=1000)])
        fresh = _bench_file(tmp_path, "fresh.json", [_bench("a", eps=900)])
        code = check_bench.main(
            [
                "--baseline",
                str(baseline),
                "--fresh",
                str(fresh),
                "--threshold",
                "0.05",
            ]
        )
        assert code == 1
