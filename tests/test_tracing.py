"""Tests for the decision-trace flight recorder (repro.obs.tracing)."""

import json

import pytest

from repro.caching import POLICIES, make_cache
from repro.core.aggregating_cache import AggregatingClientCache
from repro.obs import ObservabilityError
from repro.obs import registry as obs_registry
from repro.obs import tracing
from repro.sim.engine import DistributedFileSystem
from repro.workloads.synthetic import make_workload

EVENTS = 4000


def _engine_trace(workload="server", events=EVENTS, **knobs):
    """One traced system replay; returns (system, recorder)."""
    trace = make_workload(workload, events, 7)
    with tracing.recording(capacity=200_000) as recorder:
        system = DistributedFileSystem(
            client_capacity=knobs.pop("client_capacity", 150),
            server_capacity=knobs.pop("server_capacity", 200),
            group_size=knobs.pop("group_size", 5),
        )
        system.replay(trace)
    return system, recorder


class TestFlightRecorder:
    def test_rejects_bad_capacity_and_sample(self):
        with pytest.raises(ObservabilityError):
            tracing.FlightRecorder(capacity=0)
        with pytest.raises(ObservabilityError):
            tracing.FlightRecorder(sample=0)

    def test_recording_rejects_negative_capacity(self):
        with pytest.raises(ObservabilityError):
            with tracing.recording(capacity=-1):
                pass
        assert tracing.active() is None

    def test_ring_keeps_newest_and_counts_drops(self):
        recorder = tracing.FlightRecorder(capacity=3)
        for index in range(5):
            recorder.open("c", f"f{index}", hit=False, resident=index)
        assert len(recorder) == 3
        assert recorder.ring_dropped == 2
        assert [record["file"] for record in recorder.records()] == [
            "f2",
            "f3",
            "f4",
        ]
        # Accounting is exact regardless of what the ring retained.
        assert recorder.emitted["open"] == 5
        assert recorder.component_summary("c")["opens"] == 5

    def test_sampling_is_per_kind_and_keeps_the_first(self):
        recorder = tracing.FlightRecorder(sample=3)
        for index in range(7):
            recorder.open("c", f"f{index}", hit=False, resident=0)
        recorder.evict("c", "f0")  # rare kind: still retained
        opens = recorder.records("open")
        assert [record["file"] for record in opens] == ["f0", "f3", "f6"]
        assert len(recorder.records("evict")) == 1
        assert recorder.emitted["open"] == 7
        assert recorder.sampled_out == 4

    def test_eviction_cause_context_nests_and_restores(self):
        recorder = tracing.FlightRecorder()
        with recorder.cause("group_install"):
            recorder.evict("c", "a")
        recorder.evict("c", "b")
        causes = [record["cause"] for record in recorder.records("evict")]
        assert causes == ["group_install", "demand_admit"]


class TestProvenance:
    def _recorder(self):
        recorder = tracing.FlightRecorder()
        # miss on "x", which drags in companions y (later used) and z
        # (evicted untouched).
        recorder.open("c", "x", hit=False, resident=0)
        recorder.demand_fetch("c", "x")
        recorder.group_fetch("c", "x", ["y", "z"], [("w", "resident")])
        recorder.open("c", "y", hit=True, resident=3)
        recorder.evict("c", "z", "demand_admit")
        return recorder

    def test_prefetch_efficiency_counts_used_before_eviction(self):
        summary = self._recorder().component_summary("c")
        assert summary["demand_fetches"] == 1
        assert summary["group_installs"] == 2
        assert summary["group_used"] == 1
        assert summary["group_evicted_unused"] == 1
        assert summary["prefetch_efficiency"] == pytest.approx(0.5)
        # one unused install against three shipped files (1 demand + 2 group)
        assert summary["wasted_fetch_share"] == pytest.approx(1 / 3)

    def test_wasteful_groups_blame_the_leader(self):
        assert self._recorder().top_wasteful_groups() == [("x", 1, 2)]

    def test_eviction_causes_are_tallied(self):
        recorder = self._recorder()
        recorder.evict("c", "y", "invalidate")
        assert recorder.eviction_causes() == {
            "demand_admit": 1,
            "invalidate": 1,
        }

    def test_resident_unused_prefetches_are_visible(self):
        recorder = tracing.FlightRecorder()
        recorder.group_fetch("c", "x", ["y"], [])
        assert recorder.component_summary("c")["group_resident_unused"] == 1
        recorder.open("c", "y", hit=True, resident=2)
        assert recorder.component_summary("c")["group_resident_unused"] == 0

    def test_explain_file_narrates_history(self):
        recorder = self._recorder()
        text = recorder.explain_file("z")
        assert "prefetched into c" in text
        assert "never used" in text
        text = recorder.explain_file("x", at=1)
        assert "open MISS" in text and "event of interest" in text

    def test_explain_file_cites_the_eviction_on_a_re_miss(self):
        recorder = tracing.FlightRecorder()
        recorder.open("c", "x", hit=False, resident=0)
        recorder.demand_fetch("c", "x")
        recorder.evict("c", "x", "group_install")
        recorder.open("c", "x", hit=False, resident=0)
        text = recorder.explain_file("x")
        assert "evicted at seq 3, cause group_install" in text

    def test_explain_unknown_file_reports_gracefully(self):
        assert "no retained trace records" in self._recorder().explain_file("nope")


class TestReplayEquivalenceUnderTracing:
    """Tracing observes replays; it never changes what they count."""

    def test_client_cache_traced_counts_match_untraced(self):
        # The recorder forces the per-event loop; an untraced replay of
        # the same configuration runs the fused one.
        sequence = make_workload("server", EVENTS, 7).file_ids()
        results = []
        for traced in (True, False):
            cache = AggregatingClientCache(capacity=150, group_size=5)
            if traced:
                with tracing.recording(capacity=200_000):
                    cache.replay(sequence)
            else:
                cache.replay(sequence)
            results.append(
                (
                    cache.stats,
                    cache.fetch_log,
                    cache.tracker.metadata_entries(),
                    {
                        file_id: cache.tracker.successors(file_id)
                        for file_id in set(sequence)
                    },
                    list(cache.resident_files()),
                )
            )
        assert results[0] == results[1]

    def test_group_fetch_records_match_the_fetch_log(self):
        # Per-fetch detail lives in the recorder's group_fetch records;
        # they sum to the cache's aggregate GroupFetchLog counters.
        cache = AggregatingClientCache(capacity=50, group_size=3)
        with tracing.recording(capacity=200_000) as recorder:
            cache.replay(make_workload("server", 2000, 7).file_ids())
        fetches = recorder.records("group_fetch")
        log = cache.fetch_log
        assert len(fetches) == log.group_fetches > 0
        assert sum(1 + len(r["installed"]) for r in fetches) == log.files_retrieved
        assert sum(len(r["installed"]) for r in fetches) == log.predicted_installed

    def test_bounded_ring_keeps_the_newest_group_fetches(self):
        sequence = make_workload("server", 2000, 7).file_ids()
        reference = AggregatingClientCache(capacity=50, group_size=3)
        with tracing.recording(capacity=200_000) as unbounded:
            reference.replay(sequence)
        cache = AggregatingClientCache(capacity=50, group_size=3)
        with tracing.recording(capacity=16) as bounded:
            cache.replay(sequence)
        assert unbounded.ring_dropped == 0
        assert bounded.records() == unbounded.records()[-16:]
        # The cap bounds only the ring: counts and aggregates stay exact.
        assert bounded.emitted["group_fetch"] == reference.fetch_log.group_fetches > 16
        assert cache.fetch_log.group_fetches == reference.fetch_log.group_fetches
        assert cache.fetch_log.mean_group_size == reference.fetch_log.mean_group_size

    def test_tracing_does_not_change_replay_results(self):
        trace = make_workload("server", EVENTS, 7)

        def run():
            system = DistributedFileSystem(
                client_capacity=150, server_capacity=200, group_size=5
            )
            system.replay(trace)
            return system.metrics()

        untraced = run()
        with tracing.recording():
            traced = run()
        assert untraced == traced

    def test_recorder_sees_every_decision_site(self):
        _, recorder = _engine_trace()
        emitted = recorder.emitted
        assert emitted["open"] > 0
        assert emitted["demand_fetch"] > 0
        assert emitted["group_fetch"] > 0
        assert emitted["evict"] > 0
        assert emitted["group_update"] == EVENTS - 1
        assert set(recorder.components()) >= {"client.client00", "server"}


class TestExports:
    def test_jsonl_round_trips_and_validates(self, tmp_path):
        _, recorder = _engine_trace(events=1000)
        path = tmp_path / "trace.jsonl"
        lines = tracing.write_trace_jsonl(recorder, path, meta={"workload": "server"})
        loaded = tracing.load_trace_jsonl(path)
        assert lines == len(loaded["records"]) + 1  # + meta line
        assert loaded["meta"]["workload"] == "server"
        assert loaded["meta"]["retained"] == len(recorder)
        assert loaded["meta"]["emitted"] == dict(recorder.emitted)
        assert loaded["records"] == recorder.records()

    def test_loader_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        meta = {"kind": "meta", "schema": tracing.TRACE_SCHEMA}
        bogus = {"kind": "telepathy", "seq": 1, "component": "c"}
        path.write_text(json.dumps(meta) + "\n" + json.dumps(bogus) + "\n")
        with pytest.raises(ObservabilityError, match="unknown trace record kind"):
            tracing.load_trace_jsonl(path)

    def test_loader_rejects_missing_fields(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        meta = {"kind": "meta", "schema": tracing.TRACE_SCHEMA}
        truncated = {"kind": "open", "seq": 1, "component": "c", "file": "x"}
        path.write_text(json.dumps(meta) + "\n" + json.dumps(truncated) + "\n")
        with pytest.raises(ObservabilityError, match="missing fields: hit, resident"):
            tracing.load_trace_jsonl(path)

    def test_loader_rejects_wrong_or_absent_schema(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "meta", "schema": "repro.trace/99"}))
        with pytest.raises(ObservabilityError, match="unsupported schema"):
            tracing.load_trace_jsonl(path)
        path.write_text("")
        with pytest.raises(ObservabilityError, match="no repro.trace/1 meta line"):
            tracing.load_trace_jsonl(path)

    def test_chrome_trace_structure(self):
        _, recorder = _engine_trace(events=500)
        payload = tracing.chrome_trace(recorder, meta={"workload": "server"})
        events = payload["traceEvents"]
        names = {event["name"] for event in events if event["ph"] == "M"}
        assert names == {"thread_name"}
        components = {
            event["args"]["name"] for event in events if event["ph"] == "M"
        }
        assert "server" in components
        instants = [event for event in events if event["ph"] == "i"]
        assert len(instants) == len(recorder)
        assert all(event["s"] == "t" for event in instants)
        # causal order stands in for time
        assert [event["ts"] for event in instants] == sorted(
            event["ts"] for event in instants
        )
        assert payload["otherData"]["schema"] == tracing.TRACE_SCHEMA
        assert payload["otherData"]["workload"] == "server"

    def test_chrome_trace_writes_valid_json(self, tmp_path):
        _, recorder = _engine_trace(events=500)
        path = tmp_path / "chrome.json"
        count = tracing.write_chrome_trace(recorder, path)
        parsed = json.loads(path.read_text())
        assert len(parsed["traceEvents"]) == count


class TestPolicyCounters:
    """Satellite: plain policies report hits/misses/evictions counters."""

    @pytest.mark.parametrize("policy", ["lru", "arc", "lirs", "mq", "2q"])
    def test_counters_equal_stats(self, policy):
        sequence = make_workload("workstation", 3000, 7).file_ids()
        with tracing.recording(capacity=1) as recorder:
            registry = obs_registry.get_registry()
            cache = make_cache(policy, 100)
            for key in sequence:
                cache.access(key)
        counters = registry.snapshot()["counters"]
        assert counters[f"cache.{policy}.hits"] == cache.stats.hits
        assert counters[f"cache.{policy}.misses"] == cache.stats.misses
        assert counters[f"cache.{policy}.evictions"] == cache.stats.evictions
        assert cache.stats.evictions > 0
        # every eviction produced a trace record with a cause
        assert recorder.emitted["evict"] == cache.stats.evictions
        summary = recorder.component_summary(policy)
        assert summary["evictions_by_cause"] == {
            "demand_admit": cache.stats.evictions
        }

    def test_all_policies_are_covered(self):
        assert {"lru", "arc", "lirs", "mq", "2q"} <= set(POLICIES)


class TestExplainCli:
    def test_explain_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        chrome = tmp_path / "chrome.json"
        code = main(
            [
                "explain",
                "--workload",
                "server",
                "--events",
                "2000",
                "--cache-size",
                "120",
                "--out",
                str(out),
                "--chrome",
                str(chrome),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "prefetch eff." in printed
        assert "top eviction causes:" in printed
        loaded = tracing.load_trace_jsonl(out)
        assert loaded["records"]
        assert json.loads(chrome.read_text())["traceEvents"]

    def test_explain_file_narrative(self, capsys):
        from repro.cli import main

        file_id = make_workload("server", 2000, 7).file_ids()[0]
        code = main(
            [
                "explain",
                "--workload",
                "server",
                "--events",
                "2000",
                "--seed",
                "7",
                "--file",
                file_id,
            ]
        )
        assert code == 0
        assert f"history of {file_id}" in capsys.readouterr().out

    def test_metrics_baselines_table(self, capsys):
        from repro.cli import main

        code = main(
            [
                "metrics",
                "--workload",
                "server",
                "--events",
                "2000",
                "--baselines",
                "lru,arc",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "baseline lru" in printed
        assert "baseline arc" in printed
        assert "cache.baseline.arc.hits" in printed

    def test_metrics_rejects_unknown_baseline(self, capsys):
        from repro.cli import main

        code = main(
            ["metrics", "--events", "500", "--baselines", "clairvoyant"]
        )
        assert code == 1
        assert "unknown baseline" in capsys.readouterr().err

    def test_report_explain_section(self):
        from repro.analysis.report import build_report

        text = build_report(events=600, charts=False, sections=[], explain=True)
        assert "## Prefetch provenance (traced replays)" in text
        assert "wasted-fetch share" in text


class TestDisabledDefaults:
    def test_no_recorder_outside_recording(self):
        assert tracing.active() is None

    def test_disabled_replay_leaves_no_trace_state(self):
        cache = AggregatingClientCache(capacity=50, group_size=3)
        cache.replay(make_workload("server", 1000, 7).file_ids())
        assert tracing.active() is None
