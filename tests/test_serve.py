"""Tests for the aggregating-cache daemon (``repro serve``) and the
multi-process load driver (``repro slam``).

Every daemon here binds port 0 (the ephemeral-port contract) and is
closed via the context manager, so parallel test runs never collide on
an address and no test leaks a socket.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
from collections import deque
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import build_parser, main
from repro.core.successors import SUCCESSOR_POLICIES
from repro.obs import host as obs_host
from repro.obs.timeseries import MetricsServer
from repro.serve import (
    CacheDaemon,
    ScenarioError,
    ServeConnection,
    SlamError,
    SlamReport,
    load_scenario,
    percentile,
    run_slam,
)
from repro.serve import schema as wire
from repro.serve.client import make_shards
from repro.serve.scenario import Scenario, scenario_from_dict
from repro.serve.server import DaemonTelemetry
from repro.workloads.synthetic import make_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = REPO_ROOT / "scenarios"


def tiny_scenario(**overrides) -> Scenario:
    scenario = Scenario(capacity=100, group_size=4, events=500, seed=3)
    for key, value in overrides.items():
        setattr(scenario, key, value)
    return scenario


# -- scenario loading --------------------------------------------------------


class TestScenario:
    def test_empty_object_is_valid(self):
        scenario = scenario_from_dict({})
        assert scenario.port == 0
        assert scenario.capacity == 300
        assert scenario.journal_enabled

    def test_repo_scenarios_load(self):
        for name in ("smoke.json", "paper-server.json"):
            scenario = load_scenario(SCENARIOS / name)
            assert scenario.port == 0, f"{name} must keep the port-0 contract"
            assert scenario.build_cache().capacity == scenario.capacity

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioError, match="group_sze"):
            scenario_from_dict({"cache": {"group_sze": 5}})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ScenarioError, match="unknown top-level"):
            scenario_from_dict({"cachee": {}})

    def test_bool_is_not_an_integer(self):
        with pytest.raises(ScenarioError, match="must be an integer"):
            scenario_from_dict({"server": {"port": True}})

    def test_bad_schema_rejected(self):
        with pytest.raises(ScenarioError, match="unsupported schema"):
            scenario_from_dict({"schema": "repro.scenario/9"})

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ScenarioError, match="port"):
            scenario_from_dict({"server": {"port": 70000}})
        with pytest.raises(ScenarioError, match="capacity"):
            scenario_from_dict({"cache": {"capacity": 0}})

    def test_invalid_json_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            load_scenario(bad)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "absent.json")

    def test_round_trip_to_dict(self):
        scenario = scenario_from_dict({"name": "x", "cache": {"capacity": 42}})
        again = scenario_from_dict(scenario.to_dict())
        assert again.capacity == 42
        assert again.name == "x"

    def test_unknown_keys_of_mixed_types_rejected(self):
        # YAML mappings can mix key types; naming them must not fail.
        with pytest.raises(ScenarioError, match="unknown top-level key"):
            scenario_from_dict({1: 2, "a": 3})

    def test_unknown_successor_policy_rejected(self):
        with pytest.raises(ScenarioError, match="successor_policy.*'bogus'"):
            scenario_from_dict({"cache": {"successor_policy": "bogus"}})

    def test_not_utf8_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"name": "\xff"}')
        with pytest.raises(ScenarioError, match="not UTF-8"):
            load_scenario(bad)

    def test_deep_nesting_rejected(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000, encoding="utf-8")
        with pytest.raises(ScenarioError, match="nested too deeply"):
            load_scenario(deep)

    @pytest.mark.parametrize(
        "payload",
        [
            {"journal": {"max_events": 10**20}},
            {"telemetry": {"retain": 10**20}},
            {"telemetry": {"window_seconds": 10**20}},
        ],
    )
    def test_out_of_range_sizes_rejected(self, payload):
        with pytest.raises(ScenarioError, match="must be"):
            scenario_from_dict(payload)

    @pytest.mark.parametrize("text", ["NaN", "Infinity", "1e400"])
    def test_window_seconds_must_be_finite(self, tmp_path, text):
        # Python's json reads NaN and Infinity; the sampler cannot wait
        # either (NaN spins it, Infinity kills it).
        path = tmp_path / "timer.json"
        path.write_text(
            '{"telemetry": {"window_seconds": %s}}' % text, encoding="utf-8"
        )
        with pytest.raises(ScenarioError, match="window_seconds"):
            load_scenario(path)


#: Values of every JSON type, including the ones a loose loader lets
#: through: huge integers, NaN and the infinities, unknown policies.
_SCENARIO_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([-1, 0, 1, 65536, 2**63 - 1, 2**63, 10**20, -(10**20)]),
    st.floats(),
    st.sampled_from(sorted(SUCCESSOR_POLICIES) + ["bogus", ""]),
    st.text(max_size=6),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)


_SIZE = st.one_of(
    st.integers(1, 1000), st.sampled_from([0, 2**63 - 1, 2**63, 10**20])
)
_TEXT = st.text(max_size=6)

#: Each key's own type, with the values that type lets through: huge
#: integers, non-finite floats, policy names that do not exist.
_SCENARIO_KEYS = {
    "server": {
        "host": _TEXT,
        "port": st.integers(0, 65535),
        "allow_shutdown": st.booleans(),
    },
    "cache": {
        "capacity": _SIZE,
        "group_size": _SIZE,
        "successor_policy": st.sampled_from(
            sorted(SUCCESSOR_POLICIES) + ["bogus", ""]
        ),
        "successor_capacity": _SIZE,
    },
    "workload": {
        "name": _TEXT,
        "events": _SIZE,
        "seed": st.one_of(st.none(), st.integers()),
    },
    "journal": {"enabled": st.booleans(), "max_events": _SIZE},
    "telemetry": {
        "window_seconds": st.one_of(
            st.floats(0, 10),
            st.sampled_from([float("nan"), float("inf"), 1e300, 10**20]),
        ),
        "window_events": st.one_of(
            st.integers(0, 1000), st.sampled_from([-1, 10**20])
        ),
        "retain": _SIZE,
    },
}


def _payloads(value_for):
    """Scenario objects whose keys draw from ``value_for(typed)``."""
    return st.fixed_dictionaries(
        {},
        optional={
            "name": value_for(_TEXT),
            "description": value_for(_TEXT),
            **{
                section: st.fixed_dictionaries(
                    {},
                    optional={key: value_for(typed) for key, typed in keys.items()},
                )
                for section, keys in _SCENARIO_KEYS.items()
            },
        },
    )


#: Well-typed payloads reach the range checks; the rest put a value of
#: any type anywhere, sections included.
_SCENARIO_PAYLOADS = st.one_of(
    _payloads(lambda typed: typed),
    _payloads(lambda typed: st.one_of(typed, _SCENARIO_VALUES)),
    st.dictionaries(st.sampled_from(sorted(_SCENARIO_KEYS)), _SCENARIO_VALUES),
)


def _check_loaded(path: Path) -> None:
    """``load_scenario`` either rejects the file with ``ScenarioError`` or
    returns a scenario the daemon can be built from."""
    try:
        scenario = load_scenario(path)
    except ScenarioError:
        return
    scenario.build_cache()
    deque(maxlen=scenario.journal_max_events)
    DaemonTelemetry(
        window_seconds=scenario.telemetry_window_seconds,
        window_events=scenario.telemetry_window_events,
        retain=scenario.telemetry_retain,
        label=scenario.name,
    )
    # The sampler thread waits this long between windows; an unlocked
    # lock checks the timeout the same way and returns at once.
    assert threading.Lock().acquire(True, scenario.telemetry_window_seconds)


class TestScenarioFuzz:
    """Every scenario file is loaded or rejected with ``ScenarioError``:
    no traceback, and nothing a daemon then fails to build."""

    @settings(max_examples=200, deadline=None)
    @given(raw=st.binary(max_size=64))
    def test_arbitrary_bytes(self, tmp_path_factory, raw):
        path = tmp_path_factory.getbasetemp() / "fuzz-bytes.json"
        path.write_bytes(raw)
        _check_loaded(path)

    @settings(max_examples=300, deadline=None)
    @given(payload=_SCENARIO_PAYLOADS)
    def test_json_payloads(self, tmp_path_factory, payload):
        path = tmp_path_factory.getbasetemp() / "fuzz-payload.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        _check_loaded(path)


# -- wire schema -------------------------------------------------------------


class TestWire:
    def test_parse_body_rejects_non_object(self):
        with pytest.raises(wire.WireError, match="JSON object"):
            wire.parse_body(b"[1, 2]")

    def test_parse_body_rejects_empty(self):
        with pytest.raises(wire.WireError, match="empty body"):
            wire.parse_body(b"")

    def test_parse_body_rejects_deep_nesting(self):
        with pytest.raises(wire.WireError, match="nested too deeply"):
            wire.parse_body(b"[" * 5000)

    def test_parse_content_length(self):
        assert wire.parse_content_length(None) == 0
        assert wire.parse_content_length("0") == 0
        assert wire.parse_content_length(" 42 ") == 42
        for bad in ("", "abc", "-1", "-5", "+2", "1_0", "4.0", "\u0663"):
            with pytest.raises(wire.WireError, match="Content-Length") as caught:
                wire.parse_content_length(bad)
            assert caught.value.status == 400

    def test_parse_open_requires_file(self):
        with pytest.raises(wire.WireError, match="'file'"):
            wire.parse_open({})
        with pytest.raises(wire.WireError, match="non-empty string"):
            wire.parse_open({"file": ""})

    def test_parse_fetch_validates_files(self):
        with pytest.raises(wire.WireError, match="'files'"):
            wire.parse_fetch({"files": []})
        with pytest.raises(wire.WireError, match="non-empty string"):
            wire.parse_fetch({"files": ["ok", 7]})
        files, client, detail = wire.parse_fetch(
            {"files": ["a", "b"], "client": "w1", "detail": True}
        )
        assert files == ["a", "b"] and client == "w1" and detail is True

    def test_journal_entry_round_trip(self):
        assert wire.decode_journal_entry(wire.journal_entry("f1")) == ("f1", False)
        assert wire.decode_journal_entry(
            wire.journal_entry("f1", invalidate=True)
        ) == ("f1", True)

    @settings(max_examples=300, deadline=None)
    @given(
        file_id=st.text(alphabet=st.sampled_from("!\\ab/"), min_size=1)
        | st.text(min_size=1),
        invalidate=st.booleans(),
    )
    def test_journal_entry_round_trips_any_id(self, file_id, invalidate):
        entry = wire.journal_entry(file_id, invalidate)
        assert wire.decode_journal_entry(entry) == (file_id, invalidate)
        if not invalidate and not file_id.startswith(("!", "\\")):
            assert entry == file_id  # ordinary ids keep their bytes

    def test_validate_stats_requires_schema(self):
        with pytest.raises(wire.WireError, match="schema"):
            wire.validate_stats({"cache": {}})


# -- percentile math ---------------------------------------------------------


class TestPercentile:
    def test_empty_is_zero(self):
        assert percentile([], 0.5) == 0.0

    def test_single_value(self):
        assert percentile([7.0], 0.99) == 7.0

    def test_interpolation(self):
        values = [0.0, 10.0]
        assert percentile(values, 0.5) == 5.0
        assert percentile(list(range(101)), 0.95) == 95.0

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_shared_with_obs(self):
        # One implementation: repro.serve re-exports obs.quantiles.
        from repro.obs.quantiles import percentile as obs_percentile

        assert percentile is obs_percentile


# -- sharding ----------------------------------------------------------------


class TestShards:
    def test_contiguous_cover(self):
        shards = make_shards([f"f{i}" for i in range(10)], 3)
        flat = [fid for shard in shards for fid in shard[1]]
        assert flat == [f"f{i}" for i in range(10)]
        assert len(shards) == 3

    def test_small_trace_drops_empty_shards(self):
        shards = make_shards(["a", "b"], 8)
        assert len(shards) == 2

    def test_rejects_bad_ctrace_path(self, tmp_path):
        bogus = tmp_path / "x.ctrace"
        bogus.write_bytes(b"not a ctrace")
        with pytest.raises(SlamError, match="not a valid"):
            make_shards(bogus, 2)


# -- daemon endpoints --------------------------------------------------------


class TestDaemon:
    def test_open_miss_ships_group_then_hit(self):
        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            _status, miss = conn.request("POST", "/open", {"file": "f1"})
            assert miss["hit"] is False
            assert miss["group"][0] == "f1"
            assert miss["seq"] == 1
            _status, hit = conn.request("POST", "/open", {"file": "f1"})
            assert hit["hit"] is True
            assert hit["group"] == []

    def test_fetch_matches_in_process_cache(self):
        scenario = tiny_scenario()
        trace = list(make_workload("server", 800, 5).file_ids())
        local = scenario.build_cache()
        local_hits = sum(1 for fid in trace if local.access(fid))
        with CacheDaemon(scenario) as daemon, ServeConnection(daemon.url) as conn:
            served_hits = 0
            for low in range(0, len(trace), 32):
                body = conn.fetch(trace[low : low + 32])
                served_hits += body["hits"]
            stats = conn.stats()
        assert served_hits == local_hits
        assert stats["cache"]["hits"] == local_hits
        assert stats["accesses"] == len(trace)

    def test_fetch_detail_results(self):
        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            _status, body = conn.request(
                "POST", "/fetch", {"files": ["a", "a", "b"], "detail": True}
            )
            assert body["results"] == [False, True, False]
            assert body["hits"] == 1

    def test_invalidate_resident_then_404(self):
        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            conn.request("POST", "/open", {"file": "f1"})
            _status, body = conn.request("POST", "/invalidate", {"file": "f1"})
            assert body == {"invalidated": True, "file": "f1"}
            status, error = conn.request(
                "POST", "/invalidate", {"file": "f1"}, expect_error=True
            )
            assert status == 404
            assert error["status"] == 404 and "not resident" in error["error"]

    def test_malformed_json_is_structured_400(self):
        with CacheDaemon(tiny_scenario()) as daemon:
            status, payload, closed = _raw_post(
                daemon,
                "POST /open HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
                "Content-Length: 5",
                b"{oops",
            )
        assert status == 400
        assert payload["status"] == 400 and "JSON" in payload["error"]
        assert not closed  # the body was read, so the connection stays usable

    def test_missing_field_is_400(self):
        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            status, body = conn.request("POST", "/open", {"client": "x"}, expect_error=True)
            assert status == 400
            assert "file" in body["error"]

    def test_unknown_path_is_404_wrong_method_is_405(self):
        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            status, body = conn.request("GET", "/nope", expect_error=True)
            assert status == 404 and body["status"] == 404
            status, body = conn.request("GET", "/open", expect_error=True)
            assert status == 405 and "does not accept" in body["error"]

    def test_stats_shape_and_error_counter(self):
        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            conn.request("POST", "/open", {"file": "f1"})
            conn.request("GET", "/nope", expect_error=True)
            stats = conn.stats()
        assert stats["schema"] == wire.SERVE_SCHEMA
        assert stats["errors"] == 1
        assert stats["scenario"]["cache"]["capacity"] == 100
        assert stats["journal"]["enabled"] and stats["journal"]["events"] == 1
        assert stats["latency_ns"]["count"] >= 1

    def test_metrics_prometheus_text_parses(self):
        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            conn.fetch(["a", "b", "a"])
            _status, body = conn.request("GET", "/metrics")
        lines = body["text"].splitlines()
        assert lines[-1] == "# EOF"
        declared = {}
        for line in lines:
            if line.startswith("# TYPE "):
                _hash, _type, name, kind = line.split()
                assert kind in ("counter", "gauge", "histogram")
                declared[name] = kind
            elif line and not line.startswith("#"):
                sample, value = line.rsplit(" ", 1)
                name, brace, label = sample.partition("{")
                stem, _, suffix = name.rpartition("_")
                if declared.get(stem) == "histogram":
                    assert suffix in ("bucket", "sum", "count"), line
                    # An le label sits on, and only on, a histogram's _bucket.
                    assert bool(brace) == (suffix == "bucket"), line
                else:
                    assert declared[name] in ("counter", "gauge") and not brace, line
                if brace:
                    assert label.startswith('le="') and label.endswith('"}'), line
                    float(label[4:-2])
                float(value)
        assert declared["repro_serve_hits_total"] == "counter"
        assert declared["repro_serve_latency_ns"] == "histogram"

    def test_journal_round_trip_reproduces_counters(self):
        scenario = tiny_scenario()
        trace = list(make_workload("users", 600, 11).file_ids())
        with CacheDaemon(scenario) as daemon, ServeConnection(daemon.url) as conn:
            for low in range(0, len(trace), 25):
                conn.fetch(trace[low : low + 25])
            conn.request("POST", "/invalidate", {"file": trace[-1]})
            _status, journal = conn.request("GET", "/journal")
            stats = conn.stats()
        assert not journal["truncated"]
        fresh = scenario.build_cache()
        wire.replay_journal(fresh, journal["entries"])
        local = fresh.stats_dict()
        assert local["hits"] == stats["cache"]["hits"]
        assert local["misses"] == stats["cache"]["misses"]
        assert local["evictions"] == stats["cache"]["evictions"]

    def test_journal_disabled_404(self):
        with CacheDaemon(tiny_scenario(journal_enabled=False)) as daemon:
            with ServeConnection(daemon.url) as conn:
                status, body = conn.request("GET", "/journal", expect_error=True)
        assert status == 404 and "disabled" in body["error"]

    def test_shutdown_endpoint_wakes_stop_event(self):
        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            _status, body = conn.request("POST", "/shutdown")
            assert body == {"stopping": True}
            assert daemon._stop.is_set()

    def test_shutdown_endpoint_403_when_disabled(self):
        with CacheDaemon(tiny_scenario(allow_shutdown=False)) as daemon:
            with ServeConnection(daemon.url) as conn:
                status, body = conn.request("POST", "/shutdown", expect_error=True)
        assert status == 403 and body["status"] == 403

    def test_marked_ids_are_accesses_in_the_journal(self):
        # An id that starts with the invalidation marker is a plain file:
        # opening a, !a, !a serves 1 hit, and the journal must replay so.
        scenario = load_scenario(SCENARIOS / "smoke.json")
        with CacheDaemon(scenario) as daemon, ServeConnection(daemon.url) as conn:
            for file_id in ("a", "!a", "!a"):
                conn.request("POST", "/open", {"file": file_id})
            served = conn.stats()["cache"]
            _status, journal = conn.request("GET", "/journal")
        assert (served["hits"], served["misses"]) == (1, 2)
        replayed = scenario.build_cache()
        wire.replay_journal(replayed, journal["entries"])
        local = replayed.stats_dict()
        assert (local["hits"], local["misses"]) == (1, 2)
        assert journal["encoding"] == wire.JOURNAL_ENCODING


def _raw_post(daemon, head: str, body: bytes = b"", timeout: float = 5.0):
    """Send hand-framed POST bytes; return (status, error body, then-closed).

    Reads exactly one response (headers plus Content-Length bytes) and
    then whether the daemon closed the connection.  A daemon that never
    answers fails the test with a socket timeout instead of hanging it.
    """
    with socket.create_connection((daemon.host, daemon.port), timeout=timeout) as sock:
        sock.sendall(head.encode("ascii") + b"\r\n\r\n" + body)
        buffered = b""
        while b"\r\n\r\n" not in buffered:
            chunk = sock.recv(65536)
            assert chunk, f"connection closed before a response: {buffered!r}"
            buffered += chunk
        header, _, payload = buffered.partition(b"\r\n\r\n")
        lines = header.decode("latin-1").split("\r\n")
        status = int(lines[0].split()[1])
        fields = dict(line.split(": ", 1) for line in lines[1:])
        while len(payload) < int(fields["Content-Length"]):
            payload += sock.recv(65536)
        sock.settimeout(1.0)
        try:
            closed = sock.recv(1) == b""
        except socket.timeout:
            closed = False
    return status, json.loads(payload), closed


class TestMalformedRequests:
    """Rejected requests get a structured 4xx, never a 500 or a hang.

    A body the daemon did not read must not reach the next request on
    a keep-alive connection, so those rejections close it.
    """

    def test_deeply_nested_body_is_400(self):
        body = b"[" * 5000
        with CacheDaemon(tiny_scenario()) as daemon:
            status, error, closed = _raw_post(
                daemon, f"POST /fetch HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}", body
            )
        assert status == 400 and error["status"] == 400
        assert "nested" in error["error"]
        assert not closed  # a framed body keeps the connection alive

    @pytest.mark.parametrize("length", ["abc", "-5", "+2"])
    def test_malformed_content_length_is_400_and_closes(self, length):
        with CacheDaemon(tiny_scenario()) as daemon:
            status, error, closed = _raw_post(
                daemon, f"POST /open HTTP/1.1\r\nHost: x\r\nContent-Length: {length}", b"{}"
            )
        assert status == 400 and error["status"] == 400
        assert "Content-Length" in error["error"]
        assert closed  # the body cannot be framed, so nothing after it can be

    @pytest.mark.parametrize(
        "path, length, status",
        [("/nope", None, 404), ("/stats", None, 405), ("/open", 9 * 1024 * 1024, 413)],
    )
    def test_rejected_before_body_read_closes(self, path, length, status):
        body = b'{"file": "f1"}'
        with CacheDaemon(tiny_scenario()) as daemon:
            got, error, closed = _raw_post(
                daemon,
                f"POST {path} HTTP/1.1\r\nHost: x\r\nContent-Length: {length or len(body)}",
                body,
            )
            assert daemon.accesses == 0
        assert got == status == error["status"]
        assert closed

    def test_minus_one_content_length_is_answered_at_once(self):
        # A negative length must not start a read to EOF: the socket
        # timeout turns such a hang into a failure.
        with CacheDaemon(tiny_scenario()) as daemon:
            status, error, closed = _raw_post(
                daemon,
                "POST /open HTTP/1.1\r\nHost: x\r\nContent-Length: -1",
                b'{"file": "f1"}',
                timeout=3.0,
            )
            assert daemon.accesses == 0
        assert status == 400 and "Content-Length" in error["error"]
        assert closed


# -- slam driver -------------------------------------------------------------


class TestSlam:
    def test_slam_single_worker_inline(self):
        scenario = tiny_scenario()
        trace = list(make_workload("server", 400, 9).file_ids())
        with CacheDaemon(scenario) as daemon:
            report = run_slam(daemon.url, trace, workers=1, batch=10)
        assert report.events == 400
        assert report.requests == 40
        assert report.errors == 0
        assert report.p50_ms >= 0.0
        assert 0.0 <= report.served_hit_ratio <= 1.0

    def test_slam_multiprocess_matches_journal_replay(self):
        scenario = tiny_scenario()
        trace = list(make_workload("server", 600, 13).file_ids())
        with CacheDaemon(scenario) as daemon:
            report = run_slam(daemon.url, trace, workers=2, batch=16)
            with ServeConnection(daemon.url) as conn:
                _status, journal = conn.request("GET", "/journal")
                stats = conn.stats()
        assert report.events == 600
        assert report.workers == 2
        fresh = scenario.build_cache()
        wire.replay_journal(fresh, journal["entries"])
        assert fresh.stats_dict()["hits"] == stats["cache"]["hits"]
        assert report.client_hits == stats["cache"]["hits"]

    def test_slam_delta_isolates_this_run(self):
        scenario = tiny_scenario()
        with CacheDaemon(scenario) as daemon:
            with ServeConnection(daemon.url) as conn:
                conn.fetch(["warm1", "warm2"])  # pre-existing traffic
            report = run_slam(daemon.url, ["a", "a", "a", "a"], workers=1, batch=2)
        assert report.delta["accesses"] == 4
        assert report.delta["hits"] == 3  # first "a" misses, rest hit
        assert report.served_hit_ratio == 0.75

    def test_slam_report_json_schema(self, tmp_path):
        from repro.serve.client import write_report

        scenario = tiny_scenario()
        with CacheDaemon(scenario) as daemon:
            report = run_slam(daemon.url, ["a", "b", "a"], workers=1, batch=2)
        out = write_report(report, tmp_path / "report.json")
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload["schema"] == wire.SLAM_SCHEMA
        assert payload["events"] == 3
        assert set(payload["latency_ms"]) == {"p50", "p95", "p99", "mean"}

    def test_slam_ctrace_source(self, tmp_path):
        from repro.traces.columnar import write_columnar
        from repro.traces.events import Trace, TraceEvent

        trace = list(make_workload("server", 300, 17).file_ids())
        artifact = tmp_path / "slam.ctrace"
        write_columnar(
            Trace(events=[TraceEvent(file_id=fid) for fid in trace]), artifact
        )
        shards = make_shards(artifact, 3)
        assert [s[0] for s in shards] == ["ctrace"] * 3
        scenario = tiny_scenario()
        with CacheDaemon(scenario) as daemon:
            report = run_slam(daemon.url, artifact, workers=2, batch=16)
            serial = scenario.build_cache()
            with ServeConnection(daemon.url) as conn:
                _status, journal = conn.request("GET", "/journal")
                stats = conn.stats()
        assert report.events == 300
        wire.replay_journal(serial, journal["entries"])
        assert serial.stats_dict()["hits"] == stats["cache"]["hits"]

    def test_retry_once_on_connection_reset(self, monkeypatch):
        with CacheDaemon(tiny_scenario()) as daemon:
            conn = ServeConnection(daemon.url)
            real_once = conn._once
            calls = {"n": 0}

            def flaky(method, path, body, headers=None):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise ConnectionResetError("peer reset")
                return real_once(method, path, body, headers)

            monkeypatch.setattr(conn, "_once", flaky)
            body = conn.fetch(["f1"])
            conn.close()
        assert body["count"] == 1
        assert conn.retries == 1
        assert calls["n"] == 2

    def test_second_reset_raises(self, monkeypatch):
        with CacheDaemon(tiny_scenario()) as daemon:
            conn = ServeConnection(daemon.url)

            def always_reset(method, path, body, headers=None):
                raise ConnectionResetError("peer reset")

            monkeypatch.setattr(conn, "_once", always_reset)
            with pytest.raises(SlamError, match="failed after retry"):
                conn.fetch(["f1"])
            conn.close()
        assert conn.retries == 1

    def test_dead_daemon_raises_slam_error(self):
        daemon = CacheDaemon(tiny_scenario()).start()
        url = daemon.url
        daemon.close()
        with pytest.raises(SlamError):
            run_slam(url, ["a", "b"], workers=1, batch=1)


# -- process lifecycle -------------------------------------------------------


def _spawn_daemon(tmp_path, *extra):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    port_file = tmp_path / "port"
    process = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            str(SCENARIOS / "smoke.json"),
            "--port-file", str(port_file), *extra,
        ],
        env=env,
        cwd=str(REPO_ROOT),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    deadline = time.monotonic() + 20
    while time.monotonic() < deadline:
        if process.poll() is not None:
            raise AssertionError(
                f"daemon died early: {process.communicate()[0]}"
            )
        if port_file.exists() and port_file.read_text().strip():
            return process, int(port_file.read_text().strip())
        time.sleep(0.05)
    process.kill()
    process.communicate()
    raise AssertionError("daemon never announced its port")


class TestProcessLifecycle:
    def test_sigterm_exits_zero_and_releases_port(self, tmp_path):
        process, port = _spawn_daemon(tmp_path)
        with ServeConnection(f"http://127.0.0.1:{port}") as conn:
            _status, body = conn.request("GET", "/healthz")
            assert body["ok"] is True
        process.send_signal(signal.SIGTERM)
        assert process.wait(timeout=10) == 0
        output = process.communicate()[0]
        assert "socket released" in output
        # no orphaned socket: the port is immediately rebindable
        rebind = CacheDaemon(tiny_scenario(), port=port)
        rebind.close()

    def test_sigint_exits_zero(self, tmp_path):
        process, _port = _spawn_daemon(tmp_path)
        process.send_signal(signal.SIGINT)
        process.communicate(timeout=10)  # also closes the stdout pipe
        assert process.returncode == 0

    def test_shutdown_endpoint_stops_the_process(self, tmp_path):
        process, port = _spawn_daemon(tmp_path)
        with ServeConnection(f"http://127.0.0.1:{port}") as conn:
            conn.request("POST", "/shutdown")
        process.communicate(timeout=10)
        assert process.returncode == 0

    def test_port_file_directory_is_created(self, tmp_path):
        directory = tmp_path / "new" / "dir"
        process, port = _spawn_daemon(directory)
        process.send_signal(signal.SIGTERM)
        process.communicate(timeout=10)
        assert process.returncode == 0
        assert (directory / "port").read_text() == f"{port}\n"


class TestStartFailures:
    """A daemon that cannot start says why on stderr and exits 1."""

    SMOKE = str(SCENARIOS / "smoke.json")

    @pytest.mark.parametrize("port", ["99999", "-1"])
    def test_port_out_of_range(self, port, capsys):
        assert main(["serve", self.SMOKE, "--port", port]) == 1
        assert capsys.readouterr().err == f"error: --port must be 0..65535, got {port}\n"

    def test_busy_port(self, capsys):
        with socket.socket() as blocker:
            blocker.bind(("127.0.0.1", 0))
            blocker.listen(1)
            port = blocker.getsockname()[1]
            assert main(["serve", self.SMOKE, "--port", str(port)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot listen on 127.0.0.1:{port}: ")

    def test_unresolvable_host(self, monkeypatch, capsys):
        # bind() resolves the host; failing there keeps the test off DNS.
        def unresolvable(server):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(obs_host._Server, "server_bind", unresolvable)
        host = "no.such.host.invalid"
        assert main(["serve", self.SMOKE, "--host", host]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot listen on {host}:0: ")

    @pytest.fixture
    def serving(self, monkeypatch):
        """Daemons that reach :meth:`CacheDaemon.run`, closed at once
        instead of serving (so a check that fails to reject cannot
        block the test)."""
        ran = []

        def run(daemon, **_kwargs):
            ran.append(daemon)
            daemon.close()
            return 0

        monkeypatch.setattr(CacheDaemon, "run", run)
        return ran

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--stats-window", "-1"),
            ("--stats-window", "nan"),
            ("--stats-window", "inf"),
            ("--stats-window-events", "-1"),
        ],
    )
    def test_stats_window_override_checked(self, option, value, serving, capsys):
        # The scenario file's checks hold for its CLI overrides too.
        assert main(["serve", self.SMOKE, option, value]) == 1
        assert serving == []
        assert capsys.readouterr().err.startswith(f"error: {option} must be 0..")

    @pytest.mark.parametrize("capacity", ["0", "-1", str(10**20)])
    def test_span_capacity_checked(self, capacity, serving, tmp_path, capsys):
        # The span ring is held to the scenario's ring-size check: a
        # capacity deque(maxlen=) cannot take fails before the daemon.
        spans = str(tmp_path / "spans.jsonl")
        argv = ["serve", self.SMOKE, "--spans", spans, "--span-capacity", capacity]
        assert main(argv) == 1
        assert serving == []
        assert capsys.readouterr().err.startswith("error: --span-capacity must be 1..")

    @pytest.mark.parametrize(
        "option, what", [("--access-log", "access log"), ("--spans", "span log")]
    )
    def test_unwritable_log_rejected_before_serving(
        self, option, what, serving, tmp_path, capsys
    ):
        assert main(["serve", self.SMOKE, option, str(tmp_path)]) == 1
        assert serving == []
        assert capsys.readouterr().err == (
            f"error: cannot write {what} {tmp_path}: Is a directory\n"
        )

    def test_unwritable_port_file_rejected_before_serving(self, tmp_path, capsys):
        handlers = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
        assert main(["serve", self.SMOKE, "--port-file", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"error: cannot write port file {tmp_path}: Is a directory\n"
        )
        # Nothing is left serving and the signal handlers are the caller's.
        assert not [t for t in threading.enumerate() if t.name == "repro-serve"]
        assert {sig: signal.getsignal(sig) for sig in handlers} == handlers


# -- the shared HTTP host: port-0 and close() contract -----------------------

HOSTS = {
    "daemon": lambda port=0: CacheDaemon(tiny_scenario(), port=port),
    "metrics": lambda port=0: MetricsServer(lambda: "# EOF\n", port=port),
}


@pytest.mark.parametrize("make", list(HOSTS.values()), ids=list(HOSTS))
class TestHostLifecycle:
    def test_two_hosts_bind_distinct_ephemeral_ports(self, make):
        with make() as one, make() as two:
            assert one.port != 0 and two.port != 0
            assert one.port != two.port

    def test_close_is_idempotent_and_releases_port(self, make):
        host = make().start()
        port = host.port
        host.close()
        host.close()
        # the port must be rebindable immediately (socket released)
        make(port).close()

    def test_never_started_host_still_closes(self, make):
        make().close()  # must not hang in shutdown()


# -- CLI registration --------------------------------------------------------


class TestCli:
    def test_serve_and_slam_registered(self):
        parser = build_parser()
        args = parser.parse_args(["serve", "scenarios/smoke.json"])
        assert callable(args.handler)
        args = parser.parse_args(
            ["slam", "--url", "http://127.0.0.1:1", "--workers", "3"]
        )
        assert callable(args.handler) and args.workers == 3

    def test_slam_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["slam", "--url", "http://x:1", "--workload", "cray"]
            )

    def test_slam_cli_end_to_end(self, capsys, tmp_path):
        with CacheDaemon(tiny_scenario()) as daemon:
            code = main(
                [
                    "slam", "--url", daemon.url, "--workload", "server",
                    "--events", "300", "--workers", "1", "--batch", "10",
                    "--report", str(tmp_path / "report.json"),
                ]
            )
        assert code == 0
        out = capsys.readouterr().out
        assert "events replayed" in out and "300" in out
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["schema"] == wire.SLAM_SCHEMA

    @pytest.mark.parametrize("capacity", ["0", str(10**20)])
    def test_slam_span_capacity_checked(self, capacity, tmp_path, capsys):
        # Each worker builds its own span ring, so the capacity is
        # checked before the daemon is contacted or a worker starts.
        argv = [
            "slam", "--url", "http://127.0.0.1:1", "--events", "20",
            "--workers", "2", "--spans", str(tmp_path),
            "--span-capacity", capacity,
        ]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --span-capacity must be 1..")

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_slam_span_sample_checked(self, sample, tmp_path, capsys):
        # Each worker builds its own span sampler, so the period is
        # checked before the daemon is contacted or a worker starts.
        argv = [
            "slam", "--url", "http://127.0.0.1:1", "--events", "20",
            "--workers", "2", "--spans", str(tmp_path),
            "--span-sample", sample,
        ]
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: --span-sample must be 1..")

# -- per-endpoint telemetry --------------------------------------------------


class TestEndpointTelemetry:
    def test_per_endpoint_stats_and_statuses(self):
        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            conn.request("POST", "/open", {"file": "f1"})
            conn.request("POST", "/open", {"file": "f1"})
            conn.request("POST", "/open", {"client": "x"}, expect_error=True)
            conn.request(
                "POST", "/invalidate", {"file": "nope"}, expect_error=True
            )
            stats = conn.stats()
        endpoints = stats["endpoints"]
        assert endpoints["open"]["requests"] == 3
        assert endpoints["open"]["errors"] == 1
        assert endpoints["open"]["statuses"] == {"200": 2, "400": 1}
        assert endpoints["invalidate"]["statuses"] == {"404": 1}
        assert endpoints["open"]["latency_ns"]["count"] == 3
        # the combined legacy sections still add up
        assert stats["errors"] == 2
        assert stats["requests"]["/open"] == 3

    def test_unknown_paths_fold_into_one_bucket(self):
        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            for index in range(5):
                conn.request("GET", f"/scan{index}", expect_error=True)
            stats = conn.stats()
        assert stats["endpoints"]["_other"]["requests"] == 5
        assert stats["endpoints"]["_other"]["errors"] == 5
        assert set(stats["endpoints"]) <= {
            "_other", "open", "fetch", "invalidate", "shutdown",
            "stats", "metrics", "journal", "healthz",
        }

    def test_prometheus_exposes_per_endpoint_errors(self):
        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            conn.request("POST", "/open", {"client": "x"}, expect_error=True)
            _status, body = conn.request("GET", "/metrics")
        text = body["text"]
        assert "repro_serve_errors_open_total 1" in text
        assert "repro_serve_telemetry_windows_total" in text

    def test_each_request_records_into_one_histogram(self, monkeypatch):
        from repro.obs.quantiles import Histogram

        recorded = []
        observe = Histogram.observe

        def spy(histogram, value):
            recorded.append(histogram.name)
            observe(histogram, value)

        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            conn.request("POST", "/open", {"file": "f1"})
            monkeypatch.setattr(Histogram, "observe", spy)
            conn.fetch(["f1", "f2", "f3"])
            conn.request("POST", "/open", {"file": "f2"})
            conn.request("POST", "/invalidate", {"file": "f1"})
            monkeypatch.setattr(Histogram, "observe", observe)
            stats = conn.stats()
        assert recorded == ["fetch", "open", "invalidate"]
        assert stats["latency_ns"]["count"] == 3  # /open + /fetch only
        assert stats["endpoints"]["invalidate"]["latency_ns"]["count"] == 1

    def test_lock_work_is_bounded_by_buckets_not_requests(self):
        # stats_payload and a window close run the same lines under the
        # lock whether the histograms hold 300 samples or 300,000.
        import repro
        from repro.serve.server import EndpointStats

        # Only the program's own lines count: a collection inside one
        # window runs whatever gc.callbacks hold (hypothesis installs
        # one), and those lines are not the daemon's lock work.
        package = os.path.dirname(repro.__file__) + os.sep

        def lines_run(requests):
            daemon = CacheDaemon(tiny_scenario(telemetry_window_seconds=0.0))
            try:
                for path in ("/open", "/fetch", "/invalidate"):
                    stats = daemon._endpoints[path] = EndpointStats(path)
                    for index in range(requests):
                        stats.record(200, 50_000 * (1 + index % 10))
                daemon.telemetry.requests = 1
                counted = [0]

                def tracer(frame, event, arg):
                    if not frame.f_code.co_filename.startswith(package):
                        return None
                    if event == "line" and daemon._lock._is_owned():
                        counted[0] += 1
                    return tracer

                sys.settrace(tracer)
                try:
                    payload = daemon.stats_payload()
                    window = daemon.force_sample()
                finally:
                    sys.settrace(None)
            finally:
                daemon.close()
            assert payload["endpoints"]["fetch"]["requests"] == requests
            assert window["latency_ns"]["count"] == 2 * requests
            # ...and what the lock guards holds a bucket per latency, not
            # a sample per request.
            for stats in daemon._endpoints.values():
                assert len(stats.latency.counts) == 10
            return counted[0]

        assert lines_run(1_000) == lines_run(100_000)

    def test_window_latency_covers_only_its_window(self):
        scenario = tiny_scenario(telemetry_window_seconds=0.0)
        with CacheDaemon(scenario) as daemon, ServeConnection(daemon.url) as conn:
            for _ in range(3):
                conn.fetch(["a"])
            first = daemon.force_sample()
            for _ in range(5):
                conn.request("POST", "/open", {"file": "b"})
            second = daemon.force_sample()
            stats = conn.stats()
        assert first["latency_ns"]["count"] == 3
        assert second["latency_ns"]["count"] == 5
        assert stats["latency_ns"]["count"] == 8
        fetch = stats["endpoints"]["fetch"]["latency_ns"]
        assert set(fetch) == {"count", "mean_ns", "p50_ns", "p95_ns", "p99_ns"}
        assert 0 < fetch["p50_ns"] <= fetch["p95_ns"] <= fetch["p99_ns"]

    def test_metrics_latency_histogram_counts_are_exact(self):
        from repro.obs.quantiles import Histogram

        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            for _ in range(4):
                conn.fetch(["a", "b"])
            conn.request("POST", "/open", {"file": "c"})
            conn.request("POST", "/invalidate", {"file": "c"})
            _status, body = conn.request("GET", "/metrics")
            stats = conn.stats()
        samples = {}
        for line in body["text"].splitlines():
            if line.startswith("repro_serve_latency_ns"):
                name, value = line.rsplit(" ", 1)
                samples[name] = int(value)
        buckets = [
            (name, count) for name, count in samples.items() if "_bucket" in name
        ]
        assert len(buckets) <= 31 and buckets[-1][0].endswith('{le="+Inf"}')
        counts = [count for _name, count in buckets]
        assert counts == sorted(counts)
        assert samples["repro_serve_latency_ns_count"] == 5 == counts[-1]
        assert stats["requests"]["/open"] + stats["requests"]["/fetch"] == 5
        # The cumulative counts equal a histogram built from the endpoints'.
        merged = Histogram()
        for path in ("/open", "/fetch"):
            merged.merge(daemon._endpoints[path].latency)
        assert [count for _le, count in merged.cumulative()] == counts[:-1]
        assert samples["repro_serve_latency_ns_sum"] == merged.total
        assert list(stats) == [
            "schema", "scenario", "uptime_seconds", "accesses", "requests",
            "errors", "invalidations", "invalidation_misses", "journal",
            "latency_ns", "endpoints", "telemetry", "cache",
        ]


# -- windowed telemetry ------------------------------------------------------


class TestTelemetryWindows:
    def test_event_windows_close_deterministically(self):
        scenario = tiny_scenario(
            telemetry_window_seconds=0.0, telemetry_window_events=50
        )
        with CacheDaemon(scenario) as daemon, ServeConnection(daemon.url) as conn:
            for low in range(0, 300, 25):
                conn.fetch([f"f{i % 37}" for i in range(low, low + 25)])
            stats = conn.stats()
        telemetry = stats["telemetry"]
        assert telemetry["schema"] == wire.TS_SCHEMA
        assert telemetry["seq"] == 6
        windows = telemetry["windows"]
        assert [w["index"] for w in windows] == list(range(6))
        assert all(w["source"] == "serve" for w in windows)
        assert all(w["events"] == 50 for w in windows)

    def test_window_sums_converge_to_lifetime_counters(self):
        scenario = tiny_scenario(
            telemetry_window_seconds=0.0, telemetry_window_events=40
        )
        trace = list(make_workload("server", 500, 5).file_ids())
        with CacheDaemon(scenario) as daemon, ServeConnection(daemon.url) as conn:
            for low in range(0, len(trace), 20):
                conn.fetch(trace[low : low + 20])
            daemon.force_sample()  # flush the partial tail window
            stats = conn.stats()
        windows = stats["telemetry"]["windows"]
        assert sum(w["hits"] for w in windows) == stats["cache"]["hits"]
        assert sum(w["misses"] for w in windows) == stats["cache"]["misses"]
        assert sum(w["events"] for w in windows) == stats["accesses"]

    def test_since_cursor_filters_windows(self):
        scenario = tiny_scenario(
            telemetry_window_seconds=0.0, telemetry_window_events=10
        )
        with CacheDaemon(scenario) as daemon, ServeConnection(daemon.url) as conn:
            for low in range(0, 40, 10):
                conn.fetch([f"f{i}" for i in range(low, low + 10)])
            _status, full = conn.request("GET", "/stats")
            _status, tail = conn.request("GET", "/stats?since=2")
            status, bad = conn.request(
                "GET", "/stats?since=banana", expect_error=True
            )
        assert [w["index"] for w in full["telemetry"]["windows"]] == [0, 1, 2, 3]
        assert [w["index"] for w in tail["telemetry"]["windows"]] == [2, 3]
        assert status == 400 and "since" in bad["error"]

    def test_retention_ring_drops_and_counts(self):
        scenario = tiny_scenario(
            telemetry_window_seconds=0.0,
            telemetry_window_events=10,
            telemetry_retain=3,
        )
        with CacheDaemon(scenario) as daemon, ServeConnection(daemon.url) as conn:
            for low in range(0, 60, 10):
                conn.fetch([f"f{i}" for i in range(low, low + 10)])
            stats = conn.stats()
        telemetry = stats["telemetry"]
        assert telemetry["seq"] == 6
        assert telemetry["retained"] == 3 and telemetry["dropped"] == 3
        assert [w["index"] for w in telemetry["windows"]] == [3, 4, 5]

    def test_observability_polls_do_not_emit_windows(self):
        scenario = tiny_scenario(telemetry_window_seconds=0.0)
        with CacheDaemon(scenario) as daemon, ServeConnection(daemon.url) as conn:
            for _ in range(5):
                conn.stats()
            assert daemon.force_sample() is None  # only /stats traffic: skip
            conn.fetch(["f1", "f2"])
            sample = daemon.force_sample()
            stats = conn.stats()
        assert sample is not None and sample["events"] == 2
        assert stats["telemetry"]["seq"] == 1

    def test_timer_sampler_emits_under_load(self):
        scenario = tiny_scenario(telemetry_window_seconds=0.05)
        with CacheDaemon(scenario) as daemon, ServeConnection(daemon.url) as conn:
            deadline = time.monotonic() + 2.0
            while time.monotonic() < deadline:
                conn.fetch(["a", "b", "c"])
                if conn.stats()["telemetry"]["seq"] >= 2:
                    break
            stats = conn.stats()
        assert stats["telemetry"]["seq"] >= 2
        windows = stats["telemetry"]["windows"]
        assert all(w["seconds"] > 0 for w in windows)
        assert "requests_per_sec" in windows[0]
        assert "latency_ns" in windows[0]


# -- structured access log ---------------------------------------------------


class TestAccessLog:
    def test_one_json_line_per_request(self, tmp_path):
        log = tmp_path / "access.jsonl"
        scenario = tiny_scenario()
        with CacheDaemon(scenario, access_log=log) as daemon:
            with ServeConnection(daemon.url) as conn:
                conn.request("POST", "/open", {"file": "f1"})
                conn.fetch(["f1", "f2", "f3"])
                conn.request("GET", "/nope", expect_error=True)
                stats = conn.stats()
        lines = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(lines) == 4
        by_endpoint = {record["endpoint"]: record for record in lines}
        assert by_endpoint["/open"]["status"] == 200
        assert by_endpoint["/open"]["events"] == 1
        assert by_endpoint["/fetch"]["events"] == 3
        assert by_endpoint["/nope"]["status"] == 404
        ids = [record["id"] for record in lines]
        assert ids == sorted(ids) and len(set(ids)) == len(ids)
        for record in lines:
            assert record["latency_ns"] > 0 and record["ts"] > 0
            assert record["method"] in ("GET", "POST")
        # the /stats request logs itself only after building its payload
        assert stats["access_log"]["lines"] == 3

    def test_lines_land_in_id_order_when_writes_interleave(self, tmp_path):
        """The first request to reach the log is held until a second
        request's line is written; the file must still read ids 1, 2."""
        import threading

        log = tmp_path / "access.jsonl"
        with CacheDaemon(tiny_scenario(), access_log=log) as daemon:
            write = daemon.access_log.write
            first_waiting = threading.Event()
            second_written = threading.Event()
            calls = []

            def held_write(record):
                calls.append(record)
                if len(calls) == 1:
                    first_waiting.set()
                    second_written.wait(5)
                    return write(record)
                try:
                    return write(record)
                finally:
                    second_written.set()

            daemon.access_log.write = held_write

            def open_file(name):
                with ServeConnection(daemon.url) as conn:
                    conn.request("POST", "/open", {"file": name})

            first = threading.Thread(target=open_file, args=("a",))
            first.start()
            assert first_waiting.wait(5)
            open_file("b")
            first.join(5)
        ids = [json.loads(line)["id"] for line in log.read_text().splitlines()]
        assert ids == [1, 2]

    def test_rotation_caps_file_size(self, tmp_path):
        from repro.serve.server import AccessLog

        log = AccessLog(tmp_path / "a.jsonl", max_bytes=300, backups=2)
        for index in range(50):
            log.write({"id": index, "endpoint": "/open", "pad": "x" * 40})
        log.close()
        assert log.rotations > 0
        assert (tmp_path / "a.jsonl").stat().st_size <= 300
        assert (tmp_path / "a.jsonl.1").exists()
        # every surviving line is intact JSON
        for name in ("a.jsonl", "a.jsonl.1", "a.jsonl.2"):
            target = tmp_path / name
            if target.exists():
                for line in target.read_text().splitlines():
                    json.loads(line)

    def test_no_access_log_no_stats_section(self):
        with CacheDaemon(tiny_scenario()) as daemon, ServeConnection(daemon.url) as conn:
            conn.request("POST", "/open", {"file": "f1"})
            stats = conn.stats()
        assert "access_log" not in stats


# -- live stats stream -------------------------------------------------------


class TestStatsStream:
    def test_incremental_polls_reassemble_series(self):
        from repro.obs.live import StatsStream

        scenario = tiny_scenario(
            telemetry_window_seconds=0.0, telemetry_window_events=20
        )
        with CacheDaemon(scenario) as daemon, ServeConnection(daemon.url) as conn:
            stream = StatsStream(daemon.url)
            for low in range(0, 40, 20):
                conn.fetch([f"f{i}" for i in range(low, low + 20)])
            first = stream.poll()
            for low in range(0, 40, 20):
                conn.fetch([f"g{i}" for i in range(low, low + 20)])
            second = stream.poll()
            third = stream.poll()
            stream.close()
        assert [w.index for w in first] == [0, 1]
        assert [w.index for w in second] == [2, 3]
        assert third == []
        assert stream.cursor == 4 and stream.windows_seen == 4
        assert first[0].sample.source == "serve"
        assert first[0].requests > 0

    def test_failure_counts_and_recovers(self):
        from repro.obs.live import StatsStream

        scenario = tiny_scenario(
            telemetry_window_seconds=0.0, telemetry_window_events=10
        )
        daemon = CacheDaemon(scenario).start()
        dead = StatsStream("http://127.0.0.1:1", timeout=0.5)
        assert dead.poll() == []
        assert dead.failures == 1
        with ServeConnection(daemon.url) as conn:
            conn.fetch([f"f{i}" for i in range(10)])
        live = StatsStream(daemon.url)
        assert len(live.poll()) == 1
        live.close()
        daemon.close()

    def test_restart_resets_cursor_and_replays_history(self):
        from repro.obs.live import StatsStream

        scenario = tiny_scenario(
            telemetry_window_seconds=0.0, telemetry_window_events=10
        )
        daemon = CacheDaemon(scenario).start()
        stream = StatsStream(daemon.url)
        with ServeConnection(daemon.url) as conn:
            for low in range(0, 50, 10):
                conn.fetch([f"f{i}" for i in range(low, low + 10)])
        assert len(stream.poll()) == 5
        port = daemon.port
        daemon.close()
        stream.close()  # the old keep-alive died with the old process
        reborn = CacheDaemon(scenario, port=port).start()
        with ServeConnection(reborn.url) as conn:
            for low in range(0, 20, 10):
                conn.fetch([f"g{i}" for i in range(low, low + 10)])
        windows = stream.poll()
        reborn.close()
        stream.close()
        assert stream.restarts == 1
        assert [w.index for w in windows] == [0, 1]
        assert stream.cursor == 2

    def test_final_stats_raises_on_dead_daemon(self):
        from repro.obs.live import StatsStream

        stream = StatsStream("http://127.0.0.1:1", timeout=0.5)
        with pytest.raises(SlamError):
            stream.final_stats()

    def test_top_attach_export_loads_back(self, tmp_path, capsys):
        from repro.cli import main
        from repro.obs import load_ts_jsonl

        scenario = tiny_scenario(
            telemetry_window_seconds=0.0, telemetry_window_events=20
        )
        path = tmp_path / "live.jsonl"
        with CacheDaemon(scenario) as daemon, ServeConnection(daemon.url) as conn:
            for low in range(0, 60, 20):
                conn.fetch([f"f{i}" for i in range(low, low + 20)])
            code = main(
                ["top", "--attach", daemon.url, "--plain", "--duration", "0",
                 "--ts-out", str(path)]
            )
        assert code == 0
        assert "wrote 4 repro.ts/1 JSONL lines" in capsys.readouterr().out
        loaded = load_ts_jsonl(path)
        assert loaded["meta"] == {"source": "serve", "url": daemon.url, "samples": 3}
        assert [s.index for s in loaded["samples"]] == [0, 1, 2]
        assert {s.source for s in loaded["samples"]} == {"serve"}


# -- concurrent scrapes ------------------------------------------------------


class TestConcurrentScrapes:
    def test_stats_and_metrics_never_tear_under_slam(self):
        """Threaded clients hammer /stats + /metrics while slam runs.

        Every response must be complete valid JSON (or Prometheus text
        ending in # EOF) and every telemetry seq must be monotonic per
        scraper -- a torn snapshot or a backwards cursor fails.
        """
        import threading

        scenario = tiny_scenario(
            telemetry_window_seconds=0.05, telemetry_window_events=100
        )
        trace = list(make_workload("server", 2000, 5).file_ids())
        problems = []
        with CacheDaemon(scenario) as daemon:
            stop = threading.Event()

            def scrape_stats():
                seen = -1
                conn = ServeConnection(daemon.url, timeout=5.0)
                try:
                    while not stop.is_set():
                        payload = conn.stats()  # validates schema + cache
                        wire.validate_telemetry(payload)
                        seq = payload["telemetry"]["seq"]
                        if seq < seen:
                            problems.append(f"seq went backwards: {seq} < {seen}")
                        seen = seq
                        for window in payload["telemetry"]["windows"]:
                            if window["index"] >= seq:
                                problems.append("window index beyond seq")
                finally:
                    conn.close()

            def scrape_metrics():
                conn = ServeConnection(daemon.url, timeout=5.0)
                try:
                    while not stop.is_set():
                        _status, body = conn.request("GET", "/metrics")
                        if not body["text"].rstrip().endswith("# EOF"):
                            problems.append("torn /metrics body")
                finally:
                    conn.close()

            scrapers = [
                threading.Thread(target=scrape_stats, daemon=True),
                threading.Thread(target=scrape_stats, daemon=True),
                threading.Thread(target=scrape_metrics, daemon=True),
            ]
            for thread in scrapers:
                thread.start()
            try:
                report = run_slam(daemon.url, trace, workers=2, batch=16)
            finally:
                stop.set()
                for thread in scrapers:
                    thread.join(timeout=10)
            final = daemon.stats_payload()
        assert problems == []
        assert report.events == len(trace)
        assert final["accesses"] == len(trace)

    def test_metrics_server_concurrent_scrapes(self):
        """MetricsServer serves many concurrent scrapers untorn."""
        import threading
        import urllib.request

        payload = "x" * 20000 + "\n# EOF\n"
        problems = []
        with MetricsServer(lambda: payload) as server:

            def scrape():
                for _ in range(20):
                    with urllib.request.urlopen(
                        server.url, timeout=5
                    ) as response:
                        body = response.read().decode("utf-8")
                    if body != payload:
                        problems.append("torn MetricsServer body")

            threads = [
                threading.Thread(target=scrape, daemon=True) for _ in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        assert problems == []


# -- slam endpoint-error reporting -------------------------------------------


class TestSlamEndpointErrors:
    def test_clean_run_brackets_out_prior_errors(self):
        with CacheDaemon(tiny_scenario()) as daemon:
            with ServeConnection(daemon.url) as conn:
                # pre-existing errors must not leak into the run's delta
                conn.request(
                    "POST", "/invalidate", {"file": "nope"}, expect_error=True
                )
            report = run_slam(daemon.url, ["a", "b", "c"], workers=1, batch=2)
        assert report.delta["server_errors"] == 0
        assert report.delta["endpoint_errors"] == {}
        assert report._server_error_cell() == "0"
        rows = dict((row[0], row[1]) for row in report.rows()[1:])
        assert rows["server errors (this run)"] == "0"

    def test_errors_during_run_are_named_by_endpoint(self):
        import threading

        trace = list(make_workload("server", 3000, 5).file_ids())
        with CacheDaemon(tiny_scenario()) as daemon:

            def inject():
                # wait until slam traffic is flowing, then 404 twice while
                # the workers are still mid-run (inside the stats bracket)
                deadline = time.monotonic() + 10
                while daemon.accesses < 50 and time.monotonic() < deadline:
                    time.sleep(0.001)
                with ServeConnection(daemon.url) as conn:
                    for name in ("gone", "gone2"):
                        conn.request(
                            "POST",
                            "/invalidate",
                            {"file": name},
                            expect_error=True,
                        )

            saboteur = threading.Thread(target=inject, daemon=True)
            saboteur.start()
            report = run_slam(daemon.url, trace, workers=2, batch=8)
            saboteur.join(10)
        assert report.delta["server_errors"] == 2
        assert report.delta["endpoint_errors"] == {"invalidate": 2}
        assert report._server_error_cell() == "2 (invalidate 2)"

    def test_endpoint_error_delta_helper(self):
        from repro.serve.client import _endpoint_error_delta

        before = {
            "endpoints": {
                "open": {"errors": 1},
                "invalidate": {"errors": 0},
            }
        }
        after = {
            "endpoints": {
                "open": {"errors": 3},
                "invalidate": {"errors": 5},
                "fetch": {"errors": 0},
            }
        }
        assert _endpoint_error_delta(before, after) == {
            "open": 2,
            "invalidate": 5,
        }
        # pre-telemetry daemons have no endpoints section: empty, not a crash
        assert _endpoint_error_delta({}, {}) == {}
        assert _endpoint_error_delta({}, after) == {"open": 3, "invalidate": 5}

    def test_server_error_cell_formats_breakdown(self):
        report = SlamReport(url="http://x", workers=1, batch=1)
        report.delta = {"server_errors": 0, "endpoint_errors": {}}
        assert report._server_error_cell() == "0"
        report.delta = {
            "server_errors": 7,
            "endpoint_errors": {"invalidate": 5, "open": 2},
        }
        assert report._server_error_cell() == "7 (invalidate 5, open 2)"
        rows = dict((row[0], row[1]) for row in report.rows()[1:])
        assert rows["server errors (this run)"] == "7 (invalidate 5, open 2)"

    def test_report_json_carries_endpoint_errors(self, tmp_path):
        with CacheDaemon(tiny_scenario()) as daemon:
            report = run_slam(daemon.url, ["a", "b"], workers=1, batch=1)
        payload = report.to_dict()
        assert "server_errors" in payload["delta"]
        assert "endpoint_errors" in payload["delta"]
