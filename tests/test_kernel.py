"""Equivalence tests for the columnar batch replay kernel.

The contract mirrors ``test_fast_replay.py`` one rung down: replaying a
:class:`ColumnarTrace` through the engine must produce metrics
byte-identical to the generic per-event path — on all four paper
workloads, with numpy loaded and with numpy unimportable, across
qualifying and non-qualifying configurations, at every trace length.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.kernel as kernel
from repro.sim.engine import DistributedFileSystem
from repro.sim.kernel import client_runs, scan_columns
from repro.traces.columnar import ColumnarTrace
from repro.traces.events import Trace, TraceEvent
from repro.workloads.synthetic import make_workload
from tests.numpy_hosts import NUMPY_HOSTS, numpy_host

WORKLOADS = ("server", "users", "write", "workstation")
EVENTS = 4000
CONFIG = dict(client_capacity=250, server_capacity=300, group_size=5)


def generic_engine_metrics(system, trace):
    """Reference replay: per-event access() calls, no fast loop."""
    for event in trace:
        client = event.client_id or "client00"
        system.access(client, event.file_id)
    return system.metrics()


def oracle_replay(system, ctrace):
    """The oracle: per-event access() calls fed the trace's file codes,
    so cache keys and successor lists end up in the kernel's key space."""
    codes = ctrace.file_codes
    for index, event in enumerate(ctrace.iter_events()):
        system.access(event.client_id or "client00", codes[index])
    return system.metrics()


def full_state(system):
    """Everything a replay leaves behind beyond its metrics."""
    return (
        {cid: list(cache._order) for cid, cache in system.clients.items()},
        list(system.server_cache._order)
        if system.server_cache is not None
        else None,
        {key: list(slist._items) for key, slist in system.tracker._lists.items()},
        system.tracker._previous,
    )


class TestScanColumns:
    def test_counts_match_trace(self, numpy_host_leg):
        trace = make_workload("write", EVENTS)
        ctrace = ColumnarTrace.from_trace(trace)
        scan = scan_columns(ctrace.file_codes, ctrace.kind_codes)
        assert scan.events == EVENTS
        assert scan.unique_files == trace.unique_files()
        assert sum(scan.kind_counts) == EVENTS
        assert scan.open_events == sum(
            1 for event in trace if event.is_open
        )
        assert scan.mutation_events == sum(
            1 for event in trace if event.is_mutation
        )

    def test_no_kind_column_is_all_opens(self, numpy_host_leg):
        ctrace = ColumnarTrace.from_trace(
            Trace.from_file_ids(["a", "b", "a", "c"])
        )
        scan = scan_columns(ctrace.file_codes, ctrace.kind_codes)
        assert scan.kind_counts == (4, 0, 0, 0, 0, 0)
        assert scan.unique_files == 3

    def test_empty_columns(self, numpy_host_leg):
        scan = scan_columns([], None)
        assert scan.events == 0 and scan.unique_files == 0


class TestClientRuns:
    def test_segments_cover_and_label(self, numpy_host_leg):
        trace = make_workload("write", EVENTS)  # two clients
        ctrace = ColumnarTrace.from_trace(trace)
        runs = client_runs(ctrace)
        assert runs[0][1] == 0 and runs[-1][2] == EVENTS
        flattened = []
        for client, lo, hi in runs:
            assert lo < hi
            flattened.extend([client] * (hi - lo))
        assert flattened == [
            event.client_id or "client00" for event in trace
        ]

    def test_constant_client_single_run(self, numpy_host_leg):
        ctrace = ColumnarTrace.from_trace(make_workload("server", 500))
        assert len(client_runs(ctrace)) == 1

    def test_unattributed_events_default_client(self, numpy_host_leg):
        ctrace = ColumnarTrace.from_trace(Trace.from_file_ids(["a", "b"]))
        assert client_runs(ctrace) == [("client00", 0, 2)]

    def test_empty_trace_no_runs(self, numpy_host_leg):
        assert client_runs(ColumnarTrace.from_trace(Trace())) == []


class TestKernelReplay:
    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_matches_generic_path(self, workload, numpy_host_leg):
        trace = make_workload(workload, EVENTS)
        ctrace = ColumnarTrace.from_trace(trace)
        reference = generic_engine_metrics(
            DistributedFileSystem(**CONFIG), trace
        )
        system = DistributedFileSystem(**CONFIG)
        assert system._fast_replay_ok()
        assert system.replay(ctrace) == reference

    def test_no_server_and_small_group_configs(self, numpy_host_leg):
        ctrace = ColumnarTrace.from_trace(make_workload("write", EVENTS))
        trace = ctrace.to_trace()
        for config in (
            dict(client_capacity=200, server_capacity=0, group_size=5),
            dict(client_capacity=200, server_capacity=150, group_size=3),
            dict(client_capacity=200, server_capacity=0, group_size=1),
        ):
            reference = generic_engine_metrics(
                DistributedFileSystem(**config), trace
            )
            assert (
                DistributedFileSystem(**config).replay(ctrace) == reference
            ), config

    def test_non_qualifying_config_falls_back(self, numpy_host_leg):
        # An active flight recorder needs per-decision records, which
        # the kernel cannot emit: the columnar trace is decoded and
        # replayed per event, counting exactly like the untraced kernel.
        from repro.obs.registry import MetricsRegistry
        from repro.obs.tracing import recording

        ctrace = ColumnarTrace.from_trace(make_workload("server", EVENTS))
        system = DistributedFileSystem(**CONFIG)
        assert system._fast_replay_ok()
        registry = MetricsRegistry()
        with recording(registry=registry, capacity=1):
            assert not system._fast_replay_ok()
            metrics = system.replay(ctrace)
        paths = {
            name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith("engine.replay.path.")
        }
        assert paths == {"engine.replay.path.generic": 1}
        assert metrics == DistributedFileSystem(**CONFIG).replay(ctrace)

    def test_repeated_replay_carries_previous(self, numpy_host_leg):
        # Two consecutive replays must chain successor state exactly as
        # the string-keyed event path does: tracker._previous crosses
        # the boundary and links the last file to the next replay's
        # first.
        ctrace = ColumnarTrace.from_trace(make_workload("server", EVENTS))
        trace = ctrace.to_trace()
        reference = DistributedFileSystem(**CONFIG)
        reference.replay(trace)
        reference.replay(trace)
        system = DistributedFileSystem(**CONFIG)
        system.replay(ctrace)
        assert system.replay(ctrace) == reference.metrics()


class TestWindowedColumnarReplay:
    def test_samples_identical_to_event_path(self, numpy_host_leg):
        from repro.obs.timeseries import WindowedCollector, windowing

        ctrace = ColumnarTrace.from_trace(make_workload("write", EVENTS))
        trace = ctrace.to_trace()

        def string_keyed():
            # Warm string-keyed state is declined by the array kernel:
            # the columnar trace is windowed as decoded events.
            system = DistributedFileSystem(**CONFIG)
            system.access("client00", "warm")
            return system

        for new_system, declined in (
            (lambda: DistributedFileSystem(**CONFIG), False),
            (string_keyed, True),
        ):
            assert (kernel.v2_import(new_system(), ctrace) is None) == declined
            events_collector = WindowedCollector(window=500)
            columnar_collector = WindowedCollector(window=500)
            with windowing(collector=events_collector):
                event_metrics = new_system().replay(trace)
            with windowing(collector=columnar_collector):
                columnar_metrics = new_system().replay(ctrace)
            assert columnar_metrics == event_metrics
            assert [
                sample.deterministic_dict()
                for sample in columnar_collector.samples
            ] == [
                sample.deterministic_dict() for sample in events_collector.samples
            ]


class TestArrayKernelDispatch:
    """The engine's columnar dispatch: the array kernel when eligible,
    at any trace length; otherwise the trace is decoded and its events
    take the fused dict loop.  The chosen path is recorded in
    ``engine.replay.path.*``."""

    @staticmethod
    def _path_counters(registry):
        return {
            name: value
            for name, value in registry.snapshot()["counters"].items()
            if name.startswith("engine.replay.path.")
        }

    def test_eligible_replay_takes_array_kernel(self, numpy_host_leg):
        from repro.obs import collecting

        ctrace = ColumnarTrace.from_trace(make_workload("server", EVENTS))
        with collecting() as registry:
            DistributedFileSystem(**CONFIG).replay(ctrace)
        assert self._path_counters(registry) == {
            "engine.replay.path.kernel_v2": 1
        }

    def test_small_trace_takes_array_kernel(self, numpy_host_leg):
        from repro.obs import collecting

        small = ColumnarTrace.from_trace(make_workload("server", 512))
        reference = oracle_replay(DistributedFileSystem(**CONFIG), small)
        with collecting() as registry:
            metrics = DistributedFileSystem(**CONFIG).replay(small)
        assert metrics == reference
        assert self._path_counters(registry) == {
            "engine.replay.path.kernel_v2": 1
        }

    def test_string_keyed_state_falls_back_to_dict_kernel(self, numpy_host_leg):
        # Warm string-keyed state is outside the kernel's code space:
        # the columnar replay decodes and counts exactly like replaying
        # the decoded events on the same warm system.
        from repro.obs import collecting

        ctrace = ColumnarTrace.from_trace(make_workload("server", EVENTS))
        trace = ctrace.to_trace()
        system = DistributedFileSystem(**CONFIG)
        system.replay(trace)  # warm state keyed by strings
        with collecting() as registry:
            metrics = system.replay(ctrace)
        assert self._path_counters(registry) == {"engine.replay.path.fast": 1}
        reference = DistributedFileSystem(**CONFIG)
        reference.replay(trace)
        assert metrics == reference.replay(ctrace.to_trace())
        assert full_state(system) == full_state(reference)

    @pytest.mark.parametrize("workload", WORKLOADS)
    def test_final_state_identical_to_dict_kernel(self, workload, numpy_host_leg):
        # Beyond metrics equality: the exported cache orders, successor
        # lists, and carried previous must match the per-event oracle's.
        ctrace = ColumnarTrace.from_trace(make_workload(workload, EVENTS))
        array_system = DistributedFileSystem(**CONFIG)
        array_metrics = array_system.replay(ctrace)
        oracle_system = DistributedFileSystem(**CONFIG)
        assert array_metrics == oracle_replay(oracle_system, ctrace)
        assert full_state(array_system) == full_state(oracle_system)

    def test_windowed_replay_reuses_one_session(self, numpy_host_leg, monkeypatch):
        # A windowed replay imports array state once and replays every
        # window through it — one kernel_v2 record per window, and totals
        # identical to the unwindowed replay.
        from repro.obs import collecting
        from repro.obs.timeseries import WindowedCollector, windowing
        from repro.sim import kernel

        imports = []
        v2_import = kernel.v2_import
        monkeypatch.setattr(
            kernel, "v2_import", lambda *args: imports.append(1) or v2_import(*args)
        )
        ctrace = ColumnarTrace.from_trace(make_workload("write", EVENTS))
        with collecting() as registry, windowing(
            collector=WindowedCollector(window=500)
        ):
            metrics = DistributedFileSystem(**CONFIG).replay(ctrace)
        assert imports == [1]
        assert metrics == DistributedFileSystem(**CONFIG).replay(ctrace)
        assert self._path_counters(registry) == {
            "engine.replay.path.kernel_v2": EVENTS // 500
        }


@st.composite
def _columnar_cases(draw):
    """A short multi-client trace, a replay configuration the array
    kernel accepts, and a split point for chained replays."""
    n_files = draw(st.integers(1, 12))
    clients = ("", "c1", "c2")[: draw(st.integers(1, 3))]
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n_files - 1), st.sampled_from(clients)),
            max_size=80,
        )
    )
    trace = Trace(
        events=[
            TraceEvent(file_id=f"f{file}", client_id=client)
            for file, client in pairs
        ]
    )
    config = dict(
        client_capacity=draw(st.integers(1, 5)),
        server_capacity=draw(st.sampled_from((0, 1, 2, 3, 6))),
        group_size=draw(st.sampled_from((1, 2, 3, 5))),
        successor_capacity=draw(st.sampled_from((1, 2, 8))),
    )
    return ColumnarTrace.from_trace(trace), config, draw(st.integers(0, len(pairs)))


class TestColumnarDifferential:
    """Hypothesis differential: the columnar path against the per-event
    oracle at every trace length, including chained replays whose
    carried state crosses trace boundaries."""

    @pytest.mark.parametrize("host", NUMPY_HOSTS)
    @given(case=_columnar_cases())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_in_metrics_and_state(self, host, case):
        ctrace, config, split = case
        system = DistributedFileSystem(**config)
        oracle = DistributedFileSystem(**config)
        with numpy_host(host):
            for part in (ctrace.slice(0, split), ctrace.slice(split), ctrace):
                assert system.replay(part) == oracle_replay(oracle, part)
                assert full_state(system) == full_state(oracle)


class TestKernelObservability:
    def test_counters_match_fast_loop(self, numpy_host_leg):
        from repro.obs import collecting

        ctrace = ColumnarTrace.from_trace(make_workload("write", EVENTS))
        trace = ctrace.to_trace()
        with collecting() as fast_registry:
            DistributedFileSystem(**CONFIG).replay(trace)
        with collecting() as kernel_registry:
            DistributedFileSystem(**CONFIG).replay(ctrace)
        fast = fast_registry.snapshot()
        batch = kernel_registry.snapshot()
        for name in (
            "engine.client.hits",
            "engine.client.misses",
            "engine.server.hits",
            "engine.server.misses",
            "engine.store.fetches",
            "engine.remote_requests",
            "successors.transitions",
            "cache.lru.hits",
            "cache.lru.misses",
            "cache.lru.evictions",
            "cache.lru.installs",
        ):
            assert batch["counters"][name] == fast["counters"][name], name
        assert "engine.replay.kernel.ns" in batch["histograms"]
