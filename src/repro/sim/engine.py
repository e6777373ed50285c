"""Distributed file system replay engine (paper Figure 2).

Models the topology the paper draws: client machines with local cache
managers, a remote file server with relationship metadata and its own
cache, and server storage behind it.  Requests flow client cache →
server cache → store; group retrieval happens on the client-miss path,
with companion files riding the single demand request.

The engine is a *replay* simulator: it consumes an access sequence and
counts — no clocks, no queueing — because every metric the paper
reports (demand fetches, hit rates) is a counting metric and the paper
explicitly rejects timing as a modelling input (Section 2.2).

Replay throughput is the budget every figure spends, so
:meth:`DistributedFileSystem.replay` carries a specialized fast loop:
the per-event work of ``tracker.observe`` + ``cache.access`` +
``builder.build`` is inlined over the caches' ordered dicts,
eliminating the CPython call overhead that dominates the hot path.
The loop is count-for-count identical to the generic path — the tests
assert byte-identical :class:`SystemMetrics` — and only a replay under
an active flight recorder, which needs per-decision records, takes the
generic one.

Each input form has one fast loop: an event :class:`Trace` runs the
fused loop above, and a :class:`~repro.traces.columnar.ColumnarTrace`
runs the array-backed kernel (:func:`repro.sim.kernel.replay_columns_v2`)
whenever the system's state qualifies; a columnar trace the kernel
declines is decoded and replayed as events.  The per-event
:meth:`~DistributedFileSystem.access` path is the reference both are
tested against.  :meth:`~DistributedFileSystem.replay` is the one
entry point: it picks the loop once per replay and cuts the trace
into windows when windowed telemetry is active.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..caching.base import CacheStats
from ..caching.lru import LRUCache, record_lru_counters
from ..core.grouping import GroupBuilder, build_group_fast
from ..core.successors import LRUSuccessorList, SuccessorTracker
from ..errors import SimulationError
from ..obs import registry as _obs
from ..obs import timeseries as _ts
from ..obs import tracing as _tracing
from ..traces.columnar import ColumnarTrace
from ..traces.events import Trace, TraceEvent


class Store:
    """Server backing storage: always has every file; counts retrievals.

    ``fetches`` counts files shipped off the storage device — the
    ultimate cost grouping tries to amortize into fewer, larger
    retrievals.
    """

    def __init__(self):
        self.fetches = 0

    def fetch(self, file_id: str) -> str:
        """Retrieve one file."""
        self.fetches += 1
        return file_id


@dataclass
class SystemMetrics:
    """End-of-run accounting for a :class:`DistributedFileSystem`."""

    client_stats: Dict[str, CacheStats]
    server_stats: CacheStats
    store_fetches: int
    remote_requests: int
    metadata_entries: int

    @property
    def total_client_accesses(self) -> int:
        """Demand accesses summed across clients."""
        return sum(stats.accesses for stats in self.client_stats.values())

    @property
    def mean_client_hit_rate(self) -> float:
        """Access-weighted client hit rate across all clients."""
        accesses = self.total_client_accesses
        if not accesses:
            return 0.0
        hits = sum(stats.hits for stats in self.client_stats.values())
        return hits / accesses


class DistributedFileSystem:
    """Clients with aggregating caches in front of a caching file server.

    Parameters
    ----------
    client_capacity:
        Capacity (files) of each client's cache.
    server_capacity:
        Capacity of the server's own cache; ``0`` disables it (every
        server request goes to the store).
    group_size:
        Best-effort group size ``g``; 1 reduces the system to plain
        demand-fetch LRU everywhere.
    successor_capacity:
        Entries per server-side LRU successor list.

    Clients piggy-back their full access stream to the server (the
    Figure 2 design), so relationship metadata sees unfiltered
    behaviour.  Every event is a demand access, writes and deletes
    included; per-file invalidation is the ``repro serve`` daemon's
    ``/invalidate``, and the uncooperative server of Section 4.3 is
    :class:`~repro.core.aggregating_cache.AggregatingServerCache`.
    """

    def __init__(
        self,
        client_capacity: int,
        server_capacity: int = 0,
        group_size: int = 5,
        successor_capacity: int = 8,
    ):
        self.tracker = SuccessorTracker(capacity=successor_capacity)
        self.builder = GroupBuilder(self.tracker, group_size)
        self.group_size = group_size
        self.client_capacity = client_capacity
        self.server_cache: Optional[LRUCache] = (
            LRUCache(server_capacity) if server_capacity > 0 else None
        )
        if self.server_cache is not None:
            self.server_cache.trace_name = "server"
        self.store = Store()
        self.clients: Dict[str, LRUCache] = {}
        self.remote_requests = 0

    def _client_cache(self, client_id: str) -> LRUCache:
        cache = self.clients.get(client_id)
        if cache is None:
            cache = LRUCache(self.client_capacity)
            cache.trace_name = f"client.{client_id}"
            self.clients[client_id] = cache
        return cache

    def access(self, client_id: str, file_id: str) -> bool:
        """One file open from one client; returns True on client hit."""
        self.tracker.observe(file_id)
        cache = self._client_cache(client_id)
        if cache.access(file_id):
            return True

        # Client miss: one remote request retrieves the whole group.
        self.remote_requests += 1
        group = self.builder.build(file_id)
        if _obs.ENABLED:
            _obs.get_registry().histogram("engine.group_fetch.size").observe(
                len(group)
            )

        # Serve each group member from the server cache when resident,
        # otherwise stage it from the store (and cache it server-side).
        to_ship: List[str] = list(group)
        recorder = _tracing.ACTIVE if _obs.ENABLED else None
        if self.server_cache is not None:
            if not self.server_cache.access(file_id):
                self.store.fetch(file_id)
            companions = [m for m in to_ship if m != file_id]
            for member in companions:
                if not self.server_cache.probe(member):
                    self.store.fetch(member)
            if recorder is not None:
                planned, skipped = self.server_cache.plan_group_install(companions)
                recorder.group_fetch("server", file_id, planned, skipped)
            self.server_cache.install_group_at_tail(companions)
        else:
            for member in to_ship:
                self.store.fetch(member)

        # Client placement: the demanded file is already at the MRU head
        # (admitted by the miss above); companions append at the tail as
        # one batch.
        client_companions = [member for member in to_ship if member != file_id]
        if recorder is not None:
            planned, skipped = cache.plan_group_install(client_companions)
            recorder.group_fetch(cache.trace_name, file_id, planned, skipped)
        cache.install_group_at_tail(client_companions)
        return False

    def _fast_replay_ok(self) -> bool:
        """Whether the fused replay loops may run (no active flight recorder).

        The fused loops batch their accounting and cannot emit
        per-decision trace records, and the tracing contract is that
        traced and untraced replays count identically, so a replay under
        an active recorder takes the per-event path.
        """
        return not (_obs.ENABLED and _tracing.ACTIVE is not None)

    def _metrics_baseline(self) -> Tuple:
        """Snapshot of every counter a replay moves.

        ``(clients, server, store_fetches, remote_requests)``:
        ``clients`` maps each client id to its cache's (hits, misses,
        evictions, installs) and ``server`` is the server cache's, or
        None without one.  :meth:`_counter_deltas` turns a snapshot into
        the movement since, for the registry and for the windowed
        collector alike.
        """
        server = self.server_cache
        return (
            {
                client_id: _stats_tuple(cache.stats)
                for client_id, cache in self.clients.items()
            },
            _stats_tuple(server.stats) if server is not None else None,
            self.store.fetches,
            self.remote_requests,
        )

    def _counter_deltas(self, baseline: Tuple) -> Tuple:
        """Counter movement since a :meth:`_metrics_baseline` snapshot.

        Same shape as the snapshot, with every current client listed (a
        client created since counts from zero) and zeros for ``server``
        when there is no server cache.
        """
        clients_before, server_before, store_before, remote_before = baseline
        clients, server, store_fetches, remote_requests = self._metrics_baseline()
        zeros = (0, 0, 0, 0)
        return (
            {
                client_id: _minus(now, clients_before.get(client_id, zeros))
                for client_id, now in clients.items()
            },
            _minus(server or zeros, server_before or zeros),
            store_fetches - store_before,
            remote_requests - remote_before,
        )

    def _record_replay_metrics(
        self, registry, baseline: Tuple, transitions: Optional[int]
    ) -> None:
        """Credit this replay's deltas to the registry (collection is on).

        Every replay loop reports through here, so the recorded counters
        are identical whichever loop ran; ``transitions`` is only passed
        by the fused loops (the per-event path counts transitions inside
        :meth:`SuccessorTracker.observe_transition`).
        """
        clients, server, store_fetches, remote_requests = self._counter_deltas(
            baseline
        )
        for client_id, (hits, misses, _evictions, _installs) in clients.items():
            registry.counter(f"engine.client.{client_id}.hits").inc(hits)
            registry.counter(f"engine.client.{client_id}.misses").inc(misses)
        registry.counter("engine.client.hits").inc(
            sum(delta[0] for delta in clients.values())
        )
        registry.counter("engine.client.misses").inc(
            sum(delta[1] for delta in clients.values())
        )
        registry.counter("engine.server.hits").inc(server[0])
        registry.counter("engine.server.misses").inc(server[1])
        registry.counter("engine.store.fetches").inc(store_fetches)
        registry.counter("engine.remote_requests").inc(remote_requests)
        registry.gauge("engine.clients").set(len(self.clients))
        registry.gauge("engine.metadata.entries").set(
            self.tracker.metadata_entries()
        )
        if transitions:
            registry.counter("successors.transitions").inc(transitions)

    def _record_policy_counters(self, registry, baseline: Tuple) -> None:
        """Batch-credit ``cache.lru.*`` deltas (fused loops only).

        The per-event path records these inside the LRU caches; the
        fused loops bypass those sites, so they credit the same totals
        here from the stats deltas of every client cache plus the server
        cache.  Never called from the shared
        :meth:`_record_replay_metrics` — that would double-count the
        per-event path.
        """
        clients, server = self._counter_deltas(baseline)[:2]
        hits, misses, evictions, installs = (
            sum(column) for column in zip(server, *clients.values())
        )
        record_lru_counters(
            registry,
            hits=hits,
            misses=misses,
            evictions=evictions,
            installs=installs,
        )

    def _replay_fast(self, events: Sequence[TraceEvent]) -> SystemMetrics:
        """Inlined replay loop over the caches' ordered dicts.

        Count-for-count identical to driving :meth:`access` per event;
        the bound-method and dataclass traffic of the generic path is
        replaced with direct OrderedDict operations, batched stats
        updates per client segment, and allocation-free group builds.
        """
        prev = self.tracker._previous
        codes = [event.file_id for event in events]
        client_ids = [event.client_id or "client00" for event in events]

        tracker = self.tracker
        lists = tracker._lists
        lists_get = lists.get
        successor_capacity = tracker.capacity
        group_size = self.group_size
        clients = self.clients
        client_capacity = self.client_capacity
        server = self.server_cache
        if server is not None:
            server_order = server._order
            server_stats = server.stats
            server_capacity = server.capacity
            server_install = server.install_group_at_tail_fast

        # Metrics: read the flag once, keep the per-event loop untouched,
        # and record batched deltas after the loop.  Only the per-miss
        # group-size observation happens inline (and only when
        # collection is enabled).
        record = _obs.ENABLED
        observe_group = observe_chain = None
        singleton_builds = 0
        if record:
            registry = _obs.get_registry()
            observe_group = registry.histogram("engine.group_fetch.size").observe
            observe_chain = registry.histogram("grouping.chain.length").observe
            baseline = self._metrics_baseline()
            prev_was_none = prev is None
            started = time.perf_counter_ns()

        remote_requests = 0
        store_fetches = 0
        current_client = None
        cache = None
        order = None
        cache_stats = None
        pending_hits = 0

        for file_id, client_id in zip(codes, client_ids):
            if prev is not None:
                slist = lists_get(prev)
                if slist is None:
                    slist = LRUSuccessorList(successor_capacity)
                    slist._items = [file_id]
                    lists[prev] = slist
                else:
                    items = slist._items
                    if items[0] != file_id:
                        if file_id in items:
                            items.remove(file_id)
                        elif len(items) >= successor_capacity:
                            items.pop()
                        items.insert(0, file_id)
            prev = file_id

            if client_id != current_client:
                if pending_hits:
                    cache_stats.hits += pending_hits
                    pending_hits = 0
                current_client = client_id
                cache = clients.get(client_id)
                if cache is None:
                    cache = LRUCache(client_capacity)
                    cache.trace_name = f"client.{client_id}"
                    clients[client_id] = cache
                order = cache._order
                cache_stats = cache.stats

            if file_id in order:
                order.move_to_end(file_id)
                pending_hits += 1
                continue

            # ---- client miss: demand admit, then one group request ----
            cache_stats.misses += 1
            while len(order) >= client_capacity:
                order.popitem(last=False)
                cache_stats.evictions += 1
            order[file_id] = None
            remote_requests += 1

            members = build_group_fast(lists_get, group_size, file_id)
            if observe_group is not None:
                observe_group(len(members))
                observe_chain(len(members))
                if len(members) == 1:
                    singleton_builds += 1
            companions = members[1:]
            if server is not None:
                if file_id in server_order:
                    server_order.move_to_end(file_id)
                    server_stats.hits += 1
                else:
                    server_stats.misses += 1
                    store_fetches += 1
                    while len(server_order) >= server_capacity:
                        server_order.popitem(last=False)
                        server_stats.evictions += 1
                    server_order[file_id] = None
                for member in companions:
                    if member not in server_order:
                        store_fetches += 1
                server_install(server_order, companions, server_stats)
            else:
                store_fetches += len(members)
            cache.install_group_at_tail_fast(order, companions, cache_stats)

        if pending_hits:
            cache_stats.hits += pending_hits
        if events:
            tracker._previous = prev
        self.remote_requests += remote_requests
        self.store.fetches += store_fetches
        if record:
            transitions = len(events)
            if prev_was_none and transitions:
                transitions -= 1
            self._record_replay_metrics(registry, baseline, transitions)
            self._record_policy_counters(registry, baseline)
            if singleton_builds:
                registry.counter("grouping.build.singletons").inc(singleton_builds)
            registry.histogram("engine.replay.fast.ns").observe(
                time.perf_counter_ns() - started
            )
            registry.counter("engine.replay.path.fast").inc()
        return self.metrics()

    def replay(self, trace: Trace, progress=None) -> SystemMetrics:
        """Drive the system with a trace (events carry client ids).

        Every event is a demand access to its file (a write or delete
        still needs the file resident).

        This is the one replay entry point; it picks the loop once.  A
        :class:`~repro.traces.columnar.ColumnarTrace` runs through one
        array-kernel session (:func:`repro.sim.kernel.replay_columns_v2`)
        when :meth:`_fast_replay_ok` holds and
        :func:`repro.sim.kernel.v2_import` accepts the live state (int
        keys in the trace's code space, default client capacities).  Any
        other trace, and a columnar one the kernel declines, is replayed
        as decoded events: through the fused loop when
        :meth:`_fast_replay_ok` holds, per event through :meth:`access`
        otherwise.  Every loop counts exactly like the
        per-event path; ``engine.replay.path.*`` records which one ran,
        once per window.

        The trace is one window unless windowed telemetry is active
        (:func:`repro.obs.windowing`).  Then it is cut into
        ``collector.window``-event windows, all state carries across
        them, and the collector records one sample per window from the
        window's counter deltas.  ``progress(index, total, params,
        elapsed)`` is called before each window, with ``params =
        {"window": index, "start": first_event_index}``.
        """
        collector = _ts.ACTIVE
        fast = self._fast_replay_ok()
        session = None
        if isinstance(trace, ColumnarTrace):
            if fast:
                # Deferred: keeps the kernel out of the import of
                # every module that only needs the engine.
                from . import kernel

                session = kernel.v2_import(self, trace)
            if session is None:
                trace = trace.to_trace()
        if session is not None:
            run = partial(kernel.replay_columns_v2, self, state=session)
        elif fast:
            run = self._replay_fast
        else:
            run = self._replay_generic

        n = len(trace)
        if collector is None:
            window, total = n, 1
        else:
            window = collector.window
            total = (n + window - 1) // window
        metrics = None
        started = time.perf_counter()
        if collector is not None:
            # Suspended while windows replay, so nothing a window calls
            # (a progress callback, an on_sample hook) re-enters it.
            _ts.set_collector(None)
        try:
            for index in range(total):
                low = index * window
                high = min(low + window, n)
                if progress is not None:
                    progress(
                        index,
                        total,
                        {"window": index, "start": low},
                        time.perf_counter() - started,
                    )
                if high - low == n:
                    chunk = trace if session is not None else trace.events
                elif session is not None:
                    chunk = trace.slice(low, high)
                else:
                    chunk = trace.events[low:high]
                if collector is None:
                    metrics = run(chunk)
                else:
                    metrics = self._sampled_window(
                        collector, run, chunk, session is not None
                    )
        finally:
            if collector is not None:
                _ts.set_collector(collector)
            if session is not None:
                session.export()
        # Each loop returns the metrics after its window; an empty
        # windowed trace has no window.
        return self.metrics() if metrics is None else metrics

    def _sampled_window(self, collector, run, chunk, columnar: bool) -> SystemMetrics:
        """Replay one window and hand the collector its counter deltas."""
        before = self._metrics_baseline()
        started = time.perf_counter()
        metrics = run(chunk)
        seconds = time.perf_counter() - started
        if columnar:
            # Codes, not strings: entropy is invariant under the
            # bijective relabelling, so the sample matches the event path.
            file_ids = chunk.file_codes
        else:
            file_ids = [event.file_id for event in chunk]
        collector.record_window(
            self, len(chunk), file_ids, self._counter_deltas(before), seconds
        )
        return metrics

    def _replay_generic(self, events: Sequence[TraceEvent]) -> SystemMetrics:
        """Per-event replay through :meth:`access`, the reference loop."""
        record = _obs.ENABLED
        if record:
            registry = _obs.get_registry()
            baseline = self._metrics_baseline()
            started = time.perf_counter_ns()
        for event in events:
            self.access(event.client_id or "client00", event.file_id)
        if record:
            # Transitions were already counted per event by the tracker.
            self._record_replay_metrics(registry, baseline, None)
            registry.histogram("engine.replay.generic.ns").observe(
                time.perf_counter_ns() - started
            )
            registry.counter("engine.replay.path.generic").inc()
        return self.metrics()

    def metrics(self) -> SystemMetrics:
        """Snapshot system-wide accounting."""
        server = self.server_cache
        return SystemMetrics(
            client_stats={
                client_id: cache.stats.snapshot()
                for client_id, cache in self.clients.items()
            },
            # Demand hits and misses; the server cache's installs and
            # evictions stay on ``server_cache.stats``.
            server_stats=(
                CacheStats(hits=server.stats.hits, misses=server.stats.misses)
                if server is not None
                else CacheStats()
            ),
            store_fetches=self.store.fetches,
            remote_requests=self.remote_requests,
            metadata_entries=self.tracker.metadata_entries(),
        )


def _stats_tuple(stats: CacheStats) -> Tuple[int, int, int, int]:
    """A cache's (hits, misses, evictions, installs)."""
    return (stats.hits, stats.misses, stats.evictions, stats.installs)


def _minus(after: Tuple[int, ...], before: Tuple[int, ...]) -> Tuple[int, ...]:
    """Element-wise ``after - before``."""
    return tuple(a - b for a, b in zip(after, before))


def replay_cache(cache, sequence: Iterable[str]) -> CacheStats:
    """Drive any object with an ``access(key)`` method; return its stats.

    The universal single-cache replay loop used by experiments: works
    for plain :class:`~repro.caching.base.Cache` policies, the
    aggregating caches, and :class:`~repro.core.predictors.PrefetchingCache`.
    """
    access = cache.access
    for key in sequence:
        access(key)
    stats = getattr(cache, "stats", None)
    if stats is None:
        raise SimulationError(
            f"{type(cache).__name__} exposes no .stats after replay"
        )
    return stats.snapshot()
