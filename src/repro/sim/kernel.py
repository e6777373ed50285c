"""Batch replay kernel over columnar integer traces.

The engine's fused fast loop (:meth:`DistributedFileSystem._replay_fast`)
removed the per-event call overhead of the generic path, but it still
starts from event *objects*: every replay pays a pass that pulls
``event.file_id`` / ``event.client_id`` out of 60k event objects before
the hot loop can run.  This module is the next rung down: kernels that
consume the integer columns of a
:class:`~repro.traces.columnar.ColumnarTrace` *directly* — no event
objects, no strings, no encoding pass — the same narrow-ABI split
SimCash uses between its python API and its Rust core, kept in python
but with the same discipline: the kernel sees arrays of ints and a
handful of dicts, nothing else.

Two kernels live here:

* :func:`replay_columns_v2` — the full Figure-2 system replay over the
  array-backed eviction core: the flat arrays of
  :class:`~repro.caching.array_lru.ArrayLRU` (one stamp store per hit,
  lazy exact eviction) and the successor-slot form of
  :class:`~repro.core.successors.ArraySuccessorTracker` (slot lists
  shared in place with the canonical tracker), walked client run by
  client run off one shared ``enumerate`` of the file column.  The
  miss path is where an interleaved workload spends its time, so it
  carries no avoidable work: a successor update tests membership
  before it removes (most non-repeat transitions bring a successor the
  list does not hold, and a raising ``list.remove`` costs far more
  than the test), each group-build step starts from the frontier's
  cached head, and each client's array state and counts live in one
  record per call.  State imports from the live
  system at entry and exports back at exit, so the caches and tracker
  end byte-identical to the per-event path; :func:`v2_import` decides
  eligibility, and the engine decodes the trace and replays its events
  when it returns None.  Observability deltas are reported through
  the same batched helpers the engine's fast loop uses.
* :func:`scan_columns` — the pure-int column scan: event counts, unique
  files, and the kind histogram in one pass, built on C-speed
  primitives (``set`` construction, ``bytes.count``).  This is the
  10M+ events/s hot path the strict benchmark gate tracks;
  ``repro trace info`` and ``ColumnarTrace.unique_files`` ride it.

Every replay entry point records which loop ran under the
``engine.replay.path.*`` counters (``kernel_v2`` / ``fast`` /
``generic``), so ``repro metrics`` and ``repro report`` can show
whether a run actually took the path you think it did.

The module imports only the standard library, and each batch scan
(client segmentation, column scans, queue refills) has one
implementation.  LRU and successor-list updates are inherently
sequential, so the replay loop is plain python, and the scans around
it cost a few percent of a pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import islice
from typing import List, Optional, Sequence, Tuple

from ..caching.array_lru import ArrayLRU, refill_queue
from ..caching.lru import LRUCache
from ..core.successors import ArraySuccessorTracker
from ..obs import registry as _obs

#: Default client identity for events that carry none (engine contract).
DEFAULT_CLIENT = "client00"


# -- column scans -----------------------------------------------------------


@dataclass(frozen=True)
class ColumnScan:
    """One pass's worth of column statistics.

    ``kind_counts`` is indexed by the fixed columnar kind numbering
    (:data:`repro.traces.columnar.KINDS`); with no kind column every
    event is an OPEN.
    """

    events: int
    unique_files: int
    kind_counts: Tuple[int, ...]

    @property
    def open_events(self) -> int:
        return self.kind_counts[0]

    @property
    def mutation_events(self) -> int:
        """WRITE + CREATE + DELETE events (the invalidation stream)."""
        return self.kind_counts[2] + self.kind_counts[3] + self.kind_counts[4]


def scan_columns(
    file_codes: Sequence[int], kind_codes: Optional[Sequence[int]] = None
) -> ColumnScan:
    """Scan integer columns for event count, unique files, kind mix.

    ``set`` construction and ``bytes.count`` do the counting, both C
    loops.
    """
    n = len(file_codes)
    n_kinds = 6
    if n == 0:
        return ColumnScan(events=0, unique_files=0, kind_counts=(0,) * n_kinds)
    unique = len(set(file_codes))
    if kind_codes is None:
        kinds = (n,) + (0,) * (n_kinds - 1)
    else:
        raw = bytes(kind_codes)
        kinds = tuple(raw.count(code) for code in range(n_kinds))
    return ColumnScan(events=n, unique_files=unique, kind_counts=kinds)


# -- client segmentation ----------------------------------------------------


def client_runs(ctrace) -> List[Tuple[str, int, int]]:
    """Maximal runs of equal client identity: ``[(client, lo, hi), ...]``.

    Events with an empty client id belong to :data:`DEFAULT_CLIENT`,
    matching the engine's generic path.  A constant (elided) client
    column is one run over the whole trace.
    """
    n = len(ctrace)
    codes = ctrace.client_codes
    symbols = ctrace.client_symbols
    if n == 0:
        return []
    if codes is None:
        return [(symbols[0] or DEFAULT_CLIENT, 0, n)]
    names = [symbol or DEFAULT_CLIENT for symbol in symbols]
    runs: List[Tuple[str, int, int]] = []
    append = runs.append
    lo = 0
    previous = codes[0]
    for index, code in enumerate(codes):
        if code != previous:
            append((names[previous], lo, index))
            lo = index
            previous = code
    append((names[previous], lo, n))
    return runs


# -- array-backed system replay (v2) ----------------------------------------


def _import_lru(order, capacity: int, universe: int) -> Optional[ArrayLRU]:
    """Share an ``OrderedDict`` LRU's contents into array form.

    One validating pass: every key must be an int code in
    ``[0, universe)`` (anything else — string keys from a prior
    event-trace replay, codes past this trace's symbol table — returns
    None and the caller replays the decoded events instead).
    Imported stamps are ``-size .. -1`` in LRU-to-MRU order, matching
    :meth:`ArrayLRU.from_keys`.
    """
    lru = ArrayLRU(capacity, universe)
    stamp = lru.stamp
    in_cache = lru.in_cache
    position = -len(order)
    for key in order:
        if not (type(key) is int and 0 <= key < universe):
            return None
        stamp[key] = position
        in_cache[key] = 1
        position += 1
    lru.size = len(order)
    lru.cold = -len(order) - 1
    return lru


class V2ReplayState:
    """Live array state for one replay session, every window of it.

    Holds the :class:`ArrayLRU` per client (paired with its cache
    object), the server's, the shared successor slots, the carried
    predecessor, and the monotone event clock that keeps stamps unique
    across successive :func:`replay_columns_v2` calls on the same
    state.  :meth:`DistributedFileSystem.replay` imports once, replays
    every window against the same state, and calls :meth:`export` at
    the end, so the import/export cost is paid once per replay, not
    per window.

    Between ``run`` and ``export`` the cache ``OrderedDict`` contents
    are stale (stats objects, system counters, and tracker lists are
    always current — they are synced or shared per call); nothing in
    the windowed sampling path reads cache contents, but a session
    holder that does must export first.
    """

    __slots__ = (
        "system",
        "universe",
        "prev",
        "clock",
        "succ",
        "client_lrus",
        "server_lru",
    )

    def __init__(self, system, universe: int):
        self.system = system
        self.universe = universe
        self.prev = None
        self.clock = 0
        self.succ: Optional[ArraySuccessorTracker] = None
        #: client id -> (ArrayLRU, LRUCache) pairs.
        self.client_lrus = {}
        self.server_lru: Optional[ArrayLRU] = None

    def export(self) -> None:
        """Write the array orders back into the cache ``OrderedDict``s."""
        for lru, cache in self.client_lrus.values():
            order = cache._order
            order.clear()
            for key in lru.export():
                order[key] = None
        if self.server_lru is not None:
            order = self.system.server_cache._order
            order.clear()
            for key in self.server_lru.export():
                order[key] = None


def v2_import(system, ctrace):
    """Import a system's live state into array form, or None if it can't.

    The caller must already hold ``system._fast_replay_ok()`` (no
    active flight recorder) — this adds the *array* eligibility on top:
    every cache key, successor key and entry, and the carried previous
    file is an int in this trace's code space, and every client cache
    matches the system capacity.

    Codes carry no trace identity: int state left by a replay of a
    *different* columnar trace is accepted whenever it fits this
    trace's code range, and its codes are read as this trace's files.

    A fresh system validates at zero cost (nothing to scan); warm state
    costs one pass over cache contents and metadata — trivial next to
    the replay itself.  Returns a :class:`V2ReplayState` ready for
    :func:`replay_columns_v2`.
    """
    universe = len(ctrace.file_symbols)
    server = system.server_cache
    client_capacity = system.client_capacity
    for cache in system.clients.values():
        if cache.capacity != client_capacity:
            return None
    tracker = system.tracker
    previous = tracker._previous
    if previous is not None and not (
        type(previous) is int and 0 <= previous < universe
    ):
        return None
    succ = ArraySuccessorTracker.from_tracker(tracker, universe)
    if succ is None:
        return None
    state = V2ReplayState(system, universe)
    state.succ = succ
    state.prev = succ.dummy if previous is None else previous
    for client_id, cache in system.clients.items():
        lru = _import_lru(cache._order, client_capacity, universe)
        if lru is None:
            return None
        state.client_lrus[client_id] = (lru, cache)
    if server is not None:
        server_lru = _import_lru(server._order, server.capacity, universe)
        if server_lru is None:
            return None
        state.server_lru = server_lru
    return state


def _client_lru(state: V2ReplayState, client_id: str) -> ArrayLRU:
    """The array LRU of one client, sharing in or creating its cache.

    A client first seen in this session gets its cache's contents
    imported, or a new empty cache when the system has none for it.
    """
    pair = state.client_lrus.get(client_id)
    if pair is not None:
        return pair[0]
    system = state.system
    capacity = system.client_capacity
    cache = system.clients.get(client_id)
    if cache is None:
        cache = LRUCache(capacity)
        cache.trace_name = f"client.{client_id}"
        system.clients[client_id] = cache
        lru = ArrayLRU(capacity, state.universe)
    else:
        # A cache injected after import: share it in, or bail loudly —
        # silently diverging state is worse.
        lru = _import_lru(cache._order, capacity, state.universe)
        if lru is None:
            raise ValueError(
                f"client {client_id!r} cache keys left the trace's"
                " code space mid-session"
            )
    state.client_lrus[client_id] = (lru, cache)
    return lru


def replay_columns_v2(system, ctrace, state: Optional[V2ReplayState] = None):
    """Replay a columnar trace through the array-backed eviction core.

    The caller (:meth:`DistributedFileSystem.replay`) guarantees
    ``system._fast_replay_ok()``: no active flight recorder.  The loop
    is the engine's fused fast loop re-specialized for integer columns
    and flat-array state: file identifiers are ints
    straight out of the mmap, client segmentation is precomputed per
    run, a hit is one stamp store, a miss runs the lazy exact-LRU
    eviction and stamps group installs from the cold clock, and
    successor observations mutate slot lists shared with the canonical
    tracker.  A successor update tests membership before it removes,
    so it raises nothing, and each group-build step starts from the
    frontier's cached head.  Each client's array state and counts live
    in one record per call, which a run unpacks and stores back; the
    counts reach the cache stats once per client, after the loop.
    Cache keys after the replay are codes, so string-keyed
    callers decode first.  Byte-identical
    :class:`~repro.sim.engine.SystemMetrics`, cache contents, tracker
    state, and observability counter deltas to the per-event
    ``access()`` path fed the trace's codes (the kernel parity tests
    hold it to all four).

    With ``state`` omitted, the function imports from the live system
    and exports back before returning (raising ``ValueError`` if
    :func:`v2_import` declines — dispatchers check eligibility first).
    A caller that replays many chunks passes one
    :class:`V2ReplayState` across calls and exports once at the end.
    """
    owned = state is None
    if owned:
        state = v2_import(system, ctrace)
        if state is None:
            raise ValueError(
                "system state is not v2-eligible; replay the decoded events"
            )
    runs = client_runs(ctrace)

    tracker = system.tracker
    succ = state.succ
    slots = succ.slots
    heads = succ.heads
    new_preds = succ.new_preds
    successor_capacity = succ.capacity
    dummy = succ.dummy
    prev = state.prev
    clock = state.clock

    group_size = system.group_size
    client_capacity = system.client_capacity
    # A group install keeps the demanded file resident, so at most
    # capacity - 1 companions are placed.
    client_limit = client_capacity - 1 if client_capacity > 1 else 0
    server = system.server_cache
    if server is not None:
        s_lru = state.server_lru
        s_stamp = s_lru.stamp
        s_res = s_lru.in_cache
        s_cold_stack = s_lru.cold_stack
        s_push = s_cold_stack.append
        s_queue = s_lru.queue
        s_size = s_lru.size
        s_cold = s_lru.cold
        server_capacity = server.capacity
        server_limit = server_capacity - 1 if server_capacity > 1 else 0
        server_stats = server.stats
        s_hits = s_misses = s_evictions = s_installs = 0

    record = _obs.ENABLED
    observe_group = observe_chain = None
    singleton_builds = 0
    if record:
        registry = _obs.get_registry()
        observe_group = registry.histogram("engine.group_fetch.size").observe
        observe_chain = registry.histogram("grouping.chain.length").observe
        baseline = system._metrics_baseline()
        prev_was_none = prev == dummy
        started = time.perf_counter_ns()

    store_fetches = 0
    # client id -> (stamp, in_cache, cold_stack, queue, size, cold,
    # events, misses, evictions, installs) for this call.
    records = {}
    events = enumerate(ctrace.file_codes, clock)

    for client_id, lo, hi in runs:
        client = records.get(client_id)
        if client is None:
            lru = _client_lru(state, client_id)
            client = (
                lru.stamp, lru.in_cache, lru.cold_stack, lru.queue,
                lru.size, lru.cold, 0, 0, 0, 0,
            )
        (
            stamp, resident, cold_stack, queue,
            size, cold, seen, misses, evictions, installs,
        ) = client

        for i, f in islice(events, hi - lo):
            if heads[prev] != f:
                items = slots[prev]
                if items is None:
                    slots[prev] = [f]
                    new_preds.append(prev)
                else:
                    if f in items:
                        items.remove(f)
                    elif len(items) >= successor_capacity:
                        items.pop()
                    items.insert(0, f)
                heads[prev] = f
            prev = f

            if resident[f]:
                stamp[f] = i
                continue

            # ---- client miss: demand admit, one group request ----
            misses += 1
            while size >= client_capacity:
                while True:
                    if cold_stack:
                        snapshot = cold_stack.pop()
                        victim = cold_stack.pop()
                        if resident[victim] and stamp[victim] == snapshot:
                            resident[victim] = 0
                            break
                    elif queue:
                        snapshot, victim = queue.pop()
                        if resident[victim] and stamp[victim] == snapshot:
                            resident[victim] = 0
                            break
                    else:
                        refill_queue(queue, resident, stamp)
                size -= 1
                evictions += 1
            resident[f] = 1
            stamp[f] = i
            size += 1

            # ---- group build over the shared slots ----
            members = [f]
            frontier = f
            while len(members) < group_size:
                # heads[frontier] is slots[frontier][0]: the chain's next
                # member unless it is absent or already taken.
                candidate = heads[frontier]
                if candidate is None or candidate in members:
                    candidate = None
                    items = slots[frontier]
                    if items is not None:
                        for entry in items:
                            if entry not in members:
                                candidate = entry
                                break
                    if candidate is None:
                        for member in members:
                            items = slots[member]
                            if items is None:
                                continue
                            for entry in items:
                                if entry not in members:
                                    candidate = entry
                                    break
                            if candidate is not None:
                                break
                        if candidate is None:
                            break
                members.append(candidate)
                frontier = candidate
            if observe_group is not None:
                observe_group(len(members))
                observe_chain(len(members))
                if len(members) == 1:
                    singleton_builds += 1
            companions = members[1:]

            if server is not None:
                if s_res[f]:
                    s_stamp[f] = i
                    s_hits += 1
                else:
                    s_misses += 1
                    store_fetches += 1
                    while s_size >= server_capacity:
                        while True:
                            if s_cold_stack:
                                snapshot = s_cold_stack.pop()
                                victim = s_cold_stack.pop()
                                if s_res[victim] and s_stamp[victim] == snapshot:
                                    s_res[victim] = 0
                                    break
                            elif s_queue:
                                snapshot, victim = s_queue.pop()
                                if s_res[victim] and s_stamp[victim] == snapshot:
                                    s_res[victim] = 0
                                    break
                            else:
                                refill_queue(s_queue, s_res, s_stamp)
                        s_size -= 1
                        s_evictions += 1
                    s_res[f] = 1
                    s_stamp[f] = i
                    s_size += 1
                newcomers = None
                for k in companions:
                    if not s_res[k]:
                        store_fetches += 1
                        if newcomers is None:
                            newcomers = [k]
                        else:
                            newcomers.append(k)
                if newcomers is not None:
                    if len(newcomers) > server_limit:
                        del newcomers[server_limit:]
                    if newcomers:
                        overflow = s_size + len(newcomers) - server_capacity
                        if overflow > 0:
                            for _ in range(overflow):
                                while True:
                                    if s_cold_stack:
                                        snapshot = s_cold_stack.pop()
                                        victim = s_cold_stack.pop()
                                        if (
                                            s_res[victim]
                                            and s_stamp[victim] == snapshot
                                        ):
                                            s_res[victim] = 0
                                            break
                                    elif s_queue:
                                        snapshot, victim = s_queue.pop()
                                        if (
                                            s_res[victim]
                                            and s_stamp[victim] == snapshot
                                        ):
                                            s_res[victim] = 0
                                            break
                                    else:
                                        refill_queue(s_queue, s_res, s_stamp)
                            s_size -= overflow
                            s_evictions += overflow
                        for k in newcomers:
                            s_res[k] = 1
                            s_stamp[k] = s_cold
                            s_push(k)
                            s_push(s_cold)
                            s_cold -= 1
                        s_size += len(newcomers)
                        s_installs += len(newcomers)
            else:
                store_fetches += len(members)

            # ---- client tail install ----
            newcomers = None
            for k in companions:
                if not resident[k]:
                    if newcomers is None:
                        newcomers = [k]
                    else:
                        newcomers.append(k)
            if newcomers is not None:
                if len(newcomers) > client_limit:
                    del newcomers[client_limit:]
                if newcomers:
                    overflow = size + len(newcomers) - client_capacity
                    if overflow > 0:
                        for _ in range(overflow):
                            while True:
                                if cold_stack:
                                    snapshot = cold_stack.pop()
                                    victim = cold_stack.pop()
                                    if (
                                        resident[victim]
                                        and stamp[victim] == snapshot
                                    ):
                                        resident[victim] = 0
                                        break
                                elif queue:
                                    snapshot, victim = queue.pop()
                                    if (
                                        resident[victim]
                                        and stamp[victim] == snapshot
                                    ):
                                        resident[victim] = 0
                                        break
                                else:
                                    refill_queue(queue, resident, stamp)
                        size -= overflow
                        evictions += overflow
                    push = cold_stack.append
                    for k in newcomers:
                        resident[k] = 1
                        stamp[k] = cold
                        push(k)
                        push(cold)
                        cold -= 1
                    size += len(newcomers)
                    installs += len(newcomers)

        records[client_id] = (
            stamp, resident, cold_stack, queue,
            size, cold, seen + hi - lo, misses, evictions, installs,
        )

    # Every client miss is one remote request.
    remote_requests = 0
    client_lrus = state.client_lrus
    for client_id, client in records.items():
        size, cold, seen, misses, evictions, installs = client[4:]
        lru, cache = client_lrus[client_id]
        lru.size = size
        lru.cold = cold
        stats = cache.stats
        stats.hits += seen - misses
        stats.misses += misses
        stats.evictions += evictions
        stats.installs += installs
        remote_requests += misses
    if server is not None:
        s_lru.size = s_size
        s_lru.cold = s_cold
        server_stats.hits += s_hits
        server_stats.misses += s_misses
        server_stats.evictions += s_evictions
        server_stats.installs += s_installs
    if runs:
        state.prev = prev
        tracker._previous = prev if prev != dummy else None
    state.clock = clock + len(ctrace)
    if new_preds:
        succ.fold_into(tracker)
    system.remote_requests += remote_requests
    system.store.fetches += store_fetches
    if record:
        transitions = len(ctrace)
        if prev_was_none and transitions:
            transitions -= 1
        system._record_replay_metrics(registry, baseline, transitions)
        system._record_policy_counters(registry, baseline)
        if singleton_builds:
            registry.counter("grouping.build.singletons").inc(singleton_builds)
        registry.histogram("engine.replay.kernel.ns").observe(
            time.perf_counter_ns() - started
        )
        registry.counter("engine.replay.path.kernel_v2").inc()
    if owned:
        state.export()
    return system.metrics()
