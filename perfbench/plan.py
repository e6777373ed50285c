"""Deterministic request plans: a trace turned into /fetch and /invalidate calls.

Each trace client gets its own pending batch.  An open joins its
client's batch, and a full batch (:data:`BATCH` files) is sent as one
``/fetch``.  A mutation (WRITE, CREATE or DELETE) first flushes its
client's batch, then sends ``/invalidate`` for the mutated file.  Batches
still pending at the end are flushed in client order.  The plan depends
only on the trace, so one seed always gives one plan.

serve-mixed sends the plan over HTTP.  The replay and sweep workloads
send no requests (:func:`restated_latencies`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

#: Most files one /fetch carries.
BATCH = 16

FETCH = "/fetch"
INVALIDATE = "/invalidate"

#: ``(client index, endpoint, files)``
Request = Tuple[int, str, Tuple]


def request_plan(
    clients: Sequence[int],
    files: Sequence,
    kinds: Sequence[int],
    mutation_kinds: Set[int],
) -> List[Request]:
    """Split a trace's columns into the closed-loop request sequence."""
    pending: Dict[int, list] = {}
    plan: List[Request] = []
    for client, file_id, kind in zip(clients, files, kinds):
        if kind in mutation_kinds:
            queued = pending.pop(client, None)
            if queued:
                plan.append((client, FETCH, tuple(queued)))
            plan.append((client, INVALIDATE, (file_id,)))
            continue
        queued = pending.setdefault(client, [])
        queued.append(file_id)
        if len(queued) == BATCH:
            plan.append((client, FETCH, tuple(queued)))
            del pending[client]
    for client in sorted(pending):
        plan.append((client, FETCH, tuple(pending[client])))
    return plan


def trace_plan(ctrace) -> Tuple[List[Request], Tuple[str, ...]]:
    """The request plan of a columnar trace, and its client names."""
    from repro.traces.columnar import KINDS
    from repro.traces.events import EventKind

    n = len(ctrace)
    mutations = {
        code
        for code, kind in enumerate(KINDS)
        if kind in (EventKind.WRITE, EventKind.CREATE, EventKind.DELETE)
    }
    clients = ctrace.client_codes if ctrace.client_codes is not None else [0] * n
    kinds = ctrace.kind_codes if ctrace.kind_codes is not None else [0] * n
    names = tuple(name or "client00" for name in ctrace.client_symbols)
    return request_plan(clients, ctrace.file_ids(), kinds, mutations), names


def restated_latencies(events_per_s: float) -> Dict[str, float]:
    """``fetch_*`` and ``invalidate_*`` for a workload that sends no requests.

    Every run prints every end-to-end metric, but replay and sweep have
    no request latency to measure.  These values restate the workload's
    ``events_per_s`` at request size instead: a full ``/fetch`` carries
    :data:`BATCH` opens and an ``/invalidate`` one file, so p50 and p99
    are equal.  They are not a latency measurement; they move exactly
    with ``events_per_s``.
    """
    per_event_ms = 1e3 / events_per_s
    return {
        "fetch_p50_ms": BATCH * per_event_ms,
        "fetch_p99_ms": BATCH * per_event_ms,
        "invalidate_p50_ms": per_event_ms,
        "invalidate_p99_ms": per_event_ms,
    }


def chunks(plan: Sequence[Request], parts: int) -> List[Sequence[Request]]:
    """``parts`` contiguous, near-equal slices of a plan (none empty)."""
    parts = max(1, min(parts, len(plan)))
    base, extra = divmod(len(plan), parts)
    out = []
    low = 0
    for index in range(parts):
        high = low + base + (1 if index < extra else 0)
        out.append(plan[low:high])
        low = high
    return out
