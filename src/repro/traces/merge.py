"""Trace composition: concatenation, interleaving, relabeling.

Multi-client traces are often assembled from single-machine captures;
phase-change studies splice unrelated traces end to end.  These
utilities build composite traces deterministically (seeded interleave)
while keeping client attribution coherent.
"""

from __future__ import annotations

import random
from typing import Sequence

from ..errors import TraceError
from .events import Trace, TraceEvent


def concatenate(traces: Sequence[Trace], name: str = "") -> Trace:
    """Join traces end to end (the phase-change construction)."""
    if not traces:
        raise TraceError("concatenate needs at least one trace")
    combined = Trace(name=name or "+".join(t.name for t in traces))
    for trace in traces:
        combined.extend(event.with_sequence(-1) for event in trace)
    return combined


def relabel_clients(trace: Trace, client_id: str) -> Trace:
    """Force every event's client attribution to one identifier."""
    renamed = Trace(name=trace.name)
    for event in trace:
        renamed.append(
            TraceEvent(
                file_id=event.file_id,
                kind=event.kind,
                client_id=client_id,
                user_id=event.user_id,
                process_id=event.process_id,
            )
        )
    return renamed


def prefix_files(trace: Trace, prefix: str) -> Trace:
    """Namespace every file identifier under a prefix.

    Needed when merging traces whose identifier spaces collide (two
    workstation captures both using ``/usr/bin/vi``): prefixing keeps
    the per-trace structure while making the populations disjoint.
    """
    renamed = Trace(name=trace.name)
    for event in trace:
        renamed.append(
            TraceEvent(
                file_id=f"{prefix}{event.file_id}",
                kind=event.kind,
                client_id=event.client_id,
                user_id=event.user_id,
                process_id=event.process_id,
            )
        )
    return renamed


def interleave(
    traces: Sequence[Trace],
    seed: int = 0,
    run_mean: float = 4.0,
    name: str = "",
    relabel: bool = True,
) -> Trace:
    """Merge traces into one stream with sticky random scheduling.

    Each source trace plays the role of one client: the scheduler picks
    a source, emits a geometric run of its next events, and moves on —
    the same interleaving model the synthetic workloads use, applied to
    existing traces.  With ``relabel`` (default) each source's events
    are attributed to ``merged00``, ``merged01``, ... so partitioned
    analyses see the merge structure.

    Sources are consumed completely; the result length is the sum of
    the inputs.
    """
    if not traces:
        raise TraceError("interleave needs at least one trace")
    if run_mean < 1.0:
        raise TraceError(f"run_mean must be >= 1, got {run_mean}")
    rng = random.Random(seed)
    positions = [0] * len(traces)
    merged = Trace(name=name or "merge(" + ",".join(t.name for t in traces) + ")")
    live = [index for index, trace in enumerate(traces) if len(trace)]
    while live:
        source = live[rng.randrange(len(live))]
        # Geometric run length with the configured mean.
        run = 1
        while rng.random() > 1.0 / run_mean:
            run += 1
        trace = traces[source]
        for _ in range(run):
            if positions[source] >= len(trace):
                break
            event = trace[positions[source]]
            positions[source] += 1
            merged.append(
                TraceEvent(
                    file_id=event.file_id,
                    kind=event.kind,
                    client_id=(
                        f"merged{source:02d}" if relabel else event.client_id
                    ),
                    user_id=event.user_id,
                    process_id=event.process_id,
                )
            )
        if positions[source] >= len(trace):
            live.remove(source)
    return merged
