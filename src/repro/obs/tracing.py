"""Decision-trace flight recorder with prefetch-provenance accounting.

Where :mod:`repro.obs.registry` answers "how many?", this module
answers "why this one?": a sampled, ring-buffered recorder of typed
decision records emitted from the replay hot paths —

* ``open`` — one demand access: hit or miss, resident-set size;
* ``demand_fetch`` — a file shipped because it was demanded;
* ``group_fetch`` — one group request: group id, members installed,
  members skipped and why (already resident / capacity trim);
* ``evict`` — a victim leaving a cache: cause, residency age, and
  whether it was a group-fetched file that was never used;
* ``group_update`` — one successor-list mutation.

Three design rules keep the recorder honest and cheap:

* **One branch per site when disabled.**  Every emitting site already
  sits behind ``if registry.ENABLED:``; the recorder adds only a read
  of :data:`ACTIVE` inside that guard, so the default path is
  untouched (asserted by the 5% strict benchmark gate).
* **Exact accounting, bounded memory.**  Per-kind record counts and the
  per-file provenance tables are updated on *every* emit; the
  ``sample`` and ``capacity`` knobs bound only what the ring buffer
  retains.  Prefetch efficiency is therefore exact even when the ring
  has wrapped.
* **Observe, never steer.**  Like the metrics registry, no trace state
  is ever consulted by the replay machinery; the fused fast loops
  simply opt out to the generic path while a recorder is active, so
  traced and untraced replays produce identical counts.

Typical use::

    from repro.obs import tracing

    with tracing.recording(capacity=65536) as recorder:
        cache.replay(sequence)
    tracing.write_trace_jsonl(recorder, "results/trace.jsonl")
    print(recorder.explain_file("server/c0/a01/f0021"))

``repro explain`` wraps exactly this flow in a command.
"""

from __future__ import annotations

import json
from collections import Counter as _CounterDict
from collections import OrderedDict, deque
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from . import registry as _registry
from .export import Pathish, meta_record, read_records, write_records
from .registry import ObservabilityError

#: Schema tag stamped on (and demanded from) every exported trace.
TRACE_SCHEMA = "repro.trace/1"

#: The record vocabulary; every ring record carries ``kind`` + ``seq``
#: + ``component`` plus the kind's required payload fields below.
RECORD_FIELDS: Dict[str, Tuple[str, ...]] = {
    "open": ("file", "hit", "resident"),
    "demand_fetch": ("file",),
    "group_fetch": ("group", "demanded", "size", "installed", "skipped"),
    "evict": ("file", "cause", "age", "origin", "used"),
    "group_update": ("predecessor", "successor", "new", "size"),
}

#: Eviction causes the instrumentation distinguishes.
EVICT_CAUSES = ("demand_admit", "group_install", "invalidate")

#: The recorder instrumentation currently emits into, or None.  Hot
#: sites read this only inside an ``if registry.ENABLED:`` guard, so a
#: disabled run never touches it.
ACTIVE: Optional["FlightRecorder"] = None


class _Provenance:
    """Per-component residency bookkeeping behind the trace records.

    Tracks, for every currently resident file, how it arrived
    (``demand`` or ``group``), when (global seq), which demanded file
    led its group, and whether it has been demanded since — the state
    needed to call an eviction "a never-used prefetch" and to compute
    prefetch efficiency exactly.
    """

    __slots__ = (
        "origin",
        "installed_seq",
        "used",
        "leader",
        "demand_fetches",
        "group_installs",
        "group_used",
        "group_evicted_unused",
        "evictions_by_cause",
        "leader_installs",
        "leader_waste",
        "opens",
        "hits",
        "misses",
    )

    def __init__(self) -> None:
        self.origin: Dict[str, str] = {}
        self.installed_seq: Dict[str, int] = {}
        self.used: Dict[str, bool] = {}
        self.leader: Dict[str, str] = {}
        self.demand_fetches = 0
        self.group_installs = 0
        self.group_used = 0
        self.group_evicted_unused = 0
        self.evictions_by_cause: _CounterDict = _CounterDict()
        self.leader_installs: _CounterDict = _CounterDict()
        self.leader_waste: _CounterDict = _CounterDict()
        self.opens = 0
        self.hits = 0
        self.misses = 0

    # -- queries ----------------------------------------------------------
    @property
    def group_resident_unused(self) -> int:
        """Group-fetched files still resident and never demanded."""
        return sum(
            1
            for file_id, origin in self.origin.items()
            if origin == "group" and not self.used.get(file_id, False)
        )

    @property
    def prefetch_efficiency(self) -> float:
        """Fraction of group-fetched installs demanded before eviction."""
        if not self.group_installs:
            return 0.0
        return self.group_used / self.group_installs

    @property
    def wasted_fetch_share(self) -> float:
        """Share of all shipped files that were prefetched and never used.

        Whole-file caching makes files the byte proxy: every shipped
        file costs the same, so this is the trace's "wasted bytes"
        figure.  Counts both evicted-unused and still-resident-unused
        prefetches against everything shipped (demand + group).
        """
        shipped = self.demand_fetches + self.group_installs
        if not shipped:
            return 0.0
        unused = self.group_installs - self.group_used
        return unused / shipped


class FlightRecorder:
    """Sampled, ring-buffered store of typed decision records.

    Parameters
    ----------
    capacity:
        Maximum records retained in the ring buffer; the oldest records
        are dropped first once it is full (``ring_dropped`` counts
        them).
    sample:
        Keep every ``sample``-th record *of each kind* in the ring
        (1 = keep everything).  Sampling is per kind so a torrent of
        ``open`` records cannot starve the rarer ``evict`` records.
        Aggregate accounting — per-kind counts and the provenance
        tables — always sees every record.
    """

    def __init__(self, capacity: int = 65536, sample: int = 1):
        if capacity <= 0:
            raise ObservabilityError(
                f"flight recorder capacity must be positive, got {capacity}"
            )
        if sample <= 0:
            raise ObservabilityError(
                f"flight recorder sample must be positive, got {sample}"
            )
        self.capacity = capacity
        self.sample = sample
        self.seq = 0
        self._ring: "deque[Dict[str, Any]]" = deque(maxlen=capacity)
        self.emitted: _CounterDict = _CounterDict()
        self.sampled_out = 0
        self.ring_dropped = 0
        self._provenance: "OrderedDict[str, _Provenance]" = OrderedDict()
        self._groups = 0
        self._cause = "demand_admit"

    # -- internals ---------------------------------------------------------
    def _component(self, name: str) -> _Provenance:
        table = self._provenance.get(name)
        if table is None:
            table = _Provenance()
            self._provenance[name] = table
        return table

    def _store(self, kind: str, record: Dict[str, Any]) -> None:
        """Ring-buffer admission: per-kind sampling, then capacity."""
        self.emitted[kind] += 1
        if self.sample > 1 and (self.emitted[kind] - 1) % self.sample:
            self.sampled_out += 1
            return
        if len(self._ring) == self.capacity:
            self.ring_dropped += 1
        self._ring.append(record)

    # -- eviction-cause context -------------------------------------------
    def set_cause(self, cause: str) -> str:
        """Set the cause attributed to subsequent evictions; returns the
        previous cause so callers can restore it."""
        previous = self._cause
        self._cause = cause
        return previous

    @contextmanager
    def cause(self, cause: str) -> Iterator[None]:
        """Attribute evictions inside the block to ``cause``."""
        previous = self.set_cause(cause)
        try:
            yield
        finally:
            self._cause = previous

    # -- emitting sites ----------------------------------------------------
    def open(self, component: str, file_id: str, hit: bool, resident: int) -> None:
        """One demand access against a cache component."""
        self.seq += 1
        table = self._component(component)
        table.opens += 1
        if hit:
            table.hits += 1
            if table.origin.get(file_id) == "group" and not table.used.get(
                file_id, False
            ):
                table.group_used += 1
            table.used[file_id] = True
        else:
            table.misses += 1
        self._store(
            "open",
            {
                "kind": "open",
                "seq": self.seq,
                "component": component,
                "file": file_id,
                "hit": hit,
                "resident": resident,
            },
        )

    def demand_fetch(self, component: str, file_id: str) -> None:
        """A file shipped because it was demanded (a miss's own fetch)."""
        self.seq += 1
        table = self._component(component)
        table.demand_fetches += 1
        table.origin[file_id] = "demand"
        table.installed_seq[file_id] = self.seq
        table.used[file_id] = True
        table.leader.pop(file_id, None)
        self._store(
            "demand_fetch",
            {
                "kind": "demand_fetch",
                "seq": self.seq,
                "component": component,
                "file": file_id,
            },
        )

    def group_fetch(
        self,
        component: str,
        demanded: str,
        installed: Sequence[str],
        skipped: Sequence[Tuple[str, str]],
    ) -> int:
        """One group request; returns the recorder-assigned group id.

        ``installed`` are the predicted companions newly placed in the
        cache; ``skipped`` pairs each unshipped companion with its
        reason (``"resident"`` — already cached — or ``"capacity"`` —
        trimmed so the demanded file is never displaced).
        """
        self.seq += 1
        self._groups += 1
        group_id = self._groups
        table = self._component(component)
        for member in installed:
            table.group_installs += 1
            table.origin[member] = "group"
            table.installed_seq[member] = self.seq
            table.used[member] = False
            table.leader[member] = demanded
        table.leader_installs[demanded] += len(installed)
        self._store(
            "group_fetch",
            {
                "kind": "group_fetch",
                "seq": self.seq,
                "component": component,
                "group": group_id,
                "demanded": demanded,
                "size": 1 + len(installed) + len(skipped),
                "installed": list(installed),
                "skipped": [list(pair) for pair in skipped],
            },
        )
        return group_id

    def evict(
        self, component: str, victim: str, cause: Optional[str] = None
    ) -> None:
        """A victim leaving a cache component (capacity or invalidation)."""
        self.seq += 1
        table = self._component(component)
        cause = cause if cause is not None else self._cause
        table.evictions_by_cause[cause] += 1
        origin = table.origin.pop(victim, None)
        installed_at = table.installed_seq.pop(victim, None)
        used = table.used.pop(victim, None)
        leader = table.leader.pop(victim, None)
        age = self.seq - installed_at if installed_at is not None else None
        if origin == "group" and not used:
            table.group_evicted_unused += 1
            if leader is not None:
                table.leader_waste[leader] += 1
        self._store(
            "evict",
            {
                "kind": "evict",
                "seq": self.seq,
                "component": component,
                "file": victim,
                "cause": cause,
                "age": age,
                "origin": origin,
                "used": used,
            },
        )

    def group_update(
        self, predecessor: str, successor: str, new: bool, size: int
    ) -> None:
        """One successor-list mutation (component is always the tracker)."""
        self.seq += 1
        self._store(
            "group_update",
            {
                "kind": "group_update",
                "seq": self.seq,
                "component": "successors",
                "predecessor": predecessor,
                "successor": successor,
                "new": new,
                "size": size,
            },
        )

    # -- reading back ------------------------------------------------------
    def __len__(self) -> int:
        return len(self._ring)

    def records(self, kind: Optional[str] = None) -> List[Dict[str, Any]]:
        """Retained ring records, oldest first (optionally one kind)."""
        if kind is None:
            return list(self._ring)
        return [record for record in self._ring if record["kind"] == kind]

    def components(self) -> List[str]:
        """Components with provenance state, in first-seen order."""
        return list(self._provenance)

    def component_summary(self, component: str) -> Dict[str, Any]:
        """Exact provenance accounting for one cache component."""
        table = self._provenance.get(component)
        if table is None:
            raise ObservabilityError(
                f"no trace records for component {component!r} "
                f"(saw: {', '.join(self._provenance) or 'none'})"
            )
        return {
            "component": component,
            "opens": table.opens,
            "hits": table.hits,
            "misses": table.misses,
            "demand_fetches": table.demand_fetches,
            "group_installs": table.group_installs,
            "group_used": table.group_used,
            "group_evicted_unused": table.group_evicted_unused,
            "group_resident_unused": table.group_resident_unused,
            "prefetch_efficiency": table.prefetch_efficiency,
            "wasted_fetch_share": table.wasted_fetch_share,
            "evictions_by_cause": dict(table.evictions_by_cause),
        }

    def summary(self) -> List[Dict[str, Any]]:
        """One :meth:`component_summary` per component, first-seen order."""
        return [self.component_summary(name) for name in self._provenance]

    def eviction_causes(self) -> Dict[str, int]:
        """Eviction counts by cause, summed across components."""
        totals: _CounterDict = _CounterDict()
        for table in self._provenance.values():
            totals.update(table.evictions_by_cause)
        return dict(totals)

    def top_wasteful_groups(
        self, top: int = 10, component: Optional[str] = None
    ) -> List[Tuple[str, int, int]]:
        """Group leaders whose prefetches wasted the most cache space.

        Returns ``(leader, wasted_installs, total_installs)`` tuples,
        most wasteful first.  A "group" is identified by its demanded
        (leader) file because groups are built dynamically — the leader
        is the stable name for "what we prefetched on behalf of".
        """
        waste: _CounterDict = _CounterDict()
        installs: _CounterDict = _CounterDict()
        tables = (
            [self._provenance[component]]
            if component is not None and component in self._provenance
            else list(self._provenance.values())
        )
        for table in tables:
            waste.update(table.leader_waste)
            installs.update(table.leader_installs)
        ranked = sorted(waste.items(), key=lambda item: (-item[1], item[0]))
        return [
            (leader, wasted, installs[leader]) for leader, wasted in ranked[:top]
        ]

    def explain_file(self, file_id: str, at: Optional[int] = None) -> str:
        """Narrate the retained history of one file (optionally near seq
        ``at``): every open, install, and eviction, with causes — the
        "why was file X a miss at event N" answer, limited to what the
        ring buffer still holds."""
        history = [
            record
            for record in self._ring
            if record.get("file") == file_id
            or record.get("demanded") == file_id
            or file_id in record.get("installed", ())
        ]
        if not history:
            return (
                f"{file_id}: no retained trace records (never touched, or "
                f"rotated out of the ring buffer; capacity={self.capacity}, "
                f"sample={self.sample})"
            )
        lines = [f"history of {file_id} ({len(history)} retained records):"]
        departures: Dict[str, str] = {}
        for record in history:
            seq = record["seq"]
            marker = " <-- event of interest" if at is not None and seq == at else ""
            kind = record["kind"]
            if kind == "open":
                if record["hit"]:
                    lines.append(
                        f"  seq {seq:>8}  open HIT at {record['component']} "
                        f"(resident set {record['resident']}){marker}"
                    )
                else:
                    why = departures.pop(
                        record["component"], "first demand for this file here"
                    )
                    lines.append(
                        f"  seq {seq:>8}  open MISS at {record['component']} "
                        f"({why}){marker}"
                    )
            elif kind == "demand_fetch":
                lines.append(
                    f"  seq {seq:>8}  demand-fetched into "
                    f"{record['component']}{marker}"
                )
            elif kind == "group_fetch":
                if record["demanded"] == file_id:
                    lines.append(
                        f"  seq {seq:>8}  led group {record['group']} "
                        f"(size {record['size']}, installed "
                        f"{len(record['installed'])}, skipped "
                        f"{len(record['skipped'])}){marker}"
                    )
                else:
                    lines.append(
                        f"  seq {seq:>8}  prefetched into {record['component']} "
                        f"by group {record['group']} "
                        f"(leader {record['demanded']}){marker}"
                    )
            elif kind == "evict":
                waste = (
                    ", never used — a wasted prefetch"
                    if record["origin"] == "group" and not record["used"]
                    else ""
                )
                age = record["age"]
                age_text = f"after {age} trace events" if age is not None else "age unknown"
                lines.append(
                    f"  seq {seq:>8}  evicted from {record['component']} "
                    f"(cause {record['cause']}, {age_text}{waste}){marker}"
                )
                if record["file"] == file_id:
                    departures[record["component"]] = (
                        f"evicted at seq {seq}, cause {record['cause']}"
                    )
        return "\n".join(lines)


# -- activation -------------------------------------------------------------


def active() -> Optional[FlightRecorder]:
    """The recorder instrumentation currently emits into, or None."""
    return ACTIVE


def set_recorder(recorder: Optional[FlightRecorder]) -> Optional[FlightRecorder]:
    """Swap the active recorder; returns the previous one."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = recorder
    return previous


@contextmanager
def recording(
    recorder: Optional[FlightRecorder] = None,
    registry: Optional["_registry.MetricsRegistry"] = None,
    capacity: int = 65536,
    sample: int = 1,
) -> Iterator[FlightRecorder]:
    """Activate a flight recorder (and metric collection) for a block.

    Tracing rides the same master switch as the metrics layer, so this
    also enables collection — into ``registry`` or a fresh throwaway
    one — and restores both the recorder and the collection state on
    exit.  The fused replay fast loops detect the active recorder and
    take the generic path for the duration; counts are identical.
    """
    target = recorder if recorder is not None else FlightRecorder(capacity, sample)
    previous = set_recorder(target)
    try:
        with _registry.collecting(registry):
            yield target
    finally:
        set_recorder(previous)


# -- export / import --------------------------------------------------------


def trace_records(
    recorder: FlightRecorder, meta: Optional[Dict[str, Any]] = None
) -> List[Dict[str, Any]]:
    """The recorder's retained ring as JSON-ready records, meta first.

    The meta line carries the schema tag plus the recorder's exact
    accounting (per-kind emitted counts, sampling/ring knobs, drops),
    so a reader always knows how much the ring under-reports.
    """
    accounting = {
        "capacity": recorder.capacity,
        "sample": recorder.sample,
        "emitted": dict(recorder.emitted),
        "retained": len(recorder),
        "sampled_out": recorder.sampled_out,
        "ring_dropped": recorder.ring_dropped,
    }
    return [meta_record(TRACE_SCHEMA, accounting, meta)] + recorder.records()


def write_trace_jsonl(
    recorder: FlightRecorder,
    path: Pathish,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the retained trace to ``path`` as JSONL; returns lines."""
    return write_records(path, trace_records(recorder, meta))


def validate_record(record: Dict[str, Any], source: str = "<record>") -> None:
    """Check one ring record against the ``repro.trace/1`` vocabulary."""
    kind = record.get("kind")
    if not isinstance(kind, str) or kind not in RECORD_FIELDS:
        raise ObservabilityError(
            f"{source}: unknown trace record kind {kind!r} "
            f"(expected one of: {', '.join(sorted(RECORD_FIELDS))})"
        )
    if not isinstance(record.get("seq"), int):
        raise ObservabilityError(f"{source}: {kind} record missing integer 'seq'")
    if not isinstance(record.get("component"), str):
        raise ObservabilityError(f"{source}: {kind} record missing 'component'")
    missing = [field for field in RECORD_FIELDS[kind] if field not in record]
    if missing:
        raise ObservabilityError(
            f"{source}: {kind} record missing fields: {', '.join(missing)}"
        )


def load_trace_jsonl(path: Pathish) -> Dict[str, Any]:
    """Read and validate an exported trace.

    Returns ``{"meta": ..., "records": [...]}`` with every record
    checked against the schema, so a loaded trace is safe to feed
    straight into analysis code.
    """
    meta, records = read_records(path, TRACE_SCHEMA, validate_record)
    return {"meta": meta, "records": records}


def chrome_payload(
    events: Sequence[Dict[str, Any]],
    other: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Wrap trace events in the Chrome trace-event JSON envelope.

    The shared writer behind both the flight recorder's export and
    the span analyzer's multi-process timeline
    (:func:`repro.obs.spans.spans_chrome_trace`): one envelope shape
    means anything the repository emits loads in ``about:tracing`` and
    Perfetto the same way.
    """
    return {
        "traceEvents": list(events),
        "displayTimeUnit": "ms",
        "otherData": dict(other or {}),
    }


def write_chrome_json(payload: Dict[str, Any], path: Pathish) -> int:
    """Write a Chrome trace-event payload; returns the event count."""
    target = Path(path)
    if target.parent and not target.parent.exists():
        target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(payload), encoding="utf-8")
    return len(payload["traceEvents"])


def chrome_trace(
    recorder: FlightRecorder, meta: Optional[Dict[str, Any]] = None
) -> Dict[str, Any]:
    """The retained trace as a Chrome trace-event JSON object.

    Loadable in ``about:tracing`` and Perfetto: each record becomes an
    instant event on a per-component track (``tid``), with the global
    sequence number standing in for the timestamp — the replay model
    has no clock, so causal order *is* time.
    """
    tids: Dict[str, int] = {}
    events: List[Dict[str, Any]] = []
    for record in recorder.records():
        component = record["component"]
        tid = tids.get(component)
        if tid is None:
            tid = len(tids) + 1
            tids[component] = tid
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": 1,
                    "tid": tid,
                    "args": {"name": component},
                }
            )
        events.append(
            {
                "name": record["kind"],
                "ph": "i",
                "s": "t",
                "ts": record["seq"],
                "pid": 1,
                "tid": tid,
                "args": {
                    key: value
                    for key, value in record.items()
                    if key not in ("kind", "seq", "component")
                },
            }
        )
    other: Dict[str, Any] = {"schema": TRACE_SCHEMA}
    if meta:
        other.update(meta)
    return chrome_payload(events, other)


def write_chrome_trace(
    recorder: FlightRecorder,
    path: Pathish,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the Chrome trace-event export; returns the event count."""
    return write_chrome_json(chrome_trace(recorder, meta), path)
