"""The ``repro.*`` JSONL codec, the Prometheus exposition, and ``repro.obs/1``.

Every telemetry export in the repository is schema-tagged JSONL: a
``meta`` line carrying ``kind: "meta"`` and the schema tag comes first,
then one record per line, each a JSON object with sorted keys.  One
record per line keeps exports streamable and diff-friendly: a
monitoring pipeline (or plain ``grep``) can follow a growing file
without parsing a whole document.  :func:`meta_record` makes the meta
line, and :func:`write_records` and :func:`read_records` are the only
writer and reader of the framing; each schema contributes only its
records and a per-record check:

* ``repro.obs/1`` (:data:`SCHEMA`) — registry snapshots, here;
* ``repro.ts/1`` (:data:`TS_SCHEMA`) — windowed samples, in
  :mod:`repro.obs.timeseries`;
* ``repro.trace/1`` — flight-recorder decisions, in
  :mod:`repro.obs.tracing`;
* ``repro.span/1`` — request spans, in :mod:`repro.obs.spans`.

Every loader rejects, with :class:`ObservabilityError`, a line that is
not JSON, a line that is not a JSON object, a meta line with another
schema tag, a file with no meta line, and any record its schema's check
refuses.

:func:`exposition` is the one Prometheus text renderer: the replay
telemetry's ``/metrics`` page and the daemon's both hand it rows.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple, Union

from .registry import MetricsRegistry, ObservabilityError

#: Schema tag stamped on (and demanded from) every snapshot.
SCHEMA = "repro.obs/1"

#: Schema tag for windowed time-series exports (see ``obs.timeseries``).
TS_SCHEMA = "repro.ts/1"

Pathish = Union[str, Path]

Record = Dict[str, Any]


def meta_record(schema: str, *parts: Optional[Record]) -> Record:
    """The meta line of a ``schema`` export: the tag, then each part's keys."""
    header: Record = {"kind": "meta", "schema": schema}
    for part in parts:
        header.update(part or {})
    return header


def write_records(path: Pathish, records: Iterable[Record]) -> int:
    """Write one sorted-key JSON object per line to ``path``; returns lines."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    lines = 0
    with target.open("w", encoding="utf-8") as stream:
        for record in records:
            stream.write(json.dumps(record, sort_keys=True) + "\n")
            lines += 1
    return lines


def read_records(
    path: Pathish, schema: str, check: Callable[[Record, str], None]
) -> Tuple[Record, List[Record]]:
    """Decode a ``schema`` export into ``(meta, records)``.

    The meta line is checked against ``schema`` and returned without
    its ``kind``/``schema`` keys; every other line goes through
    ``check(record, where)``, which raises :class:`ObservabilityError`
    on a record outside the schema's vocabulary.
    """
    source = str(path)
    try:
        with Path(path).open("r", encoding="utf-8") as stream:
            lines = stream.readlines()
    except UnicodeDecodeError as error:
        raise ObservabilityError(f"{source}: not UTF-8 text ({error})")
    meta = None
    records: List[Record] = []
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        where = f"{source}:{number}"
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as error:
            raise ObservabilityError(f"{where}: not valid JSON ({error})")
        if not isinstance(record, dict):
            raise ObservabilityError(
                f"{where}: expected a JSON object, got {type(record).__name__}"
            )
        if record.get("kind") == "meta":
            if record.get("schema") != schema:
                raise ObservabilityError(
                    f"{where}: unsupported schema {record.get('schema')!r} "
                    f"(expected {schema})"
                )
            meta = {
                key: value
                for key, value in record.items()
                if key not in ("kind", "schema")
            }
            continue
        check(record, where)
        records.append(record)
    if meta is None:
        raise ObservabilityError(f"{source}: no {schema} meta line found")
    return meta, records


#: The ``Content-Type`` both ``/metrics`` pages are served with.
EXPOSITION_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def exposition(rows: Iterable[Tuple[str, str, str, Any]]) -> str:
    """Render ``(name, kind, help, value)`` rows as Prometheus text.

    Each row becomes a ``# HELP`` line (the help text plus a full
    stop), a ``# TYPE`` line and the sample; floats print as ``%.6g``,
    ints verbatim.  The page is scrape-ready for a stock Prometheus
    (text format 0.0.4) and ends with the ``# EOF`` marker strict
    OpenMetrics parsers want.
    """
    lines: List[str] = []
    for name, kind, help_text, value in rows:
        lines.append(f"# HELP {name} {help_text}.")
        lines.append(f"# TYPE {name} {kind}")
        lines.append(
            f"{name} {value:.6g}" if isinstance(value, float) else f"{name} {value}"
        )
    lines.append("# EOF")
    return "\n".join(lines) + "\n"


# -- repro.obs/1: registry snapshots ----------------------------------------


def snapshot_records(
    registry: MetricsRegistry, meta: Union[Dict[str, Any], None] = None
) -> List[Record]:
    """The registry as a list of JSON-ready records, meta line first."""
    records = [meta_record(SCHEMA, meta)]
    for table in (registry.counters, registry.gauges, registry.histograms):
        records.extend(table[name].as_dict() for name in sorted(table))
    return records


def validate_metric(record: Record, where: str = "<metric>") -> None:
    """Check one record against the ``repro.obs/1`` vocabulary."""
    kind = record.get("kind")
    if kind not in ("counter", "gauge", "histogram"):
        raise ObservabilityError(f"{where}: unknown record kind {kind!r}")
    if not isinstance(record.get("name"), str):
        raise ObservabilityError(f"{where}: {kind} record missing string 'name'")
    if kind != "histogram" and not isinstance(record.get("value"), (int, float)):
        raise ObservabilityError(f"{where}: {kind} record missing numeric 'value'")


def write_jsonl(
    registry: MetricsRegistry,
    path: Pathish,
    meta: Union[Dict[str, Any], None] = None,
) -> int:
    """Write one snapshot to ``path``; returns lines written."""
    return write_records(path, snapshot_records(registry, meta))


def load_jsonl(path: Pathish) -> Dict[str, Any]:
    """Read a snapshot back into plain dicts.

    Returns ``{"meta": ..., "counters": {name: value}, "gauges": ...,
    "histograms": {name: summary}}`` — the same shapes
    :meth:`MetricsRegistry.snapshot` produces (plus meta), so a
    write/load round trip is directly comparable.
    """
    meta, records = read_records(path, SCHEMA, validate_metric)
    snapshot: Dict[str, Any] = {
        "meta": meta,
        "counters": {},
        "gauges": {},
        "histograms": {},
    }
    for record in records:
        if record["kind"] == "histogram":
            snapshot["histograms"][record["name"]] = {
                key: value
                for key, value in record.items()
                if key not in ("kind", "name")
            }
        else:
            snapshot[record["kind"] + "s"][record["name"]] = record["value"]
    return snapshot
