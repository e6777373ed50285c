"""Wire schema for the aggregating-cache daemon: ``repro.serve/1``.

One place defines what travels between ``repro serve``, ``repro
slam``, and ``scripts/smoke.py``: endpoint paths, request
payload validation, and the JSON error shape.  Keeping the vocabulary
here (rather than inline in the handler) means the daemon, the load
driver, and the CI checker parse and emit exactly the same records —
the same discipline the ``repro.ts/1`` and ``repro.trace/1`` exports
follow.

The API is deliberately tiny; every body is a single JSON object:

``POST /open``
    ``{"file": str, "client": str?}`` — one file open.  Response:
    ``{"hit": bool, "group": [str, ...], "installed": int, "seq": int}``
    where ``group`` is the whole shipped group (demanded file first)
    on a miss and ``[]`` on a hit, and ``seq`` is the daemon's global
    access sequence number.

``POST /fetch``
    ``{"files": [str, ...], "client": str?, "detail": bool?}`` — a
    batch of opens processed in order under one lock acquisition (the
    load path).  Response: ``{"count": int, "hits": int, "misses":
    int, "seq": int}`` plus ``"results": [bool, ...]`` when ``detail``
    is true.

``POST /invalidate``
    ``{"file": str}`` — drop one file (a callback break).  Responds
    404 when the file is not resident, with the structured error body.

``GET /stats`` / ``GET /metrics`` / ``GET /journal`` / ``GET /healthz``
    Read-only views: a JSON counter snapshot, Prometheus text, the
    recorded access order (``{"encoding": 2, "entries": [str, ...],
    "total": int, "truncated": bool}``, entries as
    :func:`journal_entry` encodes them), and a liveness probe.

``POST /shutdown``
    Ask the daemon to exit its serve loop cleanly (used by scripted
    runs; disable per scenario for anything long-lived).

Errors are always ``{"error": str, "status": int}`` with the matching
HTTP status: 400 malformed body or ``Content-Length``, 404 unknown path
or unknown file, 405 wrong method, 413 oversized body.  Framing errors
(:mod:`repro.obs.host`) use the same body: 400, 414, 431, 501 or 505.

Request tracing rides the same wire: a client that wants a request
traced sends ``X-Repro-Trace: <trace_id>:<span_id>`` (see
:data:`TRACE_HEADER` and :mod:`repro.obs.spans`); the daemon joins the
trace, echoes the header on the response, and exports its spans as
``repro.span/1`` JSONL.  A malformed header is ignored — tracing can
never fail a request.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Tuple

from ..obs.export import TS_SCHEMA
from ..obs.host import WireError, error_body
from ..obs.spans import SPAN_SCHEMA, TRACE_HEADER

__all__ = [
    "SERVE_SCHEMA",
    "SLAM_SCHEMA",
    "SPAN_SCHEMA",
    "TRACE_HEADER",
    "TS_SCHEMA",
    "MAX_BODY_BYTES",
    "MAX_BATCH",
    "WireError",
    "error_body",
    "parse_content_length",
    "parse_body",
    "parse_open",
    "parse_fetch",
    "parse_invalidate",
    "parse_since",
    "validate_stats",
    "validate_telemetry",
    "JOURNAL_ENCODING",
    "journal_entry",
    "decode_journal_entry",
    "replay_journal",
    "slam_report_payload",
]

#: Schema tag carried by ``/stats`` payloads and slam reports.
SERVE_SCHEMA = "repro.serve/1"

#: Schema tag of the slam latency report JSON.
SLAM_SCHEMA = "repro.slam/1"

#: Bodies beyond this are rejected with 413 before parsing: the
#: largest legitimate request is a slam batch of a few thousand file
#: ids, far below this bound.
MAX_BODY_BYTES = 8 * 1024 * 1024

#: Largest accepted ``files`` batch in one ``/fetch`` request.
MAX_BATCH = 65536

#: The ``/journal`` payload's ``encoding``: 2 escapes an access to an id
#: starting with the invalidation marker, which version 1 (untagged)
#: replayed as an invalidation.
JOURNAL_ENCODING = 2
_INVALIDATE, _ESCAPE = "!", "\\"


def parse_content_length(value: Optional[str]) -> int:
    """A ``Content-Length`` header as a byte count, or raise :class:`WireError`.

    Only ASCII digits are a length: a sign, a blank or any other text
    leaves the body unframed, which is a 400.  A missing header is 0.
    """
    if value is None:
        return 0
    text = value.strip()
    if not (text.isascii() and text.isdigit()):
        raise WireError(f"Content-Length must be a non-negative integer, got {value!r}")
    return int(text)


def parse_body(raw: bytes, source: str = "request") -> Dict[str, Any]:
    """Decode one JSON-object request body or raise :class:`WireError`."""
    if len(raw) > MAX_BODY_BYTES:
        raise WireError(
            f"{source}: body of {len(raw)} bytes exceeds {MAX_BODY_BYTES}",
            status=413,
        )
    if not raw:
        raise WireError(f"{source}: empty body (expected a JSON object)")
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireError(f"{source}: body is not valid JSON ({error})")
    except RecursionError:
        raise WireError(f"{source}: body is nested too deeply to decode")
    if not isinstance(payload, dict):
        raise WireError(
            f"{source}: body must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def _file_id(value: Any, field: str) -> str:
    if not isinstance(value, str) or not value:
        raise WireError(
            f"field {field!r} must be a non-empty string, got {value!r}"
        )
    return value


def parse_open(payload: Mapping[str, Any]) -> Tuple[str, str]:
    """Validate an ``/open`` body; returns ``(file_id, client_id)``."""
    if "file" not in payload:
        raise WireError("open request is missing required field 'file'")
    file_id = _file_id(payload["file"], "file")
    client = payload.get("client", "client00")
    if not isinstance(client, str):
        raise WireError(f"field 'client' must be a string, got {client!r}")
    return file_id, client or "client00"


def parse_fetch(payload: Mapping[str, Any]) -> Tuple[List[str], str, bool]:
    """Validate a ``/fetch`` body; returns ``(files, client, detail)``."""
    files = payload.get("files")
    if not isinstance(files, list) or not files:
        raise WireError(
            "fetch request needs a non-empty 'files' list of file ids"
        )
    if len(files) > MAX_BATCH:
        raise WireError(
            f"fetch batch of {len(files)} exceeds {MAX_BATCH}", status=413
        )
    validated = [_file_id(item, "files[]") for item in files]
    client = payload.get("client", "client00")
    if not isinstance(client, str):
        raise WireError(f"field 'client' must be a string, got {client!r}")
    detail = payload.get("detail", False)
    if not isinstance(detail, bool):
        raise WireError(f"field 'detail' must be a boolean, got {detail!r}")
    return validated, client or "client00", detail


def parse_invalidate(payload: Mapping[str, Any]) -> str:
    """Validate an ``/invalidate`` body; returns the file id."""
    if "file" not in payload:
        raise WireError("invalidate request is missing required field 'file'")
    return _file_id(payload["file"], "file")


def parse_since(query: str) -> Optional[int]:
    """Parse the ``since`` cursor from a ``/stats`` query string.

    Returns None when the query carries no ``since`` parameter (the
    full retained window history is wanted).  Unknown parameters are
    ignored — a future poller may send more than this daemon knows —
    but a malformed ``since`` is a 400, not a silent full download.
    """
    if not query:
        return None
    from urllib.parse import parse_qs

    values = parse_qs(query, keep_blank_values=True).get("since")
    if not values:
        return None
    raw = values[-1]
    try:
        since = int(raw)
    except ValueError:
        raise WireError(
            f"query parameter 'since' must be an integer, got {raw!r}"
        )
    if since < 0:
        raise WireError(
            f"query parameter 'since' must be >= 0, got {since}"
        )
    return since


def validate_telemetry(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Check a ``/stats`` ``telemetry`` section carries the contract.

    Used by :class:`repro.obs.live.StatsStream` so a poller attached to
    a pre-telemetry daemon (or a non-repro server) fails with a clear
    message instead of an attribute error three layers down.
    """
    telemetry = payload.get("telemetry")
    if not isinstance(telemetry, dict):
        raise WireError(
            "stats payload has no 'telemetry' section — daemon predates "
            "windowed telemetry (repro.serve/1 with repro.ts/1 windows)"
        )
    if telemetry.get("schema") != TS_SCHEMA:
        raise WireError(
            f"telemetry section has schema {telemetry.get('schema')!r}, "
            f"expected {TS_SCHEMA}"
        )
    for field in ("seq", "windows", "retained", "dropped"):
        if field not in telemetry:
            raise WireError(f"telemetry section is missing {field!r}")
    if not isinstance(telemetry["seq"], int) or telemetry["seq"] < 0:
        raise WireError(
            f"telemetry seq must be a non-negative integer, "
            f"got {telemetry['seq']!r}"
        )
    if not isinstance(telemetry["windows"], list):
        raise WireError("telemetry windows must be a list of sample objects")
    return dict(telemetry)


def validate_stats(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """Check a ``/stats`` response carries the contract fields.

    Used by the slam driver and ``scripts/smoke.py`` so a daemon/driver
    version skew fails loudly instead of producing a nonsense report.
    """
    if payload.get("schema") != SERVE_SCHEMA:
        raise WireError(
            f"stats payload has schema {payload.get('schema')!r}, "
            f"expected {SERVE_SCHEMA}"
        )
    cache = payload.get("cache")
    if not isinstance(cache, dict):
        raise WireError("stats payload is missing the 'cache' object")
    for field in ("hits", "misses", "hit_ratio", "group_fetches"):
        if field not in cache:
            raise WireError(f"stats cache object is missing {field!r}")
    return dict(payload)


def journal_entry(file_id: str, invalidate: bool = False) -> str:
    """Encode one journal entry (encoding 2).

    An invalidation is ``!`` followed by the id.  An access is the id
    itself, unless the id starts with ``!`` or ``\\``: then a ``\\`` goes
    in front.  Every entry decodes to one ``(id, kind)``, and an access
    to an id that starts with neither character keeps its bytes.
    """
    if invalidate:
        return _INVALIDATE + file_id
    if file_id.startswith((_INVALIDATE, _ESCAPE)):
        return _ESCAPE + file_id
    return file_id


def decode_journal_entry(entry: str) -> Tuple[str, bool]:
    """Decode a journal entry to ``(file_id, is_invalidation)``."""
    if entry.startswith(_INVALIDATE):
        return entry[1:], True
    if entry.startswith(_ESCAPE):
        return entry[1:], False
    return entry, False


def replay_journal(cache, entries) -> None:
    """Drive a cache through a recorded journal, in order.

    The daemon journals every state-changing touch of the shared cache
    (accesses and invalidations) in arrival order, so replaying the
    journal through a fresh, identically-configured cache reproduces
    the served hit/miss counts exactly — that equality is the core
    assertion of the ``serve`` smoke check.
    """
    access = cache.access
    invalidate = cache.invalidate
    for entry in entries:
        file_id, inv = decode_journal_entry(entry)
        if inv:
            invalidate(file_id)
        else:
            access(file_id)


def slam_report_payload(report: Mapping[str, Any]) -> Dict[str, Any]:
    """Wrap a slam report dict with its schema tag."""
    payload: Dict[str, Any] = {"schema": SLAM_SCHEMA}
    payload.update(report)
    return payload
