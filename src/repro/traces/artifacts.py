"""On-disk trace artifact cache.

Synthetic trace generation is deterministic but not free — at figure
scale (60k events × four workloads) it dominates CLI start-up, and every
sweep worker process regenerates the same traces from scratch.  This
module persists generated traces keyed by everything that determines
their content:

* workload name,
* event count,
* seed (or the workload's default),
* the workload generator version tag
  (:data:`repro.workloads.synthetic.GENERATOR_VERSION`) — bumping it
  invalidates every cached artifact, so generator changes can never
  serve stale traces.

Artifacts are **columnar binary** (:mod:`repro.traces.columnar`,
``.ctrace``): loads are an mmap plus a header parse instead of a gzip +
text decode, sweep workers opening the same artifact share the page
cache, and the replay kernel consumes the columns directly.  The
gzipped text format stays an interchange format only; the cache never
reads or writes it.

The cache directory resolves, in order, from the ``REPRO_TRACE_CACHE``
environment variable (set it to ``off``, ``0``, or the empty string to
disable caching entirely), falling back to ``~/.cache/repro/traces``.
Corrupt or unreadable artifacts are regenerated and rewritten, never
trusted: columnar loads validate the magic/version header, the declared
column geometry against the file size, and the event count against the
request.  This complements the in-process ``lru_cache`` in
``repro.experiments.common``: that one makes repeat replays within a
process free, this one makes repeat *processes* (CLI runs, benchmark
invocations, sweep workers) skip generation.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Optional

from .columnar import (
    SUFFIX as COLUMNAR_SUFFIX,
    ColumnarTrace,
    read_columnar,
    write_columnar,
)
from .events import Trace

#: Environment variable naming (or disabling) the artifact directory.
CACHE_ENV_VAR = "REPRO_TRACE_CACHE"

#: Values of the env var that turn the disk cache off.
_DISABLED_VALUES = {"", "0", "off", "none", "disabled"}


def cache_dir() -> Optional[Path]:
    """The artifact directory, or None when the cache is disabled."""
    configured = os.environ.get(CACHE_ENV_VAR)
    if configured is not None:
        if configured.strip().lower() in _DISABLED_VALUES:
            return None
        return Path(configured)
    return Path.home() / ".cache" / "repro" / "traces"


def _artifact_stem(
    name: str, events: int, seed: Optional[int], version: int
) -> str:
    seed_tag = "default" if seed is None else str(seed)
    return f"{name}-e{events}-s{seed_tag}-v{version}"


def artifact_path(
    name: str, events: int, seed: Optional[int], version: int
) -> Optional[Path]:
    """Where the artifact for one workload request lives (None = disabled).

    Points at the columnar (``.ctrace``) artifact — the format every
    cache write uses.
    """
    base = cache_dir()
    if base is None:
        return None
    return base / (_artifact_stem(name, events, seed, version) + COLUMNAR_SUFFIX)


def load_columnar_artifact(
    path: Path, expected_events: int
) -> Optional[ColumnarTrace]:
    """Read a cached columnar trace, returning None on any problem.

    The read validates magic, format version, and the header's declared
    geometry against the file size (:func:`repro.traces.columnar.read_columnar`
    raises on all of them); any failure — or an event count that
    disagrees with the request — rejects the artifact so the caller
    regenerates.  Never trusted, always verified.
    """
    try:
        ctrace = read_columnar(path)
    except Exception:
        return None
    if len(ctrace) != expected_events:
        return None
    return ctrace


def store_columnar_artifact(path: Path, trace) -> bool:
    """Write a columnar artifact atomically; returns False on any failure.

    ``trace`` may be a :class:`~repro.traces.events.Trace` or an already
    encoded :class:`~repro.traces.columnar.ColumnarTrace`.  Failure to
    persist (read-only filesystem, quota) is never an error: the cache
    is a pure accelerator.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        write_columnar(trace, path)
    except OSError:
        return False
    return True


def load_or_generate_columnar(
    name: str, events: int, seed: Optional[int] = None
) -> ColumnarTrace:
    """Return the named workload as a columnar trace, disk-backed if possible.

    A valid ``.ctrace`` artifact is returned mmap-backed, zero-copy;
    otherwise the trace is generated via
    :func:`repro.workloads.synthetic.make_workload` and stored columnar
    for the next process.

    Whenever the columnar file lands on disk the returned trace is
    re-opened from it, so concurrent sweep workers share its pages
    through the OS page cache instead of each holding a private copy.
    """
    from ..workloads.synthetic import GENERATOR_VERSION, make_workload

    path = artifact_path(name, events, seed, GENERATOR_VERSION)
    if path is not None and path.exists():
        cached = load_columnar_artifact(path, events)
        if cached is not None:
            return cached
    ctrace = ColumnarTrace.from_trace(make_workload(name, events, seed))
    if path is not None and store_columnar_artifact(path, ctrace):
        reopened = load_columnar_artifact(path, events)
        if reopened is not None:
            return reopened
    return ctrace


def load_or_generate(
    name: str, events: int, seed: Optional[int] = None
) -> Trace:
    """Return the named workload trace, serving from disk when possible.

    Event-object view of :func:`load_or_generate_columnar` — the cache
    behind it is columnar either way, and the decode round-trip is
    event-wise exact (``tests/test_columnar.py``).
    """
    return load_or_generate_columnar(name, events, seed).to_trace()
