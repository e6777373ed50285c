"""Windowed time-series telemetry: ``repro.ts/1``.

The registry answers *how many* at the end of a run and the flight
recorder answers *why this one*; this module answers *how the cache
behaves over time*.  A :class:`WindowedCollector` splits a replay into
fixed-size event windows and records one :class:`WindowSample` per
window — hit/miss ratio, prefetch efficiency, wasted-fetch share,
eviction rate, bytes fetched, replay throughput, and the window's
successor entropy (the paper's predictability metric, computed per
window so workload-phase shifts show up as entropy regime changes).

Design constraints, matching the rest of :mod:`repro.obs`:

* **Free when dormant.**  The replay engine reads one module attribute
  (:data:`ACTIVE`) per ``replay()`` *call* — never per event — so the
  strict ``check_bench.py`` dormant-overhead gate is unaffected.
* **Batched post-loop, never per event.**  The engine cuts windows:
  :meth:`DistributedFileSystem.replay <repro.sim.engine.DistributedFileSystem.replay>`
  replays each one through its unmodified loop and hands the collector
  the window's counter *deltas*; this module only samples
  (:meth:`WindowedCollector.record_window`).  Because every replay loop
  is count-identical, the windowed series is sample-identical whichever
  loop ran (asserted by ``tests/test_timeseries.py``).
* **Counter-derived ratios.**  Per-window ``prefetch_efficiency`` is
  the fraction of requested companion slots that produced an install
  (``installs / (remote_requests * (g - 1))``) and
  ``wasted_fetch_share`` is the *speculative* share of store traffic
  (companion fetches / all store fetches) — an upper bound on waste.
  The flight recorder remains the source of exact retrospective
  provenance; the time-series trades that for zero per-event cost.

Sweeps stream through the same collector: :func:`repro.sim.sweep.run_sweep`
emits one ``source="sweep"`` sample per completed grid point, collected
in the parent process, so parallel sweeps aggregate across workers with
no extra plumbing.

Exports: schema-tagged ``repro.ts/1`` JSONL (one meta line, one sample
per line), a Prometheus/OpenMetrics text rendering of the cumulative
counters plus latest-window gauges, and an optional ``/metrics``
endpoint (:class:`MetricsServer`, on :class:`repro.obs.host.HttpHost`)
for long-running runs.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from .export import (
    EXPOSITION_CONTENT_TYPE,
    TS_SCHEMA,
    Pathish,
    exposition,
    meta_record,
    read_records,
    write_records,
)
from .host import HttpHost, Request
from .registry import ObservabilityError

#: Sample fields that depend on wall-clock time.  Excluded from
#: :meth:`WindowSample.deterministic_dict`, which is what the fast ==
#: generic equivalence contract covers (throughput legitimately
#: differs between the two loops).
WALL_CLOCK_FIELDS = ("seconds", "events_per_sec")

#: (sample field, help text) for the cumulative counters:
#: :meth:`WindowedCollector.totals` sums them and :func:`prometheus_text`
#: exports them as ``<prefix>_<field>_total``.
_COUNTERS = (
    ("events", "replayed trace events"),
    ("hits", "client cache hits"),
    ("misses", "client cache misses"),
    ("remote_requests", "client misses forwarded to the server"),
    ("store_fetches", "files shipped from the backing store"),
    ("bytes_fetched", "store fetch volume (bytes_per_file proxy)"),
    ("group_installs", "companions installed by group fetches"),
    ("evictions", "cache evictions (client + server)"),
    ("invalidations", "entries dropped by mutations"),
)


@dataclass
class WindowSample:
    """One window's telemetry.

    ``source`` is ``"replay"`` (a window of trace events), ``"sweep"``
    (one completed grid point) or ``"serve"`` (one daemon telemetry
    window).  ``start`` is the first
    event index the window covers for replay samples, and the point's
    position within its sweep for sweep samples; ``index`` is the
    sample's global position within its source stream and is strictly
    increasing per collector.
    """

    source: str = "replay"
    index: int = 0
    start: int = 0
    events: int = 0
    seconds: float = 0.0
    hits: int = 0
    misses: int = 0
    remote_requests: int = 0
    store_fetches: int = 0
    bytes_fetched: int = 0
    group_installs: int = 0
    companion_slots: int = 0
    speculative_fetches: int = 0
    evictions: int = 0
    invalidations: int = 0
    entropy: Optional[float] = None
    label: str = ""

    @property
    def hit_ratio(self) -> float:
        """Client hit fraction of this window's demand accesses."""
        accesses = self.hits + self.misses
        return self.hits / accesses if accesses else 0.0

    @property
    def eviction_rate(self) -> float:
        """Evictions per replayed event (client + server caches)."""
        return self.evictions / self.events if self.events else 0.0

    @property
    def events_per_sec(self) -> float:
        """Replay throughput over this window (wall clock)."""
        return self.events / self.seconds if self.seconds > 0 else 0.0

    @property
    def prefetch_efficiency(self) -> float:
        """Installed companions per requested companion slot.

        Group size ``g`` gives every remote request ``g - 1`` companion
        slots; slots lost to singleton builds, already-resident members,
        or capacity trims lower the ratio.  0.0 when the window had no
        slots (``g = 1`` or no misses).
        """
        return (
            self.group_installs / self.companion_slots
            if self.companion_slots
            else 0.0
        )

    @property
    def wasted_fetch_share(self) -> float:
        """Speculative share of this window's store traffic.

        Companion (prefetch) fetches over all store fetches — the
        traffic that *can* be wasted.  This is an upper bound on the
        exact wasted-bytes share the flight recorder computes
        retrospectively; demanded fetches are never wasted.
        """
        return (
            self.speculative_fetches / self.store_fetches
            if self.store_fetches
            else 0.0
        )

    def deterministic_dict(self) -> Dict[str, Any]:
        """Every field except wall-clock ones, for equivalence checks."""
        payload = self.to_dict()
        for key in WALL_CLOCK_FIELDS:
            payload.pop(key, None)
        return payload

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready record, derived ratios included for external tools."""
        return {
            "kind": "sample",
            "source": self.source,
            "index": self.index,
            "start": self.start,
            "events": self.events,
            "seconds": self.seconds,
            "hits": self.hits,
            "misses": self.misses,
            "hit_ratio": self.hit_ratio,
            "remote_requests": self.remote_requests,
            "store_fetches": self.store_fetches,
            "bytes_fetched": self.bytes_fetched,
            "group_installs": self.group_installs,
            "companion_slots": self.companion_slots,
            "speculative_fetches": self.speculative_fetches,
            "prefetch_efficiency": self.prefetch_efficiency,
            "wasted_fetch_share": self.wasted_fetch_share,
            "evictions": self.evictions,
            "eviction_rate": self.eviction_rate,
            "invalidations": self.invalidations,
            "entropy": self.entropy,
            "events_per_sec": self.events_per_sec,
            "label": self.label,
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "WindowSample":
        """Rebuild a sample from a ``to_dict`` record (derived keys ignored)."""
        return cls(
            source=record.get("source", "replay"),
            index=int(record.get("index", 0)),
            start=int(record.get("start", 0)),
            events=int(record.get("events", 0)),
            seconds=float(record.get("seconds", 0.0)),
            hits=int(record.get("hits", 0)),
            misses=int(record.get("misses", 0)),
            remote_requests=int(record.get("remote_requests", 0)),
            store_fetches=int(record.get("store_fetches", 0)),
            bytes_fetched=int(record.get("bytes_fetched", 0)),
            group_installs=int(record.get("group_installs", 0)),
            companion_slots=int(record.get("companion_slots", 0)),
            speculative_fetches=int(record.get("speculative_fetches", 0)),
            evictions=int(record.get("evictions", 0)),
            invalidations=int(record.get("invalidations", 0)),
            entropy=(
                float(record["entropy"])
                if record.get("entropy") is not None
                else None
            ),
            label=str(record.get("label", "")),
        )


class WindowedCollector:
    """Accumulates :class:`WindowSample` records for one run.

    Parameters
    ----------
    window:
        Events per replay window (the telemetry resolution).
    bytes_per_file:
        Byte weight of one store fetch.  The model ships whole files,
        so files are the byte proxy; 1 keeps ``bytes_fetched`` in file
        units, a mean file size turns it into approximate bytes.
    on_sample:
        Optional callback invoked with each appended sample — the live
        ``repro top`` dashboard and the ``/metrics`` endpoint hang off
        this hook.
    """

    def __init__(
        self,
        window: int = 2000,
        bytes_per_file: int = 1,
        on_sample: Optional[Callable[[WindowSample], None]] = None,
    ):
        if window < 1:
            raise ObservabilityError(f"window must be >= 1, got {window}")
        if bytes_per_file < 1:
            raise ObservabilityError(
                f"bytes_per_file must be >= 1, got {bytes_per_file}"
            )
        self.window = window
        self.bytes_per_file = bytes_per_file
        self.on_sample = on_sample
        self.samples: List[WindowSample] = []
        # Source-stream cursors: replay starts accumulate across
        # successive replays into one collector so exported series keep
        # strictly monotone starts; sweep points count globally.
        self._replay_windows = 0
        self._replay_events = 0
        self._sweep_points = 0

    def __len__(self) -> int:
        return len(self.samples)

    def append(self, sample: WindowSample) -> None:
        """Record one sample and fan it out to ``on_sample``."""
        self.samples.append(sample)
        if self.on_sample is not None:
            self.on_sample(sample)

    def record_point(
        self,
        index: int,
        params: Mapping[str, Any],
        measured: Mapping[str, Any],
        seconds: float,
    ) -> WindowSample:
        """Record one completed sweep point as a ``source="sweep"`` sample.

        Called by the sweep runner in the *parent* process for both the
        serial and the process-pool paths, so parallel sweeps aggregate
        across workers by construction.  ``events`` is taken from the
        measured record when the point reports it.
        """
        events = measured.get("events", 0)
        sample = WindowSample(
            source="sweep",
            index=self._sweep_points,
            start=index,
            events=int(events) if isinstance(events, (int, float)) else 0,
            seconds=seconds,
            label=",".join(f"{key}={value}" for key, value in params.items()),
        )
        self._sweep_points += 1
        self.append(sample)
        return sample

    def record_window(
        self,
        system,
        count: int,
        file_ids: Sequence[Any],
        deltas: Tuple,
        seconds: float,
    ) -> WindowSample:
        """Record one replay window as a ``source="replay"`` sample.

        Called by the replay engine after each window of ``count``
        events.  ``deltas`` is the window's counter movement in the
        engine's snapshot shape: per-client and server-cache (hits,
        misses, evictions, installs), then store fetches and remote
        requests.  ``file_ids`` is the window's access sequence (strings
        or columnar codes — entropy only cares about the successor
        distribution).  Index and start continue across successive
        replays, so an exported series keeps strictly monotone starts.
        """
        clients, server, store_fetches, remote_requests = deltas
        hits, misses, evictions, installs = (
            sum(column) for column in zip((0, 0, 0, 0), *clients.values())
        )
        # A demanded file hits the store only on a server-cache miss (with
        # no server cache, every remote request reaches the store); the
        # rest of the store traffic is speculative companion shipping.
        demanded = server[1] if system.server_cache is not None else remote_requests
        sample = WindowSample(
            source="replay",
            index=self._replay_windows,
            start=self._replay_events,
            events=count,
            seconds=seconds,
            hits=hits,
            misses=misses,
            remote_requests=remote_requests,
            store_fetches=store_fetches,
            bytes_fetched=store_fetches * self.bytes_per_file,
            group_installs=installs,
            companion_slots=remote_requests * max(system.group_size - 1, 0),
            speculative_fetches=max(store_fetches - demanded, 0),
            evictions=evictions + server[2],
            entropy=_chunk_entropy(file_ids),
        )
        self._replay_windows += 1
        self._replay_events += count
        self.append(sample)
        return sample

    def replay_samples(self) -> List[WindowSample]:
        """The replay-source samples, in order."""
        return [s for s in self.samples if s.source == "replay"]

    def sweep_samples(self) -> List[WindowSample]:
        """The sweep-source samples, in order."""
        return [s for s in self.samples if s.source == "sweep"]

    def series(self, metric: str, source: str = "replay") -> List[float]:
        """One metric as a plain list (sparklines, drift detection).

        ``metric`` may be any sample field or derived property;
        ``entropy`` samples of short windows (``None``) are skipped.
        """
        values: List[float] = []
        for sample in self.samples:
            if sample.source != source:
                continue
            value = getattr(sample, metric)
            if value is None:
                continue
            values.append(float(value))
        return values

    def totals(self) -> Dict[str, int]:
        """Cumulative counters over every sample (both sources)."""
        return {
            name: sum(getattr(sample, name) for sample in self.samples)
            for name, _ in _COUNTERS
        }


#: The collector windowed replays and sweeps currently stream into.
#: Read once per replay/sweep *call* (never per event), so the dormant
#: cost is one module attribute load.
ACTIVE: Optional[WindowedCollector] = None


def get_collector() -> Optional[WindowedCollector]:
    """The active collector, or None when windowing is off."""
    return ACTIVE


def set_collector(
    collector: Optional[WindowedCollector],
) -> Optional[WindowedCollector]:
    """Swap the active collector; returns the previous one."""
    global ACTIVE
    previous = ACTIVE
    ACTIVE = collector
    return previous


@contextmanager
def windowing(
    window: int = 2000,
    collector: Optional[WindowedCollector] = None,
) -> Iterator[WindowedCollector]:
    """Activate windowed telemetry for a block.

    Replays and sweeps inside the block stream samples into the yielded
    collector (``collector``, or a fresh ``window``-event one); the
    previous collector (usually None) is restored on exit.  Windowing
    is independent of the metrics master switch — it changes how the
    replay is *driven* (chunk by chunk), not what the per-event loops
    do, so it composes with :func:`repro.obs.collecting` and
    :func:`repro.obs.tracing.recording` freely.
    """
    target = collector if collector is not None else WindowedCollector(window)
    previous = set_collector(target)
    try:
        yield target
    finally:
        set_collector(previous)


# -- window entropy -----------------------------------------------------------


def _chunk_entropy(file_ids: Sequence[Any]) -> Optional[float]:
    """Successor entropy of one window, via the predictability tooling."""
    if len(file_ids) < 2:
        return None
    # Deferred: keeps repro.obs import-light (analysis pulls in the
    # charting stack) and avoids any import-order coupling.
    from ..analysis.predictability import entropy_timeline

    samples = entropy_timeline(file_ids, window=len(file_ids))
    return samples[0][1] if samples else None


# -- JSONL export / import --------------------------------------------------


def ts_records(
    collector: WindowedCollector, meta: Optional[Dict[str, Any]] = None
) -> List[Dict[str, Any]]:
    """The collector's samples as JSON-ready records, meta line first."""
    shape = {
        "window": collector.window,
        "bytes_per_file": collector.bytes_per_file,
        "samples": len(collector.samples),
    }
    header = meta_record(TS_SCHEMA, shape, meta)
    return [header] + [sample.to_dict() for sample in collector.samples]


def write_ts_jsonl(
    collector: WindowedCollector,
    path: Pathish,
    meta: Optional[Dict[str, Any]] = None,
) -> int:
    """Write the series to ``path``; returns lines written."""
    return write_records(path, ts_records(collector, meta))


#: Numeric fields every sample record must carry.
_REQUIRED_SAMPLE_FIELDS = ("index", "start", "events", "hits", "misses")

#: Every numeric sample field.  :meth:`WindowSample.from_dict` converts
#: each with ``int`` or ``float``, so a present (or required) one must be
#: a finite number; ``entropy`` may also be null.
_NUMERIC_SAMPLE_FIELDS = tuple(
    spec.name for spec in fields(WindowSample) if spec.name not in ("source", "label")
)


def _finite(value: Any) -> bool:
    """True for a JSON number that converts to a finite float."""
    try:
        return isinstance(value, (int, float)) and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def validate_sample(record: Dict[str, Any], where: str = "<sample>") -> None:
    """Check one record against the ``repro.ts/1`` sample vocabulary."""
    kind = record.get("kind")
    if kind != "sample":
        raise ObservabilityError(f"{where}: unknown record kind {kind!r}")
    for name in _NUMERIC_SAMPLE_FIELDS:
        value = record.get(name, None if name in _REQUIRED_SAMPLE_FIELDS else 0)
        if not (_finite(value) or (value is None and name == "entropy")):
            raise ObservabilityError(
                f"{where}: sample needs a finite numeric {name!r}, got {value!r}"
            )
    if record.get("source") not in ("replay", "sweep", "serve"):
        raise ObservabilityError(
            f"{where}: unknown sample source {record.get('source')!r}"
        )


def load_ts_jsonl(path: Pathish) -> Dict[str, Any]:
    """Read a ``repro.ts/1`` export back.

    Returns ``{"meta": dict, "samples": [WindowSample, ...]}``; every
    line is validated against the schema vocabulary and malformed input
    raises :class:`ObservabilityError`.
    """
    meta, records = read_records(path, TS_SCHEMA, validate_sample)
    return {"meta": meta, "samples": [WindowSample.from_dict(r) for r in records]}


# -- Prometheus / OpenMetrics exporter --------------------------------------

#: (metric suffix, sample attribute, help text) for latest-window gauges.
_PROM_GAUGES = (
    ("hit_ratio", "hit_ratio", "Latest window client hit ratio"),
    ("events_per_second", "events_per_sec", "Latest window replay throughput"),
    ("entropy_bits", "entropy", "Latest window successor entropy"),
    (
        "prefetch_efficiency",
        "prefetch_efficiency",
        "Latest window installed companions per companion slot",
    ),
    (
        "wasted_fetch_share",
        "wasted_fetch_share",
        "Latest window speculative share of store fetches (upper bound on waste)",
    ),
    ("eviction_rate", "eviction_rate", "Latest window evictions per event"),
)


def prometheus_text(
    source: Union[WindowedCollector, Sequence[WindowSample]],
    prefix: str = "repro_ts",
) -> str:
    """Render the series in Prometheus/OpenMetrics text exposition format.

    Cumulative fields become ``<prefix>_<name>_total`` counters; the
    most recent replay sample's ratios become gauges.  Rendered by
    :func:`repro.obs.export.exposition`, the renderer the daemon's
    ``/metrics`` page shares.
    """
    samples = source.samples if isinstance(source, WindowedCollector) else list(source)
    rows = [
        (
            f"{prefix}_{name}_total",
            "counter",
            f"Cumulative {help_text}",
            sum(getattr(sample, name) for sample in samples),
        )
        for name, help_text in _COUNTERS
    ]
    rows.append(
        (f"{prefix}_windows_total", "counter", "Cumulative samples recorded", len(samples))
    )
    latest = next(
        (sample for sample in reversed(samples) if sample.source == "replay"),
        None,
    )
    if latest is not None:
        for name, attribute, help_text in _PROM_GAUGES:
            value = getattr(latest, attribute)
            if value is not None:
                rows.append((f"{prefix}_{name}", "gauge", help_text, float(value)))
        rows.append(
            (
                f"{prefix}_window_index",
                "gauge",
                "Index of the latest replay window",
                latest.index,
            )
        )
    return exposition(rows)


class MetricsServer(HttpHost):
    """A ``/metrics`` endpoint for long-running runs.

    Serves whatever ``render`` returns (typically
    ``lambda: prometheus_text(collector)``) from a daemon thread, so a
    Prometheus scraper can watch a multi-hour sweep live.  Any other
    path, and a ``POST``, gets a 404; the host answers any other method
    with a 501.

    The default port is **0** — the kernel picks a free one — and the
    bound address is read back into ``.host`` / ``.port`` / ``.url``
    after binding.  Tests and parallel CI legs must keep that default
    and dial the reported port instead of hard-coding one; two suites
    scraping fixed ports is exactly the flaky collision this contract
    eliminates (``repro.serve.CacheDaemon`` shares the same
    :class:`~repro.obs.host.HttpHost`).  ``close()`` is idempotent and
    the server is a context manager, so teardown paths can never leak
    the socket or double-shutdown.
    """

    def __init__(
        self,
        render: Callable[[], str],
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.render = render
        super().__init__(host, port, "repro-metrics")

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}/metrics"

    def _dispatch(self, request: Request) -> None:
        if request.method != "GET" or request.path.rstrip("/") not in ("", "/metrics"):
            # An unread POST body must not be parsed as the next request.
            request.close_connection = True
            request.respond(
                404, b"only GET /metrics is served\n", "text/plain; charset=utf-8"
            )
            return
        request.respond(200, self.render().encode("utf-8"), EXPOSITION_CONTENT_TYPE)


def serve_metrics(
    collector: WindowedCollector, host: str = "127.0.0.1", port: int = 0
) -> MetricsServer:
    """Start a daemon-thread ``/metrics`` endpoint for a collector."""
    return MetricsServer(lambda: prometheus_text(collector), host, port).start()
