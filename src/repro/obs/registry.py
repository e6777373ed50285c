"""Process-local metrics registry: counters, gauges, histograms.

The replay engine is a pure counting model, so its observability layer
must never become part of the model: metrics are collected *about* the
machinery (hit counters, group-size distributions, build latencies),
never consulted *by* it.  Three further constraints shape the design:

* **Near-zero overhead when disabled.**  Collection is off by default;
  every instrumentation site guards on the module-level :data:`ENABLED`
  flag, so a disabled run costs one global read per guarded block and
  allocates nothing.  The fused replay fast loops go further: they read
  the flag once before the loop and record *batched* totals after it,
  so the per-event hot path is untouched (asserted by the
  ``bench-smoke`` throughput gate).
* **Count-identical across replay paths.**  A metric recorded per event
  on the generic path and batched on the fast path must converge to the
  same totals; the equivalence tests in ``tests/test_obs.py`` hold both
  paths to that.
* **ns-precision timing at the edge only.**  Histograms carry a
  :meth:`Histogram.time` context manager over ``time.perf_counter_ns``
  for phase latencies (group builds, replay phases, sweep points);
  no clock value ever feeds back into simulation state.

:class:`Histogram` is :class:`repro.obs.quantiles.Histogram`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Dict, Iterator, Optional

from ..errors import ReproError
from .quantiles import Histogram

#: Master collection switch.  Instrumentation sites read this module
#: attribute directly (``if registry.ENABLED:``); flip it only through
#: :func:`enable` / :func:`disable` / :func:`collecting` so the default
#: registry stays consistent with the flag.
ENABLED = False


class ObservabilityError(ReproError):
    """Misuse of the metrics layer (bad names, conflicting kinds)."""


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (which must be >= 0) to the counter."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": "counter", "name": self.name, "value": self.value}


class Gauge:
    """A point-in-time value that may move in either direction."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def as_dict(self) -> Dict[str, Any]:
        return {"kind": "gauge", "name": self.name, "value": self.value}


class MetricsRegistry:
    """A process-local, get-or-create store of named metrics.

    Metric names are dotted paths (``engine.client.c00.hits``); the
    registry enforces one kind per name so a counter cannot silently
    shadow a histogram.  Registries are cheap; tests and the CLI use a
    fresh one per run via :func:`collecting`.
    """

    def __init__(self) -> None:
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, want: str) -> None:
        for kind, table in (
            ("counter", self.counters),
            ("gauge", self.gauges),
            ("histogram", self.histograms),
        ):
            if kind != want and name in table:
                raise ObservabilityError(
                    f"metric {name!r} is already registered as a {kind}"
                )

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        metric = self.counters.get(name)
        if metric is None:
            self._check_free(name, "counter")
            metric = Counter(name)
            self.counters[name] = metric
        return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        metric = self.gauges.get(name)
        if metric is None:
            self._check_free(name, "gauge")
            metric = Gauge(name)
            self.gauges[name] = metric
        return metric

    def histogram(self, name: str) -> Histogram:
        """Get or create the histogram ``name``."""
        metric = self.histograms.get(name)
        if metric is None:
            self._check_free(name, "histogram")
            metric = Histogram(name)
            self.histograms[name] = metric
        return metric

    def __len__(self) -> int:
        return len(self.counters) + len(self.gauges) + len(self.histograms)

    def reset(self) -> None:
        """Drop every registered metric."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()

    def snapshot(self) -> Dict[str, Any]:
        """JSON-ready state of every metric, names sorted within kinds."""
        return {
            "counters": {
                name: self.counters[name].value
                for name in sorted(self.counters)
            },
            "gauges": {
                name: self.gauges[name].value for name in sorted(self.gauges)
            },
            "histograms": {
                name: self.histograms[name].as_dict()
                for name in sorted(self.histograms)
            },
        }


#: The process-wide default registry instrumentation writes into.
_default_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The registry instrumentation currently records into."""
    return _default_registry


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the default registry; returns the previous one."""
    global _default_registry
    previous = _default_registry
    _default_registry = registry
    return previous


def enabled() -> bool:
    """Whether metric collection is currently on."""
    return ENABLED


def enable() -> None:
    """Turn metric collection on (instrumentation starts recording)."""
    global ENABLED
    ENABLED = True


def disable() -> None:
    """Turn metric collection off (instrumentation reverts to no-ops)."""
    global ENABLED
    ENABLED = False


@contextmanager
def collecting(
    registry: Optional[MetricsRegistry] = None,
) -> Iterator[MetricsRegistry]:
    """Enable collection into a fresh (or given) registry for a block.

    Restores both the previous registry and the previous enabled state
    on exit, so tests and CLI runs cannot leak collection into later
    code.
    """
    target = registry if registry is not None else MetricsRegistry()
    previous_registry = set_registry(target)
    previous_enabled = ENABLED
    enable()
    try:
        yield target
    finally:
        if not previous_enabled:
            disable()
        set_registry(previous_registry)
