"""Traced runs: self-time of the calls into each layer's public functions.

The benchmark times the program from outside: :func:`patched` swaps a
layer's public function (a module function, a method or a classmethod)
for a timing wrapper for the duration of a block and restores it after.
Nested wrapped calls are subtracted from their caller, so each key gets
its *self* time: ``DistributedFileSystem.replay`` minus the kernel calls
it makes is the engine's dispatch time.  Untraced runs enter
:func:`patched` only during set-up, whose steps it brackets with the
drift reference (:mod:`inputs`); their timed work runs the program
unmodified.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterable, Iterator, List, Tuple, Union

#: A fixed layer key, or a function of the call's arguments giving one.
Key = Union[str, Callable[..., str]]


class LayerClock:
    """Accumulates self time per layer key across wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._children: List[float] = []
        self.seconds: Dict[str, float] = {}

    def wrap(self, function: Callable, key: Key) -> Callable:
        @functools.wraps(function)
        def timed(*args, **kwargs):
            name = key(*args, **kwargs) if callable(key) else key
            self._children.append(0.0)
            start = self._clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = self._clock() - start
                nested = self._children.pop()
                self.seconds[name] = self.seconds.get(name, 0.0) + elapsed - nested
                if self._children:
                    self._children[-1] += elapsed

        return timed

    def take(self) -> Dict[str, float]:
        """Return the self times gathered since the last take, and reset."""
        taken, self.seconds = self.seconds, {}
        return taken


#: Makes the stand-in for a wrapped function: ``wrap(function, key)``.
Wrap = Callable[[Callable, Key], Callable]


@contextmanager
def patched(wrap: Wrap, targets: Iterable[Tuple[object, str, Key]]) -> Iterator[None]:
    """Replace ``owner.attribute`` by ``wrap(it, key)`` for each target.

    ``wrap`` is :meth:`LayerClock.wrap` on traced runs; set-up passes a
    wrapper that brackets each step with the drift reference.  Every
    target is restored on exit.
    """
    saved = []
    try:
        for owner, attribute, key in targets:
            raw = vars(owner)[attribute]
            saved.append((owner, attribute, raw))
            if isinstance(raw, classmethod):
                bound = getattr(owner, attribute)
                setattr(owner, attribute, staticmethod(wrap(bound, key)))
            else:
                setattr(owner, attribute, wrap(raw, key))
        yield
    finally:
        for owner, attribute, raw in reversed(saved):
            setattr(owner, attribute, raw)


def setup_targets() -> List[Tuple[object, str, Key]]:
    """Workload generation, columnar pack and open, as the artifact cache calls them."""
    from repro.traces import artifacts
    from repro.traces.columnar import ColumnarTrace
    from repro.workloads import synthetic

    return [
        (synthetic, "make_workload", "workloads.generate_s"),
        (ColumnarTrace, "from_trace", "traces.pack_s"),
        (artifacts, "write_columnar", "traces.pack_s"),
        (artifacts, "read_columnar", "traces.open_s"),
    ]


#: Per-layer metrics every traced run prints, with their units.  A layer
#: a workload does not measure (its module's ``UNMEASURED_LAYERS``) reads
#: 0 on that workload; any other missing layer is an error.
PER_LAYER = {
    "workloads.generate_s": "s",
    "traces.pack_s": "s",
    "traces.open_s": "s",
    "sim.kernel.client_runs_s": "s",
    "sim.kernel.import_s": "s",
    "sim.kernel.replay_s": "s",
    "sim.kernel.export_s": "s",
    "sim.kernel.segments_per_kevent": "1/kevent",
    "sim.engine.dispatch_s": "s",
    "core.successors.metadata_entries": "count",
    "core.grouping.files_per_group_fetch": "files",
    "core.grouping.chain_length_mean": "files",
    "core.grouping.singleton_builds_per_kevent": "1/kevent",
    "caching.client_evictions_per_kevent": "1/kevent",
    "caching.client_installs_per_kevent": "1/kevent",
    "caching.server_hit_ratio": "ratio",
    "core.aggregating_cache.replay_g1_s": "s",
    "core.aggregating_cache.replay_grouped_s": "s",
    "core.aggregating_cache.group_fetches_per_kevent": "1/kevent",
    "sim.sweep.overhead_s": "s",
    "serve.server.fetch_p50_ms": "ms",
    "serve.server.fetch_p99_ms": "ms",
    "serve.fetch.net_queue_p50_ms": "ms",
    "serve.fetch.lock_share": "ratio",
    "serve.fetch.cache_share": "ratio",
    "serve.fetch.journal_share": "ratio",
    "serve.fetch.write_share": "ratio",
    "serve.invalidate.net_queue_p50_ms": "ms",
    "serve.invalidate.lock_share": "ratio",
    "serve.invalidate.cache_share": "ratio",
    "serve.invalidate.journal_share": "ratio",
    "serve.invalidate.write_share": "ratio",
    "serve.client.retries": "count",
    "serve.schema.parse_fetch_us": "us",
    "core.aggregating_cache.server_access_us": "us",
    "core.aggregating_cache.prefetch_efficiency": "ratio",
    "core.aggregating_cache.mean_group_size": "files",
    "core.aggregating_cache.evictions_per_kevent": "1/kevent",
    "trace.overhead": "ratio",
}


def obs_grouping(snapshot: Dict, events: int, group_histogram: str) -> Dict[str, float]:
    """Grouping metrics from a ``repro.obs.collecting()`` registry snapshot."""
    histograms = snapshot["histograms"]
    counters = snapshot["counters"]
    chain = histograms.get("grouping.chain.length", {})
    groups = histograms.get(group_histogram, {})
    return {
        "core.grouping.files_per_group_fetch": groups.get("mean", 0.0),
        "core.grouping.chain_length_mean": chain.get("mean", 0.0),
        "core.grouping.singleton_builds_per_kevent": 1000.0
        * counters.get("grouping.build.singletons", 0)
        / events,
    }
