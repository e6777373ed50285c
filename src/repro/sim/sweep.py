"""Parameter sweep runner.

Every figure in the paper is a sweep — over cache capacity, filter
capacity, successor list size, group size, or symbol length.  This
module gives those sweeps one shape: a grid of named parameters, a
callable that maps one parameter point to a result record, and a list
of flat dict records out, ready for the analysis layer to pivot into
series.

Grid points are independent by construction (``run_point`` is a pure
function of its parameters), so the runner can evaluate them on a
process pool: ``run_sweep(..., workers=N)`` fans points out over a
:class:`concurrent.futures.ProcessPoolExecutor` while preserving the
deterministic record order of the serial path.  Callables that cannot
be pickled (lambdas, closures) and broken pools degrade gracefully to
the serial path, so ``workers`` is always safe to pass.
"""

from __future__ import annotations

import itertools
import pickle
import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import ExperimentError
from ..obs import registry as _obs
from ..obs import timeseries as _ts

#: One result record: the parameter point plus measured values.
Record = Dict[str, Any]


@dataclass
class SweepGrid:
    """A cartesian grid of named parameter values.

    ``axes`` maps parameter names to the values each takes; the grid is
    the cartesian product in axis-insertion order, so sweep output
    order is deterministic.
    """

    axes: Dict[str, Sequence[Any]] = field(default_factory=dict)

    def add_axis(self, name: str, values: Iterable[Any]) -> "SweepGrid":
        """Add one axis; returns self for chaining."""
        concrete = list(values)
        if not concrete:
            raise ExperimentError(f"axis {name!r} has no values")
        if name in self.axes:
            raise ExperimentError(f"axis {name!r} already defined")
        self.axes[name] = concrete
        return self

    def points(self) -> List[Dict[str, Any]]:
        """Every parameter point as a dict, in deterministic order."""
        if not self.axes:
            return [{}]
        names = list(self.axes)
        product = itertools.product(*(self.axes[name] for name in names))
        return [dict(zip(names, values)) for values in product]

    def __len__(self) -> int:
        size = 1
        for values in self.axes.values():
            size *= len(values)
        return size


def _call_point(
    run_point: Callable[..., Mapping[str, Any]], params: Dict[str, Any]
) -> Tuple[Dict[str, Any], float]:
    """Evaluate one grid point, returning (measured, wall seconds).

    Module-level so the process pool can pickle it; the measured
    mapping is materialized to a plain dict for the trip back.
    """
    start = time.perf_counter()
    measured = run_point(**params)
    return dict(measured), time.perf_counter() - start


def _merge_record(params: Dict[str, Any], measured: Mapping[str, Any]) -> Record:
    """Merge parameters and measurements, rejecting key collisions."""
    collisions = set(params) & set(measured)
    if collisions:
        raise ExperimentError(
            f"run_point returned keys that collide with parameters: "
            f"{sorted(collisions)}"
        )
    record: Record = dict(params)
    record.update(measured)
    return record


def _is_picklable(run_point: Callable[..., Mapping[str, Any]]) -> bool:
    """Whether the callable survives the trip to a worker process."""
    try:
        pickle.dumps(run_point)
    except Exception:
        return False
    return True


def _run_serial(
    points: List[Dict[str, Any]],
    run_point: Callable[..., Mapping[str, Any]],
    progress: Optional[Callable[[int, int, Dict[str, Any], float], None]],
    started: float,
) -> List[Record]:
    records: List[Record] = []
    total = len(points)
    record_metrics = _obs.ENABLED
    collector = _ts.ACTIVE
    if record_metrics:
        registry = _obs.get_registry()
        observe_point = registry.histogram("sweep.point.ns").observe
        point_counter = registry.counter("sweep.points")
    for index, params in enumerate(points):
        if progress is not None:
            progress(index, total, params, time.perf_counter() - started)
        measured, seconds = _call_point(run_point, params)
        if record_metrics:
            observe_point(int(seconds * 1e9))
            point_counter.inc()
        if collector is not None:
            collector.record_point(index, params, measured, seconds)
        records.append(_merge_record(params, measured))
    return records


def _run_parallel(
    points: List[Dict[str, Any]],
    run_point: Callable[..., Mapping[str, Any]],
    progress: Optional[Callable[[int, int, Dict[str, Any], float], None]],
    workers: int,
    started: float,
) -> List[Record]:
    from concurrent.futures import ProcessPoolExecutor

    total = len(points)
    records: List[Record] = []
    record_metrics = _obs.ENABLED
    # Time-series samples are recorded here in the parent as each
    # future is collected, so the series aggregates across workers.
    collector = _ts.ACTIVE
    busy_seconds = 0.0
    used_workers = min(workers, total)
    if record_metrics:
        registry = _obs.get_registry()
        observe_point = registry.histogram("sweep.point.ns").observe
        point_counter = registry.counter("sweep.points")
    with ProcessPoolExecutor(max_workers=used_workers) as pool:
        futures = [
            pool.submit(_call_point, run_point, params) for params in points
        ]
        # Collect in submission order: records stay index-aligned with
        # the serial path no matter which worker finishes first.
        for index, (params, future) in enumerate(zip(points, futures)):
            if progress is not None:
                progress(index, total, params, time.perf_counter() - started)
            measured, seconds = future.result()
            if record_metrics:
                observe_point(int(seconds * 1e9))
                point_counter.inc()
                busy_seconds += seconds
            if collector is not None:
                collector.record_point(index, params, measured, seconds)
            records.append(_merge_record(params, measured))
    if record_metrics:
        registry.gauge("sweep.workers.used").set(used_workers)
        wall = time.perf_counter() - started
        if wall > 0.0:
            # Fraction of the pool's wall-time capacity spent computing
            # points: 1.0 means perfectly packed workers, low values
            # mean stragglers or pool overhead dominated.
            registry.gauge("sweep.worker.utilisation").set(
                min(1.0, busy_seconds / (wall * used_workers))
            )
    return records


def run_sweep(
    grid: SweepGrid,
    run_point: Callable[..., Mapping[str, Any]],
    progress: Optional[Callable[[int, int, Dict[str, Any], float], None]] = None,
    workers: int = 1,
    prewarm: Optional[Callable[[], Any]] = None,
) -> List[Record]:
    """Evaluate ``run_point(**params)`` at every grid point.

    ``run_point`` returns a mapping of measured values; the returned
    records merge parameters and measurements (measurements win on key
    collisions, which the runner treats as an error to surface bugs).

    ``progress`` is an optional callback ``(index, total, params,
    elapsed)`` invoked before each point is collected — the CLI uses it
    for status/ETA lines.  ``elapsed`` is wall seconds since the sweep
    started; :meth:`repro.sim.engine.DistributedFileSystem.replay` calls
    the same shape once per replay window.

    When windowed telemetry is active (:func:`repro.obs.windowing`), one
    ``source="sweep"`` sample is recorded per completed point — in the
    parent process for both paths, so parallel runs aggregate across
    workers.

    ``workers > 1`` evaluates points on a process pool.  ``run_point``
    must then be picklable (a module-level function, or a
    ``functools.partial`` over one); unpicklable callables, single-point
    grids, and environments without working process pools all fall back
    to the serial path, which produces identical records in identical
    order.

    ``prewarm`` is an optional zero-argument callable invoked once in
    the parent before any point runs.  The figure experiments pass
    :func:`repro.experiments.common.prewarm_workload` through it so the
    workload's columnar trace artifact is on disk before fan-out: worker
    processes then mmap the shared artifact (page-cache shared across
    the pool) instead of each regenerating the trace, and nothing
    trace-sized ever crosses the pickle boundary.
    """
    points = grid.points()
    if prewarm is not None:
        prewarm()
    started = time.perf_counter()
    record_metrics = _obs.ENABLED
    if record_metrics:
        registry = _obs.get_registry()
        registry.gauge("sweep.grid.points").set(len(points))
        registry.gauge("sweep.workers.requested").set(workers)
    if workers > 1 and len(points) > 1 and _is_picklable(run_point):
        try:
            records = _run_parallel(
                points, run_point, progress, workers, started
            )
            if record_metrics:
                _record_run_ns(registry, started)
            return records
        except ExperimentError:
            raise
        except Exception as error:
            # A broken pool (no fork support, resource limits, a worker
            # killed mid-run) degrades to the serial path; run_point is
            # pure, so re-evaluating from scratch is safe.  Its own
            # errors (ReproError subclasses, bad parameters) propagate
            # above — only infrastructure failures are swallowed.
            from ..errors import ReproError

            if isinstance(error, ReproError) or isinstance(error, TypeError):
                raise
            if record_metrics:
                registry.counter("sweep.serial_fallbacks").inc()
            records = _run_serial(points, run_point, progress, started)
            if record_metrics:
                _record_run_ns(registry, started)
            return records
    records = _run_serial(points, run_point, progress, started)
    if record_metrics:
        _record_run_ns(registry, started)
    return records


def _record_run_ns(registry, started: float) -> None:
    """Observe one whole-sweep wall time (collection is enabled)."""
    registry.histogram("sweep.run.ns").observe(
        int((time.perf_counter() - started) * 1e9)
    )


def pivot(
    records: Sequence[Record], x: str, y: str, series: str = ""
) -> Dict[Any, List[tuple]]:
    """Pivot flat records into {series_value: [(x, y), ...]} for plotting.

    With ``series=""`` everything lands under the single key ``""``.
    Points within each series keep record order (which is sweep order,
    hence sorted if the axis values were sorted).
    """
    lines: Dict[Any, List[tuple]] = {}
    for record in records:
        if x not in record or y not in record:
            raise ExperimentError(
                f"record missing {x!r} or {y!r}: has keys {sorted(record)}"
            )
        key = record.get(series, "") if series else ""
        lines.setdefault(key, []).append((record[x], record[y]))
    return lines
