"""Small helpers shared by the workloads: percentiles, memory, results.

Nothing here imports ``repro``; the self-tests in ``perfbench/tests``
exercise every function without the program under test.
"""

from __future__ import annotations

import json
import math
import re
import statistics
from dataclasses import dataclass, field
from typing import Dict, Mapping, Sequence

#: A percentile is reported only when at least this many samples lie
#: beyond it, so p99 needs 1,000 samples.
MIN_SAMPLES_BEYOND = 10

#: The end-to-end metrics every untraced run prints, with their units.
END_TO_END = {
    "setup_s": "s",
    "events_per_s": "1/s",
    "hit_ratio": "ratio",
    "demand_fetches_per_kevent": "1/kevent",
    "store_fetches_per_kevent": "1/kevent",
    "peak_rss_mb": "MB",
    "fetch_p50_ms": "ms",
    "fetch_p99_ms": "ms",
    "invalidate_p50_ms": "ms",
    "invalidate_p99_ms": "ms",
}


@dataclass
class Outcome:
    """What one workload run reports.

    ``metrics`` maps a metric name to its value; the unit comes from
    :data:`END_TO_END` or the per-layer table.  ``detail`` carries the
    raw (un-normalized) values, the reference rate and sample counts,
    printed on the line before the result.
    """

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    detail: Dict[str, object] = field(default_factory=dict)


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default rule)."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be in [0, 1], got {q}")
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie above the ``q`` percentile."""
    return count - math.ceil(round(q * count, 9))


def require_tail(count: int, q: float, what: str) -> None:
    """Refuse to report a percentile the sample cannot support."""
    if samples_beyond(count, q) < MIN_SAMPLES_BEYOND:
        raise ValueError(
            f"{what}: p{round(q * 100):g} needs {MIN_SAMPLES_BEYOND} samples "
            f"beyond it, but {count} samples leave "
            f"{samples_beyond(count, q)}"
        )


def latency_summary(latencies_s: Sequence[float], what: str) -> Dict[str, float]:
    """p50 and p99 in milliseconds plus the sample count."""
    ordered = sorted(latencies_s)
    require_tail(len(ordered), 0.99, what)
    return {
        "p50_ms": percentile(ordered, 0.50) * 1e3,
        "p99_ms": percentile(ordered, 0.99) * 1e3,
        "samples": len(ordered),
    }


class Latencies:
    """Raw per-request latencies of the two served operations.

    Percentiles scale linearly, so :meth:`metrics` reports them at the
    nominal host by multiplying each raw percentile by ``scale``, which
    the phase that measured them sets.
    """

    OPERATIONS = ("fetch", "invalidate")

    def __init__(self):
        self.samples: Dict[str, list] = {op: [] for op in self.OPERATIONS}
        self.scale = 1.0

    def add(self, operation: str, seconds: float) -> None:
        self.samples[operation].append(seconds)

    def summaries(self) -> Dict[str, Dict[str, float]]:
        """Raw p50/p99 and the sample count per operation."""
        return {
            op: latency_summary(values, op) for op, values in self.samples.items()
        }

    def metrics(self) -> Dict[str, float]:
        """The four end-to-end latency metrics, nominal milliseconds."""
        return {
            f"{op}_{q}_ms": summary[f"{q}_ms"] * self.scale
            for op, summary in self.summaries().items()
            for q in ("p50", "p99")
        }


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of an empty sample")
    return statistics.median(values)


def per_kevent(count: int, events: int) -> float:
    """A count per 1,000 events."""
    return 1000.0 * count / events


# -- memory ------------------------------------------------------------------


def peak_rss_mb(pid: str = "self") -> float:
    """The process's peak resident set (``VmHWM``) in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        found = re.search(r"^VmHWM:\s+(\d+)\s+kB", status.read(), re.MULTILINE)
    if found is None:
        raise OSError(f"no VmHWM line in /proc/{pid}/status")
    return int(found.group(1)) / 1024.0


def reset_peak_rss() -> bool:
    """Reset this process's ``VmHWM`` to its current RSS, where Linux allows.

    Lets the peak cover the timed work only, not the trace generation
    before it.  Returns False when the kernel refuses.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as refs:
            refs.write("5")
    except OSError:
        return False
    return True


# -- serve request outcomes ----------------------------------------------------

OK = "ok"
NOT_RESIDENT = "not_resident"
FAILED = "failed"


def classify(path: str, status: int = 0, transport_error: bool = False) -> str:
    """Sort one request's outcome into ok / not resident / failed.

    A transport error (including retries exhausted), any 5xx and any 4xx
    other than ``/invalidate`` 404 count as failed.  ``/invalidate`` 404
    means "not resident", which is a valid answer the daemon counts as an
    invalidation miss.
    """
    if transport_error:
        return FAILED
    if 200 <= status < 300:
        return OK
    if path == "/invalidate" and status == 404:
        return NOT_RESIDENT
    return FAILED


# -- the result line -----------------------------------------------------------


def result_line(outcome: Outcome, units: Mapping[str, str]) -> str:
    """The benchmark's last stdout line: exactly these four keys.

    Prints exactly the metrics named in ``units``; a missing or
    non-finite value is a bug in the benchmark and raises.
    """
    metrics = {}
    for name, unit in units.items():
        value = outcome.metrics.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {name} is not a finite number: {value!r}")
        metrics[name] = {"value": float(value), "unit": unit}
    return json.dumps(
        {
            "correct": bool(outcome.correct),
            "attempted": int(outcome.attempted),
            "failed": int(outcome.failed),
            "metrics": metrics,
        }
    )
