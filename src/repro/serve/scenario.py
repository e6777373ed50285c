"""Scenario library for ``repro serve``: ``repro.scenario/1``.

A scenario file is the whole deployment description for one daemon: the
cache geometry and group-management knobs, the bind address, the
journal policy, and the workload family the scenario was designed to
be slammed with.  ``repro serve scenarios/paper-server.json`` starts
the daemon; ``repro slam --scenario scenarios/paper-server.json``
picks up the same file to derive its default traffic.

Files are JSON (always available) or YAML when PyYAML happens to be
installed — the loader sniffs by suffix and degrades with a clear
error rather than importing YAML unconditionally, keeping the
zero-heavy-deps stance.

Example (``scenarios/smoke.json``)::

    {
      "schema": "repro.scenario/1",
      "name": "smoke",
      "description": "tiny CI scenario",
      "server": {"host": "127.0.0.1", "port": 0},
      "cache": {"capacity": 300, "group_size": 5,
                "successor_policy": "lru", "successor_capacity": 8},
      "workload": {"name": "server", "events": 5000, "seed": null},
      "journal": {"enabled": true, "max_events": 200000}
    }

Every knob has a sensible default; an empty object is a valid
scenario.  Unknown keys are rejected — a typoed ``group_sze`` must
fail loudly, not silently run the default.
"""

from __future__ import annotations

import json
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from ..core.aggregating_cache import AggregatingServerCache
from ..core.successors import SUCCESSOR_POLICIES
from ..errors import ReproError

Pathish = Union[str, Path]

#: Schema tag scenario files must carry (when they carry one at all).
SCENARIO_SCHEMA = "repro.scenario/1"


class ScenarioError(ReproError):
    """A scenario file could not be read or did not validate."""


@dataclass
class Scenario:
    """One validated deployment description.

    ``build_cache()`` constructs the daemon's shared cache; everything
    else is configuration the daemon and the slam driver read.
    """

    name: str = "default"
    description: str = ""
    # server
    host: str = "127.0.0.1"
    port: int = 0
    allow_shutdown: bool = True
    # cache
    capacity: int = 300
    group_size: int = 5
    successor_policy: str = "lru"
    successor_capacity: int = 8
    # default slam traffic
    workload: str = "server"
    events: int = 5000
    seed: Optional[int] = None
    # journal
    journal_enabled: bool = True
    journal_max_events: int = 200_000
    # telemetry (the windowed /stats time-series)
    telemetry_window_seconds: float = 1.0
    telemetry_window_events: int = 0
    telemetry_retain: int = 512
    # provenance
    source: str = "<inline>"
    extra: Dict[str, Any] = field(default_factory=dict)

    def build_cache(self) -> AggregatingServerCache:
        """The daemon's shared cache, configured per this scenario."""
        return AggregatingServerCache(
            capacity=self.capacity,
            group_size=self.group_size,
            successor_policy=self.successor_policy,
            successor_capacity=self.successor_capacity,
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form (echoed by the daemon's ``/stats``)."""
        return {
            "schema": SCENARIO_SCHEMA,
            "name": self.name,
            "description": self.description,
            "server": {
                "host": self.host,
                "port": self.port,
                "allow_shutdown": self.allow_shutdown,
            },
            "cache": {
                "capacity": self.capacity,
                "group_size": self.group_size,
                "successor_policy": self.successor_policy,
                "successor_capacity": self.successor_capacity,
            },
            "workload": {
                "name": self.workload,
                "events": self.events,
                "seed": self.seed,
            },
            "journal": {
                "enabled": self.journal_enabled,
                "max_events": self.journal_max_events,
            },
            "telemetry": {
                "window_seconds": self.telemetry_window_seconds,
                "window_events": self.telemetry_window_events,
                "retain": self.telemetry_retain,
            },
        }


def _require(mapping: Mapping[str, Any], allowed, source: str, section: str) -> None:
    unknown = sorted(str(key) for key in set(mapping) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"{source}: unknown {section} key(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(sorted(allowed))})"
        )


def _typed(value: Any, kind, source: str, name: str):
    # bool is an int subclass; an explicit check keeps "port": true out.
    if kind is int and isinstance(value, bool):
        raise ScenarioError(f"{source}: {name} must be an integer, got {value!r}")
    if not isinstance(value, kind):
        expected = kind.__name__ if not isinstance(kind, tuple) else (
            "/".join(k.__name__ for k in kind)
        )
        raise ScenarioError(
            f"{source}: {name} must be {expected}, got {type(value).__name__}"
        )
    return value


def _in_range(value, low, high, name: str):
    """``value`` when ``low <= value <= high`` (never for NaN); ``name``
    says where it came from in the error."""
    if not low <= value <= high:
        raise ScenarioError(f"{name} must be {low}..{high}, got {value!r}")
    return value


def check_port(port: int, name: str) -> int:
    """``port`` when it is a TCP port (0 binds an ephemeral one)."""
    return _in_range(port, 0, 65535, name)


def check_window_seconds(seconds: float, name: str) -> float:
    """``seconds`` when the sampler thread can wait that long (0 turns
    the timer-driven sampler off)."""
    return float(_in_range(seconds, 0, threading.TIMEOUT_MAX, name))


def check_window_events(events: int, name: str) -> int:
    """``events`` when it is a window length in accesses (0 = timer only)."""
    return _in_range(events, 0, sys.maxsize, name)


def check_ring_size(size: int, name: str) -> int:
    """``size`` when a bounded ring (``deque(maxlen=size)``) can hold it."""
    return _in_range(size, 1, sys.maxsize, name)


def check_sample_period(every: int, name: str) -> int:
    """``every`` when it is a 1-in-N sampling period (1 samples all)."""
    return _in_range(every, 1, sys.maxsize, name)


def scenario_from_dict(
    payload: Mapping[str, Any], source: str = "<inline>"
) -> Scenario:
    """Validate one decoded scenario mapping into a :class:`Scenario`."""
    if not isinstance(payload, Mapping):
        raise ScenarioError(
            f"{source}: scenario must be a JSON object, "
            f"got {type(payload).__name__}"
        )
    _require(
        payload,
        (
            "schema",
            "name",
            "description",
            "server",
            "cache",
            "workload",
            "journal",
            "telemetry",
        ),
        source,
        "top-level",
    )
    schema = payload.get("schema", SCENARIO_SCHEMA)
    if schema != SCENARIO_SCHEMA:
        raise ScenarioError(
            f"{source}: unsupported schema {schema!r} (expected {SCENARIO_SCHEMA})"
        )
    scenario = Scenario(source=source)
    scenario.name = _typed(payload.get("name", scenario.name), str, source, "name")
    scenario.description = _typed(
        payload.get("description", ""), str, source, "description"
    )

    server = _typed(payload.get("server", {}), Mapping, source, "server")
    _require(server, ("host", "port", "allow_shutdown"), source, "server")
    scenario.host = _typed(server.get("host", scenario.host), str, source, "server.host")
    scenario.port = check_port(
        _typed(server.get("port", scenario.port), int, source, "server.port"),
        f"{source}: server.port",
    )
    scenario.allow_shutdown = _typed(
        server.get("allow_shutdown", True), bool, source, "server.allow_shutdown"
    )

    cache = _typed(payload.get("cache", {}), Mapping, source, "cache")
    _require(
        cache,
        ("capacity", "group_size", "successor_policy", "successor_capacity"),
        source,
        "cache",
    )
    scenario.capacity = _typed(
        cache.get("capacity", scenario.capacity), int, source, "cache.capacity"
    )
    scenario.group_size = _typed(
        cache.get("group_size", scenario.group_size), int, source, "cache.group_size"
    )
    scenario.successor_policy = _typed(
        cache.get("successor_policy", scenario.successor_policy),
        str,
        source,
        "cache.successor_policy",
    )
    if scenario.successor_policy not in SUCCESSOR_POLICIES:
        raise ScenarioError(
            f"{source}: cache.successor_policy must be one of "
            f"{', '.join(sorted(SUCCESSOR_POLICIES))}, "
            f"got {scenario.successor_policy!r}"
        )
    scenario.successor_capacity = _typed(
        cache.get("successor_capacity", scenario.successor_capacity),
        int,
        source,
        "cache.successor_capacity",
    )
    if scenario.capacity < 1:
        raise ScenarioError(f"{source}: cache.capacity must be >= 1")
    if scenario.group_size < 1:
        raise ScenarioError(f"{source}: cache.group_size must be >= 1")
    if scenario.successor_capacity < 1:
        raise ScenarioError(f"{source}: cache.successor_capacity must be >= 1")

    workload = _typed(payload.get("workload", {}), Mapping, source, "workload")
    _require(workload, ("name", "events", "seed"), source, "workload")
    scenario.workload = _typed(
        workload.get("name", scenario.workload), str, source, "workload.name"
    )
    scenario.events = _typed(
        workload.get("events", scenario.events), int, source, "workload.events"
    )
    if scenario.events < 1:
        raise ScenarioError(f"{source}: workload.events must be >= 1")
    seed = workload.get("seed", None)
    if seed is not None:
        seed = _typed(seed, int, source, "workload.seed")
    scenario.seed = seed

    journal = _typed(payload.get("journal", {}), Mapping, source, "journal")
    _require(journal, ("enabled", "max_events"), source, "journal")
    scenario.journal_enabled = _typed(
        journal.get("enabled", True), bool, source, "journal.enabled"
    )
    scenario.journal_max_events = check_ring_size(
        _typed(
            journal.get("max_events", scenario.journal_max_events),
            int,
            source,
            "journal.max_events",
        ),
        f"{source}: journal.max_events",
    )

    telemetry = _typed(payload.get("telemetry", {}), Mapping, source, "telemetry")
    _require(
        telemetry, ("window_seconds", "window_events", "retain"), source, "telemetry"
    )
    window_seconds = telemetry.get(
        "window_seconds", scenario.telemetry_window_seconds
    )
    if isinstance(window_seconds, bool) or not isinstance(
        window_seconds, (int, float)
    ):
        raise ScenarioError(
            f"{source}: telemetry.window_seconds must be a number, "
            f"got {window_seconds!r}"
        )
    scenario.telemetry_window_seconds = check_window_seconds(
        window_seconds, f"{source}: telemetry.window_seconds"
    )
    scenario.telemetry_window_events = check_window_events(
        _typed(
            telemetry.get("window_events", scenario.telemetry_window_events),
            int,
            source,
            "telemetry.window_events",
        ),
        f"{source}: telemetry.window_events",
    )
    scenario.telemetry_retain = check_ring_size(
        _typed(
            telemetry.get("retain", scenario.telemetry_retain),
            int,
            source,
            "telemetry.retain",
        ),
        f"{source}: telemetry.retain",
    )
    return scenario


def load_scenario(path: Pathish) -> Scenario:
    """Read and validate one scenario file (JSON, or YAML when available)."""
    target = Path(path)
    try:
        text = target.read_text(encoding="utf-8")
    except OSError as error:
        raise ScenarioError(f"cannot read scenario {target}: {error}")
    except UnicodeDecodeError as error:
        raise ScenarioError(f"{target}: not UTF-8 text ({error})")
    try:
        if target.suffix.lower() in (".yaml", ".yml"):
            try:
                import yaml  # type: ignore[import-untyped]
            except ImportError:
                raise ScenarioError(
                    f"{target}: YAML scenarios need PyYAML, which is not "
                    f"installed — use the JSON form instead"
                )
            try:
                payload = yaml.safe_load(text)
            except yaml.YAMLError as error:  # pragma: no cover - yaml optional
                raise ScenarioError(f"{target}: invalid YAML ({error})")
        else:
            try:
                payload = json.loads(text)
            except ValueError as error:  # malformed, or an over-long integer
                raise ScenarioError(f"{target}: invalid JSON ({error})")
    except RecursionError:
        raise ScenarioError(f"{target}: nested too deeply to decode")
    return scenario_from_dict(payload, source=str(target))
