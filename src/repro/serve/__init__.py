"""repro.serve — the aggregating cache as a long-lived network service.

Everything before this package exercised the paper's aggregating
server cache *in process*: a replay loop calls ``access()`` a few
million times and reads the counters.  This package turns the same
cache into something shaped like a production system — a daemon that
holds one shared :class:`~repro.core.aggregating_cache.AggregatingServerCache`
behind a small JSON-over-HTTP API, and a load driver that slams it
with concurrent client traffic replayed from the existing workloads
and trace artifacts.

Three modules, mirroring the api/backend split of scenario-driven
simulators:

* :mod:`~repro.serve.scenario` — the scenario library.  A scenario
  file (``scenarios/*.json``) picks the cache geometry, the
  group-management knobs, the bind address, and the default workload;
  ``repro serve scenarios/paper-server.json`` is the whole deployment
  story.
* :mod:`~repro.serve.server` — :class:`CacheDaemon`, the cache on
  :class:`repro.obs.host.HttpHost` (a threaded HTTP/1.1 server with
  its own framing).  ``POST /open`` is one file open, ``POST
  /fetch`` a batch of opens, ``POST /invalidate`` a callback break;
  ``GET /stats`` and ``GET /metrics`` (Prometheus text) expose the
  counters the replay simulator would have returned, and request
  latency from one :class:`~repro.obs.quantiles.Histogram` per
  endpoint.
  The cache itself is single-threaded by design (see the audit notes
  in :mod:`repro.core.aggregating_cache`), so every cache touch is
  serialized under one lock — the daemon is the concurrency boundary.
* :mod:`~repro.serve.client` — ``repro slam``: N worker processes
  replay shards of a trace (text or zero-copy ``.ctrace``) against the
  daemon, time every request into a latency histogram, and report
  p50/p95/p99 plus the server-side hit ratio pulled from ``/stats``.

The wire vocabulary (endpoint names, request/response fields, error
shapes) lives in :mod:`~repro.serve.schema` so the daemon, the driver,
and the CI smoke checks (``scripts/smoke.py``) cannot drift apart.

Nothing here imports outside the standard library, matching the rest
of the repository's zero-heavy-deps stance.
"""

from .client import (
    ServeConnection,
    SlamReport,
    SlamError,
    percentile,
    run_slam,
)
from .scenario import Scenario, ScenarioError, load_scenario
from .schema import SERVE_SCHEMA, SPAN_SCHEMA, TRACE_HEADER, WireError
from .server import CacheDaemon

__all__ = [
    "CacheDaemon",
    "Scenario",
    "ScenarioError",
    "ServeConnection",
    "SERVE_SCHEMA",
    "SPAN_SCHEMA",
    "SlamError",
    "SlamReport",
    "TRACE_HEADER",
    "WireError",
    "load_scenario",
    "percentile",
    "run_slam",
]
