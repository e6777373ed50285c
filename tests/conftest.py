"""Shared fixtures for the test suite."""

from __future__ import annotations

import gc
import random

import pytest

from repro.traces.artifacts import CACHE_ENV_VAR
from repro.traces.events import EventKind, Trace, TraceEvent
from tests.numpy_hosts import NUMPY_HOSTS, numpy_host


@pytest.fixture(scope="session", autouse=True)
def trace_cache(tmp_path_factory):
    """One temporary trace-artifact cache for the whole session.

    Set in ``os.environ`` so CLI subprocesses inherit it too; without
    it the suite fills ``~/.cache/repro/traces``.
    """
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv(CACHE_ENV_VAR, str(tmp_path_factory.mktemp("trace-cache")))
        yield


@pytest.fixture(autouse=True)
def collector_left_enabled():
    """Fail any test that leaves the cyclic garbage collector disabled.

    The bulk trace builders pause it (``traces.events.collector_paused``)
    and must hand it back; a pause that leaked would change how every
    later test allocates.  The collector is re-enabled before failing.
    """
    yield
    if not gc.isenabled():
        gc.enable()
        pytest.fail("the test left the cyclic garbage collector disabled")


@pytest.fixture(params=NUMPY_HOSTS)
def numpy_host_leg(request):
    """Run the test on each of :data:`NUMPY_HOSTS` (see ``numpy_hosts``)."""
    with numpy_host(request.param):
        yield request.param


@pytest.fixture
def rng():
    """A deterministic RNG for tests that need randomness."""
    return random.Random(1234)


@pytest.fixture
def abc_trace():
    """The paper's Figure 6 example sequence: ACDBEWAXYBUVWDECAB."""
    return Trace.from_file_ids(list("ACDBEWAXYBUVWDECAB"), name="fig6")


@pytest.fixture
def cyclic_sequence():
    """A deterministic cyclic access sequence: 20 files, 10 cycles."""
    files = [f"f{i:02d}" for i in range(20)]
    return files * 10


@pytest.fixture
def mixed_trace():
    """A small trace with every event kind and client attribution."""
    trace = Trace(name="mixed")
    trace.append(TraceEvent("a", EventKind.OPEN, client_id="c1"))
    trace.append(TraceEvent("b", EventKind.READ, client_id="c1"))
    trace.append(TraceEvent("c", EventKind.WRITE, client_id="c2", user_id="u1"))
    trace.append(TraceEvent("d", EventKind.CREATE, client_id="c2"))
    trace.append(TraceEvent("a", EventKind.DELETE, process_id="p9"))
    trace.append(TraceEvent("b", EventKind.CLOSE))
    trace.append(TraceEvent("a", EventKind.OPEN, client_id="c1"))
    return trace
