"""Host-drift reference: a fixed pure-Python loop timed beside the work.

The speed of the 2-vCPU Xeon host this benchmark was built on drifts
between runs of identical code (replay throughput ranged over +-27% in
eight runs) while CPU time tracks wall time and steal stays at zero: the
drift is in the host's speed, not in scheduling.  It comes in two forms.  Bursts of
interference, a few hundred milliseconds to several seconds long, slow
some work slices and not others.  Longer states, lasting minutes, slow
everything by up to about 2x.

Two measures cancel it.

* Every timed slice of work is bracketed by reference slices.  Offline
  work uses :func:`reference_slice`, an interpreter loop over list,
  bytearray and dict operations like the replay kernels'.  It touches a
  few kilobytes, so it does not evict the work's data from the cache it
  measures beside.  Served work spends most of its time in the stdlib
  HTTP stack of two processes, which the interpreter loop tracks poorly,
  so it uses :class:`HttpPeer`: keep-alive JSON round trips to a stdlib
  echo server in a child process.  A phase's reference time is the low
  quantile (:data:`LOW_QUANTILE`) of its reference slices, so a burst
  that hits a reference slice does not count.
* Work times are reported at a nominal host speed: raw seconds times
  ``NOMINAL_SLICE_S / reference time``.  Each workload applies the same
  low-quantile rule to its own repeated work where it can, so that the
  run reports the undisturbed speed of the work against the undisturbed
  speed of the host.

This module imports nothing from ``repro`` (nor does :mod:`measure`): no
change to the program under test can move the reference.  The constants below are fixed;
changing one rescales every timed metric, which makes it a change to
the benchmark, never to the program.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import time
from typing import Callable, List, Optional, Sequence, Tuple, TypeVar

from measure import percentile

T = TypeVar("T")

#: Interpreter-loop iterations in one reference slice.
REFERENCE_ITERATIONS = 20_000

#: Seconds one reference slice takes on the nominal host.  Timed metrics
#: are reported as if the run's reference time had been this.
NOMINAL_SLICE_S = 0.0065

#: Round trips in one HTTP reference slice, and the seconds they take
#: on the nominal host.
HTTP_ROUND_TRIPS = 30
NOMINAL_HTTP_S = 0.006

#: The quantile taken of repeated timings to set bursts aside.
LOW_QUANTILE = 0.10


def reference_slice(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Run the fixed reference loop; returns a checksum so it is not dead."""
    stamp = [0] * 1024
    flags = bytearray(1024)
    table = {}
    order = []
    acc = 0
    key = 1
    for i in range(iterations):
        key = (key * 1103515245 + 12345) & 1023
        if flags[key]:
            stamp[key] = i
            acc += table[key]
        else:
            flags[key] = 1
            table[key] = i & 7
            order.append(key)
            if len(order) > 512:
                old = order.pop(0)
                flags[old] = 0
                del table[old]
    return acc


#: The HTTP peer's whole program: a keep-alive stdlib JSON echo server
#: on a free loopback port, which it prints, serving until stdin closes.
HTTP_PEER_SOURCE = """import sys, threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

class Echo(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass

server = ThreadingHTTPServer(("127.0.0.1", 0), Echo)
threading.Thread(target=server.serve_forever, daemon=True).start()
print(server.server_address[1], flush=True)
sys.stdin.read()
server.shutdown()
"""


class HttpPeer:
    """A stdlib HTTP echo server in a child process, timed as a reference.

    Served work spends most of its time in the stdlib HTTP client and
    server, in two processes, and in the socket path between them; the
    interpreter loop alone tracks that poorly.  One call is one reference
    slice of :data:`HTTP_ROUND_TRIPS` keep-alive JSON POSTs.  ``cpus``
    pins the server to the CPUs the served program runs on.
    :meth:`close` ends the child and waits for it.
    """

    def __init__(self, cpus: Optional[set] = None):
        import http.client

        self._process = subprocess.Popen(
            [sys.executable, "-c", HTTP_PEER_SOURCE],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
        )
        if cpus:
            os.sched_setaffinity(self._process.pid, cpus)
        port = int(self._process.stdout.readline())
        self._connection = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        self._body = json.dumps({"files": [f"file{i:05d}" for i in range(8)]}).encode()

    def __call__(self) -> None:
        connection = self._connection
        headers = {"Content-Type": "application/json"}
        for _ in range(HTTP_ROUND_TRIPS):
            connection.request("POST", "/echo", body=self._body, headers=headers)
            response = connection.getresponse()
            json.loads(response.read())

    def close(self) -> None:
        self._connection.close()
        self._process.stdin.close()
        try:
            self._process.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


def low_quantile(values: Sequence[float], q: float = LOW_QUANTILE) -> float:
    """The ``q`` quantile of unsorted timings (the low tail by default)."""
    return percentile(sorted(values), q)


class DriftMeter:
    """Interleaves reference slices with timed work and records both.

    :meth:`measure` runs one slice of work between two reference slices;
    consecutive calls share the reference between them, so ``n`` work
    slices cost ``n + 1`` reference slices.  Call :meth:`pause` before
    untimed work so the next slice is bracketed afresh.
    """

    def __init__(
        self,
        clock: Callable[[], float] = time.perf_counter,
        reference: Callable[[], object] = reference_slice,
        nominal_s: float = NOMINAL_SLICE_S,
    ):
        self._clock = clock
        self._reference = reference
        self.nominal_s = nominal_s
        self._last: Optional[float] = None
        self._bracket: Tuple[float, float] = (nominal_s, nominal_s)
        #: Raw seconds of every reference slice run, in order.
        self.reference_s: List[float] = []

    def reference(self) -> float:
        """Run and record one reference slice; returns its seconds.

        :meth:`measure` calls this around each work slice.  Work that
        exposes its own progress (a sweep's grid points) can also call it
        inside a slice, to interleave references more finely; the caller
        then excludes the returned time from the work.
        """
        start = self._clock()
        self._reference()
        elapsed = self._clock() - start
        self.reference_s.append(elapsed)
        return elapsed

    def pause(self) -> None:
        """The next slice re-brackets (untimed work came in between)."""
        self._last = None

    def phase(self) -> int:
        """Start a phase of work; pass the result to :meth:`scale`."""
        self.pause()
        return len(self.reference_s)

    def measure(self, work: Callable[[], T]) -> Tuple[T, float]:
        """Run ``work`` between reference slices; returns ``(result, raw_s)``."""
        before = self.reference() if self._last is None else self._last
        start = self._clock()
        result = work()
        raw = self._clock() - start
        self._last = self.reference()
        self._bracket = (before, self._last)
        return result, raw

    def slice_scale(self) -> float:
        """Raw seconds to nominal-host seconds for the last measured slice alone.

        Uses only the two references bracketing that slice (their
        geometric mean), for work whose slices are long against the
        host's changes of speed: a slice made in a slow spell is scaled
        by that spell's references, not by the phase's fastest.
        """
        before, after = self._bracket
        return self.nominal_s / math.sqrt(before * after)

    def reference_time(self, since: int = 0) -> float:
        """Undisturbed reference slice time (low quantile) since a phase began."""
        return low_quantile(self.reference_s[since:])

    def scale(self, since: int = 0) -> float:
        """Raw seconds to nominal-host seconds, from one phase's references.

        A phase is scaled by the references bracketing its own slices, so
        a host that changes speed between set-up and the timed passes is
        cancelled in each.
        """
        return self.nominal_s / self.reference_time(since)

    @property
    def reference_rate(self) -> float:
        """Reference slices per second over the whole run (low quantile)."""
        return 1.0 / self.reference_time()
