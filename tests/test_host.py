"""The HTTP/1.1 framing layer on both ends of the served path (``repro.obs.host``).

The request reader either parses its input or raises
:class:`WireError` with a status the host answers; a live host
answers every request with a well-framed response, never a 500; stdlib
clients and curl interoperate with both hosts; and the daemon's client
retries exactly once when a server dropped an idle connection and fails
with :class:`SlamError` on a response that breaks framing.  Every raw
exchange runs under a socket timeout, so a host that never answers fails
the test instead of hanging it.
"""

import errno
import http.client
import io
import json
import shutil
import socket
import subprocess
import threading
import time
import urllib.error
import urllib.request
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.host import CLOSE_TIMEOUT, MAX_HEADERS, MAX_LINE, HttpHost, WireError, read_request
from repro.obs.timeseries import MetricsServer
from repro.serve import CacheDaemon, ServeConnection, SlamError
from repro.serve.scenario import Scenario

FRAMING_STATUSES = {400, 414, 431, 501, 505}
METRICS_TEXT = "# TYPE repro_x counter\nrepro_x 1\n# EOF\n"


def tiny_daemon() -> CacheDaemon:
    return CacheDaemon(Scenario(capacity=100, group_size=4, events=500, seed=3))


@pytest.fixture(scope="module")
def daemon():
    with tiny_daemon() as host:
        yield host


@pytest.fixture(scope="module")
def metrics():
    with MetricsServer(lambda: METRICS_TEXT) as host:
        yield host


@pytest.fixture(params=["daemon", "metrics"])
def host(request):
    """Each host, shared by the tests of this module (closing one takes a poll)."""
    return request.getfixturevalue(request.param)


def _parse_responses(data: bytes):
    """Split a byte stream into ``(status, fields, body)`` responses.

    Independent of the reader under test: every response must carry a
    status line, ``name: value`` fields and ``Content-Length`` body
    bytes (an interim 100 carries none).
    """
    responses = []
    while data:
        head, separator, data = data.partition(b"\r\n\r\n")
        assert separator, f"incomplete response head {head[:200]!r}"
        lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = lines[0].split(" ", 2)
        assert version == "HTTP/1.1", lines[0]
        fields = {}
        for line in lines[1:]:
            name, value = line.split(": ", 1)
            fields[name.lower()] = value
        length = 0 if status == "100" else int(fields["content-length"])
        assert len(data) >= length, f"body cut short: {len(data)} of {length}"
        responses.append((int(status), fields, data[:length]))
        data = data[length:]
    return responses


def _read_all(sock) -> bytes:
    """Everything the host sends until it closes the connection.

    A host may answer and close (a 414 or a 431) before it has read the
    whole request; the unread rest resets the connection, and what
    arrived before the reset must still parse.
    """
    received = b""
    try:
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                return received
            received += chunk
    except ConnectionResetError:
        return received


def _send(sock, data: bytes, half_close: bool = True) -> None:
    """Send raw bytes, then half-close; the host may answer and close first."""
    try:
        sock.sendall(data)
        if half_close:
            sock.shutdown(socket.SHUT_WR)
    except OSError as error:
        if error.errno not in (errno.ECONNRESET, errno.EPIPE, errno.ENOTCONN):
            raise


def _exchange(host, data: bytes, timeout: float = 5.0):
    """Send raw bytes, half-close, and parse every response."""
    with socket.create_connection((host.host, host.port), timeout=timeout) as sock:
        _send(sock, data)
        return _parse_responses(_read_all(sock))


def _request(head: str, body: bytes = b"") -> bytes:
    return head.encode("latin-1") + b"\r\n\r\n" + body


def _assert_structured(status, fields, body):
    """An error response carries the ``{"error", "status"}`` JSON body."""
    assert fields["content-type"] == "application/json"
    payload = json.loads(body)
    assert payload["status"] == status and payload["error"]


# -- the request reader over in-memory bytes ---------------------------------

METHODS = st.sampled_from([b"GET", b"POST", b"PUT", b"HEAD", b"get", b"G\x00T", b""])
TARGETS = st.sampled_from(
    [b"/healthz", b"/fetch", b"/open", b"/stats?since=1", b"/metrics", b"/", b"*"]
) | st.binary(max_size=16)
VERSIONS = st.sampled_from(
    [b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"HTTP/0.9", b"HTTP/1", b"http/1.1", b""]
)
NAMES = st.sampled_from(
    [
        b"Host",
        b"Content-Length",
        b"content-length",
        b"Transfer-Encoding",
        b"Expect",
        b"Connection",
        b"X-Repro-Trace",
        b"Content-Type",
        b"Bad Name",
        b"N\xe9me",
        b"",
    ]
) | st.binary(max_size=12)
TRACE_VALUES = st.builds(
    lambda trace, span: trace + b":" + span,
    st.binary(max_size=40),
    st.binary(max_size=20),
) | st.from_regex(rb"\A[0-9a-f]{32}:[0-9a-f]{16}\Z")
VALUES = (
    st.sampled_from(
        [b"0", b"2", b"17", b"-1", b"+2", b"chunked", b"100-continue", b"close",
         b"keep-alive", b"\xe9t\xe9", b"a\x00b", b"a\rb", b"  padded \t"]
    )
    | st.binary(max_size=24)
    | TRACE_VALUES
)
SEPARATORS = st.sampled_from([b": ", b":", b" : ", b":\t", b"\t:"])
TERMINATORS = st.sampled_from([b"\r\n", b"\r\n", b"\n", b"\r", b""])


@st.composite
def requests(draw):
    """Raw request bytes: a request line, header lines, a blank line, a body."""
    lines = [draw(METHODS) + b" " + draw(TARGETS) + b" " + draw(VERSIONS)]
    for _ in range(draw(st.integers(0, 5))):
        fold = draw(st.sampled_from([b"", b"", b"", b" ", b"\t"]))
        lines.append(fold + draw(NAMES) + draw(SEPARATORS) + draw(VALUES))
    shape = draw(
        st.sampled_from(["plain", "plain", "many", "long-start", "long-field", "long-blank"])
    )
    if shape == "many":
        count = draw(st.integers(MAX_HEADERS - 2, MAX_HEADERS + 2))
        lines += [b"X-Pad-%d: v" % index for index in range(count)]
    elif shape == "long-start":
        lines[0] = b"GET /" + b"a" * draw(st.integers(MAX_LINE - 16, MAX_LINE)) + b" HTTP/1.1"
    elif shape == "long-field":
        lines.append(b"X-Long: " + b"v" * draw(st.integers(MAX_LINE - 16, MAX_LINE)))
    elif shape == "long-blank":
        blanks = draw(st.sampled_from([b" ", b"\t"])) * draw(st.integers(MAX_LINE - 16, MAX_LINE))
        lines.append(b"X-Blank:" + blanks + draw(st.sampled_from([b"", b"v", b"\x00", b"\x7f"])))
    data = b"".join(line + draw(TERMINATORS) for line in lines)
    return data + draw(TERMINATORS) + draw(st.binary(max_size=64))


class _Sink:
    """Stands in for the socket an interim ``100 Continue`` goes to."""

    def __init__(self):
        self.sent = b""

    def sendall(self, data):
        self.sent += data


@settings(max_examples=400, deadline=None)
@given(data=requests())
def test_request_reader_parses_or_raises_a_framing_error(data):
    sink = _Sink()
    try:
        request = read_request(io.BufferedReader(io.BytesIO(data)), sink)
    except WireError as error:
        assert error.status in FRAMING_STATUSES, error
        return
    assert request is not None  # the input is never empty
    assert request.method in ("GET", "POST")
    assert request.path.isascii() and " " not in request.path
    for name, value in request.headers.items():
        assert name == name.lower() and name != "transfer-encoding"
        assert not {"\r", "\n", "\0"} & set(value)
        assert value == value.strip(" \t")
    assert sink.sent in (b"", b"HTTP/1.1 100 Continue\r\n\r\n")


@pytest.mark.parametrize(
    "data, status",
    [
        (b"", None),  # the client is done
        (b"GET /x HTTP/1.1\r\nX-A: a\x00b\r\n\r\n", 400),
        (b"GET /x HTTP/1.1\r\nHost: x\r\n", 400),  # cut short
    ],
)
def test_request_reader_examples(data, status):
    stream = io.BufferedReader(io.BytesIO(data))
    if status is None:
        assert read_request(stream, _Sink()) is None
        return
    with pytest.raises(WireError) as excinfo:
        read_request(stream, _Sink())
    assert excinfo.value.status == status


#: A header value that is one long blank run ending in a control byte:
#: a field pattern that backtracks between two blank runs takes time
#: quadratic in the run to reject it (seconds per line at 64 KiB).
BLANK_RUNS = [
    pytest.param(b" ", b"\x7f", id="spaces-del"),
    pytest.param(b"\t", b"\x00", id="tabs-nul"),
]


def _blank_run_request(blank: bytes, tail: bytes) -> bytes:
    field = b"X:" + blank * (MAX_LINE - 5) + tail + b"\r\n"  # MAX_LINE bytes
    return b"GET /healthz HTTP/1.1\r\n" + field + b"\r\n"


@pytest.mark.parametrize("blank, tail", BLANK_RUNS)
def test_a_long_blank_run_is_rejected_in_linear_time(blank, tail):
    stream = io.BufferedReader(io.BytesIO(_blank_run_request(blank, tail)))
    started = time.perf_counter()
    with pytest.raises(WireError) as excinfo:
        read_request(stream, _Sink())
    assert time.perf_counter() - started < 0.5
    assert excinfo.value.status == 400


def test_repeated_field_keeps_its_first_value_and_get_ignores_case():
    data = b"POST /fetch HTTP/1.1\r\nX-Repro-Trace: a:b\r\nx-repro-trace: c:d\r\n\r\n"
    request = read_request(io.BufferedReader(io.BytesIO(data)), _Sink())
    assert request.headers.get("X-REPRO-TRACE") == "a:b"
    assert request.headers.get("Content-Length") is None
    assert request.close_connection is False


# -- live hosts ---------------------------------------------------------------


def test_live_host_answers_every_request_without_a_500(host):
    @settings(max_examples=120, deadline=None)
    @given(data=requests())
    def exchange(data):
        responses = _exchange(host, data)
        assert responses, "no response to a non-empty request"
        for status, fields, body in responses:
            assert status != 500
            if status in FRAMING_STATUSES:
                _assert_structured(status, fields, body)

    exchange()
    path = "/healthz" if isinstance(host, CacheDaemon) else "/metrics"
    (status, _fields, _body), = _exchange(host, _request(f"GET {path} HTTP/1.1"))
    assert status == 200


@pytest.mark.parametrize(
    "head, status",
    [
        ("PUT /healthz HTTP/1.1\r\nHost: x\r\nContent-Length: 0", 501),
        ("HEAD /metrics HTTP/1.1\r\nHost: x", 501),
        ("GET /" + "a" * (MAX_LINE - 13) + " HTTP/1.1", 414),  # a 65,537-byte line
        ("GET /healthz HTTP/1.1\r\n" + "\r\n".join(f"X-{i}: v" for i in range(101)), 431),
        ("GET /healthz HTTP/1.1\r\nX-Long: " + "v" * MAX_LINE, 431),
        ("GET /healthz HTTP/1.1\r\nTransfer-Encoding: chunked", 501),
        ("POST /open HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2", 400),
        ("GET /healthz HTTP/1.1\r\nX-A: 1\r\n  folded", 400),
        ("GET /healthz HTTP/3.0", 505),
        ("GET /healthz", 400),
    ],
    ids=["put", "head", "long-line", "101-headers", "long-field", "te", "two-lengths",
         "obs-fold", "version", "no-version"],
)
def test_framing_errors_are_structured_and_close(host, head, status):
    with socket.create_connection((host.host, host.port), timeout=5) as sock:
        # The second request must go unanswered: the error closes.
        _send(sock, _request(head, b"{}") + _request("GET /healthz HTTP/1.1"), half_close=False)
        (got, fields, body), = _parse_responses(_read_all(sock))
    assert got == status
    assert fields["connection"] == "close"
    _assert_structured(status, fields, body)


@pytest.mark.parametrize("blank, tail", BLANK_RUNS)
def test_live_host_rejects_a_long_blank_run_quickly(host, blank, tail):
    started = time.perf_counter()
    (status, fields, body), = _exchange(host, _blank_run_request(blank, tail), timeout=1.0)
    assert time.perf_counter() - started < 1.0
    assert status == 400 and fields["connection"] == "close"
    _assert_structured(status, fields, body)


def test_limits_admit_their_boundary(daemon):
    line = "GET /" + "a" * (MAX_LINE - 16) + " HTTP/1.1"  # 65,534 bytes + CRLF
    headers = "\r\n".join(f"X-{i}: v" for i in range(MAX_HEADERS))
    (status, _fields, _body), = _exchange(daemon, _request(line))
    assert status == 404  # framed, then routed
    (status, _fields, _body), = _exchange(
        daemon, _request("GET /healthz HTTP/1.1\r\n" + headers)
    )
    assert status == 200


def test_http10_closes_after_the_response(daemon):
    with socket.create_connection((daemon.host, daemon.port), timeout=5) as sock:
        sock.sendall(_request("GET /healthz HTTP/1.0"))
        (status, fields, body), = _parse_responses(_read_all(sock))  # no half-close
    assert status == 200 and json.loads(body)["ok"] is True
    assert fields["connection"] == "close"


def test_connection_close_is_honoured_and_echoed(daemon):
    with socket.create_connection((daemon.host, daemon.port), timeout=5) as sock:
        sock.sendall(
            _request("GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: keep-alive, Close")
            + _request("GET /healthz HTTP/1.1\r\nHost: x")
        )
        (status, fields, _body), = _parse_responses(_read_all(sock))
    assert status == 200 and fields["connection"] == "close"


def test_expect_100_continue_is_answered_before_the_body_is_read():
    body = json.dumps({"files": ["a", "b", "a"]}).encode()
    head = (
        f"POST /fetch HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}\r\n"
        "Expect: 100-continue"
    )
    with tiny_daemon() as daemon, socket.create_connection(
        (daemon.host, daemon.port), timeout=5
    ) as sock:
        sock.sendall(_request(head))
        interim = b""
        while not interim.endswith(b"\r\n\r\n"):
            chunk = sock.recv(1)
            assert chunk, "closed before 100 Continue"
            interim += chunk
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        assert daemon.accesses == 0  # the body has not been read yet
        sock.sendall(body)
        sock.shutdown(socket.SHUT_WR)
        (status, _fields, payload), = _parse_responses(_read_all(sock))
    assert status == 200 and json.loads(payload)["hits"] == 1


def test_pipelined_requests_are_answered_in_order():
    body = json.dumps({"file": "f1"}).encode()
    head = f"POST /open HTTP/1.1\r\nHost: x\r\nContent-Length: {len(body)}"
    with tiny_daemon() as daemon:
        responses = _exchange(
            daemon,
            _request(head, body) + _request(head, body) + _request("GET /healthz HTTP/1.1"),
        )
    assert [status for status, _f, _b in responses] == [200, 200, 200]
    first, second, health = (json.loads(body) for _s, _f, body in responses)
    assert (first["hit"], first["seq"]) == (False, 1)
    assert (second["hit"], second["seq"]) == (True, 2)
    assert health["ok"] is True


# -- close() drains the open connections -------------------------------------


class _LateRecorder(HttpHost):
    """A host that responds, sleeps, then records the request."""

    def __init__(self, delay: float):
        super().__init__("127.0.0.1", 0, "late-recorder")
        self.delay = delay
        self.recorded = []

    def _dispatch(self, request):
        request.respond(200, b"{}", "application/json")
        time.sleep(self.delay)
        self.recorded.append(request.path)


def test_close_waits_for_what_a_handler_records_after_responding():
    # Longer than the accept loop's 0.5 s poll, which close() waits out
    # anyway before it can drain.
    with _LateRecorder(0.75) as host:
        connection = http.client.HTTPConnection(host.host, host.port, timeout=5)
        connection.request("GET", "/late")
        assert connection.getresponse().read() == b"{}"
        started = time.monotonic()
    try:
        assert host.recorded == ["/late"]
        # The connection, idle in keep-alive, was ended rather than waited on.
        assert time.monotonic() - started < CLOSE_TIMEOUT
        assert connection.sock.recv(1) == b""
    finally:
        connection.close()


# -- interoperability --------------------------------------------------------


def test_stdlib_http_client_and_urllib_against_the_daemon():
    with tiny_daemon() as daemon:  # fresh: the hits below count from zero
        connection = http.client.HTTPConnection(daemon.host, daemon.port, timeout=5)
        try:
            for expected_hits in (0, 2):  # two requests on one keep-alive connection
                connection.request(
                    "POST", "/fetch", body=b'{"files": ["a", "b"]}',
                    headers={"Content-Type": "application/json"},
                )
                response = connection.getresponse()
                assert response.status == 200
                assert response.getheader("Content-Type") == "application/json"
                assert json.loads(response.read())["hits"] == expected_hits
        finally:
            connection.close()
        with urllib.request.urlopen(f"{daemon.url}/healthz", timeout=5) as response:
            assert response.status == 200 and json.loads(response.read())["ok"] is True
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(f"{daemon.url}/nope", timeout=5)
        with excinfo.value as error:
            assert error.code == 404 and json.loads(error.read())["status"] == 404


def test_stdlib_http_client_and_urllib_against_the_metrics_server(metrics):
    connection = http.client.HTTPConnection(metrics.host, metrics.port, timeout=5)
    try:
        for _ in range(2):
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            assert response.status == 200
            assert response.read().decode() == METRICS_TEXT
    finally:
        connection.close()
    with urllib.request.urlopen(metrics.url, timeout=5) as response:
        assert response.read().decode() == METRICS_TEXT


@pytest.mark.skipif(shutil.which("curl") is None, reason="curl is not installed")
def test_curl_against_both_hosts(metrics):
    # A body over 1 KiB: curl may send it after an Expect: 100-continue.
    files = [f"file{index:05d}" for index in range(200)]
    with tiny_daemon() as daemon:  # fresh: its access count is checked
        result = subprocess.run(
            ["curl", "-sS", "--max-time", "10", "-H", "Content-Type: application/json",
             "--data-binary", json.dumps({"files": files}), f"{daemon.url}/fetch",
             "--next", "-sS", "--max-time", "10", f"{daemon.url}/healthz",
             "--next", "-sS", "--max-time", "10", metrics.url],
            capture_output=True, text=True, timeout=30,
        )
        assert result.returncode == 0, result.stderr
        decoder = json.JSONDecoder()
        fetch, end = decoder.raw_decode(result.stdout)
        health, end2 = decoder.raw_decode(result.stdout, end)
        assert fetch["count"] == len(files) and health["ok"] is True
        assert result.stdout[end2:] == METRICS_TEXT
        assert daemon.accesses == len(files)


# -- the client's retry and framing contract ---------------------------------


@contextmanager
def _canned_server(answer: bytes, connections: int):
    """Answer each connection's first request with ``answer``, then close it.

    The close carries no ``Connection: close``: to the client it looks
    like a keep-alive connection the server dropped while idle.
    """
    listener = socket.create_server(("127.0.0.1", 0))
    closed = threading.Semaphore(0)

    def serve():
        for _ in range(connections):
            sock, _address = listener.accept()
            with sock, sock.makefile("rb") as stream:
                while stream.readline() not in (b"\r\n", b""):
                    pass
                sock.sendall(answer)
            closed.release()

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{listener.getsockname()[1]}", closed
    finally:
        thread.join(timeout=10)
        listener.close()
    assert not thread.is_alive()


OK_ANSWER = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}"


def test_client_retries_once_after_the_server_dropped_an_idle_connection():
    with _canned_server(OK_ANSWER, connections=3) as (url, closed):
        with ServeConnection(url, timeout=5) as conn:
            assert conn.request("GET", "/healthz") == (200, {})
            assert conn.retries == 0
            for expected in (1, 2):
                assert closed.acquire(timeout=5)  # the server dropped the connection
                assert conn.request("GET", "/healthz") == (200, {})
                assert conn.retries == expected  # exactly one retry per request


@pytest.mark.parametrize(
    "answer",
    [
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n2\r\n{}\r\n0\r\n\r\n",
        b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\n{}",
        b"HTTP/1.1 2000 OK\r\nContent-Length: 2\r\n\r\n{}",
        b"ICY 200 OK\r\nContent-Length: 2\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nContent-Length: x\r\n\r\n{}",
        b"HTTP/1.1 200 OK\r\nBad Field\r\n\r\n{}",
    ],
    ids=["no-length", "chunked", "two-lengths", "short-body", "status", "version",
         "bad-length", "bad-field"],
)
def test_client_raises_slam_error_on_a_framing_violation(answer):
    with _canned_server(answer, connections=1) as (url, _closed):
        with ServeConnection(url, timeout=5) as conn:
            with pytest.raises(SlamError, match="failed"):
                conn.request("GET", "/healthz")
            assert conn.retries == 0
