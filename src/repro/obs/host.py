"""The one HTTP/1.1 framing layer of the served path, and its threaded host.

:class:`HttpHost` is the server under ``CacheDaemon`` and
``MetricsServer``.  ``socketserver.ThreadingTCPServer`` gives it the
accept loop, one daemon thread per connection and the port-0 bind (read
back into :attr:`host` and :attr:`port`); the host adds the serve
thread, an idempotent :meth:`close` that drains the open connections,
and the framing.  It reads each request with :func:`read_request`,
answers a framing error itself, and hands every well-framed ``GET`` and
``POST`` to :meth:`_dispatch` as a :class:`Request`: routing, body
limits and error mapping stay with the subclass.  :func:`read_head` is
the one head parser; the daemon's client (``repro.serve.client``) reads
responses with it too.

Framing is strict where a lenient reading could frame a body as the
next request:

* a line over :data:`MAX_LINE` bytes (the standard library HTTP
  server's line limit) is a 414 (request line) or a 431 (header line),
  and more than :data:`MAX_HEADERS` fields is a 431;
* a malformed request or field line, an obs-fold (a field line that
  starts with a blank), a control character in a field value, a
  repeated ``Content-Length`` or a head cut short by the end of the
  stream is a 400;
* any ``Transfer-Encoding``, and any method but ``GET`` and ``POST``,
  is a 501; an HTTP version other than 1.x is a 505.

A framing error raises :class:`WireError`; the host answers it with the
``{"error", "status"}`` JSON body and closes the connection.
``Expect: 100-continue`` gets an interim ``100 Continue`` before
dispatch.  HTTP/1.0 and ``Connection: close`` end the connection after
the response, which then says ``Connection: close``.  Every response
goes out in one send.
"""

from __future__ import annotations

import functools
import json
import re
import socket
import socketserver
import threading
import time
from typing import BinaryIO, Iterable, Optional, Set, Tuple

from ..errors import ReproError

__all__ = [
    "Headers",
    "HttpHost",
    "MAX_HEADERS",
    "MAX_LINE",
    "Request",
    "WireError",
    "error_body",
    "read_head",
    "read_request",
]

#: Longest head line in bytes, terminator included (the standard
#: library HTTP server's limit), and most header fields per message.
MAX_LINE = 65536
MAX_HEADERS = 100

#: Seconds :meth:`HttpHost.close` waits for the serve loop to stop, and
#: then for the open connections' handlers to finish.
CLOSE_TIMEOUT = 5.0

#: Reason phrases of the final statuses the hosts send.
REASONS = {
    200: "OK",
    400: "Bad Request",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Content Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    505: "HTTP Version Not Supported",
}

_TOKEN = rb"[!#$%&'*+.^_`|~0-9A-Za-z-]+"
#: ``name: value``; the value holds no control character but tab.  One
#: run of the value class follows the colon (blanks are stripped after
#: the match), so a failing line is rejected in linear time.
_FIELD = re.compile(rb"(" + _TOKEN + rb"):([\t\x20-\x7e\x80-\xff]*)")
_REQUEST_LINE = re.compile(rb"(" + _TOKEN + rb") ([\x21-\x7e]+) HTTP/(\d)\.(\d)")
_DAYS = ("Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun")
_MONTHS = ("Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec")


class WireError(ReproError):
    """A message broke HTTP framing or the wire schema; carries the HTTP status."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


class Headers(dict):
    """Header fields keyed by lower-case name; :meth:`get` ignores case."""

    __slots__ = ()

    def get(self, name: str, default=None):
        return dict.get(self, name.lower(), default)

    @property
    def connection_close(self) -> bool:
        """Whether the ``Connection`` field lists ``close``."""
        value = dict.get(self, "connection")
        return value is not None and "close" in (
            token.strip() for token in value.lower().split(",")
        )


def error_body(message: str, status: int) -> bytes:
    """The structured JSON error payload every failure path returns."""
    return json.dumps({"error": message, "status": status}).encode("utf-8")


def _strip(line: bytes, too_long: int) -> bytes:
    """One head line without its CRLF (or bare LF) terminator."""
    if len(line) > MAX_LINE:
        raise WireError(f"line longer than {MAX_LINE} bytes", too_long)
    if line[-2:] == b"\r\n":
        return line[:-2]
    if line[-1:] == b"\n":
        return line[:-1]
    raise WireError("the stream ended inside a message head")


def read_head(rfile: BinaryIO) -> Optional[Tuple[bytes, Headers]]:
    """Read one message head: its start line and its header fields.

    Returns None when the stream ends before the head's first byte.  A
    field repeated (other than ``Content-Length``) keeps its first
    value.  Raises :class:`WireError` as the module docstring lists.
    """
    line = rfile.readline(MAX_LINE + 1)
    if not line:
        return None
    start = _strip(line, 414)
    headers = Headers()
    for _ in range(MAX_HEADERS + 1):
        line = _strip(rfile.readline(MAX_LINE + 1), 431)
        if not line:
            return start, headers
        match = _FIELD.fullmatch(line)
        if match is None:
            raise WireError(f"malformed header line {line[:80]!r}")
        name, value = match.groups()
        name = name.decode("ascii").lower()
        if name == "transfer-encoding":
            raise WireError("Transfer-Encoding is not supported", 501)
        if name not in headers:
            headers[name] = value.strip(b" \t").decode("latin-1")
        elif name == "content-length":
            raise WireError("repeated Content-Length")
    raise WireError(f"more than {MAX_HEADERS} header fields", 431)


@functools.lru_cache(maxsize=1)
def _http_date(second: int) -> str:
    """The ``Date`` field value of a second since the epoch."""
    now = time.gmtime(second)
    return (
        f"{_DAYS[now.tm_wday]}, {now.tm_mday:02d} {_MONTHS[now.tm_mon - 1]} "
        f"{now.tm_year} {now.tm_hour:02d}:{now.tm_min:02d}:{now.tm_sec:02d} GMT"
    )


def _message(
    status: int,
    body: bytes,
    content_type: str,
    headers: Iterable[Tuple[str, str]],
    close: bool,
) -> bytes:
    head = (
        f"HTTP/1.1 {status} {REASONS.get(status, '')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Date: {_http_date(int(time.time()))}\r\n"
    )
    for name, value in headers:
        head += f"{name}: {value}\r\n"
    if close:
        head += "Connection: close\r\n"
    return (head + "\r\n").encode("latin-1") + body


class Request:
    """One framed request, as :meth:`HttpHost._dispatch` receives it.

    ``path`` is the request target and ``rfile`` the connection's
    stream, positioned at the body.  Set ``close_connection`` before
    :meth:`respond` to end the connection after the response.
    """

    __slots__ = ("method", "path", "headers", "rfile", "close_connection", "_sock")

    def __init__(self, method, path, headers, rfile, sock, close_connection):
        self.method = method
        self.path = path
        self.headers = headers
        self.rfile = rfile
        self._sock = sock
        self.close_connection = close_connection

    def respond(
        self,
        status: int,
        body: bytes,
        content_type: str,
        headers: Iterable[Tuple[str, str]] = (),
    ) -> None:
        """Send one complete response; a client that went away is ignored."""
        message = _message(status, body, content_type, headers, self.close_connection)
        try:
            self._sock.sendall(message)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response; nothing to clean up


def read_request(rfile: BinaryIO, sock: socket.socket) -> Optional[Request]:
    """The next request on a connection, or None once the client is done.

    Raises :class:`WireError` (400, 414, 431, 501 or 505) for a
    request the host must refuse; answers ``Expect: 100-continue`` on
    ``sock``.
    """
    head = read_head(rfile)
    if head is None:
        return None
    line, headers = head
    match = _REQUEST_LINE.fullmatch(line)
    if match is None:
        raise WireError(f"malformed request line {line[:80]!r}")
    method, target, major, minor = match.groups()
    if major != b"1":
        raise WireError(f"HTTP/{major.decode()}.{minor.decode()} is not supported", 505)
    if method not in (b"GET", b"POST"):
        raise WireError(f"method {method.decode()} is not supported", 501)
    http11 = minor != b"0"
    close = not http11 or headers.connection_close
    if http11 and headers.get("expect", "").lower() == "100-continue":
        sock.sendall(b"HTTP/1.1 100 Continue\r\n\r\n")
    return Request(method.decode(), target.decode(), headers, rfile, sock, close)


class _Server(socketserver.ThreadingTCPServer):
    """The accept loop, which also tracks each connection until it is closed.

    A connection joins :attr:`open` when accepted, in the serve thread,
    and leaves it after its handler thread has served it and closed it;
    :attr:`drained` is notified on every leave.
    """

    allow_reuse_address = True  # a closed host's port rebinds at once
    daemon_threads = True  # a handler past close()'s timeout never blocks exit

    def __init__(self, address, handler):
        self.open: Set[socket.socket] = set()
        self.drained = threading.Condition()
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        with self.drained:
            self.open.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        super().shutdown_request(request)
        with self.drained:
            self.open.discard(request)
            self.drained.notify_all()


class HttpHost:
    """A bound threaded HTTP/1.1 server, serving from a daemon thread."""

    def __init__(self, host: str, port: int, thread_name: str):
        # socketserver calls its handler class as handler(request,
        # client_address, server); a bound method serves as one.
        try:
            self._server = _Server((host, port), self._serve_connection)
        except (OSError, OverflowError) as error:  # busy, unresolvable, out of range
            raise ReproError(f"cannot listen on {host}:{port}: {error}") from error
        self.host, self.port = self._server.server_address[:2]
        self._thread = threading.Thread(
            target=self._server.serve_forever, name=thread_name, daemon=True
        )
        self._closed = False

    def _dispatch(self, request: Request) -> None:
        raise NotImplementedError

    def _serve_connection(self, sock: socket.socket, _address, _server) -> None:
        """Serve one connection's requests in order until it ends."""
        # Without this, Nagle + delayed ACK can hold a small segment ~40ms.
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        rfile = sock.makefile("rb")
        try:
            while True:
                try:
                    request = read_request(rfile, sock)
                except WireError as error:
                    body = error_body(str(error), error.status)
                    sock.sendall(_message(error.status, body, "application/json", (), True))
                    return
                if request is None:
                    return
                self._dispatch(request)
                if request.close_connection:
                    return
        except ConnectionError:
            pass  # the client went away; there is no one to answer
        finally:
            rfile.close()

    def start(self) -> "HttpHost":
        """Serve from the background thread."""
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving, drain the open connections, release the socket.

        Safe to call twice.  Once the accept loop has stopped, each open
        connection's read side is shut: an idle keep-alive handler reads
        the end of the stream, and a handler mid-request still sends its
        response.  ``close()`` then waits up to :data:`CLOSE_TIMEOUT`
        seconds for every handler to finish, so what a handler records
        after responding is recorded before ``close()`` returns.

        ``shutdown()`` is only issued when the serve loop actually ran
        (it blocks forever otherwise); the socket is released either
        way, so a constructed-but-never-started host still cleans up.
        """
        if self._closed:
            return
        self._closed = True
        server = self._server
        if self._thread.is_alive():
            server.shutdown()
            self._thread.join(timeout=CLOSE_TIMEOUT)
            with server.drained:
                for sock in server.open:
                    try:
                        sock.shutdown(socket.SHUT_RD)
                    except OSError:
                        pass  # the peer or the handler closed it first
                server.drained.wait_for(lambda: not server.open, CLOSE_TIMEOUT)
        server.server_close()

    def __enter__(self):
        if not self._thread.is_alive():
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
