"""The one threaded HTTP host under ``CacheDaemon`` and ``MetricsServer``.

:class:`HttpHost` owns binding (port 0 read back into :attr:`host` and
:attr:`port`), the serve thread, an idempotent :meth:`close`, the
keep-alive handler and :meth:`respond`.  A subclass implements
:meth:`_dispatch`, which every ``GET`` and ``POST`` reaches with the
live handler: routing, body limits and error mapping stay with it.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Iterable, Tuple

__all__ = ["HttpHost"]


class HttpHost:
    """A bound ``ThreadingHTTPServer`` serving from a daemon thread."""

    def __init__(self, host: str, port: int, thread_name: str):
        dispatch = self._dispatch

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"  # keep-alive: clients reuse connections
            # Without this, Nagle + delayed ACK adds ~40ms to every small
            # keep-alive response and latency measures the TCP stack.
            disable_nagle_algorithm = True

            def do_GET(self):  # noqa: N802 - http.server API
                dispatch(self, "GET")

            def do_POST(self):  # noqa: N802 - http.server API
                dispatch(self, "POST")

            def log_message(self, format, *args):  # noqa: A002 - API name
                pass  # per-request lines would drown the terminal under load

        self._httpd = ThreadingHTTPServer((host, port), Handler)
        self.host, self.port = self._httpd.server_address[:2]
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name=thread_name, daemon=True
        )
        self._closed = False

    def _dispatch(self, handler: BaseHTTPRequestHandler, method: str) -> None:
        raise NotImplementedError

    def start(self) -> "HttpHost":
        """Serve from the background thread."""
        self._thread.start()
        return self

    def close(self) -> None:
        """Stop serving and release the socket; safe to call twice.

        ``shutdown()`` is only issued when the serve loop actually ran
        (it blocks forever otherwise); the socket is released either
        way, so a constructed-but-never-started host still cleans up.
        """
        if self._closed:
            return
        self._closed = True
        if self._thread.is_alive():
            self._httpd.shutdown()
            self._thread.join(timeout=5)
        self._httpd.server_close()

    def __enter__(self):
        if not self._thread.is_alive():
            self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @staticmethod
    def respond(
        handler: BaseHTTPRequestHandler,
        status: int,
        body: bytes,
        content_type: str,
        headers: Iterable[Tuple[str, str]] = (),
    ) -> None:
        """Write one complete response; a client that went away is ignored."""
        try:
            handler.send_response(status)
            handler.send_header("Content-Type", content_type)
            handler.send_header("Content-Length", str(len(body)))
            for name, value in headers:
                handler.send_header(name, value)
            handler.end_headers()
            handler.wfile.write(body)
        except (BrokenPipeError, ConnectionResetError):  # pragma: no cover
            pass  # client went away mid-response; nothing to clean up
