"""The stdlib HTTP server for :class:`ServeService`.

A deliberately small JSON-over-HTTP surface on
:class:`http.server.ThreadingHTTPServer` (one thread per connection;
they all funnel into the engine's bounded queue, so concurrency is
governed by backpressure, not by thread count):

- ``GET  /healthz``  → service identity and liveness;
- ``GET  /metrics``  → counters + latency histograms (JSON);
- ``POST /predict``  → ``{"rows": [[...], ...]}`` → labels/uncertainty;
- ``POST /feedback`` → ``{"limit": N}`` → labeling queue drain.

Routing, validation, and the error-status contract (400 validation,
503 shed, 504 timeout, 404 unknown route or method, 500 other serve
failures) live in :class:`RequestDispatcher`, apart from the socket
plumbing in :class:`_Handler`, so they are testable without a server.
Any other path is a 404: one server serves one model.  Connections are
HTTP/1.1 keep-alive, written with ``TCP_NODELAY`` (headers and body go
out in two writes, so Nagle plus the client's delayed ACK would
otherwise hold every reply ~40 ms), and an idle connection is closed
after :attr:`_Handler.timeout` seconds so it cannot hold a server
thread forever.

Shutdown drains: :meth:`ServeHTTPServer.close` first stops accepting
connections, then quiesces the service so every request already in the
engine's queue is batched, processed, and answered before the engine
goes down — in-flight callers get real replies, not abandoned futures.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any

from ..exceptions import BackpressureError, RequestTimeoutError, ServeError, ValidationError
from .service import ServeService

__all__ = ["RequestDispatcher", "ServeHTTPServer", "serve_http"]

#: Largest request body accepted, to bound memory per connection.
MAX_BODY_BYTES = 16 * 1024 * 1024

#: Typed-error → HTTP status, most specific first (the response contract).
_ERROR_STATUS = (
    (ValidationError, 400),
    (BackpressureError, 503),
    (RequestTimeoutError, 504),
    (ServeError, 500),
)


class RequestDispatcher:
    """HTTP semantics — routing, validation, error mapping — sans sockets.

    The handler hands paths and parsed JSON in and gets
    ``(status, payload)`` out; it never interprets errors itself.
    """

    def __init__(self, service: ServeService):
        self.service = service

    @staticmethod
    def rows_of(payload: dict) -> Any:
        rows = payload.get("rows")
        if rows is None:
            raise ValidationError('predict requests need a "rows" field: {"rows": [[...], ...]}')
        return rows

    @staticmethod
    def limit_of(payload: dict) -> int | None:
        limit = payload.get("limit")
        if limit is not None and (not isinstance(limit, int) or limit < 0):
            raise ValidationError(f'"limit" must be a non-negative integer, got {limit!r}')
        return limit

    @staticmethod
    def not_found(message: str) -> tuple[int, dict]:
        return 404, {"error": message, "type": "NotFound"}

    @staticmethod
    def error_response(error: BaseException) -> tuple[int, dict]:
        """The typed-error contract: one (status, JSON body) per error class."""
        for kind, status in _ERROR_STATUS:
            if isinstance(error, kind):
                return status, {"error": str(error), "type": type(error).__name__}
        raise error

    def get(self, path: str) -> tuple[int, dict]:
        if path == "/healthz":
            return 200, self.service.healthz()
        if path == "/metrics":
            return 200, self.service.metrics()
        return self.not_found(f"no route {path!r}")

    def post(self, path: str, payload: dict) -> tuple[int, dict]:
        """Blocking POST handling: route, validate, predict or drain, map errors."""
        route = path.rstrip("/")
        try:
            if route == "/predict":
                return 200, self.service.predict(self.rows_of(payload))
            if route == "/feedback":
                return 200, self.service.feedback(self.limit_of(payload))
        except (ValidationError, ServeError) as error:
            return self.error_response(error)
        return self.not_found(f"no route {path!r}")


class _Handler(BaseHTTPRequestHandler):
    """Socket plumbing only; all semantics live in the dispatcher."""

    server: "ServeHTTPServer"
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    timeout = 30.0  # seconds a connection may sit idle (or stall mid-request)

    # -- plumbing ----------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # silence per-request stderr lines; metrics cover observability

    def _send_json(self, status: int, payload: dict) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self) -> dict:
        try:
            length = int(self.headers.get("Content-Length", 0))
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            # The body stays unread, so this connection's framing is lost.
            self.close_connection = True
            if length < 0:
                raise ValidationError("invalid Content-Length")
            raise ValidationError(f"request body too large ({length} bytes > {MAX_BODY_BYTES})")
        raw = self.rfile.read(length) if length else b"{}"
        return parse_json_body(raw)

    # -- routes ------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib dispatch name
        status, payload = self.server.dispatcher.get(self.path)
        self._send_json(status, payload)

    def do_POST(self) -> None:  # noqa: N802 - stdlib dispatch name
        dispatcher = self.server.dispatcher
        try:
            payload = self._read_body()
        except ValidationError as error:
            status, body = dispatcher.error_response(error)
        else:
            status, body = dispatcher.post(self.path, payload)
        self._send_json(status, body)

    def _no_route(self) -> None:
        self.close_connection = True  # any request body stays unread
        self._send_json(*self.server.dispatcher.not_found(f"no route {self.command} {self.path!r}"))

    do_PUT = do_DELETE = do_PATCH = _no_route


def parse_json_body(raw: bytes) -> dict:
    """Decode a request body to the JSON object the API requires (else a 400)."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ValidationError(f"request body is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise ValidationError("request body must be a JSON object")
    return payload


class ServeHTTPServer(ThreadingHTTPServer):
    """A :class:`ThreadingHTTPServer` bound to one service."""

    daemon_threads = True

    def __init__(self, service: ServeService, host: str = "127.0.0.1", port: int = 0):
        super().__init__((host, port), _Handler)
        self.service = service
        self.dispatcher = RequestDispatcher(service)

    @property
    def url(self) -> str:
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def serve_background(self) -> threading.Thread:
        """Serve on a daemon thread; returns it (caller keeps the server)."""
        thread = threading.Thread(target=self.serve_forever, name="repro-serve-http", daemon=True)
        thread.start()
        return thread

    def close(self, *, drain_timeout: float = 5.0) -> None:
        """Stop accepting, drain in-flight requests, then close the engine.

        Order matters: new connections are refused first, then
        ``quiesce`` waits (up to ``drain_timeout``) for every request
        already accepted into the engine queue to be batched and
        answered, and only then does the engine shut down.  Closing the
        engine first would strand queued requests behind the shutdown
        sentinel — their handler threads would time out holding open
        connections (the pre-PR-9 behaviour).
        """
        self.shutdown()
        self.server_close()
        try:
            self.service.quiesce(drain_timeout)
        finally:
            self.service.close()


def serve_http(service: ServeService, host: str = "127.0.0.1", port: int = 0) -> ServeHTTPServer:
    """Bind and background-start an HTTP server for ``service``.

    ``port=0`` lets the OS pick a free port (read it from ``server.url``),
    which is what tests and single-machine demos want.
    """
    server = ServeHTTPServer(service, host, port)
    server.serve_background()
    return server
