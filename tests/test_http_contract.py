"""Dispatcher, error-contract and connection tests for the serve HTTP server.

Every semantic lives in :class:`~repro.serve.http.RequestDispatcher`,
tested directly first; the remaining tests hold the threaded server to
it **on real sockets**:

- the documented error contract (400 malformed, oversized or
  mis-framed, 404 unknown route or method, 503 shed, 504 timeout) with
  the exact JSON error bodies;
- HTTP/1.1 connection handling: keep-alive, pipelining,
  ``Connection: close``, byte-dribbled requests, mid-request
  disconnects, idle-connection reaping, and keep-alive replies free of
  the Nagle/delayed-ACK stall;
- shutdown *drains*: requests already accepted into the engine queue
  get real replies before the engine goes down, and a request stranded
  behind the shutdown sentinel is failed fast with a typed error
  instead of holding its waiter until timeout.
"""

import http.client
import json
import socket
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import repro.serve.http as serve_http_module
from repro.exceptions import (
    BackpressureError,
    RequestTimeoutError,
    ServeError,
    ValidationError,
)
from repro.runtime.clock import Stopwatch
from repro.serve import InferenceEngine, RequestDispatcher, ServeConfig, ServeService, serve_http
from repro.serve.engine import _PendingRequest
from repro.serve.http import MAX_BODY_BYTES


def _host_port(url: str) -> tuple[str, int]:
    host, _, port = url.split("//", 1)[-1].partition(":")
    return host, int(port)


def _request_bytes(method: str, path: str, body: bytes = b"", headers: dict | None = None) -> bytes:
    lines = [f"{method} {path} HTTP/1.1", "Host: test", f"Content-Length: {len(body)}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def _predict_bytes(rows) -> bytes:
    return _request_bytes("POST", "/predict", json.dumps({"rows": rows}).encode())


class _Client:
    """A raw HTTP/1.1 test client with a *buffered* reader.

    Buffering matters: pipelined responses can land in one TCP segment,
    so the reader must keep leftover bytes for the next read instead of
    discarding them with the recv buffer.
    """

    def __init__(self, url: str, timeout: float = 5.0):
        self.sock = socket.create_connection(_host_port(url), timeout=timeout)
        self.sock.settimeout(timeout)
        self.reader = self.sock.makefile("rb")

    def send_raw(self, data: bytes) -> None:
        self.sock.sendall(data)

    def read_response(self) -> tuple[int, dict, bytes]:
        """Read one full response; returns (status, headers, body)."""
        status_line = self.reader.readline()
        if not status_line:
            raise ConnectionError("server closed before a response")
        status = int(status_line.split(b" ", 2)[1])
        headers = {}
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        body = self.reader.read(int(headers.get("content-length", "0")))
        return status, headers, body

    def exchange(self, method: str, path: str, payload=None, **kwargs):
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        self.send_raw(_request_bytes(method, path, body, **kwargs))
        return self.read_response()

    def at_eof(self) -> bool:
        """True once the server has closed its side of the connection."""
        return self.reader.read(1) == b""

    def close(self) -> None:
        try:
            self.reader.close()
        except OSError:
            pass
        self.sock.close()

    def __enter__(self) -> "_Client":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _raw_exchange(url: str, data: bytes, *, timeout: float = 5.0) -> tuple[int, bytes]:
    """Send raw bytes on a fresh connection, read one response."""
    with _Client(url, timeout) as client:
        client.send_raw(data)
        status, _, body = client.read_response()
    return status, body


def _serve(registry, **config) -> tuple[ServeService, object]:
    service = ServeService.from_registry(
        "scream", directory=registry.directory, config=ServeConfig(**config)
    )
    return service, serve_http(service)


@pytest.fixture()
def server(served_scream_registry):
    _, server = _serve(served_scream_registry, max_batch=16, max_delay=0.005)
    yield server
    server.close()


def _stub_service():
    """Just enough surface for dispatcher tests: no engine, no model."""
    return SimpleNamespace(
        healthz=lambda: {"status": "ok", "version": 1},
        metrics=lambda: {"counters": {"requests": 0}},
        predict=lambda rows: {"rows": rows},
        feedback=lambda limit: {"limit": limit},
    )


class TestRequestDispatcher:
    def test_post_routes(self):
        dispatcher = RequestDispatcher(_stub_service())
        assert dispatcher.post("/predict", {"rows": [[1.0]]}) == (200, {"rows": [[1.0]]})
        assert dispatcher.post("/predict/", {"rows": [[1.0]]}) == (200, {"rows": [[1.0]]})
        assert dispatcher.post("/feedback", {"limit": 2}) == (200, {"limit": 2})
        for path in ("/nope", "/predict/m", "/feedback/m", "/predict/m/extra", "/loop", "/", ""):
            assert dispatcher.post(path, {"rows": [[1.0]]}) == (
                404, {"error": f"no route {path!r}", "type": "NotFound"}
            )

    def test_payload_validation(self):
        with pytest.raises(ValidationError, match='"rows"'):
            RequestDispatcher.rows_of({})
        assert RequestDispatcher.rows_of({"rows": [[1.0]]}) == [[1.0]]
        assert RequestDispatcher.limit_of({}) is None
        assert RequestDispatcher.limit_of({"limit": 3}) == 3
        for bad in (-1, "five", 1.5):
            with pytest.raises(ValidationError, match='"limit"'):
                RequestDispatcher.limit_of({"limit": bad})

    def test_error_status_contract(self):
        cases = [
            (ValidationError("bad"), 400, "ValidationError"),
            (BackpressureError("full"), 503, "BackpressureError"),
            (RequestTimeoutError("late"), 504, "RequestTimeoutError"),
            (ServeError("broke"), 500, "ServeError"),
        ]
        for error, status, type_name in cases:
            got_status, payload = RequestDispatcher.error_response(error)
            assert got_status == status
            assert payload == {"error": str(error), "type": type_name}
        with pytest.raises(KeyError):  # unmapped errors re-raise, never 200
            RequestDispatcher.error_response(KeyError("untyped"))

    def test_get_routes(self):
        dispatcher = RequestDispatcher(_stub_service())
        assert dispatcher.get("/healthz") == (200, {"status": "ok", "version": 1})
        assert dispatcher.get("/metrics") == (200, {"counters": {"requests": 0}})
        for path in ("/nope", "/loop/status"):
            status, payload = dispatcher.get(path)
            assert status == 404 and payload["type"] == "NotFound"

    def test_post_against_live_service(self, served_scream_registry, scream_data):
        service = ServeService.from_registry(
            "scream",
            directory=served_scream_registry.directory,
            config=ServeConfig(max_batch=8, max_delay=0.0),
        )
        with service:
            dispatcher = RequestDispatcher(service)
            status, payload = dispatcher.post("/predict", {"rows": scream_data.X[:2].tolist()})
            assert status == 200 and payload["model"] == "scream"
            status, payload = dispatcher.post("/predict/ghost", {"rows": [[0.0]]})
            assert status == 404 and payload["type"] == "NotFound"
            status, payload = dispatcher.post("/predict", {})
            assert status == 400 and payload["type"] == "ValidationError"
            status, payload = dispatcher.post("/feedback", {"limit": 5})
            assert status == 200 and "candidates" in payload


class TestErrorContract:
    """One request per documented failure."""

    def test_malformed_json_is_400(self, server):
        status, body = _raw_exchange(server.url, _request_bytes("POST", "/predict", b"not json"))
        assert status == 400
        payload = json.loads(body)
        assert payload["type"] == "ValidationError"
        assert payload["error"].startswith("request body is not valid JSON:")

    def test_non_object_json_is_400(self, server):
        status, body = _raw_exchange(server.url, _request_bytes("POST", "/predict", b"[1, 2]"))
        assert status == 400
        assert json.loads(body)["error"] == "request body must be a JSON object"

    def test_missing_rows_is_400(self, server):
        status, body = _raw_exchange(server.url, _request_bytes("POST", "/predict", b"{}"))
        assert status == 400
        assert '"rows"' in json.loads(body)["error"]

    def test_wrong_feature_count_is_400(self, server):
        status, body = _raw_exchange(server.url, _predict_bytes([[1.0]]))
        assert status == 400
        assert "features" in json.loads(body)["error"]

    def test_unknown_route_is_404(self, server):
        status, body = _raw_exchange(server.url, _request_bytes("POST", "/nope", b"{}"))
        assert status == 404
        assert json.loads(body)["type"] == "NotFound"

    def test_unknown_method_is_404(self, server):
        with _Client(server.url) as client:
            status, headers, body = client.exchange("PUT", "/predict", {"rows": [[0.0]]})
            assert status == 404
            assert json.loads(body) == {"error": "no route PUT '/predict'", "type": "NotFound"}
            assert headers.get("connection") == "close"  # the body went unread

    def test_unknown_model_is_404(self, server):
        """A server serves one model: a model-named path is an unknown route."""
        status, body = _raw_exchange(server.url, _request_bytes(
            "POST", "/predict/ghost", json.dumps({"rows": [[0.0]]}).encode()
        ))
        assert status == 404
        assert json.loads(body) == {"error": "no route '/predict/ghost'", "type": "NotFound"}

    def test_oversized_body_is_400(self, server):
        declared = MAX_BODY_BYTES + 1
        request = f"POST /predict HTTP/1.1\r\nHost: t\r\nContent-Length: {declared}\r\n\r\n".encode("latin-1")
        status, body = _raw_exchange(server.url, request)
        assert status == 400
        payload = json.loads(body)
        assert payload["type"] == "ValidationError"
        assert payload["error"] == f"request body too large ({declared} bytes > {MAX_BODY_BYTES})"

    def test_oversized_body_rejected_without_reading_it(self, server):
        """Rejected from the declared length alone: no body byte is sent or read,
        and the connection closes because its framing is lost."""
        declared = MAX_BODY_BYTES + 1
        with _Client(server.url) as client:
            client.send_raw(f"POST /predict HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n".encode())
            status, headers, _ = client.read_response()
            assert status == 400
            assert headers.get("connection") == "close" and client.at_eof()

    def test_invalid_content_length_is_400(self, server):
        with _Client(server.url) as client:
            client.send_raw(b"POST /predict HTTP/1.1\r\nContent-Length: nope\r\n\r\n")
            status, headers, body = client.read_response()
            assert status == 400
            assert json.loads(body) == {"error": "invalid Content-Length", "type": "ValidationError"}
            assert headers.get("connection") == "close" and client.at_eof()

    def test_mid_request_disconnect_leaves_server_healthy(self, server, scream_data):
        request = _predict_bytes(scream_data.X[:1].tolist())
        host, port = _host_port(server.url)
        for _ in range(3):
            sock = socket.create_connection((host, port), timeout=5.0)
            sock.sendall(request[: len(request) // 2])
            sock.close()  # client gave up mid-send
        status, body = _raw_exchange(server.url, request)
        assert status == 200 and "labels" in json.loads(body)

    def test_mid_request_disconnect_does_not_wedge_server(self, server, scream_data):
        """Clients that vanish mid-body leave a live keep-alive connection served."""
        rows = scream_data.X[:1].tolist()
        request = _predict_bytes(rows)
        headers_end = request.index(b"\r\n\r\n") + 4
        with _Client(server.url) as keeper:
            status, _, _ = keeper.exchange("POST", "/predict", {"rows": rows})
            assert status == 200
            for _ in range(3):
                sock = socket.create_connection(_host_port(server.url), timeout=5.0)
                sock.sendall(request[: headers_end + (len(request) - headers_end) // 2])
                sock.close()  # gave up while the handler was reading the body
            status, _, body = keeper.exchange("POST", "/predict", {"rows": rows})
            assert status == 200 and "labels" in json.loads(body)


class TestRoutes:
    def test_healthz_predict_metrics_round_trip(self, server, fitted_automl, scream_data):
        """All three routes on one keep-alive connection; /predict bitwise equals offline."""
        with _Client(server.url) as client:
            status, _, body = client.exchange("GET", "/healthz")
            assert status == 200
            health = json.loads(body)
            assert health["status"] == "ok" and health["model"] == "scream"

            points = scream_data.X[:5]
            status, _, body = client.exchange("POST", "/predict", {"rows": points.tolist()})
            assert status == 200
            response = json.loads(body)
            assert response["labels"] == fitted_automl.predict(points).tolist()
            np.testing.assert_array_equal(
                np.asarray(response["proba"]), fitted_automl.predict_proba(points)
            )

            status, _, body = client.exchange("GET", "/metrics")
            assert status == 200
            assert json.loads(body)["counters"]["requests"] >= 1

    def test_named_route_and_feedback(self, server, scream_data):
        with _Client(server.url) as client:
            status, _, body = client.exchange("POST", "/predict/scream", {"rows": scream_data.X[:2].tolist()})
            assert status == 404 and json.loads(body)["type"] == "NotFound"
            status, _, body = client.exchange("POST", "/feedback", {"limit": 4})
            assert status == 200 and "candidates" in json.loads(body)


class TestConnections:
    def test_keep_alive_serves_many_requests_per_connection(self, server, scream_data):
        rows = scream_data.X[:1].tolist()
        with _Client(server.url) as client:
            for _ in range(5):
                status, headers, _ = client.exchange("POST", "/predict", {"rows": rows})
                assert status == 200
                assert headers.get("connection", "") != "close"

    def test_pipelined_requests_answered_in_order(self, server, scream_data):
        """Two requests in one write are answered one after the other."""
        with _Client(server.url) as client:
            client.send_raw(_predict_bytes(scream_data.X[:1].tolist()) + _request_bytes("GET", "/healthz"))
            status, _, body = client.read_response()
            assert status == 200 and "labels" in json.loads(body)
            status, _, body = client.read_response()
            assert status == 200 and json.loads(body)["status"] == "ok"

    def test_connection_close_header_honored(self, server):
        with _Client(server.url) as client:
            status, headers, _ = client.exchange("GET", "/healthz", headers={"Connection": "close"})
            assert status == 200
            assert headers.get("connection") == "close"
            assert client.at_eof()  # server actually closed

    def test_dribbled_request_completes(self, server, scream_data):
        """A slow client costs its own thread, not a failure: 8-byte chunks."""
        request = _predict_bytes(scream_data.X[:1].tolist())
        with _Client(server.url) as client:
            for start in range(0, len(request), 8):
                client.send_raw(request[start : start + 8])
                threading.Event().wait(0.001)
            status, _, body = client.read_response()
            assert status == 200 and "labels" in json.loads(body)

    def test_idle_connections_are_reaped(self, server, monkeypatch):
        assert serve_http_module._Handler.timeout is not None  # bounded by default
        monkeypatch.setattr(serve_http_module._Handler, "timeout", 0.2)
        with _Client(server.url) as idle:
            # No bytes sent: after the handler timeout the server closes our end.
            assert idle.at_eof()
        with _Client(server.url) as fresh:  # new connections still served
            status, _, _ = fresh.exchange("GET", "/healthz")
            assert status == 200

    def test_keep_alive_predict_has_no_delayed_ack_stall(self, served_scream_registry, scream_data):
        """Regression: headers and body left in two writes without TCP_NODELAY,
        so the client's delayed ACK held every keep-alive reply ~40 ms."""
        _, server = _serve(served_scream_registry, max_batch=16, max_delay=0.001)
        body = json.dumps({"rows": scream_data.X[:1].tolist()}).encode()
        conn = http.client.HTTPConnection(*_host_port(server.url), timeout=10.0)
        latencies = []
        try:
            for _ in range(40):
                watch = Stopwatch()
                conn.request("POST", "/predict", body=body, headers={"Content-Type": "application/json"})
                response = conn.getresponse()
                response.read()
                assert response.status == 200
                latencies.append(watch.elapsed())
        finally:
            conn.close()
            server.close()
        assert float(np.median(latencies)) < 0.030, f"median {np.median(latencies) * 1e3:.1f} ms"


class TestOverloadContract:
    def test_shed_503_and_timeout_504(self, served_scream_registry, scream_data):
        """A wedged model: queued requests 504, overflow requests 503."""
        service = ServeService.from_registry(
            "scream",
            directory=served_scream_registry.directory,
            config=ServeConfig(max_batch=1, max_delay=0.0, queue_bound=1, request_timeout=0.4),
        )
        gate = threading.Event()
        entered = threading.Event()
        original = service.bundle.automl.predict_batch

        def wedged(X):
            entered.set()
            gate.wait(15.0)
            return original(X)

        service.bundle.automl.predict_batch = wedged
        server = serve_http(service)
        request = _predict_bytes(scream_data.X[:1].tolist())
        results: dict[str, tuple[int, bytes]] = {}

        def fire(tag):
            results[tag] = _raw_exchange(server.url, request, timeout=10.0)

        try:
            thread_a = threading.Thread(target=fire, args=("a",))
            thread_a.start()
            assert entered.wait(5.0)  # the batcher now holds A
            thread_b = threading.Thread(target=fire, args=("b",))
            thread_b.start()
            for _ in range(500):  # wait until B occupies the queue slot
                if service.engine._queue.qsize() >= 1:
                    break
                threading.Event().wait(0.005)
            assert service.engine._queue.qsize() >= 1
            status_c, body_c = _raw_exchange(server.url, request, timeout=10.0)
            assert status_c == 503
            assert json.loads(body_c)["type"] == "BackpressureError"
            thread_a.join(10.0)
            thread_b.join(10.0)
            for tag in ("a", "b"):
                status, body = results[tag]
                assert status == 504, f"request {tag}: expected 504, got {status}"
                payload = json.loads(body)
                assert payload["type"] == "RequestTimeoutError"
                assert "no reply within 0.400s" in payload["error"]
            counters = service.metrics_registry.snapshot()["counters"]
            assert counters["shed"] == 1
            assert counters["timeouts"] == 2
        finally:
            gate.set()
            service.bundle.automl.predict_batch = original
            server.close()


    def test_wedged_engine_yields_504_and_timeout_counter(self, served_scream_registry, scream_data):
        """One request, no overflow: a 504 that /metrics then reports as a timeout, not a shed."""
        service, server = _serve(
            served_scream_registry, max_batch=1, max_delay=0.0, request_timeout=0.2
        )
        release = threading.Event()
        original = service.bundle.automl.predict_batch

        def wedged(X):
            release.wait(10.0)
            return original(X)

        service.bundle.automl.predict_batch = wedged
        try:
            with _Client(server.url) as client:
                status, _, body = client.exchange("POST", "/predict", {"rows": scream_data.X[:1].tolist()})
                assert status == 504
                payload = json.loads(body)
                assert payload["type"] == "RequestTimeoutError"
                assert "no reply within 0.200s" in payload["error"]
                status, _, body = client.exchange("GET", "/metrics")
                assert status == 200
                counters = json.loads(body)["counters"]
                assert counters["timeouts"] == 1 and counters["shed"] == 0
        finally:
            release.set()
            service.bundle.automl.predict_batch = original
            server.close()


class TestShutdownDrains:
    def test_close_drains_inflight_requests(self, served_scream_registry, scream_data):
        """A keep-alive request held in the engine is answered during close, and
        once close returns the server refuses new connections."""
        service, server = _serve(
            served_scream_registry, max_batch=1, max_delay=0.0, request_timeout=10.0
        )
        gate = threading.Event()
        entered = threading.Event()
        original = service.bundle.automl.predict_batch

        def gated(X):
            entered.set()
            gate.wait(10.0)
            return original(X)

        service.bundle.automl.predict_batch = gated
        try:
            with _Client(server.url, timeout=10.0) as client:
                client.send_raw(_predict_bytes(scream_data.X[:1].tolist()))
                assert entered.wait(5.0)  # the batcher holds our request
                closer = threading.Thread(target=server.close, kwargs={"drain_timeout": 10.0})
                closer.start()
                threading.Event().wait(0.2)
                gate.set()  # let the model answer
                status, _, body = client.read_response()
                assert status == 200 and "labels" in json.loads(body)
            closer.join(10.0)
            assert not closer.is_alive()
            with pytest.raises(OSError):
                socket.create_connection(_host_port(server.url), timeout=2.0).close()
        finally:
            gate.set()
            service.bundle.automl.predict_batch = original

    def test_threaded_close_answers_inflight_requests(
        self, served_scream_registry, scream_data
    ):
        """Regression: close() used to kill the engine under queued requests."""
        service = ServeService.from_registry(
            "scream",
            directory=served_scream_registry.directory,
            config=ServeConfig(max_batch=1, max_delay=0.0, request_timeout=10.0),
        )
        gate = threading.Event()
        entered = threading.Event()
        original = service.bundle.automl.predict_batch

        def gated(X):
            entered.set()
            gate.wait(15.0)
            return original(X)

        service.bundle.automl.predict_batch = gated
        server = serve_http(service)
        request = _predict_bytes(scream_data.X[:1].tolist())
        result: dict[str, tuple[int, bytes]] = {}

        def fire():
            result["r"] = _raw_exchange(server.url, request, timeout=15.0)

        client = threading.Thread(target=fire)
        try:
            client.start()
            assert entered.wait(5.0)  # request is inside the engine
            closer = threading.Thread(target=server.close, kwargs={"drain_timeout": 10.0})
            closer.start()
            threading.Event().wait(0.2)  # close() is now draining
            gate.set()
            client.join(10.0)
            closer.join(10.0)
            assert not client.is_alive() and not closer.is_alive()
            status, body = result["r"]
            assert status == 200  # a real reply, not an abandoned future
            assert "labels" in json.loads(body)
        finally:
            gate.set()
            service.bundle.automl.predict_batch = original

    def test_engine_close_fails_stranded_requests_fast(
        self, served_scream_registry, scream_data
    ):
        """A request enqueued behind the shutdown sentinel gets a typed error.

        The race this drains: a submit that passed the closed-check
        before ``close()`` set it can enqueue *after* the sentinel; the
        batcher has already exited, so nothing will ever batch it.
        Abandoning such a request would hang its waiter until timeout;
        ``close()`` drains the queue and fails it with
        :class:`ServeError` instead.
        """
        bundle = served_scream_registry.load("scream")
        engine = InferenceEngine(bundle, ServeConfig(max_batch=1, max_delay=0.0))
        gate = threading.Event()
        entered = threading.Event()
        original = bundle.automl.predict_batch

        def gated(X):
            entered.set()
            gate.wait(15.0)
            return original(X)

        engine.bundle.automl.predict_batch = gated
        try:
            first = engine.submit(scream_data.X[:1])
            assert entered.wait(5.0)  # the batcher is wedged inside the gate
            closer = threading.Thread(target=engine.close)
            closer.start()
            for _ in range(500):  # close() has posted the shutdown sentinel
                if engine._closed.is_set() and engine._queue.qsize() >= 1:
                    break
                threading.Event().wait(0.005)
            assert engine._queue.qsize() >= 1
            # The racing submit: enqueued after the sentinel, never batchable.
            stranded = _PendingRequest(np.atleast_2d(scream_data.X[:1]), Stopwatch())
            with engine._inflight_cond:
                engine._inflight += 1
            engine._queue.put_nowait(stranded)
            errors_before = engine.metrics.counter("errors").value
            gate.set()  # batcher finishes its batch, sees the sentinel, exits
            closer.join(10.0)
            assert not closer.is_alive()
            assert first.event.is_set() and first.error is None  # queued work completed
            assert stranded.event.is_set(), "stranded request was abandoned"
            assert isinstance(stranded.error, ServeError)
            assert "closed before" in str(stranded.error)
            assert engine.metrics.counter("errors").value == errors_before + 1
            assert engine.quiesce(2.0), "inflight accounting leaked"
        finally:
            gate.set()
            engine.bundle.automl.predict_batch = original
            engine.close()
