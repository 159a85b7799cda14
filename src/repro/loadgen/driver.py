"""Drive a serving target with a workload shape; account for every attempt.

Two targets, one driver:

- :class:`InProcessTarget` calls a :class:`~repro.serve.service.ServeService`
  (or anything with its ``predict``) directly — no sockets, so it
  isolates engine behaviour (shedding, batching, timeouts) from
  transport behaviour;
- :class:`HttpTarget` speaks real TCP to a running HTTP server, with
  the socket-level misbehaviour the shapes call for: byte-dribbled
  sends (slow clients), a fresh connection per request (churn), and
  deterministic mid-send aborts.

The driver is deterministic in *what* it sends: the arrival schedule,
each request's rows, and which attempts abort are all drawn up front
from one seeded generator, so replaying ``(target_a, X, shape, seed)``
and ``(target_b, X, shape, seed)`` offers byte-identical traffic to both
targets.  What the driver *measures* (latencies, which attempts shed) is
real concurrent execution, not simulation — that is the point.

Every attempt ends in exactly one :data:`~repro.loadgen.report.OUTCOMES`
bucket; :func:`run_workload` returns the aggregated
:class:`~repro.loadgen.report.LoadReport`.
"""

from __future__ import annotations

import json
import socket
import threading
from typing import Any

import numpy as np

from ..exceptions import BackpressureError, RequestTimeoutError, ServeError, ValidationError
from ..rng import check_random_state
from ..runtime.clock import Stopwatch
from .report import Attempt, LoadReport
from .workloads import WorkloadShape, arrival_times

__all__ = ["InProcessTarget", "HttpTarget", "run_workload"]

#: HTTP status → attempt outcome (anything else is "failed").
_STATUS_OUTCOMES = {200: "completed", 503: "shed", 504: "timed_out"}


class InProcessTarget:
    """Drive a :class:`ServeService` directly — no sockets, pure engine behaviour."""

    def __init__(self, service):
        self.service = service

    def request(self, rows, *, timeout: float, plan: dict[str, Any]) -> str:
        """One attempt; socket-level ``plan`` fields are ignored in-process."""
        try:
            self.service.predict(rows, timeout=timeout)
            return "completed"
        except BackpressureError:
            return "shed"
        except RequestTimeoutError:
            return "timed_out"
        except (ValidationError, ServeError, OSError):
            return "failed"


class HttpTarget:
    """Drive a running HTTP server over raw TCP sockets.

    Connections are pooled per driver thread (HTTP/1.1 keep-alive)
    unless the plan asks for churn.  The socket layer honours the
    shape's misbehaviour knobs: ``dribble_chunk``/``dribble_delay``
    split the request bytes into paced writes, and ``abort`` sends half
    the request then closes — the server must survive both.
    """

    def __init__(self, url: str, *, connect_timeout: float = 5.0):
        without_scheme = url.split("//", 1)[-1].rstrip("/")
        host, _, port = without_scheme.partition(":")
        self.host = host
        self.port = int(port)
        self.connect_timeout = connect_timeout
        self._local = threading.local()

    # -- socket plumbing ---------------------------------------------------

    def _connect(self, timeout: float) -> socket.socket:
        sock = socket.create_connection((self.host, self.port), timeout=self.connect_timeout)
        sock.settimeout(timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:
            pass
        return sock

    def _pooled(self, timeout: float) -> socket.socket:
        sock = getattr(self._local, "sock", None)
        if sock is None:
            sock = self._connect(timeout)
            self._local.sock = sock
        else:
            sock.settimeout(timeout)
        return sock

    def _drop_pooled(self) -> None:
        sock = getattr(self._local, "sock", None)
        if sock is not None:
            self._local.sock = None
            try:
                sock.close()
            except OSError:
                pass

    @staticmethod
    def _send(sock: socket.socket, payload: bytes, plan: dict[str, Any]) -> None:
        chunk = plan.get("dribble_chunk")
        if not chunk:
            sock.sendall(payload)
            return
        delay = plan.get("dribble_delay", 0.0)
        for start in range(0, len(payload), chunk):
            sock.sendall(payload[start : start + chunk])
            if delay > 0:
                threading.Event().wait(delay)

    @staticmethod
    def _read_response(sock: socket.socket) -> tuple[int, bytes, bool]:
        """Read one full response; returns (status, body, keep_alive)."""
        buffer = bytearray()
        while b"\r\n\r\n" not in buffer:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-response")
            buffer += chunk
        split = buffer.find(b"\r\n\r\n")
        head = bytes(buffer[:split]).decode("latin-1").split("\r\n")
        status = int(head[0].split(" ", 2)[1])
        headers = {}
        for line in head[1:]:
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        body = buffer[split + 4 :]
        while len(body) < length:
            chunk = sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed mid-body")
            body += chunk
        keep_alive = headers.get("connection", "").lower() != "close"
        return status, bytes(body[:length]), keep_alive

    # -- the attempt -------------------------------------------------------

    def exchange(self, rows, *, timeout: float, plan: dict[str, Any]) -> tuple[int, bytes]:
        """Send one request and return ``(status, body)``; raises on transport errors."""
        body = json.dumps({"rows": rows}).encode("utf-8")
        request = (
            "POST /predict HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            "\r\n"
        ).encode("latin-1") + body
        fresh = bool(plan.get("new_connection"))
        sock = self._connect(timeout) if fresh else self._pooled(timeout)
        try:
            if plan.get("abort"):
                sock.sendall(request[: max(1, len(request) // 2)])
                raise ConnectionAbortedError("client aborted mid-request (by plan)")
            self._send(sock, request, plan)
            status, payload, keep_alive = self._read_response(sock)
        except BaseException:
            if fresh:
                try:
                    sock.close()
                except OSError:
                    pass
            else:
                self._drop_pooled()
            raise
        if fresh or not keep_alive:
            if not fresh:
                self._drop_pooled()
            else:
                sock.close()
        return status, payload

    def request(self, rows, *, timeout: float, plan: dict[str, Any]) -> str:
        """One attempt, mapped onto the outcome buckets."""
        try:
            status, _body = self.exchange(rows, timeout=timeout, plan=plan)
        except socket.timeout:
            return "timed_out"
        except (OSError, ValueError, IndexError):
            return "failed"
        return _STATUS_OUTCOMES.get(status, "failed")


def run_workload(
    target,
    X,
    shape: WorkloadShape,
    *,
    seed: int = 0,
) -> LoadReport:
    """Replay ``shape`` against ``target`` drawing rows from ``X``; report everything.

    Parameters
    ----------
    target:
        An :class:`InProcessTarget` or :class:`HttpTarget` (anything
        with their ``request`` signature).
    X:
        ``(n, n_features)`` pool of request rows; each request samples a
        contiguous ``rows_per_request`` window, seeded.
    shape:
        The workload to run.
    seed:
        Seeds the arrival schedule, row choices, and abort picks — the
        offered traffic is a pure function of ``(X, shape, seed)``.
    """
    rng = check_random_state(seed)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < shape.rows_per_request:
        raise ValidationError(
            f"X must be 2-D with at least rows_per_request={shape.rows_per_request} rows, got {X.shape}"
        )
    # All randomness is consumed here, before any thread starts: the
    # traffic is fixed, only its timing outcomes are measured live.
    schedule = arrival_times(shape, rng)
    total = shape.n_requests if shape.kind == "open" else shape.clients * shape.n_requests
    starts = rng.integers(0, X.shape[0] - shape.rows_per_request + 1, size=total)
    aborts = (
        rng.random(total) < shape.abort_fraction
        if shape.abort_fraction > 0
        else np.zeros(total, dtype=bool)
    )

    attempts: list[Attempt] = []
    attempts_lock = threading.Lock()
    cursor = {"next": 0}
    watch = Stopwatch()

    def plan_for(index: int) -> dict[str, Any]:
        return {
            "dribble_chunk": shape.dribble_chunk,
            "dribble_delay": shape.dribble_delay,
            "new_connection": shape.new_connection_per_request,
            "abort": bool(aborts[index]),
        }

    def fire(index: int) -> None:
        rows = X[starts[index] : starts[index] + shape.rows_per_request].tolist()
        plan = plan_for(index)
        tries = 0
        while True:
            offered_at = watch.elapsed()
            attempt_watch = Stopwatch()
            outcome = target.request(rows, timeout=shape.request_timeout, plan=plan)
            with attempts_lock:
                attempts.append(Attempt(offered_at, outcome, attempt_watch.elapsed()))
            if outcome == "shed" and shape.retry_on_shed and tries < shape.max_retries:
                tries += 1
                if shape.backoff > 0:
                    threading.Event().wait(shape.backoff)
                continue
            return

    def open_worker() -> None:
        while True:
            with attempts_lock:
                index = cursor["next"]
                if index >= shape.n_requests:
                    return
                cursor["next"] = index + 1
            delay = schedule[index] - watch.elapsed()
            if delay > 0:
                threading.Event().wait(delay)
            fire(index)

    def closed_worker(client: int) -> None:
        for step in range(shape.n_requests):
            fire(client * shape.n_requests + step)
            if shape.think_time > 0:
                threading.Event().wait(shape.think_time)

    if shape.kind == "open":
        workers = [
            threading.Thread(target=open_worker, name=f"loadgen-{i}", daemon=True)
            for i in range(shape.clients)
        ]
    else:
        workers = [
            threading.Thread(target=closed_worker, args=(i,), name=f"loadgen-{i}", daemon=True)
            for i in range(shape.clients)
        ]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()

    return LoadReport.from_attempts(
        attempts,
        duration=watch.elapsed(),
        workload={"seed": seed, **shape.to_json()},
    )
