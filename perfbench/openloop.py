"""The benchmark's open-loop HTTP driver.

Requests are due on a fixed schedule, whatever the server does.  A
bounded set of worker threads (one keep-alive connection each) takes
the requests in order; a worker sleeps until its request is due, or
sends at once when it is already late.  Each request is timed from its
*due* time, so a stall delays every later request in the measurement
and is not hidden, and the send lag (sent minus due) says how late the
generator itself ran.
"""

from __future__ import annotations

import http.client
import os
import socket
import threading
import time
from dataclasses import dataclass

from repro.runtime.clock import monotonic

#: HTTP status -> outcome; any other status or a broken connection is "failed".
STATUS_OUTCOMES = {200: "completed", 503: "shed", 504: "timed_out"}
OUTCOMES = ("completed", "shed", "timed_out", "failed")

#: Grace before the first due time, so every worker is waiting when it comes.
START_DELAY_S = 0.05
#: Socket timeout per request; a reply slower than this counts as timed out.
REQUEST_TIMEOUT_S = 30.0
#: Keep the body of every n-th completed response for the bitwise check.
SAMPLE_EVERY = 8


@dataclass
class Sent:
    """One request's record: times in seconds on the benchmark's monotonic clock."""

    due: float
    sent: float
    done: float
    outcome: str
    body: bytes | None  # the response body, kept only for sampled requests

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lag(self) -> float:
        return self.sent - self.due


def run_open_loop(host: str, port: int, bodies: list[bytes], offsets: list[float]) -> list[Sent]:
    """POST ``bodies[i]`` to ``/predict`` at ``offsets[i]`` seconds from now.

    Uses one worker thread and keep-alive connection per CPU.  Returns
    one :class:`Sent` per request, in order; every :data:`SAMPLE_EVERY`-th
    completed one keeps its response body.
    """
    n = len(bodies)
    results: list[Sent | None] = [None] * n
    lock = threading.Lock()
    cursor = [0]
    origin = monotonic() + START_DELAY_S
    headers = {"Content-Type": "application/json"}

    def worker() -> None:
        conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
        try:
            while True:
                with lock:
                    index = cursor[0]
                    if index >= n:
                        return
                    cursor[0] += 1
                due = origin + offsets[index]
                delay = due - monotonic()
                if delay > 0:
                    time.sleep(delay)
                sent = monotonic()
                payload = None
                try:
                    conn.request("POST", "/predict", body=bodies[index], headers=headers)
                    response = conn.getresponse()
                    payload = response.read()
                    outcome = STATUS_OUTCOMES.get(response.status, "failed")
                except socket.timeout:
                    outcome = "timed_out"
                    conn.close()
                except (OSError, http.client.HTTPException):
                    outcome = "failed"
                    conn.close()
                done = monotonic()
                keep = index % SAMPLE_EVERY == 0 and outcome == "completed"
                results[index] = Sent(due, sent, done, outcome, payload if keep else None)
        finally:
            conn.close()

    threads = [threading.Thread(target=worker, name=f"perfbench-client-{i}") for i in range(os.cpu_count() or 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return results


def tally(sent: list[Sent]) -> dict[str, int]:
    """Outcome counts plus ``offered``; the four outcomes always sum to it."""
    counts = {outcome: 0 for outcome in OUTCOMES}
    for record in sent:
        counts[record.outcome] += 1
    counts["offered"] = len(sent)
    return counts
