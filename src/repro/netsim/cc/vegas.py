"""TCP Vegas delay-based congestion control.

Vegas compares the expected throughput (``cwnd / base_rtt``) against the
actual throughput (``cwnd / rtt``); the difference, expressed in packets
queued at the bottleneck, is kept between ``alpha`` and ``beta`` by ±1
packet-per-RTT adjustments.  Vegas keeps queues short, which makes it the
closest in spirit to SCReAM among the classic algorithms — and the main
source of "SCReAM is not best" labels in the dataset.
"""

from __future__ import annotations

from .base import MIN_CWND, CongestionControl

__all__ = ["Vegas"]

_INF = float("inf")


class Vegas(CongestionControl):
    name = "vegas"
    kind = "window"

    def __init__(self, *, alpha: float = 2.0, beta: float = 4.0):
        if alpha > beta:
            raise ValueError(f"vegas alpha {alpha} must be <= beta {beta}")
        self.alpha = alpha
        self.beta = beta
        super().__init__()

    def _queued_packets(self, rtt: float) -> float:
        """Vegas' diff: estimated packets this flow keeps in the queue."""
        if self.min_rtt == float("inf") or self.min_rtt <= 0:
            return 0.0
        expected = self.cwnd / self.min_rtt
        actual = self.cwnd / rtt
        return (expected - actual) * self.min_rtt

    def _adjust(self, rtt: float, scale: float) -> None:
        diff = self._queued_packets(rtt)
        if diff < self.alpha:
            self.cwnd += scale
        elif diff > self.beta:
            self.cwnd = max(MIN_CWND, self.cwnd - scale)

    def on_ack(self, *, now: float, rtt: float, delivered_rate: float | None = None) -> None:
        self.observe_rtt(rtt)
        # Apply the per-RTT ±1 adjustment smoothly, one ACK at a time.
        self._adjust(rtt, scale=1.0 / max(self.cwnd, 1.0))

    def on_loss(self, *, now: float) -> None:
        self.cwnd = max(MIN_CWND, self.cwnd * 0.75)
        self.last_loss_reaction = now

    def fluid_step(self, now: float, dt: float, rtt: float, delivered_rate: float) -> None:
        min_rtt = self.min_rtt
        if rtt < min_rtt:
            self.min_rtt = min_rtt = rtt
        cwnd = self.cwnd
        # :meth:`_adjust` with a dt/rtt slice of the per-RTT ±1.
        scale = dt / (rtt if rtt > 1e-6 else 1e-6)
        if min_rtt == _INF or min_rtt <= 0:
            diff = 0.0
        else:
            diff = (cwnd / min_rtt - cwnd / rtt) * min_rtt
        if diff < self.alpha:
            self.cwnd = cwnd + scale
        elif diff > self.beta:
            cwnd -= scale
            self.cwnd = cwnd if cwnd > MIN_CWND else MIN_CWND
