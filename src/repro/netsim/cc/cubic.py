"""CUBIC congestion control (RFC 8312-style window growth).

The window follows ``W(t) = C·(t − K)³ + W_max`` where ``t`` is the time
since the last congestion event, ``W_max`` the window at that event and
``K = ∛(W_max·β/C)`` the time at which the curve returns to ``W_max``.
CUBIC grows aggressively far from ``W_max`` and plateaus near it; like
Reno it is loss-based and therefore queue-filling.
"""

from __future__ import annotations

from .base import MIN_CWND, CongestionControl

__all__ = ["Cubic"]


class Cubic(CongestionControl):
    name = "cubic"
    kind = "window"

    def __init__(self, *, c: float = 0.4, beta: float = 0.7):
        self.c = c
        self.beta = beta
        super().__init__()

    def reset(self, *, now: float, base_rtt_hint: float | None = None) -> None:
        super().reset(now=now, base_rtt_hint=base_rtt_hint)
        self.w_max = 0.0
        self.epoch_start: float | None = None
        self.k = 0.0
        self.ssthresh = 64.0

    def in_slow_start(self) -> bool:
        return self.w_max == 0.0 and self.cwnd < self.ssthresh

    def _cubic_window(self, now: float) -> float:
        if self.epoch_start is None:
            self.epoch_start = now
            self.k = (self.w_max * (1.0 - self.beta) / self.c) ** (1.0 / 3.0)
        t = now - self.epoch_start
        return self.c * (t - self.k) ** 3 + self.w_max

    def on_ack(self, *, now: float, rtt: float, delivered_rate: float | None = None) -> None:
        self.observe_rtt(rtt)
        if self.in_slow_start():
            self.cwnd += 1.0
            return
        target = self._cubic_window(now + rtt)
        if target > self.cwnd:
            # Spread the gap over roughly one window of ACKs.
            self.cwnd += (target - self.cwnd) / self.cwnd
        else:
            self.cwnd += 0.01 / self.cwnd  # minimal growth in the plateau

    def on_loss(self, *, now: float) -> None:
        self.w_max = self.cwnd
        self.cwnd = max(MIN_CWND, self.cwnd * self.beta)
        self.ssthresh = self.cwnd
        self.epoch_start = None
        self.last_loss_reaction = now

    def fluid_step(self, now: float, dt: float, rtt: float, delivered_rate: float) -> None:
        if rtt < self.min_rtt:
            self.min_rtt = rtt
        cwnd = self.cwnd
        if self.w_max == 0.0 and cwnd < self.ssthresh:
            cwnd += delivered_rate * dt
            cap = self.ssthresh * 2
            self.cwnd = cap if cap < cwnd else cwnd
            return
        # The cubic curve one RTT ahead, as in :meth:`_cubic_window`.
        ahead = now + rtt
        if self.epoch_start is None:
            self.epoch_start = ahead
            self.k = (self.w_max * (1.0 - self.beta) / self.c) ** (1.0 / 3.0)
        target = self.c * (ahead - self.epoch_start - self.k) ** 3 + self.w_max
        rtt_floor = rtt if rtt > 1e-6 else 1e-6
        if target > cwnd:
            # ACK-clocked catch-up toward the cubic curve over ~1 RTT.
            fraction = dt / rtt_floor
            self.cwnd = cwnd + (target - cwnd) * (fraction if fraction < 1.0 else 1.0)
        else:
            self.cwnd = cwnd + 0.01 * dt / rtt_floor
