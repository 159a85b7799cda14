"""TCP Reno (NewReno-style AIMD) congestion control.

Slow start doubles the window every RTT until ``ssthresh``; congestion
avoidance adds one packet per RTT; a loss event halves the window.  Reno is
the canonical loss-based baseline: it fills the bottleneck queue, so its
end-to-end latency degrades with buffer depth — exactly the behaviour that
makes SCReAM attractive for latency-sensitive flows.
"""

from __future__ import annotations

from .base import MIN_CWND, CongestionControl

__all__ = ["Reno"]


class Reno(CongestionControl):
    name = "reno"
    kind = "window"

    def __init__(self, *, initial_ssthresh: float = 64.0):
        self.initial_ssthresh = initial_ssthresh
        super().__init__()

    def reset(self, *, now: float, base_rtt_hint: float | None = None) -> None:
        super().reset(now=now, base_rtt_hint=base_rtt_hint)
        self.ssthresh = self.initial_ssthresh

    def in_slow_start(self) -> bool:
        return self.cwnd < self.ssthresh

    def on_ack(self, *, now: float, rtt: float, delivered_rate: float | None = None) -> None:
        self.observe_rtt(rtt)
        if self.in_slow_start():
            self.cwnd += 1.0
        else:
            self.cwnd += 1.0 / self.cwnd

    def on_loss(self, *, now: float) -> None:
        self.ssthresh = max(MIN_CWND, self.cwnd / 2.0)
        self.cwnd = self.ssthresh
        self.last_loss_reaction = now

    def fluid_step(self, now: float, dt: float, rtt: float, delivered_rate: float) -> None:
        if rtt < self.min_rtt:
            self.min_rtt = rtt
        cwnd = self.cwnd
        acks = delivered_rate * dt
        if cwnd < self.ssthresh:
            cwnd += acks  # one extra packet per ACK doubles per RTT
            cap = self.ssthresh * 2
            self.cwnd = cap if cap < cwnd else cwnd
        else:
            self.cwnd = cwnd + acks / cwnd  # +1 packet per RTT
