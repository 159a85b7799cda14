"""SCReAM — Self-Clocked Rate Adaptation for Multimedia (RFC 8298 style).

SCReAM is the latency-sensitive controller of the paper's running example.
True to the RFC, it is *self-clocked*: a congestion window is adjusted from
the estimated bottleneck queueing delay (RTT above the observed minimum)
relative to a small target, LEDBAT-style:

- per ACK the window moves by ``gain · (1 − qdelay/target) / cwnd`` —
  growth below the target, proportional shrink above it;
- packet loss applies a multiplicative decrease.

The result is the qualitative SCReAM behaviour the dataset needs: it keeps
the bottleneck queue near its small delay target (low end-to-end latency on
clean networks) but cedes throughput under random loss or against many
queue-filling competitors — the conditions where other protocols win.
"""

from __future__ import annotations

from .base import MIN_CWND, CongestionControl

__all__ = ["Scream"]


class Scream(CongestionControl):
    name = "scream"
    kind = "window"

    def __init__(
        self,
        *,
        target_delay: float = 0.02,
        gain: float = 0.4,
        loss_beta: float = 0.8,
        max_shrink_per_rtt: float = 0.5,
    ):
        if target_delay <= 0:
            raise ValueError(f"target_delay must be positive, got {target_delay}")
        self.target_delay = target_delay
        self.gain = gain
        self.loss_beta = loss_beta
        self.max_shrink_per_rtt = max_shrink_per_rtt
        super().__init__()

    def reset(self, *, now: float, base_rtt_hint: float | None = None) -> None:
        super().reset(now=now, base_rtt_hint=base_rtt_hint)
        self.cwnd = 4.0

    def _window_step(self, rtt: float, fraction_of_rtt: float) -> None:
        """Move the window by the LEDBAT-style delta for a slice of an RTT.

        ``fraction_of_rtt`` is 1/cwnd for a single ACK (one window's worth
        of ACKs arrives per RTT) or ``dt/rtt`` in the fluid view.
        """
        qdelay = self.queue_delay(rtt)
        pressure = 1.0 - qdelay / self.target_delay  # >0 below target, <0 above
        delta = self.gain * pressure * self.cwnd * fraction_of_rtt
        # Bound the per-RTT shrink so a transient RTT spike cannot collapse
        # the window to nothing in one step.
        max_shrink = self.max_shrink_per_rtt * self.cwnd * fraction_of_rtt
        if delta < -max_shrink:
            delta = -max_shrink
        self.cwnd = max(MIN_CWND, self.cwnd + delta)

    def on_ack(self, *, now: float, rtt: float, delivered_rate: float | None = None) -> None:
        self.observe_rtt(rtt)
        self._window_step(rtt, fraction_of_rtt=1.0 / max(self.cwnd, 1.0))

    def on_loss(self, *, now: float) -> None:
        self.cwnd = max(MIN_CWND, self.cwnd * self.loss_beta)
        self.last_loss_reaction = now

    def fluid_step(self, now: float, dt: float, rtt: float, delivered_rate: float) -> None:
        min_rtt = self.min_rtt
        if rtt < min_rtt:
            self.min_rtt = min_rtt = rtt
        # :meth:`_window_step` over a dt/rtt slice of an RTT.
        fraction_of_rtt = dt / (rtt if rtt > 1e-6 else 1e-6)
        qdelay = rtt - min_rtt if rtt > min_rtt else 0.0
        cwnd = self.cwnd
        pressure = 1.0 - qdelay / self.target_delay
        delta = self.gain * pressure * cwnd * fraction_of_rtt
        max_shrink = self.max_shrink_per_rtt * cwnd * fraction_of_rtt
        if delta < -max_shrink:
            delta = -max_shrink
        cwnd += delta
        self.cwnd = cwnd if cwnd > MIN_CWND else MIN_CWND
