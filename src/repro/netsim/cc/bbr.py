"""A BBR-like model-based congestion controller.

Maintains the two BBR state variables — a windowed-max estimate of the
bottleneck bandwidth and a windowed-min RTT — and paces at
``pacing_gain · btl_bw`` while cycling the gain through the standard
eight-phase schedule (one probing phase at 1.25, one draining phase at
0.75, six cruising phases at 1.0).  Loss is largely ignored, as in BBRv1;
an inflight cap of ``2·BDP`` bounds the queue it can build.
"""

from __future__ import annotations

from collections import deque

from .base import MIN_RATE_PPS, CongestionControl

__all__ = ["BBR"]

_GAIN_CYCLE = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
_CYCLE_PHASES = len(_GAIN_CYCLE)


class BBR(CongestionControl):
    name = "bbr"
    kind = "rate"

    def __init__(self, *, bw_window_s: float = 2.0, startup_gain: float = 2.0):
        self.bw_window_s = bw_window_s
        self.startup_gain = startup_gain
        super().__init__()

    def reset(self, *, now: float, base_rtt_hint: float | None = None) -> None:
        super().reset(now=now, base_rtt_hint=base_rtt_hint)
        self.rate_pps = 20.0
        self.btl_bw = 0.0
        self._bw_samples: deque[tuple[float, float]] = deque()
        self._cycle_index = 0
        self._cycle_start = now
        self._in_startup = True
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._round_start = now

    def _update_bw(self, now: float, delivered_rate: float) -> None:
        """Windowed-max filter via a monotonic deque (O(1) amortized)."""
        if delivered_rate <= 0:
            return
        while self._bw_samples and self._bw_samples[-1][1] <= delivered_rate:
            self._bw_samples.pop()
        self._bw_samples.append((now, delivered_rate))
        cutoff = now - self.bw_window_s
        while self._bw_samples and self._bw_samples[0][0] < cutoff:
            self._bw_samples.popleft()
        self.btl_bw = self._bw_samples[0][1] if self._bw_samples else delivered_rate

    def _check_startup_exit(self) -> None:
        """Leave startup once the bandwidth estimate plateaus (<25% growth)."""
        if self.btl_bw > self._full_bw * 1.25:
            self._full_bw = self.btl_bw
            self._full_bw_rounds = 0
        else:
            self._full_bw_rounds += 1
            if self._full_bw_rounds >= 3:
                self._in_startup = False

    def _advance_cycle(self, now: float, rtt: float) -> float:
        if self._in_startup:
            return self.startup_gain
        if now - self._cycle_start >= rtt:
            self._cycle_start = now
            self._cycle_index = (self._cycle_index + 1) % _CYCLE_PHASES
        return _GAIN_CYCLE[self._cycle_index]

    def _repace(self, now: float, rtt: float) -> None:
        gain = self._advance_cycle(now, rtt)
        if self.btl_bw > 0:
            self.rate_pps = max(MIN_RATE_PPS, gain * self.btl_bw)
        else:
            self.rate_pps = max(MIN_RATE_PPS, self.rate_pps * 1.05)

    def inflight_cap(self) -> float:
        """BBR bounds inflight to 2·BDP to limit standing queues.

        A small absolute floor keeps the ACK clock alive on low-BDP paths,
        where a literal 2·BDP cap could starve the bandwidth estimator.
        """
        if self.btl_bw <= 0 or self.min_rtt == float("inf"):
            return float("inf")
        gain = self.startup_gain if self._in_startup else 1.0
        return max(4.0, 2.0 * gain * self.btl_bw * self.min_rtt)

    def on_ack(self, *, now: float, rtt: float, delivered_rate: float | None = None) -> None:
        self.observe_rtt(rtt)
        if delivered_rate is not None:
            self._update_bw(now, delivered_rate)
        # Startup-exit is a per-round-trip decision, not per ACK.
        if self._in_startup and now - self._round_start >= rtt:
            self._round_start = now
            self._check_startup_exit()
        self._repace(now, rtt)

    def on_loss(self, *, now: float) -> None:
        # BBRv1 reacts to loss only via a mild rate floor adjustment.
        self.rate_pps = max(MIN_RATE_PPS, self.rate_pps * 0.95)
        self.last_loss_reaction = now

    def fluid_step(self, now: float, dt: float, rtt: float, delivered_rate: float) -> None:
        if rtt < self.min_rtt:
            self.min_rtt = rtt
        # :meth:`_update_bw`'s windowed-max deque.
        if delivered_rate > 0:
            samples = self._bw_samples
            while samples and samples[-1][1] <= delivered_rate:
                samples.pop()
            samples.append((now, delivered_rate))
            cutoff = now - self.bw_window_s
            while samples and samples[0][0] < cutoff:
                samples.popleft()
            self.btl_bw = samples[0][1] if samples else delivered_rate
        btl_bw = self.btl_bw
        in_startup = self._in_startup
        # Once per round trip in startup, :meth:`_check_startup_exit`.
        if in_startup and now - self._cycle_start >= rtt:
            self._cycle_start = now
            if btl_bw > self._full_bw * 1.25:
                self._full_bw = btl_bw
                self._full_bw_rounds = 0
            else:
                self._full_bw_rounds += 1
                if self._full_bw_rounds >= 3:
                    self._in_startup = in_startup = False
        # :meth:`_repace` with :meth:`_advance_cycle`'s gain.
        if in_startup:
            gain = self.startup_gain
        else:
            if now - self._cycle_start >= rtt:
                self._cycle_start = now
                self._cycle_index = (self._cycle_index + 1) % _CYCLE_PHASES
            gain = _GAIN_CYCLE[self._cycle_index]
        rate = gain * btl_bw if btl_bw > 0 else self.rate_pps * 1.05
        self.rate_pps = rate if rate > MIN_RATE_PPS else MIN_RATE_PPS
