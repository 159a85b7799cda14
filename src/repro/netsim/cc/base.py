"""Congestion-control algorithm interface.

Each algorithm implements two views of the same control law so that both
simulation engines can drive it:

- **event-driven** (packet engine): :meth:`on_ack` / :meth:`on_loss` are
  called per packet event;
- **fluid** (fluid engine): :meth:`fluid_step` advances the control state
  over a small time step given the current RTT and delivered rate;
  :meth:`fluid_update` is that step followed by the loss-credit gate.

Window-based algorithms (Reno, Cubic, Vegas) expose ``congestion_window``;
rate-based algorithms (SCReAM, BBR) expose ``pacing_rate_pps``.  The
engines translate either into an instantaneous sending rate via
:meth:`sending_rate`.

All quantities are in packets and seconds; ``loss_credit`` implements the
standard once-per-window congestion reaction for the fluid engine (expected
losses accumulate until one "loss event" fires, at most once per RTT).
"""

from __future__ import annotations

from ...exceptions import EmulationError

__all__ = ["CongestionControl", "MIN_CWND", "MIN_RATE_PPS"]

MIN_CWND = 1.0
MIN_RATE_PPS = 1.0


class CongestionControl:
    """Base class; subclasses set ``name`` and ``kind``."""

    name: str = "base"
    kind: str = "window"  # or "rate"

    def __init__(self):
        self.reset(now=0.0)

    # -- lifecycle ---------------------------------------------------------
    def reset(self, *, now: float, base_rtt_hint: float | None = None) -> None:
        """Reinitialize all control state for a fresh connection."""
        self.cwnd = 2.0
        self.rate_pps = MIN_RATE_PPS
        self.min_rtt = base_rtt_hint if base_rtt_hint else float("inf")
        self.last_loss_reaction = -float("inf")
        self._loss_credit = 0.0

    # -- shared helpers ------------------------------------------------------
    def observe_rtt(self, rtt: float) -> None:
        if rtt <= 0:
            raise EmulationError(f"observed non-positive RTT: {rtt}")
        self.min_rtt = min(self.min_rtt, rtt)

    def queue_delay(self, rtt: float) -> float:
        """Estimated queueing delay: RTT above the observed minimum."""
        if self.min_rtt == float("inf"):
            return 0.0
        return max(0.0, rtt - self.min_rtt)

    def can_react_to_loss(self, now: float, rtt: float) -> bool:
        """Standard once-per-window rule: at most one reaction per RTT."""
        return now - self.last_loss_reaction >= rtt

    def accumulate_loss(self, expected_losses: float, *, now: float, rtt: float) -> bool:
        """Fluid-engine loss bookkeeping.

        Adds the expected number of lost packets over the last step; when a
        whole packet's worth has accumulated and the once-per-window rule
        allows it, fire one congestion reaction and return ``True``.
        ``run_fluid_scenario`` inlines this same gate in its hot loop.
        """
        self._loss_credit += max(0.0, expected_losses)
        if self._loss_credit >= 1.0 and self.can_react_to_loss(now, rtt):
            self._loss_credit = 0.0
            self.on_loss(now=now)
            return True
        return False

    # -- event-driven interface (packet engine) -----------------------------
    def on_ack(self, *, now: float, rtt: float, delivered_rate: float | None = None) -> None:
        raise NotImplementedError

    def on_loss(self, *, now: float) -> None:
        raise NotImplementedError

    # -- fluid interface -----------------------------------------------------
    def fluid_step(self, now: float, dt: float, rtt: float, delivered_rate: float) -> None:
        """Advance the control law by ``dt`` seconds of fluid dynamics.

        The fluid engine calls this once per flow per step, positionally, so
        subclasses write it as one call-free body (min-RTT, queue delay and
        curve arithmetic inline).  Loss is not an input: the loss-credit
        gate runs after the step and calls :meth:`on_loss` when it fires.
        """
        raise NotImplementedError

    def fluid_update(
        self,
        *,
        now: float,
        dt: float,
        rtt: float,
        expected_losses: float,
        delivered_rate: float,
    ) -> None:
        """One fluid step followed by the loss-credit gate, as the engine runs it."""
        if rtt <= 0:
            raise EmulationError(f"observed non-positive RTT: {rtt}")
        self.fluid_step(now, dt, rtt, delivered_rate)
        self.accumulate_loss(expected_losses, now=now, rtt=rtt)

    # -- engine-facing output ------------------------------------------------
    def congestion_window(self) -> float:
        return max(MIN_CWND, self.cwnd)

    def pacing_rate_pps(self) -> float:
        return max(MIN_RATE_PPS, self.rate_pps)

    def sending_rate(self, rtt: float) -> float:
        """Instantaneous send rate in packets/second."""
        if self.kind == "window":
            return self.congestion_window() / max(rtt, 1e-6)
        return self.pacing_rate_pps()

    def __repr__(self) -> str:
        return f"{type(self).__name__}(cwnd={self.cwnd:.1f}, rate={self.rate_pps:.1f}pps)"
