"""Fluid-model network simulation — the fast engine.

Solves the standard fluid approximation of a shared bottleneck: each flow
contributes its instantaneous sending rate, the queue integrates
``arrival − capacity``, RTT is ``base + queue/capacity``, and congestion
controllers advance their state via their :meth:`fluid_step` law.
Overflow and random loss are converted into expected-loss mass; a flow's
loss credit fires one :meth:`on_loss` reaction per window once a whole
packet's worth has accumulated.

The fluid engine reproduces the steady-state and slow-timescale behaviour
of the packet engine at a fraction of the cost, which is what makes
generating thousands of labeled Scream-vs-rest scenarios tractable
(``tests/test_netsim_engines.py::TestEngineAgreement`` checks the two
engines agree on the qualitative orderings the dataset depends on).
"""

from __future__ import annotations

import numpy as np

from ..exceptions import EmulationError
from ..rng import RandomState, check_random_state
from .cc import make_protocol
from .cc.base import MIN_CWND, MIN_RATE_PPS
from .emulator import FlowMetrics, _weighted_percentile
from .packet import NetworkScenario

__all__ = ["run_fluid_scenario", "FluidTrace"]


class FluidTrace:
    """Optional per-step trace (queue, rates) for inspection and tests."""

    def __init__(self):
        self.times: list[float] = []
        self.queue: list[float] = []
        self.total_rate: list[float] = []

    def record(self, t: float, queue: float, rate: float) -> None:
        self.times.append(t)
        self.queue.append(queue)
        self.total_rate.append(rate)

    def as_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return np.asarray(self.times), np.asarray(self.queue), np.asarray(self.total_rate)


def run_fluid_scenario(
    scenario: NetworkScenario,
    protocol: str,
    *,
    duration: float | None = None,
    warmup_fraction: float = 0.25,
    random_state: RandomState = None,
    trace: FluidTrace | None = None,
) -> FlowMetrics:
    """Run the fluid model for one (scenario, protocol) pair.

    ``duration`` defaults to enough RTTs for the control loops to settle
    (50 RTTs, clamped to 3–20 seconds).  The first ``warmup_fraction``
    of the run is excluded from latency statistics.
    """
    rng = check_random_state(random_state)
    base_rtt = scenario.base_rtt_s
    capacity = scenario.bandwidth_pps
    queue_cap = float(scenario.queue_capacity_packets)
    if duration is None:
        duration = min(20.0, max(3.0, 50.0 * base_rtt))
    # The control loops operate on RTT timescales, so ~5 steps per RTT
    # resolves the dynamics; the step cap bounds cost on very short-RTT
    # scenarios where the absolute duration floor dominates.
    dt = max(1e-3, base_rtt / 5.0)
    steps = int(np.ceil(duration / dt))
    if steps > 4000:
        steps = 4000
        dt = duration / steps
    if steps < 10:
        raise EmulationError(f"duration {duration}s too short for dt {dt}s")

    controllers = [make_protocol(protocol) for _ in range(scenario.n_flows)]
    for controller in controllers:
        controller.reset(now=0.0)
        # Desynchronize control loops slightly, as staggered starts do in
        # the packet engine.
        controller.rate_pps *= float(rng.uniform(0.9, 1.1))
        controller.cwnd *= float(rng.uniform(0.9, 1.1))

    window_based = controllers[0].kind == "window"
    queue = 0.0
    sent_total = 0.0
    lost_total = 0.0
    delivered_total = 0.0
    delay_samples: list[float] = []
    delay_weights: list[float] = []
    warmup_time = warmup_fraction * duration
    loss_rate = scenario.loss_rate
    half_rtt = base_rtt / 2.0

    # Hot loop: plain floats/lists beat numpy at n_flows <= 8.  Each
    # flow-step is one positional ``fluid_step`` call; send rates
    # (``sending_rate``) and the loss-credit gate (``accumulate_loss``) are
    # inlined with the same float operations in the same order.
    for step in range(steps):
        now = step * dt
        rtt_now = base_rtt + queue / capacity
        if window_based:
            rtt_floor = rtt_now if rtt_now > 1e-6 else 1e-6
            rates = [(c.cwnd if c.cwnd > MIN_CWND else MIN_CWND) / rtt_floor for c in controllers]
        else:
            rates = [c.rate_pps if c.rate_pps > MIN_RATE_PPS else MIN_RATE_PPS for c in controllers]
        arrival = sum(rates)
        sent_total += arrival * dt

        # Queue integration with drop-tail overflow.
        next_queue = queue + (arrival - capacity) * dt
        overflow = next_queue - queue_cap
        if overflow > 0.0:
            queue = queue_cap
        else:
            overflow = 0.0
            queue = next_queue if next_queue > 0.0 else 0.0

        served = capacity if queue > 0 or capacity < arrival else arrival
        delivered_total += served * dt
        inv_arrival = 1.0 / arrival if arrival > 0 else 0.0

        for controller, rate in zip(controllers, rates):
            share = rate * inv_arrival
            losses = rate * dt * loss_rate + overflow * share
            lost_total += losses
            controller.fluid_step(now, dt, rtt_now, served * share)
            # ``losses`` is never negative, so adding it is ``max(0.0, losses)``.
            credit = controller._loss_credit + losses
            if credit >= 1.0 and now - controller.last_loss_reaction >= rtt_now:
                credit = 0.0
                controller.on_loss(now=now)
            controller._loss_credit = credit

        if trace is not None:
            trace.record(now, queue, arrival)
        if now >= warmup_time:
            delay_samples.append((half_rtt + queue / capacity) * 1000.0)
            delay_weights.append(served * dt)

    delays = np.asarray(delay_samples)
    weights = np.asarray(delay_weights)
    if weights.sum() <= 0:
        raise EmulationError(f"fluid run delivered nothing for {protocol!r} under {scenario}")
    throughput_mbps = delivered_total / duration * 8 * 1500 / 1e6
    return FlowMetrics(
        protocol=protocol,
        scenario=scenario,
        duration=duration,
        avg_delay_ms=float(np.average(delays, weights=weights)),
        p95_delay_ms=_weighted_percentile(delays, weights, 0.95),
        throughput_mbps=float(throughput_mbps),
        # Clamp: per-step float rounding can put lost/sent a few ulps
        # above 1.0 when nearly every packet of a step is dropped.
        loss_fraction=float(min(1.0, lost_total / sent_total)) if sent_total else 0.0,
        utilization=float(min(1.0, delivered_total / (capacity * duration))),
    )
