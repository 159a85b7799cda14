"""Packet and scenario value objects shared by both simulation engines."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..exceptions import EmulationError

__all__ = ["Packet", "NetworkScenario", "DEFAULT_PACKET_BYTES"]

DEFAULT_PACKET_BYTES = 1500


@dataclass
class Packet:
    """One data segment in flight.

    ``enqueue_time``/``dequeue_time`` are stamped by the link so per-packet
    queueing delay can be reconstructed exactly.
    """

    flow_id: int
    sequence: int
    size_bytes: int = DEFAULT_PACKET_BYTES
    send_time: float = 0.0
    enqueue_time: float = 0.0
    dequeue_time: float = 0.0
    is_ack: bool = False
    acked_sequence: int = -1


@dataclass(frozen=True)
class NetworkScenario:
    """A network condition — the feature vector of the Scream-vs-rest task.

    Mirrors the paper's feature set for the congestion-control running
    example: bottleneck bandwidth, base latency, random loss rate, and the
    number of concurrent (competing) flows.  ``queue_bdp`` sizes the
    bottleneck buffer in bandwidth-delay products.
    """

    bandwidth_mbps: float
    rtt_ms: float
    loss_rate: float
    n_flows: int = 1
    queue_bdp: float = 2.0

    def __post_init__(self):
        for name in ("bandwidth_mbps", "rtt_ms", "loss_rate", "n_flows", "queue_bdp"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise EmulationError(f"{name} must be finite, got {value}")
        if self.bandwidth_mbps <= 0:
            raise EmulationError(f"bandwidth must be positive, got {self.bandwidth_mbps}")
        if self.rtt_ms <= 0:
            raise EmulationError(f"rtt must be positive, got {self.rtt_ms}")
        if not 0.0 <= self.loss_rate < 1.0:
            raise EmulationError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        if self.n_flows < 1:
            raise EmulationError(f"n_flows must be >= 1, got {self.n_flows}")
        if self.queue_bdp <= 0:
            raise EmulationError(f"queue_bdp must be positive, got {self.queue_bdp}")

    @property
    def bandwidth_pps(self) -> float:
        """Bottleneck capacity in packets per second."""
        return self.bandwidth_mbps * 1e6 / (8 * DEFAULT_PACKET_BYTES)

    @property
    def base_rtt_s(self) -> float:
        return self.rtt_ms / 1000.0

    @property
    def bdp_packets(self) -> float:
        """Bandwidth-delay product in packets."""
        return self.bandwidth_pps * self.base_rtt_s

    @property
    def queue_capacity_packets(self) -> int:
        return max(2, int(round(self.queue_bdp * self.bdp_packets)))

    def as_features(self) -> tuple[float, float, float, float]:
        """The (bandwidth, rtt, loss, flows) feature vector used by AutoML."""
        return (self.bandwidth_mbps, self.rtt_ms, self.loss_rate, float(self.n_flows))
