"""Tests for the bottleneck link and scenario value objects."""

import numpy as np
import pytest

from repro.exceptions import EmulationError
from repro.netsim.events import Simulator
from repro.netsim.link import BottleneckLink
from repro.netsim.packet import DEFAULT_PACKET_BYTES, NetworkScenario, Packet


def _link(sim, **overrides):
    defaults = dict(rate_pps=100.0, one_way_delay=0.01, queue_capacity=5, loss_rate=0.0,
                    rng=np.random.default_rng(0))
    defaults.update(overrides)
    return BottleneckLink(sim, **defaults)


class TestBottleneckLink:
    def test_delivery_after_serialization_and_propagation(self):
        sim = Simulator()
        link = _link(sim)
        arrivals = []
        link.send(Packet(flow_id=0, sequence=0, send_time=0.0), lambda p: arrivals.append(sim.now))
        sim.run(1.0)
        # 1/100 s serialization + 0.01 s propagation.
        assert arrivals == [pytest.approx(0.02)]

    def test_fifo_order(self):
        sim = Simulator()
        link = _link(sim)
        order = []
        for seq in range(3):
            link.send(Packet(flow_id=0, sequence=seq), lambda p: order.append(p.sequence))
        sim.run(1.0)
        assert order == [0, 1, 2]

    def test_back_to_back_serialization_spacing(self):
        sim = Simulator()
        link = _link(sim, one_way_delay=0.0)
        times = []
        for seq in range(3):
            link.send(Packet(flow_id=0, sequence=seq), lambda p: times.append(sim.now))
        sim.run(1.0)
        assert np.allclose(np.diff(times), 0.01)  # 1/rate spacing

    def test_drop_tail_overflow(self):
        sim = Simulator()
        link = _link(sim, queue_capacity=2)
        accepted = [link.send(Packet(flow_id=0, sequence=s), lambda p: None) for s in range(5)]
        # First packet starts transmitting immediately and leaves the queue,
        # so 3 are admitted before the 2-slot queue overflows.
        assert sum(accepted) == 3
        assert link.stats.dropped_overflow == 2

    def test_random_loss_rate(self):
        sim = Simulator()
        link = _link(sim, loss_rate=0.5, queue_capacity=10**6)
        outcomes = [link.send(Packet(flow_id=0, sequence=s), lambda p: None) for s in range(2000)]
        sim.run(100.0)
        assert np.mean(outcomes) == pytest.approx(0.5, abs=0.05)
        assert link.stats.dropped_random == 2000 - sum(outcomes)

    def test_drop_listener_called(self):
        sim = Simulator()
        link = _link(sim, queue_capacity=1)
        drops = []
        link.drop_listeners.append(lambda p: drops.append(p.sequence))
        for seq in range(4):
            link.send(Packet(flow_id=0, sequence=seq), lambda p: None)
        assert len(drops) == link.stats.dropped

    def test_utilization_accounting(self):
        sim = Simulator()
        link = _link(sim, one_way_delay=0.0, queue_capacity=100)
        for seq in range(10):
            link.send(Packet(flow_id=0, sequence=seq), lambda p: None)
        sim.run(1.0)
        assert link.stats.utilization(1.0) == pytest.approx(0.1)

    def test_queueing_delay_estimate(self):
        sim = Simulator()
        link = _link(sim)
        for seq in range(4):
            link.send(Packet(flow_id=0, sequence=seq), lambda p: None)
        assert link.queueing_delay_estimate() == pytest.approx(link.queue_length / 100.0)

    def test_parameter_validation(self):
        sim = Simulator()
        with pytest.raises(EmulationError):
            _link(sim, rate_pps=0.0)
        with pytest.raises(EmulationError):
            _link(sim, one_way_delay=-1.0)
        with pytest.raises(EmulationError):
            _link(sim, queue_capacity=0)
        with pytest.raises(EmulationError):
            _link(sim, loss_rate=1.0)


class TestNetworkScenario:
    def test_derived_quantities(self):
        scenario = NetworkScenario(bandwidth_mbps=12.0, rtt_ms=100.0, loss_rate=0.01)
        assert scenario.bandwidth_pps == pytest.approx(12e6 / (8 * DEFAULT_PACKET_BYTES))
        assert scenario.base_rtt_s == pytest.approx(0.1)
        assert scenario.bdp_packets == pytest.approx(scenario.bandwidth_pps * 0.1)
        assert scenario.queue_capacity_packets >= 2

    def test_feature_vector_order(self):
        scenario = NetworkScenario(bandwidth_mbps=5, rtt_ms=20, loss_rate=0.01, n_flows=3)
        assert scenario.as_features() == (5.0, 20.0, 0.01, 3.0)

    def test_validation(self):
        with pytest.raises(EmulationError):
            NetworkScenario(bandwidth_mbps=0, rtt_ms=10, loss_rate=0)
        with pytest.raises(EmulationError):
            NetworkScenario(bandwidth_mbps=1, rtt_ms=0, loss_rate=0)
        with pytest.raises(EmulationError):
            NetworkScenario(bandwidth_mbps=1, rtt_ms=10, loss_rate=1.0)
        with pytest.raises(EmulationError):
            NetworkScenario(bandwidth_mbps=1, rtt_ms=10, loss_rate=0, n_flows=0)
        with pytest.raises(EmulationError):
            NetworkScenario(bandwidth_mbps=1, rtt_ms=10, loss_rate=0, queue_bdp=0)

    @pytest.mark.parametrize("field", ["bandwidth_mbps", "rtt_ms", "loss_rate", "queue_bdp"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_rejected(self, field, value):
        """NaN/inf used to pass validation and die later in ``int(round(...))``."""
        kwargs = dict(bandwidth_mbps=10.0, rtt_ms=20.0, loss_rate=0.0, queue_bdp=2.0)
        kwargs[field] = value
        with pytest.raises(EmulationError, match=f"{field} must be finite"):
            NetworkScenario(**kwargs)
