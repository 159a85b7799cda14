"""Bitwise reference for the fluid engine and the controllers' fluid laws.

``tests/golden/fluid_reference.json`` pins, for all five protocols, every
float of :class:`~repro.netsim.FlowMetrics` that :func:`run_fluid_scenario`
returns on a seeded ``DEFAULT_SPACE`` sample (uniform and
production-biased rows) plus edge rows: eight flows, a 5 ms RTT (the
3000-step run), a 200 ms RTT, the maximum 2% loss and a half-BDP buffer.
It also pins a digest of one :class:`FluidTrace` per protocol and of each
controller's state under a direct ``fluid_update(**kw)`` drive with loss.

Floats are stored as ``repr`` strings and compared with ``==``: a
speedup of the fluid engine must leave every bit of every label input
where it was.  The fixture was generated once, before the engine's hot
loop was rewritten, with::

    PYTHONPATH=src python tests/test_fluid_reference.py --generate

It is never regenerated to make a change pass; a mismatch means the
change moved a float.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.netsim import DEFAULT_SPACE, NetworkScenario
from repro.netsim.cc import PROTOCOLS, make_protocol
from repro.netsim.fluid import FluidTrace, run_fluid_scenario

FIXTURE = Path(__file__).resolve().parent / "golden" / "fluid_reference.json"

METRIC_FIELDS = (
    "duration", "avg_delay_ms", "p95_delay_ms", "throughput_mbps", "loss_fraction", "utilization",
)
N_UNIFORM = 12
N_BIASED = 12
EDGE_SCENARIOS = [
    NetworkScenario(bandwidth_mbps=40.0, rtt_ms=60.0, loss_rate=0.001, n_flows=8),
    NetworkScenario(bandwidth_mbps=30.0, rtt_ms=5.0, loss_rate=0.002, n_flows=2),
    NetworkScenario(bandwidth_mbps=15.0, rtt_ms=200.0, loss_rate=0.0005, n_flows=3),
    NetworkScenario(bandwidth_mbps=25.0, rtt_ms=40.0, loss_rate=0.02, n_flows=2),
    NetworkScenario(bandwidth_mbps=60.0, rtt_ms=30.0, loss_rate=0.0, n_flows=4, queue_bdp=0.5),
]
TRACE_SCENARIO = NetworkScenario(bandwidth_mbps=12.0, rtt_ms=25.0, loss_rate=0.004, n_flows=3)


def _scenarios() -> list[NetworkScenario]:
    uniform = DEFAULT_SPACE.sample(N_UNIFORM, np.random.default_rng(2021))
    biased = DEFAULT_SPACE.sample_production_biased(N_BIASED, np.random.default_rng(2102))
    return uniform + biased + EDGE_SCENARIOS


def _scenario_key(scenario: NetworkScenario) -> list:
    return [repr(scenario.bandwidth_mbps), repr(scenario.rtt_ms), repr(scenario.loss_rate),
            scenario.n_flows, repr(scenario.queue_bdp)]


def _digest(values) -> str:
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()


def _engine_runs() -> list[dict]:
    runs = []
    for row, scenario in enumerate(_scenarios()):
        for index, protocol in enumerate(sorted(PROTOCOLS)):
            metrics = run_fluid_scenario(scenario, protocol, random_state=1000 + 10 * row + index)
            runs.append({
                "scenario": _scenario_key(scenario),
                "protocol": protocol,
                "metrics": {name: repr(getattr(metrics, name)) for name in METRIC_FIELDS},
            })
    return runs


def _trace_digests() -> dict[str, str]:
    digests = {}
    for protocol in sorted(PROTOCOLS):
        trace = FluidTrace()
        run_fluid_scenario(TRACE_SCENARIO, protocol, random_state=7, trace=trace)
        digests[protocol] = _digest((trace.times, trace.queue, trace.total_rate))
    return digests


def _law_digests() -> dict[str, str]:
    """Drive each controller's public ``fluid_update`` through a fixed schedule.

    RTT swings above and below its minimum, delivered rate changes and
    rises from zero, and a loss burst arrives every 37th step, so every
    branch of every law (slow start, curve catch-up, gain cycle, loss
    reaction) is exercised outside the engine.
    """
    digests = {}
    for protocol in sorted(PROTOCOLS):
        controller = make_protocol(protocol)
        states = []
        for step in range(600):
            now = step * 0.01
            rtt = 0.05 + 0.03 * ((step * 7) % 11) / 11.0
            delivered = 0.0 if step < 3 else 200.0 + 150.0 * ((step * 5) % 13) / 13.0
            losses = 1.3 if step % 37 == 36 else 0.02
            controller.fluid_update(now=now, dt=0.01, rtt=rtt, expected_losses=losses,
                                    delivered_rate=delivered)
            states.append((controller.cwnd, controller.rate_pps, controller.sending_rate(rtt)))
        digests[protocol] = _digest(states)
    return digests


def _generate() -> dict:
    return {"runs": _engine_runs(), "traces": _trace_digests(), "laws": _law_digests()}


@pytest.fixture(scope="module")
def reference() -> dict:
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


class TestFluidReference:
    def test_every_flow_metric_is_bitwise_equal(self, reference):
        runs = _engine_runs()
        assert len(runs) == (N_UNIFORM + N_BIASED + len(EDGE_SCENARIOS)) * len(PROTOCOLS)
        assert len(runs) == len(reference["runs"])
        for got, want in zip(runs, reference["runs"]):
            assert got == want

    def test_fluid_traces_are_bitwise_equal(self, reference):
        assert _trace_digests() == reference["traces"]

    def test_public_fluid_update_is_bitwise_equal(self, reference):
        assert _law_digests() == reference["laws"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--generate"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_fluid_reference.py --generate")
    FIXTURE.write_text(json.dumps(_generate(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE}")
