"""Unit tests for the concatenated-virtual-circuit baseline."""


from repro.baselines.cvc import (
    CircuitState,
    CvcServer,
    CvcTransactionClient,
)
from repro.baselines.cvc import switch as cvc_switch
from repro.scenarios import build_cvc_line


def test_setup_confirm_opens_circuit():
    scenario = build_cvc_line(n_switches=2)
    src = scenario.hosts["src"]
    circuits = []
    src.open_circuit("dst", circuits.append)
    scenario.sim.run(until=1.0)
    assert circuits[0].state is CircuitState.OPEN
    assert circuits[0].setup_time > 0
    for switch in scenario.switches.values():
        assert switch.held_circuits == 1


def test_setup_time_scales_with_hops():
    short = build_cvc_line(n_switches=1)
    long = build_cvc_line(n_switches=5)
    times = {}
    for label, scenario in (("short", short), ("long", long)):
        circuits = []
        scenario.hosts["src"].open_circuit("dst", circuits.append)
        scenario.sim.run(until=1.0)
        times[label] = circuits[0].setup_time
    assert times["long"] > times["short"] * 2


def test_data_flows_both_ways():
    scenario = build_cvc_line(n_switches=2)
    src, dst = scenario.hosts["src"], scenario.hosts["dst"]
    received_at_dst = []
    dst.on_data(lambda circuit, payload, size: received_at_dst.append(
        (circuit, payload, size)
    ))
    circuits = []
    src.open_circuit("dst", circuits.append)
    scenario.sim.run(until=0.5)
    circuit = circuits[0]
    src.send(circuit, b"forward", 500)
    scenario.sim.run(until=1.0)
    assert received_at_dst[0][1] == b"forward"
    # Reply on the same circuit.
    back = []
    src.on_data(lambda c, payload, size: back.append(payload))
    dst.send(received_at_dst[0][0], b"reverse", 200)
    scenario.sim.run(until=1.5)
    assert back == [b"reverse"]


def test_release_tears_down_state():
    scenario = build_cvc_line(n_switches=2)
    src = scenario.hosts["src"]
    circuits = []
    src.open_circuit("dst", circuits.append)
    scenario.sim.run(until=0.5)
    src.close_circuit(circuits[0])
    scenario.sim.run(until=1.0)
    for switch in scenario.switches.values():
        assert switch.held_circuits == 0
    assert circuits[0].state is CircuitState.CLOSED


def test_circuit_table_capacity_refuses(monkeypatch):
    monkeypatch.setattr(cvc_switch, "MAX_CIRCUITS", 2)
    scenario = build_cvc_line(n_switches=1)
    src = scenario.hosts["src"]
    outcomes = []
    for _ in range(4):
        src.open_circuit("dst", lambda c: outcomes.append(c.state))
    scenario.sim.run(until=1.0)
    assert outcomes.count(CircuitState.OPEN) == 2
    assert outcomes.count(CircuitState.REFUSED) == 2
    assert scenario.switches["s1"].circuits_refused.count == 2


def test_bandwidth_reservation_blocks_oversubscription():
    """'resource reservation' — the switch refuses when the port's
    reservable bandwidth is exhausted (§1)."""
    scenario = build_cvc_line(n_switches=1)
    src = scenario.hosts["src"]
    outcomes = []
    # Port rate 10 Mbps, reservable 90%: two 4 Mbps fit, a third won't.
    for _ in range(3):
        src.open_circuit("dst", lambda c: outcomes.append(c.state),
                         reserve_bps=4e6)
    scenario.sim.run(until=1.0)
    assert outcomes.count(CircuitState.OPEN) == 2
    assert outcomes.count(CircuitState.REFUSED) == 1


def test_released_bandwidth_reusable():
    scenario = build_cvc_line(n_switches=1)
    src = scenario.hosts["src"]
    circuits = []
    src.open_circuit("dst", circuits.append, reserve_bps=8e6)
    scenario.sim.run(until=0.5)
    src.close_circuit(circuits[0])
    scenario.sim.run(until=1.0)
    src.open_circuit("dst", circuits.append, reserve_bps=8e6)
    scenario.sim.run(until=1.5)
    assert circuits[1].state is CircuitState.OPEN


def test_setup_timeout_on_dead_path():
    scenario = build_cvc_line(n_switches=2)
    scenario.topology.fail_link("s1--s2")
    # Routes were installed while the link was up: setup vanishes.
    src = scenario.hosts["src"]
    outcomes = []
    src.open_circuit("dst", lambda c: outcomes.append(c.state))
    scenario.sim.run(until=1.0)
    assert outcomes == [CircuitState.REFUSED]


class TestTransactionClient:
    def _serve(self, scenario):
        CvcServer(scenario.hosts["dst"], lambda payload, size: (b"pong", 100))

    def test_fresh_circuit_per_transaction(self):
        scenario = build_cvc_line(n_switches=2)
        self._serve(scenario)
        client = CvcTransactionClient(
            scenario.sim, scenario.hosts["src"], hold_circuits=False,
        )
        results = []
        client.transact("dst", b"q", 500, results.append)
        scenario.sim.run(until=1.0)
        assert results[0].ok
        assert results[0].setup_time > 0
        assert not results[0].circuit_reused
        # Circuit was closed afterwards: no held state.
        assert all(s.held_circuits == 0 for s in scenario.switches.values())

    def test_held_circuit_amortizes_setup(self):
        scenario = build_cvc_line(n_switches=2)
        self._serve(scenario)
        client = CvcTransactionClient(
            scenario.sim, scenario.hosts["src"], hold_circuits=True,
        )
        results = []
        client.transact("dst", b"q1", 500, results.append)
        scenario.sim.run(until=1.0)
        client.transact("dst", b"q2", 500, results.append)
        scenario.sim.run(until=2.0)
        assert results[0].ok and results[1].ok
        assert not results[0].circuit_reused
        assert results[1].circuit_reused
        assert results[1].total_time < results[0].total_time
        # But the switches still hold state — the paper's §1 trade-off.
        assert all(s.held_circuits == 1 for s in scenario.switches.values())
