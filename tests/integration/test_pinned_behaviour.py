"""Simulated behaviour pinned to exact values.

A change to how the simulator schedules its work (which events exist,
how they are dispatched, what is computed once instead of twice) must
leave every simulated outcome alone.  Each scenario below drives one
path of the link model, the router or the congestion manager and is
reduced to a summary: the transactions' fingerprint, the congestion
signals sent, the routers' cut-through and store-and-forward counts,
and every channel's packets sent and utilization at the end.  The
values in :data:`PINNED` were captured from a run of the simulator and
are compared exactly.  ``Simulator.events_executed`` is deliberately
absent: how many events carry a behaviour is not the behaviour.

A change that means to move simulated behaviour updates the value it
moves and says why.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List

import pytest

from repro.chaos import soak
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.core.host import SirpentHost
from repro.core.router import RouterConfig, SirpentRouter
from repro.directory import RouteQuery
from repro.net.topology import Topology
from repro.scenarios import build_sirpent_campus, build_sirpent_random
from repro.sim.engine import Simulator
from repro.transport import RouteManager, TransportConfig
from repro.viper.flags import PRIORITY_PREEMPT_HIGH
from repro.viper.wire import HeaderSegment
from tests.integration.test_congestion_backpressure import drive_dumbbell


class StaticRoute:
    def __init__(self, segments, first_hop_port, first_hop_mac=None):
        self.segments = segments
        self.first_hop_port = first_hop_port
        self.first_hop_mac = first_hop_mac


def media_digest(sim: Simulator, topology: Topology) -> str:
    """Every channel's and segment's packets sent and utilization now."""
    rows = []
    for name, link in sorted(topology.links.items()):
        for channel in (link.a_to_b, link.b_to_a):
            rows.append((
                channel.name, channel.packets_sent.count,
                channel.packets_aborted.count,
                repr(channel.utilization.utilization(sim.now)),
            ))
    for name, segment in sorted(topology.segments.items()):
        rows.append((
            name, segment.frames_sent.count,
            repr(segment.utilization.utilization(sim.now)),
        ))
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def summary(sim: Simulator, topology: Topology, fingerprint: Any) -> Dict[str, Any]:
    routers = [n for n in topology.nodes.values() if isinstance(n, SirpentRouter)]
    managers = [r.congestion for r in routers if r.congestion is not None]
    return {
        "fingerprint": fingerprint,
        "signals_sent": sum(m.signals_sent.count for m in managers),
        "cut_through": sum(r.stats.cut_through_forwards.count for r in routers),
        "store_forward": sum(r.stats.store_forwards.count for r in routers),
        "packets_sent": sum(
            c.packets_sent.count
            for link in topology.links.values() for c in (link.a_to_b, link.b_to_a)
        ) + sum(s.frames_sent.count for s in topology.segments.values()),
        "media": media_digest(sim, topology),
    }


def transactions_fingerprint(results: List[Any]) -> tuple:
    return (
        len(results),
        sum(1 for r in results if r.ok),
        round(sum(r.rtt for r in results if r.ok), 9),
        sum(r.retries for r in results),
    )


def drive_transactions(scenario, pairs, sizes, gap_s, until_s, routes_for):
    """One transaction per (src, dst) pair every ``gap_s``, sizes round robin."""
    config = TransportConfig(base_timeout=20e-3)
    transports = {
        name: scenario.transport(name, config=config) for name in scenario.hosts
    }
    entities = {
        name: transport.create_entity(lambda m: (b"ok", 200), hint=f"svc-{name}")
        for name, transport in transports.items()
    }
    results: List[Any] = []
    for index, (src, dst) in enumerate(pairs):
        manager = RouteManager(scenario.sim, routes_for(src, dst))
        scenario.sim.at(
            index * gap_s,
            lambda s=src, d=dst, m=manager, z=sizes[index % len(sizes)]:
                transports[s].transact(m, entities[d], b"q", z, results.append),
        )
    scenario.sim.run(until=until_s)
    return results


def random_with_tokens(seed: int) -> Dict[str, Any]:
    scenario = build_sirpent_random(
        n_routers=10, n_hosts=6, extra_edges=5, seed=seed,
        router_config=RouterConfig(require_tokens=True),
    )
    rng = scenario.rngs.stream("workload")
    names = sorted(scenario.hosts)
    pairs = [tuple(rng.sample(names, 2)) for _ in range(60)]
    results = drive_transactions(
        scenario, pairs, (64, 700, 2500), 2e-3, 0.5,
        lambda src, dst: scenario.vmtp_routes(src, dst, k=2, with_tokens=True),
    )
    return summary(scenario.sim, scenario.topology, transactions_fingerprint(results))


def campus_ethernet() -> Dict[str, Any]:
    """Routers and hosts share each campus Ethernet; traffic crosses the
    WAN (router to router) and stays on one segment (host to host)."""
    scenario = build_sirpent_campus()
    pairs = [("venus", "milo"), ("gregorio", "venus"), ("zermatt", "gregorio"),
             ("milo", "zermatt")] * 10
    domains = {"venus": "cs.stanford.edu", "gregorio": "cs.stanford.edu",
               "milo": "lcs.mit.edu", "zermatt": "lcs.mit.edu"}
    results = drive_transactions(
        scenario, pairs, (64, 1400, 3000), 1e-3, 0.5,
        lambda src, dst: scenario.directory.query(src, RouteQuery(
            f"{dst}.{domains[dst]}", k=2, dest_socket=TransportConfig().socket,
        )),
    )
    return summary(scenario.sim, scenario.topology, transactions_fingerprint(results))


def chain(rates, cut_through=True):
    """src — r1 — … — dst, one rate per link, no congestion manager;
    ``send(label, size, **options)`` sends ``size`` bytes from src that
    dst records under ``label``."""
    sim = Simulator()
    topo = Topology(sim)
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    routers = [
        topo.add_node(SirpentRouter(
            sim, f"r{i + 1}",
            config=RouterConfig(congestion_enabled=False, cut_through=cut_through),
        ))
        for i in range(len(rates) - 1)
    ]
    _, src_port, _ = topo.connect(src, routers[0], rate_bps=rates[0])
    ports = []
    for a, b, rate in zip(routers, routers[1:], rates[1:]):
        ports.append(topo.connect(a, b, rate_bps=rate)[1])
    ports.append(topo.connect(routers[-1], dst, rate_bps=rates[-1])[1])
    route = StaticRoute(
        [HeaderSegment(port=p) for p in ports] + [HeaderSegment(port=0)], src_port,
    )
    got: List[Any] = []
    labels: Dict[int, Any] = {}

    def send(label, size, **options):
        labels[src.send(route, bytes(size), **options).packet_id] = label

    dst.bind(0, lambda d: got.append(
        (labels[d.packet.packet_id], repr(d.arrived_at), d.trailer.truncated)
    ))
    return sim, topo, send, got


def preemption_mid_cut_through() -> Dict[str, Any]:
    sim, topo, send, got = chain([1e6, 1e6, 1e6])
    send(b"victim", 5000, priority=0)
    sim.at(10e-3, lambda: send(b"urgent", 200, priority=PRIORITY_PREEMPT_HIGH))
    sim.at(12e-3, lambda: send(b"queued", 700, priority=0))
    sim.at(100e-3, lambda: send(b"later", 300, priority=0))
    sim.run(until=1.0)
    return summary(sim, topo, tuple(got))


def link_failure_after_header() -> Dict[str, Any]:
    sim, topo, send, got = chain([1e6, 1e6, 1e6])
    r1_to_r2 = topo.links["r1--r2"].a_to_b
    send(b"victim", 5000)
    sim.at(10e-3, r1_to_r2.fail)
    sim.at(60e-3, r1_to_r2.restore)
    sim.at(100e-3, lambda: send(b"later", 300))
    # The last wire fails once dst holds the header (a host, which
    # ignores headers), then carries one more frame.
    r2_to_dst = topo.links["r2--dst"].a_to_b
    sim.at(200e-3, lambda: send(b"cut", 5000))
    sim.at(206e-3, r2_to_dst.fail)
    sim.at(300e-3, r2_to_dst.restore)
    sim.at(400e-3, lambda: send(b"last", 300))
    sim.run(until=1.0)
    return summary(sim, topo, tuple(got))


def store_and_forward() -> Dict[str, Any]:
    """A router configured store-and-forward, and a cut-through router
    that must store and forward onto a slower link."""
    outcomes = []
    merged = {}
    for rates, cut_through in (([10e6, 10e6, 10e6], False), ([10e6, 10e6, 4e6], True)):
        sim, topo, send, got = chain(rates, cut_through=cut_through)
        for index, size in enumerate((64, 1000, 1400, 200, 1400)):
            sim.at(index * 0.3e-3, lambda z=size, i=index: send(i, z))
        sim.run(until=0.2)
        part = summary(sim, topo, tuple(got))
        outcomes.append(part.pop("fingerprint"))
        for key, value in part.items():
            merged.setdefault(key, []).append(value)
    merged["fingerprint"] = tuple(outcomes)
    return merged


def chaos_fates(monkeypatch) -> Dict[str, Any]:
    built = []

    def capture(seed=1):
        built.append(soak.build_sirpent_parallel(
            n_paths=2, path_delay_step=50e-6, seed=seed,
        ))
        return built[-1]

    monkeypatch.setattr(soak, "chaos_scenario", capture)
    plan = FaultPlan(
        seed=11,
        specs=(
            FaultSpec("drop", "rA<->p1", onset_s=0.0, duration_s=0.6, rate=0.2),
            FaultSpec("duplicate", "p1<->rB", onset_s=0.1, duration_s=0.6, rate=0.5),
            FaultSpec("corrupt", "rA<->p2", onset_s=0.2, duration_s=0.6, rate=0.3),
            FaultSpec("duplicate", "src<->rA", onset_s=0.3, duration_s=0.4, rate=0.5),
        ),
        name="pinned-fates",
    )
    report = soak.run_sim_soak(plan, grace_s=0.5, tx_interval_s=0.01)
    scenario = built[0]
    outcomes = [(t.retries, t.route_switches, repr(t.finished_s)) for t in report.transactions]
    fingerprint = (
        report.ok_count, report.failed_count,
        sum(t.retries for t in report.transactions),
        hashlib.sha256(repr(outcomes).encode()).hexdigest()[:16],
        hashlib.sha256(report.applied_ndjson.encode()).hexdigest()[:16],
        sorted(report.delivery_counts.values()) == [1] * len(report.delivery_counts),
    )
    return summary(scenario.sim, scenario.topology, fingerprint)


def congestion_dumbbell() -> Dict[str, Any]:
    """Signals are sent, limits installed upstream, then ramp away."""
    scenario, left, outport = drive_dumbbell(congestion_enabled=True)
    managers = [r.congestion for r in scenario.routers.values()]
    during = (
        outport.queue_length.maximum, outport.drops.count,
        sum(m.signals_received.count for m in managers),
        sum(len(m.limits) for m in managers),
        sum(m.total_held() for m in managers),
    )
    after = []
    for until in (1.3, 1.7, 3.2):
        scenario.sim.run(until=until)
        after.append(tuple(
            (m.node_name, key, repr(limiter.rate_bps), len(limiter.held))
            for m in managers for key, limiter in sorted(m.limits.items())
        ))
    assert after[-1] == ()
    hosts = tuple(
        (name, host.received.count, repr(host.delivery_delay.mean))
        for name, host in sorted(scenario.hosts.items())
    )
    return summary(scenario.sim, scenario.topology, (during, tuple(after), hosts))


SCENARIOS = {
    **{f"random-tokens-seed{seed}": (lambda s=seed: random_with_tokens(s)) for seed in range(1, 6)},
    "campus-ethernet": campus_ethernet,
    "preemption-mid-cut-through": preemption_mid_cut_through,
    "link-failure-after-header": link_failure_after_header,
    "store-and-forward": store_and_forward,
    "congestion-dumbbell": congestion_dumbbell,
}


PINNED: Dict[str, Dict[str, Any]] = {'campus-ethernet': {'cut_through': 144,
                        'fingerprint': (40, 40, 0.7031768, 0),
                        'media': 'c4603af9be399b20',
                        'packets_sent': 275,
                        'signals_sent': 4,
                        'store_forward': 0},
    'chaos-fates': {'cut_through': 1930,
                    'fingerprint': (281, 0, 13, '8756dd23a9f03620', 'ed0f47b7e0d66160', True),
                    'media': '80e970bf727cfc5f',
                    'packets_sent': 2661,
                    'signals_sent': 0,
                    'store_forward': 101},
    'congestion-dumbbell': {'cut_through': 5931,
                            'fingerprint': ((36, 0, 870, 3, 537),
                                            ((('a1', ('rL', 1), '3000000.0', 145),
                                              ('a2', ('rL', 1), '3000000.0', 153),
                                              ('a3', ('rL', 1), '3000000.0', 122)),
                                             (('a1', ('rL', 1), '12000000.0', 0),
                                              ('a2', ('rL', 1), '6000000.0', 0),
                                              ('a3', ('rL', 1), '96000000.0', 0)),
                                             ()),
                                            (('receiver1', 666, '0.30216335419010726'),
                                             ('receiver2', 670, '0.3265996620626174'),
                                             ('receiver3', 641, '0.300431499423619'),
                                             ('sender1', 0, '0.0'),
                                             ('sender2', 0, '0.0'),
                                             ('sender3', 0, '0.0'))),
                            'media': 'bba02ac4389f2e07',
                            'packets_sent': 7908,
                            'signals_sent': 2649,
                            'store_forward': 0},
    'link-failure-after-header': {'cut_through': 8,
                                  'fingerprint': ((b'later', '0.102623', False),
                                                  (b'last', '0.402623', False)),
                                  'media': 'fd385b35bca10a58',
                                  'packets_sent': 9,
                                  'signals_sent': 0,
                                  'store_forward': 0},
    'preemption-mid-cut-through': {'cut_through': 8,
                                   'fingerprint': ((b'urgent', '0.011823000000000002', False),
                                                   (b'queued', '0.017823000000000002', False),
                                                   (b'later', '0.102623', False)),
                                   'media': '8da754f7136c7e68',
                                   'packets_sent': 9,
                                   'signals_sent': 0,
                                   'store_forward': 0},
    'random-tokens-seed1': {'cut_through': 518,
                            'fingerprint': (60, 60, 0.305199806, 0),
                            'media': 'a4c1c5242d71e763',
                            'packets_sent': 678,
                            'signals_sent': 0,
                            'store_forward': 0},
    'random-tokens-seed2': {'cut_through': 524,
                            'fingerprint': (60, 60, 0.482369811, 0),
                            'media': 'bdee9ffff4e6879e',
                            'packets_sent': 684,
                            'signals_sent': 0,
                            'store_forward': 0},
    'random-tokens-seed3': {'cut_through': 366,
                            'fingerprint': (60, 60, 0.26309068, 0),
                            'media': '7aef005c0271497f',
                            'packets_sent': 526,
                            'signals_sent': 0,
                            'store_forward': 0},
    'random-tokens-seed4': {'cut_through': 500,
                            'fingerprint': (60, 60, 0.367071697, 0),
                            'media': '918ad61547536045',
                            'packets_sent': 660,
                            'signals_sent': 0,
                            'store_forward': 0},
    'random-tokens-seed5': {'cut_through': 446,
                            'fingerprint': (60, 60, 0.219563443, 0),
                            'media': 'd1d22438be2a4b26',
                            'packets_sent': 606,
                            'signals_sent': 0,
                            'store_forward': 0},
    'store-and-forward': {'cut_through': [0, 5],
                          'fingerprint': (((0, '0.0003182', False),
                                           (1, '0.0028646000000000006', False),
                                           (2, '0.0046342', False),
                                           (3, '0.004807', False),
                                           (4, '0.005939799999999999', False)),
                                          ((0, '0.0003066000000000001', False),
                                           (1, '0.0032274', False),
                                           (2, '0.0060593999999999995', False),
                                           (3, '0.0064914', False),
                                           (4, '0.009323399999999999', False))),
                          'media': ['bee357185f087571', 'bb0569d367305c4d'],
                          'packets_sent': [15, 15],
                          'signals_sent': [0, 0],
                          'store_forward': [10, 5]}}



@pytest.mark.parametrize("name", sorted(SCENARIOS) + ["chaos-fates"])
def test_simulated_behaviour_is_pinned(name, monkeypatch):
    got = chaos_fates(monkeypatch) if name == "chaos-fates" else SCENARIOS[name]()
    assert got == PINNED[name]
