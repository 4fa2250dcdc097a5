"""Full stack over shared Ethernets: contention, VMTP, return routing.

The paper's running example is Ethernet-centric; these tests make sure
the whole stack behaves when the medium itself is shared — frames
contend for the segment, portInfo carries the MACs, and return routes
reverse the frame headers (§2's worked example).
"""


from repro.scenarios import build_sirpent_campus
from repro.transport import RouteManager, TransportConfig
from repro.viper.portinfo import EthernetInfo
from repro.directory import RouteQuery
from tests.live.oracle import return_route


def test_concurrent_transactions_share_the_ethernet():
    scenario = build_sirpent_campus()
    config = TransportConfig()
    # Two Stanford clients hammer one MIT server concurrently.
    clients = [scenario.transport(name, config=config)
               for name in ("venus", "gregorio")]
    server = scenario.transport("milo", config=config)
    entity = server.create_entity(lambda m: (b"ok", 400), hint="milo")
    results = {name: [] for name in ("venus", "gregorio")}

    def make_loop(name, client):
        routes = scenario.directory.query(name, RouteQuery(
            "milo.lcs.mit.edu", dest_socket=config.socket,
        ))
        manager = RouteManager(scenario.sim, routes)
        box = results[name]

        def issue():
            if len(box) >= 10:
                return
            client.transact(manager, entity, b"q", 800,
                            lambda r: (box.append(r), issue()))

        return issue

    for name, client in zip(results, clients):
        make_loop(name, client)()
    scenario.sim.run(until=5.0)
    for name, box in results.items():
        assert len(box) == 10, name
        assert all(r.ok for r in box), name
    # The shared Stanford Ethernet carried both clients' frames.
    ether = scenario.topology.segments["ether-stanford"]
    assert ether.frames_sent.count >= 40


def test_ethernet_portinfo_reversal_on_the_worked_example():
    """The §2 worked example, checked field by field: forward portInfo
    names the next hop on the far Ethernet; the trailer element's
    portInfo is the *arrival* header reversed."""
    scenario = build_sirpent_campus()
    route = scenario.directory.query("venus", RouteQuery(
        "milo.lcs.mit.edu",
    ))[0]
    got = []
    scenario.hosts["milo"].bind(0, got.append)
    scenario.hosts["venus"].send(route, b"worked example".ljust(300, b"\0"))
    scenario.sim.run(until=1.0)
    delivered = got[0]
    # Return route: first return segment exits gw-mit back toward the
    # WAN (p2p: empty portInfo), second exits gw-stanford onto the
    # Stanford Ethernet toward venus.
    second = return_route(delivered)[1]
    info = EthernetInfo.from_bytes(second.portinfo)
    venus_mac = next(
        e.dst_mac for e in scenario.topology.edges()
        if e.dst == "venus" and e.medium == "ethernet"
    )
    gw_mac = next(
        e.dst_mac for e in scenario.topology.edges()
        if e.dst == "gw-stanford" and e.medium == "ethernet"
    )
    assert info.dst == venus_mac   # reversed: back to the source host
    assert info.src == gw_mac      # from the gateway's own address
    # And the physical first hop of the reply is the arrival frame's
    # source (gw-mit's MAC on the MIT Ethernet).
    assert delivered.first_hop_mac is not None


def test_broadcast_frame_reaches_all_campus_hosts():
    from repro.net.addresses import BROADCAST, MacAddress
    from repro.viper.wire import HeaderSegment

    scenario = build_sirpent_campus()
    inboxes = {}
    for name in ("gregorio",):  # the other Stanford host
        box = []
        scenario.hosts[name].bind(0, box.append)
        inboxes[name] = box

    class Route:
        segments = [HeaderSegment(port=0)]
        first_hop_port = next(iter(scenario.hosts["venus"].ports))
        first_hop_mac = MacAddress(BROADCAST)

    scenario.hosts["venus"].send(Route, b"anyone there?".ljust(100, b"\0"))
    scenario.sim.run(until=1.0)
    assert len(inboxes["gregorio"]) == 1
