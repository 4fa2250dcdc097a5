"""Targeted tests of selective retransmission (§4.3), both directions."""


from repro.scenarios import build_sirpent_line
from repro.transport import RouteManager, TransportConfig


def drop_nth(channel, indices):
    """Swallow the packets at the given 0-based transmit indices."""
    original = channel.transmit
    counter = {"n": -1}

    def transmit(packet, size, header_bytes, **kwargs):
        counter["n"] += 1
        tx = original(packet, size, header_bytes, **kwargs)
        if counter["n"] in indices:
            for event in (tx.header_event, tx.complete_event):
                if event is not None:
                    event.cancel()
        return tx

    channel.transmit = transmit
    return counter


def setup(config=None, reply_size=64):
    scenario = build_sirpent_line(n_routers=1)
    config = config or TransportConfig(base_timeout=100e-3, nak_delay=3e-3)
    client = scenario.transport("src", config=config)
    server = scenario.transport("dst", config=config)
    calls = []

    def handler(message):
        calls.append(message)
        return b"reply", reply_size

    entity = server.create_entity(handler, hint="server")
    manager = RouteManager(scenario.sim, scenario.vmtp_routes("src", "dst"))
    return scenario, client, server, entity, manager, calls


def test_lost_request_member_recovered_by_server_nak():
    """Drop one member of a 4-member request: the server NAKs the gap
    and the client resends ONLY that member — well before the client's
    own (long) retransmission timer."""
    scenario, client, server, entity, manager, calls = setup()
    # src->r1 channel: member index 1 of the first group dies.
    drop_nth(scenario.topology.links["src--r1"].a_to_b, {1})
    results = []
    client.transact(manager, entity, b"big", 4000, results.append)
    scenario.sim.run(until=2.0)
    assert results[0].ok
    assert len(calls) == 1
    assert calls[0].total_size == 4000
    # Selective: the client sent 4 + 1 retransmitted member, not 8.
    assert client.stats.sent_pdus.count == 5
    assert server.stats.naks_sent.count >= 1
    assert client.stats.retransmissions.count == 1
    # The recovery happened NAK-fast (well under the 100 ms timer).
    assert results[0].rtt < 50e-3


def test_lost_response_member_recovered_by_client_nak():
    """Drop one member of a multi-member response: the client NAKs and
    the server resends only the missing member from its cache."""
    scenario, client, server, entity, manager, calls = setup(
        config=TransportConfig(base_timeout=15e-3, nak_delay=3e-3),
        reply_size=4000,
    )
    # r1->dst... the response travels dst->r1->src; drop on dst->r1.
    # The response members are transmit indices 0..3 on that channel.
    drop_nth(scenario.topology.links["r1--dst"].b_to_a, {2})
    results = []
    client.transact(manager, entity, b"get", 64, results.append)
    scenario.sim.run(until=2.0)
    assert results[0].ok
    assert results[0].response_size == 4000
    assert len(calls) == 1  # handler ran once; retransmit came from cache
    assert client.stats.naks_sent.count >= 1
    assert server.stats.retransmissions.count >= 1


def test_multiple_lost_members_one_nak_round():
    scenario, client, server, entity, manager, calls = setup()
    drop_nth(scenario.topology.links["src--r1"].a_to_b, {0, 2})
    results = []
    client.transact(manager, entity, b"big", 4000, results.append)
    scenario.sim.run(until=2.0)
    assert results[0].ok
    assert len(calls) == 1
    # 4 originals + exactly the 2 missing members.
    assert client.stats.sent_pdus.count == 6


def test_response_nak_finds_its_own_clients_cached_response():
    """Two clients' transactions share transaction id 1 at one server.
    B loses one member of its 3-member response; its NAK must be
    answered from B's cached response, not from A's 2-member one."""
    scenario = build_sirpent_line(n_routers=1, extra_host_pairs=1)
    config = TransportConfig()
    client_a = scenario.transport("src", config=config)
    client_b = scenario.transport("src2", config=config)
    server = scenario.transport("dst", config=config)
    entity = server.create_entity(
        lambda m: (b"reply", 2000 if m.total_size == 100 else 3000),
        hint="server",
    )
    manager_a = RouteManager(scenario.sim, scenario.vmtp_routes("src", "dst"))
    manager_b = RouteManager(scenario.sim, scenario.vmtp_routes("src2", "dst"))
    # r1 -> src2 carries B's response members as transmit indices 0..2.
    drop_nth(scenario.topology.links["src2--r1"].b_to_a, {2})
    results_a, results_b = [], []
    client_a.transact(manager_a, entity, b"a", 100, results_a.append)
    client_b.transact(manager_b, entity, b"b", 200, results_b.append)
    scenario.sim.run(until=2.0)
    assert results_a[0].ok and results_a[0].response_size == 2000
    assert results_b[0].ok, results_b[0].error
    assert results_b[0].response_size == 3000
    assert results_b[0].retries == 1


def test_request_member_lost_on_every_attempt_ends_the_transaction():
    """Member 1 of a 3-member request never arrives.  The server's NAK
    rounds stop after MAX_FRUITLESS_NAKS that bring nothing, so the
    client's timeout ladder runs: the transaction fails within its
    retries, and the server goes quiet."""
    from repro.transport.vmtp import MAX_FRUITLESS_NAKS, VmtpPdu

    config = TransportConfig(base_timeout=20e-3, max_total_retries=3)
    scenario, client, server, entity, manager, calls = setup(config=config)
    channel = scenario.topology.links["src--r1"].a_to_b
    original = channel.transmit

    def transmit(packet, size, header_bytes, **kwargs):
        tx = original(packet, size, header_bytes, **kwargs)
        pdu = packet.payload
        if isinstance(pdu, VmtpPdu) and pdu.member_index == 1:
            for event in (tx.header_event, tx.complete_event):
                if event is not None:
                    event.cancel()
        return tx

    channel.transmit = transmit
    results, finished = [], []

    def done(result):
        results.append(result)
        finished.append(scenario.sim.now)

    client.transact(manager, entity, b"big", 3000, done)
    scenario.sim.run(until=10.0)
    assert len(results) == 1
    assert not results[0].ok and results[0].error == "retries exhausted"
    attempts = config.max_total_retries + 1
    per_attempt = config.base_timeout + (MAX_FRUITLESS_NAKS + 4) * config.nak_delay
    assert finished[0] < attempts * per_attempt
    assert calls == []
    assert server.stats.abandoned_assemblies.count == attempts
    naks = server.stats.naks_sent.count
    scenario.sim.run(until=11.0)
    assert server.stats.naks_sent.count == naks


def test_timeout_probes_with_the_last_member():
    """The whole 4-member response is lost.  The client's timeout sends
    the request's last member alone, not the group; the server hears a
    duplicate of an answered transaction and replays the response once:
    4 + 4 response members, 4 + 1 request members."""
    scenario, client, server, entity, manager, calls = setup(
        config=TransportConfig(base_timeout=15e-3, nak_delay=3e-3),
        reply_size=4000,
    )
    # The response travels dst->r1->src: its first group dies on dst->r1.
    drop_nth(scenario.topology.links["r1--dst"].b_to_a, {0, 1, 2, 3})
    results = []
    client.transact(manager, entity, b"big", 4000, results.append)
    scenario.sim.run(until=2.0)
    assert results[0].ok and results[0].retries == 1
    assert len(calls) == 1
    assert client.stats.sent_pdus.count == 5
    assert server.stats.duplicate_requests.count == 1
    assert server.stats.sent_pdus.count == 8
