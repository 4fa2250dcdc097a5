"""E15 — §4.2 maximum packet lifetime: timestamps vs TTL.

Paper claims:

* "unlike the TTL field in the IP packets, the creation timestamp
  requires no update in intermediate routers, thereby eliminating the
  associated processing load";
* receivers "discard packets that are older than an acceptable period",
  with recently booted machines being stricter;
* a Sirpent packet "cannot loop infinitely at the Sirpent level because
  the header is finite and is reduced by each router".

Setup: (a) count per-router lifetime work for the same packet stream
under IP (TTL decrement + incremental checksum each hop) and Sirpent
(none); (b) hold VMTP packets in a delay buffer and measure acceptance
vs age, including after a receiver reboot; (c) demonstrate the
structural loop bound: a looping source route dies when its segments
run out.
"""

from __future__ import annotations

from repro.directory.routes import Route
from repro.scenarios import build_ip_line, build_sirpent_line
from repro.transport import TransportConfig
from repro.transport.timestamps import TimestampPolicy, encode_timestamp_ms
from repro.transport.codec import PduKind, VmtpPdu, encode_pdu
from repro.viper.wire import HeaderSegment

from benchmarks._common import format_table, publish

N_PACKETS = 50
HOPS = 4


def run_router_work():
    # IP: every forwarded packet costs a TTL decrement + checksum update.
    ip = build_ip_line(n_routers=HOPS)
    ip.converge()
    ip.hosts["dst"].bind_protocol(42, lambda p: None)
    for _ in range(N_PACKETS):
        ip.hosts["src"].send("dst", b"x", 200, protocol=42)
    ip.sim.run(until=ip.sim.now + 2.0)
    ip_updates = sum(r.stats.forwarded.count for r in ip.routers.values())

    # Sirpent: zero lifetime-related fields exist in the header at all.
    sirpent = build_sirpent_line(n_routers=HOPS)
    sirpent.hosts["dst"].bind(0, lambda d: None)
    route = sirpent.routes("src", "dst")[0]
    for _ in range(N_PACKETS):
        sirpent.hosts["src"].send(route, bytes(200))
    sirpent.sim.run(until=2.0)
    forwarded = sum(
        r.stats.forwarded.count for r in sirpent.routers.values()
    )
    return {
        "ip_lifetime_updates": ip_updates,
        "sirpent_lifetime_updates": 0,
        "sirpent_forwarded": forwarded,
    }


def run_stale_acceptance():
    """Deliver PDUs of increasing age; count MPL rejections."""
    config = TransportConfig(mpl=TimestampPolicy(max_age_ms=100))
    scenario = build_sirpent_line(n_routers=1)
    client = scenario.transport("src", config=config)
    server = scenario.transport("dst", config=config)
    entity = server.create_entity(lambda m: (b"ok", 8), hint="server")
    route = scenario.vmtp_routes("src", "dst")[0]
    client_entity = client.create_entity(None, hint="client")

    ages_ms = (0, 50, 99, 150, 400)
    for index, age in enumerate(ages_ms):
        pdu = VmtpPdu(
            kind=PduKind.REQUEST, transaction_id=1000 + index,
            src_entity=client_entity, dst_entity=entity,
            member_index=0, group_count=1,
            timestamp=client.clock.stamp(),
            reply_socket=1, user_size=16, user_data=b"aged".ljust(16, b"\0"),
        )
        # Hold the packet 'in the network' for `age` milliseconds.
        scenario.sim.after(
            age / 1000.0,
            lambda p=pdu: scenario.hosts["src"].send(route, encode_pdu(p)),
        )
    scenario.sim.run(until=1.0)
    accepted_before = server.stats.received_pdus.count \
        - server.stats.lifetime_rejects.count
    rejected_before = server.stats.lifetime_rejects.count

    # Reboot the receiver: even young packets predating boot die.
    server.clock.reboot()
    fresh_but_preboot = VmtpPdu(
        kind=PduKind.REQUEST, transaction_id=2000,
        src_entity=client_entity, dst_entity=entity,
        member_index=0, group_count=1,
        timestamp=encode_timestamp_ms(server.clock.now_ms() - 50),  # 50ms before boot
        reply_socket=1, user_size=16, user_data=b"preboot".ljust(16, b"\0"),
    )
    scenario.hosts["src"].send(route, encode_pdu(fresh_but_preboot))
    scenario.sim.run(until=scenario.sim.now + 0.5)
    return {
        "sent": len(ages_ms) + 1,
        "accepted": accepted_before,
        "rejected_old": rejected_before,
        "rejected_preboot": server.stats.lifetime_rejects.count - rejected_before,
    }


def run_loop_bound():
    """A deliberately circular source route dies by header exhaustion."""
    scenario = build_sirpent_line(n_routers=2)
    # r1 port toward r2 and r2 port back toward r1: ping-pong 6 times.
    r1_to_r2 = next(
        pid for pid, att in scenario.routers["r1"].ports.items()
        if att.peer_name_for(None) == "r2"
    )
    r2_to_r1 = next(
        pid for pid, att in scenario.routers["r2"].ports.items()
        if att.peer_name_for(None) == "r1"
    )
    segments = []
    for _ in range(3):
        segments.append(HeaderSegment(port=r1_to_r2))
        segments.append(HeaderSegment(port=r2_to_r1))

    loop = Route(
        "dst", segments, next(iter(scenario.hosts["src"].ports)), None,
    )
    scenario.hosts["src"].send(loop, bytes(64))
    scenario.sim.run(until=1.0)
    exhausted = sum(
        r.stats.route_exhausted.count for r in scenario.routers.values()
    )
    hops = sum(r.stats.forwarded.count for r in scenario.routers.values())
    return {"hops_before_death": hops, "exhausted": exhausted}


def run_all():
    return run_router_work(), run_stale_acceptance(), run_loop_bound()


def bench_e15_packet_lifetime(benchmark):
    work, stale, loop = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        "E15  Packet lifetime enforcement: router work and receiver checks",
        ["quantity", "IP (TTL)", "Sirpent (timestamp)"],
        [
            (f"per-hop lifetime updates ({N_PACKETS} pkts x {HOPS} routers)",
             work["ip_lifetime_updates"], work["sirpent_lifetime_updates"]),
            ("packets forwarded", work["ip_lifetime_updates"],
             work["sirpent_forwarded"]),
        ],
    )
    table2 = format_table(
        "E15b  Receiver MPL checks (acceptance window 100 ms)",
        ["delivered with age", "outcome"],
        [
            ("0 / 50 / 99 ms", f"{stale['accepted']} accepted"),
            ("150 / 400 ms", f"{stale['rejected_old']} rejected (too old)"),
            ("young but pre-boot", f"{stale['rejected_preboot']} rejected "
             "(receiver just booted)"),
        ],
    )
    table3 = format_table(
        "E15c  Loop bound without TTL",
        ["circular 6-segment route", "value"],
        [
            ("hops taken before header exhausted", loop["hops_before_death"]),
            ("route-exhausted drops", loop["exhausted"]),
        ],
    )
    note = (
        "\nPaper: the timestamp 'requires no update in intermediate\n"
        "routers'; stale and pre-boot packets die at the receiver; a\n"
        "Sirpent packet 'cannot loop infinitely … because the header is\n"
        "finite and is reduced by each router'."
    )
    publish("e15_packet_lifetime", "\n\n".join([table, table2, table3]) + note)

    assert work["ip_lifetime_updates"] == N_PACKETS * HOPS
    assert work["sirpent_lifetime_updates"] == 0
    assert stale["accepted"] == 3
    assert stale["rejected_old"] == 2
    assert stale["rejected_preboot"] == 1
    # Exactly one forward per segment, then the empty-header packet dies
    # at the next router: the structural loop bound, no TTL involved.
    assert loop["hops_before_death"] == 6
    assert loop["exhausted"] == 1
