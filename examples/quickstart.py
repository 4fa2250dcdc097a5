#!/usr/bin/env python3
"""Quickstart: a Sirpent internetwork in ~40 lines.

Builds the paper's running example — two Ethernets joined by a WAN link
— asks the routing directory for a source route, sends a VIPER packet,
and answers along the *reversed trailer route* with no routing lookup at
the server.

Run:  python examples/quickstart.py
"""

from repro.scenarios import build_sirpent_campus


def main() -> None:
    scenario = build_sirpent_campus()
    sim = scenario.sim

    # 1. Ask the directory for a route by character-string name (§3).
    from repro.directory import RouteQuery

    routes = scenario.directory.query(
        "venus", RouteQuery("milo.lcs.mit.edu")
    )
    route = routes[0]
    print(f"route to milo: {route.hop_count} hops, "
          f"MTU {route.mtu}B, bottleneck {route.bottleneck_bps / 1e6:.0f} Mb/s, "
          f"propagation {route.propagation_delay * 1e3:.1f} ms")
    print(f"predicted one-way delay for 1 KB: "
          f"{route.expected_one_way(1024) * 1e3:.2f} ms  "
          "(the client knows this before sending — §3)")

    # 2. Receive at milo and reply along the trailer.
    venus, milo = scenario.hosts["venus"], scenario.hosts["milo"]
    replies = []

    def on_request(delivered) -> None:
        print(f"milo got {delivered.payload.rstrip(bytes(1))!r} after "
              f"{(delivered.arrived_at - delivered.packet.created_at) * 1e3:.2f} ms via "
              f"{delivered.packet.hop_log}")
        # The return route came for free in the packet trailer (§2).
        milo.send_return(delivered, b"hello stanford".ljust(256, bytes(1)))

    milo.bind(0, on_request)
    venus.bind(0, replies.append)

    # 3. Send.
    venus.send(route, b"hello mit".ljust(512, bytes(1)))
    sim.run(until=1.0)

    reply = replies[0]
    print(f"venus got {reply.payload.rstrip(bytes(1))!r} after "
          f"{(reply.arrived_at - reply.packet.created_at) * 1e3:.2f} ms — no directory query, "
          "no addresses, just the reversed source route")


if __name__ == "__main__":
    main()
