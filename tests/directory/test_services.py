"""Unit tests for replicated-service (anycast) registration (§3)."""

import pytest

from repro.directory import RouteQuery
from repro.scenarios import build_sirpent_parallel
from repro.core.host import SirpentHost


def build_service_network():
    """src -- rA -(p1|p2)- rB -- dst, plus a second provider near rA."""
    scenario = build_sirpent_parallel(n_paths=2, path_delay_step=1e-3)
    near = SirpentHost(scenario.sim, "near",
                       control_plane=scenario.control_plane)
    scenario.topology.add_node(near)
    scenario.hosts["near"] = near
    scenario.topology.connect(near, scenario.routers["rA"])
    scenario.directory.register_host("near", "near.lab.edu")
    scenario.directory.register_service(
        "printer.lab.edu", ["dst", "near"]
    )
    return scenario


def test_service_routes_ranked_by_objective():
    scenario = build_service_network()
    routes = scenario.directory.query("src", RouteQuery(
        "printer.lab.edu", k=2,
    ))
    assert len(routes) == 2
    # The near instance (1 hop) ranks above the far one (3 hops).
    assert routes[0].hop_count < routes[1].hop_count
    assert routes[0].hop_count == 1


def test_k_truncates_instances():
    scenario = build_service_network()
    routes = scenario.directory.query("src", RouteQuery(
        "printer.lab.edu", k=1,
    ))
    assert len(routes) == 1
    assert routes[0].hop_count == 1


def test_service_survives_instance_unreachability():
    scenario = build_service_network()
    # Cut off the near instance; the far one still answers.
    scenario.topology.fail_link("near--rA")
    routes = scenario.directory.query("src", RouteQuery(
        "printer.lab.edu", k=2,
    ))
    assert len(routes) == 1
    assert routes[0].hop_count == 3


def test_delivery_to_the_chosen_instance():
    scenario = build_service_network()
    got = []
    scenario.hosts["near"].bind(0, got.append)
    route = scenario.directory.query("src", RouteQuery(
        "printer.lab.edu",
    ))[0]
    scenario.hosts["src"].send(route, b"print me".ljust(200, b"\0"))
    scenario.sim.run(until=1.0)
    assert len(got) == 1


def test_empty_provider_list_rejected():
    scenario = build_service_network()
    with pytest.raises(ValueError):
        scenario.directory.register_service("bad.lab.edu", [])


def test_host_names_still_single_provider():
    scenario = build_service_network()
    assert scenario.directory.nodes_of("near.lab.edu") == ["near"]
    assert scenario.directory.nodes_of("printer.lab.edu") == ["dst", "near"]
    assert scenario.directory.nodes_of("ghost.lab.edu") == []
