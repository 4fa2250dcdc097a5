"""Unit tests for the load monitor feeding the directory (§3, §6.3)."""


from repro.directory import RouteQuery
from repro.directory.monitoring import LoadMonitor
from repro.directory.pathfind import PathObjective
from repro.scenarios import build_sirpent_parallel


def test_monitor_reports_hot_links():
    scenario = build_sirpent_parallel(n_paths=2, path_delay_step=50e-6)
    monitor = LoadMonitor(
        scenario.sim, scenario.topology, scenario.directory, interval=10e-3,
    )
    # Saturate the primary path with raw sends.
    route = scenario.routes("src", "dst")[0]
    host = scenario.hosts["src"]

    def flood() -> None:
        if scenario.sim.now < 0.5:
            host.send(route, bytes(1200))
            scenario.sim.after(1e-3, flood)

    scenario.sim.after(0.0, flood)
    scenario.sim.run(until=0.45)  # while the flood is still running
    assert monitor.reports > 0
    loads = scenario.directory._loads
    assert loads.get("rA--p1", 0.0) > 0.8       # the hot path
    assert loads.get("rA--p2", 0.0) < 0.1       # the idle one
    # Once the load stops, the stale reading decays away.
    scenario.sim.run(until=1.0)
    assert scenario.directory._loads["rA--p1"] < 0.05


def test_reported_load_steers_low_cost_routes():
    scenario = build_sirpent_parallel(n_paths=2, path_delay_step=0.0)
    LoadMonitor(scenario.sim, scenario.topology, scenario.directory,
                interval=10e-3)
    route = scenario.routes("src", "dst")[0]
    host = scenario.hosts["src"]

    def flood() -> None:
        if scenario.sim.now < 0.5:
            host.send(route, bytes(1200))
            scenario.sim.after(1e-3, flood)

    scenario.sim.after(0.0, flood)
    scenario.sim.run(until=0.3)
    fresh = scenario.directory.query("src", RouteQuery(
        "dst.lab.edu", objective=PathObjective.LOW_COST,
    ))[0]
    # The fresh low-cost route detours around the hot first path.
    hot_port = route.segments[0].port
    assert fresh.segments[0].port != hot_port


def test_idle_network_reports_near_zero():
    scenario = build_sirpent_parallel(n_paths=2)
    monitor = LoadMonitor(scenario.sim, scenario.topology,
                          scenario.directory, interval=10e-3)
    scenario.sim.run(until=0.2)
    assert monitor.reports > 0
    assert all(v < 0.05 for v in scenario.directory._loads.values())
