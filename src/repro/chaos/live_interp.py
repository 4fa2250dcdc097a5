"""Replaying a fault plan against the live UDP overlay.

:class:`LiveFaultInterpreter` walks the *same* compiled schedule the sim
interpreter walks — one sequential asyncio task, anchored to the event
loop clock — and applies each event through the same
:class:`~repro.chaos.seam.FaultInjector`.  The per-packet seam is
:attr:`repro.live.link.LiveEndpoint.fault_hook`: every node's endpoint
maps the peer address it is about to transmit to back to the directed
link name (``"r1->r2"``) and asks the injector for the datagram's fate.

Entity faults map onto overlay machinery:

* ``router_crash`` — :meth:`LiveOverlay.kill` (the socket closes; the
  neighbours' probe ladders find it silent), then
  :meth:`LiveOverlay.restart_router` — same UDP port, **soft state
  re-derived** (fresh token/flow caches, no probe out), the end-to-end
  proof of §2.2;
* ``directory_outage`` — the NDJSON TCP listener stops and later
  restarts on its original port; clients ride the
  :class:`~repro.live.directory.LiveDirectoryClient` reconnect path.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional

from repro.chaos.plan import FaultEvent, FaultPlan, START
from repro.chaos.seam import FaultInjector
from repro.live.link import Address, LiveEndpoint
from repro.live.topology import LiveOverlay


def _address_hook(
    injector: FaultInjector, links_by_addr: Dict[Address, str]
):
    """One endpoint's per-datagram fate question, bound to its wiring."""

    def fault_hook(addr: Address):
        link_name = links_by_addr.get(addr)
        if link_name is None:
            return None  # directory TCP / unknown peers: not a plan link
        return injector.decide(link_name)

    return fault_hook


class LiveFaultInterpreter:
    """Walks one plan's schedule on the asyncio clock."""

    def __init__(self, overlay: LiveOverlay, plan: FaultPlan) -> None:
        self.overlay = overlay
        self.plan = plan
        edges = [(e.src, e.dst) for e in overlay.topology.all_edges()]
        self.injector = FaultInjector(plan, edges)
        self.injector.register(overlay.registry, substrate="live")
        self._task: Optional[asyncio.Task] = None
        self._installed = False

    # -- seam installation -------------------------------------------------

    def install(self) -> None:
        """Put the injector's fate hook on every live endpoint.

        Must run after :meth:`LiveOverlay.start` (wiring exists then).
        Survives router restarts: the endpoint object is reused across
        a crash, so its hook rides along.
        """
        node_names = {
            addr: name for name, addr in self.overlay.addresses.items()
        }
        for name in list(self.overlay.routers) + list(self.overlay.hosts):
            node = self.overlay._node(name)
            endpoint: LiveEndpoint = node.endpoint
            links_by_addr: Dict[Address, str] = {}
            for peer_addr, peer_name in node_names.items():
                if peer_name != name:
                    links_by_addr[peer_addr] = f"{name}->{peer_name}"
            endpoint.fault_hook = _address_hook(self.injector, links_by_addr)
        self._installed = True

    # -- schedule ----------------------------------------------------------

    def start(self) -> asyncio.Task:
        """Launch the schedule walker; returns its task."""
        if not self._installed:
            self.install()
        if self._task is not None:
            raise RuntimeError("interpreter already started")
        self._task = asyncio.get_running_loop().create_task(self._run())
        return self._task

    async def wait(self) -> None:
        """Block until the whole schedule has been applied."""
        if self._task is not None:
            await self._task

    def cancel(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        anchor = loop.time()
        for event in self.injector.events:
            delay = anchor + event.t - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.injector.apply(event, loop.time() - anchor)
            await self._apply_entity(event)

    async def _apply_entity(self, event: FaultEvent) -> None:
        """Async side effects the injector cannot perform itself."""
        if event.kind == "router_crash":
            name = event.target[len("router:"):]
            if event.action == START:
                self.overlay.kill(name)
            else:
                await self.overlay.restart_router(name)
        elif event.kind == "directory_outage":
            if event.action == START:
                self.overlay.directory_server.stop()
            else:
                await self.overlay.restart_directory()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LiveFaultInterpreter plan={self.plan.name!r} "
            f"installed={self._installed}>"
        )
