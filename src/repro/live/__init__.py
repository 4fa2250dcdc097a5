"""The live overlay: Sirpent nodes as real asyncio UDP/TCP daemons.

Where :mod:`repro.sim` models time, :mod:`repro.live` spends it — each
router and host is a live process-local daemon on its own loopback UDP
socket, exchanging byte-exact VIPER packets behind a small overlay
preamble (:mod:`repro.live.frames`).  The switching pipeline, token
admission, trailer algebra and directory logic are the *same code* the
simulator runs; only the substrate differs.  The directory is served
over newline-delimited JSON TCP (:mod:`repro.live.directory`), and
:class:`~repro.live.topology.LiveOverlay` boots the whole thing from an
ordinary :class:`repro.net.topology.Topology` description.
"""

from repro.live.directory import (
    DirectoryError,
    LiveDirectoryClient,
    LiveDirectoryServer,
)
from repro.live.frames import (
    FLAG_TRACED,
    FRAME_ACK,
    FRAME_DATA,
    Preamble,
    decode_live_frame,
    encode_live_frame,
)
from repro.live.host import (
    LiveDelivered,
    LiveHost,
    LiveRoute,
    LiveTransactionResult,
    LiveTransactor,
    TransactorConfig,
    WallClock,
)
from repro.live.link import Address, Impairments, LiveEndpoint, ReliabilityConfig
from repro.live.metrics import EndpointMetrics, render_metrics
from repro.live.router import Action, Decision, LiveRouter, LiveRouterConfig
from repro.live.topology import LiveOverlay, as_live_route

__all__ = [
    "Action",
    "Address",
    "Decision",
    "DirectoryError",
    "EndpointMetrics",
    "FLAG_TRACED",
    "FRAME_ACK",
    "FRAME_DATA",
    "Impairments",
    "LiveDelivered",
    "LiveDirectoryClient",
    "LiveDirectoryServer",
    "LiveEndpoint",
    "LiveHost",
    "LiveOverlay",
    "LiveRoute",
    "LiveRouter",
    "LiveRouterConfig",
    "LiveTransactionResult",
    "LiveTransactor",
    "Preamble",
    "ReliabilityConfig",
    "TransactorConfig",
    "WallClock",
    "as_live_route",
    "decode_live_frame",
    "encode_live_frame",
    "render_metrics",
]
