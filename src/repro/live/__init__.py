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

import importlib

#: Each submodule and the public names it defines.  The package imports
#: a submodule only when one of its names is first asked for, so
#: :mod:`repro.live.frames` — the frame codec the simulator forwards
#: with too — loads without the daemons, which import the simulator's
#: transport in turn.
_EXPORTS = (
    ("directory", ("DirectoryError", "LiveDirectoryClient",
                   "LiveDirectoryServer")),
    ("frames", ("FLAG_TRACED", "FRAME_ACK", "FRAME_DATA", "FRAME_PROBE",
                "Preamble",
                "decode_live_frame", "encode_live_frame")),
    ("host", ("LIVE_TRANSPORT", "LiveHost", "LiveRoute",
              "LiveTransactor", "WallClock")),
    ("link", ("Address", "Impairments", "LiveEndpoint", "LivenessConfig")),
    ("metrics", ("EndpointMetrics", "render_metrics")),
    ("router", ("Action", "Decision", "LiveRouter", "LiveRouterConfig")),
    ("topology", ("LiveOverlay", "as_live_route")),
)

__all__ = sorted(name for _module, names in _EXPORTS for name in names)


def __getattr__(name):
    for module, names in _EXPORTS:
        if name in names:
            return getattr(importlib.import_module(f"{__name__}.{module}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
