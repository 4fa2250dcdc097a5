"""Traffic generation: sizes, arrival processes, application models.

Regenerates the workloads the paper reasons about: the packet-size
mixture of Cheriton & Williamson [4] (:mod:`repro.workloads.sizes`),
Poisson arrivals
(:mod:`repro.workloads.arrivals`), and closed-loop application models —
transactions, file transfer, real-time video
(:mod:`repro.workloads.apps`).
"""

from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.apps import FileTransferApp, JitterMeter, TransactionApp, VideoStreamApp
from repro.workloads.sizes import PacketSizeMixture

__all__ = [
    "FileTransferApp",
    "JitterMeter",
    "PacketSizeMixture",
    "PoissonArrivals",
    "TransactionApp",
    "VideoStreamApp",
]
