"""Concatenated-virtual-circuit baseline (X.75 style).

§1 of the paper: "The CVC approach requires a circuit setup between
endpoints before communication can take place, introducing a full
roundtrip delay.  It also requires a significant amount of state in the
gateways to maintain connection state.  (However, the circuit provides
a basis for access control, accounting, resource reservation and
efficient addressing.)"

All of that is modelled: hop-by-hop SETUP/CONFIRM signalling with
per-switch processing delays, per-circuit label-swap tables with
capacity limits, bandwidth reservation, and small data headers once the
circuit exists.
"""

from repro.baselines.cvc.circuit import Circuit, CircuitState, CvcKind, CvcPacket
from repro.baselines.cvc.host import (
    CvcHost,
    CvcServer,
    CvcTransactionClient,
    CvcTransactionResult,
)
from repro.baselines.cvc.switch import CvcSwitch, compute_static_routes

__all__ = [
    "Circuit",
    "CircuitState",
    "CvcHost",
    "CvcKind",
    "CvcPacket",
    "CvcServer",
    "CvcSwitch",
    "CvcTransactionClient",
    "CvcTransactionResult",
    "compute_static_routes",
]
