"""Structural: one transaction machine in ``src/``, two thin adapters.

The simulator's :class:`~repro.transport.vmtp.VmtpTransport` and the
live overlay's :class:`~repro.live.host.LiveTransactor` each only clock
:class:`~repro.transport.machine.TransactionMachine` and move its PDUs;
neither holds transaction state or handles a PDU kind itself.
"""

import ast
import inspect

import repro.live
import repro.live.host as live_host
from repro.live.host import LiveHost, LiveTransactor
from repro.scenarios import build_sirpent_line
from repro.transport import machine

#: What only the machine may hold.
MACHINE_STATE = ("_client_txs", "_assemblies", "_response_cache", "_entities")

#: The machine's PDU handlers and timers, and the twin's old ones.
PDU_HANDLERS = (
    "_on_request", "_on_response", "_on_nak", "_on_probe", "_on_status",
    "_on_response_nak", "_on_request_nak", "_server_nak", "_on_timeout",
    "_launch_group", "_send_response_group", "_send_probe",
    "_resend_missing",
)


def _imports(module):
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module)
    return names


def test_the_machine_imports_no_event_loop_and_no_simulator():
    for name in _imports(machine):
        assert name != "asyncio" and not name.startswith("asyncio."), name
        assert name != "repro.sim" and not name.startswith("repro.sim."), name


def test_one_transaction_machine_and_no_twin_in_src():
    adapters = (
        build_sirpent_line(n_routers=1).transport("src"),
        LiveTransactor(LiveHost("host")),
    )
    for adapter in adapters:
        kind = type(adapter).__name__
        assert isinstance(adapter.machine, machine.TransactionMachine), kind
        for name in PDU_HANDLERS + MACHINE_STATE:
            assert not hasattr(adapter, name), (kind, name)
    for name in ("_KIND_PROBE", "_KIND_STATUS", "_MASK", "_TX_HEADER",
                 "TransactorConfig", "_ClientTx", "_ServerAssembly",
                 "LiveTransactionResult"):
        assert not hasattr(live_host, name), name
    for name in ("TransactorConfig", "LiveTransactionResult"):
        assert name not in repro.live.__all__, name
    # One result type: the machine's, which the live transactor returns.
    for name in ("probes", "members_resent", "response_payload"):
        assert name not in machine.TransactionResult.__dataclass_fields__, name


def test_the_live_adapter_does_not_import_the_simulators():
    """The live overlay reaches the machine and its stats directly, not
    through the simulator's adapter (and with it the simulator)."""
    assert "repro.transport.vmtp" not in _imports(live_host)
