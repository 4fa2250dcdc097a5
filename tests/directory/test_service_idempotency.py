"""DirectoryService registration: idempotent re-register, typed conflict.

The in-sim directory now carries the same binding semantics as the
cluster's state machine — a retried register must not fail because its
first copy landed, and a *contradictory* binding must never silently
win (moves are the explicit :meth:`rebind_host`).
"""

import pytest

from repro.directory.service import (
    BindingConflictError,
    DirectoryService,
)
from repro.net.topology import Topology
from repro.core.host import SirpentHost
from repro.sim.engine import Simulator


def _service():
    sim = Simulator()
    topology = Topology(sim)
    topology.add_node(SirpentHost(sim, "venus"))
    topology.add_node(SirpentHost(sim, "pescadero"))
    return DirectoryService(sim, topology)


def test_reregistering_the_identical_binding_is_a_noop():
    service = _service()
    first = service.register_host("venus", "venus.cs.stanford.edu")
    again = service.register_host("venus", "venus.cs.stanford.edu")
    assert str(first) == str(again)
    assert service.nodes_of("venus.cs.stanford.edu") == ["venus"]


def test_conflicting_host_binding_raises_typed_error():
    service = _service()
    service.register_host("venus", "venus.cs.stanford.edu")
    with pytest.raises(BindingConflictError) as err:
        service.register_host("pescadero", "venus.cs.stanford.edu")
    assert err.value.name == "venus.cs.stanford.edu"
    assert err.value.bound_to == "venus"
    assert err.value.requested == "pescadero"
    # The standing binding is untouched — never last-write-wins.
    assert service.nodes_of("venus.cs.stanford.edu") == ["venus"]


def test_conflict_is_a_value_error_for_legacy_callers():
    service = _service()
    service.register_host("venus", "venus.cs.stanford.edu")
    with pytest.raises(ValueError):
        service.register_host("pescadero", "venus.cs.stanford.edu")


def test_service_registration_is_idempotent_too():
    service = _service()
    service.register_service("print.stanford.edu", ["venus", "pescadero"])
    service.register_service("print.stanford.edu", ["venus", "pescadero"])
    assert service.nodes_of("print.stanford.edu") == ["venus", "pescadero"]


def test_service_provider_change_is_a_conflict():
    service = _service()
    service.register_service("print.stanford.edu", ["venus"])
    with pytest.raises(BindingConflictError):
        service.register_service("print.stanford.edu", ["pescadero"])


def test_rebind_host_is_the_explicit_move():
    service = _service()
    service.register_host("venus", "venus.cs.stanford.edu")
    service.rebind_host("pescadero", "venus.cs.stanford.edu")
    assert service.nodes_of("venus.cs.stanford.edu") == ["pescadero"]


def test_rebind_host_works_for_fresh_names_too():
    service = _service()
    service.rebind_host("venus", "new.cs.stanford.edu")
    assert service.nodes_of("new.cs.stanford.edu") == ["venus"]
