"""SIR008 — hot-path allocation discipline in the zero-copy fastpath.

PR 8 made the per-packet fast path allocation-free: packets live in
ring-slot buffers (:mod:`repro.viper.ring`), segments are parsed as
offset views (:class:`repro.viper.wire.SegmentView`), the flow cache
memoizes encoded return tails, and the live hop move rewrites bytes in
place.  That property decays one innocent-looking ``bytes(...)`` at a
time, so it is enforced statically:

* functions on the fast path are **marked** with a ``# sirlint: hot``
  comment on their ``def`` line; inside a marked function the rule
  flags ``bytes()``/``bytearray()`` construction, ``+``-concatenation
  with a bytes literal, ``list``/``dict``/``set`` literals and
  comprehensions, and per-packet closures (nested ``def``/``lambda``);
* the table :data:`REQUIRED_HOT` pins the functions PR 8 measured —
  removing a marker does not silence the rule, it *is* a finding.

In scope are :mod:`repro.dataplane` and :mod:`repro.viper` (the sans-IO
layers both drivers share), the simulator's frame-hop loop in
:mod:`repro.sim`, :mod:`repro.core` and :mod:`repro.net` (engine
scheduling, the router driver's process/apply/forward, the output
port, the channel) and, in :mod:`repro.live`, the router's batch loop
and the endpoint's drain, sends and ack handling under it.  Slow-path oracles — the
materialising codec, ``tobytes()`` escape hatches, multicast expansion
— stay unmarked and free to allocate; a genuinely-justified allocation
in a hot function carries an inline ``# sirlint: disable=SIR008``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Set, Tuple

from sirlint.model import Finding, ModuleInfo, dotted_name
from sirlint.rules.base import Rule

#: Packages whose marked functions the rule inspects.
HOT_PACKAGES: Tuple[str, ...] = (
    "repro.dataplane",
    "repro.viper",
    # The simulator's frame-hop loop (PR 16): engine, router driver,
    # output port, channel.
    "repro.sim",
    "repro.core",
    "repro.net",
    # The live router's batch loop (PR 17) and the link layer's drain
    # and send (PR 23): run once per frame-hop.
    "repro.live",
)

#: The def-line marker naming a function as fast-path.
HOT_MARKER = "# sirlint: hot"

#: Fast-path functions that must stay marked (module -> def names):
#: the allocation discipline on these is load-bearing for the PR 8
#: packets/sec numbers, so dropping a marker is itself a finding.
REQUIRED_HOT: Dict[str, Tuple[str, ...]] = {
    "repro.viper.wire": (
        "parse_segment_view",
        # The sole validators of a segment and an alternate block: the
        # structural decoders are these walks plus materialisation.
        "segment_span",
        "alt_block_span",
        "of_slot",
        "mem",
    ),
    "repro.viper.packet": (
        "trailer_spans",
    ),
    "repro.dataplane.flowcache": (
        # Last-entry compare, then the dict: all a known flow's packet
        # pays to be recognised.
        "lookup",
    ),
    "repro.dataplane.pipeline": (
        # Stages 0-2a; its warm arm is the per-packet stage.
        "decide",
    ),
    # The one router core both substrates' hops run through: read,
    # decide, apply.
    "repro.dataplane.router": (
        "step",
    ),
    # The one host edge both substrates' hosts open every delivered
    # frame through: a memo miss's allocations (the trailer's and the
    # header's bytes) are in its unmarked helpers.
    "repro.dataplane.host": (
        "open",
    ),
    "repro.live.router": (
        "_on_batch",
    ),
    # A data frame's walk past its route and alternate blocks, run by
    # every host receive and every truncation; and the move every
    # forwarded frame takes (the router core calls ``hop_move_into``
    # itself on a memoised decision, ``forward_into`` on any other),
    # which ends in ``_land``'s one preamble write.
    "repro.live.frames": (
        "payload_offset",
        "forward_into",
        "hop_move_into",
        "_land",
    ),
    # The link layer under it (PR 23): one wakeup per frame at batch
    # fill 1, one send per frame-hop (``send_view`` from a router,
    # ``send`` from a host; each looks up the peer's probe), one
    # ``_on_ack`` per ack datagram.  A probe's entry, its probe frame and
    # the probe timer are unmarked: they run once per peer per ack
    # timeout.  The wakeup's batch is the one reasoned container.
    "repro.live.link": (
        "_on_readable",
        "send",
        "send_view",
        "_on_ack",
    ),
    # One simulated frame-hop runs through exactly these; a per-hop
    # lambda, closure or container here is paid ~50 times a transaction.
    "repro.sim.engine": (
        "at",
        "after",
        "run",
    ),
    "repro.core.router": (
        "_process",
        "_forward",
    ),
    "repro.core.queues": (
        "submit",
        "_transmit",
    ),
    "repro.net.link": (
        "transmit",
    ),
}

#: Allocating constructors a hot function must not call.
_ALLOCATING_CALLS: Tuple[str, ...] = ("bytes", "bytearray")

_LITERAL_KINDS = {
    ast.List: "list literal",
    ast.Dict: "dict literal",
    ast.Set: "set literal",
    ast.ListComp: "list comprehension",
    ast.DictComp: "dict comprehension",
    ast.SetComp: "set comprehension",
}


def in_scope(name: str) -> bool:
    """True when ``name`` falls inside the enforced hot packages."""
    return any(
        name == package or name.startswith(package + ".")
        for package in HOT_PACKAGES
    )


def _annotation_nodes(func: ast.AST) -> Set[ast.AST]:
    """Every node inside a type annotation of ``func``.

    ``Callable[[], None]`` holds a list literal in the AST but builds
    nothing per call: parameter annotations are evaluated at ``def``
    time at most, a local's never.
    """
    roots = [
        node.annotation for node in ast.walk(func)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation
    ]
    if func.returns is not None:
        roots.append(func.returns)
    return {inner for root in roots for inner in ast.walk(root)}


def _is_bytes_literal(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, bytes)


class HotPathAllocationRule(Rule):
    """SIR008: marked fast-path functions must not allocate per packet."""

    id = "SIR008"
    title = "hot-path allocation discipline (buffer-ring fastpath)"
    rationale = (
        "PR 8 zero-allocation fastpath: per-packet work happens in "
        "ring slots and offset views; object churn on the hot path is "
        "what the Sirpent design eliminates (§4 switching overhead)."
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if not in_scope(module.name):
            return
        marked: Set[str] = set()
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if not self._is_marked(module, node):
                continue
            marked.add(node.name)
            yield from self._check_hot_function(module, node)
        for required in REQUIRED_HOT.get(module.name, ()):
            if required not in marked:
                yield Finding(
                    rule=self.id,
                    path=module.path,
                    line=1,
                    col=0,
                    message=(
                        f"fast-path function {required!r} lost its "
                        f"'{HOT_MARKER}' marker — the PR 8 allocation "
                        "discipline is load-bearing and must stay enforced"
                    ),
                    symbol=f"hot-marker:{required}",
                )

    @staticmethod
    def _is_marked(module: ModuleInfo, node: ast.AST) -> bool:
        line = node.lineno
        if 0 < line <= len(module.source_lines):
            return HOT_MARKER in module.source_lines[line - 1]
        return False

    def _check_hot_function(
        self, module: ModuleInfo, func: ast.AST
    ) -> Iterable[Finding]:
        name = func.name
        annotations = _annotation_nodes(func)
        for node in ast.walk(func):
            if node is func or node in annotations:
                continue
            if isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                if callee in _ALLOCATING_CALLS:
                    yield module.finding(
                        self.id, node,
                        f"hot function {name!r} constructs {callee}() per "
                        "packet — parse into offset views or reuse a "
                        "preallocated buffer",
                        symbol=f"{name}:call:{callee}",
                    )
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
                if _is_bytes_literal(node.left) or _is_bytes_literal(node.right):
                    yield module.finding(
                        self.id, node,
                        f"hot function {name!r} concatenates bytes with "
                        "'+' — each concat copies; append into the slot's "
                        "tail-room instead",
                        symbol=f"{name}:bytes-concat",
                    )
            elif isinstance(node, tuple(_LITERAL_KINDS)):
                kind = _LITERAL_KINDS[type(node)]
                yield module.finding(
                    self.id, node,
                    f"hot function {name!r} builds a {kind} per packet — "
                    "hoist it, reuse a preallocated container, or move "
                    "the allocating arm to an unmarked helper",
                    symbol=f"{name}:{kind.replace(' ', '-')}",
                )
            elif isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                inner = getattr(node, "name", "<lambda>")
                yield module.finding(
                    self.id, node,
                    f"hot function {name!r} creates closure {inner!r} per "
                    "packet — bind it once at construction time",
                    symbol=f"{name}:closure:{inner}",
                )
