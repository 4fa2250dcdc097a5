"""SIR011 — exception-safe effects: no silently swallowed fates.

Every packet, transaction, and connection in this system has exactly
one fate, and the observability stack (PR 2/6/7) only works if that
fate is *recorded* on failure paths too: a handler that catches an
error and does nothing starves counters, the flight recorder, and the
drop discipline at precisely the moments that matter.

For each ``except`` handler in the hot packages the rule asks a CFG
reachability question: *is the function exit reachable from the
handler entry without passing a fate effect?*  If yes, some failure
path is silent.  A "fate effect" is any of:

* ``raise`` (propagating is a fate);
* using the bound exception value (``last = exc``,
  ``future.set_exception(exc)`` — the failure is preserved);
* a call whose name carries accounting/fate semantics
  (``apply_drop``, ``….drop``, ``.bump``, ``.record``,
  ``.trace_drop``, ``_on_connection_lost``, ``_queue_tx``, …);
* a write to a counter-ish attribute (``self.drops``,
  ``tx.retries``, ``self.reconnect_attempts``…);
* ``return <value>`` — converting the failure into an explicit
  sentinel the caller sees (``Decision(Action.DROP, …)`` in the pure
  dataplane, ``None`` from a totalizing lookup everywhere).  A bare
  ``return`` or falling off the end stays silent: nothing downstream
  can tell the failure happened.

Exempt by design: ``CancelledError`` / flow-control exceptions
(``BlockingIOError``, ``InterruptedError``, ``StopIteration``…)
whose handlers are teardown or try-again-later, and handlers carrying
``# pragma: no cover`` (already audited as unreachable-by-tests).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Set, Tuple

from sirlint.dataflow import build_cfg
from sirlint.dataflow.cfg import CFG, Node
from sirlint.model import Finding, ModuleInfo, dotted_name
from sirlint.rules.base import Rule

SCOPE_PREFIXES = (
    "repro.live",
    "repro.dataplane",
    "repro.viper",
    "repro.directory",
)

#: Exception types whose handlers are control-flow, not failures.
EXEMPT_TYPES = {
    "CancelledError",
    "BlockingIOError",
    "InterruptedError",
    "StopIteration",
    "StopAsyncIteration",
    "GeneratorExit",
    "KeyboardInterrupt",
}

#: Callee-name fragments that record a fate.
EFFECT_CALL_TOKENS = (
    "drop",
    "record",
    "bump",
    "trace",
    "fail",
    "lost",
    "dead",
    "abandon",
    "error",
    "retry",
    "queue",
    "quarantine",
    "backoff",
    "reject",
    "observe",
    "warn",
    "log",
)

#: Attribute-name fragments that make a write an accounting effect.
EFFECT_ATTR_TOKENS = (
    "drop",
    "error",
    "fail",
    "retr",
    "lost",
    "dead",
    "count",
    "served",
    "abandon",
    "reconnect",
    "backoff",
    "quarantine",
)


def _in_scope(module_name: str) -> bool:
    return any(
        module_name == p or module_name.startswith(p + ".")
        for p in SCOPE_PREFIXES
    )


def _functions(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    out: List[Tuple[str, ast.AST]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((f"{prefix}{child.name}", child))
                visit(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


def _handler_type_names(handler: ast.ExceptHandler) -> List[str]:
    node = handler.type
    if node is None:
        return []
    elts = node.elts if isinstance(node, ast.Tuple) else [node]
    names: List[str] = []
    for elt in elts:
        dotted = dotted_name(elt)
        if dotted:
            names.append(dotted.split(".")[-1])
    return names


def _uses_exception(node: Node, exc_name: Optional[str]) -> bool:
    if not exc_name:
        return False
    for expr in node.exprs:
        for sub in ast.walk(expr):
            if isinstance(sub, ast.Name) and sub.id == exc_name and (
                not isinstance(sub.ctx, ast.Store)
            ):
                return True
    return False


def _calls_effect(node: Node) -> bool:
    for expr in node.exprs:
        for sub in ast.walk(expr):
            if not isinstance(sub, ast.Call):
                continue
            dotted = dotted_name(sub.func)
            if not dotted:
                continue
            last = dotted.split(".")[-1].lower()
            if any(token in last for token in EFFECT_CALL_TOKENS):
                return True
    return False


def _writes_effect(stmt: Optional[ast.AST]) -> bool:
    targets: List[ast.AST] = []
    if isinstance(stmt, ast.Assign):
        targets = list(stmt.targets)
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    for target in targets:
        for sub in ast.walk(target):
            if isinstance(sub, ast.Attribute) and any(
                token in sub.attr.lower() for token in EFFECT_ATTR_TOKENS
            ):
                return True
    return False


class ExceptionEffectRule(Rule):
    """SIR011: every failure path records its fate."""

    id = "SIR011"
    title = (
        "exception-safe effects: handlers must reach a counter, "
        "recorder event, drop, or re-raise on every path"
    )
    rationale = (
        "a swallowed exception is an unaccounted fate — the SLO "
        "engine, flight recorder and drop discipline all go blind "
        "exactly when a failure happens (ISSUE 9 tentpole)."
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if not _in_scope(module.name):
            return []
        findings: List[Finding] = []
        for qualname, func in _functions(module.tree):
            if not any(
                isinstance(sub, ast.ExceptHandler) for sub in ast.walk(func)
            ):
                continue
            cfg = build_cfg(func)
            for node in cfg.nodes.values():
                if node.kind != "handler":
                    continue
                handler = node.stmt
                if self._skip(module, handler):
                    continue
                if self._silent_path(cfg, node, handler):
                    names = ",".join(_handler_type_names(handler)) or "all"
                    findings.append(
                        Finding(
                            rule=self.id,
                            path=module.path,
                            line=node.line,
                            col=0,
                            message=(
                                f"except handler for {names} can reach "
                                "the function exit without recording the "
                                "failure — bump a counter, record/trace "
                                "the drop, use the exception value, or "
                                "re-raise"
                            ),
                            symbol=f"{qualname}:{names}",
                        )
                    )
        return findings

    @staticmethod
    def _skip(module: ModuleInfo, handler: ast.ExceptHandler) -> bool:
        names = _handler_type_names(handler)
        if names and all(name in EXEMPT_TYPES for name in names):
            return True
        lines = module.source_lines
        check = [handler.lineno]
        if handler.body:
            check.append(handler.body[0].lineno)
        for lineno in check:
            if 0 < lineno <= len(lines) and "pragma: no cover" in (
                lines[lineno - 1]
            ):
                return True
        return False

    def _silent_path(
        self, cfg: CFG, entry: Node, handler: ast.ExceptHandler
    ) -> bool:
        exc_name = handler.name
        stack = [entry.nid]
        visited: Set[int] = set()
        while stack:
            nid = stack.pop()
            if nid in visited:
                continue
            visited.add(nid)
            if nid == cfg.exit_id:
                return True
            node = cfg.nodes[nid]
            if nid != entry.nid and self._is_effect(node, exc_name):
                continue
            for dst, _kind in cfg.succ(nid):
                if dst not in visited:
                    stack.append(dst)
        return False

    @staticmethod
    def _is_effect(node: Node, exc_name: Optional[str]) -> bool:
        stmt = node.stmt
        if isinstance(stmt, ast.Raise) and node.kind == "stmt":
            return True
        if (
            isinstance(stmt, ast.Return)
            and node.kind == "stmt"
            and stmt.value is not None
        ):
            return True
        if _uses_exception(node, exc_name):
            return True
        if _calls_effect(node):
            return True
        if node.kind == "stmt" and _writes_effect(stmt):
            return True
        return False


__all__ = ["ExceptionEffectRule"]
