"""SIR006 — drop discipline in router and pipeline code.

PR 3 introduced :func:`repro.dataplane.effects.apply_drop` as *the*
drop applicator: the drop counter and the trace reason are written in
one place, so they can never disagree.  Every packet drop in
router/pipeline code must therefore be either

* a :class:`~repro.dataplane.effects.Decision` with
  ``Action.DROP`` (the pipeline's way — the driver applies it), or
* an ``apply_drop(sink, decision)`` call (the drivers' way).

An ad-hoc ``self.metrics.drop("reason")`` / ``stats.dropped_x.add()``
next to a bare ``return`` reintroduces the copy-pasted
counter-vs-trace skew the effect model removed.  Calls are allowed
only inside the effects module itself, inside ``apply_drop``, or
inside an :class:`EffectSink` subclass (the router core's
``RouterSink``, the one place a drop reason reaches the adapter's stats
object).
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Optional, Tuple

from sirlint.model import Finding, ModuleInfo
from sirlint.rules.base import Rule

#: Module names (exact, or package prefix for the dataplane) this rule
#: polices — the router drivers and the pipeline.
ROUTER_MODULES: Tuple[str, ...] = (
    "repro.core.router",
    "repro.live.router",
)
ROUTER_PACKAGES: Tuple[str, ...] = ("repro.dataplane",)

#: The module where apply_drop and the sink protocol live — exempt.
EFFECTS_MODULE = "repro.dataplane.effects"

#: Attribute-call names that record a drop.
DROP_CALL_ATTRS = ("drop", "trace_drop")


def in_scope(name: str) -> bool:
    """True when ``name`` is router/pipeline code this rule polices."""
    if name == EFFECTS_MODULE:
        return False
    if name in ROUTER_MODULES:
        return True
    return any(
        name == pkg or name.startswith(pkg + ".") for pkg in ROUTER_PACKAGES
    )


def _enclosing_allows(stack: List[ast.AST]) -> bool:
    """Inside apply_drop or an EffectSink subclass, drops are the job."""
    for node in stack:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.name in ("apply_drop", "trace_drop"):
                return True
        if isinstance(node, ast.ClassDef):
            for base in node.bases:
                base_name = base.attr if isinstance(base, ast.Attribute) else (
                    base.id if isinstance(base, ast.Name) else ""
                )
                if "EffectSink" in base_name:
                    return True
    return False


class DropDisciplineRule(Rule):
    """SIR006: drops only via Decision/apply_drop, never ad-hoc."""

    id = "SIR006"
    title = "drop discipline: Decision/apply_drop only"
    rationale = (
        "PR 3 effect model: one drop applicator keeps the counter and "
        "the trace reason in sync at every drop site."
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if not in_scope(module.name):
            return
        yield from self._walk(module, module.tree, [])

    def _walk(
        self, module: ModuleInfo, node: ast.AST, stack: List[ast.AST]
    ) -> Iterable[Finding]:
        for child in ast.iter_child_nodes(node):
            finding = self._inspect(module, child, stack)
            if finding is not None:
                yield finding
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from self._walk(module, child, stack + [child])
            else:
                yield from self._walk(module, child, stack)

    def _inspect(
        self, module: ModuleInfo, node: ast.AST, stack: List[ast.AST]
    ) -> Optional[Finding]:
        if not isinstance(node, ast.Call):
            return None
        func = node.func
        if not isinstance(func, ast.Attribute):
            return None
        if func.attr in DROP_CALL_ATTRS:
            if _enclosing_allows(stack):
                return None
            context = self._context_name(stack)
            return module.finding(
                self.id, node,
                f"ad-hoc drop accounting .{func.attr}(...) in {context} — "
                "route it through apply_drop(sink, Decision(Action.DROP, "
                "reason=...)) so counter and trace stay in sync",
                symbol=f"adhoc-drop:{context}:{func.attr}",
            )
        # stats.dropped_*.add(...) — bumping a drop counter directly.
        if (
            func.attr == "add"
            and isinstance(func.value, ast.Attribute)
            and (
                func.value.attr.startswith("dropped_")
                or func.value.attr == "route_exhausted"
            )
            and not _enclosing_allows(stack)
        ):
            context = self._context_name(stack)
            return module.finding(
                self.id, node,
                f"direct drop-counter bump {func.value.attr}.add() in "
                f"{context} — use apply_drop so the trace reason cannot "
                "drift from the counter",
                symbol=f"adhoc-counter:{context}:{func.value.attr}",
            )
        return None

    @staticmethod
    def _context_name(stack: List[ast.AST]) -> str:
        names = [
            getattr(node, "name", "?") for node in stack
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        ]
        return ".".join(names) if names else "<module>"
