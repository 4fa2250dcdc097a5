"""SIR009 — ring-slot lifetime: acquire/release balance on every path.

PR 8's zero-allocation fastpath hands out ``BufferRing`` slots and
``PacketView``s over them.  A slot leaked on an early return or
exception path silently shrinks the ring until the overflow
allocator re-introduces the very per-packet churn the ring exists to
kill; a view touched after ``release()`` reads memory the next
datagram is already overwriting.  This rule runs a forward dataflow
over each function's CFG with a per-variable ownership lattice —
the powerset of:

* ``H`` (held)      — owns a live slot,
* ``R`` (released)  — the slot was given back,
* ``E`` (escaped)   — ownership moved elsewhere (transferred to a
  callee, a container, the caller, or into a ``PacketView``).

Ownership follows *move semantics*: passing a tracked value to an
unknown call, returning it, or storing it in a container transfers
ownership and ends tracking (``E`` is absorbing — it suppresses
leak/use reports so correlated branches, where one arm hands the view
on and the other releases it, stay quiet).  A small borrow
table (``len``, ``isinstance``, the in-place codec helpers…) lists
callees that inspect without consuming.

Findings:

* leak — ``H`` (without ``E``) reaches the exit or the raise-exit;
* use-after-release — a read while ``R`` (without ``E``);
* double-release — ``release`` while already ``R``;
* escape — the view/slot itself stored onto ``self`` without
  ``tobytes()`` (raw buffer memory outliving its dispatch scope).

Origins: ``<…ring…>.acquire()``, ``PacketView(...)`` /
``PacketView.of_slot(...)`` (which consumes the slot argument),
parameters annotated ``PacketView``, and iteration over parameters
annotated as containers of ``PacketView`` (batch loops).
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from sirlint.dataflow import build_cfg, solve
from sirlint.dataflow.cfg import CFG, Node
from sirlint.model import Finding, ModuleInfo, dotted_name
from sirlint.rules.base import Rule

HELD = "H"
RELEASED = "R"
ESCAPED = "E"

_FRESH: FrozenSet[str] = frozenset((HELD,))

State = Dict[str, FrozenSet[str]]

#: Callees that inspect a view/slot without taking ownership.
BORROWING = {
    "len",
    "isinstance",
    "repr",
    "str",
    "bytes",
    "bool",
    "id",
    "print",
    "type",
    "format",
    "memoryview",
    # the in-place VIPER codec helpers mutate through the view and
    # hand it straight back (PR 8's hop fastpath)
    "decode_preamble",
    "parse_segment_view",
    "hop_move_into",
    "encode_preamble_into",
}

_RELEVANT_NAMES = {"acquire", "of_slot", "PacketView", "send_view"}


def _annotation_text(node: Optional[ast.AST]) -> str:
    if node is None:
        return ""
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - malformed annotation
        return ""
    return text.replace("'", "").replace('"', "")


def _mentions_relevant(func: ast.AST) -> bool:
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and node.id in _RELEVANT_NAMES:
            return True
        if isinstance(node, ast.Attribute) and node.attr in _RELEVANT_NAMES:
            return True
    return False


def _functions(tree: ast.Module) -> List[Tuple[str, ast.AST]]:
    """Every (qualname, def) in the module, classes flattened."""
    out: List[Tuple[str, ast.AST]] = []

    def visit(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                out.append((qual, child))
                visit(child, qual + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return out


class _Ownership:
    """The SIR009 transfer function over one function's CFG."""

    def __init__(self, module: ModuleInfo, qualname: str, func) -> None:
        self.module = module
        self.qualname = qualname
        self.func = func
        self.view_params: Set[str] = set()
        self.view_collections: Set[str] = set()
        self.origin_line: Dict[str, int] = {}
        self.sink: Optional[List[Finding]] = None
        self.seen: Set[Tuple[int, str, str]] = set()
        self._classify_params()

    def _classify_params(self) -> None:
        args = self.func.args
        params = list(args.posonlyargs) + list(args.args) + list(
            args.kwonlyargs
        )
        for arg in params:
            text = _annotation_text(arg.annotation)
            if "PacketView" not in text:
                continue
            if text == "PacketView" or text.endswith(".PacketView"):
                self.view_params.add(arg.arg)
            else:
                self.view_collections.add(arg.arg)

    # -- findings ------------------------------------------------------

    def _report(self, node: Node, var: str, kind: str, message: str) -> None:
        if self.sink is None:
            return
        key = (node.line, var, kind)
        if key in self.seen:
            return
        self.seen.add(key)
        self.sink.append(
            Finding(
                rule=RingSlotLifetimeRule.id,
                path=self.module.path,
                line=node.line,
                col=0,
                message=message,
                symbol=f"{self.qualname}.{var}:{kind}",
            )
        )

    def _report_boundary(
        self, var: str, kind: str, message: str
    ) -> None:
        if self.sink is None:
            return
        line = self.origin_line.get(var, self.func.lineno)
        key = (line, var, kind)
        if key in self.seen:
            return
        self.seen.add(key)
        self.sink.append(
            Finding(
                rule=RingSlotLifetimeRule.id,
                path=self.module.path,
                line=line,
                col=0,
                message=message,
                symbol=f"{self.qualname}.{var}:{kind}",
            )
        )

    # -- lattice helpers -----------------------------------------------

    def _check_use(self, var: str, state: State, node: Node) -> None:
        flags = state.get(var)
        if flags is None:
            return
        if RELEASED in flags and ESCAPED not in flags:
            qual = "" if flags == frozenset((RELEASED,)) else "on some paths "
            self._report(
                node,
                var,
                "use-after-release",
                f"'{var}' is used after its ring slot was released "
                f"{qual}— the buffer may already hold the next datagram",
            )

    def _consume(self, var: str, state: State, node: Node) -> None:
        flags = state.get(var)
        if flags is None:
            return
        if RELEASED in flags and ESCAPED not in flags:
            qual = "" if flags == frozenset((RELEASED,)) else "on some paths "
            self._report(
                node,
                var,
                "double-release",
                f"'{var}' is released twice {qual}— BufferRing.release "
                "raises on double release at runtime",
            )
        keep = frozenset((RELEASED,)) | (
            frozenset((ESCAPED,)) if ESCAPED in flags else frozenset()
        )
        state[var] = keep

    def _escape(self, var: str, state: State) -> None:
        flags = state.get(var)
        if flags is not None:
            state[var] = flags | frozenset((ESCAPED,))

    def _tracked_base(self, expr: ast.AST, state: State) -> Optional[str]:
        node = expr
        while isinstance(node, ast.Attribute):
            node = node.value
        if isinstance(node, ast.Name) and node.id in state:
            return node.id
        return None

    # -- expression walk -----------------------------------------------

    def _scan(self, expr: ast.AST, state: State, node: Node) -> None:
        if isinstance(expr, ast.Call):
            self._eval_call(expr, state, node)
            return
        if isinstance(expr, ast.Name):
            if not isinstance(expr.ctx, ast.Store):
                self._check_use(expr.id, state, node)
            return
        if isinstance(
            expr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            return
        for child in ast.iter_child_nodes(expr):
            self._scan(child, state, node)

    def _eval(self, expr: ast.AST, state: State, node: Node):
        """Classify a value expression: 'fresh', ('move', var), or None."""
        if isinstance(expr, ast.Await):
            return self._eval(expr.value, state, node)
        if isinstance(expr, ast.Call):
            return self._eval_call(expr, state, node)
        if isinstance(expr, ast.Name):
            self._check_use(expr.id, state, node)
            if expr.id in state:
                return ("move", expr.id)
            return None
        self._scan(expr, state, node)
        return None

    def _eval_call(self, call: ast.Call, state: State, node: Node):
        callee = dotted_name(call.func) or ""
        parts = callee.split(".") if callee else []
        last = parts[-1] if parts else ""
        base = parts[0] if parts else ""
        method_base: Optional[str] = None
        if isinstance(call.func, ast.Attribute):
            inner = call.func.value
            if isinstance(inner, ast.Name) and inner.id in state:
                method_base = inner.id
            else:
                self._scan(inner, state, node)
        args = list(call.args) + [kw.value for kw in call.keywords]

        if last == "release":
            if method_base is not None:
                self._consume(method_base, state, node)
            for arg in args:
                if isinstance(arg, ast.Name) and arg.id in state:
                    self._consume(arg.id, state, node)
                else:
                    self._scan(arg, state, node)
            return None
        if method_base is not None:
            self._check_use(method_base, state, node)
        if last == "send_view":
            rest = args
            if args and isinstance(args[0], ast.Name) and args[0].id in state:
                self._consume(args[0].id, state, node)
                rest = args[1:]
            for arg in rest:
                self._scan(arg, state, node)
            return None
        if last == "acquire" and "ring" in callee.lower():
            for arg in args:
                self._scan(arg, state, node)
            return "fresh"
        if last in ("of_slot", "PacketView"):
            for arg in args:
                if isinstance(arg, ast.Name) and arg.id in state:
                    self._check_use(arg.id, state, node)
                    self._escape(arg.id, state)  # slot moves into the view
                else:
                    self._scan(arg, state, node)
            return "fresh"
        if last == "tobytes":
            for arg in args:
                self._scan(arg, state, node)
            return "copy"
        if base in BORROWING or last in BORROWING:
            for arg in args:
                if isinstance(arg, ast.Name):
                    self._check_use(arg.id, state, node)
                else:
                    self._scan(arg, state, node)
            return None
        # Unknown callee: tracked arguments move into it.
        for arg in args:
            tracked = self._tracked_base(arg, state)
            if tracked is not None:
                self._check_use(tracked, state, node)
                self._escape(tracked, state)
            else:
                self._scan(arg, state, node)
        return None

    # -- bindings ------------------------------------------------------

    def _bind(self, target: ast.AST, tag, state: State, node: Node) -> None:
        if isinstance(target, ast.Name):
            prior = state.get(target.id)
            if (
                prior is not None
                and HELD in prior
                and ESCAPED not in prior
                and not (tag and tag[0] == "move" and tag[1] == target.id)
            ):
                self._report(
                    node,
                    target.id,
                    "leak",
                    f"'{target.id}' is rebound while still holding a ring "
                    "slot — the previous slot leaks",
                )
            if tag == "fresh":
                state[target.id] = _FRESH
                self.origin_line[target.id] = node.line
            elif tag is not None and tag[0] == "move":
                src = tag[1]
                if src != target.id:
                    state[target.id] = state[src]
                    self._escape(src, state)
                    self.origin_line.setdefault(target.id, node.line)
            else:
                state.pop(target.id, None)
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elem in target.elts:
                self._bind(elem, None, state, node)
            return
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            root = target
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            onto_self = isinstance(root, ast.Name) and root.id == "self"
            if tag == "fresh" or (tag is not None and tag[0] == "move"):
                if onto_self:
                    var = tag[1] if tag != "fresh" else "<fresh>"
                    self._report(
                        node,
                        var,
                        "escape",
                        "a ring-backed view/slot is stored beyond its "
                        "dispatch scope — copy out with tobytes() or pin "
                        "via the pending-frame protocol",
                    )
                if tag != "fresh":
                    self._escape(tag[1], state)
            if isinstance(target, ast.Subscript):
                self._scan(target.slice, state, node)

    # -- the transfer function -----------------------------------------

    def transfer(self, node: Node, in_state: State) -> State:
        state: State = dict(in_state)
        if node.kind == "entry":
            for name in self.view_params:
                state[name] = _FRESH
                self.origin_line[name] = self.func.lineno
            return state
        if node.kind in ("exit", "raise", "handler", "aexit"):
            return state
        if node.kind == "loop-bind":
            self._bind_loop_target(node, state)
            return state
        stmt = node.stmt
        if node.kind == "branch":
            for expr in node.exprs:
                self._scan(expr, state, node)
            return state
        if isinstance(stmt, ast.Assign):
            tag = self._eval(stmt.value, state, node)
            for target in stmt.targets:
                self._bind(target, tag, state, node)
            return state
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            tag = self._eval(stmt.value, state, node)
            self._bind(stmt.target, tag, state, node)
            return state
        if isinstance(stmt, ast.Expr):
            tag = self._eval(stmt.value, state, node)
            if tag == "fresh":
                self._report(
                    node,
                    "<discarded>",
                    "leak",
                    "acquire()/PacketView result is discarded — the slot "
                    "can never be released",
                )
            return state
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                tag = self._eval(stmt.value, state, node)
                if tag is not None and tag != "fresh" and tag != "copy":
                    self._escape(tag[1], state)
            return state
        if isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    state.pop(target.id, None)
                else:
                    self._scan(target, state, node)
            return state
        for expr in node.exprs:
            self._scan(expr, state, node)
        return state

    def _bind_loop_target(self, node: Node, state: State) -> None:
        stmt = node.stmt
        iter_expr = getattr(stmt, "iter", None)
        yields_views = (
            isinstance(iter_expr, ast.Name)
            and iter_expr.id in self.view_collections
        )
        target = getattr(stmt, "target", None)
        if target is None:
            return
        if not yields_views:
            self._bind(target, None, state, node)
            return
        if isinstance(target, ast.Name):
            self._bind(target, "fresh", state, node)
        elif isinstance(target, (ast.Tuple, ast.List)) and target.elts:
            first = target.elts[0]
            self._bind(first, "fresh", state, node)
            for elem in target.elts[1:]:
                self._bind(elem, None, state, node)


class RingSlotLifetimeRule(Rule):
    """SIR009: every acquired ring slot is released exactly once."""

    id = "SIR009"
    title = (
        "ring-slot lifetime: acquire/release balanced on every path, "
        "no use-after-release, no raw-view escapes"
    )
    rationale = (
        "PR 8's buffer-ring fastpath recycles datagram memory; a leaked "
        "slot degrades to heap churn, a released view is the next "
        "packet's bytes (ISSUE 9 tentpole)."
    )

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if not module.name.startswith("repro"):
            return []
        findings: List[Finding] = []
        for qualname, func in _functions(module.tree):
            analysis = _Ownership(module, qualname, func)
            if (
                not analysis.view_params
                and not analysis.view_collections
                and not _mentions_relevant(func)
            ):
                continue
            findings.extend(self._check_function(analysis))
        return findings

    def _check_function(self, analysis: _Ownership) -> List[Finding]:
        cfg: CFG = build_cfg(analysis.func)
        # Exception edges carry the *post*-state here: a statement's
        # ownership effects (release first and foremost) are assumed
        # complete before its exception propagates.  The alternative —
        # pre-state — shadows every release with its own failure path
        # and reports the slot as leaked by the very call that freed it.
        in_states = solve(
            cfg,
            init={},
            transfer=analysis.transfer,
            join=_join,
            exc_transfer=analysis.transfer,
        )
        sink: List[Finding] = []
        analysis.sink = sink
        for nid in sorted(in_states, key=lambda n: (cfg.nodes[n].line, n)):
            analysis.transfer(cfg.nodes[nid], in_states[nid])
        for exit_id, suffix in (
            (cfg.exit_id, "on some path"),
            (cfg.raise_id, "on an exception path"),
        ):
            boundary = in_states.get(exit_id)
            if not boundary:
                continue
            for var, flags in sorted(boundary.items()):
                if HELD in flags and ESCAPED not in flags:
                    analysis._report_boundary(
                        var,
                        "leak",
                        f"'{var}' still holds a ring slot {suffix} — "
                        "release() or transfer ownership before leaving "
                        "the dispatch scope",
                    )
        analysis.sink = None
        return sink


def _join(a: State, b: State) -> State:
    if a == b:
        return a
    out: State = dict(a)
    for var, flags in b.items():
        prior = out.get(var)
        out[var] = flags if prior is None else (prior | flags)
    return out


__all__ = ["RingSlotLifetimeRule"]
