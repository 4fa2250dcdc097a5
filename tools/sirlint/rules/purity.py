"""SIR001 — sans-IO purity of the dataplane, codec and token layers.

PR 3 made :mod:`repro.dataplane` the single forwarding algorithm for
both the simulator and the live UDP overlay.  The whole point of that
refactor is that the pipeline consumes a ``HopInput`` (including the
clock, as ``now_ms``) and produces a ``Decision`` — it must never reach
for a wall clock, an RNG, a socket, the filesystem or an event loop of
its own, or the sim and live drivers silently diverge.  The same holds
for the byte codec (:mod:`repro.viper`) and the capability layer
(:mod:`repro.tokens`), which both sides share.

Two checks:

* **per-file** — a pure module may not import (or call) the forbidden
  effectful stdlib modules, nor call the ``open``/``input``/
  ``__import__`` builtins;
* **cross-file** — a pure module may only import repo modules that are
  themselves inside the pure closure, so impurity cannot sneak in one
  hop removed.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Tuple

from sirlint.model import Finding, ModuleInfo, dotted_name
from sirlint.rules.base import Rule

#: Packages whose every module must stay sans-IO.
PURE_PACKAGES: Tuple[str, ...] = (
    "repro.dataplane",
    "repro.viper",
    "repro.tokens",
)

#: Leaf modules outside those packages that the pure set is allowed to
#: import because they are themselves pure (and this rule checks them
#: too): MacAddress/ethertype constants and the seed-stable packet-id
#: allocator; the frame moves the router core
#: (``repro.dataplane.router``) applies on both substrates; and the
#: transaction machine both transports drive, with the four transport
#: modules it imports (the PDU codec among them).
PURE_LEAF_MODULES: Tuple[str, ...] = (
    "repro.net.addresses",
    "repro.sim.ids",
    "repro.live.frames",
    "repro.transport.machine",
    "repro.transport.codec",
    "repro.transport.flowcontrol",
    "repro.transport.ids",
    "repro.transport.timestamps",
)

#: Effectful stdlib modules a pure module must not touch.  Wall-clock
#: time arrives via ``HopInput.now_ms``; randomness via an injected rng.
FORBIDDEN_MODULES: Tuple[str, ...] = (
    "asyncio",
    "socket",
    "time",
    "random",
    "os",
    "io",
    "pathlib",
    "tempfile",
    "shutil",
    "subprocess",
    "threading",
    "selectors",
)

#: Builtins whose call is IO (or dynamic import) by definition.
FORBIDDEN_BUILTINS: Tuple[str, ...] = ("open", "input", "__import__")


def is_pure_module(name: str) -> bool:
    """True when ``name`` falls inside the enforced pure closure."""
    for package in PURE_PACKAGES:
        if name == package or name.startswith(package + "."):
            return True
    return name in PURE_LEAF_MODULES


def _module_root(dotted: str) -> str:
    return dotted.split(".")[0]


class PurityRule(Rule):
    """SIR001: pure packages may not import or call IO facilities."""

    id = "SIR001"
    title = "sans-IO purity of repro.dataplane / repro.viper / repro.tokens"
    rationale = (
        "PR 3 sans-IO pipeline: wall-clock must arrive via HopInput; "
        "drivers own every effect (Sirpent §2, §2.2)."
    )

    def __init__(self) -> None:
        #: (module, path, lineno, col, imported) repo-internal imports
        #: out of pure modules, resolved against the closure at the end.
        self._repo_imports: List[Tuple[ModuleInfo, ast.AST, str]] = []

    def check(self, module: ModuleInfo) -> Iterable[Finding]:
        if not is_pure_module(module.name):
            return
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if _module_root(alias.name) in FORBIDDEN_MODULES:
                        yield module.finding(
                            self.id, node,
                            f"pure module imports effectful {alias.name!r} "
                            "(wall-clock/IO must come from the driver)",
                            symbol=f"import:{alias.name}",
                        )
            elif isinstance(node, ast.ImportFrom):
                if node.module and _module_root(node.module) in FORBIDDEN_MODULES:
                    yield module.finding(
                        self.id, node,
                        f"pure module imports effectful {node.module!r} "
                        "(wall-clock/IO must come from the driver)",
                        symbol=f"import:{node.module}",
                    )
            elif isinstance(node, ast.Call):
                callee = dotted_name(node.func)
                if callee in FORBIDDEN_BUILTINS:
                    yield module.finding(
                        self.id, node,
                        f"pure module calls {callee}() — file/console IO "
                        "belongs to the drivers",
                        symbol=f"call:{callee}",
                    )

    def collect(self, module: ModuleInfo) -> None:
        if not is_pure_module(module.name):
            return
        for imported in module.imported_modules:
            if imported.startswith("repro.") or imported == "repro":
                self._repo_imports.append((module, module.tree, imported))

    def finalize(self) -> Iterable[Finding]:
        for module, node, imported in self._repo_imports:
            target = imported
            # "from repro.viper.wire import X" arrives as the module
            # path; "from repro.dataplane import X" names a package.
            if not is_pure_module(target):
                yield Finding(
                    rule=self.id,
                    path=module.path,
                    line=self._import_line(module, target),
                    col=0,
                    message=(
                        f"pure module {module.name} imports {target}, "
                        "which is outside the sans-IO closure "
                        f"({', '.join(PURE_PACKAGES + PURE_LEAF_MODULES)})"
                    ),
                    symbol=f"repo-import:{target}",
                )

    @staticmethod
    def _import_line(module: ModuleInfo, target: str) -> int:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ImportFrom) and node.module == target:
                return node.lineno
            if isinstance(node, ast.Import):
                if any(alias.name == target for alias in node.names):
                    return node.lineno
        return 1
