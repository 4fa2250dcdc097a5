"""Repository hygiene checks: docstrings, exports, leftovers, sirlint."""

import ast
import json
import os
import subprocess
import sys

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC_ROOT = os.path.join(REPO_ROOT, "src", "repro")
TOOLS_ROOT = os.path.join(REPO_ROOT, "tools")


def _python_files():
    for dirpath, _dirs, files in os.walk(SRC_ROOT):
        for name in files:
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def _module_name(path):
    relative = os.path.relpath(path, os.path.join(SRC_ROOT, ".."))
    return relative[:-3].replace(os.sep, ".").replace(".__init__", "")


def test_every_module_has_a_docstring():
    missing = []
    for path in _python_files():
        with open(path) as handle:
            tree = ast.parse(handle.read())
        if ast.get_docstring(tree) is None:
            missing.append(path)
    assert not missing, f"modules without docstrings: {missing}"


def test_no_stray_debug_prints_in_library_code():
    offenders = []
    for path in _python_files():
        with open(path) as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "print"
            ):
                offenders.append(f"{path}:{node.lineno}")
    assert not offenders, f"print() calls in library code: {offenders}"


def test_no_todo_markers():
    offenders = []
    for path in _python_files():
        with open(path) as handle:
            for lineno, line in enumerate(handle, 1):
                if "TODO" in line or "FIXME" in line or "XXX" in line:
                    offenders.append(f"{path}:{lineno}")
    assert not offenders, f"leftover work markers: {offenders}"


def test_all_exports_resolve():
    import importlib

    packages = [
        "repro", "repro.sim", "repro.net", "repro.viper", "repro.core",
        "repro.tokens", "repro.directory", "repro.transport",
        "repro.baselines.ip", "repro.baselines.cvc", "repro.analysis",
        "repro.workloads", "repro.scenarios", "repro.live", "repro.obs",
    ]
    for name in packages:
        module = importlib.import_module(name)
        for export in getattr(module, "__all__", []):
            assert hasattr(module, export), f"{name}.__all__ lists {export}"


def test_public_classes_and_functions_are_documented():
    undocumented = []
    for path in _python_files():
        with open(path) as handle:
            tree = ast.parse(handle.read())
        for node in tree.body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                if node.name.startswith("_"):
                    continue
                if ast.get_docstring(node) is None:
                    undocumented.append(f"{path}:{node.name}")
    assert not undocumented, (
        f"{len(undocumented)} public items lack docstrings: "
        f"{undocumented[:10]}"
    )


def test_sirlint_src_is_clean():
    """The domain linter passes on src/ exactly as CI invokes it.

    Exit 0 means every finding is either fixed or carries a justified
    baseline entry; stale baseline entries also fail (the baseline can
    only shrink).
    """
    env = dict(os.environ, PYTHONPATH=TOOLS_ROOT)
    proc = subprocess.run(
        [sys.executable, "-m", "sirlint", "src", "--format", "json"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, (
        f"sirlint found violations:\n{proc.stdout}\n{proc.stderr}"
    )
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True
    assert payload["checked_files"] > 50, "sirlint saw too few files"
    assert payload["stale_baseline"] == []


# -- every option has a caller ------------------------------------------------

#: Constructors whose defaulted parameters are options, by defining
#: module — besides every ``*Config`` / ``*Policy`` dataclass and
#: ``Impairments``, whose fields are.
OPTION_CONSTRUCTORS = {
    "repro.transport.rebind": ("RouteManager",),
    "repro.transport.flowcontrol": ("RateController",),
    "repro.core.congestion": ("RateControlManager",),
    "repro.tokens.cache": ("TokenCache",),
    "repro.live.directory": ("LiveDirectoryClient", "LiveDirectoryServer"),
    "repro.live.link": ("LiveEndpoint",),
    "repro.baselines.ip.routing": ("LinkStateRouting",),
    "repro.baselines.cvc.switch": ("CvcSwitch",),
}

#: Options no module outside tests sets, kept settable on purpose.
KEPT_OPTIONS = {
    "LiveRouterConfig.reliable_hops":
        "ROADMAP item 2 settles hop ARQ against transport recovery, then "
        "deletes the loser",
    "ReliabilityConfig.dedup_window":
        "the Hypothesis drain differential draws it; ROADMAP item 7 "
        "redesigns the bound",
    "LiveEndpoint.ring":
        "the Hypothesis drain differential draws it; ROADMAP item 7 "
        "redesigns the bound",
    "LiveEndpoint.rx_batch":
        "the Hypothesis drain differential draws it; ROADMAP item 7 "
        "redesigns the bound",
    "TransportConfig.socket": "an address, not a tuning value",
    "ClusterSoakConfig.*": "a soak harness that only tests and CI run",
}

#: Injection seams: a test substitutes a fake through these.
SEAM_NAMES = ("clock", "registry", "recorder", "backend", "refresher", "name")


def _option_sources():
    """Yield ``(module, path, tree)`` for src/, benchmarks/, examples/, tools/."""
    for top in ("src", "benchmarks", "examples", "tools"):
        for dirpath, _dirs, files in os.walk(os.path.join(REPO_ROOT, top)):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path) as handle:
                    tree = ast.parse(handle.read())
                module = None
                if path.startswith(SRC_ROOT + os.sep):
                    module = _module_name(path)
                yield module, path, tree


def _is_dataclass(node):
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = getattr(target, "id", getattr(target, "attr", None))
        if name == "dataclass":
            return True
    return False


def _option_targets(sources):
    """``{name: (module, definition node, [options in positional order])}``.

    A dataclass's options are its fields; a constructor's are its
    parameters, with the required ones as ``None`` placeholders so
    positional arguments line up.
    """
    targets = {}
    for module, _path, tree in sources:
        if module is None:
            continue
        wanted = OPTION_CONSTRUCTORS.get(module, ())
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node) and (
                node.name.endswith(("Config", "Policy"))
                or node.name == "Impairments"
            ):
                fields = [
                    stmt.target.id for stmt in node.body
                    if isinstance(stmt, ast.AnnAssign)
                    and isinstance(stmt.target, ast.Name)
                ]
                targets[node.name] = (module, node, fields)
            elif isinstance(node, ast.ClassDef) and node.name in wanted:
                init = next(
                    stmt for stmt in node.body
                    if isinstance(stmt, ast.FunctionDef)
                    and stmt.name == "__init__"
                )
                args = init.args
                positional = (args.posonlyargs + args.args)[1:]  # self
                first_default = len(positional) - len(args.defaults)
                params = [
                    arg.arg if index >= first_default else None
                    for index, arg in enumerate(positional)
                ]
                params += [
                    arg.arg for arg, default in
                    zip(args.kwonlyargs, args.kw_defaults)
                    if default is not None
                ]
                targets[node.name] = (module, node, params)
    return targets


def _option_setters(sources, targets):
    """Every option some module outside its definition sets.

    "Sets" is a keyword or positional argument of a call to the class,
    a keyword of ``replace(...)``, or an attribute store
    on anything but ``self``.  A value forwarded from elsewhere — a
    defaulted parameter of the enclosing function, or an attribute
    read of another option's name — counts only if that is set.
    """
    by_field = {}
    for name, (_module, _node, options) in targets.items():
        for option in options:
            if option is not None:
                by_field.setdefault(option, []).append(f"{name}.{option}")
    set_by = set()
    keywords_passed = set()
    forwards = {}

    def credit(key, value, function):
        name, defaulted = function
        if isinstance(value, ast.Name) and value.id in defaulted:
            forwards.setdefault(key, []).append(f"{name}.{value.id}")
        elif isinstance(value, ast.Attribute) and value.attr in by_field:
            forwards.setdefault(key, []).extend(
                k for k in by_field[value.attr] if k != key
            )
            if not forwards[key]:
                set_by.add(key)
        else:
            set_by.add(key)

    for module, _path, tree in sources:
        aliases = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                for alias in node.names:
                    aliases[alias.asname or alias.name] = alias.name
        definitions = {
            id(node) for mod, node, _options in targets.values()
            if mod == module
        }

        def visit(node, owner, function):
            if id(node) in definitions:
                return
            if isinstance(node, ast.ClassDef):
                owner = node.name
            elif isinstance(node, ast.FunctionDef):
                args = node.args.posonlyargs + node.args.args
                defaulted = {a.arg for a in args[len(args) - len(node.args.defaults):]}
                defaulted |= {
                    a.arg for a, d in zip(node.args.kwonlyargs,
                                          node.args.kw_defaults)
                    if d is not None
                }
                name = owner if node.name == "__init__" else node.name
                function = (name, defaulted)
            elif isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", getattr(func, "attr", None))
                called = aliases.get(called, called)
                keywords_passed.update(
                    f"{called}.{k.arg}" for k in node.keywords if k.arg
                )
                if called in targets:
                    options = targets[called][2]
                    for index, arg in enumerate(node.args):
                        if isinstance(arg, ast.Starred):
                            break
                        if index < len(options) and options[index]:
                            credit(f"{called}.{options[index]}", arg, function)
                    for keyword in node.keywords:
                        if keyword.arg in options:
                            credit(f"{called}.{keyword.arg}", keyword.value,
                                   function)
                elif called == "replace":
                    for keyword in node.keywords:
                        set_by.update(by_field.get(keyword.arg, ()))
            elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                stores = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for store in stores:
                    if isinstance(store, ast.Attribute) and not (
                        isinstance(store.value, ast.Name)
                        and store.value.id == "self"
                    ):
                        set_by.update(by_field.get(store.attr, ()))
            for child in ast.iter_child_nodes(node):
                visit(child, owner, function)

        visit(tree, None, (None, set()))
    changed = True
    while changed:
        changed = False
        for key, origins in forwards.items():
            if key not in set_by and any(
                o in set_by or (o.split(".")[0] not in targets
                                and o in keywords_passed)
                for o in origins
            ):
                set_by.add(key)
                changed = True
    return set_by


def test_every_option_has_a_caller():
    """An option with one value in use is a constant.

    Every field of a ``*Config`` / ``*Policy`` dataclass (and of
    ``Impairments``) and every defaulted parameter of the constructors
    in :data:`OPTION_CONSTRUCTORS` must be set by some module in src/
    (outside its own definition), benchmarks/, examples/ or tools/ — or
    be kept on purpose, with its reason, in :data:`KEPT_OPTIONS` or as
    an injection seam.  Run with ``-s`` to see the census.
    """
    sources = list(_option_sources())
    targets = _option_targets(sources)
    set_by = _option_setters(sources, targets)
    unset = []
    census = []
    for name in sorted(targets):
        options = [o for o in targets[name][2] if o is not None]
        kept = [
            o for o in options
            if f"{name}.{o}" not in set_by and (
                f"{name}.{o}" in KEPT_OPTIONS or f"{name}.*" in KEPT_OPTIONS
                or o in SEAM_NAMES
            )
        ]
        missing = [
            o for o in options if f"{name}.{o}" not in set_by and o not in kept
        ]
        unset += [f"{name}.{o}" for o in missing]
        census.append(
            f"{name:22} {len(options):2} settable: "
            f"{len(options) - len(kept) - len(missing):2} set, "
            f"{len(kept):2} kept, {len(missing):2} unset"
        )
    print("\n".join(census))
    assert not unset, (
        f"{len(unset)} options set by nothing outside tests — make each a "
        f"module constant, or keep it in KEPT_OPTIONS with a reason:\n"
        + "\n".join(unset) + "\n\n" + "\n".join(census)
    )
