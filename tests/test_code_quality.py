"""Repository hygiene checks: docstrings, exports, leftovers, sirlint."""

import ast
import functools
import json
import os
import re
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


#: The hop-ARQ wire residue: a probe is a frame of its own and a data
#: frame carries no hop sequence number, so none of these may return.
HOP_ARQ_RESIDUE = (
    "restamp_seq_into", "SEQ_NONE", "SEQ_MAX", "ack_seqs", "_owed_to",
    "_send_acks", "_numbered",
)


def _words_in_src_and_tools(names):
    """The equivalent of ``grep -rnwE '<names>' src tools``."""
    pattern = re.compile(r"\b(" + "|".join(names) + r")\b")
    found = []
    for root in (SRC_ROOT, TOOLS_ROOT):
        for dirpath, _dirs, files in os.walk(root):
            for name in files:
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path) as handle:
                    for lineno, line in enumerate(handle, 1):
                        match = pattern.search(line)
                        if match:
                            found.append(f"{path}:{lineno}: {match[0]}")
    return found


def test_hop_arq_residue_stays_gone():
    offenders = _words_in_src_and_tools(HOP_ARQ_RESIDUE)
    assert not offenders, f"hop-ARQ residue is back: {offenders}"


#: Per-frame success events: a forwarded or delivered frame is counted
#: (and traced when sampled), never put in the flight recorder's ring,
#: where one per frame-hop would push every fault out of it.
PER_FRAME_EVENTS = ("frame_forwarded", "frame_delivered")


def test_the_flight_recorder_keeps_no_per_frame_success_event():
    offenders = _words_in_src_and_tools(PER_FRAME_EVENTS)
    assert not offenders, f"a per-frame ring event is back: {offenders}"


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
    "repro.obs.slo": ("SloEngine",),
}

#: Options no module outside tests sets, kept settable on purpose.
KEPT_OPTIONS = {
    "LiveEndpoint.ring":
        "the Hypothesis drain differential draws it; ROADMAP item 7 "
        "redesigns the bound",
    "LiveEndpoint.rx_batch":
        "the Hypothesis drain differential draws it; ROADMAP item 7 "
        "redesigns the bound",
    "TransportConfig.socket": "an address, not a tuning value",
    "ClusterSoakConfig.*": "a soak harness that only tests and CI run",
    "SloEngine.specs":
        "the objectives under evaluation: each SLO test hands it the spec "
        "it checks; every running engine evaluates default_slos()",
}

#: Injection seams: a test substitutes a fake through these.
SEAM_NAMES = ("clock", "registry", "recorder", "backend", "refresher", "name")


@functools.lru_cache(maxsize=None)
def _option_sources(root):
    """``(module, path, tree)`` for src/, benchmarks/, examples/, tools/
    under ``root``; ``module`` is None outside ``src/``."""
    sources = []
    src = os.path.join(root, "src")
    for top in ("src", "benchmarks", "examples", "tools"):
        for dirpath, _dirs, files in os.walk(os.path.join(root, top)):
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(dirpath, name)
                with open(path) as handle:
                    tree = ast.parse(handle.read())
                module = None
                if path.startswith(src + os.sep):
                    module = os.path.relpath(path, src)[:-3].replace(
                        os.sep, "."
                    ).replace(".__init__", "")
                sources.append((module, path, tree))
    return tuple(sources)


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
    sources = _option_sources(REPO_ROOT)
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


# -- every definition has a caller --------------------------------------------

#: Definitions nothing outside tests calls, kept on purpose, by
#: ``module.qualname``.  A reason is one of three kinds, and says which:
#: (a) a paper formula or mechanism that a test checks against the
#: paper, citing the §; (b) a ROADMAP item, by number, that puts it on
#: a path; (c) a user-facing entry point the README shows in use.
KEPT_DEFINITIONS = {
    "repro.analysis.delay.store_forward_penalty":
        "(a) §6.1: the store-and-forward delay cut-through removes",
    "repro.analysis.queueing.md1_mean_sojourn":
        "(a) §6.1: the M/D/1 time in system the paper's queueing uses",
    "repro.analysis.queueing.mm1_mean_queue":
        "(a) §6.1: the M/M/1 bound the M/D/1 queue is read against",
    "repro.analysis.queueing.mm1_mean_wait":
        "(a) §6.1: M/D/1 waits half of M/M/1; M/G/1 lies between",
    "repro.analysis.overhead.mixture_mean_size":
        "(a) §6.2: the average packet is about 3/8 of the maximum",
    "repro.analysis.hostcost.HostCostModel.max_message_rate":
        "(a) §4.3: the message rate a host CPU bounds, NAB or not",
    "repro.tokens.accounting.AccountLedger.bill":
        "(a) §5: high priorities are limited by charging more for them",
    "repro.dataplane.logical.LogicalPortMap.add_transit":
        "(a) §2.2: a logical port that denotes a multi-hop transit path",
    "repro.core.tunnel.attach_cvc_tunnel":
        "(a) §2.3: an X.25/X.75 circuit network as one logical hop",
    "repro.transport.transactor.TransactorIO.drop_entity":
        "(a) §4.1: an entity migrates and keeps its 64-bit id",
    "repro.directory.monitoring.LoadMonitor":
        "(a) §6.3: monitoring stations report link loads to the directory",
    "repro.directory.service.DirectoryService.subscribe":
        "(a) §6.3: the directory advises clients of better routes",
    "repro.transport.flowcontrol.RateController.maybe_recover":
        "(b) ROADMAP item 12 wires recovery in after item 18",
    "repro.live.directory.ClusterDirectoryBackend":
        "(b) ROADMAP item 17 puts the cluster behind the live directory",
    "repro.live.link.LiveEndpoint.send_parts":
        "(b) ROADMAP item 1: benchmarks/e2e's probes wrap it by name "
        "until 1(b) drops that probe",
}

KEPT_REASON = re.compile(
    r"^\(a\) .*§\d|^\(b\) ROADMAP item \d+|^\(c\) README line \d+"
)


def _workflow_scripts(workflows):
    """The inline ``run:`` scripts of every workflow file, as text."""
    if not os.path.isdir(workflows):
        return ""
    scripts = []
    for name in sorted(os.listdir(workflows)):
        if not name.endswith((".yml", ".yaml")):
            continue
        with open(os.path.join(workflows, name)) as handle:
            lines = handle.read().splitlines()
        for index, line in enumerate(lines):
            match = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
            if match is None:
                continue
            indent, rest = len(match[1]), match[2].strip()
            if rest and rest[0] not in "|>":
                scripts.append(rest)
                continue
            for body in lines[index + 1:]:
                if body.strip() and len(body) - len(body.lstrip()) <= indent:
                    break
                scripts.append(body)
    return "\n".join(scripts)


def _names_used(tree):
    """``(name, line)`` of every ``Name``, ``Attribute`` and literal
    ``getattr`` / ``hasattr`` attribute name in ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("getattr", "hasattr")
            and len(node.args) >= 2
            and isinstance(node.args[1], ast.Constant)
            and isinstance(node.args[1].value, str)
        ):
            yield node.args[1].value, node.lineno


def _public_definitions(module, tree):
    """``(qualified name, short name, first line, last line)`` of every
    public module-level function and class of ``module`` and every
    public method or property of a public class; a definition's first
    line is its first decorator's."""
    def span(node):
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        return first, node.end_lineno

    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, kinds) or node.name.startswith("_"):
            continue
        yield (f"{module}.{node.name}", node.name) + span(node)
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, kinds[:2]) and not member.name.startswith("_"):
                    yield (f"{module}.{node.name}.{member.name}",
                           member.name) + span(member)


def _uncalled_definitions(root=REPO_ROOT):
    """``(definitions, uncalled)``: every public definition in
    ``root``'s ``src/`` by qualified name, and those with no caller
    outside tests (see :func:`test_every_definition_has_a_caller`)."""
    sources = _option_sources(root)
    spans = {}       # qualified name -> (path, short name, [(first, last)])
    used_in_src = {}  # short name -> [(path, line)]
    used_elsewhere = set()
    for module, path, tree in sources:
        if module is None:
            used_elsewhere.update(name for name, _line in _names_used(tree))
            continue
        for qualified, name, first, last in _public_definitions(module, tree):
            spans.setdefault(qualified, (path, name, []))[2].append((first, last))
        for name, line in _names_used(tree):
            used_in_src.setdefault(name, []).append((path, line))
    used_elsewhere.update(re.findall(
        r"\w+", _workflow_scripts(os.path.join(root, ".github", "workflows"))
    ))
    uncalled = []
    for qualified, (path, name, bodies) in sorted(spans.items()):
        if name in used_elsewhere or any(
            where != path or not any(a <= line <= b for a, b in bodies)
            for where, line in used_in_src.get(name, ())
        ):
            continue
        uncalled.append(qualified)
    return spans, uncalled


def _definition_findings(root=REPO_ROOT, kept=None):
    """``(uncalled, stale, census)`` against the allowlist ``kept``: the
    uncalled definitions it does not keep, and its entries that are
    called or gone."""
    kept = KEPT_DEFINITIONS if kept is None else kept
    spans, uncalled = _uncalled_definitions(root)
    stale = sorted(
        name for name in kept if name not in spans or name not in uncalled
    )
    lines = sum(b - a + 1 for name in uncalled for a, b in spans[name][2])
    census = (
        f"{len(spans)} public definitions: "
        f"{len(spans) - len(uncalled)} called outside tests, "
        f"{sum(name in kept for name in uncalled)} kept, "
        f"{sum(name not in kept for name in uncalled)} uncalled "
        f"({lines} lines without a caller, kept ones included)"
    )
    return [n for n in uncalled if n not in kept], stale, census


def test_every_definition_has_a_caller():
    """Code that only tests run is a fixture, not the program.

    Every public module-level function and class in ``src/repro``, and
    every public method or property of a public class, must have a
    caller outside tests — or be kept on purpose, with its reason, in
    :data:`KEPT_DEFINITIONS`, whose entries go stale (and fail) once
    their definition is called or gone.  A caller is a ``Name`` or
    ``Attribute`` of that name (or a literal ``getattr`` / ``hasattr``
    of it) in ``src/`` outside the definition's own body, the same
    anywhere in ``benchmarks/``, ``examples/`` or ``tools/``, or the
    word in an inline script of a ``.github/workflows`` file.  Tests,
    docstrings, comments and package re-exports (``__all__``, the lazy
    export tables) are not callers.

    The match is by name, not by binding: a method only tests call
    passes if any other code uses the same name (the old ``LiveDelivered``'s
    ``trailer_spans`` shared a name with the trailer walk), and a word
    in a workflow script credits every definition spelled that way.
    Run with ``-s`` to see the census.
    """
    uncalled, stale, census = _definition_findings()
    print(census)
    bad_reasons = sorted(
        name for name, why in KEPT_DEFINITIONS.items()
        if not KEPT_REASON.match(why)
    )
    assert not bad_reasons, (
        f"KEPT_DEFINITIONS reasons must be (a) a § the tests check, "
        f"(b) a ROADMAP item or (c) a README line: {bad_reasons}"
    )
    assert not stale, (
        f"stale KEPT_DEFINITIONS entries (now called, or gone): {stale}"
    )
    assert not uncalled, (
        f"{len(uncalled)} definitions only tests call — delete each, move "
        f"it beside the test oracle that uses it, or keep it in "
        f"KEPT_DEFINITIONS with a reason:\n" + "\n".join(uncalled)
        + "\n\n" + census
    )


def test_the_definition_guard_reports_only_tests_callers(tmp_path):
    """A tiny repository: the guard reports exactly the definitions
    nothing but tests (or a package's ``__all__``) names, and a kept
    entry that is called or gone is stale."""
    files = {
        "src/repro/__init__.py": (
            '__all__ = ["only_exported"]\n'
            "from repro.mod import only_exported\n"
        ),
        "src/repro/mod.py": (
            "def only_tests(): pass\n"
            "def from_bench(): pass\n"
            "def from_ci(): pass\n"
            "def only_exported(): pass\n"
            "def from_src(): pass\n"
            "def recursive(): recursive()\n"
            "def _private(): from_src()\n"
        ),
        "benchmarks/bench.py": (
            "from repro.mod import from_bench\nfrom_bench()\n"
        ),
        "tests/test_mod.py": (
            "from repro.mod import only_tests, only_exported\n"
            "def test_it():\n    only_tests()\n    only_exported()\n"
        ),
        ".github/workflows/ci.yml": (
            "jobs:\n  smoke:\n    steps:\n      - name: smoke\n"
            "        run: |\n"
            "          python -c 'from repro.mod import from_ci; from_ci()'\n"
            "      - name: only_tests\n"
        ),
    }
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    root = str(tmp_path)

    uncalled, stale, _census = _definition_findings(root, kept={})
    assert uncalled == [
        "repro.mod.only_exported", "repro.mod.only_tests", "repro.mod.recursive",
    ]
    assert stale == []

    kept = {
        "repro.mod.only_tests": "(a) §6.1: a formula",
        "repro.mod.from_bench": "(b) ROADMAP item 1",
        "repro.mod.gone": "(c) README line 1",
    }
    uncalled, stale, _census = _definition_findings(root, kept=kept)
    assert uncalled == ["repro.mod.only_exported", "repro.mod.recursive"]
    assert stale == ["repro.mod.from_bench", "repro.mod.gone"]
