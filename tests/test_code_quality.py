"""Repository hygiene checks: docstrings, exports, leftovers, sirlint."""

import ast
import functools
import importlib.util
import io
import json
import os
import re
import shutil
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

#: The census of what the drivers run (``tools/census.py`` writes it).
CENSUS = os.path.join(TOOLS_ROOT, "census.txt")

#: Code objects no driver enters, kept on purpose: a key names a census
#: object (``module:qualname``) or a class or function, covering every
#: object nested in it — and then every one of them must be ``never``,
#: so a method the drivers skip in a class they otherwise run is named
#: on its own.  A reason is one of four kinds, and says which:
#: (a) a paper formula or mechanism that a test checks against the
#: paper, citing the §; (b) a ROADMAP item, by number, that puts it on
#: a path; (c) a user-facing entry point the README shows in use;
#: (d) a fault or error path no driver injects, naming the fault.
KEPT_DEFINITIONS = {
    "repro.analysis.delay:store_forward_penalty":
        "(a) §6.1: the store-and-forward delay cut-through removes",
    "repro.analysis.hostcost:HostCostModel.max_message_rate":
        "(a) §4.3: the message rate a host CPU bounds, NAB or not",
    "repro.analysis.overhead:mixture_mean_size":
        "(a) §6.2: the average packet is about 3/8 of the maximum",
    "repro.analysis.queueing:md1_mean_sojourn":
        "(a) §6.1: the M/D/1 time in system the paper's queueing uses",
    "repro.analysis.queueing:mm1_mean_queue":
        "(a) §6.1: the M/M/1 bound the M/D/1 queue is read against",
    "repro.analysis.queueing:mm1_mean_wait":
        "(a) §6.1: M/D/1 waits half of M/M/1; M/G/1 lies between",
    "repro.baselines.cvc.host:CvcHost._setup_timeout":
        "(d) a circuit set-up no switch answers in time",
    "repro.baselines.cvc.switch:CvcSwitch._refuse":
        "(d) a circuit request refused: the circuit table is full or no route exists",
    "repro.baselines.ip.ipaddr:format_ip":
        "(d) a lookup of an IP address no host holds names it in its error",
    "repro.baselines.ip.packet:IpPacket.corrupted_copy":
        "(d) a bit error on an IP baseline link",
    "repro.baselines.ip.tcplike:TcpLikeTransport._give_up":
        "(d) a lost SYN or segment on the TCP-like baseline, retried until it gives up",
    "repro.baselines.ip.tcplike:TcpLikeTransport._retry_data":
        "(d) a lost segment on the TCP-like baseline: its retransmission",
    "repro.baselines.ip.tcplike:TcpLikeTransport._retry_syn":
        "(d) a lost SYN on the TCP-like baseline: its retransmission",
    "repro.chaos.soak:run_sim_soak.<locals>.refresher":
        "(d) every route of the sim soak's client failing at once, so its manager asks the directory again",
    "repro.core.packet:FramePacket.grow":
        "(d) a hop move that outgrows its frame's buffer",
    "repro.core.tunnel:CvcTunnelAttachment":
        "(a) §2.3: an X.25/X.75 circuit network as one logical hop",
    "repro.core.tunnel:attach_cvc_tunnel":
        "(a) §2.3: an X.25/X.75 circuit network as one logical hop",
    "repro.core.tunnel:IpTunnelAttachment.abort_current":
        "(a) §2.1: a higher priority preempts a frame; a04 drives the §2.3 IP tunnel, but no driver preempts a tunnelled frame",
    "repro.core.tunnel:IpTunnelAttachment.current_packet":
        "(a) §2.1: an abort upstream of a cut-through frame aborts its onward transmission; no driver aborts one into a tunnel",
    "repro.core.tunnel:IpTunnelAttachment.current_priority":
        "(a) §2.1: a higher priority preempts a frame; a04 drives the §2.3 IP tunnel, but no driver preempts a tunnelled frame",
    "repro.core.tunnel:IpTunnelAttachment.peer_name_for":
        "(a) §2.2: a rate limit held toward the next hop; a04 drives the §2.3 IP tunnel, but no driver limits a tunnel's rate",
    "repro.core.tunnel:IpTunnelAttachment.up":
        "(d) a failed logical hop; e06 fails point-to-point links, no driver fails a tunnel",
    "repro.dataplane.flowcache:FlowCache.invalidate_token":
        "(b) ROADMAP item 7: soft state that forgets safely, a revoked token's flows among it",
    "repro.dataplane.logical:LogicalPortMap.add_transit":
        "(a) §2.2: a logical port that denotes a multi-hop transit path",
    "repro.dataplane.logical:TransitExpansion":
        "(a) §2.2: the transit path a logical port expands to",
    "repro.directory.cluster.client:ClusterClient.register_service":
        "(b) ROADMAP item 17: the replicated directory, on the data path or deleted",
    "repro.directory.cluster.client:_zero_clock":
        "(b) ROADMAP item 17: the replicated directory, on the data path or deleted",
    "repro.directory.cluster.cluster:DirectoryCluster.execute":
        "(b) ROADMAP item 17: the replicated directory, on the data path or deleted",
    "repro.directory.cluster.cluster:DirectoryCluster.set_tracer":
        "(b) ROADMAP item 17: the replicated directory, on the data path or deleted",
    "repro.directory.cluster.log:CommandLog.to_ndjson":
        "(b) ROADMAP item 17: the replicated directory, on the data path or deleted",
    "repro.directory.cluster.log:LogEntry.to_json":
        "(b) ROADMAP item 17: the replicated directory, on the data path or deleted",
    "repro.directory.cluster.protocol:CommandRequest.encode":
        "(b) ROADMAP item 17: the replicated directory, on the data path or deleted",
    "repro.directory.cluster.protocol:CommandRequest.to_json":
        "(b) ROADMAP item 17: the replicated directory, on the data path or deleted",
    "repro.directory.cluster.protocol:CommandRequest.with_trace":
        "(b) ROADMAP item 17: the replicated directory, on the data path or deleted",
    "repro.directory.cluster.ring:ConsistentHashRing.shards":
        "(b) ROADMAP item 17: the replicated directory, on the data path or deleted",
    "repro.directory.cluster.store:ShardStore._register_service":
        "(b) ROADMAP item 17: the directory write path, on the data path or deleted",
    "repro.directory.cluster.store:ShardStore._service_conflict":
        "(d) a host write to a name the cluster holds as a service",
    "repro.directory.monitoring:LoadMonitor":
        "(a) §6.3: monitoring stations report link loads and the directory weighs them",
    "repro.directory.pathfind:_widest_path":
        "(a) §3: the high-bandwidth objective routes over the widest path",
    "repro.directory.service:BindingConflictError":
        "(d) a name registered as both a host and a service",
    "repro.directory.service:DirectoryService._load_adjusted":
        "(a) §6.3: monitoring stations report link loads and the directory weighs them",
    "repro.directory.service:DirectoryService._refresh":
        "(a) §6.3: directory servers keep reasonably up-to-date link information",
    "repro.directory.service:DirectoryService.rebind_host":
        "(b) ROADMAP item 17: the directory write path, on the data path or deleted",
    "repro.directory.service:DirectoryService.record_load":
        "(a) §6.3: monitoring stations report link loads and the directory weighs them",
    "repro.directory.service:DirectoryService.register_service":
        "(b) ROADMAP item 17: the directory write path, on the data path or deleted",
    "repro.directory.service:DirectoryService.subscribe":
        "(a) §6.3: the directory advises clients of better routes",
    "repro.live.directory:ClusterDirectoryBackend":
        "(b) ROADMAP item 17 puts the cluster behind the live directory",
    "repro.live.directory:LiveDirectoryClient._write":
        "(b) ROADMAP item 17: the directory write path, on the data path or deleted",
    "repro.live.directory:LiveDirectoryClient.rebind":
        "(b) ROADMAP item 17: the directory write path, on the data path or deleted",
    "repro.live.directory:LiveDirectoryClient.register_host":
        "(b) ROADMAP item 17: the directory write path, on the data path or deleted",
    "repro.live.directory:LiveDirectoryClient.register_service":
        "(b) ROADMAP item 17: the directory write path, on the data path or deleted",
    "repro.live.directory:LiveDirectoryServer._remember":
        "(b) ROADMAP item 17: the directory write path, on the data path or deleted",
    "repro.live.directory:LiveDirectoryServer._serve_write":
        "(b) ROADMAP item 17: the directory write path, on the data path or deleted",
    "repro.live.link:LiveEndpoint._on_writable":
        "(d) a full socket send buffer (EAGAIN) parks frames on the tx backlog",
    "repro.live.link:LiveEndpoint._queue_tx":
        "(d) a full socket send buffer (EAGAIN) parks frames on the tx backlog",
    "repro.live.link:LiveEndpoint.send_parts":
        "(b) ROADMAP item 1: benchmarks/e2e's probes wrap it by name until 1(b) drops that probe",
    "repro.net.addresses:MacAddress.__setattr__":
        "(d) an attempt to change an address in place",
    "repro.net.addresses:MacAddress.parse":
        "(b) ROADMAP item 23: the live directory's route door reads an Ethernet first hop, which no live driver has: a driver or deletion",
    "repro.net.ethernet:EthernetSegment._abort_sender":
        "(a) §2.1: a higher priority preempts a frame on a shared Ethernet; e14 preempts on point-to-point links only",
    "repro.net.ethernet:EthernetSegment._cancel_current":
        "(a) §2.1: a higher priority preempts a frame on a shared Ethernet; e14 preempts on point-to-point links only",
    "repro.net.ethernet:EthernetSegment.abort_current":
        "(a) §2.1: a higher priority preempts a frame on a shared Ethernet; e14 preempts on point-to-point links only",
    "repro.net.ethernet:EthernetSegment.current_packet_of":
        "(a) §2.1: an abort upstream of a cut-through frame aborts its onward transmission",
    "repro.net.ethernet:EthernetSegment.current_priority":
        "(a) §2.1: a higher priority preempts a frame on a shared Ethernet; e14 preempts on point-to-point links only",
    "repro.net.ethernet:EthernetSegment.fail":
        "(d) a failed shared Ethernet segment; e06 fails point-to-point links",
    "repro.net.ethernet:EthernetSegment.restore":
        "(d) a failed shared Ethernet segment; e06 fails point-to-point links",
    "repro.net.ethernet:EthernetSegment.station_node_name":
        "(a) §2.2: a rate limit held toward a station on a shared Ethernet; e05 limits point-to-point ports",
    "repro.net.node:EthernetAttachment.abort_current":
        "(a) §2.1: a higher priority preempts a frame on a shared Ethernet; e14 preempts on point-to-point links only",
    "repro.net.node:EthernetAttachment.current_packet":
        "(a) §2.1: an abort upstream of a cut-through frame aborts its onward transmission",
    "repro.net.node:EthernetAttachment.current_priority":
        "(a) §2.1: a higher priority preempts a frame on a shared Ethernet; e14 preempts on point-to-point links only",
    "repro.net.node:EthernetAttachment.peer_name_for":
        "(a) §2.2: a rate limit held toward a station on a shared Ethernet; e05 limits point-to-point ports",
    "repro.net.node:Node.on_abort":
        "(d) an inbound frame preempted upstream at a node that keeps no partial frame (a host, a baseline)",
    "repro.net.node:P2PAttachment.current_packet":
        "(a) §2.1: an abort upstream of a cut-through frame aborts its onward transmission",
    "repro.obs.httpd:ObsHttpServer":
        "(c) README line 573: `LiveOverlay(..., obs_port=0)` serves /metrics and /trace",
    "repro.obs.registry:MetricsRegistry.counter":
        "(b) ROADMAP item 24: each node's arrival and fate counts, which the registry would expose",
    "repro.obs.registry:Counter.samples":
        "(c) README line 574: GET /metrics exposes registered counters",
    "repro.obs.registry:Gauge.samples":
        "(c) README line 574: GET /metrics exposes registered gauges",
    "repro.obs.registry:_Relabeled.samples":
        "(c) README line 574: GET /metrics exposes a counter registered per node",
    "repro.obs.report:render_tree":
        "(c) README line 613: `python -m repro.obs.report traces.ndjson --tree`",
    "repro.obs.top:_burn_bar":
        "(c) README line 629: `python -m repro.obs.top` renders the /slo report",
    "repro.obs.top:_status_mark":
        "(c) README line 629: `python -m repro.obs.top` renders the /slo report",
    "repro.obs.top:fetch_report":
        "(c) README line 629: `python -m repro.obs.top` renders the /slo report",
    "repro.obs.top:main":
        "(c) README line 629: `python -m repro.obs.top` renders the /slo report",
    "repro.obs.top:render_report":
        "(c) README line 629: `python -m repro.obs.top` renders the /slo report",
    "repro.obs.trace:Tracer.drop":
        "(d) a sampled frame dropped: no driver drops a traced frame",
    "repro.obs.trace:Tracer.record":
        "(c) README line 575: GET /trace?id= serves a trace's record",
    "repro.obs.trace:Tracer.spans":
        "(c) README line 575: GET /trace?id= serves a trace's per-hop spans",
    "repro.obs.trace:tree_of":
        "(c) README line 613: the trace tree `report --tree` renders",
    "repro.tokens.accounting:AccountLedger.bill":
        "(a) §5: high priorities are limited by charging more for them",
    "repro.tokens.accounting:AccountLedger.records":
        "(a) §5: usage is charged per account and priority, high priorities at a higher rate",
    "repro.tokens.accounting:AccountLedger.total_bytes":
        "(a) §5: usage is charged per account and priority, high priorities at a higher rate",
    "repro.tokens.accounting:UsageRecord.charge":
        "(a) §5: usage is charged per account and priority, high priorities at a higher rate",
    "repro.transport.flowcontrol:RateController.maybe_recover":
        "(b) ROADMAP item 12 wires recovery in after item 18",
    "repro.transport.machine:TransactionMachine._on_response_nak":
        "(a) §4.2: selective retransmission NAKs the members missing; no driver loses a member of a multi-member group",
    "repro.transport.machine:TransactionMachine._send_nak":
        "(a) §4.2: selective retransmission NAKs the members missing; no driver loses a member of a multi-member group",
    "repro.transport.machine:TransactionMachine.abandon":
        "(d) a caller cancelling the transaction it awaits",
    "repro.transport.machine:TransactionMachine.drop_entity":
        "(a) §4.1: an entity migrates and keeps its 64-bit id",
    "repro.transport.rebind:RouteManager.refresh":
        "(d) every route a manager holds failing, so it asks the directory again",
    "repro.transport.transactor:TransactorIO.drop_entity":
        "(a) §4.1: an entity migrates and keeps its 64-bit id",
    "repro.viper.packet:SirpentPacket.truncated":
        "(b) ROADMAP item 22: (b) moves the structural packet beside its oracle",
    "repro.viper.packet:SirpentPacket.wire_size":
        "(b) ROADMAP item 22: (b) moves the structural packet beside its oracle",
    "repro.viper.portinfo:CompressedEthernetInfo":
        "(a) §2: footnote 4's destination-and-type Ethernet portInfo, which no driver's route carries",
    "repro.viper.portinfo:EthernetInfo.reversed":
        "(a) §2: an Ethernet portInfo's addresses swap on the return hop; no live driver has an Ethernet hop",
    "repro.viper.wire:_field_data_span":
        "(a) §2: a field of 255 bytes or more takes the length escape; no driver's field is that long",
}

KEPT_REASON = re.compile(
    r"^\(a\) .*§\d|^\(b\) ROADMAP item \d+|^\(c\) README line \d+|^\(d\) \S"
)


@functools.lru_cache(maxsize=None)
def _census_tool():
    spec = importlib.util.spec_from_file_location(
        "census", os.path.join(TOOLS_ROOT, "census.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _covers(kept, name):
    return name == kept or name.startswith(kept + ".")


def _census_findings(root=REPO_ROOT, kept=None):
    """``(missing, gone, unkept, stale)`` of ``root``'s census file
    against its ``src/``: objects the file lacks, lines naming an object
    that is gone, ``never`` objects no sound entry of ``kept`` covers,
    and the entries of ``kept`` that are not sound — a sound entry
    covers at least one object, and only ``never`` ones."""
    kept = KEPT_DEFINITIONS if kept is None else kept
    with open(os.path.join(root, "tools", "census.txt")) as handle:
        census = dict(line.split() for line in handle if line.strip())
    named = set(_census_tool().named_code_objects(os.path.join(root, "src")).values())
    sound = []
    for entry in kept:
        covered = {census[name] for name in census if _covers(entry, name)}
        if covered == {"never"}:
            sound.append(entry)
    never = sorted(name for name, reach in census.items() if reach == "never")
    return (
        sorted(named - set(census)),
        sorted(set(census) - named),
        [name for name in never if not any(_covers(k, name) for k in sound)],
        sorted(set(kept) - set(sound)),
    )


def test_every_definition_has_a_caller():
    """Code that only tests run is a fixture, not the program.

    ``tools/census.txt`` records, for every named function and method
    in ``src/repro``, whether a driver — an example, a ``run_all``
    experiment or a CI script — entered it (``python tools/census.py``
    rewrites it; CI checks it is current).  A ``never`` object is
    deleted, moved into ``tests/`` beside the oracle that uses it, given
    a driver, or kept in :data:`KEPT_DEFINITIONS` with its reason; an
    entry that covers no ``never`` object any more is stale.
    """
    missing, gone, unkept, stale = _census_findings()
    assert not missing and not gone, (
        f"tools/census.txt is not the census of src/ — run "
        f"`python tools/census.py`.  Not in it: {missing}; gone: {gone}"
    )
    bad_reasons = sorted(
        name for name, why in KEPT_DEFINITIONS.items()
        if not KEPT_REASON.match(why)
    )
    assert not bad_reasons, (
        f"KEPT_DEFINITIONS reasons must be (a) a § the tests check, "
        f"(b) a ROADMAP item, (c) a README line or (d) a fault no driver "
        f"injects: {bad_reasons}"
    )
    assert not stale, (
        f"stale KEPT_DEFINITIONS entries (gone, or covering an object a "
        f"driver runs — name the `never` ones on their own): {stale}"
    )
    assert not unkept, (
        f"{len(unkept)} code objects no driver runs — delete each, move it "
        f"beside the test oracle that uses it, give it a driver, or keep "
        f"it in KEPT_DEFINITIONS with a reason:\n" + "\n".join(unkept)
    )


def _write_tree(root, files):
    for relative, text in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def test_the_census_records_what_drivers_run(tmp_path):
    """A toy repository: the census marks what its example drives
    ``ran`` — nested functions as ``co_qualname`` spells them — what
    only a test calls ``never``, and names the driver that raised with
    the line that names its failed check, not its closing count."""
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/mod.py": (
            "def driven():\n"
            "    def inner():\n"
            "        return 1\n"
            "    return inner()\n"
            "class Kept:\n"
            "    @staticmethod\n"
            "    def only_tests():\n"
            "        return 2\n"
            "    def __repr__(self):\n"
            "        return 'Kept'\n"
        ),
        "examples/drive.py": "from repro.mod import driven\ndriven()\n",
        "examples/raises.py": (
            "from repro.mod import driven\ndriven()\n"
            "print('[x1] SHAPE-CHECK FAILED: too slow')\n"
            "print('1 experiment(s) failed their shape checks.')\n"
            "raise SystemExit(3)\n"
        ),
        "tests/test_mod.py": (
            "from repro.mod import Kept\n"
            "def test_it():\n    assert Kept.only_tests() == 2\n"
        ),
    })
    out = io.StringIO()
    lines, failed, lost = _census_tool().census(str(tmp_path), out=out)
    assert lines == [
        "repro.mod:Kept.only_tests never",
        "repro.mod:driven ran",
        "repro.mod:driven.<locals>.inner ran",
    ]
    assert failed == [("examples/raises.py", "exit 3")]
    assert lost == []
    assert (
        "examples/raises.py  exit 3: [x1] SHAPE-CHECK FAILED: too slow"
        in out.getvalue()
    )


def test_the_census_guard_fails_on_a_planted_function_and_a_stale_entry(tmp_path):
    """A copy of the repository: a function added to ``src/`` without
    rerunning the census fails the guard, and so does an entry that
    keeps an object a driver runs."""
    for top in ("src", "tools"):
        shutil.copytree(
            os.path.join(REPO_ROOT, top), tmp_path / top,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    assert _census_findings(str(tmp_path)) == ([], [], [], [])

    with open(tmp_path / "src" / "repro" / "sim" / "engine.py", "a") as handle:
        handle.write("\n\ndef planted():\n    pass\n")
    missing, gone, _unkept, _stale = _census_findings(str(tmp_path))
    assert (missing, gone) == (["repro.sim.engine:planted"], [])

    kept = dict(KEPT_DEFINITIONS)
    kept["repro.sim.engine:Simulator.run"] = "(d) a stale entry"
    _missing, _gone, unkept, stale = _census_findings(str(tmp_path), kept)
    assert (unkept, stale) == ([], ["repro.sim.engine:Simulator.run"])

    # A class kept whole is stale once a driver runs any of it, and then
    # covers nothing: a method only tests call, planted in a class the
    # drivers use, is named with it.
    with open(tmp_path / "src" / "repro" / "sim" / "engine.py", "a") as handle:
        handle.write(
            "\n\nclass Planted:\n"
            "    def driven(self):\n        pass\n\n"
            "    def only_tests(self):\n        pass\n"
        )
    with open(tmp_path / "tools" / "census.txt", "a") as handle:
        handle.write(
            "repro.sim.engine:Planted.driven ran\n"
            "repro.sim.engine:Planted.only_tests never\n"
            "repro.sim.engine:planted never\n"
        )
    kept = dict(KEPT_DEFINITIONS, **{
        "repro.sim.engine:Planted": "(d) a class kept whole",
        "repro.sim.engine:planted": "(d) a function kept by name",
    })
    missing, gone, unkept, stale = _census_findings(str(tmp_path), kept)
    assert (missing, gone) == ([], [])
    assert unkept == ["repro.sim.engine:Planted.only_tests"]
    assert stale == ["repro.sim.engine:Planted"]


def test_the_committed_census_is_sorted_with_one_verdict_per_object():
    """The guard reads the file as a mapping, so a repeated object or a
    third verdict would pass it unseen; the census writes neither."""
    with open(CENSUS) as handle:
        lines = handle.read().splitlines()
    assert lines == sorted(lines)
    fields = [line.split() for line in lines]
    assert all(len(f) == 2 and f[1] in ("ran", "never") for f in fields)
    names = [f[0] for f in fields]
    assert len(names) == len(set(names))


def test_named_code_objects_spell_setters_decorators_and_packages(tmp_path):
    """Keys match what the hook records — ``co_firstlineno`` counts a
    decorated function from its first decorator — and names follow
    ``co_qualname``: nested classes dotted, a package by its directory,
    a property's setter as ``#2``; lambdas, comprehensions and
    ``__str__`` are left out."""
    module = (
        "import functools\n"
        "class Outer:\n"
        "    class Inner:\n"
        "        def method(self):\n"
        "            return lambda: 1\n"
        "    @property\n"
        "    def value(self):\n"
        "        return 1\n"
        "    @value.setter\n"
        "    def value(self, v):\n"
        "        pass\n"
        "    def __str__(self):\n"
        "        return ''\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def cached():\n"
        "    return [x for x in ()]\n"
    )
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "def top():\n    return 1\n",
        "src/repro/pkg/__init__.py": "",
        "src/repro/pkg/mod.py": module,
    })
    found = _census_tool().named_code_objects(str(tmp_path / "src"))
    assert found == {
        ("repro/__init__.py", 1, "top"): "repro:top",
        ("repro/pkg/mod.py", 4, "method"): "repro.pkg.mod:Outer.Inner.method",
        ("repro/pkg/mod.py", 6, "value"): "repro.pkg.mod:Outer.value",
        ("repro/pkg/mod.py", 9, "value"): "repro.pkg.mod:Outer.value#2",
        ("repro/pkg/mod.py", 14, "cached"): "repro.pkg.mod:cached",
    }
    codes, pending = set(), [compile(module, "mod.py", "exec")]
    while pending:
        code = pending.pop()
        codes.add((code.co_firstlineno, code.co_name))
        pending.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    assert {(first, name) for path, first, name in found
            if path.endswith("mod.py")} <= codes


def test_workflow_scripts_keep_file_and_step_order(tmp_path):
    """``run:`` scripts come out in file and step order under their
    step's name: a one-liner as written, a ``|`` block line by line, a
    folded ``>`` block joined with spaces."""
    _write_tree(tmp_path, {
        ".github/workflows/a.yml": (
            "jobs:\n"
            "  one:\n"
            "    steps:\n"
            "      - name: literal\n"
            "        run: |\n"
            "          mkdir -p out\n"
            "          python -m repro.tool out\n"
            "      - name: folded\n"
            "        run: >\n"
            "          python tools/x.py\n"
            "          --quick\n"
            "      - name: inline\n"
            "        run: echo done\n"
        ),
        ".github/workflows/b.yaml": (
            "jobs:\n"
            "  two:\n"
            "    steps:\n"
            "      - name: later\n"
            "        run: python -m repro.other\n"
        ),
        ".github/workflows/notes.txt": "run: python -m repro.ignored\n",
    })
    tool = _census_tool()
    assert tool.workflow_scripts(str(tmp_path / ".github" / "workflows")) == [
        ("literal", "mkdir -p out\npython -m repro.tool out\n"),
        ("folded", "python tools/x.py --quick\n"),
        ("inline", "echo done"),
        ("later", "python -m repro.other"),
    ]
    assert tool.workflow_scripts(str(tmp_path / "missing")) == []


def test_only_python_runs_of_the_repo_are_ci_drivers(tmp_path):
    """A CI script drives the program when it starts ``python -m`` on a
    module of ``src/`` or ``tools/``, ``python tools/…`` other than the
    census itself, or an inline ``python -`` script."""
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "tools/lint/__init__.py": "",
        "tools/x.py": "",
    })
    root = str(tmp_path)
    runs = _census_tool()._runs_the_program
    assert runs("python -m repro.obs.report out/t.json\n", root)
    assert runs("python -m lint src\n", root)
    assert runs("python tools/x.py --quick\n", root)
    assert runs("python - <<PY\nprint(1)\nPY\n", root)
    assert runs("mkdir -p out\npython3 \\\n  -m repro.x\n", root)
    assert not runs("python -m pip install ruff\n", root)
    assert not runs("python -m pytest -q\n", root)
    assert not runs("python tools/census.py && git diff --exit-code\n", root)
    assert not runs("# python -m repro.x\necho hi\n", root)


def test_drivers_are_examples_then_experiments_then_ci_scripts(tmp_path):
    """Examples in name order, every ``run_all`` id but s01 in table
    order, then the CI scripts that run the program, each whole under
    ``bash -e``."""
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "examples/b.py": "",
        "examples/a.py": "",
        "examples/notes.md": "",
        "benchmarks/run_all.py": (
            "EXPERIMENTS = [\n"
            '    ("t01", "bench_t01_table"),\n'
            '    ("s01", "bench_s01_sirlint_speed"),\n'
            '    ("f02", "bench_f02_dataplane"),\n'
            "]\n"
        ),
        ".github/workflows/ci.yml": (
            "jobs:\n"
            "  one:\n"
            "    steps:\n"
            "      - name: install\n"
            "        run: python -m pip install ruff\n"
            "      - name: report\n"
            "        run: python -m repro.report\n"
        ),
    })
    assert _census_tool().drivers(str(tmp_path)) == [
        ("examples/a.py", ["python", "examples/a.py"], None),
        ("examples/b.py", ["python", "examples/b.py"], None),
        ("run_all t01", ["python", "benchmarks/run_all.py", "t01"], None),
        ("run_all f02", ["python", "benchmarks/run_all.py", "f02"], None),
        ("ci: report", ["bash", "-e"], "python -m repro.report"),
    ]


def test_the_census_reports_a_driver_that_drops_the_hook(tmp_path):
    """A driver that takes the hook off is named as lost, since what it
    ran afterwards went unseen; what it ran before is kept."""
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/mod.py": "def before():\n    return 1\n",
        "examples/drops.py": (
            "import sys\n"
            "from repro.mod import before\n"
            "before()\n"
            "sys.settrace(None)\n"
        ),
    })
    lines, failed, lost = _census_tool().census(str(tmp_path), out=io.StringIO())
    assert lines == ["repro.mod:before ran"]
    assert (failed, lost) == ([], ["examples/drops.py"])


def test_the_census_follows_threads_and_child_processes(tmp_path):
    """The hook covers threads a driver starts and every Python process
    it spawns."""
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/mod.py": (
            "def in_thread():\n    return 1\n"
            "def in_child():\n    return 2\n"
            "def untouched():\n    return 3\n"
        ),
        "examples/spawn.py": (
            "import subprocess, sys, threading\n"
            "from repro.mod import in_thread\n"
            "worker = threading.Thread(target=in_thread)\n"
            "worker.start()\n"
            "worker.join()\n"
            "subprocess.run([sys.executable, '-c',\n"
            "                'from repro.mod import in_child; in_child()'],\n"
            "               check=True)\n"
        ),
    })
    lines, failed, lost = _census_tool().census(str(tmp_path), out=io.StringIO())
    assert lines == [
        "repro.mod:in_child ran",
        "repro.mod:in_thread ran",
        "repro.mod:untouched never",
    ]
    assert (failed, lost) == ([], [])


def test_ci_scripts_share_one_scratch_tree_in_workflow_order(tmp_path):
    """A CI step reads what the step before it wrote, as on a runner;
    neither writes into the repository itself."""
    _write_tree(tmp_path, {
        "src/repro/__init__.py": "",
        "src/repro/reader.py": (
            "def read():\n"
            "    with open('handoff.txt') as handle:\n"
            "        return handle.read()\n"
            "\n"
            "if __name__ == '__main__':\n"
            "    assert read() == 'from the step before'\n"
        ),
        ".github/workflows/ci.yml": (
            "jobs:\n"
            "  one:\n"
            "    steps:\n"
            "      - name: write\n"
            "        run: |\n"
            "          python - <<PY\n"
            "          with open('handoff.txt', 'w') as handle:\n"
            "              handle.write('from the step before')\n"
            "          PY\n"
            "      - name: read\n"
            "        run: python -m repro.reader\n"
        ),
    })
    out = io.StringIO()
    lines, failed, lost = _census_tool().census(str(tmp_path), out=out)
    assert lines == ["repro.reader:read ran"]
    assert (failed, lost) == ([], [])
    assert "ci: write  ok" in out.getvalue() and "ci: read  ok" in out.getvalue()
    assert not (tmp_path / "handoff.txt").exists()


def test_census_main_writes_the_file_and_fails_on_a_lost_hook(
    tmp_path, monkeypatch, capsys
):
    """``main`` writes the lines with a trailing newline, prints the
    counts and each failed driver, and exits 2 only when a hook was
    lost: a failed driver's reach still counts."""
    tool = _census_tool()
    output = tmp_path / "census.txt"
    monkeypatch.setattr(tool, "OUTPUT", str(output))
    lines = ["repro.mod:a ran", "repro.mod:b never"]
    monkeypatch.setattr(
        tool, "census", lambda: (lines, [("run_all f02", "exit 1")], [])
    )
    assert tool.main() == 0
    assert output.read_text() == "repro.mod:a ran\nrepro.mod:b never\n"
    printed = capsys.readouterr().out
    assert "2 named code objects: 1 ran, 1 never" in printed
    assert "FAILED driver: run_all f02 (exit 1)" in printed

    monkeypatch.setattr(tool, "census", lambda: (lines, [], ["examples/a.py"]))
    assert tool.main() == 2
    assert "HOOK LOST: examples/a.py" in capsys.readouterr().out
