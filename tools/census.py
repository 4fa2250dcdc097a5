#!/usr/bin/env python3
"""census — which of ``src/repro``'s functions the drivers run.

The drivers are the program's own users in this repository: every
``examples/*.py``, every ``benchmarks/run_all.py`` experiment but s01
(which times sirlint, not ``src/``), and every CI ``run:`` script that
starts ``python -m`` on one of the repo's modules, ``python tools/…``
(the census's own step aside) or an inline ``python - <<PY`` script, in
workflow order.  Each runs in
its own subprocess, in one scratch copy of the tree (so the tables the
benchmarks rewrite, and the files a CI step leaves for the next, stay
out of the working tree), under a call-event hook installed at start-up
by a generated ``sitecustomize`` — every Python process a driver starts
carries it too.  The hook records the code objects entered, never
lines, and checks at exit that it is still installed.

It writes ``tools/census.txt``: one sorted line per named code object
in ``src/repro`` (:func:`named_code_objects`), ``module:qualname ran``
or ``module:qualname never``.  A driver that fails is printed with its
status and its reach up to the failure is kept: f02's allocation check
always fails here, because a Python call hook materialises the frames
the in-place move saves, and o01's 1 % guard-share gate and l01's and
d01's timing checks can fail because the hook slows the interpreter.  Each
is the last thing its driver does, so their reach is whole; CI diffs
the rewritten file against the committed one.  The file is held by
``tests/test_code_quality.py::test_every_definition_has_a_caller``.

Usage::

    python tools/census.py     # ≈ 8 min on 2 vCPUs; exits 2 if a hook was lost
"""

from __future__ import annotations

import ast
import os
import re
import shlex
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUTPUT = os.path.join(ROOT, "tools", "census.txt")

#: run_all experiments that are not drivers of ``src/``.
NOT_DRIVERS = ("s01",)

#: Named code objects the census leaves out: text renderings.
UNCOUNTED = ("__repr__", "__str__")

#: What each driver's copy of the tree holds.
COPIED = ("src", "benchmarks", "examples", "tools", ".github", "BENCHMARK.json")

HOOK = '''\
import atexit, os, sys, threading

_entered = set()
_add = _entered.add


def _hook(frame, event, arg):
    _add(frame.f_code)


sys.settrace(_hook)
threading.settrace(_hook)


def _dump():
    path = os.path.join(os.environ["CENSUS_OUT"], f"{os.getpid()}.txt")
    with open(path, "w") as handle:
        handle.write("hook " + ("kept" if sys.gettrace() is _hook else "lost") + "\\n")
        for code in _entered:
            handle.write(f"{code.co_filename}\\t{code.co_firstlineno}\\t{code.co_name}\\n")


atexit.register(_dump)
'''


def named_code_objects(src):
    """``{(path, first line, name): "module:qualname"}`` for every named
    function and method under ``src``'s ``repro`` package, spelled as
    ``co_qualname`` spells it; the first line is the first decorator's,
    as ``co_firstlineno`` counts it.  Lambdas, comprehensions, class
    bodies and :data:`UNCOUNTED` are left out; a name defined twice in
    one scope (a property's setter) gets ``#2`` and on."""
    found = {}
    package = os.path.join(src, "repro")
    for dirpath, dirs, files in os.walk(package):
        dirs.sort()
        for file in sorted(files):
            if not file.endswith(".py"):
                continue
            path = os.path.join(dirpath, file)
            module = os.path.relpath(path, src)[:-3].replace(os.sep, ".")
            module = re.sub(r"\.__init__$", "", module)
            with open(path) as handle:
                tree = ast.parse(handle.read())
            relative = os.path.relpath(path, src)
            seen = set()

            def visit(node, prefix):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        qualname = prefix + child.name
                        spelled, n = qualname, 1
                        while spelled in seen:
                            n += 1
                            spelled = f"{qualname}#{n}"
                        seen.add(spelled)
                        if child.name not in UNCOUNTED:
                            first = min([child.lineno] + [
                                d.lineno for d in child.decorator_list
                            ])
                            found[(relative, first, child.name)] = (
                                f"{module}:{spelled}"
                            )
                        visit(child, qualname + ".<locals>.")
                    elif isinstance(child, ast.ClassDef):
                        visit(child, prefix + child.name + ".")
                    else:
                        visit(child, prefix)

            visit(tree, "")
    return found


def workflow_scripts(workflows):
    """``[(step name, script)]``: every workflow file's ``run:`` scripts,
    in file and step order (a folded ``>`` block joined with spaces)."""
    if not os.path.isdir(workflows):
        return []
    scripts = []
    for file in sorted(os.listdir(workflows)):
        if not file.endswith((".yml", ".yaml")):
            continue
        with open(os.path.join(workflows, file)) as handle:
            lines = handle.read().splitlines()
        step = ""
        for index, line in enumerate(lines):
            named = re.match(r"^\s*- name:\s*(.*)$", line)
            if named:
                step = named[1].strip()
            match = re.match(r"^(\s*)(?:- )?run:\s*(.*)$", line)
            if match is None:
                continue
            indent, rest = len(match[1]), match[2].strip()
            if rest and rest[0] not in "|>":
                scripts.append((step, rest))
                continue
            body = []
            for text in lines[index + 1:]:
                if text.strip() and len(text) - len(text.lstrip()) <= indent:
                    break
                body.append(text)
            margin = min(
                (len(t) - len(t.lstrip()) for t in body if t.strip()), default=0
            )
            body = [t[margin:] for t in body]
            joiner = " " if rest.startswith(">") else "\n"
            scripts.append((step, joiner.join(body).strip() + "\n"))
    return scripts


def _runs_the_program(script, root):
    """Whether a CI script starts ``python -m`` on a repo module,
    ``python tools/…`` or an inline ``python -`` script."""
    for line in script.replace("\\\n", " ").splitlines():
        try:
            words = shlex.split(line, comments=True)
        except ValueError:
            continue
        for at, word in enumerate(words[:-1]):
            if word not in ("python", "python3"):
                continue
            following = words[at + 1]
            if following == "-" or (
                following.startswith("tools/") and following != "tools/census.py"
            ):
                return True
            if following == "-m" and at + 2 < len(words):
                top = words[at + 2].split(".")[0]
                if any(
                    os.path.exists(os.path.join(root, where, top))
                    for where in ("src", ".", "tools")
                ):
                    return True
    return False


def drivers(root=ROOT):
    """``[(name, argv, stdin)]`` in run order: examples, run_all
    experiments, then CI's scripts (``bash -e`` runs each whole)."""
    found = []
    examples = os.path.join(root, "examples")
    for file in sorted(os.listdir(examples)) if os.path.isdir(examples) else ():
        if file.endswith(".py"):
            found.append((f"examples/{file}", ["python", f"examples/{file}"], None))
    run_all = os.path.join(root, "benchmarks", "run_all.py")
    if os.path.exists(run_all):
        with open(run_all) as handle:
            ids = re.findall(r'^\s*\("(\w+)",\s*"bench_\w+"\),', handle.read(), re.M)
        for exp in ids:
            if exp not in NOT_DRIVERS:
                found.append((f"run_all {exp}",
                              ["python", "benchmarks/run_all.py", exp], None))
    for step, script in workflow_scripts(os.path.join(root, ".github", "workflows")):
        if _runs_the_program(script, root):
            found.append((f"ci: {step}", ["bash", "-e"], script))
    return found


def _copy(root, into):
    def ignore(_directory, names):
        return [n for n in names if n in ("__pycache__", "out") or n.endswith(".pyc")]

    for name in COPIED:
        source = os.path.join(root, name)
        if os.path.isdir(source):
            shutil.copytree(source, os.path.join(into, name), ignore=ignore)
        elif os.path.exists(source):
            shutil.copy(source, into)


def census(root=ROOT, out=sys.stdout):
    """Run every driver of ``root`` once; returns ``(lines, failed,
    lost)``: the census lines, the ``(driver, status)`` that failed, and
    the drivers in which some process lost the hook."""
    failed, lost, entered = [], [], set()
    with tempfile.TemporaryDirectory(prefix="census-") as scratch:
        tree = os.path.join(scratch, "tree")
        hook = os.path.join(scratch, "hook")
        dumps = os.path.join(scratch, "dumps")
        os.makedirs(tree)
        os.makedirs(hook)
        os.makedirs(dumps)
        _copy(root, tree)
        with open(os.path.join(hook, "sitecustomize.py"), "w") as handle:
            handle.write(HOOK)
        src = os.path.realpath(os.path.join(tree, "src"))
        env = dict(os.environ, CENSUS_OUT=dumps, PYTHONPATH=os.pathsep.join(
            [hook, src, os.path.join(tree, "tools")]
        ))
        env["PATH"] = os.path.dirname(sys.executable) + os.pathsep + env["PATH"]
        env.pop("PYTHONSTARTUP", None)
        started = time.perf_counter()
        for name, argv, stdin in drivers(tree):
            argv = [sys.executable if a == "python" else a for a in argv]
            began = time.perf_counter()
            process = subprocess.run(
                argv, cwd=tree, env=env, input=stdin, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            )
            seconds = time.perf_counter() - began
            status = "ok" if process.returncode == 0 else f"exit {process.returncode}"
            hooked = False
            for file in os.listdir(dumps):
                path = os.path.join(dumps, file)
                with open(path) as handle:
                    head = handle.readline().strip()
                    hooked = True
                    if head != "hook kept":
                        lost.append(name)
                    for line in handle:
                        filename, first, code_name = line.rstrip("\n").split("\t")
                        filename = os.path.realpath(filename)
                        if filename.startswith(src + os.sep):
                            entered.add((os.path.relpath(filename, src),
                                         int(first), code_name))
                os.unlink(path)
            if not hooked:
                lost.append(name)
            if process.returncode:
                # The last line naming the failed check, else the last line
                # (run_all ends on a count that does not say which check).
                lines = process.stdout.strip().splitlines()
                tail = [t for t in lines if "FAILED" in t or "Error" in t][-1:]
                tail = tail or lines[-1:] or [""]
                failed.append((name, status))
                status += f": {tail[0]}"
            print(f"{seconds:7.1f} s  {name}  {status}", file=out, flush=True)
        print(f"{time.perf_counter() - started:7.1f} s  all drivers", file=out)
    named = named_code_objects(os.path.join(root, "src"))
    lines = sorted(
        f"{spelled} {'ran' if key in entered else 'never'}"
        for key, spelled in named.items()
    )
    return lines, failed, lost


def main() -> int:
    lines, failed, lost = census()
    with open(OUTPUT, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    never = sum(line.endswith(" never") for line in lines)
    print(f"{len(lines)} named code objects: {len(lines) - never} ran, "
          f"{never} never; wrote {os.path.relpath(OUTPUT)}")
    for name, status in failed:
        print(f"FAILED driver: {name} ({status})")
    for name in lost:
        print(f"HOOK LOST: {name} (its reach is incomplete)")
    return 2 if lost else 0


if __name__ == "__main__":
    sys.exit(main())
