"""The benchmark suite's own integrity.

Every bench file must appear in the standalone runner's registry and in
the documentation's experiment index, so nothing silently drops out of
the reproduction.
"""

import os
import re

BENCH_DIR = os.path.join(os.path.dirname(__file__), "..", "benchmarks")
REPO_ROOT = os.path.join(os.path.dirname(__file__), "..")


def _bench_modules():
    return sorted(
        name[:-3] for name in os.listdir(BENCH_DIR)
        if name.startswith("bench_") and name.endswith(".py")
    )


def test_run_all_registry_is_complete():
    with open(os.path.join(BENCH_DIR, "run_all.py")) as handle:
        registry = handle.read()
    missing = [m for m in _bench_modules() if f'"{m}"' not in registry]
    assert not missing, f"run_all.py is missing: {missing}"


def test_experiments_md_mentions_every_bench():
    with open(os.path.join(REPO_ROOT, "EXPERIMENTS.md")) as handle:
        text = handle.read()
    missing = [m for m in _bench_modules() if m not in text]
    assert not missing, f"EXPERIMENTS.md is missing: {missing}"


def test_each_bench_has_exactly_one_bench_function():
    for module in _bench_modules():
        with open(os.path.join(BENCH_DIR, f"{module}.py")) as handle:
            text = handle.read()
        functions = re.findall(r"^def (bench_\w+)", text, re.MULTILINE)
        assert len(functions) == 1, (module, functions)
        # The function name carries the module's experiment id.
        assert functions[0].split("_")[1] == module.split("_")[1], module


def test_each_bench_publishes_a_results_table():
    for module in _bench_modules():
        with open(os.path.join(BENCH_DIR, f"{module}.py")) as handle:
            text = handle.read()
        assert "publish(" in text, f"{module} never publishes its table"


RESULTS_DIR = os.path.join(BENCH_DIR, "results")


def test_parse_table_stops_at_the_first_line_that_is_not_a_row():
    from benchmarks._common import format_table, parse_table

    table = format_table("T", ["x", "label"], [[1, "a b"], [2.5, "c"]])
    for note in ("\nPaper: a note right under the rows.", "\n\nA note after a blank."):
        assert parse_table(table + note) == {
            "title": "T", "headers": ["x", "label"], "rows": [[1, "a b"], [2.5, "c"]],
        }


def test_every_committed_table_row_has_one_typed_cell_per_header():
    """A ``BENCH_*.json`` that holds a parsed table is exactly what the
    parser reads from its committed ``.txt``: rows only, never the prose
    under them, each with one cell per header and numbers as numbers."""
    import json

    from benchmarks._common import _typed, parse_table

    checked = 0
    for name in sorted(os.listdir(RESULTS_DIR)):
        if not (name.startswith("BENCH_") and name.endswith(".json")):
            continue
        with open(os.path.join(RESULTS_DIR, name)) as handle:
            committed = json.load(handle)
        if "rows" not in committed:
            continue  # the bench published structured data of its own
        with open(os.path.join(RESULTS_DIR, committed["name"] + ".txt")) as handle:
            text = handle.read()
        assert committed == {"name": committed["name"], **parse_table(text[:-1])}, name
        for row in committed["rows"]:
            assert len(row) == len(committed["headers"]), (name, row)
            for cell in row:
                assert _typed(str(cell)) == cell, (name, cell)
        checked += 1
    assert checked >= 20
