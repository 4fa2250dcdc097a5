"""Shared helpers for the experiment benchmarks.

Every experiment Exx regenerates one claim from the paper's evaluation
(§6) or design sections.  Benches print a table of *paper model* next
to *measured*, persist it under ``benchmarks/results/`` (so the tables
survive pytest's output capturing), and assert the claim's *shape* —
who wins, by roughly what factor — not absolute numbers.
"""

from __future__ import annotations

import json
import os
from typing import Iterable, List, Optional, Sequence

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def format_table(
    title: str, headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned text table."""
    rendered_rows: List[List[str]] = [
        [_cell(value) for value in row] for row in rows
    ]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.001:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def publish(name: str, text: str, data: Optional[dict] = None) -> None:
    """Print the table; persist text AND machine-readable JSON.

    Alongside the human table (``<name>.txt``) every bench now also
    writes ``BENCH_<name>.json`` — ``data`` verbatim when the bench
    supplies structured results, otherwise a generic parse of the
    :func:`format_table` text (title, headers, typed rows) — so CI and
    regression tooling diff results without scraping tables.
    """
    print("\n" + text + "\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as handle:
        handle.write(text + "\n")
    payload = {"name": name}
    payload.update(data if data is not None else parse_table(text))
    with open(
        os.path.join(RESULTS_DIR, f"BENCH_{name}.json"), "w"
    ) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def parse_table(text: str) -> dict:
    """Recover ``{title, headers, rows}`` from a :func:`format_table`.

    Column boundaries come from the dashes separator line, so cells
    containing spaces survive; numeric-looking cells are typed.  The
    rows end at the first line that is not one (a blank line, a note),
    so prose under a table never becomes a row.  Text that is not a
    table (no separator) degrades to ``{"text": ...}``.
    """
    lines = text.splitlines()
    dash_index = next(
        (i for i, line in enumerate(lines)
         if line.strip() and set(line.strip()) <= {"-", " "} and i >= 2),
        None,
    )
    if dash_index is None or dash_index < 1:
        return {"text": text}
    title = lines[0] if lines else ""
    header_line = lines[dash_index - 1]
    # Column spans: runs of dashes in the separator line.
    spans: List[tuple] = []
    start = None
    separator = lines[dash_index]
    for index, char in enumerate(separator + " "):
        if char == "-" and start is None:
            start = index
        elif char != "-" and start is not None:
            spans.append((start, index))
            start = None
    def cut(line: str):
        cells = []
        for n, (lo, hi) in enumerate(spans):
            # The final column may overflow its dash width.
            piece = line[lo:] if n == len(spans) - 1 else line[lo:hi]
            cells.append(piece.strip())
        return cells
    def is_row(line: str) -> bool:
        # format_table pads every cell to its column, so a row is as
        # long as the separator and blank between the columns.
        return len(line) == len(separator) and all(
            not line[hi:lo].strip()
            for (_, hi), (lo, _) in zip(spans, spans[1:])
        )

    headers = cut(header_line)
    rows = []
    for line in lines[dash_index + 1:]:
        if not is_row(line):
            break  # the table ends where its rows do; what follows is prose
        rows.append([_typed(cell) for cell in cut(line)])
    return {"title": title, "headers": headers, "rows": rows}


def _typed(cell: str) -> object:
    try:
        return int(cell)
    except ValueError:
        pass
    try:
        return float(cell)
    except ValueError:
        return cell


def assert_close(actual: float, expected: float, rel: float, what: str = "") -> None:
    """Assert agreement within a relative tolerance."""
    if expected == 0:
        assert abs(actual) < 1e-12, f"{what}: {actual} vs 0"
        return
    error = abs(actual - expected) / abs(expected)
    assert error <= rel, (
        f"{what}: measured {actual:.6g} vs expected {expected:.6g} "
        f"({error:.0%} off, tolerance {rel:.0%})"
    )


def us(seconds: float) -> float:
    return seconds * 1e6


def ms(seconds: float) -> float:
    return seconds * 1e3
