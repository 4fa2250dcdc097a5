"""The per-shard append-only command log.

Replication here is deliberately *simple* — a single totally-ordered
log per shard, leader appends, followers copy — because the directory's
consistency needs are modest: §3 bindings are per-name, and the paper's
soft-state philosophy tolerates brief staleness everywhere *except*
acknowledged writes.  The log is the durability contract: a write is
acknowledged only once every live replica holds its entry, so promoting
the most-caught-up follower after a leader crash provably loses zero
acknowledged writes (``bench_d01`` replays the logs to show it).

Entries are immutable and carry ``(index, term)`` — ``term`` bumps on
every failover, so a rejoining replica can detect that its tail was
written under a dead leadership and rebuild instead of silently
diverging.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Tuple


class LogError(ValueError):
    """An append that would corrupt the log's invariants."""


@dataclass(frozen=True)
class LogEntry:
    """One committed command: position, leadership epoch, the command."""

    index: int          # 1-based, dense
    term: int           # leadership epoch that wrote the entry
    request_id: str     # idempotency key — at most one entry per id
    method: str
    params_json: str    # canonical JSON text of the params object

    @property
    def params(self) -> Dict[str, object]:
        return json.loads(self.params_json)

    def to_json(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "term": self.term,
            "id": self.request_id,
            "method": self.method,
            "params": self.params,
        }


class CommandLog:
    """A dense, append-only sequence of :class:`LogEntry`.

    Indexing is 1-based (index 0 means "empty"), matching the usual
    replicated-log convention so lag arithmetic stays obvious.
    """

    def __init__(self) -> None:
        self._entries: List[LogEntry] = []

    @property
    def last_index(self) -> int:
        return len(self._entries)

    @property
    def last_term(self) -> int:
        return self._entries[-1].term if self._entries else 0

    def append(self, entry: LogEntry) -> None:
        if entry.index != self.last_index + 1:
            raise LogError(
                f"append index {entry.index} breaks density "
                f"(last={self.last_index})"
            )
        if entry.term < self.last_term:
            raise LogError(
                f"append term {entry.term} regresses from {self.last_term}"
            )
        self._entries.append(entry)

    def entry_at(self, index: int) -> LogEntry:
        if not 1 <= index <= self.last_index:
            raise LogError(f"no entry at index {index}")
        return self._entries[index - 1]

    def entries_from(self, index: int) -> Tuple[LogEntry, ...]:
        """Every entry with ``entry.index >= index`` (catch-up feed)."""
        if index < 1:
            index = 1
        return tuple(self._entries[index - 1:])

    def matches_prefix_of(self, other: "CommandLog") -> bool:
        """True when this log is a (possibly equal) prefix of ``other``.

        The rejoin check: a replica whose log is *not* a prefix of the
        current leader's wrote entries under a dead leadership and must
        rebuild rather than append.
        """
        if self.last_index > other.last_index:
            return False
        for index in range(1, self.last_index + 1):
            mine = self._entries[index - 1]
            theirs = other.entry_at(index)
            if (mine.term, mine.request_id) != (theirs.term, theirs.request_id):
                return False
        return True

    def request_id_counts(self) -> Dict[str, int]:
        """Entries per request id — the exactly-once witness.

        Dedup working means every count is exactly 1; the chaos
        invariant checker consumes this as ``delivery_counts``.
        """
        counts: Dict[str, int] = {}
        for entry in self._entries:
            counts[entry.request_id] = counts.get(entry.request_id, 0) + 1
        return counts

    def to_ndjson(self) -> str:
        """Canonical NDJSON of the whole log (replay/forensics)."""
        return "\n".join(
            json.dumps(e.to_json(), sort_keys=True, separators=(",", ":"))
            for e in self._entries
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<CommandLog n={self.last_index} term={self.last_term}>"
