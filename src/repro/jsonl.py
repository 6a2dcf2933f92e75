"""Append-only JSON-Lines persistence shared by every cache in the repo:
the sweep's :class:`repro.experiments.ResultCache`, the plan server's
:class:`repro.serve.PlanStore` and the trace reader
:class:`repro.profiles.ingest.TraceLog`.
"""

from __future__ import annotations

import json
import logging
import os
from pathlib import Path
from typing import Iterable

from .testing import faults

__all__ = ["JsonlCache", "append_quarantine", "parse_lines", "strict_loads"]

log = logging.getLogger(__name__)


def _reject_nan(name: str) -> float:
    raise ValueError(f"non-finite JSON constant {name!r}")


def strict_loads(text: str):
    """``json.loads`` that raises ``ValueError`` on NaN/Infinity."""
    return json.loads(text, parse_constant=_reject_nan)


def parse_lines(text: str, decode) -> tuple[list, list[tuple[int, str, str]]]:
    """Strict-decode every non-blank line of ``text`` with ``decode``.

    Returns ``(records, bad)``; ``bad`` lists ``(lineno, reason, line)``
    for each line that failed with ``ValueError``.
    """
    return _decode_lines(text.split("\n"), decode)


def _decode_lines(lines: Iterable[str], decode) -> tuple[list, list[tuple[int, str, str]]]:
    """:func:`parse_lines` over any iterable of newline-free lines."""
    records, bad = [], []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                records.append(decode(strict_loads(line)))
            except ValueError as exc:
                bad.append((lineno, str(exc), line))
    return records, bad


def append_quarantine(path: Path, entries: list[tuple[int, str, str]]) -> None:
    """Append ``(lineno, reason, line)`` entries to ``<path>.quarantine``.

    Entries already in the sidecar are skipped, so re-reading a damaged
    file never duplicates them.  A read-only location is tolerated: the
    caller's log line or report already names the dropped lines.
    """
    sidecar = path.with_name(path.name + ".quarantine")
    try:
        seen = "\n" + sidecar.read_text() if sidecar.exists() else "\n"
        new = [
            entry
            for entry in (f"# line {n}: {why}\n{line}\n" for n, why, line in entries)
            if "\n" + entry not in seen
        ]
        if new:
            with sidecar.open("a") as fh:
                fh.write("".join(new))
    except OSError:
        pass


class JsonlCache:
    """Append-only JSONL cache with quarantine, repair and batched flushes.

    Subclasses define the record codec: :meth:`_encode` (record →
    JSON-ready dict), :meth:`_decode` (parsed dict → record, raising
    ``ValueError`` on anything malformed) and :meth:`_key` (record →
    hashable cache key).

    Each :meth:`put` buffers one record; buffers are appended to the file
    every ``flush_every`` inserts (and on :meth:`flush`/context exit) in
    a single fsync'd write, so inserting N results costs O(N) I/O and a
    killed process loses at most the unflushed buffer.

    Loading is *recovering*: corrupt, truncated or NaN-bearing lines are
    quarantined (logged, appended to a ``<name>.quarantine`` sidecar)
    and the valid remainder is kept; the first subsequent flush rewrites
    the file clean.  Duplicate keys resolve last-write-wins.  Concurrent
    processes may append to the same cache (each flush is one
    ``O_APPEND`` write); only repair rewrites, which assumes a single
    writer.
    """

    def __init__(self, path: str | Path, *, flush_every: int = 1):
        if flush_every < 1:
            raise ValueError("flush_every must be >= 1")
        self.path = Path(path)
        self.flush_every = flush_every
        self._data: dict = {}
        self._pending: list = []
        self._needs_rewrite = False
        self.quarantined: list[tuple[int, str, str]] = []  # (lineno, reason, line)
        if self.path.exists():
            self._load()

    # -- record codec (subclass responsibility) ----------------------------

    def _encode(self, record) -> dict:
        """JSON-ready dict for one record."""
        raise NotImplementedError

    def _decode(self, obj: dict):
        """Parse one record dict; must raise ``ValueError`` if malformed."""
        raise NotImplementedError

    def _key(self, record):
        """Hashable cache key of one record."""
        raise NotImplementedError

    def _load(self) -> None:
        # stream the file line by line: its text is never held whole
        last = "\n"

        def lines(fh):
            nonlocal last
            for last in fh:
                yield last.removesuffix("\n")

        with self.path.open() as fh:
            records, self.quarantined = _decode_lines(lines(fh), self._decode)
        if not records and not self.quarantined:
            return  # blank file
        for r in records:
            self._data[self._key(r)] = r
        if self.quarantined:
            self._needs_rewrite = True
            append_quarantine(self.path, self.quarantined)
            log.warning(
                "%s: dropped %d corrupt line(s) (%s); recovered %d record(s)",
                self.path,
                len(self.quarantined),
                "; ".join(f"line {n}: {why}" for n, why, _ in self.quarantined[:3]),
                len(self._data),
            )
        if not last.endswith("\n"):
            # torn final write: even if it parsed, normalize on next flush
            # rather than appending onto a line with no terminator
            self._needs_rewrite = True

    def get(self, key):
        return self._data.get(key)

    def __contains__(self, key) -> bool:
        return key in self._data

    def keys(self):
        """Live view of the keys of every record held."""
        return self._data.keys()

    def put(self, record) -> None:
        key = self._key(record)
        if key in self._data:
            # overwrite (e.g. a --resume re-run): appending would leave a
            # stale duplicate line, so force an atomic dedup rewrite
            self._needs_rewrite = True
        self._data[key] = record
        self._pending.append(record)
        if len(self._pending) >= self.flush_every:
            self.flush()

    def _rewrite_atomic(self) -> None:
        tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
        with tmp.open("w") as fh:
            for r in self._data.values():
                fh.write(json.dumps(self._encode(r)) + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._needs_rewrite = False

    def flush(self) -> None:
        """Write buffered records out (rewriting a damaged file once).

        Pure reads never rewrite: corruption repair happens only when
        there is something new to persist.
        """
        if self._pending:
            if self._needs_rewrite:
                self._rewrite_atomic()
            else:
                payload = "".join(
                    json.dumps(self._encode(r)) + "\n" for r in self._pending
                )
                with self.path.open("a") as fh:
                    fh.write(payload)
                    fh.flush()
                    os.fsync(fh.fileno())
            self._pending.clear()
        fault = faults.fire("cache_flush", key=str(self.path))
        if fault is not None and fault.action == "truncate" and self.path.exists():
            size = self.path.stat().st_size
            os.truncate(self.path, max(0, size - int(fault.param)))

    def repair(self) -> bool:
        """Force a clean atomic rewrite: JSONL, deduplicated (last write
        wins), newline-terminated, corrupt lines dropped (they are
        already in the quarantine sidecar).  Returns ``False`` when
        there is nothing to write."""
        if not self._data:
            return False
        self._rewrite_atomic()
        self._pending.clear()
        return True

    def __enter__(self) -> "JsonlCache":
        return self

    def __exit__(self, *exc) -> None:
        self.flush()

    def __len__(self) -> int:
        return len(self._data)
