"""Hardened trace ingestion: JSONL + CSV, per-record quarantine.

A trace directory holds one file per profiling run (or several runs per
file — the ``run`` field disambiguates), as ``*.jsonl`` or ``*.csv``.
:func:`ingest_traces` reads every trace file in sorted order and returns
a :class:`TraceSet`: the validated records plus a full account of what
was *dropped* and why.

Robustness contract:

* a corrupt line never aborts ingestion — it is quarantined (appended to
  a ``<file>.quarantine`` sidecar next to the trace, with line number
  and reason) and counted in the ``ingest.quarantined`` counter;
* JSONL quarantine reuses the :class:`repro.jsonl.JsonlCache` machinery
  (the same code path that recovers sweep caches and plan stores); the
  trace files themselves are *read-only* — ingestion never rewrites
  them;
* CSV rows flow through the same :func:`~repro.profiles.schema.
  parse_record` gate, with their own sidecar written by the same
  :func:`repro.jsonl.append_quarantine`;
* re-reading a damaged file never duplicates sidecar entries;
* ingestion is deterministic: files in sorted order, lines in file
  order, so the same directory always yields the same
  :class:`TraceSet`.

Fault sites (see :mod:`repro.testing.faults`): ``ingest_file`` fires
once per trace file (``raise``/``exit``/``sleep`` model a reader crash
mid-directory), ``ingest_record`` fires per decoded record (``fail``
forces the record into quarantine, exercising the sidecar path without
hand-crafting corrupt bytes).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from .. import obs
from ..jsonl import JsonlCache, append_quarantine
from ..profiling.io import ProfileError
from ..testing import faults
from .schema import CSV_COLUMNS, TraceRecord, parse_record, record_from_csv_row

__all__ = ["TraceLog", "TraceSet", "ingest_traces"]


class TraceLog(JsonlCache):
    """Read-only JSONL trace reader with corrupt-line quarantine.

    One instance reads one trace file.  Records are keyed by
    ``(run, layer)`` — a duplicated measurement in the same file
    resolves last-write-wins, like every other cache in the repo.
    Ingestion never calls :meth:`put`/:meth:`flush`, so the trace file
    on disk is never modified; only the ``<name>.quarantine`` sidecar
    grows when corruption is found.
    """

    def _encode(self, record: TraceRecord) -> dict:
        return record.to_dict()

    def _decode(self, obj: dict) -> TraceRecord:
        source = str(self.path)
        return _fault_gate(parse_record(obj, source=source), self.path, source)

    def _key(self, record: TraceRecord) -> tuple:
        return (record.run, record.layer)

    @property
    def records(self) -> list[TraceRecord]:
        """Validated records in deterministic (file) order."""
        return list(self._data.values())


def _fault_gate(record: TraceRecord, path: Path, source: str) -> TraceRecord:
    """The ``ingest_record`` fault site shared by the JSONL and CSV
    readers: a ``fail`` fault forces the record into quarantine as if it
    had been corrupt."""
    fault = faults.fire("ingest_record", key=f"{path}:{record.run}:{record.layer}")
    if fault is not None and fault.action == "fail":
        raise ProfileError("injected ingest fault", source=source, field=record.layer)
    return record


@dataclass
class TraceSet:
    """Everything one ingestion pass read — and everything it dropped.

    ``quarantined`` lists ``(file, lineno, reason)`` for every rejected
    line, mirroring the sidecar contents; nothing is dropped silently.
    """

    records: list[TraceRecord] = field(default_factory=list)
    files: tuple[str, ...] = ()
    quarantined: list[tuple[str, int, str]] = field(default_factory=list)

    @property
    def n_records(self) -> int:
        return len(self.records)

    @property
    def n_quarantined(self) -> int:
        return len(self.quarantined)

    @property
    def runs(self) -> tuple[int, ...]:
        """Distinct run indices seen, ascending."""
        return tuple(sorted({r.run for r in self.records}))

    def by_layer(self) -> dict[str, list[TraceRecord]]:
        """Records grouped by layer name, insertion order preserved."""
        out: dict[str, list[TraceRecord]] = {}
        for r in self.records:
            out.setdefault(r.layer, []).append(r)
        return out


def _read_jsonl(path: Path, out: TraceSet) -> None:
    log = TraceLog(path)
    out.records.extend(log.records)
    for lineno, reason, _line in log.quarantined:
        out.quarantined.append((str(path), lineno, reason))


def _read_csv(path: Path, out: TraceSet) -> None:
    """CSV twin of the JSONL path: same validation gate, same sidecar
    format (``# line N: reason`` followed by the raw line)."""
    with path.open(newline="") as fh:
        reader = csv.DictReader(fh)
        header = reader.fieldnames
        if header is None:
            return  # empty file: nothing to read, nothing to quarantine
        unknown = sorted(set(header) - set(CSV_COLUMNS))
        if unknown:
            raise ProfileError(
                f"unknown CSV columns {unknown}; expected a subset of "
                f"{list(CSV_COLUMNS)}",
                source=str(path),
            )
        bad: list[tuple[int, str, str]] = []
        for row in reader:
            lineno = reader.line_num
            source = f"{path}:{lineno}"
            try:
                record = _fault_gate(record_from_csv_row(row, source=source), path, source)
            except ProfileError as exc:
                raw = ",".join("" if v is None else str(v) for v in row.values())
                bad.append((lineno, str(exc), raw))
            else:
                out.records.append(record)
    append_quarantine(path, bad)
    for lineno, reason, _line in bad:
        out.quarantined.append((str(path), lineno, reason))


def ingest_traces(trace_dir: str | Path) -> TraceSet:
    """Read every ``*.jsonl`` / ``*.csv`` trace under ``trace_dir``.

    Never raises on *content* problems — bad records are quarantined and
    reported in the returned :class:`TraceSet`.  Raises
    :class:`~repro.profiling.ProfileError` only for structural problems
    a sidecar cannot represent (missing directory, no trace files, an
    unreadable CSV header), and ``OSError`` for filesystem failures.
    """
    root = Path(trace_dir)
    if not root.is_dir():
        raise ProfileError("trace directory does not exist", source=str(root))
    paths = sorted(
        p for p in root.iterdir()
        if p.suffix in (".jsonl", ".csv") and p.is_file()
    )
    if not paths:
        raise ProfileError(
            "no *.jsonl or *.csv trace files found", source=str(root)
        )
    out = TraceSet(files=tuple(str(p) for p in paths))
    with obs.span("ingest", trace_dir=str(root), files=len(paths)):
        for path in paths:
            faults.fire("ingest_file", key=str(path))
            if path.suffix == ".jsonl":
                _read_jsonl(path, out)
            else:
                _read_csv(path, out)
    obs.inc("ingest.records", out.n_records)
    obs.inc("ingest.quarantined", out.n_quarantined)
    return out
