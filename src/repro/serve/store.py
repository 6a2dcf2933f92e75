"""The plan cache: each plan held once, decoded, in one tier.

With a persistent :class:`PlanStore`, :class:`PlanCache` *is* the
store's index: every persisted plan is held once, as the
:class:`~repro.api.PlanResult` decoded when the store loaded its record
or when its solve returned, and a hit is a dict lookup.  Without a
store, an in-process LRU of ``memory_entries`` plans stands in.

The store persists every solved plan as one JSONL record
``{"fingerprint": …, "plan": …}`` through the hardened
:class:`repro.jsonl.JsonlCache` core — fsync'd batched appends,
corrupt-line quarantine with recovery, atomic dedup rewrites — so a
killed service resumes from disk without re-solving anything it already
answered.

Payloads are the :meth:`repro.api.PlanResult.to_json` wire form:
deterministic (no timings, no per-call metrics), strict JSON (infinite
periods encode as ``null``), encoded only when a record is written and
validated on load by decoding through
:meth:`repro.api.PlanResult.from_json`, so a damaged record quarantines
instead of propagating garbage to clients.

Schema migration: new records are written at plan schema version 2
(``schedule_family`` added); version-1 records from older stores still
load — ``from_json`` reads them as ``"1f1b"`` plans.  Appends leave
them as they are, but a rewrite (the repair of a damaged file, or a
dedup) re-encodes every record it keeps, so their lines become
version 2.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from ..jsonl import JsonlCache
from ..warmstart import LRU

__all__ = ["PlanCache", "PlanStore"]


class PlanStore(JsonlCache):
    """Persistent ``fingerprint → plan`` store (append-only JSONL).

    Records are ``(fingerprint, PlanResult)`` pairs: loading decodes
    (and so validates) each line once, writing encodes each record with
    :meth:`~repro.api.PlanResult.to_json`.
    """

    def _encode(self, record: tuple[str, Any]) -> dict:
        fingerprint, result = record
        return {"fingerprint": fingerprint, "plan": result.to_json()}

    def _decode(self, obj: dict) -> tuple[str, Any]:
        from ..api import PlanResult  # deferred: api imports this package

        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
        fingerprint = obj.get("fingerprint")
        plan = obj.get("plan")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise ValueError("missing or non-string 'fingerprint'")
        if not isinstance(plan, dict):
            raise ValueError("missing 'plan' object")
        return fingerprint, PlanResult.from_json(plan)  # ValueError if damaged

    def _key(self, record: tuple[str, Any]) -> str:
        return record[0]


class PlanCache:
    """Decoded plans by fingerprint: the store's index, or an LRU.

    ``get`` returns ``(tier, PlanResult)`` or ``None`` on a miss.  The
    result is shared with every other hit on that plan, so it is
    read-only.  ``tier`` is ``"store"`` on the first hit on a record
    loaded from disk and ``"memory"`` on every later hit and on every
    hit on a plan put in this lifetime.  ``put`` persists through the
    store, skipping a fingerprint it already holds (a restarted service
    must not duplicate records for plans it reloaded).
    """

    def __init__(
        self,
        memory_entries: int = 1024,
        store: "PlanStore | str | Path | None" = None,
    ):
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        if isinstance(store, (str, Path)):
            store = PlanStore(store)
        self.store = store
        self.memory: LRU | None = LRU(memory_entries) if store is None else None
        self._live: set[str] = set()  # store fingerprints hit or put so far

    def get(self, fingerprint: str) -> tuple[str, Any] | None:
        if self.store is None:
            result = self.memory.hit(fingerprint)
            return None if result is None else ("memory", result)
        record = self.store.get(fingerprint)
        if record is None:
            return None
        if fingerprint in self._live:
            return "memory", record[1]
        self._live.add(fingerprint)
        return "store", record[1]

    def put(self, fingerprint: str, result: Any) -> None:
        if self.store is None:
            self.memory.put(fingerprint, result)
            return
        self._live.add(fingerprint)
        if fingerprint not in self.store:
            self.store.put((fingerprint, result))

    def flush(self) -> None:
        if self.store is not None:
            self.store.flush()

    def __len__(self) -> int:
        """Distinct plans the cache holds."""
        return len(self.memory if self.store is None else self.store)
