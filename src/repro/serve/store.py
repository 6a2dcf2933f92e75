"""The two-tier plan cache: in-process LRU over a persistent JSONL store.

Tier 1 (:class:`PlanCache`'s LRU) holds the most recently served plan
payloads in memory; tier 2 (:class:`PlanStore`) persists every solved
plan as one JSONL record ``{"fingerprint": …, "plan": …}`` through the
hardened :class:`repro.jsonl.JsonlCache` core — fsync'd
batched appends, corrupt-line quarantine with recovery, atomic dedup
rewrites — so a killed service resumes from disk without re-solving
anything it already answered.

Payloads are the :meth:`repro.api.PlanResult.to_json` wire form:
deterministic (no timings, no per-call metrics), strict JSON (infinite
periods encode as ``null``), validated on load by round-tripping through
:meth:`repro.api.PlanResult.from_json` so a damaged record quarantines
instead of propagating garbage to clients.

Schema migration: new records are written at plan schema version 2
(``schedule_family`` added); version-1 records from older stores still
load — ``from_json`` reads them as ``"1f1b"`` plans — and are *not*
rewritten in place, so a store shared with an older build stays usable
by both.
"""

from __future__ import annotations

from pathlib import Path

from ..jsonl import JsonlCache
from ..warmstart import LRU

__all__ = ["PlanCache", "PlanStore"]


class PlanStore(JsonlCache):
    """Persistent ``fingerprint → plan payload`` store (append-only JSONL)."""

    def _encode(self, record: dict) -> dict:
        return record

    def _decode(self, obj: dict) -> dict:
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
        fingerprint = obj.get("fingerprint")
        plan = obj.get("plan")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise ValueError("missing or non-string 'fingerprint'")
        if not isinstance(plan, dict):
            raise ValueError("missing 'plan' object")
        from ..api import PlanResult  # deferred: api imports this package

        PlanResult.from_json(plan)  # raises ValueError on a damaged payload
        return {"fingerprint": fingerprint, "plan": plan}

    def _key(self, record: dict) -> str:
        return record["fingerprint"]

    # -- convenience accessors --------------------------------------------

    def get_plan(self, fingerprint: str) -> dict | None:
        record = self.get(fingerprint)
        return None if record is None else record["plan"]

    def put_plan(self, fingerprint: str, plan: dict) -> None:
        self.put({"fingerprint": fingerprint, "plan": plan})


class PlanCache:
    """In-process LRU (tier 1) over an optional :class:`PlanStore` (tier 2).

    ``get`` returns ``(tier, payload)`` — ``tier`` is ``"memory"`` or
    ``"store"`` — or ``None`` on a full miss; a store hit is promoted
    into the LRU.  ``put`` writes through to both tiers, skipping the
    store append when the fingerprint is already persisted (a restarted
    service must not duplicate records for plans it reloaded).
    """

    def __init__(
        self,
        memory_entries: int = 1024,
        store: "PlanStore | str | Path | None" = None,
        *,
        flush_every: int = 1,
    ):
        if memory_entries < 1:
            raise ValueError("memory_entries must be >= 1")
        if isinstance(store, (str, Path)):
            store = PlanStore(store, flush_every=flush_every)
        self.memory: LRU = LRU(memory_entries)
        self.store = store

    def get(self, fingerprint: str) -> tuple[str, dict] | None:
        payload = self.memory.hit(fingerprint)
        if payload is not None:
            return "memory", payload
        if self.store is not None:
            payload = self.store.get_plan(fingerprint)
            if payload is not None:
                self.memory.put(fingerprint, payload)
                return "store", payload
        return None

    def put(self, fingerprint: str, plan: dict) -> None:
        self.memory.put(fingerprint, plan)
        if self.store is not None and self.store.get(fingerprint) is None:
            self.store.put_plan(fingerprint, plan)

    def flush(self) -> None:
        if self.store is not None:
            self.store.flush()

    def __len__(self) -> int:
        """Distinct plans reachable through the cache (both tiers)."""
        if self.store is None:
            return len(self.memory)
        return len(set(self.memory) | set(self.store._data))
