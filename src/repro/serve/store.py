"""The two-tier plan cache: in-process LRU over a persistent JSONL store.

Tier 1 (:class:`PlanCache`'s LRU) holds the most recently served plans
in memory; tier 2 (:class:`PlanStore`) persists every solved plan as one
JSONL record ``{"fingerprint": …, "plan": …}`` through the hardened
:class:`repro.jsonl.JsonlCache` core — fsync'd batched appends,
corrupt-line quarantine with recovery, atomic dedup rewrites — so a
killed service resumes from disk without re-solving anything it already
answered.

Payloads are the :meth:`repro.api.PlanResult.to_json` wire form:
deterministic (no timings, no per-call metrics), strict JSON (infinite
periods encode as ``null``), validated on load by decoding through
:meth:`repro.api.PlanResult.from_json` so a damaged record quarantines
instead of propagating garbage to clients.  Both tiers keep that decoded
result next to its payload (a :class:`CachedPlan`): each plan is decoded
once — when it is loaded, or when a fresh payload is put — and a hit
from either tier decodes nothing.

Schema migration: new records are written at plan schema version 2
(``schedule_family`` added); version-1 records from older stores still
load — ``from_json`` reads them as ``"1f1b"`` plans — and are *not*
rewritten in place, so a store shared with an older build stays usable
by both.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, NamedTuple

from ..jsonl import JsonlCache
from ..warmstart import LRU

__all__ = ["CachedPlan", "PlanCache", "PlanStore", "decode_plan"]


class CachedPlan(NamedTuple):
    """One cached plan: its wire payload and the result decoded from it.

    Every reply served from the entry shares both, so they are
    read-only: :meth:`~repro.serve.PlanService.handle` hands each caller
    its own top-level :class:`~repro.api.PlanResult`, whose ``pattern``
    and ``certificate`` are still these shared objects.
    """

    payload: dict
    result: Any  # repro.api.PlanResult


def decode_plan(payload: dict) -> CachedPlan:
    """Decode one wire payload; ``ValueError`` on a damaged payload."""
    from ..api import PlanResult  # deferred: api imports this package

    return CachedPlan(payload, PlanResult.from_json(payload))


class PlanStore(JsonlCache):
    """Persistent ``fingerprint → plan`` store (append-only JSONL).

    Records are ``(fingerprint, CachedPlan)`` pairs; loading decodes
    (and so validates) each line once.
    """

    def _encode(self, record: tuple[str, CachedPlan]) -> dict:
        fingerprint, plan = record
        return {"fingerprint": fingerprint, "plan": plan.payload}

    def _decode(self, obj: dict) -> tuple[str, CachedPlan]:
        if not isinstance(obj, dict):
            raise ValueError(f"expected a JSON object, got {type(obj).__name__}")
        fingerprint = obj.get("fingerprint")
        plan = obj.get("plan")
        if not isinstance(fingerprint, str) or not fingerprint:
            raise ValueError("missing or non-string 'fingerprint'")
        if not isinstance(plan, dict):
            raise ValueError("missing 'plan' object")
        return fingerprint, decode_plan(plan)  # ValueError on a damaged payload

    def _key(self, record: tuple[str, CachedPlan]) -> str:
        return record[0]

    # -- convenience accessors --------------------------------------------

    def get_cached(self, fingerprint: str) -> CachedPlan | None:
        record = self.get(fingerprint)
        return None if record is None else record[1]

    def get_plan(self, fingerprint: str) -> dict | None:
        cached = self.get_cached(fingerprint)
        return None if cached is None else cached.payload

    def put_plan(self, fingerprint: str, payload: dict) -> None:
        """Persist one wire payload, decoding (so validating) it first."""
        self.put((fingerprint, decode_plan(payload)))


class PlanCache:
    """In-process LRU (tier 1) over an optional :class:`PlanStore` (tier 2).

    ``get`` returns ``(tier, CachedPlan)`` — ``tier`` is ``"memory"`` or
    ``"store"`` — or ``None`` on a full miss; a store hit is promoted
    into the LRU with the result the store decoded at load.  ``put``
    writes through to both tiers, skipping the store append when the
    fingerprint is already persisted (a restarted service must not
    duplicate records for plans it reloaded).
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

    def get(self, fingerprint: str) -> tuple[str, CachedPlan] | None:
        cached = self.memory.hit(fingerprint)
        if cached is not None:
            return "memory", cached
        if self.store is not None:
            cached = self.store.get_cached(fingerprint)
            if cached is not None:
                self.memory.put(fingerprint, cached)
                return "store", cached
        return None

    def put(self, fingerprint: str, plan: CachedPlan) -> None:
        self.memory.put(fingerprint, plan)
        if self.store is not None and fingerprint not in self.store:
            self.store.put((fingerprint, plan))

    def flush(self) -> None:
        if self.store is not None:
            self.store.flush()

    def __len__(self) -> int:
        """Distinct plans reachable through the cache (both tiers)."""
        if self.store is None:
            return len(self.memory)
        return len(self.store) + sum(fp not in self.store for fp in self.memory)
