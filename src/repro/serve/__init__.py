"""Planner-as-a-service: an asyncio planning service over :mod:`repro.api`.

The solver stack answers "how do I place this chain on this platform"
fast per instance; this package makes it answer the question *as a
service* under concurrent, partially-repeated traffic:

* :func:`repro.warmstart.request_fingerprint` — canonical request
  identity (chain values, platform values, algorithm, options) with
  float normalization and key-order independence, computed once per
  distinct spec by the service's fingerprint memo;
* :class:`PlanStore` / :class:`PlanCache` — a one-tier plan cache
  holding each plan once, as its decoded :class:`repro.api.PlanResult`:
  the index of a persistent append-only JSONL store built on the
  hardened :class:`repro.jsonl.JsonlCache` (fsync'd appends, quarantine
  + recovery, atomic repair), or an in-process LRU when the service
  has no store;
* :class:`PlanService` — single-flight request coalescing in front of
  the :class:`repro.runtime.Supervisor` the sweep shares (one worker
  pool, one attempt loop with per-request deadlines and seeded backoff,
  one worker-death rule), with ``serve.*`` counters and per-request
  spans through :mod:`repro.obs`;
* :mod:`repro.serve.resilience` — overload safety, configured with
  :class:`ResilienceConfig` and off by default: bounded priority
  admission (shedding with a typed :class:`OverloadedError` +
  retry-after hint), per-(algorithm, schedule_family)
  :class:`CircuitBreaker` state machines, and degraded-mode planning
  (the certified contiguous 1F1B* fallback, ``served_from="degraded"``,
  never written to the primary store).

Entry points: :func:`repro.api.serve` (facade constructor) and the
``repro serve`` CLI (a JSONL request loop on stdin).  Measured by the
layer ledger's ``serve-zipf`` workload (``benchmarks/ledger/run.py``):
latency and hit/coalesce ratios under a Zipf traffic replay, every
answer checked against its expected period; and soak-tested by
``tests/test_chaos_soak.py``: a seeded fault storm with
shed/degraded/recovery invariants.
"""

from ..warmstart import canonical_value, request_fingerprint
from .resilience import (
    PRIORITIES,
    AdmissionQueue,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    PoolExhaustedError,
    ResilienceConfig,
    priority_rank,
)
from .service import PlanRequest, PlanService, ServeReply
from .store import PlanCache, PlanStore

__all__ = [
    "PRIORITIES",
    "AdmissionQueue",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "OverloadedError",
    "PlanCache",
    "PlanRequest",
    "PlanService",
    "PlanStore",
    "PoolExhaustedError",
    "ResilienceConfig",
    "ServeReply",
    "canonical_value",
    "priority_rank",
    "request_fingerprint",
]
