"""The asyncio planning service: coalescing, caching, bounded solving.

One :class:`PlanService` owns a :class:`~repro.serve.store.PlanCache`,
a single-flight table of in-progress solves, and a
:class:`~repro.runtime.Supervisor` with a bounded worker pool.  A
request travels::

    handle(request)
      └─ fingerprint  → FingerprintMemo: a cheap exact spec key,
                        request_fingerprint once per distinct spec
      └─ cache?   → serve ("memory" / "store")          serve.hits
                    (the store's index, or an LRU without a store)
      └─ inflight?→ await the one running solve         serve.coalesced
      └─ admit    → bounded queue or shed               serve.shed/queued
      └─ solve    → worker pool, deadline + retries     serve.solves
                    (warm-start context active)
         └─ breaker open / budget gone / solve dead
            → certified degraded fallback               serve.degraded
      └─ decode   → a fresh payload, once per solve     span serve.decode
      └─ reply    → dataclasses.replace(cached result, metrics={})

A cache hit therefore costs a memo lookup, a cache lookup and one small
object copy: the cache holds each plan once, as its decoded
:class:`~repro.api.PlanResult` — decoded when the store loads it or
when its solve returns — and coalesced waiters share the solver's
decoded result.  A wire payload is encoded only when the store writes a
record or ``repro serve --emit-plans`` prints one.  Each reply gets its
own top-level result, so a caller may rebind its fields or fill its
``metrics``; the ``pattern`` and ``certificate`` it points to are shared
with the cache and every other reply of that plan, and are read-only.

Every non-degraded path returns the plan through the same deterministic
:meth:`repro.api.PlanResult.to_json` payload, so cached, coalesced and
fresh responses are bit-identical to a direct cold
:func:`repro.api.plan` call (``tests/test_serve.py`` asserts this).
Degraded responses are explicitly marked (``served_from="degraded"``,
plan ``status="degraded"``), certified, and never written to the
primary cache.

Every solve runs through the :class:`repro.runtime.Supervisor` the
sweep shares (one attempt loop, one worker-death rule; see its
docstring), under a per-request :func:`~repro.runtime.deadline`, with
retry jitter from the service's seeded RNG.  Overload behaviour
(admission control, circuit breakers, degraded-mode planning) is
configured with a :class:`~repro.serve.resilience.ResilienceConfig`
and is off by default.  The fault-injection sites ``serve_solve``
(service side, keyed ``algorithm:family:fingerprint``) and
``serve_worker`` (inside the worker, keyed by fingerprint) make
kill-and-restart scenarios deterministic in tests;
``repro.testing.ChaosSchedule`` composes them into reproducible soak
scenarios.
"""

from __future__ import annotations

import asyncio
import math
import os
import random
import time
from collections import deque
from dataclasses import dataclass, field, fields, replace
from functools import partial
from pathlib import Path
from typing import Any, Callable, Mapping

from .. import obs
from ..algorithms.madpipe_dp import Discretization
from ..core.chain import Chain
from ..core.platform import Platform
from ..runtime import BACKOFF_CAP_S, Supervisor, run_attempt
from ..testing import faults
from ..warmstart import LRU, chain_fingerprint, request_fingerprint
from .resilience import (
    AdmissionQueue,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    ResilienceConfig,
    priority_rank,
    solve_degraded,
)
from .store import PlanCache, PlanStore

__all__ = ["PlanRequest", "PlanService", "ServeReply"]

#: Request latencies :meth:`PlanService.stats` takes percentiles over
#: (the most recent ones).
LATENCY_WINDOW = 4096

#: Distinct request specs a :class:`FingerprintMemo` remembers.
FINGERPRINT_MEMO_ENTRIES = 4096

_SCALARS = (str, int, bool, type(None))
_GRID_FIELDS = tuple(f.name for f in fields(Discretization))


def _exact(value) -> tuple:
    """A hashable key of ``value`` by exact type and value.

    Two keys are equal only if :func:`~repro.warmstart.canonical_value`
    maps the values alike: ``True`` and ``1`` (and ``4`` and ``4.0``)
    differ by type, floats compare by their hex, so ``0.0`` and ``-0.0``
    stay apart and every NaN is one key.  Plain scalars and
    :class:`~repro.algorithms.madpipe_dp.Discretization` grids have one;
    anything else raises ``TypeError``.
    """
    kind = type(value)
    if kind is float:
        return (kind, value.hex())
    if kind in _SCALARS:
        return (kind, value)
    if kind is Discretization:
        return (kind, *(_exact(getattr(value, name)) for name in _GRID_FIELDS))
    raise TypeError(f"no exact key for {kind.__name__}")


class FingerprintMemo:
    """Request fingerprints, computed once per distinct request spec.

    A bounded LRU over :func:`~repro.warmstart.request_fingerprint`,
    keyed by a spec key far cheaper to build than the fingerprint:
    :func:`~repro.warmstart.chain_fingerprint` (cached on the chain),
    the platform's fields, the algorithm and the options, each by exact
    type and value (see :func:`_exact`).  Equal keys imply equal
    fingerprints, so the memo never answers for a spec the full
    fingerprint would tell apart; a spec with an option value that has
    no exact key (a list, an array, a mapping, …) is fingerprinted in
    full on every call.
    """

    def __init__(self):
        self._lru = LRU(FINGERPRINT_MEMO_ENTRIES)

    def __call__(self, chain: Chain, platform: Platform, algorithm: str,
                 opts: Mapping[str, Any]) -> str:
        try:
            key = (
                chain_fingerprint(chain),
                _exact(platform.n_procs), _exact(platform.memory),
                _exact(platform.bandwidth), _exact(algorithm),
                tuple(sorted((_exact(k), _exact(v)) for k, v in opts.items())),
            )
        except TypeError:
            return request_fingerprint(chain, platform, algorithm, opts)
        fp = self._lru.hit(key)
        if fp is None:
            fp = request_fingerprint(chain, platform, algorithm, opts)
            self._lru.put(key, fp)
        return fp

    def __len__(self) -> int:
        return len(self._lru)


@dataclass(frozen=True)
class PlanRequest:
    """One planning query: (chain, platform, algorithm, options).

    ``priority`` (class name from :data:`~repro.serve.resilience.
    PRIORITIES` or an int rank, lower = more important) and
    ``deadline_s`` (per-request wall-clock budget, overriding the
    service's ``deadline_budget_s``) steer admission and degradation
    only — they are *not* part of the request fingerprint, so the same
    plan is shared across priorities.
    """

    chain: Chain
    platform: Platform
    algorithm: str = "madpipe"
    opts: Mapping[str, Any] = field(default_factory=dict)
    priority: "str | int" = "interactive"
    deadline_s: float | None = None

    def fingerprint(self) -> str:
        """Canonical request identity (cached after the first call)."""
        fp = self.__dict__.get("_fingerprint")
        if fp is None:
            fp = request_fingerprint(
                self.chain, self.platform, self.algorithm, self.opts
            )
            object.__setattr__(self, "_fingerprint", fp)
        return fp


@dataclass
class ServeReply:
    """One answered request: the plan plus how it was served.

    ``served_from`` is ``"solve"`` (fresh), ``"store"`` (the first hit
    on a plan loaded from the store), ``"memory"`` (any other cache
    hit), ``"coalesced"`` (shared another request's solve) or
    ``"degraded"`` (the certified contiguous fallback answered because
    the full solve was short-circuited or failed).
    """

    result: Any  # repro.api.PlanResult
    fingerprint: str
    served_from: str
    latency_s: float

    @property
    def cached(self) -> bool:
        return self.served_from in ("memory", "store")

    @property
    def degraded(self) -> bool:
        return self.served_from == "degraded"


def _solve_in_worker(payload: tuple) -> tuple[dict, dict, list]:
    """Worker entry point (module-level picklable): solve the request of
    :meth:`PlanService._payload` once through
    :func:`repro.runtime.run_attempt` (fault site ``serve_worker``, keyed
    by fingerprint), shipping back ``(plan payload, counter snapshot,
    spans)``."""
    (chain, platform, algorithm, opts, timeout, warm, fingerprint,
     faults_env) = payload
    from ..api import plan  # deferred: repro.api imports this package

    # long-lived pool workers were spawned with the fault plan of *that*
    # moment; sync to the service's current plan so a chaos phase
    # installed mid-run reaches them deterministically (counter files in
    # the shared state dir keep cross-process counts exact)
    if faults_env:
        os.environ[faults.ENV_VAR] = faults_env
    else:
        os.environ.pop(faults.ENV_VAR, None)
    return run_attempt(
        lambda: plan(chain, platform, algorithm=algorithm, **opts).to_json(),
        spec=(chain.name, platform.n_procs, platform.memory, platform.bandwidth, algorithm),
        timeout=timeout, warm=warm, site="serve_worker", key=fingerprint,
    )


def _decode(payload: dict):
    """Decode a freshly solved payload (span ``serve.decode``); plans
    loaded from the store are decoded by :class:`PlanStore`, unspanned."""
    from ..api import PlanResult  # deferred: repro.api imports this package

    with obs.span("serve.decode"):
        return PlanResult.from_json(payload)


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample (0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


class PlanService:
    """A long-lived planning service over :func:`repro.api.plan`.

    Construct via :func:`repro.api.serve` (the pinned facade, which is
    this class) or directly; drive with :meth:`handle` / :meth:`submit`
    from asyncio code, and :meth:`close` when done.  All coordination
    state lives on the event loop — :meth:`handle` must always be awaited
    from the same running loop (the normal asyncio discipline)::

        service = api.serve(store="plans.jsonl")
        result = await service.submit(chain, platform, algorithm="madpipe")
        print(service.stats()["counters"]["serve.hits"])
        await service.close()

    The service answers requests through a fingerprinted cache that
    holds each plan once, decoded: the persistent JSONL ``store``'s
    index, or without a store an in-process LRU of ``memory_entries``
    plans (degraded answers get an LRU of that size too), and coalesces
    identical concurrent requests into one solve.  Served plans are
    bit-identical — in the :meth:`repro.api.PlanResult.to_json` sense —
    to direct cold :func:`repro.api.plan` calls.  CLI equivalent:
    ``repro serve``.

    ``max_workers`` bounds the solver pool: ``N >= 1`` dispatches cache
    misses to ``N`` worker processes (each with its own warm-start
    database, like sweep workers); ``0`` solves on the event loop's
    default thread pool, with a watchdog thread for the SIGALRM
    deadline.  ``instance_timeout``, ``max_retries``,
    ``retry_backoff_s``, ``backoff_cap_s`` and ``max_pool_restarts``
    configure its :class:`~repro.runtime.Supervisor`.  ``seed`` feeds
    the one :class:`random.Random` behind retry jitter and breaker probe
    scheduling, so fault-injected replays are bit-reproducible;
    ``clock`` (monotonic seconds) is injectable for the same reason.
    ``resilience`` configures admission control, circuit breakers and
    degraded-mode planning (all off by default).

    Observability: ``serve.*`` counters accumulate on :attr:`registry`
    with the workers' solver counters: ``requests``, ``hits`` (+
    ``hits_memory``/``hits_store``), ``coalesced``, ``solves``,
    ``retries``, ``pool_restarts``, ``pool_exhausted``, ``errors``, and
    under resilience ``shed``/``queued``/``queue_hwm``,
    ``breaker_trips``/``breaker_probes``/``breaker_closes``/
    ``breaker_short_circuits``, ``deadline_exhausted``, ``degraded`` (+
    ``degraded_solves``/``degraded_hits``).  A request records a
    ``serve.request`` span when a trace is installed, with a
    ``serve.decode`` child when it decoded a fresh solve (never on a
    hit).  :meth:`stats` adds queue depth and p50/p95/max latency (queue
    wait included) over the last :data:`LATENCY_WINDOW` requests.
    """

    def __init__(
        self,
        *,
        store: "PlanStore | str | Path | None" = None,
        memory_entries: int = 1024,
        max_workers: int = 1,
        instance_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.5,
        backoff_cap_s: float = BACKOFF_CAP_S,
        max_pool_restarts: int = 8,
        warm_start: bool = True,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
        resilience: ResilienceConfig | None = None,
    ):
        from ..api import plan_options  # deferred: repro.api imports this package

        self._plan_options = plan_options
        self.cache = PlanCache(memory_entries, store)
        self.warm_start = warm_start
        self.registry = obs.MetricsRegistry()
        self.resilience = resilience if resilience is not None else ResilienceConfig()
        self._rng = random.Random(seed)
        self._clock = clock
        self._admission: AdmissionQueue | None = None
        if self.resilience.admission_enabled:
            self._admission = AdmissionQueue(
                self.resilience.max_concurrency,
                self.resilience.max_pending,
                retry_after_s=self.resilience.retry_after_s,
                registry=self.registry,
            )
        self._breaker: CircuitBreaker | None = None
        if self.resilience.breaker_enabled:
            self._breaker = CircuitBreaker(
                self.resilience.breaker_threshold,
                self.resilience.breaker_cooldown_s,
                rng=self._rng,
                clock=clock,
                registry=self.registry,
            )
        # degraded answers live in their own LRU, never the primary
        # cache: a recovered service re-solves to full quality
        self._degraded: LRU = LRU(memory_entries)
        self._fingerprints = FingerprintMemo()
        self._inflight: dict[str, asyncio.Future] = {}
        self._supervisor = Supervisor(
            max_workers, in_thread=True, timeout=instance_timeout,
            max_retries=max_retries, backoff_s=retry_backoff_s, rng=self._rng,
            backoff_cap_s=backoff_cap_s, max_pool_restarts=max_pool_restarts,
            clock=clock, count=lambda name: self.registry.inc(f"serve.{name}"),
        )
        self._latencies: deque[float] = deque(maxlen=LATENCY_WINDOW)
        self._closed = False

    # -- request construction ---------------------------------------------

    def request(
        self,
        chain: Chain,
        platform: Platform,
        *,
        algorithm: str = "madpipe",
        priority: "str | int" = "interactive",
        deadline_s: float | None = None,
        **opts: Any,
    ) -> PlanRequest:
        """Build a :class:`PlanRequest` with :func:`repro.api.plan`'s
        keyword conventions.

        The algorithm, the option names and the schedule family are
        checked by :func:`repro.api.plan_options` first: an unknown
        algorithm or family raises ``ValueError`` and an option the
        algorithm does not take raises ``TypeError``, before
        fingerprinting — so a bad request is never solved, retried,
        charged to a breaker or answered degraded.

        ``schedule_family="1f1b"`` (the default family) is stripped from
        the fingerprinted options so that pre-family stores keep serving:
        a default-family request is the *same* request it was before
        schedule families existed.  Non-default families stay in the
        options, so a cached 1F1B plan is never served for a zero-bubble
        query (and vice versa).  The request is fingerprinted here,
        through the service's :class:`FingerprintMemo`.
        """
        opts = self._plan_options(algorithm, opts)  # a copy, checked
        priority_rank(priority)  # validate eagerly, before the queue sees it
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError("deadline_s must be > 0")
        if opts.get("schedule_family") == "1f1b":
            del opts["schedule_family"]
        request = PlanRequest(chain, platform, algorithm, opts,
                              priority=priority, deadline_s=deadline_s)
        fp = self._fingerprints(chain, platform, algorithm, opts)
        object.__setattr__(request, "_fingerprint", fp)
        return request

    # -- serving ------------------------------------------------------------

    async def submit(
        self,
        chain: "Chain | PlanRequest",
        platform: Platform | None = None,
        *,
        algorithm: str = "madpipe",
        priority: "str | int" = "interactive",
        deadline_s: float | None = None,
        **opts: Any,
    ):
        """Answer one request and return its :class:`repro.api.PlanResult`.

        Accepts either a ready :class:`PlanRequest` or the
        ``(chain, platform, algorithm=…, **opts)`` spelling of
        :func:`repro.api.plan`.
        """
        if isinstance(chain, PlanRequest):
            request = chain
        else:
            if platform is None:
                raise TypeError("submit(chain, platform, ...) needs a platform")
            request = self.request(chain, platform, algorithm=algorithm,
                                   priority=priority, deadline_s=deadline_s,
                                   **opts)
        reply = await self.handle(request)
        return reply.result

    async def handle(self, request: PlanRequest) -> ServeReply:
        """Answer one request, reporting how it was served.

        The reply's :class:`~repro.api.PlanResult` is the caller's own
        (empty ``metrics``), but its ``pattern`` and ``certificate`` are
        shared with the cache: treat them as read-only.
        """
        if self._closed:
            raise RuntimeError("PlanService is closed")
        t0 = time.perf_counter()
        t0c = self._clock()  # deadline budgets run on the injectable clock
        fingerprint = request.fingerprint()
        self.registry.inc("serve.requests")
        with obs.span(
            "serve.request",
            algorithm=request.algorithm,
            fingerprint=fingerprint[:12],
        ) as sp:
            served_from, result = await self._resolve(request, fingerprint, t0c)
            sp.set(served_from=served_from)
        latency = time.perf_counter() - t0
        self._latencies.append(latency)
        return ServeReply(
            result=replace(result, metrics={}),
            fingerprint=fingerprint,
            served_from=served_from,
            latency_s=latency,
        )

    async def _resolve(
        self, request: PlanRequest, fingerprint: str, t0c: float
    ) -> tuple[str, Any]:
        hit = self.cache.get(fingerprint)
        if hit is not None:
            tier, result = hit
            self.registry.inc("serve.hits")
            self.registry.inc(f"serve.hits_{tier}")
            return tier, result
        shared = self._inflight.get(fingerprint)
        if shared is not None:
            # single flight: identical concurrent queries share one solve
            self.registry.inc("serve.coalesced")
            kind, result = await asyncio.shield(shared)
            if kind == "degraded":
                self.registry.inc("serve.degraded")
                return "degraded", result
            return "coalesced", result
        loop = asyncio.get_running_loop()
        flight: asyncio.Future = loop.create_future()
        self._inflight[fingerprint] = flight
        try:
            kind, result = await self._admit_and_solve(request, fingerprint, t0c)
        except BaseException as exc:
            if not flight.done():
                flight.set_exception(exc)
                flight.exception()  # mark retrieved: waiters re-raise their own copy
            raise
        else:
            if not flight.done():
                flight.set_result((kind, result))
            if kind == "degraded":
                self._degraded.put(fingerprint, result)
                self.registry.inc("serve.degraded")
            else:
                self.cache.put(fingerprint, result)
                self.registry.inc("serve.solves")
            return kind, result
        finally:
            self._inflight.pop(fingerprint, None)

    async def _admit_and_solve(
        self, request: PlanRequest, fingerprint: str, t0c: float
    ) -> tuple[str, Any]:
        """Hold an admission slot (when enabled) around the guarded solve."""
        if self._admission is None:
            return await self._solve_guarded(request, fingerprint, t0c)
        await self._admission.acquire(priority_rank(request.priority))
        try:
            return await self._solve_guarded(request, fingerprint, t0c)
        finally:
            self._admission.release()

    def _breaker_key(self, request: PlanRequest) -> tuple[str, str]:
        family = request.opts.get("schedule_family", "1f1b")
        return (request.algorithm, family)

    async def _solve_guarded(
        self, request: PlanRequest, fingerprint: str, t0c: float
    ) -> tuple[str, Any]:
        """One guarded solve: budget check → breaker gate → solve,
        degrading (or re-raising) on short-circuit or terminal failure."""
        cfg = self.resilience
        budget = request.deadline_s if request.deadline_s is not None \
            else cfg.deadline_budget_s
        deadline_at = None if budget is None else t0c + budget
        if deadline_at is not None and self._clock() >= deadline_at:
            self.registry.inc("serve.deadline_exhausted")
            return await self._degrade(request, fingerprint, DeadlineExceededError(
                f"deadline budget {budget:g}s exhausted before the solve "
                f"could start (request {fingerprint[:12]})"
            ))
        key = self._breaker_key(request)
        if self._breaker is not None and self._breaker.allow(key) == "open":
            return await self._degrade(request, fingerprint, CircuitOpenError(
                f"circuit open for {key[0]}:{key[1]} "
                f"(request {fingerprint[:12]})"
            ))
        try:
            payload = await self._solve(request, fingerprint, deadline_at)
        except Exception as exc:
            if self._breaker is not None:
                self._breaker.record_failure(key)
            return await self._degrade(request, fingerprint, exc)
        else:
            if self._breaker is not None:
                self._breaker.record_success(key)
            return "solve", _decode(payload)

    async def _degrade(
        self, request: PlanRequest, fingerprint: str, cause: BaseException
    ) -> tuple[str, Any]:
        """Answer with the certified contiguous fallback plan — or, with
        degraded-mode planning disabled, surface ``cause`` unchanged."""
        cfg = self.resilience
        if not cfg.degraded_fallback:
            raise cause
        hit = self._degraded.hit(fingerprint)
        if hit is not None:
            self.registry.inc("serve.degraded_hits")
            return "degraded", hit
        payload = self._payload(request, fingerprint, cfg.degraded_timeout_s)
        loop = asyncio.get_running_loop()
        try:
            # always in-process (thread pool): the fallback solve is the
            # cheap contiguous restriction, and the worker pool may be
            # exactly what is broken right now
            plan_json, counts, _ = await loop.run_in_executor(
                None, solve_degraded, payload
            )
        except Exception as exc:
            self.registry.inc("serve.errors")
            raise cause from exc
        self.registry.merge(counts)
        self.registry.inc("serve.degraded_solves")
        return "degraded", _decode(plan_json)

    async def _solve(self, request: PlanRequest, fingerprint: str,
                     deadline_at: float | None = None) -> dict:
        key = self._breaker_key(request)
        faults.fire("serve_solve", key=f"{key[0]}:{key[1]}:{fingerprint}")
        try:
            plan_json, counts, _ = await self._supervisor.run(
                lambda t: partial(_solve_in_worker, self._payload(request, fingerprint, t)),
                deadline_at=deadline_at, label=f"request {fingerprint[:12]}",
            )
        except Exception:
            self.registry.inc("serve.errors")
            raise
        self.registry.merge(counts)
        return plan_json

    def _payload(
        self, request: PlanRequest, fingerprint: str, timeout: float | None
    ) -> tuple:
        """The picklable argument of :func:`_solve_in_worker` and
        :func:`~repro.serve.resilience.solve_degraded`: the request's own
        ``Chain`` and ``Platform`` (pickled whole to a pool worker), its
        algorithm and options, the attempt's timeout, the warm-start
        switch, the fingerprint at index 6 (the key the ledger stitches a
        worker's spans on) and the caller's fault plan last."""
        return (request.chain, request.platform, request.algorithm,
                dict(request.opts), timeout, self.warm_start, fingerprint,
                os.environ.get(faults.ENV_VAR))

    # -- lifecycle / introspection -------------------------------------------

    def stats(self) -> dict:
        """Counters, queue depths and latency percentiles (JSON-ready)."""
        lat = sorted(self._latencies)
        return {
            "counters": self.registry.snapshot(),
            "cached_plans": len(self.cache),
            "degraded_plans": len(self._degraded),
            "inflight": len(self._inflight),
            "queue_depth": self._admission.depth if self._admission else 0,
            "queue_peak": self._supervisor.peak,
            "breakers": self._breaker.snapshot() if self._breaker else {},
            "latency_ms": {
                "count": len(lat),
                "p50": _percentile(lat, 0.50) * 1e3,
                "p95": _percentile(lat, 0.95) * 1e3,
                "max": (lat[-1] if lat else 0.0) * 1e3,
            },
        }

    async def close(self) -> None:
        """Flush the persistent store and shut the worker pool down.

        Idempotent; afterwards :meth:`handle` raises.  In-flight solves
        are *not* awaited — callers still holding their coroutines keep
        them — but the store flush persists everything already solved.
        """
        self._closed = True
        self.cache.flush()
        self._supervisor.close()

    async def __aenter__(self) -> "PlanService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()
