"""Overload safety for the plan service: admission, breakers, degradation.

The supervisor survives *isolated* faults (a crashed worker is retried,
a killed service resumes from its store); this module makes the service
survive *overload* and *correlated* failure, under one contract: **the
service keeps answering — correctly or explicitly degraded, never
wrongly or unboundedly late.**  Three rings:

* :class:`AdmissionQueue` — a bounded admission gate on the solve path.
  At most ``max_concurrency`` solves run at once; up to ``max_pending``
  more wait in a priority queue (``"interactive"`` outranks ``"batch"``);
  beyond that, load is *shed* with a typed :class:`OverloadedError`
  carrying a retry-after hint, instead of queueing forever.  Queue wait
  happens inside :meth:`PlanService.handle`'s latency measurement, so
  percentiles reflect what callers actually experienced.

* :class:`CircuitBreaker` — per ``(algorithm, schedule_family)``
  closed → open → half-open breakers.  ``threshold`` consecutive
  terminal solve failures (timeouts, crashes) trip the breaker; while
  open, further solves for that key are short-circuited (no doomed
  dispatch, no worker churn).  After a seeded-jittered cooldown on the
  injectable clock, exactly one probe request is let through; success
  closes the breaker, failure re-opens it with a fresh jitter draw.
  The jitter comes from the service's seeded RNG, so fault-injected
  replays reproduce the exact probe schedule bit for bit.

* degraded-mode planning (:func:`solve_degraded`) — when the deadline
  budget is exhausted, the breaker is open, or the real solve failed
  terminally with ``degraded_fallback`` enabled, the service answers
  with the *certified contiguous 1F1B\\* fallback*: MadPipe's contiguous
  restriction (``allow_special=False``, the cheap plan a quarantine
  falls back to), run through the full certification gate.
  The reply is marked ``served_from="degraded"`` with the real
  certificate attached; degraded plans are cached only in their own
  LRU, never the primary store, so a recovered service re-solves to
  full quality.

Everything here is deterministic by construction: admission decisions
depend only on arrival order, breaker transitions only on the injected
clock + seeded RNG, and the degraded plan is a normal certified
:func:`repro.api.plan` call.  ``tests/test_chaos_soak.py`` exploits
that to run byte-reproducible overload scenarios.
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from .. import obs
from ..runtime import DeadlineExceededError, PoolExhaustedError, run_attempt

__all__ = [
    "PRIORITIES",
    "AdmissionQueue",
    "CircuitBreaker",
    "CircuitOpenError",
    "DeadlineExceededError",
    "OverloadedError",
    "PoolExhaustedError",
    "ResilienceConfig",
    "degraded_opts",
    "priority_rank",
    "solve_degraded",
]

#: Priority classes, best first.  Lower rank wins a queue slot; when the
#: queue is full an arriving higher-priority request evicts (sheds) the
#: worst queued one instead of being shed itself.
PRIORITIES = {"interactive": 0, "batch": 1}


class OverloadedError(RuntimeError):
    """The admission queue is full: the request was shed, not queued.

    ``retry_after_s`` is the service's hint for when to retry; the
    ``repro serve`` loop forwards it in the structured
    ``{"ok": false, "stage": "admission"}`` reply.
    """

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = retry_after_s


class CircuitOpenError(RuntimeError):
    """A circuit breaker short-circuited the solve (and degraded-mode
    fallback is disabled, so there was nothing to answer with)."""


def priority_rank(priority: "str | int") -> int:
    """Numeric rank of a priority class (lower = more important)."""
    if isinstance(priority, bool):
        raise ValueError(f"priority must be a class name or int, not {priority!r}")
    if isinstance(priority, int):
        return priority
    try:
        return PRIORITIES[priority]
    except KeyError:
        raise ValueError(
            f"unknown priority {priority!r}; expected one of "
            f"{sorted(PRIORITIES)} or an int rank"
        ) from None


@dataclass(frozen=True)
class ResilienceConfig:
    """Knobs of the resilience layer.  The default configuration disables
    every mechanism, leaving the plain service exactly as it is.

    ``max_concurrency`` enables admission control: at most that many
    solves run concurrently, ``max_pending`` more wait, the rest shed
    with :class:`OverloadedError` (``retry_after_s`` hint).
    ``breaker_threshold`` enables per-(algorithm, family) circuit
    breakers tripping after that many consecutive terminal failures,
    cooling down ``breaker_cooldown_s`` (seed-jittered) before a probe.
    ``deadline_budget_s`` is the default wall-clock budget per request
    (queue wait included); a request's own ``deadline_s`` overrides it.
    ``degraded_fallback`` turns budget exhaustion, open breakers and
    terminal solve failures into certified degraded answers instead of
    errors; ``degraded_timeout_s`` bounds the fallback solve itself.
    """

    max_concurrency: int | None = None
    max_pending: int = 16
    deadline_budget_s: float | None = None
    degraded_fallback: bool = False
    degraded_timeout_s: float | None = 30.0
    breaker_threshold: int | None = None
    breaker_cooldown_s: float = 30.0
    retry_after_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_concurrency is not None and self.max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1 (or None to disable)")
        if self.max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if self.breaker_threshold is not None and self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1 (or None to disable)")
        if self.breaker_cooldown_s <= 0:
            raise ValueError("breaker_cooldown_s must be > 0")
        if self.retry_after_s <= 0:
            raise ValueError("retry_after_s must be > 0")

    @property
    def admission_enabled(self) -> bool:
        return self.max_concurrency is not None

    @property
    def breaker_enabled(self) -> bool:
        return self.breaker_threshold is not None


# --------------------------------------------------------------- admission


class AdmissionQueue:
    """Bounded, priority-aware admission for the solve path.

    :meth:`acquire` grants a slot immediately while fewer than
    ``max_concurrency`` are held, queues up to ``max_pending`` waiters
    (served best-priority-first, FIFO within a class), and sheds beyond
    that: the arriving request raises :class:`OverloadedError` — unless
    it outranks the worst queued waiter, in which case *that* waiter is
    shed and the arrival takes its queue slot.  :meth:`release` hands
    the freed slot to the best waiter.

    All coordination state lives on the event loop (the service's
    single-threaded discipline), so admission decisions are a pure
    function of arrival order — deterministic under replay.

    Counters (on ``registry`` when given): ``serve.shed`` (one per shed
    request), ``serve.queued`` (total requests that waited) and
    ``serve.queue_hwm`` (high-water queue depth, kept current by delta
    increments).
    """

    def __init__(
        self,
        max_concurrency: int,
        max_pending: int,
        *,
        retry_after_s: float = 1.0,
        registry: "obs.MetricsRegistry | None" = None,
    ):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be >= 1")
        if max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        self.max_concurrency = max_concurrency
        self.max_pending = max_pending
        self.retry_after_s = retry_after_s
        self.registry = registry
        self.active = 0
        self.hwm = 0
        self._seq = itertools.count()
        # heap of (rank, seq, future): best priority first, FIFO within
        self._waiters: list[tuple[int, int, asyncio.Future]] = []

    def _inc(self, name: str, value: float = 1) -> None:
        if self.registry is not None:
            self.registry.inc(name, value)

    @property
    def depth(self) -> int:
        """Live queue depth (waiters, not running solves)."""
        return len(self._waiters)

    def _shed_error(self) -> OverloadedError:
        self._inc("serve.shed")
        return OverloadedError(
            f"admission queue full ({self.active} solving, "
            f"{len(self._waiters)} queued); retry in {self.retry_after_s:g}s",
            retry_after_s=self.retry_after_s,
        )

    async def acquire(self, rank: int = 0) -> None:
        """Wait for a solve slot; raises :class:`OverloadedError` if shed."""
        if self.active < self.max_concurrency and not self._waiters:
            self.active += 1
            return
        if len(self._waiters) >= self.max_pending:
            worst = max(self._waiters, key=lambda w: (w[0], w[1]), default=None)
            if worst is None or rank >= worst[0]:
                raise self._shed_error()
            # the arrival outranks the worst queued waiter: shed that
            # waiter instead and take its queue slot
            self._waiters.remove(worst)
            heapq.heapify(self._waiters)
            if not worst[2].done():
                worst[2].set_exception(self._shed_error())
        loop = asyncio.get_running_loop()
        entry = (rank, next(self._seq), loop.create_future())
        heapq.heappush(self._waiters, entry)
        self._inc("serve.queued")
        if len(self._waiters) > self.hwm:
            self._inc("serve.queue_hwm", len(self._waiters) - self.hwm)
            self.hwm = len(self._waiters)
        try:
            await entry[2]
        except asyncio.CancelledError:
            if entry in self._waiters:
                self._waiters.remove(entry)
                heapq.heapify(self._waiters)
            elif entry[2].done() and not entry[2].cancelled() \
                    and entry[2].exception() is None:
                # the slot was granted concurrently with the cancel:
                # give it back so it is not leaked
                self.release()
            raise

    def release(self) -> None:
        """Free one slot, handing it to the best queued waiter if any."""
        while self._waiters:
            _, _, fut = heapq.heappop(self._waiters)
            if fut.done():  # already shed or cancelled
                continue
            fut.set_result(None)  # slot transfers: `active` is unchanged
            return
        self.active -= 1


# ------------------------------------------------------------- breakers


@dataclass
class _BreakerState:
    state: str = "closed"  # "closed" | "open" | "half_open"
    consecutive_failures: int = 0
    probe_at: float = 0.0
    probing: bool = False


class CircuitBreaker:
    """Per-key circuit breakers: closed → open → half-open.

    :meth:`allow` answers ``"closed"`` (go ahead), ``"probe"`` (the one
    half-open trial) or ``"open"`` (short-circuit — do not dispatch).
    Call :meth:`record_failure` on every *terminal* solve failure and
    :meth:`record_success` on every success; ``threshold`` consecutive
    failures open the breaker.  Re-close requires a successful probe
    after the cooldown, which is jittered from the seeded ``rng``
    (uniform in ``[0.5, 1.5) × cooldown_s``) so replays with the same
    seed and clock reproduce the probe schedule exactly.
    """

    def __init__(
        self,
        threshold: int,
        cooldown_s: float,
        *,
        rng,
        clock: Callable[[], float] = time.monotonic,
        registry: "obs.MetricsRegistry | None" = None,
    ):
        if threshold < 1:
            raise ValueError("threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be > 0")
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._rng = rng
        self._clock = clock
        self.registry = registry
        self._keys: dict[Any, _BreakerState] = {}

    def _inc(self, name: str) -> None:
        if self.registry is not None:
            self.registry.inc(name)

    def _state(self, key) -> _BreakerState:
        state = self._keys.get(key)
        if state is None:
            state = self._keys[key] = _BreakerState()
        return state

    def state(self, key) -> str:
        return self._state(key).state

    def allow(self, key) -> str:
        """Gate one solve attempt for ``key``."""
        b = self._state(key)
        if b.state == "closed":
            return "closed"
        if b.state == "open" and self._clock() >= b.probe_at:
            b.state = "half_open"
        if b.state == "half_open" and not b.probing:
            b.probing = True
            self._inc("serve.breaker_probes")
            return "probe"
        self._inc("serve.breaker_short_circuits")
        return "open"

    def record_success(self, key) -> None:
        b = self._state(key)
        if b.state != "closed":
            self._inc("serve.breaker_closes")
        b.state = "closed"
        b.consecutive_failures = 0
        b.probing = False

    def record_failure(self, key) -> None:
        b = self._state(key)
        b.consecutive_failures += 1
        if b.state == "half_open":
            # the probe failed: back to open with a fresh jitter draw
            self._open(b)
        elif b.state == "closed" and b.consecutive_failures >= self.threshold:
            self._inc("serve.breaker_trips")
            self._open(b)

    def _open(self, b: _BreakerState) -> None:
        b.state = "open"
        b.probing = False
        b.probe_at = self._clock() + self.cooldown_s * (0.5 + self._rng.random())

    def snapshot(self) -> dict[str, str]:
        """``"algorithm:family" → state`` for :meth:`PlanService.stats`."""
        return {
            ":".join(str(part) for part in key): b.state
            for key, b in sorted(self._keys.items(), key=lambda kv: str(kv[0]))
        }


# ------------------------------------------------------- degraded planning


#: The only ``plan()`` options a degraded solve keeps.  Everything else
#: (``ilp_time_limit``, algorithm-specific knobs of a non-MadPipe
#: request) either does not apply to the contiguous fallback or would
#: weaken its guarantees.
_DEGRADED_KEPT = ("iterations", "grid", "memory_headroom", "schedule_family")


def degraded_opts(opts: Mapping[str, Any]) -> dict[str, Any]:
    """Options of the cheap certified fallback solve for a request.

    Keeps the family/grid/headroom context of the original request and
    forces MadPipe's contiguous restriction: ``allow_special=False``
    collapses the DP's special-processor dimensions (a small fraction of
    the states, though not of the time, of a full phase 1) and yields a
    contiguous allocation scheduled by the family's exact
    1F1B\\*-style construction — no MILP anywhere — which then passes the
    ordinary certification gate.  This is the same certified fallback
    plan a quarantined MadPipe pattern degrades to.
    """
    kept = {k: v for k, v in opts.items() if k in _DEGRADED_KEPT}
    kept["allow_special"] = False
    return kept


def solve_degraded(payload: tuple) -> tuple[dict, dict, list]:
    """Degraded-solve entry point (thread or process; takes the payload
    of ``service._solve_in_worker``): the certified contiguous 1F1B\\*
    fallback plan for the request, solved through
    :func:`repro.runtime.run_attempt` with no fault site, with ``status``
    escalated to ``"degraded"`` so no client can mistake it for the
    full-quality answer.  Returns ``(plan payload, counts, spans)``.
    """
    chain, platform, _algorithm, opts, timeout, warm, *_ = payload
    from ..api import plan  # deferred: repro.api imports this package

    # the degrade target is always the MadPipe contiguous restriction,
    # whatever algorithm the request named: it is the one
    # certified-cheap answer the planner owns
    out, counts, spans = run_attempt(
        lambda: plan(chain, platform, algorithm="madpipe",
                     **degraded_opts(opts)).to_json(),
        spec=(chain.name, platform.n_procs, platform.memory, platform.bandwidth,
              "degraded"), timeout=timeout, warm=warm,
    )
    if out["status"] == "ok":
        out["status"] = "degraded"
    return out, counts, spans
