"""Deterministic chaos scheduling for the plan service.

A :class:`ChaosSchedule` is a seeded, declarative soak scenario: an
ordered list of :class:`ChaosPhase` steps, each naming the requests to
replay, the :class:`~repro.testing.faults.Fault` rules active while
they run, how they are issued (sequentially or as a concurrent burst)
and how far the service's injected clock advances first.  The schedule
*describes* the storm; a driver (``tests/test_chaos_soak.py``)
executes it against a real :class:`~repro.serve.PlanService` and
checks the resilience invariants:

1. every non-degraded reply is bit-identical to a cold
   :func:`repro.api.plan` answer for the same request;
2. every degraded reply carries a valid certificate;
3. shed + served + degraded accounts for every request issued;
4. after the faults clear, the service recovers (a fresh full-quality
   solve) within a bounded number of requests.

Everything that could make two runs differ is pinned: fault rules fire
on deterministic call counts (:mod:`repro.testing.faults`), the
service's retry jitter and breaker probes draw from its seeded RNG,
the breaker cooldown runs on the schedule's fake clock, and phase
composition below derives from one ``random.Random(seed)``.  Same seed
⇒ same sheds, same trips, same degraded answers, byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from .faults import Fault

__all__ = ["ChaosPhase", "ChaosRequest", "ChaosSchedule"]


@dataclass(frozen=True)
class ChaosRequest:
    """One request the driver should issue: which spec from its pool,
    with what schedule family, priority and deadline budget.

    ``family`` is part of the request (and the breaker key), so a phase
    can storm one ``(algorithm, schedule_family)`` breaker while another
    phase exercises a different, still-closed one.
    """

    spec: int  # index into the driver's request-spec pool
    family: str = "1f1b"
    priority: str = "interactive"
    deadline_s: float | None = None


@dataclass(frozen=True)
class ChaosPhase:
    """One step of a soak scenario.

    ``faults`` are installed for the phase's whole duration (replacing
    the previous phase's rules; an empty tuple clears injection).
    ``burst=True`` issues all requests concurrently — exercising
    coalescing and admission shedding — while ``False`` replays them
    sequentially, which keeps breaker transitions exactly ordered.
    ``clock_advance_s`` moves the driver's fake clock *before* the
    first request, e.g. past a breaker cooldown.  ``restart_service``
    closes and rebuilds the service first (same store), proving
    recovery from persisted — possibly torn — state.
    """

    name: str
    requests: tuple[ChaosRequest, ...]
    faults: tuple[Fault, ...] = ()
    burst: bool = False
    clock_advance_s: float = 0.0
    restart_service: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("phase needs a name")
        if self.clock_advance_s < 0:
            raise ValueError("clock_advance_s must be >= 0")


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded sequence of :class:`ChaosPhase` steps."""

    phases: tuple[ChaosPhase, ...]
    seed: int = 0

    def __iter__(self) -> Iterator[ChaosPhase]:
        return iter(self.phases)

    def __len__(self) -> int:
        return len(self.phases)

    @property
    def total_requests(self) -> int:
        return sum(len(p.requests) for p in self.phases)

    @property
    def pool_size(self) -> int:
        """Distinct request specs the driver's pool must provide."""
        return 1 + max(
            (r.spec for p in self.phases for r in p.requests), default=-1
        )

    @classmethod
    def standard(
        cls,
        seed: int = 0,
        *,
        n_warm: int = 6,
        scale: int = 1,
        pool_kill: bool = False,
        breaker_cooldown_s: float = 60.0,
        store_path: "str | None" = None,
    ) -> "ChaosSchedule":
        """The canonical soak: warmup → overload burst → failure storm →
        latency spike → (optional) pool kill → torn store write →
        restart + recovery.

        ``n_warm`` specs are warmed into the cache first; later phases
        draw *fresh* spec indices (cached specs answer before admission,
        breakers or the store are ever touched, so every fault phase
        must miss the cache).  ``scale`` multiplies request counts
        (1 is the CI smoke size).  ``pool_kill`` adds a hard
        worker-death phase — only sound with ``max_workers >= 1``,
        since an ``exit`` fault in inline mode would kill the driver
        process itself.  ``breaker_cooldown_s`` must match the
        service's configured cooldown: the recovery phase advances the
        fake clock past its maximum jitter (1.5×) so the half-open
        probe is due.  ``store_path`` keys the flush-time truncation
        fault to the service's store file (omitting it skips the
        torn-write phase).

        The driver's expected service shape: admission
        ``max_concurrency=1, max_pending=2``, a breaker threshold of at
        most ``4 × scale`` (the storm length), degraded fallback on,
        and the schedule's fake clock installed.
        """
        if n_warm < 3:
            raise ValueError("need at least 3 warmup specs")
        if scale < 1:
            raise ValueError("scale must be >= 1")
        rng = random.Random(seed)
        counter = iter(range(n_warm, 10**9))

        def fresh(n: int, **kw) -> tuple[ChaosRequest, ...]:
            return tuple(ChaosRequest(spec=next(counter), **kw) for _ in range(n))

        def warmed(n: int, **kw) -> tuple[ChaosRequest, ...]:
            return tuple(
                ChaosRequest(spec=rng.randrange(n_warm), **kw) for _ in range(n)
            )

        phases: list[ChaosPhase] = []
        # 1. warmup: populate the cache, fault-free
        phases.append(ChaosPhase(
            name="warmup",
            requests=tuple(ChaosRequest(spec=i) for i in range(n_warm)),
        ))
        # 2. overload burst: more concurrent distinct solves than the
        # admission queue admits → deterministic shedding, and a batch
        # waiter evicted by a later interactive arrival; a duplicate of
        # the first (still-solving) spec rides along to exercise
        # coalescing under pressure
        burst = list(fresh(2 + 2 * scale, priority="batch"))
        burst.append(ChaosRequest(spec=burst[0].spec, priority="interactive"))
        burst += fresh(1, priority="interactive")
        phases.append(ChaosPhase(
            name="burst", requests=tuple(burst), burst=True,
        ))
        if pool_kill:
            # 3. hard worker deaths (while every breaker is still
            # closed, so the requests really dispatch): os._exit in the
            # worker → the service rebuilds the pool (BrokenProcessPool)
            # and retries until the kill budget is spent — the replies
            # must still be full-quality solves
            phases.append(ChaosPhase(
                name="pool_kill",
                requests=fresh(scale),
                faults=(Fault(site="serve_worker", action="exit",
                              times=scale, param=86),),
            ))
        # 4. failure storm: every madpipe/1f1b solve raises → the breaker
        # trips after `threshold` consecutive failures and later requests
        # short-circuit into degraded answers.  Sequential, so breaker
        # transitions happen in exact request order.
        phases.append(ChaosPhase(
            name="storm",
            requests=fresh(4 * scale),
            faults=(Fault(site="serve_solve", action="raise",
                          key="madpipe:1f1b", times=-1),),
        ))
        # 5. latency spike: worker-side sleeps overrun the per-request
        # deadline budget → timeouts burn the budget → degraded answers.
        # The zero_bubble family keeps these on their own (closed)
        # breaker key, so the degradation cause is genuinely the budget,
        # not the storm-opened 1f1b breaker.
        phases.append(ChaosPhase(
            name="spike",
            requests=fresh(2 * scale, family="zero_bubble", deadline_s=0.05),
            faults=(Fault(site="serve_worker", action="sleep",
                          times=-1, param=0.25),),
        ))
        # a clock jump past the breaker's maximum jittered cooldown
        # (1.5 × cooldown) makes the half-open probe due
        cooldown_over = 1.5 * breaker_cooldown_s + 1.0
        if store_path is not None:
            # 6. torn store write: the clock jump re-admits solves (the
            # first request is the breaker's half-open probe and must
            # close it), fresh solves append to the JSONL store, and the
            # first flush of the phase tears bytes off the tail — the
            # recovery phase's restart must quarantine the torn line and
            # keep serving the valid prefix
            phases.append(ChaosPhase(
                name="truncate",
                requests=fresh(2 * scale),
                faults=(Fault(site="cache_flush", action="truncate",
                              key=str(store_path), times=1, param=7),),
                clock_advance_s=cooldown_over,
            ))
        # 7. recovery: faults cleared (and, without a store phase, the
        # clock jump happens here instead); warmup replays check
        # bit-identity against cold solves, fresh specs force a
        # full-quality solve — the first one bounds the recovery time —
        # and a restart proves the torn store serves its valid prefix
        phases.append(ChaosPhase(
            name="recovery",
            requests=tuple(ChaosRequest(spec=i) for i in range(n_warm))
            + fresh(2 * scale) + warmed(2 * scale),
            clock_advance_s=cooldown_over,
            restart_service=store_path is not None,
        ))
        return cls(phases=tuple(phases), seed=seed)
