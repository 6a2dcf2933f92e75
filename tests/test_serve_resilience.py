"""Overload-safety tests for the plan service: admission control and
backpressure, circuit breakers, degraded-mode planning, deadline
budgets, the inline (non-main-thread) deadline watchdog and the seeded
chaos schedule.

The resilience contract extends the service's bit-identity promise:
under overload or correlated failure the service keeps answering —
full-quality answers stay bit-identical to a cold
:func:`repro.api.plan`, everything else is either *shed* with a typed
:class:`OverloadedError` or served *explicitly degraded* with a real
certificate.  Nothing here is timing-dependent: admission decisions
follow arrival order, breakers run on an injected fake clock, and the
degraded answer is a certified contiguous 1F1B* plan.
"""

from __future__ import annotations

import asyncio
import random
import threading
import time

import pytest

from repro import api, runtime, warmstart
from repro.algorithms import Discretization
from repro.core.platform import Platform
from repro.models import uniform_chain
from repro.runtime import InstanceTimeoutError
from repro.serve import (
    PRIORITIES,
    AdmissionQueue,
    CircuitBreaker,
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    PlanService,
    ResilienceConfig,
    priority_rank,
)
from repro.serve.resilience import degraded_opts
from repro.testing import ChaosSchedule, Fault, faults

MB = float(2**20)
PLAN_OPTS = dict(grid=Discretization.coarse(), iterations=4)


def toy(L: int = 4, **kw):
    defaults = dict(u_f=0.001, u_b=0.002, weights=4 * MB, activation=8 * MB,
                    name=f"toy{L}")
    defaults.update(kw)
    return uniform_chain(L, **defaults)


def run(coro):
    return asyncio.run(coro)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def plat() -> Platform:
    return Platform.of(2, 8.0, 12.0)


class FakeClock:
    """Injectable monotonic clock: advances only when told to."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


def make_service(tmp_path=None, *, clock=None, **kw) -> PlanService:
    kw.setdefault("max_workers", 0)
    if tmp_path is not None:
        kw.setdefault("store", tmp_path / "plans.jsonl")
    if clock is not None:
        kw["clock"] = clock.now
    return PlanService(**kw)


# ----------------------------------------------------------- priorities


class TestPriorities:
    def test_interactive_outranks_batch(self):
        assert priority_rank("interactive") < priority_rank("batch")
        assert set(PRIORITIES) == {"interactive", "batch"}

    def test_int_rank_passthrough(self):
        assert priority_rank(7) == 7

    @pytest.mark.parametrize("bad", [True, False, "urgent", None, 1.5])
    def test_invalid_rejected(self, bad):
        with pytest.raises((ValueError, TypeError)):
            priority_rank(bad)


class TestResilienceConfig:
    def test_defaults_disable_everything(self):
        cfg = ResilienceConfig()
        assert not cfg.admission_enabled
        assert not cfg.breaker_enabled
        assert not cfg.degraded_fallback
        assert cfg.deadline_budget_s is None

    @pytest.mark.parametrize(
        "kw",
        [dict(max_concurrency=0), dict(max_pending=-1),
         dict(breaker_threshold=0), dict(breaker_cooldown_s=0.0),
         dict(retry_after_s=0.0)],
    )
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            ResilienceConfig(**kw)


# ------------------------------------------------------- admission queue


class TestAdmissionQueue:
    def test_fast_path_under_concurrency(self):
        async def scenario():
            q = AdmissionQueue(2, 4)
            await q.acquire()
            await q.acquire()
            assert q.active == 2 and q.depth == 0
            q.release()
            q.release()
            assert q.active == 0

        run(scenario())

    def test_release_hands_slot_to_waiter(self):
        async def scenario():
            q = AdmissionQueue(1, 4)
            await q.acquire()
            waiter = asyncio.ensure_future(q.acquire())
            await asyncio.sleep(0)
            assert q.depth == 1
            q.release()  # slot transfers to the waiter, active stays 1
            await waiter
            assert q.active == 1 and q.depth == 0
            q.release()
            assert q.active == 0

        run(scenario())

    def test_shed_beyond_pending(self):
        async def scenario():
            q = AdmissionQueue(1, 1, retry_after_s=2.5)
            await q.acquire()
            waiter = asyncio.ensure_future(q.acquire())
            await asyncio.sleep(0)
            with pytest.raises(OverloadedError) as err:
                await q.acquire()  # same rank as the queued waiter: shed
            assert err.value.retry_after_s == 2.5
            q.release()
            await waiter

        run(scenario())

    def test_priority_evicts_worst_waiter(self):
        async def scenario():
            q = AdmissionQueue(1, 1)
            await q.acquire()
            batch = asyncio.ensure_future(q.acquire(priority_rank("batch")))
            await asyncio.sleep(0)
            # the queue is full, but the interactive arrival outranks the
            # queued batch waiter: the batch waiter is shed in its place
            interactive = asyncio.ensure_future(
                q.acquire(priority_rank("interactive"))
            )
            await asyncio.sleep(0)
            with pytest.raises(OverloadedError):
                await batch
            q.release()
            await interactive

        run(scenario())

    def test_best_priority_served_first(self):
        async def scenario():
            q = AdmissionQueue(1, 4)
            await q.acquire()
            order = []

            async def wait(name, rank):
                await q.acquire(rank)
                order.append(name)

            tasks = [
                asyncio.ensure_future(wait("b1", 1)),
                asyncio.ensure_future(wait("i1", 0)),
                asyncio.ensure_future(wait("b2", 1)),
            ]
            await asyncio.sleep(0)
            for _ in range(3):
                q.release()
                await asyncio.sleep(0)
            await asyncio.gather(*tasks)
            # interactive first, then batch in FIFO order
            assert order == ["i1", "b1", "b2"]

        run(scenario())

    def test_cancelled_waiter_leaves_queue(self):
        async def scenario():
            q = AdmissionQueue(1, 4)
            await q.acquire()
            waiter = asyncio.ensure_future(q.acquire())
            await asyncio.sleep(0)
            waiter.cancel()
            with pytest.raises(asyncio.CancelledError):
                await waiter
            assert q.depth == 0
            q.release()
            assert q.active == 0

        run(scenario())


# ------------------------------------------------------- circuit breaker


def make_breaker(threshold=2, cooldown=10.0, seed=0, clock=None):
    clock = clock or FakeClock()
    return clock, CircuitBreaker(
        threshold, cooldown, rng=random.Random(seed), clock=clock.now
    )


class TestCircuitBreaker:
    KEY = ("madpipe", "1f1b")

    def test_trips_after_threshold_consecutive_failures(self):
        _, b = make_breaker(threshold=3)
        for _ in range(2):
            b.record_failure(self.KEY)
        assert b.allow(self.KEY) == "closed"
        b.record_success(self.KEY)  # success resets the streak
        for _ in range(2):
            b.record_failure(self.KEY)
        assert b.allow(self.KEY) == "closed"
        b.record_failure(self.KEY)
        assert b.state(self.KEY) == "open"
        assert b.allow(self.KEY) == "open"  # short-circuit while cooling

    def test_probe_after_cooldown_then_close(self):
        clock, b = make_breaker(threshold=1, cooldown=10.0)
        b.record_failure(self.KEY)
        # the jittered cooldown is uniform in [0.5, 1.5) x cooldown: at
        # 0.49 x it can never be due, at 1.5 x it always is
        clock.t += 4.9
        assert b.allow(self.KEY) == "open"
        clock.t += 11.0
        assert b.allow(self.KEY) == "probe"
        assert b.allow(self.KEY) == "open"  # exactly one concurrent probe
        b.record_success(self.KEY)
        assert b.state(self.KEY) == "closed"
        assert b.allow(self.KEY) == "closed"

    def test_failed_probe_reopens(self):
        clock, b = make_breaker(threshold=1, cooldown=10.0)
        b.record_failure(self.KEY)
        clock.t += 15.0
        assert b.allow(self.KEY) == "probe"
        b.record_failure(self.KEY)
        assert b.state(self.KEY) == "open"
        assert b.allow(self.KEY) == "open"

    def test_same_seed_same_probe_schedule(self):
        schedules = []
        for _ in range(2):
            clock, b = make_breaker(threshold=1, cooldown=10.0, seed=7)
            b.record_failure(self.KEY)
            due = next(
                t for t in range(1, 20) if (setattr(clock, "t", float(t)) or
                                            b.allow(self.KEY) == "probe")
            )
            schedules.append(due)
        assert schedules[0] == schedules[1]

    def test_keys_are_independent(self):
        _, b = make_breaker(threshold=1)
        b.record_failure(("madpipe", "1f1b"))
        assert b.allow(("madpipe", "1f1b")) == "open"
        assert b.allow(("madpipe", "zero_bubble")) == "closed"
        assert b.snapshot() == {
            "madpipe:1f1b": "open", "madpipe:zero_bubble": "closed",
        }


# ---------------------------------------------- service: admission path


class TestServiceAdmission:
    RES = ResilienceConfig(max_concurrency=1, max_pending=1, retry_after_s=3.0)

    def test_burst_sheds_deterministically(self, plat):
        chains = [toy(L) for L in (3, 4, 5, 6)]

        async def scenario():
            async with make_service(resilience=self.RES) as service:
                outcomes = await asyncio.gather(
                    *(service.handle(service.request(c, plat, **PLAN_OPTS))
                      for c in chains),
                    return_exceptions=True,
                )
                return outcomes, service.stats()

        outcomes, stats = run(scenario())
        # arrival order decides: the first solves, the second queues, the
        # rest shed with the configured retry-after hint
        assert outcomes[0].served_from == "solve"
        assert outcomes[1].served_from == "solve"
        for shed in outcomes[2:]:
            assert isinstance(shed, OverloadedError)
            assert shed.retry_after_s == 3.0
        counters = stats["counters"]
        assert counters["serve.shed"] == 2
        assert counters["serve.queued"] == 1
        assert counters["serve.queue_hwm"] == 1
        assert counters["serve.solves"] == 2

    def test_cache_hits_bypass_admission(self, plat):
        chain = toy()

        async def scenario():
            async with make_service(resilience=self.RES) as service:
                first = await service.handle(
                    service.request(chain, plat, **PLAN_OPTS)
                )
                # a burst of repeats: all served from cache, none shed
                repeats = await asyncio.gather(
                    *(service.handle(service.request(chain, plat, **PLAN_OPTS))
                      for _ in range(6))
                )
                return first, repeats, service.stats()

        first, repeats, stats = run(scenario())
        assert first.served_from == "solve"
        assert all(r.served_from == "memory" for r in repeats)
        assert "serve.shed" not in stats["counters"]

    def test_shed_reply_not_cached(self, plat):
        chains = [toy(L) for L in (3, 4, 5, 6)]

        async def scenario():
            async with make_service(resilience=self.RES) as service:
                outcomes = await asyncio.gather(
                    *(service.handle(service.request(c, plat, **PLAN_OPTS))
                      for c in chains),
                    return_exceptions=True,
                )
                shed_chains = [
                    c for c, o in zip(chains, outcomes)
                    if isinstance(o, OverloadedError)
                ]
                # a shed request retried later must solve normally
                retry = await service.handle(
                    service.request(shed_chains[0], plat, **PLAN_OPTS)
                )
                return retry

        assert run(scenario()).served_from == "solve"


# --------------------------------- service: breaker + degraded planning


STORM = [Fault(site="serve_solve", action="raise", key="madpipe:1f1b", times=-1)]


class TestServiceDegraded:
    RES = ResilienceConfig(
        degraded_fallback=True, breaker_threshold=2, breaker_cooldown_s=10.0
    )

    def storm_service(self, tmp_path, clock):
        return make_service(
            tmp_path, clock=clock, max_retries=0, seed=0, resilience=self.RES
        )

    def test_storm_degrades_with_certificates(self, tmp_path, plat):
        faults.install(STORM, tmp_path / "faults")
        chains = [toy(L) for L in (3, 4, 5)]
        clock = FakeClock()

        async def scenario():
            async with self.storm_service(tmp_path, clock) as service:
                replies = [
                    await service.handle(service.request(c, plat, **PLAN_OPTS))
                    for c in chains
                ]
                return replies, service.stats()

        replies, stats = run(scenario())
        for reply in replies:
            assert reply.served_from == "degraded" and reply.degraded
            assert reply.result.status == "degraded"
            assert reply.result.feasible
            assert reply.result.certificate is not None
            assert reply.result.certificate.ok
        counters = stats["counters"]
        # two terminal failures trip the breaker; the third request is
        # short-circuited without ever dispatching a doomed solve
        assert counters["serve.breaker_trips"] == 1
        assert counters["serve.breaker_short_circuits"] == 1
        assert counters["serve.degraded"] == 3
        assert stats["breakers"] == {"madpipe:1f1b": "open"}
        # degraded answers live in their own tier, never the primary cache
        assert stats["cached_plans"] == 0
        assert stats["degraded_plans"] == 3

    def test_degraded_never_persisted(self, tmp_path, plat):
        faults.install(STORM, tmp_path / "faults")
        chain = toy()
        clock = FakeClock()

        async def storm():
            async with self.storm_service(tmp_path, clock) as service:
                await service.handle(service.request(chain, plat, **PLAN_OPTS))

        run(storm())
        faults.clear()

        async def after():
            async with self.storm_service(tmp_path, clock) as service:
                return await service.handle(
                    service.request(chain, plat, **PLAN_OPTS)
                )

        # a fresh service sees no stored degraded payload: it re-solves
        # to full quality (the empty store also proves nothing persisted)
        reply = run(after())
        assert reply.served_from == "solve"
        assert reply.result.status == "ok"

    def test_degraded_lru_reused_within_instance(self, tmp_path, plat):
        faults.install(STORM, tmp_path / "faults")
        chain = toy()
        clock = FakeClock()

        async def scenario():
            async with self.storm_service(tmp_path, clock) as service:
                first = await service.handle(
                    service.request(chain, plat, **PLAN_OPTS)
                )
                second = await service.handle(
                    service.request(chain, plat, **PLAN_OPTS)
                )
                return first, second, service.stats()

        first, second, stats = run(scenario())
        assert first.served_from == second.served_from == "degraded"
        assert stats["counters"]["serve.degraded_solves"] == 1
        assert stats["counters"]["serve.degraded_hits"] == 1

    def test_recovery_closes_breaker_bit_identical(self, tmp_path, plat):
        chain = toy(6)
        with warmstart.activate(False):
            reference = api.plan(chain, plat, **PLAN_OPTS).to_json()
        faults.install(STORM, tmp_path / "faults")
        clock = FakeClock()

        async def scenario():
            async with self.storm_service(tmp_path, clock) as service:
                for c in (toy(3), toy(4)):  # trip the breaker
                    await service.handle(service.request(c, plat, **PLAN_OPTS))
                assert service.stats()["breakers"]["madpipe:1f1b"] == "open"
                faults.clear()
                # past the maximum jittered cooldown: the next request is
                # the half-open probe, and its success closes the breaker
                clock.t += 1.5 * self.RES.breaker_cooldown_s + 1.0
                reply = await service.handle(
                    service.request(chain, plat, **PLAN_OPTS)
                )
                return reply, service.stats()

        reply, stats = run(scenario())
        assert reply.served_from == "solve"
        assert reply.result.to_json() == reference
        assert stats["breakers"] == {"madpipe:1f1b": "closed"}
        assert stats["counters"]["serve.breaker_probes"] == 1
        assert stats["counters"]["serve.breaker_closes"] == 1

    def test_open_breaker_without_fallback_raises(self, tmp_path, plat):
        faults.install(STORM, tmp_path / "faults")
        res = ResilienceConfig(breaker_threshold=1, breaker_cooldown_s=10.0)

        async def scenario():
            async with make_service(
                max_retries=0, clock=FakeClock(), resilience=res
            ) as service:
                with pytest.raises(faults.FaultInjected):
                    await service.handle(service.request(toy(3), plat, **PLAN_OPTS))
                with pytest.raises(CircuitOpenError):
                    await service.handle(service.request(toy(4), plat, **PLAN_OPTS))

        run(scenario())

    def test_coalesced_waiters_see_degraded(self, tmp_path, plat):
        faults.install(STORM, tmp_path / "faults")
        chain = toy(5)

        async def scenario():
            async with self.storm_service(tmp_path, FakeClock()) as service:
                request = service.request(chain, plat, **PLAN_OPTS)
                replies = await asyncio.gather(
                    *(service.handle(request) for _ in range(3))
                )
                return replies, service.stats()

        replies, stats = run(scenario())
        assert all(r.served_from == "degraded" for r in replies)
        assert stats["counters"]["serve.degraded"] == 3
        assert stats["counters"]["serve.degraded_solves"] == 1


# --------------------------------------------- service: deadline budgets


class TickClock:
    """A clock that jumps a full step on every reading: any budget
    smaller than the step is exhausted by the time it is checked."""

    def __init__(self, step: float) -> None:
        self.t = 0.0
        self.step = step

    def now(self) -> float:
        self.t += self.step
        return self.t


class TestInvalidRequests:
    """A request no algorithm can answer is rejected by ``request()``
    before fingerprinting: never solved, retried, charged to a breaker
    or answered degraded — with or without degraded-mode planning."""

    CASES = [
        pytest.param("magic", {}, ValueError, id="unknown-algorithm"),
        pytest.param("madpipe", {"bogus": 1}, TypeError, id="unknown-option"),
        pytest.param("pipedream", {"grid": Discretization.coarse()}, TypeError,
                     id="grid-on-pipedream"),
        pytest.param("madpipe", {"schedule_family": "bogus"}, ValueError,
                     id="unknown-family"),
        pytest.param("gpipe", {"schedule_family": "zero_bubble"}, ValueError,
                     id="zero-bubble-on-gpipe"),
    ]

    @pytest.mark.parametrize("degraded", [False, True], ids=["strict", "degraded"])
    @pytest.mark.parametrize("algorithm, opts, error", CASES)
    def test_rejected_before_any_solve(self, tmp_path, plat, algorithm, opts,
                                       error, degraded):
        resilience = ResilienceConfig(
            degraded_fallback=degraded, breaker_threshold=1, breaker_cooldown_s=10.0
        )

        async def scenario():
            async with make_service(tmp_path, resilience=resilience) as service:
                with pytest.raises(error):
                    service.request(toy(), plat, algorithm=algorithm, **opts)
                with pytest.raises(error):
                    await service.submit(toy(), plat, algorithm=algorithm, **opts)
                # a valid request still solves normally afterwards
                good = await service.submit(toy(), plat, **PLAN_OPTS)
                return good, service.stats()

        good, stats = run(scenario())
        assert good.status == "ok"
        counters = stats["counters"]
        assert counters["serve.requests"] == 1 and counters["serve.solves"] == 1
        for name in ("serve.errors", "serve.retries", "serve.degraded",
                     "serve.breaker_trips"):
            assert name not in counters
        assert stats["breakers"] == {"madpipe:1f1b": "closed"}
        assert stats["degraded_plans"] == 0


class TestDeadlineBudgets:
    def test_exhausted_budget_raises_without_fallback(self, plat):
        async def scenario():
            async with make_service(clock=TickClock(1.0)) as service:
                request = service.request(
                    toy(), plat, deadline_s=0.5, **PLAN_OPTS
                )
                with pytest.raises(DeadlineExceededError):
                    await service.handle(request)
                return service.stats()

        stats = run(scenario())
        assert stats["counters"]["serve.deadline_exhausted"] == 1

    def test_exhausted_budget_degrades_with_fallback(self, plat):
        res = ResilienceConfig(degraded_fallback=True)

        async def scenario():
            async with make_service(
                clock=TickClock(1.0), resilience=res
            ) as service:
                request = service.request(
                    toy(), plat, deadline_s=0.5, **PLAN_OPTS
                )
                return await service.handle(request), service.stats()

        reply, stats = run(scenario())
        assert reply.served_from == "degraded"
        assert reply.result.status == "degraded"
        assert reply.result.certificate.ok
        assert stats["counters"]["serve.deadline_exhausted"] == 1

    def test_config_budget_is_the_default(self, plat):
        res = ResilienceConfig(deadline_budget_s=0.5)

        async def scenario():
            async with make_service(
                clock=TickClock(1.0), resilience=res
            ) as service:
                with pytest.raises(DeadlineExceededError):
                    await service.handle(service.request(toy(), plat, **PLAN_OPTS))

        run(scenario())

    def test_request_validation(self, plat):
        service = make_service()
        with pytest.raises(ValueError):
            service.request(toy(), plat, deadline_s=0.0, **PLAN_OPTS)
        with pytest.raises(ValueError):
            service.request(toy(), plat, priority="urgent", **PLAN_OPTS)
        run(service.close())


# ------------------------------------- inline (thread) deadline watchdog


class TestThreadDeadline:
    def test_fires_off_main_thread(self):
        """The watchdog bounds a pure-Python solve on a worker thread,
        where SIGALRM is unavailable (satellite: the old implementation
        silently no-opped there)."""
        caught: list = []

        def busy():
            try:
                with runtime.deadline(0.1, ("spec",)):
                    deadline = time.monotonic() + 5.0
                    while time.monotonic() < deadline:
                        pass
                caught.append(None)
            except InstanceTimeoutError as exc:
                caught.append(exc)

        worker = threading.Thread(target=busy)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert isinstance(caught[0], InstanceTimeoutError)
        assert "spec" in str(caught[0])

    def test_no_fire_when_block_finishes(self):
        result: list = []

        def quick():
            with runtime.deadline(5.0, ("spec",)):
                result.append("done")
            # the pending watchdog must be cancelled, not detonate later
            time.sleep(0.02)
            result.append("after")

        worker = threading.Thread(target=quick)
        worker.start()
        worker.join(timeout=10.0)
        assert result == ["done", "after"]

    @pytest.mark.faultinject
    def test_service_inline_mode_times_out(self, tmp_path, plat):
        """End to end: ``max_workers=0`` solves on the event loop's
        thread pool, and a hung solve is still bounded."""
        faults.install(
            [Fault(site="serve_worker", action="sleep", times=-1, param=0.5)],
            tmp_path / "faults",
        )

        async def scenario():
            async with make_service(
                instance_timeout=0.1, max_retries=0
            ) as service:
                with pytest.raises(InstanceTimeoutError):
                    await service.handle(service.request(toy(), plat, **PLAN_OPTS))

        run(scenario())


# ------------------------------------------------------- degraded opts


class TestDegradedOpts:
    def test_keeps_context_forces_contiguous(self):
        opts = dict(
            iterations=8, grid=Discretization.coarse(), memory_headroom=0.9,
            schedule_family="zero_bubble", ilp_time_limit=60.0,
            allow_special=True,
        )
        out = degraded_opts(opts)
        assert out["iterations"] == 8
        assert out["schedule_family"] == "zero_bubble"
        assert out["allow_special"] is False
        assert "contiguous_fallback" not in out
        # a budget override of the original request must not weaken
        # the fallback's guarantees
        assert "ilp_time_limit" not in out


# ------------------------------------------------------- chaos schedule


class TestChaosSchedule:
    def test_standard_shape(self):
        schedule = ChaosSchedule.standard(
            0, n_warm=4, scale=1, pool_kill=True, store_path="/tmp/p.jsonl"
        )
        names = [phase.name for phase in schedule]
        assert names == [
            "warmup", "burst", "pool_kill", "storm", "spike", "truncate",
            "recovery",
        ]
        assert schedule.total_requests == sum(
            len(p.requests) for p in schedule
        )
        assert schedule.pool_size > 4

    def test_same_seed_identical(self):
        a = ChaosSchedule.standard(3, n_warm=4, scale=2)
        b = ChaosSchedule.standard(3, n_warm=4, scale=2)
        assert a == b

    def test_optional_phases_omitted(self):
        schedule = ChaosSchedule.standard(0, n_warm=3)
        names = [phase.name for phase in schedule]
        assert "pool_kill" not in names
        assert "truncate" not in names
        assert schedule.phases[-1].restart_service is False

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosSchedule.standard(0, n_warm=2)
        with pytest.raises(ValueError):
            ChaosSchedule.standard(0, scale=0)
