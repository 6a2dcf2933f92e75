"""The sweep and the plan service share one supervisor
(:class:`repro.runtime.Supervisor`): the same fault plan must cost the
same pool restarts, retries and backoff draws in ``run_grid`` and in
``PlanService``.

Each parity test sends one fault plan through ``run_grid(n_workers=2)``
and through ``PlanService(max_workers=2)`` on the same instances (toy5,
P=2, β=12, MadPipe), and compares what each counted.
"""

from __future__ import annotations

import asyncio
import multiprocessing

import pytest

import repro.runtime as runtime
from repro import api, obs
from repro.algorithms import Discretization
from repro.core.platform import Platform
from repro.experiments import SweepInstanceError, run_grid
from repro.experiments.scenarios import paper_chain
from repro.runtime import PoolExhaustedError
from repro.serve import PlanService
from repro.testing import Fault, FaultInjected, faults

OPTS = dict(grid=Discretization.coarse(), iterations=4, ilp_time_limit=10.0)
MEMORIES = (0.25, 0.5)


@pytest.fixture(autouse=True)
def _clean_faults():
    faults.clear()
    yield
    faults.clear()


def sweep(memories=MEMORIES, **kw):
    """``run_grid`` over toy5 madpipe instances; returns (results, counters)."""
    registry = obs.MetricsRegistry()
    with obs.use_metrics(registry):
        results = run_grid(("toy5",), (2,), memories, (12.0,),
                           algorithms=("madpipe",), **kw, **OPTS)
    return results, registry


def sweep_key(memory_gb: float) -> str:
    return f"toy5|2|{memory_gb}|12.0|madpipe"


def serve(state, plan_faults, memories=MEMORIES, **kw):
    """The same instances, one concurrent request each, through one
    service; ``plan_faults(fingerprints)`` returns the faults to install
    (counted under ``state``) once the fingerprints are known.  Returns
    (replies or errors, counters)."""

    async def scenario():
        async with PlanService(**kw) as service:
            requests = [
                service.request(paper_chain("toy5"), Platform.of(2, m, 12.0),
                                algorithm="madpipe", **OPTS)
                for m in memories
            ]
            faults.install(plan_faults([r.fingerprint() for r in requests]), state)
            outcomes = await asyncio.gather(
                *(service.handle(r) for r in requests), return_exceptions=True
            )
            return outcomes, service.registry

    return asyncio.run(scenario())


@pytest.fixture
def state(tmp_path):
    return tmp_path / "faults"


def counts(registry, prefix: str) -> tuple:
    return tuple(registry.get(f"{prefix}.{name}")
                 for name in ("pool_restarts", "retries", "pool_exhausted"))


@pytest.mark.faultinject
class TestWorkerDeathParity:
    def test_one_death_is_one_restart_and_one_retry_per_solve_in_flight(self, state):
        # solve A's worker exits; solve B is in flight (its first attempt
        # sleeps 1 s) when the pool dies, so both are charged one attempt
        def plan(site: str, key_a: str, key_b: str) -> list[Fault]:
            return [Fault(site=site, action="sleep", key=key_b, times=1, param=1.0),
                    Fault(site=site, action="exit", key=key_a, times=1, param=86)]

        faults.install(plan("worker", sweep_key(0.25), sweep_key(0.5)), state / "sweep")
        results, registry = sweep(n_workers=2, max_retries=2, retry_backoff_s=0.01)
        assert [r.status for r in results] == ["ok", "ok"]
        swept = counts(registry, "sweep")

        replies, served = serve(state / "serve", lambda fps: plan("serve_worker", *fps),
                                max_workers=2, max_retries=2, retry_backoff_s=0.01)
        assert [r.result.status for r in replies] == ["ok", "ok"]
        assert swept == counts(served, "serve") == (1, 2, 0)

    def test_a_pool_dying_on_every_attempt_ends_exhausted(self, state):
        # max_retries=2 in both, and the service's restart cap set to the
        # sweep's (max_retries): the third consecutive death exhausts
        faults.install([Fault(site="worker", action="exit", times=-1, param=86)],
                       state / "sweep")
        results, registry = sweep((0.5,), n_workers=2, max_retries=2,
                                  retry_backoff_s=0.01, on_exhausted="record")
        assert results[0].status == "error"
        assert results[0].failure.startswith("PoolExhaustedError")
        with pytest.raises(SweepInstanceError) as raised:
            sweep((0.5,), n_workers=2, max_retries=2, retry_backoff_s=0.01)
        assert isinstance(raised.value.cause, PoolExhaustedError)
        assert raised.value.attempts == 3

        (error,), served = serve(
            state / "serve",
            lambda fps: [Fault(site="serve_worker", action="exit", times=-1, param=86)],
            (0.5,), max_workers=2, max_retries=2, retry_backoff_s=0.01, max_pool_restarts=2,
        )
        assert isinstance(error, api.PoolExhaustedError)
        assert counts(registry, "sweep") == counts(served, "serve") == (3, 2, 1)


@pytest.mark.faultinject
class TestSeededBackoff:
    def replay(self, monkeypatch, run) -> list[float]:
        delays: list[float] = []

        async def no_sleep(seconds):
            delays.append(seconds)

        monkeypatch.setattr(asyncio, "sleep", no_sleep)
        run()
        return delays

    def test_same_seed_draws_identical_delays(self, state, monkeypatch):
        def failing_sweep():
            faults.install([Fault(site="worker", action="raise", times=-1)],
                           state / "sweep")
            sweep(max_retries=3, retry_backoff_s=0.01, on_exhausted="record")

        def failing_inline_service():
            outcomes, _ = serve(
                state / "serve",
                lambda fps: [Fault(site="serve_worker", action="raise", times=-1)],
                (0.5,), max_workers=0, max_retries=3, retry_backoff_s=0.01, seed=0,
            )
            assert isinstance(outcomes[0], FaultInjected)

        swept = [self.replay(monkeypatch, failing_sweep) for _ in range(2)]
        served = [self.replay(monkeypatch, failing_inline_service) for _ in range(2)]
        assert swept[0] == swept[1] and len(swept[0]) == 6  # 2 solves x 3 retries
        assert served[0] == served[1] and len(served[0]) == 3
        # one formula, one seed: the sweep's first solve sleeps what the
        # service's seed-0 solve sleeps
        assert swept[0][:3] == served[0]


class TestPoolLifecycle:
    @pytest.mark.faultinject
    def test_no_worker_outlives_a_raising_sweep(self, state):
        faults.install([Fault(site="worker", action="raise", key="|0.25|", times=-1)],
                       state)
        before = set(multiprocessing.active_children())
        with pytest.raises(SweepInstanceError):
            sweep(n_workers=2, max_retries=0)
        assert set(multiprocessing.active_children()) - before == set()

    def test_no_pool_solves_in_process(self, monkeypatch):
        def no_pool(max_workers):
            raise OSError("no semaphores here")

        serial, _ = sweep()
        monkeypatch.setattr(runtime, "ProcessPoolExecutor", no_pool)
        fallback, _ = sweep(n_workers=2)
        assert [(r.key, r.dp_period, r.valid_period, r.status) for r in fallback] == [
            (r.key, r.dp_period, r.valid_period, r.status) for r in serial
        ]

    def test_fallback_never_swallows_a_runtime_error(self, monkeypatch):
        # asyncio reports misuse with RuntimeError: only the pool's own
        # OSError/NotImplementedError may send attempts in-process
        def broken(max_workers):
            raise RuntimeError("no running event loop")

        monkeypatch.setattr(runtime, "ProcessPoolExecutor", broken)
        with pytest.raises(SweepInstanceError) as raised:
            sweep(n_workers=2)
        assert "no running event loop" in str(raised.value.cause)
