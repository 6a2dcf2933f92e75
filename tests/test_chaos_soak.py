"""Seeded chaos soak: the plan service under overload and failure.

``repro.testing.ChaosSchedule.standard`` composes the repo's fault
sites into one storm — cache warmup, an admission-overflow burst, a
solve-failure storm that trips a circuit breaker, a latency spike that
burns per-request deadline budgets, a torn store write, and a
post-cooldown recovery — and :func:`run_soak` replays it against a real
:class:`repro.serve.PlanService` (inline workers, admission ``1×2``,
breaker threshold 3, degraded fallback on, fake clock + seeded RNG).

The five invariants the soak checks:

1. every non-degraded reply is bit-identical (``PlanResult.to_json``)
   to a cold :func:`repro.api.plan` solve of the same request;
2. every degraded reply is feasible and carries an ``ok`` certificate;
3. shed + served (incl. degraded) accounts for every request issued —
   no reply lost, no unexplained error;
4. after the faults clear, the first fresh full-quality solve arrives
   within ``N_WARM + 1`` recovery requests (the warmup replays plus
   one probe), and the half-open breaker closes;
5. the persistent store holds no degraded payload, every record
   matches its cold reference, and the torn write was quarantined.

The soak's summary holds no wall-clock value, so two same-seed runs
must produce it byte for byte.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from pathlib import Path

import pytest

from repro import api, warmstart
from repro.algorithms import Discretization
from repro.core.platform import Platform
from repro.experiments.scenarios import paper_chain
from repro.serve import PlanService, PlanStore, ResilienceConfig
from repro.testing import ChaosPhase, ChaosRequest, ChaosSchedule, faults

N_WARM = 4
SCALE = 1
ITERATIONS = 4
MAX_RETRIES = 3
SEED = 0
BREAKER_THRESHOLD = 3
BREAKER_COOLDOWN_S = 60.0
PROCS = 2
BANDWIDTH_GBPS = 12.0

INVARIANTS = (
    "bit_identical",
    "degraded_certified",
    "accounted",
    "recovery_bounded",
    "store_clean",
)

#: Deterministic counters worth comparing; everything timing-flavoured
#: (latencies, runtime metrics merged from solvers) stays out of the
#: byte-compared summary.
_SUMMARY_COUNTERS = (
    "serve.requests", "serve.solves", "serve.hits", "serve.hits_memory",
    "serve.hits_store", "serve.coalesced", "serve.retries", "serve.errors",
    "serve.shed", "serve.queued", "serve.queue_hwm",
    "serve.breaker_trips", "serve.breaker_probes", "serve.breaker_closes",
    "serve.breaker_short_circuits", "serve.deadline_exhausted",
    "serve.degraded", "serve.degraded_solves", "serve.degraded_hits",
    "serve.pool_restarts", "serve.pool_exhausted",
)

_TOY_SIZES = (3, 4, 5, 6, 7, 8, 9, 10)


class _FakeClock:
    """The schedule's monotonic clock: advances only when told to."""

    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


def _spec(i: int) -> tuple[str, float]:
    """Deterministic request-spec pool: (network, memory_gb), unique per
    index for every pool size a standard schedule can ask for."""
    return (
        f"toy{_TOY_SIZES[i % len(_TOY_SIZES)]}",
        8.0 + 4.0 * (i // len(_TOY_SIZES)),
    )


def _request(service, req: ChaosRequest):
    network, memory_gb = _spec(req.spec)
    return service.request(
        paper_chain(network),
        Platform.of(PROCS, memory_gb, BANDWIDTH_GBPS),
        priority=req.priority,
        deadline_s=req.deadline_s,
        grid=Discretization.coarse(),
        iterations=ITERATIONS,
        schedule_family=req.family,
    )


def _cold_reference(spec: int, family: str) -> dict:
    network, memory_gb = _spec(spec)
    with warmstart.activate(False):
        result = api.plan(
            paper_chain(network),
            Platform.of(PROCS, memory_gb, BANDWIDTH_GBPS),
            grid=Discretization.coarse(),
            iterations=ITERATIONS,
            schedule_family=family,
        )
    return result.to_json()


def _service(store: Path, clock: _FakeClock) -> PlanService:
    return PlanService(
        store=store,
        max_workers=0,  # inline: an exit fault would kill the test process
        instance_timeout=10.0,
        max_retries=MAX_RETRIES,
        retry_backoff_s=0.02,
        seed=SEED,
        clock=clock.now,
        resilience=ResilienceConfig(
            max_concurrency=1,
            max_pending=2,
            degraded_fallback=True,
            degraded_timeout_s=30.0,
            breaker_threshold=BREAKER_THRESHOLD,
            breaker_cooldown_s=BREAKER_COOLDOWN_S,
        ),
    )


async def _soak(schedule: ChaosSchedule, store: Path, state: Path):
    """Replay the schedule; returns (per-phase outcomes, final stats)."""
    clock = _FakeClock()
    service = _service(store, clock)
    phases: list[tuple[ChaosPhase, list[tuple]]] = []
    counters: dict[str, float] = {}

    def absorb(svc) -> None:
        # counters survive service restarts: accumulate every incarnation
        for name, value in svc.registry.snapshot().items():
            counters[name] = counters.get(name, 0) + value

    async def one(req: ChaosRequest) -> tuple:
        try:
            reply = await service.handle(_request(service, req))
        except api.OverloadedError as exc:
            return ("shed", req, exc.retry_after_s)
        except Exception as exc:  # noqa: BLE001 - accounted, then asserted 0
            return ("error", req, f"{type(exc).__name__}: {exc}")
        return ("reply", req, reply)

    try:
        for phase in schedule:
            if phase.faults:
                # one counter dir per phase: fault call counts must not
                # bleed between phases that reuse a rule index
                faults.install(list(phase.faults), state / phase.name)
            else:
                faults.clear()
            clock.t += phase.clock_advance_s
            if phase.restart_service:
                absorb(service)
                await service.close()
                service = _service(store, clock)
            if phase.burst:
                outcomes = list(await asyncio.gather(
                    *(one(req) for req in phase.requests)
                ))
            else:
                outcomes = [await one(req) for req in phase.requests]
            phases.append((phase, outcomes))
        stats = service.stats()
        absorb(service)
        stats["counters"] = counters
    finally:
        faults.clear()
        await service.close()
    return phases, stats


def _check_store(store: Path, fingerprints: dict) -> dict:
    """Reopen the store cold: quarantine must have caught the torn line,
    no degraded payload may be persisted, every record must match its
    cold reference."""
    reopened = PlanStore(store)
    degraded_in_store = 0
    mismatched = 0
    for fingerprint in list(reopened.keys()):
        plan = reopened.get(fingerprint)[1].to_json()
        if plan.get("status") == "degraded":
            degraded_in_store += 1
        ref = fingerprints.get(fingerprint)
        if ref is not None and plan != ref:
            mismatched += 1
    quarantine = store.with_name(store.name + ".quarantine")
    return {
        "records": len(reopened),
        "degraded_in_store": degraded_in_store,
        "mismatched": mismatched,
        "quarantined": quarantine.exists(),
    }


def run_soak() -> dict:
    """Replay the standard storm once; its deterministic summary."""
    warmstart.reset_process_context()
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "plans.jsonl"
        schedule = ChaosSchedule.standard(
            SEED,
            n_warm=N_WARM,
            scale=SCALE,
            pool_kill=False,
            breaker_cooldown_s=BREAKER_COOLDOWN_S,
            store_path=str(store),
        )
        phases, stats = asyncio.run(
            _soak(schedule, store, Path(tmp) / "fault-state")
        )

        references: dict[tuple[int, str], dict] = {}

        def reference(req: ChaosRequest) -> dict:
            key = (req.spec, req.family)
            if key not in references:
                references[key] = _cold_reference(req.spec, req.family)
            return references[key]

        bit_identical = True
        degraded_certified = True
        errors = shed = served = degraded = recovered = 0
        fingerprints: dict[str, dict] = {}
        phase_summaries = []
        recovery_requests = None
        for phase, outcomes in phases:
            counts: dict[str, int] = {}
            for position, (kind, req, value) in enumerate(outcomes, 1):
                if kind == "shed":
                    shed += 1
                    counts["shed"] = counts.get("shed", 0) + 1
                    continue
                if kind == "error":
                    errors += 1
                    counts["error"] = counts.get("error", 0) + 1
                    continue
                reply = value
                served += 1
                counts[reply.served_from] = counts.get(reply.served_from, 0) + 1
                if reply.served_from == "degraded":
                    degraded += 1
                    result = reply.result
                    if not (
                        result.status == "degraded"
                        and result.feasible
                        and result.certificate is not None
                        and result.certificate.ok
                    ):
                        degraded_certified = False
                else:
                    ref = reference(req)
                    if reply.result.to_json() != ref:
                        bit_identical = False
                    fingerprints[reply.fingerprint] = ref
                if phase.name == "recovery" and reply.served_from == "solve":
                    recovered += 1
                    if recovery_requests is None:
                        recovery_requests = position
            phase_summaries.append({
                "name": phase.name,
                "n_requests": len(phase.requests),
                "outcomes": dict(sorted(counts.items())),
            })
        store_report = _check_store(store, fingerprints)

    total = schedule.total_requests
    recovery_bound = N_WARM + 1
    counters = stats["counters"]
    return {
        "seed": SEED,
        "total_requests": total,
        "phases": phase_summaries,
        "shed": shed,
        "served": served,
        "degraded": degraded,
        "errors": errors,
        "recovery_requests": recovery_requests,
        "recovery_bound": recovery_bound,
        "recovered": recovered,
        "breakers": stats["breakers"],
        "counters": {
            name: int(counters[name])
            for name in _SUMMARY_COUNTERS
            if name in counters
        },
        "store": store_report,
        "invariants": {
            "bit_identical": bit_identical,
            "degraded_certified": degraded_certified,
            "accounted": shed + served == total and errors == 0,
            "recovery_bounded": (
                recovery_requests is not None
                and recovery_requests <= recovery_bound
            ),
            "store_clean": (
                store_report["degraded_in_store"] == 0
                and store_report["mismatched"] == 0
                and store_report["quarantined"]
            ),
        },
    }


@pytest.fixture(scope="module")
def soaks() -> tuple[dict, dict]:
    """Two same-seed soaks: the first is checked, the second compared."""
    return run_soak(), run_soak()


@pytest.mark.parametrize("invariant", INVARIANTS)
def test_invariant_holds(soaks, invariant):
    summary = soaks[0]
    assert summary["invariants"][invariant], json.dumps(summary, indent=1)


def test_storm_sheds_degrades_and_recovers(soaks):
    """The storm must actually exercise every resilience path."""
    summary = soaks[0]
    assert summary["shed"] >= 1, "storm never shed a request"
    assert summary["degraded"] >= 1, "storm never degraded a reply"
    assert summary["recovered"] >= 1, "service never recovered"


def test_same_seed_summary_byte_identical(soaks):
    first, second = (json.dumps(s, sort_keys=True, indent=1) for s in soaks)
    assert first == second
