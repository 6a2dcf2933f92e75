"""Planner-as-a-service tests: fingerprints, plan cache, coalescing,
kill-and-restart resume, and the ``repro serve`` CLI.

The service's core promise is that it never changes an answer — a served
plan is bit-identical (``PlanResult.to_json()``) to a direct cold
:func:`repro.api.plan` call whether it came from a fresh solve, the
in-process LRU, the persistent store, or another request's coalesced
solve.  Every behavioural test here re-asserts that promise alongside
whatever mechanism it exercises.
"""

from __future__ import annotations

import asyncio
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api, obs, warmstart
from repro.algorithms import Discretization
from repro.cli import main as cli_main
from repro.core.platform import Platform
from repro.models import uniform_chain
from repro.serve import PlanCache, PlanService, PlanStore, request_fingerprint
from repro.serve.service import FingerprintMemo
from repro.testing import Fault, FaultInjected, faults
from repro.warmstart import canonical_value

MB = float(2**20)
COARSE = Discretization.coarse()
PLAN_OPTS = dict(grid=COARSE, iterations=4, ilp_time_limit=10.0)


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


def make_service(tmp_path=None, **kw) -> PlanService:
    kw.setdefault("max_workers", 0)
    if tmp_path is not None:
        kw.setdefault("store", tmp_path / "plans.jsonl")
    service = api.serve(**kw)
    assert isinstance(service, PlanService)  # the facade returns the real thing
    return service


# --------------------------------------------------------------- fingerprints


class TestRequestFingerprint:
    def test_key_order_independent(self, plat):
        chain = toy()
        a = request_fingerprint(chain, plat, "madpipe", {"iterations": 4, "x": 1})
        b = request_fingerprint(chain, plat, "madpipe", {"x": 1, "iterations": 4})
        assert a == b

    def test_int_float_normalized(self, plat):
        chain = toy()
        a = request_fingerprint(chain, plat, "madpipe", {"ilp_time_limit": 10})
        b = request_fingerprint(chain, plat, "madpipe", {"ilp_time_limit": 10.0})
        assert a == b

    def test_bool_is_not_one(self, plat):
        chain = toy()
        a = request_fingerprint(chain, plat, "madpipe", {"flag": True})
        b = request_fingerprint(chain, plat, "madpipe", {"flag": 1})
        assert a != b

    def test_equivalent_objects_hash_equal(self):
        # separately constructed but value-identical chain/platform/grid
        a = request_fingerprint(
            toy(), Platform.of(2, 8.0, 12.0), "madpipe",
            {"grid": Discretization.coarse()},
        )
        b = request_fingerprint(
            toy(), Platform.of(2, 8, 12), "madpipe",
            {"grid": Discretization.coarse()},
        )
        assert a == b

    def test_near_misses_distinct(self, plat):
        chain = toy()
        base = request_fingerprint(chain, plat, "madpipe", {"iterations": 4})
        assert base != request_fingerprint(
            chain, Platform.of(2, 8.0 + 1e-9, 12.0), "madpipe", {"iterations": 4}
        )
        assert base != request_fingerprint(chain, plat, "pipedream", {"iterations": 4})
        assert base != request_fingerprint(chain, plat, "madpipe", {"iterations": 5})
        assert base != request_fingerprint(
            toy(u_f=0.0011), plat, "madpipe", {"iterations": 4}
        )

    def test_canonical_value_rejects_opaque_objects(self):
        with pytest.raises(TypeError):
            canonical_value(object())


# ------------------------------------------------------- fingerprint memo

#: One memo shared by every drawn example, so an entry left by an
#: earlier example would show up as a false hit on a later one.
SHARED_MEMO = FingerprintMemo()
MEMO_CHAIN = toy()
MEMO_PLATFORMS = [
    Platform(2, 8.0 * 2**30, 12.0 * 2**30),
    Platform(2.0, 8 * 2**30, 12 * 2**30),  # same request as the first
    Platform(True, 8.0 * 2**30, 12.0 * 2**30),  # not the same as n_procs=1
    Platform(1, 8.0 * 2**30, 12.0 * 2**30),
]
OPTION_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 4.0, 1.0, float("inf"), float("nan")]),
    st.floats(allow_nan=True),
    st.text(max_size=3),
    st.builds(Discretization, st.integers(2, 4), st.integers(2, 4), st.integers(2, 4)),
    st.builds(Discretization, st.sampled_from([2, 2.0, 3]), st.just(2), st.just(2)),
    # no exact key: these must fall back to the full fingerprint
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.sampled_from("ab"), st.integers(0, 2), max_size=2),
    st.builds(np.array, st.lists(st.integers(0, 2), max_size=2)),
    st.builds(np.float64, st.sampled_from([0.0, 4.0])),
)


def memo_agrees(memo, platform, algorithm, opts) -> str:
    expected = request_fingerprint(MEMO_CHAIN, platform, algorithm, opts)
    assert memo(MEMO_CHAIN, platform, algorithm, opts) == expected
    return expected


class TestFingerprintMemo:
    @settings(max_examples=300, deadline=None)
    @given(
        platform=st.sampled_from(MEMO_PLATFORMS),
        algorithm=st.sampled_from(["madpipe", "gpipe"]),
        opts=st.dictionaries(st.sampled_from(["grid", "iterations", "x", "y"]),
                             OPTION_VALUES, max_size=4),
    )
    def test_memo_equals_uncached(self, platform, algorithm, opts):
        memo_agrees(SHARED_MEMO, platform, algorithm, opts)
        # the same spec with its keys in the reverse order
        memo_agrees(SHARED_MEMO, platform, algorithm, dict(reversed(opts.items())))

    @pytest.mark.parametrize(
        "a, b, same",
        [
            ({"iterations": 4, "x": 1}, {"x": 1, "iterations": 4}, True),
            ({"x": 4}, {"x": 4.0}, True),
            ({"x": True}, {"x": 1}, False),
            ({"x": 0.0}, {"x": -0.0}, False),
            ({"grid": Discretization(25, 7, 15)}, {"grid": COARSE}, True),
            ({"grid": Discretization(25, 7, 15)}, {"grid": Discretization(25, 7, 16)}, False),
        ],
        ids=["key-order", "int-float", "bool-int", "signed-zero", "grid", "grid-differs"],
    )
    def test_lookalike_pairs(self, plat, a, b, same):
        memo = FingerprintMemo()
        for first, second in ((a, b), (b, a)):
            fp_first = memo_agrees(memo, plat, "madpipe", first)
            fp_second = memo_agrees(memo, plat, "madpipe", second)
            assert (fp_first == fp_second) is same

    @pytest.mark.parametrize(
        "value",
        [[1, 2], {"a": 1}, np.array([1, 2]), np.float64(4.0)],
        ids=["list", "mapping", "array", "numpy-scalar"],
    )
    def test_values_without_exact_key_fall_back(self, plat, value):
        memo = FingerprintMemo()
        memo_agrees(memo, plat, "madpipe", {"x": value})
        assert len(memo) == 0  # fingerprinted in full, nothing remembered
        memo_agrees(memo, plat, "madpipe", {"x": 1})
        assert len(memo) == 1


# ------------------------------------------------------------ JSON round-trip


class TestPlanResultJson:
    def test_round_trip_equality(self, plat):
        result = api.plan(toy(), plat, **PLAN_OPTS)
        reloaded = api.PlanResult.from_json(result.to_json())
        assert reloaded.to_json() == result.to_json()
        assert reloaded.algorithm == result.algorithm
        assert reloaded.period == result.period
        assert reloaded.status == result.status
        assert reloaded.pattern is not None
        assert reloaded.certificate is not None
        assert reloaded.certificate.to_dict() == result.certificate.to_dict()

    def test_round_trip_infeasible(self, plat):
        # a chain far beyond the platform memory: period must survive as INF
        result = api.plan(toy(weights=64 * 1024 * MB), plat, **PLAN_OPTS)
        assert not result.feasible
        reloaded = api.PlanResult.from_json(result.to_json())
        assert reloaded.period == float("inf")
        assert reloaded.to_json() == result.to_json()

    def test_json_is_strict(self, plat):
        # the wire form must survive a strict json dump/load cycle
        result = api.plan(toy(), plat, **PLAN_OPTS)
        text = json.dumps(result.to_json(), allow_nan=False, sort_keys=True)
        assert api.PlanResult.from_json(json.loads(text)).to_json() == result.to_json()

    @pytest.mark.parametrize(
        "bad",
        [None, [], {}, {"algorithm": "madpipe"}, {"status": "ok"},
         {"algorithm": "madpipe", "status": "ok", "pattern": 7}],
    )
    def test_malformed_rejected(self, bad):
        with pytest.raises(ValueError):
            api.PlanResult.from_json(bad)


# ------------------------------------------------------------- plan cache


class TestPlanStore:
    def test_persists_across_instances(self, tmp_path, plat):
        result = api.plan(toy(), plat, **PLAN_OPTS)
        path = tmp_path / "plans.jsonl"
        store = PlanStore(path)
        store.put(("fp1", result))
        store.flush()
        [line] = path.read_text().splitlines()
        assert json.loads(line) == {"fingerprint": "fp1", "plan": result.to_json()}
        again = PlanStore(path)
        assert again.get("fp1")[1].to_json() == result.to_json()
        assert again.get("fp2") is None

    def test_damaged_payload_quarantined(self, tmp_path, plat):
        result = api.plan(toy(), plat, **PLAN_OPTS)
        path = tmp_path / "plans.jsonl"
        store = PlanStore(path)
        store.put(("fp1", result))
        store.flush()
        with path.open("a") as fh:
            fh.write('{"fingerprint": "fp2", "plan": {"nope": 1}}\n')
            fh.write("not json at all\n")
        reloaded = PlanStore(path)
        assert reloaded.get("fp1")[1].to_json() == result.to_json()
        assert reloaded.get("fp2") is None
        assert len(reloaded.quarantined) == 2

    def test_one_tier_labels_and_dedup(self, tmp_path, plat):
        result = api.plan(toy(), plat, **PLAN_OPTS)
        path = tmp_path / "plans.jsonl"
        cache = PlanCache(memory_entries=4, store=path)
        assert cache.get("fp") is None
        cache.put("fp", result)
        cache.flush()
        assert cache.get("fp") == ("memory", result)
        assert cache.get("fp")[1] is result
        # a fresh cache holds what its store decoded at load: the first
        # hit reads "store", every later one "memory", on the same object
        cache2 = PlanCache(memory_entries=4, store=path)
        assert cache2.memory is None and len(cache2) == 1
        tier, stored = cache2.get("fp")
        assert tier == "store" and stored.to_json() == result.to_json()
        assert cache2.get("fp") == ("memory", stored)
        assert cache2.get("fp")[1] is stored
        # re-putting a reloaded plan must not append a duplicate record
        cache2.put("fp", stored)
        cache2.flush()
        assert sum(1 for line in path.open() if line.strip()) == 1

    def test_memory_tier_without_a_store(self, plat):
        result = api.plan(toy(), plat, **PLAN_OPTS)
        cache = PlanCache(memory_entries=1)
        cache.put("a", result)
        assert cache.get("a") == ("memory", result)
        cache.put("b", result)
        assert cache.get("a") is None and len(cache) == 1


# ------------------------------------------------------------- the service


class TestPlanService:
    def test_served_bit_identical_to_direct_plan(self, tmp_path, plat):
        chain = toy()
        with warmstart.activate(False):
            reference = api.plan(chain, plat, **PLAN_OPTS).to_json()

        async def scenario():
            async with make_service(tmp_path) as service:
                fresh = await service.handle(service.request(chain, plat, **PLAN_OPTS))
                cached = await service.handle(service.request(chain, plat, **PLAN_OPTS))
                return fresh, cached

        fresh, cached = run(scenario())
        assert fresh.served_from == "solve" and not fresh.cached
        assert cached.served_from == "memory" and cached.cached
        assert fresh.fingerprint == cached.fingerprint
        assert fresh.result.to_json() == reference
        assert cached.result.to_json() == reference

    def test_worker_payload_carries_the_request_itself(self, monkeypatch, plat):
        # the worker plans the request's own Chain and Platform (no second
        # decoder), and finds the fingerprint where the ledger stitches it
        from repro.serve import service as service_mod

        payloads = []
        solve = service_mod._solve_in_worker

        def recording(payload):
            payloads.append(payload)
            return solve(payload)

        monkeypatch.setattr(service_mod, "_solve_in_worker", recording)
        chain = toy()

        async def scenario():
            async with make_service() as service:
                return await service.handle(service.request(chain, plat, **PLAN_OPTS))

        reply = run(scenario())
        assert reply.served_from == "solve"
        [payload] = payloads
        assert payload[0] is chain
        assert payload[1] is plat
        assert payload[6] == reply.fingerprint

    def test_coalescing_single_flight(self, tmp_path, plat):
        chain = toy(5)

        async def scenario():
            async with make_service(tmp_path) as service:
                request = service.request(chain, plat, **PLAN_OPTS)
                replies = await asyncio.gather(
                    *(service.handle(request) for _ in range(6))
                )
                return replies, service.stats()

        replies, stats = run(scenario())
        sources = sorted(r.served_from for r in replies)
        assert sources.count("solve") == 1
        assert sources.count("coalesced") == 5
        assert stats["counters"]["serve.solves"] == 1
        assert stats["counters"]["serve.coalesced"] == 5
        first = replies[0].result.to_json()
        assert all(r.result.to_json() == first for r in replies)

    def test_restart_serves_from_store(self, tmp_path, plat):
        chain = toy(6)

        async def first():
            async with make_service(tmp_path) as service:
                reply = await service.handle(service.request(chain, plat, **PLAN_OPTS))
                return reply.result.to_json()

        async def second():
            async with make_service(tmp_path) as service:
                reply = await service.handle(service.request(chain, plat, **PLAN_OPTS))
                return reply, service.stats()

        before = run(first())
        reply, stats = run(second())
        assert reply.served_from == "store"
        assert reply.result.to_json() == before
        assert "serve.solves" not in stats["counters"]

    def test_store_hits_after_eviction_read_memory(self, tmp_path, plat):
        """With a store, the cache is the store's index: a plan solved in
        this lifetime hits as "memory" however small ``memory_entries``
        is, and every hit shares the one decoded plan."""
        a, b = toy(4), toy(5)

        async def scenario():
            async with make_service(tmp_path, memory_entries=1) as service:
                replies = []
                for chain in (a, b, a, a):
                    request = service.request(chain, plat, **PLAN_OPTS)
                    replies.append(await service.handle(request))
                fp = replies[0].fingerprint
                held = [service.cache.get(fp)[1] for _ in range(2)]
                return replies, held, service.stats()

        replies, held, stats = run(scenario())
        assert [r.served_from for r in replies] == ["solve", "solve", "memory", "memory"]
        assert held[0] is held[1]
        assert all(r.result.pattern is held[0].pattern for r in replies[::2])
        assert stats["counters"]["serve.hits_memory"] == 2
        assert "serve.hits_store" not in stats["counters"]
        assert stats["cached_plans"] == len({r.fingerprint for r in replies}) == 2

    def test_submit_positional_shorthand(self, plat):
        async def scenario():
            async with make_service() as service:
                return await service.submit(toy(), plat, **PLAN_OPTS)

        result = run(scenario())
        assert result.status == "ok"

    def test_closed_service_refuses(self, plat):
        async def scenario():
            service = make_service()
            await service.close()
            with pytest.raises(RuntimeError):
                await service.handle(service.request(toy(), plat, **PLAN_OPTS))

        run(scenario())

    def test_error_propagates_to_all_waiters(self, tmp_path, plat):
        faults.install(
            [Fault(site="serve_solve", action="raise", times=-1)], tmp_path
        )

        async def scenario():
            async with make_service(max_retries=0) as service:
                request = service.request(toy(), plat, **PLAN_OPTS)
                return await asyncio.gather(
                    *(service.handle(request) for _ in range(3)),
                    return_exceptions=True,
                )

        replies = run(scenario())
        assert all(isinstance(r, FaultInjected) for r in replies)


class TestHitPath:
    """A cache hit is a lookup: no decode, no fingerprint canonicalization,
    and each caller gets a reply it may scribble on."""

    @pytest.fixture
    def counted(self, monkeypatch):
        """Count ``PlanResult.from_json`` and ``canonical_value`` calls."""
        calls = {"from_json": 0, "canonical_value": 0}
        from_json = api.PlanResult.from_json.__func__
        canonical = warmstart.canonical_value

        def counting_from_json(cls, data):
            calls["from_json"] += 1
            return from_json(cls, data)

        def counting_canonical(value):
            calls["canonical_value"] += 1
            return canonical(value)

        monkeypatch.setattr(api.PlanResult, "from_json", classmethod(counting_from_json))
        monkeypatch.setattr(warmstart, "canonical_value", counting_canonical)
        return calls

    def test_hits_decode_and_canonicalize_nothing(self, tmp_path, plat, counted):
        chain = toy()
        with warmstart.activate(False):
            reference = api.plan(chain, plat, **PLAN_OPTS).to_json()

        async def first_lifetime():
            async with make_service(tmp_path) as service:
                await service.handle(service.request(chain, plat, **PLAN_OPTS))
                await service.handle(service.request(chain, plat, **PLAN_OPTS))
                # the counters start on the second memory hit
                counted.update(from_json=0, canonical_value=0)
                return await service.handle(service.request(chain, plat, **PLAN_OPTS))

        hit = run(first_lifetime())
        assert hit.served_from == "memory"
        assert counted == {"from_json": 0, "canonical_value": 0}
        assert hit.result.to_json() == reference

        async def restarted():
            async with make_service(tmp_path) as service:  # decodes the store once
                request = service.request(chain, plat, **PLAN_OPTS)
                counted.update(from_json=0, canonical_value=0)
                return await service.handle(request)

        hit = run(restarted())
        assert hit.served_from == "store"
        assert counted == {"from_json": 0, "canonical_value": 0}
        assert hit.result.to_json() == reference

    def test_mutated_reply_does_not_reach_the_next_hit(self, tmp_path, plat):
        chain = toy()
        with warmstart.activate(False):
            reference = api.plan(chain, plat, **PLAN_OPTS).to_json()

        def scribble(result):
            result.period = result.dp_period = 0.0
            result.status = "scribbled"
            result.algorithm = "gpipe"
            result.pattern = result.certificate = None
            result.metrics["serve.hits"] = 99.0

        async def scenario():
            async with make_service(tmp_path) as service:
                replies = []
                for _ in range(3):
                    reply = await service.handle(service.request(chain, plat, **PLAN_OPTS))
                    replies.append(reply)
                    assert reply.result.metrics == {}
                    assert reply.result.to_json() == reference
                    scribble(reply.result)
                return replies

        replies = run(scenario())
        assert [r.served_from for r in replies] == ["solve", "memory", "memory"]

    def test_decode_span_on_a_miss_only(self, tmp_path, plat):
        chain = toy()
        trace = obs.Trace("serve")

        async def scenario():
            with obs.use_trace(trace):
                async with make_service(tmp_path) as service:
                    for _ in range(2):
                        await service.handle(service.request(chain, plat, **PLAN_OPTS))
                # a restart loads (and decodes) the store outside any span
                async with make_service(tmp_path) as service:
                    await service.handle(service.request(chain, plat, **PLAN_OPTS))

        run(scenario())
        miss, hit, store_hit = trace.find("serve.request")
        assert miss.attrs["served_from"] == "solve"
        assert [c.name for c in miss.children] == ["serve.decode"]
        assert hit.attrs["served_from"] == "memory"
        assert hit.children == []
        assert store_hit.attrs["served_from"] == "store"
        assert store_hit.children == []
        assert trace.find("serve.decode") == miss.children
        assert [root.name for root in trace.roots] == ["serve.request"] * 3


class TestKillAndRestart:
    """The acceptance scenario: a service killed mid-replay resumes from
    the persistent store with no duplicate solves and identical answers."""

    CHAINS = (3, 4, 5, 6)

    def replay(self, plat):
        return [toy(L) for L in self.CHAINS for _ in range(2)]

    @pytest.mark.faultinject
    def test_resume_without_duplicate_solves(self, tmp_path, plat):
        chains = self.replay(plat)
        with warmstart.activate(False):
            references = {
                chain.name: api.plan(chain, plat, **PLAN_OPTS).to_json()
                for chain in chains
            }
        # the service dies (hard, uncaught) before its 3rd distinct solve
        faults.install(
            [Fault(site="serve_solve", action="raise", after=2, times=-1)],
            tmp_path / "faults",
        )

        async def killed_replay():
            served = []
            service = make_service(tmp_path, max_retries=0)
            try:
                for chain in chains:
                    request = service.request(chain, plat, **PLAN_OPTS)
                    served.append(await service.handle(request))
            finally:
                # emulate process death: nothing graceful, but the store
                # has already persisted every completed solve
                service.cache.flush()
            return served

        with pytest.raises(FaultInjected):
            run(killed_replay())
        faults.clear()

        async def resumed_replay():
            async with make_service(tmp_path, max_retries=0) as service:
                replies = []
                for chain in chains:
                    request = service.request(chain, plat, **PLAN_OPTS)
                    replies.append(await service.handle(request))
                return replies, service.stats()

        replies, stats = run(resumed_replay())
        # the 2 pre-kill solves come back from the store, never re-solved
        assert stats["counters"]["serve.solves"] == len(self.CHAINS) - 2
        served_from = [r.served_from for r in replies]
        assert served_from.count("store") == 2
        for reply, chain in zip(replies, chains):
            assert reply.result.to_json() == references[chain.name]

    @pytest.mark.faultinject
    def test_hard_worker_death_restarts_pool(self, tmp_path, plat):
        # the worker process dies with os._exit (as SIGKILL would): the
        # pool is rebuilt and the retry succeeds
        chain = toy()
        faults.install(
            [Fault(site="serve_worker", action="exit", times=1)],
            tmp_path / "faults",
        )
        with warmstart.activate(False):
            reference = api.plan(chain, plat, **PLAN_OPTS).to_json()

        async def scenario():
            async with make_service(
                tmp_path, max_workers=1, max_retries=1, retry_backoff_s=0.01
            ) as service:
                reply = await service.handle(service.request(chain, plat, **PLAN_OPTS))
                return reply, service.stats()

        reply, stats = run(scenario())
        assert reply.result.to_json() == reference
        assert stats["counters"]["serve.pool_restarts"] == 1
        assert stats["counters"]["serve.retries"] == 1

    @pytest.mark.faultinject
    def test_pool_restart_cap(self, tmp_path, plat):
        # the pool dies on *every* dispatch: consecutive rebuilds are
        # capped and surfaced as a typed error instead of a restart storm
        # that burns the whole retry budget re-spawning doomed workers
        chain = toy()
        faults.install(
            [Fault(site="serve_worker", action="exit", times=-1)],
            tmp_path / "faults",
        )

        async def scenario():
            async with make_service(
                tmp_path, max_workers=1, max_retries=5, retry_backoff_s=0.01,
                max_pool_restarts=1,
            ) as service:
                with pytest.raises(api.PoolExhaustedError):
                    await service.handle(
                        service.request(chain, plat, **PLAN_OPTS)
                    )
                return service.stats()

        stats = run(scenario())
        assert stats["counters"]["serve.pool_restarts"] == 2
        assert stats["counters"]["serve.pool_exhausted"] == 1
        assert stats["counters"]["serve.errors"] == 1

    @pytest.mark.faultinject
    def test_one_worker_death_is_one_pool_restart(self, tmp_path, plat):
        # every request in flight sees the same BrokenProcessPool: only
        # the first to see it rebuilds the pool and counts the death, the
        # others just retry, so one death never exhausts the restart cap
        chains = [toy(L) for L in (3, 4, 5, 6)]
        faults.install(
            [Fault(site="serve_worker", action="exit", times=1)],
            tmp_path / "faults",
        )

        async def scenario():
            async with make_service(
                tmp_path, max_workers=2, max_retries=2, retry_backoff_s=0.01,
                max_pool_restarts=1,
            ) as service:
                replies = await asyncio.gather(*(
                    service.handle(service.request(chain, plat, **PLAN_OPTS))
                    for chain in chains
                ))
                return replies, service.stats()

        replies, stats = run(scenario())
        assert [r.result.status for r in replies] == ["ok"] * 4
        assert stats["counters"]["serve.solves"] == 4
        assert stats["counters"]["serve.pool_restarts"] == 1

    @pytest.mark.faultinject
    def test_transient_worker_crash_retried(self, tmp_path, plat):
        chain = toy(5)
        faults.install(
            [Fault(site="serve_worker", action="raise", times=1)],
            tmp_path / "faults",
        )

        async def scenario():
            async with make_service(
                max_retries=1, retry_backoff_s=0.01
            ) as service:
                reply = await service.handle(service.request(chain, plat, **PLAN_OPTS))
                return reply, service.stats()

        reply, stats = run(scenario())
        assert reply.result.status == "ok"
        assert stats["counters"]["serve.retries"] == 1


# ------------------------------------------------------------------ CLI


class TestServeCli:
    def requests_file(self, tmp_path):
        path = tmp_path / "requests.jsonl"
        lines = [
            {"id": 1, "network": "toy4", "procs": 2, "memory_gb": 8},
            {"id": 2, "network": "toy4", "procs": 2, "memory_gb": 8},
            {"id": 3, "network": "toy6", "procs": 2, "memory_gb": 8,
             "algorithm": "gpipe"},
        ]
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        return path

    def cli(self, tmp_path, capsys, *extra):
        rc = cli_main(
            ["serve", str(self.requests_file(tmp_path)),
             "--store", str(tmp_path / "plans.jsonl"), "--workers", "0",
             "--quiet", *extra]
        )
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        return rc, out[:-1], out[-1]["stats"]

    def test_replay_then_restart(self, tmp_path, capsys):
        rc, responses, stats = self.cli(tmp_path, capsys)
        assert rc == 0
        assert all(r["ok"] for r in responses)
        assert {r["id"] for r in responses} == {1, 2, 3}
        assert stats["counters"]["serve.solves"] == 2
        assert stats["counters"]["serve.coalesced"] == 1
        # restart against the same store: nothing solves again
        rc, responses, stats = self.cli(tmp_path, capsys)
        assert rc == 0
        assert "serve.solves" not in stats["counters"]
        assert stats["counters"]["serve.hits"] == 3

    def test_emit_plans_round_trip(self, tmp_path, capsys):
        rc, responses, _ = self.cli(tmp_path, capsys, "--emit-plans")
        assert rc == 0
        for response in responses:
            reloaded = api.PlanResult.from_json(response["plan"])
            assert reloaded.status == response["status"]

    def test_emitted_plan_is_the_cached_payload(self, tmp_path, capsys):
        """``--emit-plans`` encodes the served plan: every tier emits the
        same bytes for one request, and they are the bytes of
        ``PlanResult.to_json()``."""
        plans: dict[str, dict[str, str]] = {}
        for _ in range(2):  # solve + coalesced, then store + memory
            rc, responses, _ = self.cli(tmp_path, capsys, "--emit-plans")
            assert rc == 0
            for r in responses:
                plans.setdefault(r["fingerprint"], {})[r["served_from"]] = (
                    json.dumps(r["plan"], sort_keys=True)
                )
        tiers = {tier for by_tier in plans.values() for tier in by_tier}
        assert tiers == {"solve", "coalesced", "store", "memory"}
        for by_tier in plans.values():
            [text] = set(by_tier.values())
            encoded = api.PlanResult.from_json(json.loads(text)).to_json()
            assert text == json.dumps(encoded, sort_keys=True)

    def test_bad_request_reported_not_fatal(self, tmp_path, capsys):
        path = tmp_path / "requests.jsonl"
        path.write_text(
            '{"id": 1, "network": "toy4", "procs": 2, "memory_gb": 8}\n'
            '{"id": 2, "network": "zzz", "procs": 2}\n'
            "not json\n"
        )
        rc = cli_main(
            ["serve", str(path), "--workers", "0", "--quiet"]
        )
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rc == 1
        by_ok = {bool(r.get("ok")) for r in out[:-1]}
        assert by_ok == {True, False}
        assert sum(1 for r in out[:-1] if not r["ok"]) == 2
        # both failures happened before the service: parse-stage errors
        assert all(r["stage"] == "parse" for r in out[:-1] if not r["ok"])

    @pytest.mark.parametrize("degraded", [[], ["--degraded"]], ids=["strict", "degraded"])
    def test_invalid_request_is_a_parse_error(self, tmp_path, capsys, degraded):
        # an unknown algorithm or option is a bad request: answered at the
        # parse stage, never solved, degraded or counted in serve.errors
        base = {"network": "toy4", "procs": 2, "memory_gb": 8}
        lines = [
            dict(base, id=1),
            dict(base, id=2, algorithm="magic"),
            dict(base, id=3, opts={"bogus": 1}),
            dict(base, id=4, algorithm="pipedream", opts={"grid": "coarse"}),
            dict(base, id=5, opts={"schedule_family": "bogus"}),
            dict(base, id=6, algorithm="gpipe", opts={"schedule_family": "zero_bubble"}),
        ]
        path = tmp_path / "requests.jsonl"
        path.write_text("".join(json.dumps(obj) + "\n" for obj in lines))
        rc = cli_main(["serve", str(path), "--workers", "0", "--quiet", *degraded])
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rc == 1
        by_id = {r["id"]: r for r in out[:-1]}
        assert by_id[1]["ok"] and by_id[1]["served_from"] == "solve"
        for rid in (2, 3, 4, 5, 6):
            assert not by_id[rid]["ok"] and by_id[rid]["stage"] == "parse"
        counters = out[-1]["stats"]["counters"]
        assert counters["serve.requests"] == 1
        assert "serve.errors" not in counters and "serve.degraded" not in counters

    def test_inline_chain_served(self, tmp_path, capsys):
        from repro.models import uniform_chain

        chain = uniform_chain(4, u_f=0.01, u_b=0.02, weights=1e6, activation=1e6)
        path = tmp_path / "requests.jsonl"
        path.write_text(
            json.dumps(
                {"id": 9, "chain": chain.to_dict(), "procs": 2, "memory_gb": 8}
            )
            + "\n"
        )
        rc = cli_main(["serve", str(path), "--workers", "0", "--quiet"])
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert rc == 0
        (response,) = out[:-1]
        assert response["ok"] and response["id"] == 9
        assert response["period"] is not None

    def test_malformed_inline_chain_structured_error(self, tmp_path, capsys):
        # an inline profile failing Chain validation must come back as a
        # structured per-line ok=false with the reason, at the parse
        # stage — never as a generic serve.errors solve failure
        bad = {
            "name": "bad",
            "input_activation": 1e6,
            "layers": [
                {"name": "l1", "u_f": -1.0, "u_b": 0.1,
                 "weights": 1e6, "activation": 1e6},
            ],
        }
        path = tmp_path / "requests.jsonl"
        path.write_text(
            json.dumps({"id": 1, "chain": bad, "procs": 2, "memory_gb": 8})
            + "\n"
            + json.dumps({"id": 2, "chain": {"layers": []}, "procs": 2})
            + "\n"
        )
        rc = cli_main(["serve", str(path), "--workers", "0", "--quiet"])
        out = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        stats = out[-1]["stats"]
        assert rc == 1
        for response in out[:-1]:
            assert response["ok"] is False
            assert response["stage"] == "parse"
        by_id = {r["id"]: r for r in out[:-1]}
        assert "negative duration" in by_id[1]["error"]
        assert "input_activation" in by_id[2]["error"]
        # the solver was never reached: no solve failures counted
        assert "serve.errors" not in stats["counters"]
        assert "serve.solves" not in stats["counters"]
