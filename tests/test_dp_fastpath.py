"""Golden-equivalence tests for the vectorized MadPipe-DP fast path.

The vectorized solver (:func:`repro.algorithms.madpipe_dp.madpipe_dp`)
must return *identical* results — same ``dp_period``, same allocation,
same ``effective_period``, same reachable-state count — as the
kept-for-reference recursive implementation
(:func:`tests.oracles.madpipe_dp_reference.madpipe_dp_reference`),
across randomized chains, platforms, targets and grids.  Likewise the
parallel experiment harness must reproduce the serial results, and the
JSONL result cache must round-trip.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.algorithms.madpipe_dp import Discretization, algorithm1, madpipe_dp
from repro.core import Platform
from repro.experiments import ResultCache, run_grid
from repro.models import random_chain, uniform_chain

from tests.oracles.madpipe_dp_reference import madpipe_dp_reference

INF = float("inf")
COARSE = Discretization.coarse()


def assert_identical(fast, ref):
    assert fast.dp_period == ref.dp_period
    assert fast.effective_period == ref.effective_period
    assert fast.states == ref.states
    assert (fast.allocation is None) == (ref.allocation is None)
    if fast.allocation is not None:
        assert fast.allocation.stages == ref.allocation.stages
        assert fast.allocation.special == ref.allocation.special


#: Seeded random chains plus a uniform one, whose candidates tie.
CONTIGUOUS_CHAINS = [
    random_chain(7 + 2 * seed, seed=seed, decay=0.15 + 0.05 * seed, name=f"random{seed}")
    for seed in range(5)
] + [uniform_chain(9, weights=2**24, activation=2**25)]


class TestGoldenEquivalence:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_chains(self, seed):
        chain = random_chain(8 + 3 * seed, seed=seed, decay=0.1 + 0.05 * seed)
        u = chain.total_compute()
        platform = Platform.of(2 + seed % 3, 0.5 * (1 + seed % 4), 12)
        for target in (u / platform.n_procs, u / 2, u):
            fast = madpipe_dp(chain, platform, target, grid=COARSE)
            ref = madpipe_dp_reference(chain, platform, target, grid=COARSE)
            assert_identical(fast, ref)

    @pytest.mark.parametrize(
        "n_t,n_m,n_v",
        [(2, 2, 2), (9, 3, 5), (25, 7, 15), (5, 11, 3), (101, 11, 51)],
    )
    def test_grid_shapes(self, n_t, n_m, n_v):
        chain = random_chain(10, seed=42, decay=0.2)
        platform = Platform.of(3, 1.0, 12)
        grid = Discretization(n_t, n_m, n_v)
        target = chain.total_compute() / 2
        assert_identical(
            madpipe_dp(chain, platform, target, grid=grid),
            madpipe_dp_reference(chain, platform, target, grid=grid),
        )

    @pytest.mark.parametrize("n_procs", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "chain", CONTIGUOUS_CHAINS, ids=[c.name for c in CONTIGUOUS_CHAINS]
    )
    def test_contiguous_mode(self, chain, n_procs):
        """The dense contiguous kernel (``allow_special=False``) against the
        naive DP, counters recounted by a scalar loop: three targets; caps
        none, one stage's exact load and below every layer (``jm = 0``);
        and a platform too small for any stage.  The uniform chain's many
        equal candidates pin the first-minimum tie-break."""
        u, L = chain._cum_u, chain.L
        total = float(u[-1])
        caps = (INF, float(u[L - 1] - u[1]), 0.5 * float(np.diff(u).min()))
        outcomes = set()
        for memory in (1.0, 2.0, 2**-20):
            platform = Platform.of(n_procs, memory, 12)
            for target in (total / n_procs, total / 2, total):
                for cap in caps:
                    fast = madpipe_dp(chain, platform, target, grid=COARSE,
                                      period_cap=cap, allow_special=False)
                    ref = madpipe_dp_reference(chain, platform, target, grid=COARSE,
                                               period_cap=cap, allow_special=False)
                    assert_identical(fast, ref)
                    assert (fast.states, fast.pruned_cap, fast.pruned_mem) == (
                        recount_pruning(chain, platform, target, COARSE, cap, False)
                    )
                    outcomes.add((memory, fast.feasible))
        assert (2.0, True) in outcomes and (2**-20, True) not in outcomes

    def test_period_cap(self):
        chain = random_chain(12, seed=5, decay=0.15)
        platform = Platform.of(4, 2.0, 12)
        u = chain.total_compute()
        for cap in (u * 0.6, u * 0.9, INF):
            assert_identical(
                madpipe_dp(chain, platform, u / 3, grid=COARSE, period_cap=cap),
                madpipe_dp_reference(
                    chain, platform, u / 3, grid=COARSE, period_cap=cap
                ),
            )

    def test_infeasible_instances(self):
        chain = uniform_chain(8, u_f=1.0, u_b=2.0, weights=2**22, activation=2**23)
        tiny = Platform.of(2, 2**20 / 2**30, 12)
        fast = madpipe_dp(chain, tiny, chain.total_compute(), grid=COARSE)
        ref = madpipe_dp_reference(chain, tiny, chain.total_compute(), grid=COARSE)
        assert not fast.feasible
        assert_identical(fast, ref)

    def test_single_processor_roots(self):
        """P=1 with the special processor makes the root a p==0 state."""
        chain = random_chain(6, seed=9)
        platform = Platform.of(1, 8.0, 12)
        target = chain.total_compute()
        assert_identical(
            madpipe_dp(chain, platform, target, grid=COARSE),
            madpipe_dp_reference(chain, platform, target, grid=COARSE),
        )

    def test_algorithm1_binary_search(self):
        """The full T̂ search lands on the same optimum either way."""
        chain = random_chain(14, seed=11, decay=0.2)
        platform = Platform.of(4, 1.5, 12)
        fast = algorithm1(chain, platform, iterations=6, grid=COARSE)
        ref = algorithm1(
            chain, platform, iterations=6, grid=COARSE, dp=madpipe_dp_reference
        )
        assert fast.period == ref.period
        assert fast.target == ref.target
        assert fast.history == ref.history
        if fast.allocation is not None:
            assert fast.allocation.stages == ref.allocation.stages
            assert fast.allocation.special == ref.allocation.special

    def test_diagnostics_populated(self):
        chain = random_chain(10, seed=1)
        platform = Platform.of(3, 1.0, 12)
        res = madpipe_dp(
            chain,
            platform,
            chain.total_compute() / 2,
            grid=COARSE,
            period_cap=chain.total_compute(),
        )
        assert res.states > 0
        assert res.wall_time_s > 0
        assert res.pruned_mem >= 0 and res.pruned_cap >= 0
        a1 = algorithm1(chain, platform, iterations=3, grid=COARSE)
        assert a1.states > 0
        assert a1.wall_time_s > 0


def recount_pruning(chain, platform, target, grid, cap, allow_special):
    """``(states, pruned_cap, pruned_mem)`` of one DP evaluation, recounted
    with a plain scalar loop over every reachable ``(state, k)`` candidate
    of both branches."""
    L, P, M = chain.L, platform.n_procs, platform.memory
    t_max = chain.total_compute()
    v_max = t_max + chain.total_comm(platform.bandwidth)
    t_step, m_step = t_max / (grid.n_t - 1), M / (grid.n_m - 1)
    v_step = v_max / (grid.n_v - 1)
    cumU, cumW = chain._cum_u.tolist(), chain._cum_w.tolist()
    cumA, act = chain._cum_a_in.tolist(), chain._act.tolist()

    def up(x, step):
        return math.ceil(x / step - 1e-9)

    def oplus(x, y):
        return x + y if up(x, target) == up(x + y, target) else target * up(x, target) + y

    def mem(k, l, g):
        m = 3.0 * (cumW[l] - cumW[k - 1]) + g * (cumA[l] - cumA[k - 1])
        return m + (2.0 * act[k - 1] if k > 1 else 0.0) + (2.0 * act[l] if l < L else 0.0)

    reach = {l: set() for l in range(L + 1)}
    reach[L].add((P - 1 if allow_special else P, 0, 0, 0))
    states = pruned_cap = pruned_mem = 0
    for l in range(L, 0, -1):
        states += len(reach[l])
        for p, it, im, iv in reach[l]:
            if p == 0:
                continue
            t_P, m_P, V = it * t_step, im * m_step, iv * v_step
            for k in range(l, 0, -1):
                U = cumU[l] - cumU[k - 1]
                comm = 2.0 * act[k - 1] / platform.bandwidth if k > 1 else 0.0
                g = max(up(V + U, target), 1)
                iv2 = min(up(oplus(oplus(V, U), comm), v_step), grid.n_v - 1)
                if U >= cap:
                    pruned_cap += 1
                elif mem(k, l, g) > M + 1e-9:
                    pruned_mem += 1
                else:
                    reach[k - 1].add((p - 1, it, im, iv2))
                if not allow_special:
                    continue
                t2, m2 = t_P + U, m_P + mem(k, l, g - 1)
                if t2 >= cap:
                    pruned_cap += 1
                elif m2 > M + 1e-9:
                    pruned_mem += 1
                else:
                    it2 = min(up(t2, t_step), grid.n_t - 1)
                    im2 = min(up(m2, m_step), grid.n_m - 1)
                    reach[k - 1].add((p, it2, im2, iv2))
    return states, pruned_cap, pruned_mem


class TestPruningCounters:
    @pytest.mark.parametrize("allow_special", [True, False])
    def test_counts_every_rejected_candidate(self, allow_special):
        """Both counters count one per rejected ``(state, k)`` candidate,
        in both branches, exactly as a scalar loop does."""
        chain = random_chain(9, seed=4, decay=0.2)
        platform = Platform.of(3, 1.0, 12)
        u = chain.total_compute()
        totals = [0, 0]
        for target, cap in ((u / 3, u * 0.45), (u / 2, u * 0.7), (u, INF)):
            res = madpipe_dp(
                chain, platform, target, grid=COARSE, period_cap=cap,
                allow_special=allow_special,
            )
            assert (res.states, res.pruned_cap, res.pruned_mem) == recount_pruning(
                chain, platform, target, COARSE, cap, allow_special
            )
            totals[0] += res.pruned_cap
            totals[1] += res.pruned_mem
        assert min(totals) > 0  # both counters are exercised


class TestClosingCheck:
    """Both kernels decide feasibility from the reachability pass alone and
    skip the value sweep when no reachable state closes the chain: a
    level-0 state, or a ``p == 0`` state whose special-processor base
    case fits.  Skipping changes no field of the result."""

    @pytest.mark.parametrize("allow_special", [True, False])
    @pytest.mark.parametrize("n_procs", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_reference(self, seed, n_procs, allow_special):
        """Tight memories (fractions of the chain's one-stage footprint),
        three targets, caps none / one stage's load / below every layer.
        Under the special kernel at P = 1 the root is itself a ``p == 0``
        state, so only the base case can close the chain; a check that
        reads only level 0 refutes those feasible probes."""
        chain = random_chain(6 + 2 * seed, seed=seed, decay=0.1 + 0.1 * seed)
        u, L = chain._cum_u, chain.L
        caps = (INF, float(u[L - 1] - u[1]), 0.5 * float(np.diff(u).min()))
        footprint = 3.0 * float(chain._cum_w[-1]) + float(chain._cum_a_in[-1])
        outcomes = set()
        for share in (0.2, 0.4, 1.0):
            platform = Platform(n_procs, share * footprint, 12e9)
            for target in (u[-1] / n_procs, u[-1] / 2, u[-1]):
                for cap in caps:
                    opts = dict(grid=COARSE, period_cap=cap, allow_special=allow_special)
                    fast = madpipe_dp(chain, platform, target, **opts)
                    ref = madpipe_dp_reference(chain, platform, target, **opts)
                    assert_identical(fast, ref)
                    assert (fast.states, fast.pruned_cap, fast.pruned_mem) == (
                        recount_pruning(chain, platform, target, COARSE, cap,
                                        allow_special)
                    )
                    assert fast.swept == fast.feasible
                    outcomes.add(fast.feasible)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("allow_special", [True, False])
    def test_counter_and_span(self, allow_special):
        """``dp.value_sweeps_skipped`` counts a search's infeasible probes,
        and each ``madpipe.dp`` span says whether its probe swept."""
        chain = random_chain(12, seed=1, decay=0.15)
        platform = Platform.of(4, 1.0, 12)
        registry, trace = obs.MetricsRegistry(), obs.Trace()
        with obs.use_metrics(registry), obs.use_trace(trace):
            res = algorithm1(chain, platform, iterations=8, grid=COARSE,
                             allow_special=allow_special,
                             upper=0.5 * chain.total_compute())
        swept = [T < INF for _, T in res.history]
        assert 0 < swept.count(False) < len(swept)
        assert registry.get("dp.value_sweeps_skipped") == swept.count(False)
        assert [s.attrs["swept"] for s in trace.find("madpipe.dp")] == swept


class TestColumnTrimming:
    """The fast path keeps only the cuts whose ``U(k, l)`` is under the
    period cap; results and counters must not notice."""

    CHAIN = random_chain(12, seed=5, decay=0.15)
    PLATFORM = Platform.of(4, 2.0, 12)

    def check(self, cap, **opts):
        chain, platform = self.CHAIN, self.PLATFORM
        target = chain.total_compute() / 3
        for allow_special in (True, False):
            fast = madpipe_dp(chain, platform, target, grid=COARSE, period_cap=cap,
                              allow_special=allow_special, **opts)
            ref = madpipe_dp_reference(chain, platform, target, grid=COARSE,
                                       period_cap=cap, allow_special=allow_special)
            assert_identical(fast, ref)
            assert (fast.states, fast.pruned_cap, fast.pruned_mem) == recount_pruning(
                chain, platform, target, COARSE, cap, allow_special
            )
        return fast

    def test_cap_below_every_layer(self):
        """``jm = 0`` at every level: the root's cuts are all pruned."""
        u = self.CHAIN._cum_u
        cap = 0.5 * float(np.diff(u).min())
        res = self.check(cap)
        assert not res.feasible and res.states == 1 and res.pruned_mem == 0

    @pytest.mark.parametrize("k, l", [(1, 6), (4, 12), (9, 9)])
    def test_cap_equal_to_a_stage_load(self, k, l):
        """A cut whose ``U(k, l)`` equals the cap is over it (strict ``<``)."""
        u = self.CHAIN._cum_u
        self.check(float(u[l] - u[k - 1]))

    @pytest.mark.parametrize("scale", [0.0, 0.45, 0.7])
    def test_warm_carry_path(self, scale):
        """The warm path: a shared workspace whose rows were built under
        another cap and target."""
        u = self.CHAIN._cum_u
        cap = scale * float(u[-1]) or 0.5 * float(np.diff(u).min())
        workspace = {}
        madpipe_dp(self.CHAIN, self.PLATFORM, float(u[-1]) / 2, grid=COARSE,
                   workspace=workspace)
        self.check(cap, workspace=workspace)


class TestParallelHarness:
    GRID_ARGS = (("resnet50",), (2,), (6.0, 10.0), (12.0,))
    GRID_KW = dict(
        algorithms=("pipedream", "madpipe"),
        grid=COARSE,
        iterations=3,
        ilp_time_limit=10.0,
    )

    def test_parallel_matches_serial(self):
        serial = run_grid(*self.GRID_ARGS, **self.GRID_KW)
        parallel = run_grid(*self.GRID_ARGS, n_workers=2, **self.GRID_KW)
        assert [r.key for r in serial] == [r.key for r in parallel]
        for a, b in zip(serial, parallel):
            assert a.dp_period == b.dp_period
            assert a.valid_period == b.valid_period
            assert a.n_stages == b.n_stages

    def test_parallel_uses_and_fills_cache(self, tmp_path):
        cache = ResultCache(tmp_path / "c.jsonl", flush_every=3)
        first = run_grid(*self.GRID_ARGS, n_workers=2, cache=cache, **self.GRID_KW)
        assert len(cache) == len(first)
        # a fresh cache over the same file replays without recomputing
        replay_cache = ResultCache(tmp_path / "c.jsonl")
        replayed = run_grid(
            *self.GRID_ARGS, n_workers=2, cache=replay_cache, **self.GRID_KW
        )
        assert [r.key for r in replayed] == [r.key for r in first]
        assert all(r.runtime_s == s.runtime_s for r, s in zip(replayed, first))


def mk(network, p, m, b, algo, dp, valid):
    from repro.experiments import RunResult

    return RunResult(
        network=network,
        n_procs=p,
        memory_gb=m,
        bandwidth_gbps=b,
        algorithm=algo,
        dp_period=dp,
        valid_period=valid,
        n_stages=p,
        runtime_s=0.1,
        sequential=1.0,
    )


class TestJSONLCache:
    def test_append_only_io(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        for i in range(5):
            cache.put(mk("net", 2, float(i), 12.0, "madpipe", 0.5, 0.6))
        lines = path.read_text().splitlines()
        assert len(lines) == 5
        assert all(json.loads(line)["network"] == "net" for line in lines)

    def test_batched_flush(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path, flush_every=10)
        for i in range(4):
            cache.put(mk("net", 2, float(i), 12.0, "madpipe", 0.5, 0.6))
        assert not path.exists() or not path.read_text().strip()
        cache.flush()
        assert len(path.read_text().splitlines()) == 4

    def test_duplicate_keys_keep_latest(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultCache(path)
        cache.put(mk("net", 2, 4.0, 12.0, "madpipe", 0.5, 0.6))
        cache.put(mk("net", 2, 4.0, 12.0, "madpipe", 0.4, 0.45))
        reopened = ResultCache(path)
        assert len(reopened) == 1
        assert reopened.get(("net", 2, 4.0, 12.0, "madpipe")).valid_period == 0.45
