"""Tests for MadPipe phase 1: the DP and the T̂ binary search (§4.2)."""

import importlib

import pytest

from repro import obs
from repro.algorithms.madpipe import madpipe
from repro.algorithms.madpipe_dp import (
    Discretization,
    DPAllocation,
    algorithm1,
    madpipe_dp,
)
from repro.core import Platform, Stage
from repro.experiments.scenarios import paper_chain
from repro.models import random_chain

from tests.oracles.madpipe_dp_reference import madpipe_dp_reference

MB = float(2**20)
INF = float("inf")
COARSE = Discretization.coarse()
dp_module = importlib.import_module("repro.algorithms.madpipe_dp")
madpipe_module = importlib.import_module("repro.algorithms.madpipe")


class TestDiscretization:
    def test_presets(self):
        assert Discretization.paper() == Discretization(101, 11, 51)
        assert Discretization.coarse().n_t < Discretization.default().n_t

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            Discretization(1, 5, 5)


class TestMadPipeDP:
    def test_returns_cover(self, cnnlike16, roomy4):
        res = madpipe_dp(cnnlike16, roomy4, cnnlike16.total_compute() / 4, grid=COARSE)
        assert res.feasible
        stages = res.allocation.stages
        assert stages[0].start == 1
        assert stages[-1].end == 16
        for a, b in zip(stages, stages[1:]):
            assert b.start == a.end + 1

    def test_period_at_least_load_bound(self, cnnlike16, roomy4):
        res = madpipe_dp(cnnlike16, roomy4, cnnlike16.total_compute() / 4, grid=COARSE)
        assert res.dp_period >= cnnlike16.total_compute() / 4 - 1e-9

    def test_materialized_allocation_valid(self, cnnlike16, roomy4):
        res = madpipe_dp(cnnlike16, roomy4, cnnlike16.total_compute() / 4, grid=COARSE)
        alloc = res.allocation.to_allocation(roomy4)
        alloc.validate(cnnlike16, roomy4)
        assert len(alloc.special_procs()) <= 1

    def test_contiguous_mode(self, cnnlike16, roomy4):
        res = madpipe_dp(
            cnnlike16,
            roomy4,
            cnnlike16.total_compute() / 4,
            grid=COARSE,
            allow_special=False,
        )
        assert res.feasible
        assert not any(res.allocation.special)
        alloc = res.allocation.to_allocation(roomy4)
        assert alloc.is_contiguous()

    def test_higher_target_relaxes_memory(self, cnnlike16):
        """MadPipe-DP(T̂) is non-increasing in T̂ (§4.2.3)."""
        plat = Platform.of(4, 1.0, 12)
        u = cnnlike16.total_compute()
        periods = []
        for target in (u / 4, u / 2, u):
            res = madpipe_dp(cnnlike16, plat, target, grid=COARSE)
            periods.append(res.dp_period if res.feasible else float("inf"))
        assert periods[0] >= periods[-1] - 1e-9

    def test_infeasible_when_memory_tiny(self, uniform8):
        tiny = Platform.of(2, 1 * MB / 2**30, 12)
        res = madpipe_dp(uniform8, tiny, uniform8.total_compute(), grid=COARSE)
        assert not res.feasible

    def test_invalid_target(self, uniform8, plat2):
        with pytest.raises(ValueError):
            madpipe_dp(uniform8, plat2, 0.0)

    def test_effective_period(self, cnnlike16, roomy4):
        u = cnnlike16.total_compute()
        res = madpipe_dp(cnnlike16, roomy4, u, grid=COARSE)
        assert res.effective_period == max(res.dp_period, u)

    def test_period_cap_prunes_but_preserves_good_solutions(self, cnnlike16, roomy4):
        target = cnnlike16.total_compute() / 4
        free = madpipe_dp(cnnlike16, roomy4, target, grid=COARSE)
        capped = madpipe_dp(
            cnnlike16, roomy4, target, grid=COARSE, period_cap=free.dp_period * 1.5
        )
        assert capped.feasible
        assert capped.dp_period <= free.dp_period * 1.5 + 1e-9

    @pytest.mark.parametrize("dp", [madpipe_dp, madpipe_dp_reference],
                             ids=["fast", "reference"])
    def test_period_cap_bounds_the_answer(self, dp, cnnlike16, roomy4):
        u = cnnlike16.total_compute()
        period_cap = u / 8 * (1 + 1e-9)
        res = dp(cnnlike16, roomy4, u / 4, grid=COARSE, period_cap=period_cap)
        assert not res.feasible or res.dp_period < period_cap


class TestAlgorithm1:
    def test_beats_or_matches_naive_target(self, cnnlike16, roomy4):
        res = algorithm1(cnnlike16, roomy4, iterations=6, grid=COARSE)
        assert res.feasible
        # never worse than the trivial single-GPU period
        assert res.period <= cnnlike16.total_compute() + 1e-9
        # never better than the perfect-balance bound
        assert res.period >= cnnlike16.total_compute() / 4 - 1e-9

    def test_history_recorded(self, cnnlike16, roomy4):
        res = algorithm1(cnnlike16, roomy4, iterations=5, grid=COARSE)
        assert len(res.history) == 5

    def test_special_used_under_pressure(self):
        """With heterogeneous layers and tight memory, the special
        processor should eventually pick up more than one stage."""
        used_special = False
        for seed in (0, 1, 2, 3, 4):
            chain = random_chain(16, seed=seed, decay=0.25)
            for mem in (2.0, 1.0, 0.6):
                res = algorithm1(
                    chain, Platform.of(4, mem, 12), iterations=6, grid=COARSE
                )
                if res.feasible and sum(res.allocation.special) > 1:
                    used_special = True
                    break
            if used_special:
                break
        assert used_special

    def test_more_memory_never_catastrophically_worse(self, cnnlike16):
        """The DP estimate is non-increasing in M on average; we assert the
        weak form: the roomiest platform is at least as good as the
        tightest feasible one."""
        periods = {}
        for mem in (0.8, 2.0, 8.0):
            res = algorithm1(cnnlike16, Platform.of(4, mem, 12), iterations=6, grid=COARSE)
            periods[mem] = res.period if res.feasible else float("inf")
        assert periods[8.0] <= periods[0.8] + 1e-9

    def test_feasibility_flag(self, uniform8):
        tiny = Platform.of(2, 1 * MB / 2**30, 12)
        res = algorithm1(uniform8, tiny, iterations=4, grid=COARSE)
        assert not res.feasible

    def test_upper_brackets_every_probe(self, cnnlike16, roomy4):
        """With ``upper`` every probe is capped and none targets a period
        above it; ``upper=inf`` is the paper's search."""
        paper = algorithm1(cnnlike16, roomy4, iterations=6, grid=COARSE)
        assert algorithm1(cnnlike16, roomy4, iterations=6, grid=COARSE,
                          upper=float("inf")).history == paper.history
        upper = paper.period * 1.05
        res = algorithm1(cnnlike16, roomy4, iterations=6, grid=COARSE, upper=upper)
        assert res.feasible and all(t <= upper for t, _ in res.history)
        assert res.pruned_cap > paper.pruned_cap

    @pytest.mark.parametrize("upper, rescues", [(float("inf"), 1), (10.0, 0)])
    def test_only_an_unbracketed_search_is_rescued(self, uniform8, upper, rescues):
        tiny = Platform.of(2, 1 * MB / 2**30, 12)
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            res = algorithm1(uniform8, tiny, iterations=4, grid=COARSE, upper=upper)
        assert not res.feasible and len(res.history) == 4 + rescues
        assert registry.snapshot().get("dp.rescue_probes", 0) == rescues

    def test_search_span_records_upper(self, cnnlike16, roomy4):
        trace = obs.Trace()
        with obs.use_trace(trace):
            algorithm1(cnnlike16, roomy4, iterations=2, grid=COARSE)
            algorithm1(cnnlike16, roomy4, iterations=2, grid=COARSE, upper=0.5)
        spans = trace.find("madpipe.algorithm1")
        assert [s.attrs["upper"] for s in spans] == [None, 0.5]


def alloc(*stages):
    """A DP allocation from ``(start, end, special)`` triples."""
    return DPAllocation(
        tuple(Stage(a, b) for a, b, _ in stages), tuple(sp for _, _, sp in stages)
    )


N, S = False, True
GPT24_4_2 = alloc((1, 6, N), (7, 12, N), (13, 18, N), (19, 24, N))
GPT24_8_15 = alloc(*((i, i + 2, N) for i in range(1, 24, 3)))

#: ``madpipe()``'s two searches on gpt24 (12 GB/s, coarse grid, 8
#: iterations), the contiguous one first: ``(history, period, target,
#: allocation, visited)`` as every probe evaluated computed them.
GPT24_SEARCHES = {
    (4, 2.0): [
        (
            [(3.09980733952, 3.616441896106666),
             (3.358124617813333, 3.0998073395200016),
             (3.2289659786666673, 3.0998073395200016),
             (3.1643866590933345, 3.0998073395200016),
             (3.1320969993066683, 3.0998073395200016),
             (3.115952169413335, INF),
             (3.1240245843600016, 3.0998073395200016),
             (3.1199883768866683, INF)],
            3.1240245843600016, 3.1240245843600016, GPT24_4_2,
            [alloc((1, 5, N), (6, 11, N), (12, 18, N), (19, 24, N)), GPT24_4_2],
        ),
        (
            [(3.09980733952, 3.0998073395200016)] + [(3.0998073395200016, INF)] * 7,
            3.0998073395200016, 3.09980733952,
            alloc((1, 2, S), (3, 8, N), (9, 10, S), (11, 16, N), (17, 17, S),
                  (18, 18, S), (19, 24, N)),
            None,
        ),
    ],
    (8, 1.5): [
        (
            [(1.54990366976, 1.5499036697600008)] + [(1.5499036697600008, INF)] * 7,
            1.5499036697600008, 1.54990366976, GPT24_8_15, None,
        ),
        (
            [(1.54990366976, 1.5499036697600008)] + [(1.5499036697600008, INF)] * 7,
            1.5499036697600008, 1.54990366976,
            alloc((1, 3, N), (4, 6, N), (7, 9, N), (10, 12, N), (13, 15, N),
                  (16, 16, S), (17, 19, N), (20, 22, N), (23, 23, S), (24, 24, S)),
            None,
        ),
    ],
}


class TestProbeReuse:
    """Once ``lb`` and ``ub`` meet, Algorithm 1 asks the DP the same
    ``(T̂, cap)`` again; a search answers a repeat from its earlier probe
    and does not call the evaluator.  The paper's probe count and every
    answer stay."""

    @pytest.mark.parametrize(
        "n_procs, memory, calls, reused", [(4, 2.0, 10, 6), (8, 1.5, 4, 12)]
    )
    def test_repeats_skip_the_evaluator(self, monkeypatch, n_procs, memory, calls, reused):
        evaluated, searches = [], []
        real_dp, real_search = dp_module.madpipe_dp, madpipe_module.algorithm1

        def counting_dp(*args, **kwargs):
            evaluated.append(args[2])
            return real_dp(*args, **kwargs)

        def recording_search(*args, **kwargs):
            searches.append(real_search(*args, **kwargs))
            return searches[-1]

        monkeypatch.setattr(dp_module, "madpipe_dp", counting_dp)
        monkeypatch.setattr(madpipe_module, "algorithm1", recording_search)
        registry = obs.MetricsRegistry()
        with obs.use_metrics(registry):
            madpipe(paper_chain("gpt24"), Platform.of(n_procs, memory, 12),
                    grid=COARSE, iterations=8)
        assert len(evaluated) == calls
        assert registry.get("dp.probes") == 16
        assert registry.get("dp.probes_reused") == reused
        expected = GPT24_SEARCHES[n_procs, memory]
        for res, (history, period, target, allocation, visited) in zip(searches, expected):
            assert res.history == history
            assert (res.period, res.target) == (period, target)
            assert res.allocation == allocation
            assert res.visited == (visited or [allocation])

    def test_reused_probes_do_no_work(self):
        """A reused probe's span says so and carries no work counters;
        ``states`` sums the evaluated probes only."""
        chain, platform = paper_chain("gpt24"), Platform.of(8, 1.5, 12)
        trace = obs.Trace()
        with obs.use_trace(trace):
            res = algorithm1(chain, platform, iterations=8, grid=COARSE)
        spans = trace.find("madpipe.dp")
        assert [s.attrs["reused"] for s in spans] == [False, False] + [True] * 6
        assert [s.attrs["feasible"] for s in spans] == [T < INF for _, T in res.history]
        assert all("states" not in s.attrs for s in spans[2:])
        assert res.states == sum(s.attrs["states"] for s in spans[:2])
        one = madpipe_dp(chain, platform, res.history[1][0], grid=COARSE,
                         period_cap=res.period)
        assert res.history[2:] == [(res.history[1][0], one.dp_period)] * 6
