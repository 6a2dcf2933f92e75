"""Tests for the phase-2 scheduling MILP (§4.3)."""

import numpy as np
import pytest

from repro import obs
from repro.core import Allocation, Partitioning, Platform
from repro.core.tolerances import CHECK_RTOL
from repro.experiments.scenarios import paper_chain
from repro.ilp import build_milp, schedule_allocation, solve_fixed_period
from repro.models import random_chain, uniform_chain
from repro.sim import verify_pattern

MB = float(2**20)
GB = float(2**30)


@pytest.fixture
def chain():
    return uniform_chain(8, u_f=1.0, u_b=2.0, weights=1 * MB, activation=64 * MB)


@pytest.fixture
def contiguous2(chain):
    return Allocation.contiguous(Partitioning.from_cuts(8, [4]))


@pytest.fixture
def special3(chain):
    # stages 1-2 / 3-6 / 7-8; GPU 0 is special (first and last stage)
    return Allocation(Partitioning.from_cuts(8, [2, 6]), (0, 1, 0))


class TestBuildMilp:
    def test_variable_layout(self, chain, contiguous2):
        plat = Platform.of(2, 4, 12)
        m = build_milp(chain, plat, contiguous2, 20.0)
        # 4 compute ops + 2 comm ops
        assert len(m.ops) == 6
        # t + h per op, plus one y per same-resource pair (1 per gpu, 1 link)
        assert m.n_vars == 12 + 3
        assert sum(m.integrality) == 6 + 3  # shifts + disjunctions

    def test_special_has_more_disjunctions(self, chain, special3):
        plat = Platform.of(2, 4, 12)
        m = build_milp(chain, plat, special3, 20.0)
        # GPU 0 hosts 4 ops -> 6 pairs; GPU 1 hosts 2 -> 1 pair;
        # links (0,1) twice x 2 ops... both cuts use link(0,1): 4 ops -> 6
        assert len(m.y_index) == 6 + 1 + 6

    def test_static_overflow_raises(self, contiguous2):
        # zero activations: the memory rows are constant, so an oversized
        # static footprint (weights/buffers) must fail at build time
        heavy = uniform_chain(8, u_f=1.0, u_b=2.0, weights=512 * MB, activation=0.0)
        tiny = Platform.of(2, 1.0, 12)
        with pytest.raises(ValueError, match="static"):
            build_milp(heavy, tiny, contiguous2, 20.0)

    def test_invalid_period(self, chain, contiguous2):
        with pytest.raises(ValueError):
            build_milp(chain, Platform.of(2, 4, 12), contiguous2, 0.0)

    def test_unknown_family_named(self, chain, contiguous2):
        with pytest.raises(ValueError, match="'interleaved'"):
            build_milp(
                chain, Platform.of(2, 4, 12), contiguous2, 20.0,
                schedule_family="interleaved",
            )


class TestSolveFixedPeriod:
    def test_sequential_period_feasible(self, chain, contiguous2):
        plat = Platform.of(2, 4, 12)
        T = 24.0 + 4 * chain.activation(4) / plat.bandwidth
        pat = solve_fixed_period(chain, plat, contiguous2, T, time_limit=20)
        assert pat is not None
        verify_pattern(chain, plat, pat)

    def test_below_load_bound_infeasible(self, chain, contiguous2):
        plat = Platform.of(2, 4, 12)
        assert solve_fixed_period(chain, plat, contiguous2, 6.0, time_limit=20) is None

    def test_tight_memory_infeasible_at_small_period(self, chain, contiguous2):
        # each stage stores 4*64 MB per copy + 12 MB buffers/weights;
        # allow ~1.5 copies so the pipelined (2-copy) period is rejected
        plat = Platform.of(2, 0.40, 12)
        assert solve_fixed_period(chain, plat, contiguous2, 12.5, time_limit=20) is None

    def test_memory_constraint_respected(self, chain, special3):
        plat = Platform.of(2, 2.0, 12)
        T = 26.0
        pat = solve_fixed_period(chain, plat, special3, T, time_limit=20)
        assert pat is not None
        peaks = pat.memory_peaks(chain)
        assert all(m <= plat.memory * (1 + 1e-6) for m in peaks.values())


class TestScheduleAllocation:
    def test_contiguous_matches_load_bound_when_roomy(self, chain, contiguous2):
        plat = Platform.of(2, 1024, 12)
        res = schedule_allocation(chain, plat, contiguous2, time_limit=20)
        assert res.feasible
        lb = contiguous2.period_lower_bound(chain, plat)
        assert res.period <= lb * 1.01
        verify_pattern(chain, plat, res.pattern)

    def test_non_contiguous_schedulable(self, chain, special3):
        plat = Platform.of(2, 4, 12)
        res = schedule_allocation(chain, plat, special3, time_limit=20)
        assert res.feasible
        verify_pattern(chain, plat, res.pattern)
        # GPU 0 runs stages 0 and 2: its load is the binding bound
        lb = special3.period_lower_bound(chain, plat)
        assert res.period >= lb - 1e-9

    def test_memory_pressure_raises_period(self, chain, special3):
        roomy = schedule_allocation(
            chain, Platform.of(2, 1024, 12), special3, time_limit=20
        )
        tight = schedule_allocation(
            chain, Platform.of(2, 1.3, 12), special3, time_limit=20
        )
        assert roomy.feasible and tight.feasible
        assert tight.period >= roomy.period - 1e-9

    def test_impossible_memory(self, chain, special3):
        res = schedule_allocation(
            chain, Platform.of(2, 0.05, 12), special3, time_limit=20
        )
        assert not res.feasible
        assert res.period == float("inf")

    def test_probe_trace_recorded(self, chain, contiguous2):
        plat = Platform.of(2, 4, 12)
        res = schedule_allocation(chain, plat, contiguous2, time_limit=20)
        assert res.probes
        assert res.probes[0][0] == pytest.approx(
            contiguous2.period_lower_bound(chain, plat)
        )


    def test_probe_budget_exhausted_is_timeout(self):
        """resnet50's phase-1 allocation (P=4, 8 GB) needs 10 probes; one
        probe refutes only the lower bound, which proves nothing."""
        chain = paper_chain("resnet50")
        plat = Platform.of(4, 8.0, 12)
        alloc = Allocation(
            Partitioning.from_cuts(chain.L, [4, 8, 14, 24]), (3, 0, 1, 2, 3)
        )
        full = schedule_allocation(chain, plat, alloc, time_limit=30)
        assert full.status == "ok" and len(full.probes) == 10
        assert full.period == pytest.approx(0.3217, rel=1e-3)
        res = schedule_allocation(chain, plat, alloc, time_limit=30, max_probes=1)
        assert res.probes == [(alloc.period_lower_bound(chain, plat), False)]
        assert res.status == "timeout" and not res.feasible


def _trace(res):
    return [(p.period, p.feasible, p.kind, p.status) for p in res.trace]


REL_TOL = 5e-3  # schedule_allocation's default


def _band_top(lower: float, rel_tol: float = REL_TOL) -> float:
    """The largest cap whose search is skipped: ``lower·(1 + rel_tol)``
    reaches ``cap·(1 − CHECK_RTOL)``."""
    return lower * (1 + rel_tol) / (1 - CHECK_RTOL)


class TestPeriodCap:
    """``period_cap``: only a pattern beating the cap by more than
    CHECK_RTOL counts, and a search that reaches the cap proves nothing."""

    @pytest.fixture
    def tight(self):
        return Platform.of(2, 0.7, 12)

    def test_cap_at_lower_bound_solves_nothing(self, chain, special3, tight):
        lower = special3.period_lower_bound(chain, tight)
        for cap in (lower, lower * (1 + CHECK_RTOL / 2)):
            res = schedule_allocation(chain, tight, special3, period_cap=cap)
            assert res.status == "capped" and not res.feasible
            assert res.period == float("inf")
            assert res.trace == [] and res.timings["milp_probes"] == 0

    def test_capped_result_beats_the_cap(self, chain, special3, tight):
        free = schedule_allocation(chain, tight, special3, time_limit=20)
        assert free.feasible
        lower = special3.period_lower_bound(chain, tight)
        assert free.period > lower  # so caps near it leave the MILP work to do
        # 1 / (1 - CHECK_RTOL) puts the ceiling on free.period: the probe
        # there is feasible, so the search ends capped without refuting it
        for factor in (0.99, 1.0, 1 + 1e-7, 1 / (1 - CHECK_RTOL), 1.001, 1.05, 1.5):
            cap = free.period * factor
            res = schedule_allocation(
                chain, tight, special3, time_limit=20, period_cap=cap
            )
            if res.feasible:
                assert res.period < cap * (1 - CHECK_RTOL)
                verify_pattern(chain, tight, res.pattern)
            else:
                assert res.status == "capped"
            if factor >= 1.05:
                assert res.feasible
        res = schedule_allocation(chain, tight, special3, period_cap=lower)
        assert res.status == "capped" and res.trace == []

    def test_budget_spent_closing_the_gap_is_not_a_timeout(self, chain, special3, tight):
        """With the ceiling exactly on a feasible period, the probe there
        finds a pattern the cap then drops, and the next probe refutes
        everything below it: a budget of exactly those probes still
        proves nothing beats the cap, one fewer leaves the gap open."""
        free = schedule_allocation(chain, tight, special3, time_limit=20)
        cap = free.period / (1 - CHECK_RTOL)
        full = schedule_allocation(chain, tight, special3, time_limit=20, period_cap=cap)
        assert full.status == "capped"
        assert any(p.feasible and p.kind == "milp" for p in full.trace)
        needed = full.timings["milp_probes"]
        exact = schedule_allocation(
            chain, tight, special3, time_limit=20, period_cap=cap, max_probes=needed
        )
        assert _trace(exact) == _trace(full) and exact.status == "capped"
        short = schedule_allocation(
            chain, tight, special3, time_limit=20, period_cap=cap, max_probes=needed - 1
        )
        assert short.status == "timeout" and not short.feasible

    def test_infinite_cap_is_no_cap(self, chain, special3, tight):
        plain = schedule_allocation(chain, tight, special3, time_limit=20)
        inf = schedule_allocation(
            chain, tight, special3, time_limit=20, period_cap=float("inf")
        )
        assert _trace(inf) == _trace(plain)
        assert (inf.period, inf.status) == (plain.period, plain.status)

    # A cap within rel_tol of the bottleneck bound ends the search before
    # any MILP: the caller's schedule already meets the search's own
    # rel_tol promise.

    def _observed(self, *args, **kwargs):
        trace, registry = obs.Trace("skip"), obs.MetricsRegistry()
        with obs.use_trace(trace), obs.use_metrics(registry):
            res = schedule_allocation(*args, **kwargs)
        [search] = trace.find("ilp.search")
        return res, search.attrs, registry.snapshot()

    def test_cap_inside_the_band_solves_nothing(self, chain, special3, tight):
        lower = special3.period_lower_bound(chain, tight)
        for cap in (lower * (1 + CHECK_RTOL), lower * (1 + REL_TOL / 2),
                    _band_top(lower)):
            assert lower < cap
            res, attrs, snap = self._observed(chain, tight, special3, period_cap=cap)
            assert res.status == "capped" and res.period == float("inf")
            assert res.trace == [] and res.timings["milp_probes"] == 0
            assert attrs["skipped"] is True and attrs["capped"] is True
            assert snap["ilp.searches_skipped"] == 1
            assert snap.get("ilp.skeleton_builds", 0) == 0

    def test_cap_just_above_the_band_probes(self, chain, special3, tight):
        lower = special3.period_lower_bound(chain, tight)
        cap = _band_top(lower) * (1 + 1e-6)
        res, attrs, snap = self._observed(
            chain, tight, special3, time_limit=20, period_cap=cap
        )
        assert res.timings["milp_probes"] >= 1
        assert attrs["skipped"] is False
        assert "ilp.searches_skipped" not in snap

    def test_zero_rel_tol_skips_only_at_the_bound(self, chain, special3, tight):
        """``rel_tol=0`` is the rule before the band: skip only when the
        bound reaches the ceiling itself."""
        lower = special3.period_lower_bound(chain, tight)
        for cap in (lower, lower * (1 + CHECK_RTOL / 2)):
            res = schedule_allocation(chain, tight, special3, rel_tol=0, period_cap=cap)
            assert res.status == "capped" and res.trace == []
        res = schedule_allocation(
            chain, tight, special3, rel_tol=0, time_limit=20,
            period_cap=lower * (1 + REL_TOL / 2),
        )
        assert res.timings["milp_probes"] >= 1

    def test_skip_keeps_the_rel_tol_promise(self):
        """Seeded property: whenever the exit fires, the cap (the caller's
        period) is within ``rel_tol`` of the uncapped search's period, and
        it fires exactly when the bound reaches into the band."""
        rng = np.random.default_rng(0)
        fired = probed = 0
        for seed in range(10):
            chain = random_chain(8, seed=seed, decay=0.2)
            platform = Platform.of(2, float(rng.choice([1.0, 1.5, 1024.0])), 12)
            a, b = sorted(rng.choice(np.arange(1, 8), size=2, replace=False))
            alloc = Allocation(Partitioning.from_cuts(8, [int(a), int(b)]), (0, 1, 0))
            lower = alloc.period_lower_bound(chain, platform)
            cap = lower * (1 + rng.uniform(0, 2 * REL_TOL))
            registry = obs.MetricsRegistry()
            with obs.use_metrics(registry):
                res = schedule_allocation(
                    chain, platform, alloc, time_limit=20, period_cap=cap
                )
            skipped = registry.get("ilp.searches_skipped") == 1
            assert skipped == (lower * (1 + REL_TOL) >= cap * (1 - CHECK_RTOL))
            if not skipped:
                probed += 1
                continue
            fired += 1
            assert res.status == "capped" and res.trace == []
            free = schedule_allocation(chain, platform, alloc, time_limit=20)
            assert free.period >= lower * (1 - CHECK_RTOL)
            assert cap <= free.period * (1 + REL_TOL) / (1 - CHECK_RTOL)
        assert fired and probed


class TestSpecialProcessorInterleaving:
    def test_ilp_finds_memory_saving_interleave(self):
        """Fig. 5 scenario: two stages on the special processor.  When
        memory only allows the interleaved schedule (backward of one stage
        between the forwards), the ILP must find it rather than declare
        the period infeasible."""
        chain = uniform_chain(6, u_f=1.0, u_b=2.0, weights=0.0, activation=256 * MB)
        # stages: 1-2 (special), 3-4 (normal), 5-6 (special)
        alloc = Allocation(Partitioning.from_cuts(6, [2, 4]), (0, 1, 0))
        plat_roomy = Platform.of(2, 1024, 12)
        res = schedule_allocation(chain, plat_roomy, alloc, time_limit=30)
        assert res.feasible
        base_period = res.period

        # now constrain memory to just above the best-case peak
        peaks = res.pattern.memory_peaks(chain)
        tight = Platform.of(2, (max(peaks.values()) * 1.02) / GB, 12)
        res2 = schedule_allocation(chain, tight, alloc, time_limit=30)
        assert res2.feasible
        verify_pattern(chain, tight, res2.pattern)
        assert res2.period <= base_period * 1.6


class TestILPConsistencyWith1F1B:
    """On contiguous allocations 1F1B* is provably memory-optimal, so the
    ILP (restricted to non-wrapping ops) can never beat its minimal
    feasible period, and should get close when memory is loose."""

    @pytest.mark.parametrize("mem_gb", [1024.0, 2.0])
    def test_ilp_never_beats_onef1b(self, mem_gb):
        from repro.algorithms import min_feasible_period
        from repro.core import Partitioning
        from repro.models import random_chain

        chain = random_chain(12, seed=5, decay=0.15)
        part = Partitioning.from_cuts(12, [4, 8])
        plat = Platform.of(3, mem_gb, 12)
        star = min_feasible_period(chain, plat, part)
        if star is None:
            pytest.skip("1F1B* infeasible at this memory")
        ilp = schedule_allocation(
            chain, plat, Allocation.contiguous(part), time_limit=20
        )
        assert ilp.feasible
        assert ilp.period >= star.period * (1 - 1e-6)
        if mem_gb > 100:
            # unconstrained: both must sit at the load lower bound
            assert ilp.period <= star.period * 1.01
