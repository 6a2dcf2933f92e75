"""Tests for the discrete-event simulator and validator."""

import math

import pytest

from repro.algorithms import min_feasible_period
from repro.core import Allocation, Partitioning, PatternError, Platform
from repro.core.memory import static_memory
from repro.sim import simulate, verify_pattern
from repro.sim.engine import _memory_trace

MB = float(2**20)


@pytest.fixture
def schedule(cnnlike16, roomy4):
    part = Partitioning.from_cuts(16, [4, 8, 12])
    res = min_feasible_period(cnnlike16, roomy4, part)
    assert res is not None
    return res


class TestSimulate:
    def test_clean_run(self, cnnlike16, roomy4, schedule):
        rep = simulate(cnnlike16, roomy4, schedule.pattern, periods=10)
        assert rep.ok
        assert rep.completed_batches > 0

    def test_steady_throughput_matches_period(self, cnnlike16, roomy4, schedule):
        rep = simulate(cnnlike16, roomy4, schedule.pattern, periods=20)
        assert rep.steady_throughput == pytest.approx(
            1.0 / schedule.period, rel=0.15
        )

    def test_warmup_skips_negative_batches(self, cnnlike16, roomy4, schedule):
        rep = simulate(cnnlike16, roomy4, schedule.pattern, periods=4)
        assert all(e.batch >= 0 for e in rep.executions)

    def test_sim_peak_matches_analytic(self, cnnlike16, roomy4, schedule):
        rep = simulate(cnnlike16, roomy4, schedule.pattern, periods=15)
        analytic = schedule.pattern.memory_peaks(cnnlike16)
        for p, m in rep.peak_memory.items():
            assert m == pytest.approx(analytic[p], rel=1e-9)

    def test_detects_dependency_violation(self, cnnlike16, roomy4, schedule):
        pat = schedule.pattern
        pat.ops[("B", 3)].shift -= 1  # backward now runs before its forward
        rep = simulate(cnnlike16, roomy4, pat, periods=8)
        assert not rep.ok
        assert any("dependency" in v or "producer" in v for v in rep.violations)

    def test_detects_overlap(self, cnnlike16, roomy4, schedule):
        pat = schedule.pattern
        f = pat.ops[("F", 0)]
        pat.ops[("B", 0)].start = f.start + f.duration / 2
        rep = simulate(cnnlike16, roomy4, pat, periods=6)
        assert not rep.ok
        assert any("overlaps" in v for v in rep.violations)

    def test_detects_memory_overflow(self, cnnlike16, schedule):
        # re-check the same pattern against a platform with less memory
        needed = max(schedule.memory.values())
        tight = Platform.of(4, needed * 0.9 / 2**30, 12)
        rep = simulate(cnnlike16, tight, schedule.pattern, periods=10)
        assert any("memory" in v for v in rep.violations)


class TestMemoryTrace:
    def test_free_applies_before_an_allocation_one_ulp_earlier(self, uniform8):
        """B of batch 7 ends at 0.5478125 and F of batch 8 starts one ulp
        earlier (the 1F1B* steady state of a uniform chain on cuts 2, 4,
        6): the two are one instant, so the free applies first and one
        stored-activation set is live at a time."""
        alloc = Allocation.contiguous(Partitioning.from_cuts(8, [4]))
        t = 0.5478125
        ops = [("F", 1, 0.5, 0.51), ("B", 1, 0.52, t), ("F", 1, math.nextafter(t, 0.0), 0.56)]
        peak = _memory_trace(uniform8, alloc, ops, horizon=0.6)
        static = static_memory(uniform8, alloc)
        abar = alloc.stages[1].stored_activations(uniform8)
        assert peak == {0: static[0], 1: static[1] + abar}


class TestVerifyPattern:
    def test_accepts_valid(self, cnnlike16, roomy4, schedule):
        rep = verify_pattern(cnnlike16, roomy4, schedule.pattern)
        assert rep.ok

    def test_rejects_corrupted(self, cnnlike16, roomy4, schedule):
        pat = schedule.pattern
        pat.ops[("F", 2)].start += pat.period / 3  # breaks exclusivity or deps
        with pytest.raises(PatternError):
            verify_pattern(cnnlike16, roomy4, pat)

    def test_default_period_count_covers_pipeline(self, uniform8, roomy4):
        part = Partitioning.from_cuts(8, [2, 4, 6])
        res = min_feasible_period(uniform8, roomy4, part)
        rep = verify_pattern(uniform8, roomy4, res.pattern)
        max_shift = max(op.shift for op in res.pattern.ops.values())
        assert rep.horizon == pytest.approx((max_shift + 5) * res.period)
