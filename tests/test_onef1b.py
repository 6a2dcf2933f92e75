"""Tests for the 1F1B* optimal contiguous scheduler (paper §4.1)."""

import pytest

from repro.algorithms.onef1b import (
    Item,
    assign_groups,
    build_pattern,
    extended_items,
    min_feasible_period,
)
from repro.core import Allocation, Partitioning, Platform
from repro.models import random_chain
from repro.sim import verify_pattern

MB = float(2**20)


class TestExtendedItems:
    def test_stage_and_comm_items(self, uniform8, plat2):
        alloc = Allocation.contiguous(Partitioning.from_cuts(8, [4]))
        items = extended_items(uniform8, plat2, alloc)
        kinds = [it.kind for it in items]
        assert kinds == ["stage", "comm", "stage"]
        assert items[0].u_f == pytest.approx(4.0)
        assert items[1].u_f == pytest.approx(items[1].u_b)
        assert items[1].load == pytest.approx(
            uniform8.comm_time(4, plat2.bandwidth)
        )

    def test_no_comm_between_same_proc(self, uniform8, plat2):
        alloc = Allocation(Partitioning.from_cuts(8, [4]), (0, 0))
        items = extended_items(uniform8, plat2, alloc)
        assert [it.kind for it in items] == ["stage", "stage"]


class TestAssignGroups:
    def test_single_group_when_period_large(self):
        items = [Item("stage", i, 1.0, 2.0) for i in range(3)]
        assert assign_groups(items, 100.0) == [1, 1, 1]

    def test_one_group_per_item_when_tight(self):
        items = [Item("stage", i, 1.0, 2.0) for i in range(3)]
        assert assign_groups(items, 3.0) == [3, 2, 1]

    def test_greedy_from_the_back(self):
        items = [
            Item("stage", 0, 1.0, 1.0),  # load 2
            Item("stage", 1, 2.0, 2.0),  # load 4
            Item("stage", 2, 0.5, 0.5),  # load 1
        ]
        # period 5: group 1 takes items 2 and 1 (1+4=5), item 0 starts group 2
        assert assign_groups(items, 5.0) == [2, 1, 1]

    def test_infeasible_period_raises(self):
        items = [Item("stage", 0, 3.0, 3.0)]
        with pytest.raises(ValueError):
            assign_groups(items, 5.0)

    def test_boundary_exact_fit(self):
        items = [Item("stage", 0, 1.0, 1.0), Item("stage", 1, 1.0, 1.0)]
        assert assign_groups(items, 4.0) == [1, 1]


class TestBuildPattern:
    def test_valid_at_many_periods(self, cnnlike16, roomy4):
        part = Partitioning.from_cuts(16, [4, 8, 12])
        alloc = Allocation.contiguous(part)
        lb = alloc.period_lower_bound(cnnlike16, roomy4)
        for factor in (1.0, 1.3, 2.0, 5.0):
            pat = build_pattern(cnnlike16, roomy4, alloc, lb * factor)
            pat.validate(cnnlike16, roomy4)

    def test_requires_contiguous(self, uniform8, roomy4):
        alloc = Allocation(Partitioning.from_cuts(8, [2, 4]), (0, 1, 0))
        with pytest.raises(ValueError, match="contiguous"):
            build_pattern(uniform8, roomy4, alloc, 100.0)

    def test_group_memory_matches_pattern(self, uniform8, roomy4):
        """Stages in group g hold exactly g active batches (paper claim)."""
        part = Partitioning.from_cuts(8, [2, 4, 6])
        alloc = Allocation.contiguous(part)
        items = extended_items(uniform8, roomy4, alloc)
        # tight period: per-stage load is 6, comm tiny
        T = 6.5
        groups = assign_groups(items, T)
        pat = build_pattern(uniform8, roomy4, alloc, T)
        pat.validate(uniform8, roomy4)
        for it, g in zip(items, groups):
            if it.kind != "stage":
                continue
            f = pat.ops[("F", it.index)]
            peak = max(
                pat.active_batches(it.index, f.start),
                pat.active_batches(it.index, f.start + 1e-9),
            )
            assert peak == g
            # the backward carries shift + g - 1 (a period wrap may add one)
            assert pat.ops[("B", it.index)].shift - f.shift in (g - 1, g)

    def test_single_stage(self, uniform8):
        plat = Platform.of(1, 1024, 12)
        alloc = Allocation.contiguous(Partitioning.from_cuts(8, []))
        pat = build_pattern(uniform8, plat, alloc, uniform8.total_compute())
        pat.validate(uniform8, plat)


class TestMinFeasiblePeriod:
    def test_unconstrained_hits_lower_bound(self, cnnlike16, roomy4):
        part = Partitioning.from_cuts(16, [4, 8, 12])
        res = min_feasible_period(cnnlike16, roomy4, part)
        alloc = Allocation.contiguous(part)
        assert res is not None
        assert res.period == pytest.approx(
            alloc.period_lower_bound(cnnlike16, roomy4)
        )
        verify_pattern(cnnlike16, roomy4, res.pattern)

    def test_memory_pressure_increases_period(self, cnnlike16):
        part = Partitioning.from_cuts(16, [4, 8, 12])
        roomy = Platform.of(4, 1024.0, 12)
        t_roomy = min_feasible_period(cnnlike16, roomy, part).period
        # shrink memory until the period must grow
        tight = None
        for mem_gb in (2.0, 1.0, 0.5, 0.25):
            plat = Platform.of(4, mem_gb, 12)
            res = min_feasible_period(cnnlike16, plat, part)
            if res is not None and res.period > t_roomy * 1.01:
                tight = res
                break
        assert tight is not None, "expected memory pressure to bite"
        verify_pattern(cnnlike16, Platform.of(4, mem_gb, 12), tight.pattern)

    def test_infeasible_returns_none(self, uniform8):
        tiny = Platform.of(2, 10 * MB / 2**30, 12)
        part = Partitioning.from_cuts(8, [4])
        assert min_feasible_period(uniform8, tiny, part) is None

    def test_memory_monotone_in_period(self, cnnlike16, roomy4):
        """Raising the period never raises 1F1B* memory (groups merge)."""
        part = Partitioning.from_cuts(16, [4, 8, 12])
        alloc = Allocation.contiguous(part)
        items = extended_items(cnnlike16, roomy4, alloc)
        lb = alloc.period_lower_bound(cnnlike16, roomy4)
        prev = None
        for factor in (1.0, 1.2, 1.5, 2.0, 3.0, 10.0):
            groups = assign_groups(items, lb * factor)
            total = sum(groups)
            if prev is not None:
                assert total <= prev
            prev = total

    def test_too_many_stages_rejected(self, uniform8, plat2):
        with pytest.raises(ValueError):
            min_feasible_period(uniform8, plat2, Partitioning.from_cuts(8, [2, 4]))

    def test_pattern_optimal_memory_vs_validity(self, roomy4):
        """Every 1F1B* pattern must execute cleanly in the simulator."""
        for seed in range(5):
            chain = random_chain(12, seed=seed, decay=0.1)
            part = Partitioning.from_cuts(12, [3, 6, 9])
            res = min_feasible_period(chain, roomy4, part)
            assert res is not None
            verify_pattern(chain, roomy4, res.pattern)
