"""Golden and property tests for the phase-2 fast paths (PR 2).

The vectorized 1F1B\\* kernel must be *bit-identical* to
``onef1b_reference`` (periods, group assignments, memory maps, even the
error messages); a skeleton instantiated at any period must equal a
fresh ``build_milp`` at that period exactly; and the fast period search
must agree with the reference bisection to within the certification
band.
"""

import random

import numpy as np
import pytest

from repro.algorithms.onef1b import (
    CANDIDATE_ATOL,
    GROUP_FIT_RTOL,
    Item,
    assign_groups,
    extended_items,
    min_feasible_period,
)
from repro.core import Allocation, Partitioning, Platform
from repro.core.memory import stage_memory
from repro.ilp import build_milp, build_skeleton, schedule_allocation
from repro.models import random_chain, uniform_chain

from tests.oracles.bruteforce import best_contiguous, best_special
from tests.oracles.onef1b_reference import (
    assign_groups_reference,
    min_feasible_period_reference,
)
from tests.oracles.solver_reference import schedule_allocation_reference

MB = float(2**20)


def _random_partitionings(L, rng, k):
    parts = [Partitioning.from_cuts(L, [])]
    for _ in range(k):
        n_cuts = rng.randint(1, min(4, L - 1))
        cuts = sorted(rng.sample(range(1, L), n_cuts))
        parts.append(Partitioning.from_cuts(L, cuts))
    return parts


class TestOneF1BGolden:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_kernel_matches_reference_randomized(self, seed):
        """Vectorized 1F1B* vs the scalar reference: identical periods,
        groups, and per-processor memory, bit for bit."""
        rng = random.Random(seed)
        chain = random_chain(10, seed=seed, decay=0.3)
        checked = 0
        for mem_gb in (0.4, 1.0, 4.0):
            plat = Platform.of(5, mem_gb, 12)
            for part in _random_partitionings(10, rng, 12):
                fast = min_feasible_period(chain, plat, part, build=False)
                ref = min_feasible_period_reference(chain, plat, part, build=False)
                if ref is None:
                    assert fast is None
                    continue
                assert fast is not None
                assert fast.period == ref.period  # bit-identical
                assert fast.groups == ref.groups
                assert fast.memory == ref.memory
                checked += 1
        assert checked > 5  # the sweep must exercise feasible cases

    def test_assign_groups_matches_reference(self):
        rng = random.Random(7)
        for _ in range(50):
            items = [
                Item(
                    "stage" if i % 2 == 0 else "comm",
                    i // 2,
                    rng.uniform(0.01, 0.5),
                    rng.uniform(0.01, 0.5),
                )
                for i in range(rng.randint(1, 12))
            ]
            period = max(it.load for it in items) * rng.uniform(1.0, 3.0)
            assert assign_groups(items, period) == assign_groups_reference(
                items, period
            )

    def test_error_messages_match(self):
        chain = uniform_chain(4, u_f=1.0, u_b=2.0, weights=MB, activation=MB)
        plat = Platform.of(2, 64.0, 12)
        part = Partitioning.from_cuts(4, [2])
        items = extended_items(chain, plat, Allocation.contiguous(part))
        with pytest.raises(ValueError) as fast_err:
            assign_groups(items, 0.5)
        with pytest.raises(ValueError) as ref_err:
            assign_groups_reference(items, 0.5)
        assert str(fast_err.value) == str(ref_err.value)

    def test_group_fit_tolerance_boundary(self):
        """Loads overshooting the period by less than GROUP_FIT_RTOL must
        still pack into one group, in kernel and reference alike."""
        eps_in = GROUP_FIT_RTOL / 4
        eps_out = 1e-9
        inside = [Item("stage", 0, 0.25, 0.25), Item("stage", 1, 0.25, 0.25 * (1 + eps_in))]
        outside = [Item("stage", 0, 0.25, 0.25), Item("stage", 1, 0.25, 0.25 * (1 + eps_out))]
        for items in (inside, outside):
            assert assign_groups(items, 1.0) == assign_groups_reference(items, 1.0)
        # within tolerance: one group; beyond: the earlier item spills
        assert assign_groups(inside, 1.0) == [1, 1]
        assert assign_groups(outside, 1.0) == [2, 1]

    def test_tolerance_constants_ordering(self):
        assert 0 < CANDIDATE_ATOL < GROUP_FIT_RTOL


class TestOneF1BProperties:
    @pytest.mark.parametrize("seed", [0, 5])
    def test_memory_non_increasing_in_period(self, seed):
        """Prop: growing T never increases any processor's 1F1B* memory
        (the greedy group counts are monotone non-increasing in T)."""
        chain = random_chain(8, seed=seed, decay=0.3)
        plat = Platform.of(4, 64.0, 12)
        alloc = Allocation.contiguous(Partitioning.from_cuts(8, [2, 4, 6]))
        items = extended_items(chain, plat, alloc)
        base = sum(it.load for it in items) / len(items)
        bottleneck = max(it.load for it in items)
        prev = None
        for scale in (1.0, 1.3, 1.7, 2.5, 4.0, 8.0):
            period = max(bottleneck, base * scale)
            groups = assign_groups(items, period)
            mem = [
                stage_memory(chain, stage.start, stage.end, groups[2 * i])
                for i, stage in enumerate(alloc.stages)
            ]
            if prev is not None:
                assert all(m <= p + 1e-12 for m, p in zip(mem, prev))
            prev = mem


class TestIlpFastPath:
    @pytest.fixture
    def noncontig(self):
        chain = uniform_chain(8, u_f=1.0, u_b=2.0, weights=MB, activation=64 * MB)
        alloc = Allocation(Partitioning.from_cuts(8, [2, 6]), (0, 1, 0))
        return chain, Platform.of(2, 4.0, 12), alloc

    def test_skeleton_instances_are_bit_identical(self, noncontig):
        """One skeleton instantiated at several periods, a repeat among
        them, matches a fresh ``build_milp`` at each period exactly:
        constraint matrix, row bounds, variable bounds and costs."""
        chain, plat, alloc = noncontig
        for family in ("1f1b", "zero_bubble"):
            skeleton = build_skeleton(chain, plat, alloc, schedule_family=family)
            for T in (20.0, 13.5, 31.25, 20.0):
                got = skeleton.instantiate(T)
                want = build_milp(chain, plat, alloc, T, schedule_family=family)
                (g,), (w,) = got.constraints, want.constraints
                assert np.array_equal(g.A, w.A)
                assert np.array_equal(g.lb, w.lb) and np.array_equal(g.ub, w.ub)
                assert np.array_equal(got.bounds.lb, want.bounds.lb)
                assert np.array_equal(got.bounds.ub, want.bounds.ub)
                assert np.array_equal(got.c, want.c)

    def test_fast_agrees_with_reference_bisection(self, noncontig):
        """Both searches certify to rel_tol, so they agree within the
        combined band (trajectories differ by design)."""
        chain, plat, alloc = noncontig
        rel_tol = 5e-3
        fast = schedule_allocation(chain, plat, alloc, rel_tol=rel_tol)
        ref = schedule_allocation_reference(chain, plat, alloc, rel_tol=rel_tol)
        assert fast.feasible and ref.feasible
        assert fast.period <= ref.period * (1 + 2 * rel_tol) + 1e-12
        assert ref.period <= fast.period * (1 + 2 * rel_tol) + 1e-12

    def test_trace_carries_timings(self, noncontig):
        chain, plat, alloc = noncontig
        res = schedule_allocation(chain, plat, alloc)
        t = res.timings
        assert t["milp_probes"] == len(res.probes) > 0
        assert t["solve_s"] > 0.0
        assert all(p.kind in ("milp", "lp") for p in res.trace)


class TestBruteForceMemo:
    def test_best_special_memoizes_contiguous_variants(self):
        chain = random_chain(5, seed=2, decay=0.2)
        plat = Platform.of(3, 1.0, 12)
        oracle = best_special(chain, plat, ilp_time_limit=5)
        # duplicate layouts are skipped and contiguous variants share one
        # 1F1B* solve, so strictly fewer searches than allocations
        assert 0 < oracle.solver_calls < oracle.evaluated
        contig = best_contiguous(chain, plat)
        assert contig.solver_calls == contig.evaluated
        if oracle.feasible and contig.feasible:
            assert oracle.period <= contig.period * (1 + 1e-9)
