"""Property-based tests (hypothesis) on the core invariants."""

from __future__ import annotations

import dataclasses
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.algorithms import min_feasible_period, pipedream
from repro.algorithms.madpipe import madpipe
from repro.algorithms.madpipe_dp import Discretization, algorithm1, madpipe_dp
from repro.algorithms.onef1b import Item, assign_groups
from repro.core import Chain, LayerProfile, Partitioning, Platform
from repro.models import random_chain

MB = float(2**20)
COARSE = Discretization.coarse()


@st.composite
def chains(draw, min_layers=2, max_layers=12):
    L = draw(st.integers(min_layers, max_layers))
    layers = []
    for i in range(L):
        layers.append(
            LayerProfile(
                name=f"l{i}",
                u_f=draw(st.floats(0.01, 2.0)),
                u_b=draw(st.floats(0.01, 4.0)),
                weights=draw(st.floats(0.0, 64.0)) * MB,
                activation=draw(st.floats(0.1, 128.0)) * MB,
            )
        )
    a0 = draw(st.floats(0.1, 128.0)) * MB
    return Chain(layers, a0, name="hyp")


@st.composite
def chain_and_cuts(draw):
    chain = draw(chains(min_layers=4))
    n_cuts = draw(st.integers(1, min(3, chain.L - 1)))
    cuts = sorted(
        draw(
            st.lists(
                st.integers(1, chain.L - 1),
                min_size=n_cuts,
                max_size=n_cuts,
                unique=True,
            )
        )
    )
    return chain, cuts


class TestChainInvariants:
    @given(chains())
    def test_prefix_sums_match_naive(self, chain):
        for k in range(1, chain.L + 1):
            for l in range(k, chain.L + 1):
                naive = sum(
                    chain.u_f(i) + chain.u_b(i) for i in range(k, l + 1)
                )
                assert math.isclose(chain.U(k, l), naive, rel_tol=1e-9, abs_tol=1e-12)

    @given(chains())
    def test_U_additive(self, chain):
        L = chain.L
        mid = L // 2
        if mid >= 1:
            assert math.isclose(
                chain.U(1, L),
                chain.U(1, mid) + chain.U(mid + 1, L),
                rel_tol=1e-9,
            )

    @given(chains())
    def test_serialization_roundtrip(self, chain):
        clone = Chain.from_dict(chain.to_dict())
        assert clone.L == chain.L
        assert math.isclose(clone.total_compute(), chain.total_compute(), rel_tol=1e-12)


class TestGroupingInvariants:
    @given(
        st.lists(st.floats(0.01, 5.0), min_size=1, max_size=10),
        st.floats(5.0, 50.0),
    )
    def test_groups_contiguous_decreasing_from_back(self, loads, period):
        items = [Item("stage", i, l / 2, l / 2) for i, l in enumerate(loads)]
        groups = assign_groups(items, period)
        assert groups[-1] == 1
        # group indices are non-increasing along the chain and step by <= 1
        for a, b in zip(groups, groups[1:]):
            assert a in (b, b + 1)

    @given(
        st.lists(st.floats(0.01, 5.0), min_size=1, max_size=10),
        st.floats(5.0, 50.0),
    )
    def test_group_loads_within_period(self, loads, period):
        items = [Item("stage", i, l / 2, l / 2) for i, l in enumerate(loads)]
        groups = assign_groups(items, period)
        by_group: dict[int, float] = {}
        for it, g in zip(items, groups):
            by_group[g] = by_group.get(g, 0.0) + it.load
        for g, total in by_group.items():
            assert total <= period * (1 + 1e-9)

    @given(
        st.lists(st.floats(0.01, 5.0), min_size=2, max_size=10),
        st.floats(5.0, 20.0),
    )
    def test_larger_period_never_more_groups(self, loads, period):
        items = [Item("stage", i, l / 2, l / 2) for i, l in enumerate(loads)]
        g1 = assign_groups(items, period)
        g2 = assign_groups(items, period * 1.7)
        assert max(g2) <= max(g1)


class TestOneF1BProperties:
    @settings(max_examples=30, deadline=None)
    @given(chain_and_cuts())
    def test_min_period_pattern_always_valid(self, data):
        chain, cuts = data
        part = Partitioning.from_cuts(chain.L, cuts)
        platform = Platform.of(part.n_stages, 1024.0, 12)
        res = min_feasible_period(chain, platform, part)
        assert res is not None
        res.pattern.validate(chain, platform)
        res.pattern.check_memory(chain, platform)

    @settings(max_examples=30, deadline=None)
    @given(chain_and_cuts(), st.floats(0.001, 2.0))
    def test_memory_feasibility_monotone(self, data, mem_gb):
        """If a period is feasible at memory M, it stays feasible at 2M."""
        chain, cuts = data
        part = Partitioning.from_cuts(chain.L, cuts)
        small = Platform.of(part.n_stages, mem_gb, 12)
        big = Platform.of(part.n_stages, 2 * mem_gb, 12)
        r_small = min_feasible_period(chain, small, part, build=False)
        r_big = min_feasible_period(chain, big, part, build=False)
        if r_small is not None:
            assert r_big is not None
            assert r_big.period <= r_small.period * (1 + 1e-9)


class TestPipeDreamProperties:
    @settings(max_examples=25, deadline=None)
    @given(chains(min_layers=4))
    def test_partition_covers_and_fits(self, chain):
        platform = Platform.of(4, 1024.0, 12)
        res = pipedream(chain, platform)
        assert res.feasible
        res.partitioning.validate_cover(chain)
        assert res.period >= res.dp_period - 1e-9
        assert res.partitioning.n_stages <= 4


class TestMadPipeDPProperties:
    @settings(max_examples=15, deadline=None)
    @given(chains(min_layers=4, max_layers=10), st.floats(0.3, 1.5))
    def test_allocation_structure(self, chain, frac):
        platform = Platform.of(3, 1024.0, 12)
        target = chain.total_compute() * frac / 3
        res = madpipe_dp(chain, platform, target, grid=COARSE)
        assume(res.feasible)
        alloc = res.allocation
        # stages tile the chain exactly
        assert alloc.stages[0].start == 1
        assert alloc.stages[-1].end == chain.L
        for a, b in zip(alloc.stages, alloc.stages[1:]):
            assert b.start == a.end + 1
        # at most P-1 normal stages
        assert sum(1 for s in alloc.special if not s) <= 2
        # load-based period is a true lower bound of the DP value
        concrete = alloc.to_allocation(platform)
        assert res.dp_period >= concrete.period_lower_bound(chain, platform) - 1e-6

    @pytest.mark.parametrize("allow_special", [True, False])
    @pytest.mark.parametrize("c", [2.0, 0.5])
    @settings(max_examples=12, deadline=None)
    @given(
        chains(min_layers=3, max_layers=10),
        st.integers(1, 4),
        st.sampled_from([0.25, 1.0, 1024.0]),
    )
    def test_time_scaling(self, c, allow_special, chain, n_procs, memory_gb):
        """Scaling every duration by a power of two ``c`` (compute times by
        ``c``, bandwidth by ``1/c``) is exact in floating point and leaves
        every ratio the DP rounds unchanged: the search makes the same
        decisions, and its periods scale by exactly ``c``."""
        scaled = Chain(
            [dataclasses.replace(x, u_f=c * x.u_f, u_b=c * x.u_b) for x in chain.layers],
            chain.input_activation,
        )
        platform = Platform.of(n_procs, memory_gb, 12)
        scaled_platform = Platform(n_procs, platform.memory, platform.bandwidth / c)
        opts = dict(iterations=5, grid=COARSE, allow_special=allow_special)
        base = algorithm1(chain, platform, **opts)
        res = algorithm1(scaled, scaled_platform, **opts)
        assert res.allocation == base.allocation
        assert res.visited == base.visited
        assert (res.states, res.pruned_cap, res.pruned_mem) == (
            base.states, base.pruned_cap, base.pruned_mem
        )
        assert res.period == c * base.period
        assert res.history == [(c * t, c * p) for t, p in base.history]

    @pytest.mark.parametrize("family", ["1f1b", "zero_bubble"])
    def test_time_scaling_certified_period(self, family):
        """The same law end to end: ``madpipe()`` (phase 1, the contiguous
        search, the MILP and the certification gate) on seeded small
        chains returns the same status and allocation, and a certified
        period scaled by exactly ``c``.  The instances cover MILP searches
        ending ``ok`` and ``capped``, so HiGHS's answers scale exactly too."""
        opts = dict(iterations=6, grid=COARSE, ilp_time_limit=30, schedule_family=family)
        ilp_statuses = set()
        for seed in range(4):
            chain = random_chain(8, seed=seed, decay=0.2)
            for n_procs in (2, 3, 4):
                for memory_gb in (0.8, 1.5):
                    platform = Platform.of(n_procs, memory_gb, 12)
                    base = madpipe(chain, platform, **opts)
                    if base.ilp is not None:
                        ilp_statuses.add(base.ilp.status)
                    for c in (2.0, 0.5):
                        scaled = Chain(
                            [dataclasses.replace(x, u_f=c * x.u_f, u_b=c * x.u_b)
                             for x in chain.layers],
                            chain.input_activation, name=chain.name,
                        )
                        res = madpipe(
                            scaled, Platform(n_procs, platform.memory, platform.bandwidth / c),
                            **opts,
                        )
                        key = (seed, n_procs, memory_gb, c)
                        assert res.status == base.status, key
                        assert res.allocation == base.allocation, key
                        assert res.period == c * base.period, key
                        if base.pattern is not None:
                            assert res.certificate.ok and base.certificate.ok, key
                            assert res.certificate.period == c * base.certificate.period, key
        assert {"ok", "capped"} <= ilp_statuses


class TestSerializationProperties:
    @settings(max_examples=25, deadline=None)
    @given(chain_and_cuts())
    def test_pattern_roundtrip_preserves_validity(self, data):
        from repro.core import pattern_from_dict, pattern_to_dict

        chain, cuts = data
        part = Partitioning.from_cuts(chain.L, cuts)
        platform = Platform.of(part.n_stages, 1024.0, 12)
        res = min_feasible_period(chain, platform, part)
        assert res is not None
        clone = pattern_from_dict(pattern_to_dict(res.pattern))
        clone.validate(chain, platform)
        assert clone.memory_peaks(chain) == res.pattern.memory_peaks(chain)


class TestOplusProperties:
    """The group-rounding operator x ⊕ y of §4.2.2."""

    @staticmethod
    def _oplus(x: float, y: float, That: float) -> float:
        cx = math.ceil(x / That - 1e-9)
        if cx == math.ceil((x + y) / That - 1e-9):
            return x + y
        return That * cx + y

    @given(
        st.floats(0.0, 100.0),
        st.floats(0.001, 50.0),
        st.floats(0.1, 20.0),
    )
    def test_oplus_bounds(self, x, y, That):
        """x ⊕ y is at least x + y... no: it rounds x DOWN to a period
        boundary when a new group starts, so the sharp invariants are
        y-monotonicity and the bracket ⌈x/T⌉·T ≥ x ⊕ y − y ≥ x − T."""
        z = self._oplus(x, y, That)
        assert z - y <= math.ceil(x / That - 1e-9) * That + 1e-6
        assert z - y >= x - That - 1e-6

    @given(
        st.floats(0.0, 100.0),
        st.floats(0.001, 50.0),
        st.floats(0.1, 20.0),
    )
    def test_oplus_same_group_is_plain_addition(self, x, y, That):
        z = self._oplus(x, y, That)
        if math.ceil(x / That - 1e-9) == math.ceil((x + y) / That - 1e-9):
            assert z == x + y

    @given(
        st.floats(0.0, 50.0),
        st.floats(0.001, 25.0),
        st.floats(0.001, 25.0),
        st.floats(0.1, 20.0),
    )
    def test_oplus_monotone_in_y(self, x, y1, y2, That):
        lo, hi = sorted((y1, y2))
        assert self._oplus(x, lo, That) <= self._oplus(x, hi, That) + 1e-9


