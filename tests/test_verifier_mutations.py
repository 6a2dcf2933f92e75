"""Mutation tests for the discrete-event verifier.

The certification gate is only as strong as :func:`repro.sim.verify_pattern`;
these tests mutate a known-valid pattern in the canonical ways a buggy
planner could break one — misplacing an op, dropping a dependency edge
(a communication op), inflating a duration, overfilling a GPU, and
claiming a duration the chain does not give (caught only by comparing
the pattern with the allocation's op table) — and require the verifier
to reject every mutant while accepting the original.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.algorithms.madpipe import madpipe
from repro.algorithms.madpipe_dp import Discretization
from repro.algorithms.pipedream import pipedream
from repro.core.pattern import PatternError, PeriodicPattern
from repro.core.platform import Platform
from repro.models.synthetic import random_chain
from repro.robust import certify_pattern
from repro.sim import verify_pattern

MB = float(2**20)


@pytest.fixture
def planned(uniform8, roomy4):
    """A certified-valid (chain, platform, pattern) triple with comm ops."""
    res = pipedream(uniform8, roomy4)
    assert res.feasible and res.schedule is not None
    pattern = res.schedule.pattern
    assert any(k[0] == "CF" for k in pattern.ops), "need cut boundaries"
    return uniform8, roomy4, pattern


def mutate(pattern: PeriodicPattern, changes: dict) -> PeriodicPattern:
    """Copy ``pattern`` with selected ops replaced (key -> field dict)."""
    ops = dict(pattern.ops)
    for key, fields in changes.items():
        ops[key] = dataclasses.replace(ops[key], **fields)
    return PeriodicPattern(
        allocation=pattern.allocation, period=pattern.period, ops=ops
    )


class TestVerifierMutations:
    def test_unmutated_pattern_passes(self, planned):
        chain, platform, pattern = planned
        report = verify_pattern(chain, platform, pattern)
        assert not report.violations

    def test_shifted_op_rejected(self, planned):
        """Moving a backward onto its own forward's start violates the
        F_i -> B_i dependency (and overlaps the GPU)."""
        chain, platform, pattern = planned
        f = pattern.ops[("F", 0)]
        mutant = mutate(pattern, {("B", 0): dict(start=f.start, shift=f.shift)})
        with pytest.raises(PatternError):
            verify_pattern(chain, platform, mutant)

    def test_dropped_dependency_edge_rejected(self, planned):
        """Deleting the activation transfer of a cut boundary severs the
        F_i -> CF_i -> F_{i+1} dependency chain."""
        chain, platform, pattern = planned
        key = next(k for k in pattern.ops if k[0] == "CF")
        ops = {k: v for k, v in pattern.ops.items() if k != key}
        mutant = PeriodicPattern(
            allocation=pattern.allocation, period=pattern.period, ops=ops
        )
        with pytest.raises(PatternError):
            verify_pattern(chain, platform, mutant)

    def test_inflated_duration_rejected(self, planned):
        """Tripling one op's duration makes it collide with its resource
        neighbours (the 1F1B* pattern is tightly packed)."""
        chain, platform, pattern = planned
        key = ("F", 0)
        mutant = mutate(pattern, {key: dict(duration=3.0 * pattern.ops[key].duration)})
        with pytest.raises(PatternError):
            verify_pattern(chain, platform, mutant)

    def test_overfilled_gpu_rejected(self, planned):
        """The same pattern on a platform with a fraction of the memory
        must trip the capacity check."""
        chain, platform, pattern = planned
        peak = max(pattern.memory_peaks(chain).values())
        tight = Platform(
            n_procs=platform.n_procs,
            memory=0.5 * peak,
            bandwidth=platform.bandwidth,
        )
        with pytest.raises(PatternError):
            verify_pattern(chain, tight, pattern)

    def test_wrong_resource_rejected(self, planned):
        chain, platform, pattern = planned
        op = pattern.ops[("F", 0)]
        other = ("gpu", (op.resource[1] + 1) % platform.n_procs)
        mutant = mutate(pattern, {("F", 0): dict(resource=other)})
        with pytest.raises(PatternError):
            verify_pattern(chain, platform, mutant)


def assert_rejected(chain, platform, mutant, match=None):
    """``verify_pattern`` raises on ``mutant`` and the certification gate
    refuses it."""
    with pytest.raises(PatternError, match=match):
        verify_pattern(chain, platform, mutant)
    assert not certify_pattern(chain, platform, mutant).ok


class TestDurationMutations:
    """Every op's duration must be the one the allocation's op table
    gives for the chain: a pattern that under-claims an op's time can
    still pass the dependency, overlap and memory checks, so only the
    table comparison catches it."""

    def test_halved_backward_rejected(self, planned):
        chain, platform, pattern = planned
        b = pattern.ops[("B", 1)]
        mutant = mutate(pattern, {("B", 1): dict(duration=0.5 * b.duration)})
        assert_rejected(chain, platform, mutant, match="duration")

    def test_lengthened_transfer_rejected(self, milp_planned):
        """Lengthen the activation transfer with the most room after it by
        half that room: it still meets its successor and clears its link."""
        chain, platform, pattern = milp_planned
        room = {k: _room_after(pattern, k) for k in pattern.ops if k[0] == "CF"}
        key = max(room, key=room.get)
        assert room[key] > 0
        longer = pattern.ops[key].duration + 0.5 * room[key]
        mutant = mutate(pattern, {key: dict(duration=longer)})
        assert_rejected(chain, platform, mutant, match="duration")


@pytest.fixture
def milp_planned():
    """A certified MadPipe pattern from the MILP (non-contiguous), whose
    start times leave room after some transfers."""
    chain = random_chain(10, seed=0, decay=0.2)
    platform = Platform(3, 1.5e9, 4e9)
    res = madpipe(chain, platform, grid=Discretization.coarse(), iterations=4)
    assert res.certificate.ok and not res.pattern.allocation.is_contiguous()
    return chain, platform, res.pattern


def _room_after(pattern: PeriodicPattern, key) -> float:
    """Time op ``key`` could grow by before it delays a dependent op or
    reaches the next op on its resource."""
    T, op = pattern.period, pattern.ops[key]
    room = [T - op.duration]
    for u, v in pattern.dependency_edges():
        if u == key:
            w = pattern.ops[v]
            room.append((w.shift - op.shift) * T + w.start - op.start - op.duration)
    for other in pattern.ops.values():
        if other is not op and other.resource == op.resource:
            room.append((other.start - op.start) % T - op.duration)
    return min(room)


@pytest.fixture
def zb_planned(uniform8, roomy4):
    """A certified-valid zero-bubble (chain, platform, pattern) triple."""
    res = pipedream(uniform8, roomy4, schedule_family="zero_bubble")
    assert res.feasible and res.schedule is not None
    pattern = res.schedule.pattern
    assert any(k[0] == "W" for k in pattern.ops), "need split backwards"
    return uniform8, roomy4, pattern


class TestSplitBackwardMutations:
    """The verifier must police the W half of a split backward as strictly
    as the classic op kinds: W ops can't silently vanish, run before their
    grad-input half, or overfill a GPU through the grad-input buffer."""

    def test_unmutated_zb_pattern_passes(self, zb_planned):
        chain, platform, pattern = zb_planned
        report = verify_pattern(chain, platform, pattern)
        assert not report.violations

    def test_dropped_w_rejected(self, zb_planned):
        """Split backwards are all-or-nothing: a planner that loses one
        stage's grad-weight op never trains that stage's weights."""
        chain, platform, pattern = zb_planned
        key = next(k for k in pattern.ops if k[0] == "W")
        ops = {k: v for k, v in pattern.ops.items() if k != key}
        mutant = PeriodicPattern(
            allocation=pattern.allocation, period=pattern.period, ops=ops
        )
        with pytest.raises(PatternError, match="every stage"):
            verify_pattern(chain, platform, mutant)

    def test_w_before_b_rejected(self, zb_planned):
        """W consumes B's grad-input buffer; starting it at B's own start
        violates the B_i -> W_i dependency (and overlaps the GPU)."""
        chain, platform, pattern = zb_planned
        key = next(k for k in pattern.ops if k[0] == "W")
        b = pattern.ops[("B", key[1])]
        mutant = mutate(pattern, {key: dict(start=b.start, shift=b.shift)})
        with pytest.raises(PatternError):
            verify_pattern(chain, platform, mutant)

    def test_moved_split_rejected(self, zb_planned):
        """A stage whose backward is split at another share than the
        family's disagrees with the op table, even with W moved so that
        both ops keep their order, their sum and W's end.  (At the 2BP
        share of one half, swapping B's and W's durations is a no-op, so
        the split moves by a quarter of the backward instead.)"""
        chain, platform, pattern = zb_planned
        i = next(k[1] for k in pattern.ops if k[0] == "W")
        b, w = pattern.ops[("B", i)], pattern.ops[("W", i)]
        assert b.duration == w.duration
        q = 0.5 * b.duration
        mutant = mutate(pattern, {
            ("B", i): dict(duration=b.duration + q),
            ("W", i): dict(start=w.start + q, duration=w.duration - q),
        })
        mutant.normalize()
        assert_rejected(chain, platform, mutant, match="duration")

    def test_grad_buffer_overfill_rejected(self, zb_planned):
        """The capacity check must count the grad-input buffer held from
        B start to W completion: a budget that only fits the pattern when
        that buffer is ignored has to be rejected."""
        chain, platform, pattern = zb_planned
        peaks = pattern.memory_peaks(chain)
        proc, peak = max(peaks.items(), key=lambda kv: kv[1])
        ghat = min(
            pattern.allocation.stages[i].grad_buffer(chain)
            for i in pattern.allocation.stages_on_proc(proc)
            if ("W", i) in pattern.ops
        )
        assert ghat > 0

        # without grad-buffer accounting this budget would look feasible
        nograd = mutate(pattern, {})
        nograd.active_grad_batches = lambda stage_idx, tau: 0
        peak_nograd = max(nograd.memory_peaks(chain).values())
        capacity = peak - 0.5 * ghat
        assert peak_nograd <= capacity < peak

        tight = Platform(
            n_procs=platform.n_procs, memory=capacity, bandwidth=platform.bandwidth
        )
        with pytest.raises(PatternError, match="memory"):
            pattern.check_memory(chain, tight)

        # ...and just above the true peak the same pattern verifies clean
        roomy = Platform(
            n_procs=platform.n_procs, memory=1.001 * peak, bandwidth=platform.bandwidth
        )
        verify_pattern(chain, roomy, pattern)
