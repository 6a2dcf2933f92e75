"""Reference (naive) 1F1B\\* minimal-period search — golden oracle.

This module preserves the original pure-Python implementation of
``assign_groups`` and ``min_feasible_period`` exactly as shipped before
the NumPy kernel rewrite in :mod:`repro.algorithms.onef1b`.  It follows
the same pattern as :mod:`tests.oracles.madpipe_dp_reference`: the
fast path must return **bit-identical** periods, group assignments and
per-processor memory, and the golden tests in
``tests/test_phase2_fastpath.py`` enforce that on randomized chains and
platforms.

Keep this file dumb and obviously correct; optimize only the main
module.
"""

from __future__ import annotations

from repro.algorithms.onef1b import (
    CANDIDATE_ATOL,
    GROUP_FIT_RTOL,
    MEMORY_FIT_RTOL,
    Item,
    OneF1BResult,
    build_pattern,
    extended_items,
)
from repro.core.chain import Chain
from repro.core.memory import stage_memory
from repro.core.partition import Allocation, Partitioning
from repro.core.platform import Platform

__all__ = ["assign_groups_reference", "min_feasible_period_reference"]


def assign_groups_reference(items: list[Item], period: float) -> list[int]:
    """Group index (1 = last group, as in the paper) per item.

    Built iteratively from the last item; a group absorbs earlier items
    while its total load stays ≤ ``period``.  Any single item with load
    > ``period`` makes the period infeasible (ValueError).
    """
    groups = [0] * len(items)
    g = 1
    acc = 0.0
    for i in range(len(items) - 1, -1, -1):
        load = items[i].load
        if load > period * (1 + GROUP_FIT_RTOL):
            raise ValueError(
                f"item {items[i].kind}{items[i].index} load {load:.4g} "
                f"exceeds period {period:.4g}"
            )
        if acc + load > period * (1 + GROUP_FIT_RTOL):
            g += 1
            acc = 0.0
        acc += load
        groups[i] = g
    return groups


def _stage_memories(
    chain: Chain, allocation: Allocation, items: list[Item], groups: list[int]
) -> dict[int, float]:
    """Per-processor memory of the 1F1B\\* schedule: stage in group ``g``
    keeps ``g`` activation copies (paper §4.1)."""
    memory: dict[int, float] = {}
    for item, g in zip(items, groups):
        if item.kind != "stage":
            continue
        s = allocation.stages[item.index]
        p = allocation.procs[item.index]
        memory[p] = memory.get(p, 0.0) + stage_memory(chain, s.start, s.end, g)
    return memory


def min_feasible_period_reference(
    chain: Chain,
    platform: Platform,
    partitioning: Partitioning,
    *,
    build: bool = True,
) -> OneF1BResult | None:
    """Smallest period at which the 1F1B\\* schedule of ``partitioning``
    fits in memory on every GPU; ``None`` if no period works.

    Candidate periods are the group-structure breakpoints: sums of item
    loads over contiguous item ranges (grouping only changes there), plus
    the bottleneck lower bound.  Increasing T can only merge groups, so
    memory usage is non-increasing in T and the scan stops at the first
    feasible candidate.
    """
    allocation = Allocation.contiguous(partitioning)
    if partitioning.n_stages > platform.n_procs:
        raise ValueError("more stages than processors")
    items = extended_items(chain, platform, allocation)
    loads = [it.load for it in items]
    lower = max(loads)

    candidates = {lower}
    n = len(items)
    for a in range(n):
        acc = 0.0
        for b in range(a, n):
            acc += loads[b]
            if acc >= lower - CANDIDATE_ATOL:
                candidates.add(acc)
    for T in sorted(candidates):
        groups = assign_groups_reference(items, T)
        memory = _stage_memories(chain, allocation, items, groups)
        if all(m <= platform.memory * (1 + MEMORY_FIT_RTOL) for m in memory.values()):
            pattern = (
                build_pattern(chain, platform, allocation, T) if build else None
            )
            stage_groups = {
                it.index: g
                for it, g in zip(items, groups)
                if it.kind == "stage"
            }
            return OneF1BResult(
                period=T, pattern=pattern, groups=stage_groups, memory=memory
            )
    return None
