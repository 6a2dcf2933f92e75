"""Exhaustive baselines for small instances.

These oracles enumerate the whole search space and are exponential in the
chain length — they exist to *validate* the dynamic programs, not to
replace them.

* :func:`best_contiguous` — all contiguous partitionings into ≤ P stages,
  each scheduled with the optimal 1F1B\\*; the true optimum of the
  contiguous problem.
* :func:`best_special` — additionally assigns every stage subset to the
  special processor (the MadPipe allocation space), scheduling with the
  phase-2 ILP.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from repro.algorithms.onef1b import OneF1BResult, min_feasible_period
from repro.core.chain import Chain
from repro.core.partition import Allocation, Partitioning
from repro.core.platform import Platform
from repro.ilp.solver import schedule_allocation

__all__ = ["BruteForceResult", "best_contiguous", "best_special"]

INF = float("inf")


@dataclass
class BruteForceResult:
    """The certified optimum over an exhaustively enumerated space.

    ``evaluated`` counts the *distinct* allocations examined (duplicate
    ``procs`` layouts produced by different special-subset choices are
    skipped); ``solver_calls`` counts the period searches actually run —
    contiguous variants of one partitioning share a single memoized
    1F1B\\* solve, so ``solver_calls ≤ evaluated``.
    """

    period: float
    allocation: Allocation | None
    evaluated: int
    solver_calls: int = 0

    @property
    def feasible(self) -> bool:
        return self.allocation is not None


def _partitionings(L: int, max_stages: int):
    for n_cuts in range(0, max_stages):
        for cuts in combinations(range(1, L), n_cuts):
            yield Partitioning.from_cuts(L, list(cuts))


def best_contiguous(
    chain: Chain, platform: Platform, *, max_layers: int = 12
) -> BruteForceResult:
    """True optimal contiguous solution by exhaustive enumeration +
    1F1B\\* (which is optimal per partitioning, Prop. 1)."""
    if chain.L > max_layers:
        raise ValueError(
            f"refusing brute force on L={chain.L} (> {max_layers}); "
            "this oracle is exponential"
        )
    best = BruteForceResult(INF, None, 0)
    for part in _partitionings(chain.L, platform.n_procs):
        best.evaluated += 1
        best.solver_calls += 1
        res: OneF1BResult | None = min_feasible_period(
            chain, platform, part, build=False
        )
        if res is not None and res.period < best.period:
            best.period = res.period
            best.allocation = Allocation.contiguous(part)
    return best


def best_special(
    chain: Chain,
    platform: Platform,
    *,
    max_layers: int = 8,
    ilp_time_limit: float = 10.0,
) -> BruteForceResult:
    """Optimum over the MadPipe allocation space (one special processor)
    by exhaustive enumeration + the scheduling ILP.

    For every partitioning into at most ``P − 1 + k`` stages and every
    choice of stages for the special processor (the rest one-per-GPU),
    run the period binary search.  Exponential — tiny chains only.

    Two redundancies in the enumeration are skipped without changing the
    optimum: different special subsets can produce the *same* ``procs``
    layout (only the first is evaluated), and every contiguous variant of
    one partitioning has the same 1F1B\\* optimal period (solved once and
    memoized).  See :class:`BruteForceResult` for the counter semantics.
    """
    if chain.L > max_layers:
        raise ValueError(
            f"refusing brute force on L={chain.L} (> {max_layers}); "
            "this oracle is exponential"
        )
    P = platform.n_procs
    best = BruteForceResult(INF, None, 0)
    for part in _partitionings(chain.L, 2 * P):
        n = part.n_stages
        seen: set[tuple[int, ...]] = set()
        contig_period: float | None = None
        for n_special in range(0, n + 1):
            if n - n_special > (P - 1 if n_special else P):
                continue
            for special in combinations(range(n), n_special):
                procs, normal = [], 0
                for i in range(n):
                    if i in special:
                        procs.append(P - 1)
                    else:
                        procs.append(normal)
                        normal += 1
                procs_t = tuple(procs)
                if procs_t in seen:
                    continue
                seen.add(procs_t)
                alloc = Allocation(part, procs_t)
                best.evaluated += 1
                if alloc.is_contiguous():
                    if contig_period is None:
                        best.solver_calls += 1
                        res = min_feasible_period(
                            chain, platform, part, build=False
                        )
                        contig_period = res.period if res is not None else INF
                    period = contig_period
                else:
                    best.solver_calls += 1
                    ilp = schedule_allocation(
                        chain, platform, alloc, time_limit=ilp_time_limit
                    )
                    period = ilp.period
                if period < best.period:
                    best.period = period
                    best.allocation = alloc
    return best
