"""Reference (scalar) PipeDream partition DP — golden oracle.

This module preserves the original triple-loop implementation of
``pipedream_partition`` exactly as shipped before the NumPy table
rewrite in :mod:`repro.algorithms.pipedream`.  It follows the same
pattern as :mod:`tests.oracles.onef1b_reference`: the fast path must
return **bit-identical** cuts and ``dp_period``, and the differential
test in ``tests/test_pipedream_fastpath.py`` enforces that on seeded
chains and platforms.

Keep this file dumb and obviously correct; optimize only the main
module.
"""

from __future__ import annotations

import numpy as np

from repro.core.chain import Chain
from repro.core.memory import stage_memory
from repro.core.partition import Partitioning
from repro.core.platform import Platform

__all__ = ["pipedream_partition_reference"]

INF = float("inf")


def pipedream_partition_reference(
    chain: Chain, platform: Platform
) -> tuple[Partitioning | None, float]:
    """PipeDream's DP: contiguous partitioning minimizing the bottleneck
    load under the optimistic memory estimate.

    Returns ``(partitioning, dp_period)`` or ``(None, inf)``.

    DP over suffixes: ``best[i][s]`` is the smallest achievable bottleneck
    for layers ``i..L`` split into exactly ``s`` stages, where the first of
    those stages is the ``s``-th from the end and hence assumed to store
    ``s`` activation copies.
    """
    L = chain.L
    P = platform.n_procs
    M = platform.memory

    # best[s][i]: bottleneck for layers i..L in s stages (1-based i)
    best = np.full((P + 1, L + 2), INF)
    choice = np.full((P + 1, L + 2), -1, dtype=int)

    for i in range(1, L + 1):
        if stage_memory(chain, i, L, 1) <= M:
            best[1][i] = chain.U(i, L)
    for s in range(2, P + 1):
        for i in range(1, L + 1):
            value, arg = INF, -1
            for j in range(i, L):  # stage i..j, then j+1..L in s-1 stages
                rest = best[s - 1][j + 1]
                if rest == INF:
                    continue
                if stage_memory(chain, i, j, s) > M:
                    continue
                cand = max(
                    chain.U(i, j),
                    chain.comm_time(j, platform.bandwidth),
                    rest,
                )
                if cand < value:
                    value, arg = cand, j
            best[s][i] = value
            choice[s][i] = arg

    s_opt = int(np.argmin(best[1:, 1])) + 1
    if best[s_opt][1] == INF:
        return None, INF

    cuts = []
    i, s = 1, s_opt
    while s > 1:
        j = int(choice[s][i])
        cuts.append(j)
        i, s = j + 1, s - 1
    return Partitioning.from_cuts(L, cuts), float(best[s_opt][1])
