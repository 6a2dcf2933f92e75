"""PipeDream-style contiguous partitioner (the paper's baseline, §5.1).

PipeDream's dynamic program balances a contiguous partitioning over at
most ``P`` GPUs, minimizing the bottleneck resource load.  Its memory
check is *optimistic*: a stage that is ``s``-th from the end of the
pipeline is assumed to store at most ``s`` activation copies, whereas the
optimal schedule may need up to ``2s − 1`` once communication boundaries
are counted (§4.1).  As in the paper we therefore report two numbers for
the baseline:

* the DP's own (optimistic) period — the dashed line of Fig. 6;
* the period of a *valid* schedule obtained by running 1F1B\\* on the
  returned partitioning — the solid line.

The DP may thus return a partitioning no valid schedule fits; like
MadPipe, :func:`pipedream` runs its own certification gate and decides
its own ``status`` (``infeasible`` then), ``notes`` and ``certificate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.chain import Chain
from ..core.memory import stage_memory
from ..core.partition import Partitioning
from ..core.pattern import PeriodicPattern
from ..core.platform import Platform
from ..robust.certify import Certificate, certify_pattern
from .onef1b import OneF1BResult, contiguous_search

__all__ = ["PipeDreamResult", "pipedream_partition", "pipedream"]

INF = float("inf")


@dataclass
class PipeDreamResult:
    """PipeDream baseline outcome.

    ``dp_period`` is the DP's optimistic estimate; ``period`` the valid
    1F1B\\* period of the same partitioning (``inf`` when there is none).
    ``status`` is ``ok``, ``infeasible`` (no partitioning, or no valid
    schedule for it) or ``error`` (the pattern failed certification and
    is withheld: PipeDream has no fallback), with the reason in
    ``notes``; ``certificate`` is ``None`` only with ``certify=False``.
    """

    partitioning: Partitioning | None
    dp_period: float
    schedule: OneF1BResult | None
    status: str = "ok"
    notes: list[str] = field(default_factory=list)
    certificate: Certificate | None = None

    @property
    def period(self) -> float:
        return self.schedule.period if self.schedule is not None else INF

    @property
    def pattern(self) -> PeriodicPattern | None:
        return self.schedule.pattern if self.schedule is not None else None

    @property
    def feasible(self) -> bool:
        return self.partitioning is not None

    @property
    def n_stages(self) -> int:
        return self.partitioning.n_stages if self.partitioning is not None else 0


def pipedream_partition(
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


def pipedream(
    chain: Chain,
    platform: Platform,
    *,
    schedule_family: str = "1f1b",
    certify: bool = True,
) -> PipeDreamResult:
    """Full baseline: PipeDream DP, then the family's contiguous
    construction (1F1B\\* by default) for a valid schedule.

    ``certify=True`` (the default) runs the pattern through the
    discrete-event certification gate; a failing pattern is withheld
    (status ``error``, counted as ``certify.quarantined``).
    """
    search = contiguous_search(schedule_family)
    partitioning, dp_period = pipedream_partition(chain, platform)
    result = PipeDreamResult(partitioning, dp_period, None)
    if partitioning is None:
        result.notes.append("pipedream found no memory-feasible partitioning")
    else:
        result.schedule = search(chain, platform, partitioning)
        if result.schedule is None:  # the optimistic memory check let it pass
            result.notes.append(f"no valid {schedule_family} schedule for the partitioning")
    if result.schedule is None:
        result.status = "infeasible"
    if certify:
        result.certificate = certify_pattern(
            chain, platform, result.pattern, source=f"pipedream:{chain.name}"
        )
        if not result.certificate.ok:
            obs.inc("certify.quarantined")
            result.schedule = None
            result.status = "error"
            result.notes.append(
                "certification failed: " + "; ".join(result.certificate.violations)
            )
    return result
