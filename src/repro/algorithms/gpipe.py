"""GPipe-style fill-drain baseline (related work, §2 / ref. [9]).

GPipe splits the batch into micro-batches, pushes them all forward
through the stage pipeline, then drains all backwards, and only then
updates the weights.  Resources idle during fill and drain (the
"bubble"), so for ``N`` stages and ``m`` micro-batches the effective
per-batch period is roughly ``(m + N − 1)/m`` times the bottleneck stage
load.  Every stage stores up to ``min(m, pipeline depth)`` activation
copies; unlike PipeDream only one weight version is needed (we still
charge 2 versions + gradient for a like-for-like comparison with the
paper's memory model).

This baseline is provided for context in the experiment harness; the
paper's figures compare PipeDream and MadPipe only.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.chain import Chain
from ..core.memory import stage_memory
from ..core.partition import Partitioning
from ..core.platform import Platform
from .pipedream import pipedream_partition

__all__ = ["GPipeResult", "gpipe_period", "gpipe"]

INF = float("inf")


@dataclass
class GPipeResult:
    """GPipe baseline outcome: effective per-batch period and memory."""

    partitioning: Partitioning | None
    micro_batches: int
    period: float

    @property
    def feasible(self) -> bool:
        return self.partitioning is not None

    @property
    def n_stages(self) -> int:
        return self.partitioning.n_stages if self.partitioning is not None else 0


def gpipe_period(
    chain: Chain,
    platform: Platform,
    partitioning: Partitioning,
    micro_batches: int,
) -> float:
    """Effective per-mini-batch period of a GPipe fill-drain schedule.

    One round processes ``m`` micro-batches (each ``1/m`` of the profiled
    mini-batch) through ``N`` stages with a fill/drain bubble of ``N − 1``
    micro-batch slots on the bottleneck resource.
    """
    m = micro_batches
    n = partitioning.n_stages
    bottleneck = 0.0
    for i, s in enumerate(partitioning):
        load = s.compute(chain) / m
        bottleneck = max(bottleneck, load)
        if i < n - 1:
            bottleneck = max(
                bottleneck, chain.comm_time(s.end, platform.bandwidth) / m
            )
    return bottleneck * (m + n - 1)


def gpipe(
    chain: Chain, platform: Platform, *, micro_batches: int = 4
) -> GPipeResult:
    """GPipe baseline: balanced contiguous partitioning + fill-drain.

    Reuses the PipeDream load-balancing DP for the partitioning, then
    checks the fill-drain memory (every stage holds up to
    ``min(m, stages-from-end)`` activation copies of ``1/m``-size
    micro-batches).
    """
    partitioning, _ = pipedream_partition(chain, platform)
    if partitioning is None:
        return GPipeResult(None, micro_batches, INF)
    m = micro_batches
    n = partitioning.n_stages
    for i, s in enumerate(partitioning):
        copies = min(m, n - i)
        # activations are 1/m of the profiled batch per copy
        usage = stage_memory(chain, s.start, s.end, 0) + (
            copies / m
        ) * chain.stored_activations(s.start, s.end)
        if usage > platform.memory:
            return GPipeResult(None, micro_batches, INF)
    return GPipeResult(
        partitioning, m, gpipe_period(chain, platform, partitioning, m)
    )
