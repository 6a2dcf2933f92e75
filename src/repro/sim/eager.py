"""Eager 1F1B execution (PipeDream's scheduling strategy, §4.1 ¶1).

PipeDream fixes a pipeline depth ``d`` (number of mini-batches in flight)
and starts every operation as soon as its inputs are available, giving
backwards priority over forwards on each GPU (the "1F1B" discipline).
This event-driven simulator executes that policy on any contiguous
allocation, measuring the achieved steady-state period and the actual
peak memory — the quantities the paper contrasts with the *optimal*
periodic 1F1B\\* pattern.  The peak comes from the pattern simulator's
memory trace (:mod:`repro.sim.engine`), so eager runs and certification
count memory the same way.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..core.chain import Chain
from ..core.partition import Allocation
from ..core.pattern import OpKey, allocation_ops, dependency_edges
from ..core.platform import Platform
from .engine import _memory_trace

__all__ = ["EagerReport", "eager_1f1b"]


@dataclass
class EagerReport:
    """Result of an eager 1F1B run."""

    n_batches: int
    depth: int
    makespan: float
    steady_period: float
    peak_memory: dict[int, float]
    executions: list[tuple[str, int, int, float, float]]  # kind, stage, batch, start, end


def eager_1f1b(
    chain: Chain,
    platform: Platform,
    allocation: Allocation,
    *,
    n_batches: int = 32,
    depth: int | None = None,
) -> EagerReport:
    """Run eager 1F1B on a contiguous allocation for ``n_batches``.

    The ops, their durations and resources are the allocation's
    :func:`~repro.core.pattern.allocation_ops` (``B`` the whole
    backward), and an op is ready once its predecessors along
    :func:`~repro.core.pattern.dependency_edges` are done for its batch.
    ``depth`` limits the number of batches in flight (default: the number
    of stages, PipeDream's choice).  The steady-state period is measured
    between consecutive completions in the second half of the run, the
    peak memory over the whole run (horizon = makespan).
    """
    if not allocation.is_contiguous():
        raise ValueError("eager 1F1B requires a contiguous allocation")
    n = allocation.n_stages
    if depth is None:
        depth = n
    if depth < 1:
        raise ValueError("depth must be >= 1")

    ops = allocation_ops(chain, platform, allocation, split=False)
    preds: dict[OpKey, list[OpKey]] = {key: [] for key in ops}
    succs: dict[OpKey, list[OpKey]] = {key: [] for key in ops}
    for u, v in dependency_edges(ops, n):
        preds[v].append(u)
        succs[u].append(v)

    done: dict[tuple[str, int, int], float] = {}  # (kind, stage, batch) -> end time
    free_at: dict[tuple, float] = {r: 0.0 for _, r in ops.values()}
    injected = 0
    completed = 0
    completion_times: list[float] = []
    executions: list[tuple[str, int, int, float, float]] = []

    # ready ops priority: (earliest possible start, B-before-F, batch)
    ready: list[tuple[float, int, int, str, int]] = []

    def push(kind: str, i: int, batch: int) -> None:
        t = max((done[(k, j, batch)] for (k, j) in preds[(kind, i)]), default=0.0)
        prio = 0 if kind in ("B", "CB") else 1
        heapq.heappush(ready, (t, prio, batch, kind, i))

    scheduled: set[tuple[str, int, int]] = set()

    def try_push(kind: str, i: int, batch: int) -> None:
        key = (kind, i, batch)
        if key in scheduled:
            return
        if all((k, j, batch) in done for (k, j) in preds[(kind, i)]):
            scheduled.add(key)
            push(kind, i, batch)

    for b in range(min(depth, n_batches)):
        injected += 1
        scheduled.add(("F", 0, b))
        push("F", 0, b)

    while ready:
        t_ready, _prio, batch, kind, i = heapq.heappop(ready)
        d, r = ops[(kind, i)]
        start = max(t_ready, free_at[r])
        end = start + d
        # another ready op on this resource might start earlier: re-queue if
        # something strictly better exists (simple non-preemptive policy:
        # accept; the heap order already prefers earlier-ready backwards)
        free_at[r] = end
        done[(kind, i, batch)] = end
        executions.append((kind, i, batch, start, end))
        for sk, sj in succs[(kind, i)]:
            try_push(sk, sj, batch)
        if kind == "B" and i == 0:
            completed += 1
            completion_times.append(end)
            if injected < n_batches:
                nb = injected
                injected += 1
                scheduled.add(("F", 0, nb))
                push("F", 0, nb)

    makespan = max(e for (_, _, _, _, e) in executions)
    # steady-state period from the second half of completions
    half = completion_times[len(completion_times) // 2 :]
    steady = (
        (half[-1] - half[0]) / (len(half) - 1) if len(half) > 1 else makespan
    )

    peak = _memory_trace(
        chain, allocation, ((k, i, start, end) for k, i, _, start, end in executions), makespan
    )
    return EagerReport(
        n_batches=n_batches,
        depth=depth,
        makespan=makespan,
        steady_period=steady,
        peak_memory=peak,
        executions=executions,
    )
