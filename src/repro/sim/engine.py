"""Discrete-event execution of periodic patterns.

The simulator unrolls a pattern over ``K`` periods and *executes* it: every
operation instance gets an absolute start time and a batch index, and the
engine independently re-checks what the schedule promises — dependencies
between instances, exclusive resource use, and the per-GPU memory
occupancy over time (weights + communication buffers + one stored
activation set per active batch).

This is deliberately redundant with the analytic checks in
:class:`repro.core.pattern.PeriodicPattern`: the algorithms are validated
by running their output, not only by re-deriving it.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, field

from ..core.chain import Chain
from ..core.memory import static_memory
from ..core.pattern import PeriodicPattern
from ..core.platform import Platform
from ..core.tolerances import CHECK_RTOL, memory_slack

__all__ = ["Execution", "SimReport", "simulate"]


@dataclass(frozen=True)
class Execution:
    """One executed operation instance."""

    kind: str
    index: int
    batch: int
    start: float
    end: float
    resource: tuple


@dataclass
class SimReport:
    """Outcome of a pattern simulation."""

    horizon: float
    executions: list[Execution]
    peak_memory: dict[int, float]
    completed_batches: int
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    steady_completions: int = 0

    @property
    def throughput(self) -> float:
        """Completed mini-batches per second over the whole horizon
        (includes pipeline warm-up; see :attr:`steady_throughput`)."""
        return self.completed_batches / self.horizon if self.horizon > 0 else 0.0

    @property
    def steady_throughput(self) -> float:
        """Mini-batches per second over the second half of the horizon,
        where the pipeline is full (converges to ``1/T``)."""
        half = self.horizon / 2
        return self.steady_completions / half if half > 0 else 0.0


def simulate(
    chain: Chain,
    platform: Platform,
    pattern: PeriodicPattern,
    *,
    periods: int = 10,
    tol: float = CHECK_RTOL,
) -> SimReport:
    """Unroll and execute ``pattern`` for ``periods`` periods.

    Batch indices below 0 (the warm-up prefix of the infinite schedule)
    are skipped; dependency checks apply whenever both endpoints fall in
    the simulated window.
    """
    T = pattern.period
    alloc = pattern.allocation
    horizon = periods * T

    executions: list[Execution] = []
    by_key_batch: dict[tuple[str, int, int], Execution] = {}
    for k in range(periods):
        for op in pattern.ops.values():
            batch = k - op.shift
            if batch < 0:
                continue
            e = Execution(
                kind=op.kind,
                index=op.index,
                batch=batch,
                start=k * T + op.start,
                end=k * T + op.start + op.duration,
                resource=op.resource,
            )
            executions.append(e)
            by_key_batch[(op.kind, op.index, batch)] = e
    executions.sort(key=lambda e: (e.start, e.end))

    violations: list[str] = []

    # resource exclusivity
    by_resource: dict[tuple, list[Execution]] = {}
    for e in executions:
        by_resource.setdefault(e.resource, []).append(e)
    for resource, execs in by_resource.items():
        execs.sort(key=lambda e: e.start)
        for a, b in zip(execs, execs[1:]):
            if b.start < a.end - tol:
                violations.append(
                    f"resource {resource}: {a.kind}{a.index}[b{a.batch}] "
                    f"overlaps {b.kind}{b.index}[b{b.batch}]"
                )

    # dependencies (same mini-batch), via the pattern's edge structure
    for (uk, ui), (vk, vi) in pattern.dependency_edges():
        u_shift = pattern.ops[(uk, ui)].shift
        v_shift = pattern.ops[(vk, vi)].shift
        for k in range(periods):
            batch = k - v_shift
            if batch < 0:
                continue
            v = by_key_batch.get((vk, vi, batch))
            u = by_key_batch.get((uk, ui, batch))
            if v is None:
                continue
            if u is None:
                # producer instance lies outside the window (late periods)
                if batch + u_shift < periods:
                    violations.append(
                        f"missing producer {uk}{ui}[b{batch}] for {vk}{vi}[b{batch}]"
                    )
                continue
            if v.start < u.end - tol:
                violations.append(
                    f"dependency {uk}{ui}->{vk}{vi} broken for batch {batch}: "
                    f"{v.start:.6f} < {u.end:.6f}"
                )

    w_stages = frozenset(i for (kind, i) in pattern.ops if kind == "W")
    peak = _memory_trace(
        chain, alloc, ((e.kind, e.index, e.start, e.end) for e in executions), horizon, tol,
        w_stages=w_stages,
    )
    cap = platform.memory + memory_slack(platform.memory, tol)
    for p, m in peak.items():
        if m > cap:
            violations.append(
                f"GPU {p} peak memory {m / 2**30:.3f} GiB exceeds "
                f"{platform.memory / 2**30:.3f} GiB"
            )

    finish_times = [
        e.end for e in executions if e.kind == "B" and e.index == 0 and e.end <= horizon
    ]
    return SimReport(
        horizon=horizon,
        executions=executions,
        peak_memory=peak,
        completed_batches=len(finish_times),
        violations=violations,
        steady_completions=sum(1 for t in finish_times if t > horizon / 2),
    )


def _memory_trace(
    chain: Chain,
    alloc,
    executions: Iterable[tuple[str, int, float, float]],
    horizon: float,
    tol: float = CHECK_RTOL,
    *,
    w_stages: frozenset[int] = frozenset(),
) -> dict[int, float]:
    """Per-GPU peak memory over ``[0, horizon]``: static (weights +
    buffers) plus one stored-activation set per batch between its forward
    start and its backward end, from executed ``(kind, stage, start,
    end)`` ops.

    Stages in ``w_stages`` use the split-backward model: the stored
    activations stay live until the grad-weight op completes (``W`` needs
    them too), and a grad-input buffer of the boundary activation size is
    held from ``B`` start to ``W`` end.

    The finite window under-counts the steady state near ``t = 0`` (the
    infinite schedule's past is missing), so peaks are representative of
    the *late* part of the window — callers should simulate enough
    periods for the pipeline to fill.
    """
    static = static_memory(chain, alloc)
    abar = [s.stored_activations(chain) for s in alloc.stages]
    events: dict[int, list[tuple[float, float]]] = {p: [] for p in static}
    for kind, i, start, end in executions:
        if kind not in ("F", "B", "W"):
            continue
        evs = events[alloc.procs[i]]
        if kind == "F":
            evs.append((start, abar[i]))
        elif kind == "B":
            if i in w_stages:
                # split backward: B allocates the grad-input buffer; the
                # stored activations survive until W completes
                evs.append((start, alloc.stages[i].grad_buffer(chain)))
            else:
                evs.append((end, -abar[i]))
        else:  # W: frees the activations and the grad-input buffer
            evs.append((end, -abar[i]))
            evs.append((end, -alloc.stages[i].grad_buffer(chain)))

    # Events whose gaps are at most ``snap`` (chaining) are one instant,
    # stamped with its first time; within it frees apply before allocations
    # (a backward that ends when the next forward starts, or one ulp after
    # it, releases its activation first — the convention the schedule
    # semantics and the ILP memory constraints use).
    snap = max(tol * max(horizon, 1.0), 1e-12)
    peak: dict[int, float] = {}
    for p, evs in events.items():
        evs.sort()
        prev = stamp = -math.inf
        for j, (t, delta) in enumerate(evs):
            if t - prev > snap:
                stamp = t
            prev = t
            evs[j] = (stamp, delta)
        evs.sort()
        level = best = static[p]
        for t, delta in evs:
            if t > horizon:
                break
            level += delta
            best = max(best, level)
        peak[p] = best
    return peak
