"""Human-readable reports on chains and schedules.

``chain_report`` tabulates the per-layer profile (where the time, weight
and activation mass sits); ``schedule_report`` explains a solved
schedule: stage map, per-GPU load and memory breakdown, utilization and
the memory headroom that bounds further batching.
"""

from __future__ import annotations

import numpy as np

from ..core.chain import Chain
from ..core.memory import stage_memory_terms
from ..core.pattern import PeriodicPattern
from ..core.platform import GB, Platform

__all__ = ["chain_report", "schedule_report"]


def chain_report(chain: Chain, *, top: int | None = None) -> str:
    """Per-layer profile table, optionally only the ``top`` heaviest
    layers by compute."""
    rows = []
    for l in range(1, chain.L + 1):
        layer = chain.layer(l)
        rows.append(
            (
                layer.u_f + layer.u_b,
                f"{l:4d} {layer.name[:34]:<34} {layer.u_f * 1e3:8.2f} "
                f"{layer.u_b * 1e3:8.2f} {layer.weights / 2**20:8.1f} "
                f"{layer.activation / 2**20:8.1f}",
            )
        )
    if top is not None:
        rows = sorted(rows, reverse=True)[:top]
    header = (
        f"chain {chain.name!r}: L={chain.L}, U={chain.total_compute():.4f}s\n"
        f"{'  l':>4} {'layer':<34} {'uF (ms)':>8} {'uB (ms)':>8} "
        f"{'W (MiB)':>8} {'a (MiB)':>8}"
    )
    return "\n".join([header] + [r for _, r in rows])


def schedule_report(
    chain: Chain, platform: Platform, pattern: PeriodicPattern
) -> str:
    """Stage map, loads, memory breakdown and utilization of a schedule."""
    alloc = pattern.allocation
    T = pattern.period
    lines = [
        f"period {T:.6g}s  ({1 / T:.3f} batches/s; "
        f"ideal balance {chain.total_compute() / platform.n_procs:.6g}s)"
    ]
    lines.append(
        f"{'stage':>6} {'layers':>9} {'gpu':>4} {'load (s)':>9} {'load %T':>8}"
    )
    for i, (stage, proc) in enumerate(zip(alloc.stages, alloc.procs)):
        load = stage.compute(chain)
        lines.append(
            f"{i:6d} {f'{stage.start}-{stage.end}':>9} {proc:4d} "
            f"{load:9.4f} {100 * load / T:7.1f}%"
        )
    peaks = pattern.memory_peaks(chain)
    lines.append(
        f"{'gpu':>4} {'util %':>7} {'peak mem (GiB)':>15} {'weights':>8} "
        f"{'buffers':>8} {'headroom':>9}"
    )
    for p in sorted(alloc.procs_used()):
        stages = [alloc.stages[i] for i in alloc.stages_on_proc(p)]
        load = sum(s.compute(chain) for s in stages)
        w3, _, b_in, b_out = stage_memory_terms(
            chain, np.array([s.start for s in stages]), np.array([s.end for s in stages])
        )
        weights = sum(w3.tolist())
        buffers = sum((b_in + b_out).tolist())
        lines.append(
            f"{p:4d} {100 * load / T:6.1f}% {peaks[p] / GB:15.2f} "
            f"{weights / GB:8.2f} {buffers / GB:8.2f} "
            f"{(platform.memory - peaks[p]) / GB:8.2f}G"
        )
    return "\n".join(lines)
