#!/usr/bin/env python
"""Anatomy of a non-contiguous MadPipe schedule (paper §4.2, Figs. 4-5).

Builds a deliberately imbalanced chain — heavy in the middle, light at
both ends — where a contiguous split wastes a GPU on the light ends.
MadPipe's special processor picks up both end stages, and the phase-2 ILP
interleaves their forwards and backwards to keep the memory peak low
(the "best case" of the paper's Fig. 5).

Run:  python examples/noncontiguous_allocation.py
"""

from repro import Chain, Discretization, LayerProfile, Platform, pipedream
from repro.algorithms import madpipe
from repro.core import GB
from repro.viz import render_gantt

MB = float(2**20)


def lopsided_chain() -> Chain:
    """A barbell: light head, two heavy middle layers, light tail.

    On 3 GPUs no contiguous split balances this (any cut strands a heavy
    layer with a light end), but head+tail together fit one GPU — the
    special processor's sweet spot."""
    layers = []
    for i in range(2):
        layers.append(
            LayerProfile(f"head{i}", u_f=0.4, u_b=0.8, weights=8 * MB, activation=96 * MB)
        )
    for i in range(2):
        layers.append(
            LayerProfile(f"mid{i}", u_f=1.5, u_b=3.0, weights=64 * MB, activation=64 * MB)
        )
    for i in range(2):
        layers.append(
            LayerProfile(f"tail{i}", u_f=0.4, u_b=0.8, weights=8 * MB, activation=24 * MB)
        )
    return Chain(layers, input_activation=96 * MB, name="lopsided")


def main() -> None:
    chain = lopsided_chain()
    platform = Platform.of(3, 1.5, 12)
    print(
        f"chain {chain.name}: U = {chain.total_compute():.1f}s, "
        f"platform: 3 GPUs x 1.5 GB"
    )

    pd = pipedream(chain, platform)
    if pd.feasible:
        print(f"PipeDream (contiguous): period {pd.period:.3f}s")
        print("  stages:", [(s.start, s.end) for s in pd.partitioning])

    mp = madpipe(chain, platform, grid=Discretization.default(), ilp_time_limit=30)
    print(f"MadPipe: period {mp.period:.3f}s  ({mp.notes[-1]})")
    alloc = mp.allocation
    for i, (stage, proc) in enumerate(zip(alloc.stages, alloc.procs)):
        tag = " (special)" if len(alloc.stages_on_proc(proc)) > 1 else ""
        print(
            f"  stage {i}: layers {stage.start}-{stage.end} on GPU {proc}{tag}, "
            f"load {stage.compute(chain):.2f}s"
        )
    peaks = mp.pattern.memory_peaks(chain)
    print(
        "  peak memory (GiB): "
        + ", ".join(f"gpu{p}={m / GB:.2f}" for p, m in sorted(peaks.items()))
    )
    print()
    print(render_gantt(mp.pattern, width=96))


if __name__ == "__main__":
    main()
