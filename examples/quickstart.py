#!/usr/bin/env python
"""Quickstart: schedule a ResNet-50 across 4 simulated GPUs with MadPipe.

Walks the full public-API path: build a network graph, profile it on a
simulated device, linearize to a chain, run MadPipe and the PipeDream
baseline, verify the schedule by discrete-event execution, and render a
Gantt chart of one period.

Run:  python examples/quickstart.py
"""

from repro import (
    Discretization,
    Platform,
    V100,
    linearize,
    pipedream,
    profile_model,
    render_gantt,
    resnet50,
    verify_pattern,
)
from repro.algorithms import madpipe


def main() -> None:
    # 1. Model + profile. 500px keeps the demo fast; the paper uses 1000px.
    graph = resnet50(image_size=500)
    profile_model(graph, V100, batch_size=8)
    chain = linearize(graph)
    print(f"chain: {chain.L} layers, one batch takes {chain.total_compute():.3f}s")

    # 2. Platform: 4 GPUs x 4 GB, 12 GB/s links (memory-constrained).
    platform = Platform.of(n_procs=4, memory_gb=4, bandwidth_gbps=12)

    # 3. Baseline and MadPipe.
    baseline = pipedream(chain, platform)
    print(
        f"PipeDream: internal estimate {baseline.dp_period:.4f}s, "
        f"valid schedule {baseline.period:.4f}s"
    )

    result = madpipe(
        chain, platform, grid=Discretization.default(), ilp_time_limit=30
    )
    print(
        f"MadPipe:   internal estimate {result.dp_period:.4f}s, "
        f"valid schedule {result.period:.4f}s  ({result.notes[-1]})"
    )
    if baseline.feasible:
        print(f"speedup over PipeDream: {baseline.period / result.period:.2f}x")

    # 4. Independent verification: execute the pattern for 12 periods.
    report = verify_pattern(chain, platform, result.pattern, periods=12)
    print(
        f"simulation: {report.completed_batches} batches, "
        f"steady throughput {report.steady_throughput:.2f}/s "
        f"(1/T = {1 / result.period:.2f}/s)"
    )
    peak = max(report.peak_memory.values())
    print(f"peak GPU memory: {peak / 2**30:.2f} GiB of {platform.memory / 2**30:.0f} GiB")

    # 5. One period, drawn.
    print()
    print(render_gantt(result.pattern, width=96))


if __name__ == "__main__":
    main()
