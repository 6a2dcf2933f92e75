"""DP hot-path benchmark: vectorized MadPipe-DP vs the naive reference.

Times :func:`repro.algorithms.madpipe_dp.algorithm1` (the T̂ binary
search, the hot path of every experiment) on the paper chains at the
three :class:`Discretization` presets, for both the vectorized solver
and the kept-for-reference recursive one, and checks that their answers
agree.  The measurement core is importable — ``scripts/bench_report.py``
uses it to emit ``BENCH_dp.json`` so later changes have a perf
trajectory to regress against.

Run standalone via the report script, or under pytest (smoke mode: one
repeat, coarse + default grids) with the rest of the benchmark suite.
"""

from __future__ import annotations

import time

from repro.algorithms.madpipe_dp import Discretization, algorithm1, madpipe_dp
from repro.core.platform import Platform
from repro.experiments.scenarios import paper_chain

from tests.oracles.madpipe_dp_reference import madpipe_dp_reference

GRIDS = {
    "coarse": Discretization.coarse,
    "default": Discretization.default,
    "paper": Discretization.paper,
}

# the benchmark platform: the paper's mid-size configuration
BENCH_PROCS = 4
BENCH_MEMORY_GB = 8.0
BENCH_BANDWIDTH_GBPS = 12.0


def bench_instance(
    network: str,
    grid_name: str,
    *,
    repeats: int = 3,
    iterations: int = 10,
    with_reference: bool = True,
) -> dict:
    """Time ``algorithm1`` on one paper chain at one grid preset.

    Returns a JSON-ready record with best-of-``repeats`` wall times for
    the fast solver (and, when ``with_reference``, the naive one plus
    their speedup ratio), the solved period, and DP diagnostics.
    """
    chain = paper_chain(network)
    platform = Platform.of(BENCH_PROCS, BENCH_MEMORY_GB, BENCH_BANDWIDTH_GBPS)
    grid = GRIDS[grid_name]()

    def measure(dp) -> tuple[float, object]:
        best, res = float("inf"), None
        for _ in range(repeats):
            t0 = time.perf_counter()
            res = algorithm1(
                chain, platform, iterations=iterations, grid=grid, dp=dp
            )
            best = min(best, time.perf_counter() - t0)
        return best, res

    fast_t, fast = measure(madpipe_dp)
    record = {
        "network": network,
        "L": chain.L,
        "grid": grid_name,
        "n_procs": BENCH_PROCS,
        "memory_gb": BENCH_MEMORY_GB,
        "bandwidth_gbps": BENCH_BANDWIDTH_GBPS,
        "iterations": iterations,
        "repeats": repeats,
        "fast_s": fast_t,
        "period": fast.period,
        "states": fast.states,
        "pruned_cap": fast.pruned_cap,
        "pruned_mem": fast.pruned_mem,
        "pruned_load": fast.pruned_load,
    }
    if with_reference:
        ref_t, ref = measure(madpipe_dp_reference)
        assert ref.period == fast.period, (
            f"solver mismatch on {network}/{grid_name}: "
            f"fast={fast.period} reference={ref.period}"
        )
        record["reference_s"] = ref_t
        record["speedup"] = ref_t / fast_t if fast_t > 0 else float("inf")
    return record


def run_bench(
    *,
    networks: tuple[str, ...] = ("resnet50", "resnet101"),
    grids: tuple[str, ...] = ("coarse", "default", "paper"),
    repeats: int = 3,
    iterations: int = 10,
    reference_grids: tuple[str, ...] = ("coarse", "default"),
) -> list[dict]:
    """The full hot-path sweep.  The naive reference is only timed on the
    grids in ``reference_grids`` (it is ~10× slower; the paper grid ratio
    mirrors the default-grid one)."""
    return [
        bench_instance(
            network,
            grid_name,
            repeats=repeats,
            iterations=iterations,
            with_reference=grid_name in reference_grids,
        )
        for network in networks
        for grid_name in grids
    ]


def render(records: list[dict]) -> str:
    lines = [
        f"{'network':>12} {'grid':>8} {'fast (s)':>9} {'naive (s)':>10} "
        f"{'speedup':>8} {'states':>9} {'period':>8}"
    ]
    for r in records:
        ref = f"{r['reference_s']:10.3f}" if "reference_s" in r else f"{'-':>10}"
        spd = f"{r['speedup']:7.1f}x" if "speedup" in r else f"{'-':>8}"
        lines.append(
            f"{r['network']:>12} {r['grid']:>8} {r['fast_s']:9.3f} {ref} "
            f"{spd} {r['states']:9d} {r['period']:8.4f}"
        )
    return "\n".join(lines)


def test_dp_hotpath_smoke():
    """Smoke run (1 repeat, coarse grid, short search) so the benchmark
    harness itself cannot rot; asserts the solvers agree and the fast
    path is not slower than the naive one."""
    record = bench_instance("resnet50", "coarse", repeats=1, iterations=4)
    assert record["speedup"] > 1.0
    assert record["states"] > 0
    print()
    print(render([record]))
