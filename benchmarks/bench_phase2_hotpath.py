"""Phase-2 hot-path benchmark: fast period searches vs their references.

Two suites, mirroring ``bench_dp_hotpath.py``:

* **ilp** — :func:`repro.ilp.schedule_allocation` (skeleton reuse,
  gallop bracketing, LP jumps, feasibility-only probes) raced against
  :func:`tests.oracles.solver_reference.schedule_allocation_reference`
  (the pre-skeleton scratch-build bisection) on the paper's non-contiguous ResNet-50
  instances — every (P, bandwidth, grid, memory) sweep point whose
  phase-1 allocation actually uses the special processor.  The two
  searches certify to the same ``rel_tol`` band but take different
  probe trajectories, so periods are checked to tolerance, not bitwise.

* **onef1b** — :func:`repro.algorithms.onef1b.min_feasible_period` (the
  NumPy kernel) raced against the pure-Python reference over the
  brute-force contiguous enumeration (every partitioning of a ResNet-50
  prefix into ≤ P stages, the ``best_contiguous`` workload), with
  **bit-identical** periods enforced on all ~1800 partitionings.

The measurement core is importable — ``scripts/bench_report.py`` uses it
to emit ``BENCH_phase2.json`` so later changes have a perf trajectory to
regress against.  Run standalone via the report script, or under pytest
(smoke mode) with the rest of the benchmark suite.
"""

from __future__ import annotations

import time
from itertools import combinations

from repro.algorithms.madpipe_dp import Discretization, algorithm1
from repro.algorithms.onef1b import min_feasible_period
from repro.core.partition import Partitioning
from repro.core.platform import Platform
from repro.experiments.scenarios import paper_chain
from repro.ilp import schedule_allocation

from tests.oracles.onef1b_reference import min_feasible_period_reference
from tests.oracles.solver_reference import schedule_allocation_reference

GRIDS = {"coarse": Discretization.coarse, "default": Discretization.default}

#: Certification tolerance shared by both searches; their periods may
#: differ by up to (1 + REL_TOL)^2 − 1 ≈ 2·REL_TOL since each stops
#: anywhere inside its own band.
REL_TOL = 5e-3

# The ILP suite sweep: the paper's ResNet-50 experiment axes.  Only the
# points whose phase-1 allocation is non-contiguous reach the MILP.
ILP_PROCS = (4, 8)
ILP_BANDWIDTHS_GBPS = (5.0, 12.0, 25.0)
ILP_MEMORIES_GB = (6.0, 8.0, 12.0)

# The 1F1B* suite: exhaustive contiguous enumeration of a ResNet-50
# prefix (the full chain's C(38, ≤7) partitionings are out of reach for
# any implementation — the oracle itself caps at 12 layers).
ONEF1B_L = 12
ONEF1B_PROCS = 8
ONEF1B_MEMORIES_GB = (3.0, 4.0)
ONEF1B_BANDWIDTH_GBPS = 12.0


def ilp_instances(
    *,
    network: str = "resnet50",
    procs: tuple[int, ...] = ILP_PROCS,
    bandwidths: tuple[float, ...] = ILP_BANDWIDTHS_GBPS,
    grids: tuple[str, ...] = ("coarse", "default"),
    memories: tuple[float, ...] = ILP_MEMORIES_GB,
):
    """Yield ``(meta, chain, platform, allocation)`` for every sweep point
    whose phase-1 allocation is non-contiguous (the MILP workload)."""
    chain = paper_chain(network)
    for P in procs:
        for bw in bandwidths:
            for grid_name in grids:
                grid = GRIDS[grid_name]()
                for mem in memories:
                    platform = Platform.of(P, mem, bw)
                    phase1 = algorithm1(chain, platform, grid=grid)
                    if not phase1.feasible:
                        continue
                    allocation = phase1.allocation.to_allocation(platform)
                    if allocation.is_contiguous():
                        continue
                    meta = {
                        "network": network,
                        "n_procs": P,
                        "bandwidth_gbps": bw,
                        "grid": grid_name,
                        "memory_gb": mem,
                        "procs_layout": list(allocation.procs),
                    }
                    yield meta, chain, platform, allocation


def bench_ilp_instance(meta, chain, platform, allocation) -> dict:
    """Race the fast period search against the reference bisection on one
    non-contiguous allocation; the certified periods must agree within
    the combined tolerance band."""
    t0 = time.perf_counter()
    fast = schedule_allocation(chain, platform, allocation, rel_tol=REL_TOL)
    t1 = time.perf_counter()
    ref = schedule_allocation_reference(chain, platform, allocation, rel_tol=REL_TOL)
    t2 = time.perf_counter()
    band = 1 + 2 * REL_TOL
    assert fast.feasible == ref.feasible, f"feasibility mismatch on {meta}"
    if fast.feasible:
        assert fast.period <= ref.period * band and ref.period <= fast.period * band, (
            f"period mismatch on {meta}: fast={fast.period} reference={ref.period}"
        )
    fast_t, ref_t = t1 - t0, t2 - t1
    return {
        **meta,
        "fast_s": fast_t,
        "fast_probes": len(fast.probes),
        "period": fast.period,
        "reference_s": ref_t,
        "reference_probes": len(ref.probes),
        "reference_period": ref.period,
        "speedup": ref_t / fast_t if fast_t > 0 else float("inf"),
    }


def run_ilp_bench(**kwargs) -> list[dict]:
    return [bench_ilp_instance(*inst) for inst in ilp_instances(**kwargs)]


def bench_onef1b_instance(
    memory_gb: float,
    *,
    network: str = "resnet50",
    L: int = ONEF1B_L,
    n_procs: int = ONEF1B_PROCS,
    bandwidth_gbps: float = ONEF1B_BANDWIDTH_GBPS,
) -> dict:
    """Time the full contiguous enumeration (every partitioning into ≤ P
    stages) for both implementations and enforce bit-identical answers."""
    chain = paper_chain(network).subchain(1, L)
    platform = Platform.of(n_procs, memory_gb, bandwidth_gbps)
    parts = [
        Partitioning.from_cuts(L, list(cuts))
        for n_cuts in range(0, n_procs)
        for cuts in combinations(range(1, L), n_cuts)
    ]

    t0 = time.perf_counter()
    fast = [min_feasible_period(chain, platform, p, build=False) for p in parts]
    t1 = time.perf_counter()
    ref = [
        min_feasible_period_reference(chain, platform, p, build=False)
        for p in parts
    ]
    t2 = time.perf_counter()

    for p, f, r in zip(parts, fast, ref):
        assert (f is None) == (r is None), f"feasibility mismatch on {p}"
        if f is not None:
            assert f.period == r.period and f.groups == r.groups, (
                f"kernel mismatch on {p}: fast={f.period} reference={r.period}"
            )
    fast_t, ref_t = t1 - t0, t2 - t1
    return {
        "network": network,
        "L": L,
        "n_procs": n_procs,
        "memory_gb": memory_gb,
        "bandwidth_gbps": bandwidth_gbps,
        "n_partitionings": len(parts),
        "n_feasible": sum(1 for f in fast if f is not None),
        "fast_s": fast_t,
        "reference_s": ref_t,
        "speedup": ref_t / fast_t if fast_t > 0 else float("inf"),
    }


def run_onef1b_bench(
    memories: tuple[float, ...] = ONEF1B_MEMORIES_GB, **kwargs
) -> list[dict]:
    return [bench_onef1b_instance(mem, **kwargs) for mem in memories]


def run_bench(*, smoke: bool = False) -> dict:
    """Both suites; ``smoke`` shrinks each to a single quick instance."""
    if smoke:
        ilp = [
            bench_ilp_instance(*inst)
            for inst in ilp_instances(
                procs=(4,), bandwidths=(25.0,), grids=("coarse",), memories=(6.0,)
            )
        ]
        onef1b = [bench_onef1b_instance(3.0, L=10)]
    else:
        ilp = run_ilp_bench()
        onef1b = run_onef1b_bench()
    return {"ilp": ilp, "onef1b": onef1b}


def _aggregate(records: list[dict]) -> float:
    fast = sum(r["fast_s"] for r in records)
    ref = sum(r.get("reference_s", 0.0) for r in records)
    return ref / fast if fast > 0 else float("inf")


def render(result: dict) -> str:
    lines = ["ilp: schedule_allocation vs reference bisection"]
    lines.append(
        f"{'instance':>32} {'fast (s)':>9} {'ref (s)':>9} {'speedup':>8} "
        f"{'probes':>7} {'period':>8}"
    )
    for r in result["ilp"]:
        name = (
            f"P{r['n_procs']}/bw{r['bandwidth_gbps']:g}/"
            f"{r['grid']}/m{r['memory_gb']:g}"
        )
        lines.append(
            f"{name:>32} {r['fast_s']:9.3f} {r['reference_s']:9.3f} "
            f"{r['speedup']:7.2f}x {r['fast_probes']:3d}/{r['reference_probes']:<3d} "
            f"{r['period']:8.5f}"
        )
    if result["ilp"]:
        lines.append(f"aggregate ilp speedup: {_aggregate(result['ilp']):.2f}x")
    lines.append("")
    lines.append("onef1b: min_feasible_period over the contiguous enumeration")
    lines.append(
        f"{'instance':>32} {'fast (s)':>9} {'ref (s)':>9} {'speedup':>8} "
        f"{'parts':>7} {'feas':>6}"
    )
    for r in result["onef1b"]:
        name = f"{r['network']}[:{r['L']}] P{r['n_procs']}/m{r['memory_gb']:g}"
        lines.append(
            f"{name:>32} {r['fast_s']:9.3f} {r['reference_s']:9.3f} "
            f"{r['speedup']:7.2f}x {r['n_partitionings']:7d} {r['n_feasible']:6d}"
        )
    if result["onef1b"]:
        lines.append(
            f"aggregate onef1b speedup: {_aggregate(result['onef1b']):.2f}x"
        )
    return "\n".join(lines)


def test_phase2_hotpath_smoke():
    """Smoke run so the benchmark harness itself cannot rot; asserts the
    implementations agree (done inside the bench helpers) and the 1F1B*
    kernel is not slower than the reference (the ILP race is too close
    to HiGHS run-to-run variance for a hard smoke assertion)."""
    result = run_bench(smoke=True)
    assert result["onef1b"][0]["speedup"] > 1.0
    for r in result["ilp"]:
        assert r["fast_probes"] <= r["reference_probes"]
    print()
    print(render(result))
