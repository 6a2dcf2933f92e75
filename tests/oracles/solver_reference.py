"""Reference period search — the plain bisection kept for benchmarking.

This is the pre-skeleton ``schedule_allocation`` exactly as it shipped:
probe the bottleneck lower bound, probe the fully-sequential upper
bound, then bisect, rebuilding the MILP from scratch at every probe.
``benchmarks/bench_phase2_hotpath.py`` races the fast search against it
(the two produce certified periods within the same ``rel_tol`` band; the
probe *trajectories* differ by design, so periods agree to tolerance,
not bitwise — unlike the 1F1B\\* kernel, whose golden tests are exact).

Keep this file dumb and obviously correct; optimize only
:mod:`repro.ilp.solver`.
"""

from __future__ import annotations

import time

from scipy.optimize import milp

from repro.core.chain import Chain
from repro.core.partition import Allocation
from repro.core.pattern import PatternError
from repro.core.platform import Platform
from repro.core.tolerances import CHECK_RTOL
from repro.ilp.formulation import build_milp
from repro.ilp.solver import (
    ILPScheduleResult,
    ProbeRecord,
    _extract_pattern,
    _sequential_period,
)

__all__ = ["schedule_allocation_reference"]


def _timed_probe(
    chain: Chain,
    platform: Platform,
    allocation: Allocation,
    period: float,
    time_limit: float,
    trace: list[ProbeRecord],
):
    # Original probe: build from scratch and solve with the model's
    # min-in-flight objective (the fast path has since switched probes to
    # feasibility-only; the baseline keeps the shipped behaviour).
    t0 = time.perf_counter()
    pattern = None
    status = "infeasible"
    try:
        model = build_milp(chain, platform, allocation, period)
    except ValueError:
        model = None  # static memory alone exceeds capacity
    if model is not None:
        res = milp(
            model.c,
            constraints=model.constraints,
            integrality=model.integrality,
            bounds=model.bounds,
            options={"time_limit": time_limit, "presolve": True},
        )
        if res.success and res.x is not None:
            pattern = _extract_pattern(model, res.x, allocation)
            status = "ok"
            try:
                pattern.validate(chain, platform)
                pattern.check_memory(chain, platform, tol=CHECK_RTOL)
            except PatternError:
                pattern, status = None, "invalid"
        elif res.status == 1:
            status = "timeout"  # budget hit, infeasibility unproven
    trace.append(
        ProbeRecord(
            period=period,
            feasible=pattern is not None,
            build_s=0.0,
            solve_s=time.perf_counter() - t0,
            status=status,
        )
    )
    return pattern


def schedule_allocation_reference(
    chain: Chain,
    platform: Platform,
    allocation: Allocation,
    *,
    rel_tol: float = 5e-3,
    max_probes: int = 20,
    time_limit: float = 60.0,
) -> ILPScheduleResult:
    """Smallest-period valid pattern for ``allocation`` via binary search.

    The returned period is within ``rel_tol`` of the smallest period the
    MILP can certify feasible.
    """
    lower = allocation.period_lower_bound(chain, platform)
    upper = _sequential_period(chain, platform, allocation)
    trace: list[ProbeRecord] = []

    def result(period: float, pattern) -> ILPScheduleResult:
        timed_out = any(p.status == "timeout" for p in trace)
        if pattern is not None:
            status = "degraded" if timed_out else "ok"
        else:
            status = "timeout" if timed_out else "infeasible"
        return ILPScheduleResult(period, pattern, trace, status)

    best = _timed_probe(chain, platform, allocation, lower, time_limit, trace)
    if best is not None:
        return result(lower, best)

    pattern = _timed_probe(chain, platform, allocation, upper, time_limit, trace)
    if pattern is None:
        return result(float("inf"), None)
    best, best_T = pattern, upper

    lo, hi = lower, upper
    while len(trace) < max_probes and hi - lo > rel_tol * lo:
        mid = (lo + hi) / 2
        pattern = _timed_probe(chain, platform, allocation, mid, time_limit, trace)
        if pattern is not None:
            best, best_T = pattern, mid
            hi = mid
        else:
            lo = mid
    return result(best_T, best)
