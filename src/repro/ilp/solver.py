"""Solve the scheduling MILP and search the smallest feasible period (§4.3).

``schedule_allocation`` searches the smallest ``T`` whose fixed-``T``
feasibility MILP (:mod:`repro.ilp.formulation`, solved with HiGHS via
``scipy.optimize.milp``) admits a valid pattern.  Feasibility is monotone
in ``T`` — any pattern valid at ``T`` stays valid at ``T' > T`` (shift
inequalities only relax, disjunction rows are T-free once the binaries
are fixed, memory rows do not involve ``T``) — which the search exploits:

* every probe instantiates the period skeleton built once per
  allocation (:func:`repro.ilp.build_skeleton`); probes above the lower
  bound run with a zero objective (feasibility only), letting HiGHS
  stop at its first incumbent;
* the bracket starts from the bottleneck lower bound and *gallops*
  upward (with the 1F1B\\* period of the allocation's contiguous
  restriction as an extra probe point when it exists) instead of jumping
  straight to the fully-sequential upper bound;
* after every feasible probe, the combinatorial part of the solution
  (shifts ``h``, disjunctions ``y``) is frozen and a small LP
  re-optimizes ``(t, T)`` jointly — the certified minimum period of that
  configuration, which typically collapses the bracket in one step.
  This LP jump is the skeleton's timing rows (dependencies and
  disjunctions) at frozen ``(h, y)``, plus ``t_o ≤ T − d_o``: it writes
  no constraint of its own;
* the remaining gap is certified with asymmetric probes just below the
  incumbent (falling back to bisection when they keep succeeding).

No period is probed twice: a ladder rung is probed only above every
refuted period, and a gap probe lies strictly inside the open bracket
(every refuted period at or below it, every feasible one at or above).

A caller that already holds a schedule passes its period as
``period_cap``: only a pattern beating it by more than ``CHECK_RTOL``
is worth finding, so the search's upper end becomes
``top = min(sequential period, cap·(1 − CHECK_RTOL))``.  When the
bottleneck lower bound is within ``rel_tol`` of that ceiling
(``lower·(1 + rel_tol) ≥ top``), the held schedule already meets the
search's own contract — the MILP can certify nothing below ``lower``,
and the held period is at most ``lower·(1 + rel_tol)/(1 − CHECK_RTOL)``
— so the search returns ``capped`` without building or solving a MILP
(``rel_tol=0`` skips only when ``lower`` reaches ``top`` itself);
otherwise the ladder and the contiguous hint stop at ``top``.  The
default ``period_cap=inf`` leaves the search exactly as above.

Every probe and LP jump is recorded as a :class:`ProbeRecord` with
build/solve timings and a ``status`` naming how it ended (``ok``,
``incumbent``, ``timeout``, ``infeasible``, ``invalid``, ``error``);
``repro schedule --stats`` surfaces the totals.  The search result
itself carries a status: ``ok`` / ``infeasible`` are *certified*
outcomes, while ``degraded`` (feasible, but a probe hit the HiGHS time
limit, so the period may be improvable) and ``timeout`` (no schedule
found, but infeasibility is **not** proven: a probe hit the time limit,
or ``max_probes`` ran out before the search reached its upper end)
record that the solver budget, not the mathematics, decided — callers
such as :func:`repro.algorithms.madpipe.madpipe` use this to fall back
to a certified 1F1B\\* schedule instead of silently reporting
infeasible.  ``capped`` (no pattern below the cap) proves nothing
either way.
The pre-skeleton bisection search is preserved verbatim in
``tests/oracles/solver_reference.py`` for benchmarking.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import obs
from ..core.chain import Chain
from ..core.partition import Allocation
from ..core.pattern import Op, PatternError, PeriodicPattern
from ..core.platform import Platform
from ..core.tolerances import CHECK_RTOL
from ..testing import faults
from .formulation import MilpSkeleton, ScheduleMILP, build_milp, build_skeleton

__all__ = [
    "ProbeRecord",
    "ILPScheduleResult",
    "solve_fixed_period",
    "schedule_allocation",
]

INF = float("inf")

#: Geometric step of the upper-bound gallop; the exponent doubles each
#: step so globally-infeasible instances reach the sequential cap fast.
GALLOP_FACTOR = 1.25


# SciPy's optimizer costs ~0.4 s to import and only phase 2 solves, so it
# loads once a search has built its first skeleton.  The search calls
# these module globals, which keeps ``solver.milp``/``solver.linprog``
# the points to wrap or patch.
def milp(*args, **kwargs):
    """``scipy.optimize.milp``, imported on first call."""
    from scipy.optimize import milp

    return milp(*args, **kwargs)


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported on first call."""
    from scipy.optimize import linprog

    return linprog(*args, **kwargs)


@dataclass(frozen=True)
class ProbeRecord:
    """One step of the period search: a MILP probe or an LP re-optimization.

    ``status`` records how the step ended: ``ok`` (solved), ``incumbent``
    (HiGHS hit its time limit but had a feasible incumbent — accepted),
    ``timeout`` (time limit with no incumbent — *not* a certificate of
    infeasibility), ``infeasible`` (certified), ``invalid`` (solver
    output failed pattern validation — treated as infeasible), or
    ``error`` (numerical failure inside the LP/MILP).
    """

    period: float
    feasible: bool
    build_s: float
    solve_s: float
    kind: str = "milp"  # "milp" feasibility probe | "lp" fixed-config jump
    status: str = "ok"


@dataclass
class ILPScheduleResult:
    """A valid periodic pattern found by the ILP, or infeasibility.

    ``status``: ``ok`` (certified schedule, clean search), ``degraded``
    (valid schedule, but at least one probe hit the time limit — the
    period may be improvable), ``timeout`` (no schedule, and a probe hit
    the time limit or the probe budget ran out — infeasibility
    unproven), ``infeasible`` (certified: no probe up to the sequential
    bound admits a pattern), ``capped`` (every probe below
    ``period_cap·(1 − CHECK_RTOL)`` was refuted without a budget hit —
    never a proof of infeasibility, and never ``infeasible`` or
    ``timeout``).  A capped search that does find a pattern reports
    ``ok``/``degraded``, and its period is always below
    ``period_cap·(1 − CHECK_RTOL)``.  ``skipped``: the search ended
    ``capped`` before building any MILP, because the bottleneck bound was
    already within ``rel_tol`` of the cap.
    """

    period: float
    pattern: PeriodicPattern | None
    trace: list[ProbeRecord] = field(default_factory=list)
    status: str = "ok"
    skipped: bool = False

    @property
    def probes(self) -> list[tuple[float, bool]]:
        """(T, feasible) pairs of the MILP probes, in search order."""
        return [(p.period, p.feasible) for p in self.trace if p.kind == "milp"]

    @property
    def feasible(self) -> bool:
        return self.pattern is not None

    @property
    def timings(self) -> dict[str, float | int]:
        """Aggregate diagnostics: probe counts and build/solve seconds."""
        milp_probes = [p for p in self.trace if p.kind == "milp"]
        jumps = [p for p in self.trace if p.kind == "lp"]
        return {
            "milp_probes": len(milp_probes),
            "lp_jumps": len(jumps),
            "lp_failures": sum(1 for p in jumps if not p.feasible),
            "milp_timeouts": sum(1 for p in milp_probes if p.status == "timeout"),
            "build_s": sum(p.build_s for p in self.trace),
            "solve_s": sum(p.solve_s for p in self.trace),
        }


def _extract_pattern(
    milp_model: ScheduleMILP, x: np.ndarray, allocation: Allocation
) -> PeriodicPattern:
    pattern = PeriodicPattern(allocation=allocation, period=milp_model.period)
    for o in milp_model.ops:
        kind, index = o
        pattern.add(
            Op(
                kind=kind,
                index=index,
                resource=milp_model.resources[o],
                start=float(x[milp_model.t_index[o]]),
                duration=milp_model.durations[o],
                shift=int(round(x[milp_model.h_index[o]])),
            )
        )
    pattern.normalize()
    return pattern


def _solve_model(
    chain: Chain,
    platform: Platform,
    allocation: Allocation,
    model: ScheduleMILP,
    time_limit: float,
    *,
    feasibility_only: bool = True,
) -> tuple[PeriodicPattern | None, np.ndarray | None, str]:
    """Solve one fixed-period model; validated pattern + raw solution +
    a probe status (see :class:`ProbeRecord`).

    Most probes are pure feasibility questions, so the model's
    min-in-flight objective is dropped (zero costs): HiGHS can stop at
    the first incumbent instead of proving optimality of a quantity the
    search never uses.  Pattern quality is recovered by the LP jump,
    which minimizes the period of the returned configuration.  The
    lower-bound probe keeps the objective (``feasibility_only=False``):
    on slack instances it is the whole search, and the objective steers
    HiGHS to a first incumbent ~3× faster there.

    A time-limit hit *with* an incumbent still yields a usable pattern
    (status ``incumbent``); without one it is ``timeout`` — explicitly
    not a certificate of infeasibility.
    """
    fault = faults.fire("milp_solve", key=f"T={model.period:.9g}")
    if fault is not None and fault.action == "timeout":
        return None, None, "timeout"  # injected HiGHS budget hit
    res = milp(
        np.zeros_like(model.c) if feasibility_only else model.c,
        constraints=model.constraints,
        integrality=model.integrality,
        bounds=model.bounds,
        options={"time_limit": time_limit, "presolve": True},
    )
    if res.x is None:
        if res.status == 1:
            return None, None, "timeout"
        if res.status == 2:
            return None, None, "infeasible"
        return None, None, "error"
    pattern = _extract_pattern(model, res.x, allocation)
    try:
        pattern.validate(chain, platform)
        pattern.check_memory(chain, platform, tol=CHECK_RTOL)
    except PatternError:
        return None, None, "invalid"  # numerical artifacts: infeasible probe
    status = "ok" if res.success else "incumbent"
    if status == "incumbent":
        # A budget-limited incumbent skipped HiGHS's optimality proof, so
        # the analytic checks above are its only vetting — gate it through
        # the discrete-event verifier before accepting it (rejection is
        # treated like any other invalid probe: conservative infeasible).
        from ..robust.certify import certify_pattern

        cert = certify_pattern(
            chain, platform, pattern, source=f"ilp.incumbent:T={model.period:.9g}"
        )
        if not cert.ok:
            obs.inc("ilp.incumbent_rejected")
            return None, None, "invalid"
    return pattern, res.x, status


def solve_fixed_period(
    chain: Chain,
    platform: Platform,
    allocation: Allocation,
    period: float,
    *,
    time_limit: float = 60.0,
    schedule_family: str = "1f1b",
) -> PeriodicPattern | None:
    """Feasibility MILP at a fixed period; returns a pattern or ``None``.

    A time-limit hit without an incumbent is reported as infeasible
    (conservative, as in the paper's one-minute ILP budget).
    """
    try:
        model = build_milp(
            chain, platform, allocation, period, schedule_family=schedule_family
        )
    except ValueError:
        return None  # static memory alone exceeds capacity
    pattern, _, _ = _solve_model(chain, platform, allocation, model, time_limit)
    return pattern


def _sequential_period(chain: Chain, platform: Platform, allocation: Allocation) -> float:
    """Period of the one-batch-in-flight schedule (always load-feasible)."""
    total = 0.0
    for i, s in enumerate(allocation.stages):
        total += s.compute(chain)
        if i < allocation.n_stages - 1 and allocation.procs[i] != allocation.procs[i + 1]:
            total += 2.0 * chain.activation(s.end) / platform.bandwidth
    return total


def _reoptimize_period(
    skeleton: MilpSkeleton,
    allocation: Allocation,
    x: np.ndarray,
    t_floor: float,
) -> tuple[float, PeriodicPattern] | None:
    """Fixed-configuration LP: freeze the shifts ``h`` and disjunction
    binaries ``y`` of a feasible MILP solution and minimize ``T`` over the
    start times jointly — the model is linear in ``(t, T)`` once the
    combinatorial choices are fixed.  Its rows are the skeleton's timing
    rows at frozen ``(h, y)`` and ``t_o − T ≤ −d_o``.

    Returns the certified minimal period of that configuration and its
    pattern (to be re-validated by the caller), or ``None`` if the LP
    fails.  ``t_floor`` keeps the jump consistent with what the search
    already certified infeasible.
    """
    n_ops = skeleton.n_ops
    t_col = n_ops  # variables: t_0..t_{n-1}, then T
    # with h and y frozen, each T-scaled slot is a constant times T: the
    # timing rows (finite lower bound: dependencies, then disjunctions)
    # become  A_t·t + (Σ t_scale·rint(x) − lb_scale)·T ≥ lb_const.  Memory rows
    # involve only h and y — constant under this freeze, and already
    # satisfied at the probed period; re-checked by the caller.
    timing = np.flatnonzero(np.isfinite(skeleton.lb_const))
    t_coef = np.bincount(
        skeleton.t_rows,
        weights=skeleton.t_scale * np.rint(x[skeleton.t_cols]),
        minlength=len(skeleton.lb_const),
    ) - skeleton.lb_scale
    A = np.zeros((len(timing) + n_ops, n_ops + 1))
    A[: len(timing), :n_ops] = -skeleton.a_const[timing, :n_ops]
    A[: len(timing), t_col] = -t_coef[timing]
    # no wrap: t_o − T ≤ −d_o
    A[len(timing) :, :n_ops] = np.eye(n_ops)
    A[len(timing) :, t_col] = -1.0
    rhs = np.concatenate((-skeleton.lb_const[timing], -skeleton.dur_arr))

    c = np.zeros(n_ops + 1)
    c[t_col] = 1.0
    bounds = [(0.0, None)] * n_ops + [(t_floor, None)]
    res = linprog(c, A_ub=A, b_ub=rhs, bounds=bounds, method="highs")
    if not res.success or res.x is None:
        return None
    T_lp = float(res.x[t_col])
    x = x.copy()
    x[:n_ops] = res.x[:n_ops]  # the t columns lead both variable layouts
    return T_lp, _extract_pattern(skeleton.instantiate(T_lp), x, allocation)


def schedule_allocation(
    chain: Chain,
    platform: Platform,
    allocation: Allocation,
    *,
    rel_tol: float = 5e-3,
    max_probes: int = 20,
    time_limit: float = 60.0,
    schedule_family: str = "1f1b",
    period_cap: float = INF,
) -> ILPScheduleResult:
    """Smallest-period valid pattern for ``allocation``.

    The returned period is within ``rel_tol`` of the smallest period the
    MILP can certify feasible.  See the module docstring for the search
    strategy.  ``schedule_family="zero_bubble"`` formulates
    split-backward (F/B/W) models instead; the bracketing hint then comes
    from the zero-bubble contiguous construction.

    ``period_cap`` is the period of a schedule the caller already has:
    the search only looks for patterns below ``period_cap·(1 −
    CHECK_RTOL)`` and reports ``capped`` when there is none.  When the
    bottleneck bound ``lower`` is within ``rel_tol`` of that ceiling
    (``lower·(1 + rel_tol) ≥ period_cap·(1 − CHECK_RTOL)``) it reports
    ``capped`` without any MILP: the caller's period is then at most
    ``lower·(1 + rel_tol)/(1 − CHECK_RTOL)``, and no MILP can certify a
    period below ``lower``, so the held schedule already meets the
    ``rel_tol`` promise.  The default ``inf`` is the paper's uncapped
    search.  A search whose ``max_probes`` run out before it reaches its
    upper end without a pattern reports ``timeout``, not ``infeasible``.

    Instrumented: the whole search runs under an ``ilp.search`` span
    (with ``period_cap``, ``None`` when infinite, ``capped``, and
    ``skipped`` when the bound ended it before any MILP), each
    MILP probe/LP jump emits its own span with build/solve attributes,
    and the probe totals land on the metrics registry
    (``ilp.milp_probes``, ``ilp.build_s``, ``ilp.status.<status>``,
    ``ilp.searches_skipped``, …)
    when one is active.
    """
    with obs.span(
        "ilp.search",
        n_stages=allocation.n_stages,
        contiguous=allocation.is_contiguous(),
        period_cap=period_cap if period_cap != INF else None,
    ) as search_span:
        lower = allocation.period_lower_bound(chain, platform)
        seq = _sequential_period(chain, platform, allocation)
        # the search's upper end: a pattern must beat the cap by more than
        # CHECK_RTOL to count, so one found at ``top`` itself is no better
        top = min(seq, period_cap * (1 - CHECK_RTOL))
        capped = top < seq  # the cap, not the sequential period, bounds the search
        trace: list[ProbeRecord] = []

        def result(
            period: float,
            pattern: PeriodicPattern | None,
            *,
            exhausted: bool = False,
            skipped: bool = False,
        ) -> ILPScheduleResult:
            # any time-limit hit means the outcome is budget-, not
            # mathematics-limited: feasible → "degraded", infeasible →
            # "timeout" (never a silent "infeasible"); so does a probe budget
            # that ran out before the search reached its upper end.  A clean
            # search that refutes everything below the cap proves nothing
            # beyond it: "capped"
            if capped and period >= top:
                period, pattern = INF, None
            timed_out = any(p.kind == "milp" and p.status == "timeout" for p in trace)
            if pattern is not None:
                status = "degraded" if timed_out else "ok"
            elif timed_out or exhausted:
                status = "timeout"
            else:
                status = "capped" if capped else "infeasible"
            res = ILPScheduleResult(period, pattern, trace, status, skipped)
            t = res.timings
            search_span.set(
                status=status,
                period=period if period != INF else None,
                milp_probes=t["milp_probes"],
                capped=status == "capped",
                skipped=skipped,
            )
            obs.inc("ilp.searches")
            if skipped:
                obs.inc("ilp.searches_skipped")
            obs.inc("ilp.milp_probes", t["milp_probes"])
            obs.inc("ilp.milp_timeouts", t["milp_timeouts"])
            obs.inc("ilp.lp_jumps", t["lp_jumps"])
            obs.inc("ilp.lp_failures", t["lp_failures"])
            obs.inc("ilp.build_s", t["build_s"])
            obs.inc("ilp.solve_s", t["solve_s"])
            obs.inc(f"ilp.status.{status}")
            return res

        if capped and lower * (1 + rel_tol) >= top:
            # the bottleneck bound is within rel_tol of the ceiling: the
            # schedule the caller holds already meets the search's contract,
            # so no MILP is built or solved
            return result(INF, None, skipped=True)

        try:
            with obs.span("ilp.build_skeleton", n_stages=allocation.n_stages):
                skeleton = build_skeleton(
                    chain, platform, allocation, schedule_family=schedule_family
                )
            obs.inc("ilp.skeleton_builds")
        except ValueError:
            # static memory (weights+buffers) alone exceeds some GPU: no
            # period can ever be feasible
            return result(INF, None)
        # a process's first search pays the one-time import here, so no
        # probe's ``build_s`` counts it
        import scipy.optimize  # noqa: F401

        state = {"lo": lower, "hi": INF, "pattern": None}

        def n_milp_probes() -> int:
            return sum(1 for p in trace if p.kind == "milp")

        def lp_jump(x: np.ndarray) -> None:
            t0 = time.perf_counter()
            jump_status = "ok"
            with obs.span("ilp.lp_jump") as jump_span:
                try:
                    out = _reoptimize_period(
                        skeleton, allocation, x, max(lower, state["lo"])
                    )
                except (ValueError, ArithmeticError, np.linalg.LinAlgError):
                    # SciPy rejects a malformed LP with ValueError; overflow /
                    # division artifacts surface as ArithmeticError subclasses
                    out, jump_status = None, "error"
                if out is None and jump_status == "ok":
                    jump_status = "infeasible"
                if out is not None:
                    T_lp, pattern = out
                    if T_lp < state["hi"] * (1 - 1e-12):
                        try:
                            pattern.validate(chain, platform)
                            pattern.check_memory(chain, platform, tol=CHECK_RTOL)
                        except PatternError:
                            out, jump_status = None, "invalid"
                        else:
                            state["hi"], state["pattern"] = T_lp, pattern
                solve_s = time.perf_counter() - t0
                jump_span.set(
                    T=state["hi"], status=jump_status,
                    feasible=out is not None, solve_s=solve_s,
                )
            trace.append(
                ProbeRecord(
                    period=state["hi"],
                    feasible=out is not None,
                    build_s=0.0,
                    solve_s=solve_s,
                    kind="lp",
                    status=jump_status,
                )
            )

        def probe(T: float, *, jump: bool = True, feasibility_only: bool = True) -> bool:
            with obs.span(
                "ilp.probe", T=T, feasibility_only=feasibility_only
            ) as probe_span:
                t0 = time.perf_counter()
                model = skeleton.instantiate(T)
                t1 = time.perf_counter()
                pattern, x, probe_status = _solve_model(
                    chain, platform, allocation, model, time_limit,
                    feasibility_only=feasibility_only,
                )
                ok = pattern is not None
                build_s, solve_s = t1 - t0, time.perf_counter() - t1
                probe_span.set(
                    build_s=build_s, solve_s=solve_s,
                    status=probe_status, feasible=ok,
                )
            trace.append(
                ProbeRecord(
                    period=T,
                    feasible=ok,
                    build_s=build_s,
                    solve_s=solve_s,
                    status=probe_status,
                )
            )
            if ok:
                if T < state["hi"]:
                    state["hi"], state["pattern"] = T, pattern
                if jump:
                    lp_jump(x)
            else:
                state["lo"] = max(state["lo"], T)
            return ok

        # 1. the lower bound itself (roomy instances end here)
        if probe(lower, jump=False, feasibility_only=False):
            return result(lower, state["pattern"])

        # 2. bracket a feasible upper bound: a contiguous-construction hint
        #    (1F1B* or zero-bubble, matching the family), then an accelerating
        #    gallop from the lower bound, up to ``top`` (the sequential period
        #    or, tighter, the cap)
        ladder: list[float] = []
        if allocation.n_stages <= platform.n_procs:
            from ..algorithms.onef1b import contiguous_search

            star = contiguous_search(schedule_family)(
                chain, platform, allocation.partitioning, build=False
            )
            if star is not None and lower < star.period < top:
                ladder.append(star.period)
        step = GALLOP_FACTOR
        g = lower * step
        while g < top * 0.999:
            ladder.append(g)
            step *= step  # exponent doubles: 1.25, 1.25^2, 1.25^4, …
            g = g * step
        ladder = sorted(set(ladder)) + [top]

        for T in ladder:
            if T <= state["lo"]:
                continue
            if n_milp_probes() >= max_probes:  # budget gone before ``top``
                return result(INF, None, exhausted=True)
            if probe(T):
                break
            if T >= top:
                return result(INF, None)
        if state["pattern"] is None:  # every rung lies at or below a refuted period
            return result(INF, None)

        # 3. certify the gap: asymmetric probes just under the incumbent close
        #    it in one infeasible probe; repeated feasible ones (the incumbent
        #    was far from optimal and the LP jump could not shrink it) fall
        #    back to plain bisection
        streak = 0
        while True:
            lo, hi = state["lo"], state["hi"]
            if hi - lo <= rel_tol * lo:
                break
            if n_milp_probes() >= max_probes:
                # budget gone with the gap open: nothing is proven below the cap
                return result(hi, state["pattern"], exhausted=True)
            T = hi / (1 + rel_tol) if streak < 2 else 0.5 * (lo + hi)
            if not lo < T < hi:
                T = 0.5 * (lo + hi)
                if not lo < T < hi:
                    break
            if probe(T):
                streak += 1
            else:
                streak = 0
        return result(state["hi"], state["pattern"])
