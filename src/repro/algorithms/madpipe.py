"""MadPipe — the complete two-phase algorithm (paper §4).

Phase 1 (:func:`repro.algorithms.madpipe_dp.algorithm1`) builds a
non-contiguous allocation with one special processor by binary-searching
the target period of the memory-aware dynamic program.

Phase 2 schedules the resulting stage partition exactly:

* contiguous allocations go through the optimal 1F1B\\* construction;
* non-contiguous allocations go through the periodic-pattern MILP
  (:mod:`repro.ilp`) with the paper's one-minute budget per probe.

Because the DP's special-processor memory is a deliberate
*under*-estimate (§4.2.1), the ILP sometimes needs a much larger period
than phase 1 promised.  MadPipe therefore also evaluates its own
contiguous restriction — MadPipe-DP with the special processor disabled,
which collapses the ``(t_P, m_P)`` state dimensions and is nearly free —
schedules it with 1F1B\\*, and returns whichever valid schedule is
faster.  Set ``contiguous_fallback=False`` for the strict
phase-1+ILP-only behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import obs
from ..core.chain import Chain
from ..core.partition import Allocation
from ..core.pattern import PeriodicPattern
from ..core.platform import Platform
from ..ilp.solver import ILPScheduleResult, schedule_allocation
from ..robust.certify import Certificate, certify_pattern
from .madpipe_dp import Algorithm1Result, Discretization, algorithm1
from .onef1b import FAMILIES, SCHEDULE_FAMILIES, contiguous_search

__all__ = ["SCHEDULE_FAMILIES", "MadPipeResult", "madpipe"]

INF = float("inf")


@dataclass
class MadPipeResult:
    """Full MadPipe outcome.

    ``dp_period`` is phase 1's estimate (the dashed line of Fig. 6);
    ``period`` is the certified valid-schedule period (the solid line).
    ``ilp`` carries the phase-2 period search (probe trace and timings)
    whenever the phase-1 allocation went through the scheduling MILP.

    ``status`` classifies the outcome: ``ok`` (certified schedule, clean
    search), ``degraded`` (the schedule is valid, but the MILP exhausted
    its time budget somewhere — the period carries the certified 1F1B\\*
    fallback or an uncertified search result, and may be improvable with
    a larger ``ilp_time_limit`` — *or* the chosen pattern failed
    certification and was quarantined in favour of the 1F1B\\*
    fallback), ``solver_timeout`` (no schedule found *and* the failure
    was the solver budget, not proven infeasibility), ``infeasible``
    (certified: nothing fits), ``error`` (the chosen pattern failed
    certification and no fallback could be certified either — the
    quarantined pattern is withheld, never returned).

    ``certificate`` is the discrete-event certificate of the *returned*
    pattern (``None`` only with ``certify=False``); when a quarantine
    happened, ``certificate.quarantined`` carries the rejected
    pattern's violation report.
    """

    phase1: Algorithm1Result
    allocation: Allocation | None
    pattern: PeriodicPattern | None
    period: float = INF
    notes: list[str] = field(default_factory=list)
    ilp: ILPScheduleResult | None = None
    status: str = "ok"
    certificate: Certificate | None = None

    @property
    def dp_period(self) -> float:
        return self.phase1.period

    @property
    def feasible(self) -> bool:
        return self.pattern is not None


def madpipe(
    chain: Chain,
    platform: Platform,
    *,
    iterations: int = 10,
    grid: Discretization | None = None,
    ilp_time_limit: float = 60.0,
    allow_special: bool = True,
    contiguous_fallback: bool = True,
    memory_headroom: float = 0.0,
    certify: bool = True,
    schedule_family: str = "1f1b",
) -> MadPipeResult:
    """Run the complete MadPipe pipeline on one (chain, platform) instance.

    ``memory_headroom`` makes every planning layer (DP, MILP memory rows,
    1F1B\\*) fit its schedule into ``memory · (1 − headroom)`` per GPU;
    certification still measures margins against the full capacity.
    ``certify=True`` (the default) runs the returned pattern through the
    discrete-event certification gate: a pattern that fails is
    quarantined — with its violation report on
    ``result.certificate.quarantined`` — and replaced by the certified
    contiguous fallback, never silently returned.

    ``schedule_family`` selects the pattern family phase 2 constructs and
    certifies: ``"1f1b"`` (the paper's monolithic backward, default) or
    ``"zero_bubble"`` (split-backward F/B/W patterns — the contiguous
    builder and MILP formulation of
    :mod:`repro.algorithms.zero_bubble` / :mod:`repro.ilp`).
    """
    search = contiguous_search(schedule_family)
    construction = FAMILIES[schedule_family].label
    with obs.span(
        "madpipe", n_procs=platform.n_procs, chain=chain.name, L=chain.L
    ) as run_span:
        with obs.span("madpipe.phase1"):
            phase1 = algorithm1(
                chain,
                platform,
                iterations=iterations,
                grid=grid,
                allow_special=allow_special,
                memory_headroom=memory_headroom,
            )
        result = MadPipeResult(phase1=phase1, allocation=None, pattern=None)

        if phase1.feasible:
            allocation = phase1.allocation.to_allocation(platform)
            if allocation.is_contiguous():
                # the contiguous construction (1F1B* / zero-bubble) is
                # optimal for contiguous allocations — no ILP needed
                with obs.span("madpipe.phase2", kind="onef1b"):
                    sched = search(
                        chain, platform, allocation.partitioning,
                        memory_headroom=memory_headroom,
                    )
                if sched is not None:
                    result.allocation = allocation
                    result.pattern = sched.pattern
                    result.period = sched.period
                    result.notes.append(
                        f"phase-1 contiguous allocation via {construction}"
                    )
                else:
                    result.notes.append(
                        f"{construction} infeasible for phase-1 allocation"
                    )
            else:
                with obs.span("madpipe.phase2", kind="ilp"):
                    ilp = schedule_allocation(
                        chain, platform, allocation,
                        time_limit=ilp_time_limit,
                        memory_headroom=memory_headroom,
                        schedule_family=schedule_family,
                    )
                result.ilp = ilp
                if ilp.feasible:
                    result.allocation = allocation
                    result.pattern = ilp.pattern
                    result.period = ilp.period
                    result.notes.append("phase-1 non-contiguous allocation via ILP")
                else:
                    result.notes.append(
                        f"ILP could not schedule phase-1 allocation ({ilp.status})"
                    )
                    if (
                        ilp.status == "timeout"
                        and allocation.n_stages <= platform.n_procs
                    ):
                        # the MILP ran out of budget without proving anything;
                        # fall back to the certified 1F1B* schedule of the
                        # allocation's contiguous restriction instead of
                        # reporting infeasible
                        obs.inc("madpipe.ilp_fallbacks")
                        with obs.span("madpipe.phase2", kind="onef1b_fallback"):
                            sched = search(
                                chain, platform, allocation.partitioning,
                                memory_headroom=memory_headroom,
                            )
                        if sched is not None:
                            result.allocation = Allocation.contiguous(
                                allocation.partitioning
                            )
                            result.pattern = sched.pattern
                            result.period = sched.period
                            result.notes.append(
                                "ILP time budget exhausted; fell back to the "
                                f"certified {construction} contiguous restriction"
                            )
        else:
            result.notes.append("phase 1 found no memory-feasible allocation")

        if contiguous_fallback and allow_special:
            # MadPipe's contiguous restriction (no special processor): the DP's
            # memory model is exact for 1F1B*, so this candidate's estimate is
            # reliable; keep it when it beats the ILP schedule.
            with obs.span("madpipe.contiguous_fallback"):
                contig = algorithm1(
                    chain,
                    platform,
                    iterations=iterations,
                    grid=grid,
                    allow_special=False,
                    memory_headroom=memory_headroom,
                )
                sched = None
                if contig.feasible:
                    alloc = contig.allocation.to_allocation(platform)
                    sched = search(
                        chain, platform, alloc.partitioning,
                        memory_headroom=memory_headroom,
                    )
            if sched is not None and sched.period < result.period:
                result.allocation = alloc
                result.pattern = sched.pattern
                result.period = sched.period
                result.notes.append("contiguous memory-aware candidate won")

        # classify the outcome: any phase-2 budget hit taints the result
        ilp_budget_hit = result.ilp is not None and result.ilp.status in (
            "timeout",
            "degraded",
        )
        if result.pattern is None:
            result.status = (
                "solver_timeout"
                if result.ilp is not None and result.ilp.status == "timeout"
                else "infeasible"
            )
        elif ilp_budget_hit:
            result.status = "degraded"
        else:
            result.status = "ok"

        # mandatory certification gate: the chosen pattern is executed
        # through the discrete-event verifier before being returned; a
        # failure quarantines it in favour of the certified 1F1B*
        # contiguous fallback (never a silent invalid plan)
        if certify:
            _certification_gate(
                chain, platform, result, memory_headroom, iterations, grid,
                schedule_family=schedule_family,
            )

        run_span.set(
            status=result.status,
            period=result.period if result.period != INF else None,
        )
    obs.inc("madpipe.runs")
    obs.inc(f"madpipe.status.{result.status}")
    return result


def _certification_gate(
    chain: Chain,
    platform: Platform,
    result: MadPipeResult,
    memory_headroom: float,
    iterations: int,
    grid: Discretization | None,
    *,
    schedule_family: str,
) -> None:
    """Certify ``result.pattern`` in place; quarantine + degrade on failure.

    Fallback partitionings are tried in order: the quarantined
    allocation's own contiguous restriction (only schedulable when it
    has at most one stage per GPU), then a fresh contiguous
    MadPipe-DP plan.  Each fallback pattern must itself pass
    certification before it replaces the quarantined one.  Fallbacks
    use the contiguous construction of ``schedule_family``, so they stay
    within the requested family.
    """
    search = contiguous_search(schedule_family)
    construction = FAMILIES[schedule_family].label
    cert = certify_pattern(
        chain, platform, result.pattern, source=f"madpipe:{chain.name}"
    )
    if cert.ok:
        result.certificate = cert
        return

    obs.inc("certify.quarantined")
    result.notes.append(
        f"certification failed for the chosen pattern; quarantined "
        f"({cert.violations[0] if cert.violations else 'no violation detail'})"
    )

    def _own_restriction():
        if (
            result.allocation is not None
            and result.allocation.n_stages <= platform.n_procs
        ):
            return result.allocation.partitioning
        return None

    def _contiguous_dp():
        with obs.span("madpipe.contiguous_fallback", kind="quarantine"):
            contig = algorithm1(
                chain,
                platform,
                iterations=iterations,
                grid=grid,
                allow_special=False,
                memory_headroom=memory_headroom,
            )
        if contig.feasible:
            return contig.allocation.to_allocation(platform).partitioning
        return None

    tried = []
    for provider in (_own_restriction, _contiguous_dp):
        part = provider()
        if part is None or part in tried:
            continue
        tried.append(part)
        with obs.span("madpipe.phase2", kind="onef1b_quarantine_fallback"):
            sched = search(
                chain, platform, part, memory_headroom=memory_headroom
            )
        if sched is None:
            continue
        fb_cert = certify_pattern(
            chain, platform, sched.pattern,
            source=f"madpipe.fallback:{chain.name}",
        )
        if not fb_cert.ok:
            result.notes.append(f"{construction} fallback failed certification too")
            continue
        obs.inc("certify.fallbacks")
        fb_cert.mode = "fallback"
        fb_cert.quarantined = cert
        result.allocation = Allocation.contiguous(part)
        result.pattern = sched.pattern
        result.period = sched.period
        result.status = "degraded"
        result.certificate = fb_cert
        result.notes.append(
            f"replaced by the certified {construction} contiguous fallback"
        )
        return
    # nothing certifiable: withhold the quarantined pattern entirely
    result.allocation = None
    result.pattern = None
    result.period = INF
    result.status = "error"
    result.certificate = cert
