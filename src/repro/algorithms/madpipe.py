"""MadPipe — the complete two-phase algorithm (paper §4).

Phase 1 (:func:`repro.algorithms.madpipe_dp.algorithm1`) builds a
non-contiguous allocation with one special processor by binary-searching
the target period of the memory-aware dynamic program.  With
``allow_special`` it runs second, bracketed by the contiguous
candidate's certified period (below).

Phase 2 schedules an ordered list of candidate allocations exactly:

1. phase 1's allocation — by the family's contiguous construction
   (1F1B\\* or zero-bubble, optimal for contiguous allocations), else by
   the periodic-pattern MILP (:mod:`repro.ilp`) with the paper's
   one-minute budget per probe.  When the MILP runs out of budget
   without a schedule and the allocation has at most one stage per GPU,
   its contiguous restriction takes its place;
2. with ``allow_special``, MadPipe's own contiguous candidate from
   MadPipe-DP with the special processor disabled, which collapses the
   ``(t_P, m_P)`` state dimensions.  That search runs the DP's dense
   contiguous kernel: on the ledger's ResNet instances it visits about
   3% of bracketed phase 1's states and takes about 15% of its wall
   time.  The DP's special-processor memory is a deliberate
   *under*-estimate (§4.2.1), so the MILP sometimes needs a much larger
   period than phase 1 promised; without the special processor the DP's
   memory model is exact.

A contiguous DP search's candidate is ranked, not taken on trust: the
DP rates allocations by its discretized period, which misses their
certified period by up to about ±10%, and its probes visit several
distinct feasible allocations (``Algorithm1Result.visited``).  Each is
scheduled by the contiguous construction — optimal per partitioning
(Prop. 1) — and the lowest period wins, the DP's own pick on a tie;
only the winner's pattern is built.  The same rule picks phase 1's
candidate when ``allow_special`` is off.

Candidate 2 is computed first, and its certified period is the
incumbent.  Phase 1 runs as ``algorithm1(..., upper=incumbent)``: its
bisection starts at ``min(sequential period, incumbent)`` instead of the
sequential period, and every probe, the first included, prunes stages
whose load reaches that bound.  The paper starts at the sequential period
because it has no incumbent; ``algorithm1(upper=inf)`` is the paper's
search.  A bracketed phase 1 that finds nothing says so ("phase 1 found
no allocation below the contiguous candidate's period"), and
``dp_period`` then reports the contiguous DP search's estimate.  Without
``allow_special``, or with no contiguous candidate, phase 1 runs
unbracketed.  The bracket moves the bisection's probes, so phase 1 may
return another allocation than the paper's search would: it usually
schedules the same period, but that is pinned on the golden and ledger
instances, not guaranteed.

The incumbent also caps candidate 1's MILP search (``period_cap``).
The MILP then only looks for a pattern that beats the incumbent by more
than ``CHECK_RTOL`` (1e-6 relative) and skips the solve outright when
the allocation's bottleneck bound is within the search's ``rel_tol``
(5e-3) of that ceiling, since the incumbent then already meets the
search's own tolerance; near-ties, up to that tolerance, thus go to the
contiguous candidate on purpose.  A search that refutes every probe
below the cap ends ``capped``: not a proof of anything, and no budget
hit, so it neither takes the ILP-timeout path above nor degrades the
result.  A capped search whose probes hit the time limit still ends
``timeout``.

The lowest period wins; on a tie the earlier candidate wins.  The
certification gate extends the list: when the winner fails
discrete-event verification it is quarantined, and the quarantined
allocation's contiguous restriction, then the ranked contiguous
candidate's allocation, are scheduled and certified in turn until one
passes.

The strict paper pipeline is :func:`algorithm1` (``upper=inf``, its
default) followed by the uncapped
:func:`~repro.ilp.solver.schedule_allocation` or
:func:`~repro.algorithms.onef1b.contiguous_search` of its own
``allocation``.
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

    ``dp_period`` is phase 1's estimate (the dashed line of Fig. 6), or,
    when phase 1 ran bracketed by the contiguous candidate's period
    (``bracket``) and found nothing below it, the contiguous DP search's;
    ``period`` is the certified valid-schedule period (the solid line).
    ``ilp`` carries the phase-2 period search (probe trace and timings)
    whenever the phase-1 allocation went through the scheduling MILP;
    that search is capped at the contiguous candidate's period, which
    is computed first, so ``ilp.status == "capped"`` means no pattern
    beat it by more than ``CHECK_RTOL``.  The contiguous candidate is
    the lowest-period schedule among the allocations the contiguous DP
    search visited (``phase1.visited`` without ``allow_special``), the
    DP's own pick on a tie; ``dp_period`` stays the DP's estimate for
    its pick.
    ``allocation``/``pattern``/``period`` are those of the chosen
    candidate: the lowest period among phase 1's schedule (or, after an
    MILP budget hit, its contiguous restriction's) and the contiguous
    candidate's, the earlier on a tie — or, after a quarantine, the
    first certified fallback.

    ``status`` classifies the outcome: ``ok`` (certified schedule, clean
    search), ``degraded`` (the schedule is valid, but an MILP that could
    still have won exhausted its time budget — the period carries a
    certified contiguous candidate or an uncertified search result, and
    may be improvable with a larger ``ilp_time_limit`` — *or* the chosen
    pattern failed certification and was quarantined in favour of a
    certified contiguous fallback), ``solver_timeout`` (no schedule
    found *and* the failure was the solver budget, not proven
    infeasibility), ``infeasible`` (certified: nothing fits), ``error``
    (the chosen pattern failed certification and no fallback could be
    certified either — the quarantined pattern is withheld, never
    returned).

    ``certificate`` is the discrete-event certificate of the *returned*
    pattern (every run is certified); when a quarantine happened,
    ``certificate.quarantined`` carries the rejected pattern's violation
    report.
    """

    phase1: Algorithm1Result
    allocation: Allocation | None
    pattern: PeriodicPattern | None
    period: float = INF
    notes: list[str] = field(default_factory=list)
    ilp: ILPScheduleResult | None = None
    status: str = "ok"
    certificate: Certificate | None = None
    #: the contiguous DP search whose ranked candidate's period bracketed
    #: phase 1 (``None`` when phase 1 ran unbracketed)
    bracket: Algorithm1Result | None = None

    @property
    def dp_period(self) -> float:
        if self.phase1.feasible or self.bracket is None:
            return self.phase1.period
        return self.bracket.period

    @property
    def n_stages(self) -> int:
        return self.allocation.n_stages if self.allocation is not None else 0

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
    memory_headroom: float = 0.0,
    schedule_family: str = "1f1b",
) -> MadPipeResult:
    """Run the complete MadPipe pipeline on one (chain, platform) instance.

    ``memory_headroom`` is applied once: the run plans on
    ``platform.with_headroom(memory_headroom)``, so every planning layer
    (DP, contiguous searches, MILP) fits its schedule into
    ``memory · (1 − headroom)`` per GPU, while the certification gate
    and its fallbacks' certificates measure the full ``platform``.
    Every returned pattern goes through the discrete-event
    certification gate: a pattern that fails is
    quarantined — with its violation report on
    ``result.certificate.quarantined`` — and replaced by a certified
    contiguous fallback, never silently returned.

    ``schedule_family`` selects the pattern family phase 2 constructs and
    certifies: ``"1f1b"`` (the paper's monolithic backward, default) or
    ``"zero_bubble"`` (split-backward F/B/W patterns — the contiguous
    builder and MILP formulation of
    :mod:`repro.algorithms.zero_bubble` / :mod:`repro.ilp`).
    """
    search = contiguous_search(schedule_family)
    construction = FAMILIES[schedule_family].label

    plan_on = platform.with_headroom(memory_headroom)
    dp_opts = dict(iterations=iterations, grid=grid)

    def contiguous(allocation: Allocation, kind: str, note: str | None = None):
        """The candidate ``(allocation, pattern, period, note when chosen)``
        the contiguous construction makes of ``allocation``, or ``None``."""
        with obs.span("madpipe.phase2", kind=kind):
            sched = search(chain, plan_on, allocation.partitioning)
        return None if sched is None else (allocation, sched.pattern, sched.period, note)

    def ranked(dp: Algorithm1Result, kind: str, note: str | None = None):
        """The candidate of a contiguous DP search: the allocation its
        probes visited with the lowest period under the contiguous
        construction, the DP's own pick on a tie, or ``None``.  Only the
        winner's pattern is built."""
        if not dp.feasible:
            return None
        visited = [dp.allocation, *(a for a in dp.visited if a != dp.allocation)]
        with obs.span("madpipe.phase2", kind=kind, ranked=len(visited)) as sp:
            best = best_alloc = winner = None
            for i, dp_alloc in enumerate(visited):
                allocation = dp_alloc.to_allocation(platform)
                sched = search(
                    chain, plan_on, allocation.partitioning, build=len(visited) == 1
                )
                if sched is not None and (best is None or sched.period < best.period):
                    best, best_alloc, winner = sched, allocation, i
            obs.inc("madpipe.contiguous_ranked", len(visited))
            sp.set(winner=winner)
            if best is None:
                return None
            if winner > 0:
                obs.inc("madpipe.rank_wins")
            if best.pattern is None:
                best = search(chain, plan_on, best_alloc.partitioning)
        return best_alloc, best.pattern, best.period, note

    with obs.span(
        "madpipe", n_procs=platform.n_procs, chain=chain.name, L=chain.L
    ) as run_span:
        # with the special processor, the contiguous candidate first: a DP
        # search without it, ranked over the allocations it visited.  Its
        # schedule is the incumbent whose period brackets phase 1 and caps
        # the MILP
        contig = incumbent = None
        if allow_special:
            with obs.span("madpipe.contiguous_dp"):
                contig = algorithm1(chain, plan_on, allow_special=False, **dp_opts)
            incumbent = ranked(
                contig, "contiguous_dp", "contiguous memory-aware candidate won"
            )
        upper = incumbent[2] if incumbent is not None else INF
        with obs.span("madpipe.phase1"):
            phase1 = algorithm1(
                chain, plan_on, allow_special=allow_special, upper=upper, **dp_opts
            )
        result = MadPipeResult(
            phase1=phase1, allocation=None, pattern=None,
            bracket=contig if upper != INF else None,
        )
        # without the special processor, phase 1's own candidate
        contig_cand = incumbent if allow_special else ranked(phase1, "onef1b")
        candidates = []  # in priority order; the incumbent goes last

        if upper != INF:
            obs.inc("madpipe.bracketed")
            if not phase1.feasible:
                obs.inc("madpipe.bracket_empty")
        if not phase1.feasible:
            result.notes.append(
                "phase 1 found no memory-feasible allocation" if upper == INF
                else "phase 1 found no allocation below the contiguous candidate's period"
            )
        elif (allocation := phase1.allocation.to_allocation(platform)).is_contiguous():
            candidates.append(
                contiguous(allocation, "onef1b") if allow_special else contig_cand
            )
            result.notes.append(
                f"phase-1 contiguous allocation via {construction}" if candidates[-1]
                else f"{construction} infeasible for phase-1 allocation"
            )
        else:
            with obs.span("madpipe.phase2", kind="ilp"):
                ilp = result.ilp = schedule_allocation(
                    chain, plan_on, allocation,
                    time_limit=ilp_time_limit,
                    schedule_family=schedule_family,
                    period_cap=incumbent[2] if incumbent is not None else INF,
                )
            if ilp.feasible:
                candidates.append((allocation, ilp.pattern, ilp.period, None))
                result.notes.append("phase-1 non-contiguous allocation via ILP")
            else:
                result.notes.append(
                    f"ILP could not schedule phase-1 allocation ({ilp.status})"
                )
            # out of budget without proving anything: the allocation's
            # contiguous restriction takes its place
            if ilp.status == "timeout" and allocation.n_stages <= platform.n_procs:
                obs.inc("madpipe.ilp_fallbacks")
                restriction = Allocation.contiguous(allocation.partitioning)
                candidates.append(contiguous(restriction, "onef1b_fallback"))
                if candidates[-1]:
                    result.notes.append(
                        "ILP time budget exhausted; fell back to the "
                        f"certified {construction} contiguous restriction"
                    )
        candidates.append(incumbent)

        scheduled = [c for c in candidates if c is not None]
        if scheduled:  # min() keeps the first of equal periods
            result.allocation, result.pattern, result.period, note = min(
                scheduled, key=lambda c: c[2]
            )
            if note is not None:
                result.notes.append(note)

        # classify the outcome: any phase-2 budget hit taints the result
        # (a MILP skipped under the cap never runs, so never taints it)
        ilp_status = result.ilp.status if result.ilp is not None else None
        if result.pattern is None:
            result.status = "solver_timeout" if ilp_status == "timeout" else "infeasible"
        elif ilp_status in ("timeout", "degraded"):
            result.status = "degraded"
        else:
            result.status = "ok"

        result.certificate = cert = certify_pattern(
            chain, platform, result.pattern, source=f"madpipe:{chain.name}"
        )
        if not cert.ok:
            obs.inc("certify.quarantined")
            result.notes.append(
                "certification failed for the chosen pattern; quarantined "
                f"({cert.violations[0] if cert.violations else 'no violation detail'})"
            )
            # the list's tail, in order: the quarantined allocation's
            # contiguous restriction, then the contiguous candidate,
            # whose schedule is already at hand
            tail = {}
            if result.n_stages <= platform.n_procs:
                tail[Allocation.contiguous(result.allocation.partitioning)] = None
            if contig_cand is not None:
                tail[contig_cand[0]] = contig_cand
            for fallback, candidate in tail.items():
                if candidate is None:
                    candidate = contiguous(fallback, "onef1b_quarantine_fallback")
                if candidate is None:
                    continue
                fb_cert = certify_pattern(
                    chain, platform, candidate[1],
                    source=f"madpipe.fallback:{chain.name}",
                )
                if not fb_cert.ok:
                    result.notes.append(
                        f"{construction} fallback failed certification too"
                    )
                    continue
                obs.inc("certify.fallbacks")
                fb_cert.mode = "fallback"
                fb_cert.quarantined = cert
                result.allocation, result.pattern, result.period, _ = candidate
                result.status = "degraded"
                result.certificate = fb_cert
                result.notes.append(
                    f"replaced by the certified {construction} contiguous fallback"
                )
                break
            else:  # nothing certifiable: withhold the quarantined pattern
                result.allocation = None
                result.pattern = None
                result.period = INF
                result.status = "error"

        run_span.set(
            status=result.status,
            period=result.period if result.period != INF else None,
        )
    obs.inc("madpipe.runs")
    obs.inc(f"madpipe.status.{result.status}")
    return result

