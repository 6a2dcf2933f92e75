"""Command-line interface: profile networks, schedule profiles, inspect.

Usage::

    python -m repro profile resnet50 --image-size 1000 --batch 8 -o rn50.json
    python -m repro report rn50.json --top 10
    python -m repro schedule rn50.json -p 4 -m 8 -b 12 --gantt -o sched.json
    python -m repro schedule rn50.json -p 4 -m 8 --trace trace.json --stats
    python -m repro certify rn50.json -p 4 -m 8 --samples 32 --seed 0 -o cert.json
    python -m repro ingest traces/ rn50.json -o calib.json
    python -m repro certify rn50.json -p 4 -m 8 --traces traces/ -o cert.json
    python -m repro trace summary trace.json
    python -m repro sweep --networks toy8 --procs 2 4 --out grid.jsonl --resume
    python -m repro cache verify grid.jsonl --fix

Each flag is declared once: the flags several commands take live in
:data:`_SHARED_FLAGS`, and the solver defaults — which differ on purpose
between ``schedule``/``certify`` and ``sweep`` — in
:data:`_SOLVER_DEFAULTS`.  :func:`sweep_options` groups the sweep flags
for ``repro sweep`` and ``scripts/run_paper_sweep.py``.  Which solver
options reach which algorithm is :data:`repro.api.PLAN_OPTIONS`'s call.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import obs
from .algorithms import SCHEDULE_FAMILIES, Discretization
from .algorithms.onef1b import FAMILIES
from .core.platform import Platform
from .core.serialize import save_pattern
from .experiments.scenarios import network_builders
from .profiling import V100, chain_from_dict, load_chain, profile_model, save_chain
from .models import linearize, vgg16
from .viz.gantt import render_gantt
from .viz.report import chain_report, schedule_report

__all__ = ["main", "sweep_kwargs", "sweep_options"]

_NETWORKS = dict(network_builders(), vgg16=vgg16)

#: Flags more than one command takes, each declared once: flag ->
#: ``add_argument`` keywords (see :func:`_add_shared`).
_SHARED_FLAGS = {
    "--grid": dict(choices=("coarse", "default", "paper"),
                   help="phase-1 DP discretization preset (madpipe only)"),
    "--iterations": dict(type=int,
                         help="phase-1 binary-search iterations (madpipe only)"),
    "--ilp-time-limit": dict(type=float, metavar="S",
                             help="phase-2 MILP time limit per probe (madpipe only)"),
    "--schedule-family": dict(
        choices=SCHEDULE_FAMILIES, default="1f1b",
        help="pattern family to build and certify: classic 1F1B or the "
        "zero-bubble B/W split (serve: the default for requests whose "
        "'opts' name none, and part of the request fingerprint; sweep: "
        "not part of the cache identity, so keep one --out file per family)",
    ),
    "--workers": dict(
        type=int, default=1,
        help="solver worker processes (sweep: 1 = serial; serve: 0 = solve "
        "inline on a thread)",
    ),
    "--instance-timeout": dict(
        type=float, default=None, metavar="S",
        help="per-solve wall-clock deadline, enforced in the worker",
    ),
    "--max-retries": dict(
        type=int, default=2,
        help="retries per crashed/timed-out solve before giving up",
    ),
    "--min-samples": dict(
        type=int, default=3,
        help="calibration coverage floor per (layer, field); fewer surviving "
        "samples fall back to the baseline and mark the result degraded "
        "(certify: with --traces)",
    ),
    "--mad-k": dict(
        type=float, default=5.0,
        help="calibration outlier cut in robust (MAD-based) standard "
        "deviations (certify: with --traces)",
    ),
    "--no-warm-start": dict(
        action="store_true",
        help="solve from scratch instead of reusing the per-process "
        "warm-start database (results are bit-identical either way; warm "
        "is faster on neighboring instances)",
    ),
}

#: The solver defaults of each planning command (by flag dest).  They
#: differ on purpose: ``schedule``/``certify`` plan one instance with the
#: finer grid and the larger budget, a ``sweep`` solves many quickly.
_SOLVER_DEFAULTS = {
    "plan": {"grid": "default", "iterations": 10, "ilp_time_limit": 60.0},
    "sweep": {"grid": "coarse", "iterations": 8, "ilp_time_limit": 30.0},
}


def _add_shared(parser: argparse.ArgumentParser, *flags: str, **defaults) -> None:
    """Add the :data:`_SHARED_FLAGS` ``flags`` to ``parser`` in order;
    ``defaults`` (by dest) set the ones the table leaves open."""
    for flag in flags:
        parser.add_argument(flag, **_SHARED_FLAGS[flag])
    parser.set_defaults(**defaults)


def _solver_kwargs(args: argparse.Namespace) -> dict:
    """The solver options of the ``--grid/--iterations/--ilp-time-limit``
    flags, as :func:`repro.api.plan` keywords."""
    return dict(
        grid=getattr(Discretization, args.grid)(),
        iterations=args.iterations,
        ilp_time_limit=args.ilp_time_limit,
    )


def _cmd_profile(args: argparse.Namespace) -> int:
    try:
        builder = _NETWORKS[args.network]
    except KeyError:
        print(f"unknown network {args.network!r}; choose from {sorted(_NETWORKS)}")
        return 2
    graph = builder(image_size=args.image_size)
    profile_model(graph, V100, args.batch)
    chain = linearize(graph)
    save_chain(chain, args.out)
    print(
        f"wrote {args.out}: {chain.L} layers, U = {chain.total_compute():.4f}s"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    chain = load_chain(args.profile)
    print(chain_report(chain, top=args.top))
    return 0


def _print_registry_stats(
    snap: dict, ilp_status: str | None, schedule_family: str = "1f1b"
) -> None:
    """Render ``--stats`` from the metrics registry's counter snapshot."""
    if snap.get("dp.searches"):
        print(
            f"phase-1 DP: {snap.get('dp.states', 0)} states over "
            f"{snap.get('dp.probes', 0)} probes "
            f"({snap.get('dp.searches', 0)} searches, "
            f"{snap.get('dp.value_sweeps_skipped', 0)} value sweeps skipped), "
            f"{snap.get('dp.probes_reused', 0)} probes reused, "
            f"{snap.get('dp.wall_s', 0.0):.2f}s wall, "
            f"pruned {snap.get('dp.pruned_cap', 0)} candidates by period cap, "
            f"{snap.get('dp.pruned_mem', 0)} by memory; "
            f"{snap.get('dp.pruned_load', 0)} states by load"
        )
    if snap.get("madpipe.runs"):
        print(
            f"phase-1 bracket: {snap.get('madpipe.bracketed', 0)} of "
            f"{snap['madpipe.runs']} runs bracketed by the contiguous candidate's "
            f"period, {snap.get('madpipe.bracket_empty', 0)} found nothing below it; "
            f"{snap.get('dp.rescue_probes', 0)} rescue probes"
        )
    if snap.get("madpipe.contiguous_ranked"):
        print(
            f"contiguous ranking: {snap['madpipe.contiguous_ranked']} visited "
            f"allocations scored; one beat the DP's pick in "
            f"{snap.get('madpipe.rank_wins', 0)} of {snap.get('madpipe.runs', 0)} runs"
        )
    if snap.get("ilp.searches"):
        line = (
            f"phase-2 ILP: {snap.get('ilp.milp_probes', 0)} MILP probes "
            f"({snap.get('ilp.milp_timeouts', 0)} hit the time limit), "
            f"{snap.get('ilp.lp_jumps', 0)} LP jumps "
            f"({snap.get('ilp.lp_failures', 0)} failed), "
            f"{snap.get('ilp.searches_skipped', 0)} searches skipped, "
            f"build {snap.get('ilp.build_s', 0.0):.3f}s, "
            f"solve {snap.get('ilp.solve_s', 0.0):.3f}s"
        )
        if ilp_status is not None:
            line += f", search status: {ilp_status}"
        print(line)
    for family in FAMILIES.values():
        if snap.get(f"{family.obs}.searches"):
            print(
                f"{family.label}: {snap[f'{family.obs}.searches']} period searches, "
                f"{snap.get(f'{family.obs}.feasible', 0)} feasible"
            )
    if snap.get("certify.checks"):
        print(
            f"certification: {snap.get('certify.checks', 0)} checks, "
            f"{snap.get('certify.failures', 0)} failed, "
            f"{snap.get('certify.quarantined', 0)} plans quarantined, "
            f"{snap.get('certify.fallbacks', 0)} replaced by the "
            f"{FAMILIES[schedule_family].label} fallback"
        )


def _plan_kwargs(args: argparse.Namespace) -> dict:
    """The :func:`repro.api.plan` keyword arguments of the
    :func:`_plan_options` flags, filtered to the ones the chosen
    algorithm takes (:func:`repro.api.plan_options`)."""
    from .api import plan_options

    opts = dict(_solver_kwargs(args), memory_headroom=args.memory_headroom)
    return dict(
        algorithm=args.algorithm,
        schedule_family=args.schedule_family,
        **plan_options(args.algorithm, opts, shared=True),
    )


def _cmd_schedule(args: argparse.Namespace) -> int:
    from .api import plan

    chain = load_chain(args.profile)
    platform = Platform.of(args.procs, args.memory_gb, args.bandwidth_gbps)
    trace = obs.Trace(f"schedule:{Path(args.profile).stem}") if args.trace else None
    try:
        result = plan(chain, platform, trace=trace, **_plan_kwargs(args))
    except ValueError as exc:  # an out-of-range option, e.g. --iterations 0
        print(f"error: {exc}", file=sys.stderr)
        return 2
    pattern, notes = result.pattern, result.raw.notes
    if trace is not None:
        obs.write_chrome_trace(trace, args.trace)
        print(f"wrote trace ({len(trace)} spans) to {args.trace}")
    if args.stats_json:
        payload = obs.metrics_payload(
            result.metrics, command="schedule", profile=args.profile,
            algorithm=args.algorithm, status=result.status,
        )
        Path(args.stats_json).write_text(json.dumps(payload, indent=1))
        print(f"wrote solver metrics to {args.stats_json}")
    if args.stats:
        ilp = getattr(result.raw, "ilp", None)
        _print_registry_stats(
            result.metrics, ilp.status if ilp is not None else None,
            args.schedule_family,
        )
        print(f"result status: {result.status}")
        for note in notes:
            print(f"  - {note}")
        if result.certificate is not None:
            c = result.certificate
            line = f"certificate: {'ok' if c.ok else 'FAILED'} [{c.mode}]"
            if c.periods_simulated:
                line += f", {c.periods_simulated} periods simulated"
            if c.oom_margin:
                line += (
                    f", min OOM margin "
                    f"{min(c.oom_margin.values()) / 2**30:.3f} GB"
                )
            print(line)
    if pattern is None:
        reason = "; ".join(notes) or result.status
        print(f"no memory-feasible schedule found [{result.status}]: {reason}")
        return 1
    print(schedule_report(chain, platform, pattern))
    if args.gantt:
        print()
        print(render_gantt(pattern, width=args.width))
    if args.out:
        save_pattern(pattern, args.out)
        print(f"\nwrote schedule to {args.out}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    """Ingest measured traces, calibrate against a baseline, emit JSON.

    The output is a deterministic function of (traces, baseline,
    min-samples, mad-k) — no timestamps — so re-running the command on
    the same inputs is byte-identical.  Corrupt trace lines are
    quarantined to ``<file>.quarantine`` sidecars and counted; they
    never abort ingestion.
    """
    from .api import ingest
    from .profiling import ProfileError

    chain = load_chain(args.profile)
    registry = obs.MetricsRegistry()
    try:
        with obs.use_metrics(registry):
            cal = ingest(
                args.traces,
                chain,
                min_samples=args.min_samples,
                mad_k=args.mad_k,
            )
    except ProfileError as exc:
        print(f"ingestion failed: {exc}", file=sys.stderr)
        return 2
    text = json.dumps(cal.to_dict(), indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
    else:
        print(text)
    if not args.quiet:
        snap = registry.snapshot()
        print(
            f"{chain.name}: ingested {cal.n_records} record(s), "
            f"{cal.n_quarantined} quarantined, "
            f"{int(snap.get('ingest.rejected', 0))} outlier value(s) rejected",
            file=sys.stderr,
        )
        if cal.degraded:
            detail = []
            if cal.fallback_layers:
                detail.append(
                    f"fallback layers: {', '.join(cal.fallback_layers)}"
                )
            if cal.unknown_layers:
                detail.append(
                    f"unknown trace layers: {', '.join(cal.unknown_layers)}"
                )
            print(
                "calibration DEGRADED (" + "; ".join(detail) + ")",
                file=sys.stderr,
            )
        if args.out:
            print(f"wrote calibration to {args.out}", file=sys.stderr)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    """Plan + certify + robustness-stress one profile; emit JSON.

    The payload is a deterministic function of (profile, platform,
    algorithm options, noise model, samples, seed) — no wall times —
    so the same invocation always produces byte-identical output.

    With ``--traces`` the chain and noise model are calibrated from
    measured traces first (see ``repro ingest``): planning and the
    robustness report then run against the calibrated chain and the
    fitted per-layer noise, and the payload carries the calibration's
    coverage report.  A degraded calibration marks the overall status
    ``degraded`` — loud, never silently blended.
    """
    from .api import certify, ingest, plan
    from .profiling import NoiseModel, ProfileError

    chain = load_chain(args.profile)
    platform = Platform.of(args.procs, args.memory_gb, args.bandwidth_gbps)
    noise = NoiseModel(
        sigma_compute=args.sigma_compute,
        sigma_activation=args.sigma_activation,
        sigma_weight=args.sigma_weight,
    )
    calibration = None
    if args.traces:
        try:
            calibration = ingest(
                args.traces,
                chain,
                min_samples=args.min_samples,
                mad_k=args.mad_k,
                default_noise=noise,
            )
        except ProfileError as exc:
            print(f"ingestion failed: {exc}", file=sys.stderr)
            return 2
        chain = calibration.chain
        noise = calibration.noise
    registry = obs.MetricsRegistry()
    with obs.use_metrics(registry):
        try:
            result = plan(chain, platform, **_plan_kwargs(args))
        except ValueError as exc:  # an out-of-range option, e.g. --iterations 0
            print(f"error: {exc}", file=sys.stderr)
            return 2
        cert = certify(
            chain,
            platform,
            result,
            robustness=not args.no_robustness,
            noise=noise,
            samples=args.samples,
            seed=args.seed,
        )
    status = result.status
    if calibration is not None and calibration.degraded and status == "ok":
        status = "degraded"
    payload = {
        "profile": str(args.profile),
        "network": chain.name,
        "algorithm": args.algorithm,
        "platform": {
            "n_procs": args.procs,
            "memory_gb": args.memory_gb,
            "bandwidth_gbps": args.bandwidth_gbps,
        },
        "memory_headroom": args.memory_headroom,
        "schedule_family": args.schedule_family,
        "status": status,
        "period": result.period if result.feasible else None,
        "certificate": cert.to_dict(),
    }
    if calibration is not None:
        block = calibration.to_dict()
        del block["schema"], block["chain"]
        payload["calibration"] = {**block, "traces": str(args.traces)}
    text = json.dumps(payload, indent=1, sort_keys=True)
    if args.out:
        Path(args.out).write_text(text + "\n")
        verdict = "NOT certified" if not cert.ok else (
            "certified (calibration degraded)" if status == "degraded" else "certified"
        )
        print(f"{chain.name} [{args.algorithm}]: {verdict}; wrote {args.out}")
    else:
        print(text)
    if args.stats:
        _print_registry_stats(registry.snapshot(), None, args.schedule_family)
    return 0 if cert.ok else 1


def _cmd_trace_summary(args: argparse.Namespace) -> int:
    try:
        roots = obs.load_trace_file(args.file)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"cannot read trace {args.file}: {exc}")
        return 2
    print(render := obs.render_summary(obs.summarize(roots)))
    return 0 if render != "(empty trace)" else 1


def sweep_options() -> argparse.ArgumentParser:
    """The canonical sweep runtime flags, grouped once.

    ``repro sweep`` and ``scripts/run_paper_sweep.py`` both include this
    parser via ``parents=[sweep_options()]``, so every shared option has
    exactly one spelling, type and help text; the flags other commands
    also take come from :data:`_SHARED_FLAGS`, the solver defaults from
    :data:`_SOLVER_DEFAULTS`.  Callers override defaults with
    ``parser.set_defaults(...)`` after construction.
    """
    p = argparse.ArgumentParser(add_help=False)
    _add_shared(p, "--workers")
    p.add_argument(
        "--resume",
        action="store_true",
        help="re-run cached instances whose status is solver_timeout/error "
        "(completed instances are always skipped)",
    )
    _add_shared(p, "--max-retries", "--instance-timeout")
    p.add_argument(
        "--on-error", choices=("raise", "record"), default="raise",
        help='after retries: "raise" aborts the sweep, "record" stores a '
        "typed error result and continues",
    )
    _add_shared(
        p, "--grid", "--iterations", "--ilp-time-limit", **_SOLVER_DEFAULTS["sweep"]
    )
    p.add_argument(
        "--flush-every", type=int, default=8,
        help="cache flush batch size (records per fsync'd append)",
    )
    p.add_argument("--quiet", action="store_true")
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="append per-instance span trees to PATH (JSONL; inspect with "
        "'repro trace summary PATH')",
    )
    _add_shared(p, "--no-warm-start", "--schedule-family")
    return p


def sweep_kwargs(args: argparse.Namespace) -> dict:
    """The :func:`repro.api.sweep` keyword arguments of the
    :func:`sweep_options` flags, including the result cache opened at
    ``args.out`` (its parent directory is created)."""
    from .experiments import ResultCache

    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    return dict(
        _solver_kwargs(args),
        schedule_family=args.schedule_family,
        cache=ResultCache(args.out, flush_every=args.flush_every),
        verbose=not args.quiet,
        n_workers=args.workers,
        retry_failed=args.resume,
        max_retries=args.max_retries,
        instance_timeout=args.instance_timeout,
        on_exhausted=args.on_error,
        trace_path=args.trace,
        warm_start=not args.no_warm_start,
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    from .api import SweepSpec, sweep

    try:
        kwargs = sweep_kwargs(args)
    except ValueError as exc:  # a JSON-array --out: refused, left untouched
        print(f"error: {exc}")
        return 2
    cache = kwargs["cache"]
    if cache.quarantined:
        print(
            f"warning: quarantined {len(cache.quarantined)} corrupt cache "
            f"line(s); kept {len(cache)} valid record(s)"
        )
    spec = SweepSpec(
        args.networks, args.procs, args.memories, args.bandwidths, args.algorithms
    )
    try:
        result = sweep(spec, **kwargs)
    except KeyboardInterrupt:
        print(f"\ninterrupted; {len(cache)} instance(s) cached in {args.out}")
        print("re-run with --resume to continue")
        return 130
    n_bad = sum(1 for r in result.results if r.status != "ok")
    print(f"sweep done: {len(result)} instance(s), {n_bad} not ok, cache {args.out}")
    if not args.quiet:
        print(result.render_summary())
    if args.trace:
        print(f"trace: {args.trace} (see 'repro trace summary {args.trace}')")
    return 0


def _parse_serve_request(line: str, lineno: int) -> "tuple[dict, object, Platform]":
    """Decode one JSONL serve request into (raw, chain, platform).

    A request names its chain by scenario (``"network": "toy8"``, any
    paper network or ``toy<L>``), by profile file
    (``"profile": "rn50.json"``) or inline (``"chain": {...}`` in the
    profile JSON format, validated strictly), plus the platform and
    optional ``"algorithm"`` / ``"opts"``.  Raises ``ValueError`` with a
    line-anchored message on anything malformed — the serve loop turns
    that into a structured ``ok=false`` response with ``stage="parse"``,
    so a bad request never reaches the solver or the ``serve.errors``
    counter.
    """
    from .experiments.scenarios import paper_chain

    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"line {lineno}: not valid JSON ({exc})") from None
    if not isinstance(obj, dict):
        raise ValueError(f"line {lineno}: request must be a JSON object")
    network = obj.get("network")
    profile = obj.get("profile")
    inline = obj.get("chain")
    if sum(x is not None for x in (network, profile, inline)) != 1:
        raise ValueError(
            f"line {lineno}: exactly one of 'network', 'profile' or "
            f"'chain' is required"
        )
    try:
        if network is not None:
            chain = paper_chain(network)
        elif profile is not None:
            chain = load_chain(profile)
        else:
            chain = chain_from_dict(inline, source=f"line {lineno}: 'chain'")
    except (OSError, ValueError, KeyError) as exc:
        raise ValueError(f"line {lineno}: cannot load chain: {exc}") from None
    try:
        platform = Platform.of(
            int(obj["procs"]),
            float(obj.get("memory_gb", 8.0)),
            float(obj.get("bandwidth_gbps", 12.0)),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"line {lineno}: bad platform: {exc}") from None
    opts = obj.get("opts", {})
    if not isinstance(opts, dict):
        raise ValueError(f"line {lineno}: 'opts' must be an object")
    return obj, chain, platform


def _serve_resilience(args: argparse.Namespace):
    """The :class:`ResilienceConfig` of the ``repro serve`` flags (their
    defaults switch every mechanism off, like ``ResilienceConfig()``)."""
    from .api import ResilienceConfig

    return ResilienceConfig(
        max_concurrency=args.max_concurrency,
        max_pending=args.max_pending,
        deadline_budget_s=args.deadline_budget,
        degraded_fallback=args.degraded,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
    )


async def _serve_loop(args: argparse.Namespace, lines: list[str]) -> int:
    """Drive the JSONL request replay against one :class:`PlanService`."""
    import asyncio

    from .api import (
        CircuitOpenError,
        DeadlineExceededError,
        OverloadedError,
        PoolExhaustedError,
    )
    from .api import serve as make_service

    service = make_service(
        store=args.store,
        max_workers=args.workers,
        instance_timeout=args.instance_timeout,
        max_retries=args.max_retries,
        warm_start=not args.no_warm_start,
        seed=args.seed,
        resilience=_serve_resilience(args),
    )
    gate = asyncio.Semaphore(max(1, args.concurrency))
    failures = 0
    shed = 0

    def emit(payload: dict) -> None:
        print(json.dumps(payload, sort_keys=True), flush=True)

    async def one(lineno: int, line: str) -> None:
        nonlocal failures, shed
        rid = None
        stage = "parse"
        try:
            obj, chain, platform = _parse_serve_request(line, lineno)
            rid = obj.get("id", lineno)
            opts = dict(obj.get("opts", {}))
            # the CLI default family applies unless the request names one;
            # the service strips the "1f1b" default from the fingerprint,
            # so pre-family stores keep serving default requests
            opts.setdefault("schedule_family", args.schedule_family)
            request = service.request(
                chain,
                platform,
                algorithm=obj.get("algorithm", "madpipe"),
                priority=obj.get("priority", "interactive"),
                deadline_s=obj.get("deadline_s"),
                **opts,
            )  # raises on an unknown algorithm or option: still a parse error
            stage = "solve"
            async with gate:
                reply = await service.handle(request)
        except OverloadedError as exc:
            # shedding is the service doing its job, not a failure: the
            # reply is structured and carries the retry-after hint
            shed += 1
            emit({
                "id": rid, "ok": False, "stage": "admission",
                "error": str(exc), "retry_after_s": exc.retry_after_s,
            })
            return
        except Exception as exc:  # one bad request must not kill the loop
            failures += 1
            if isinstance(exc, CircuitOpenError):
                stage = "breaker"
            elif isinstance(exc, DeadlineExceededError):
                stage = "deadline"
            elif isinstance(exc, PoolExhaustedError):
                stage = "pool"
            if rid is None:  # parse failed before the id was read: best effort
                try:
                    peek = json.loads(line)
                    rid = peek.get("id", lineno) if isinstance(peek, dict) else None
                except json.JSONDecodeError:
                    pass
            emit({"id": rid, "ok": False, "stage": stage, "error": str(exc)})
            return
        response = {
            "id": rid,
            "ok": True,
            "fingerprint": reply.fingerprint,
            "served_from": reply.served_from,
            "latency_ms": round(reply.latency_s * 1e3, 3),
            "status": reply.result.status,
            "period": reply.result.period if reply.result.feasible else None,
        }
        if args.emit_plans:
            # encoded here, at this build's schema version, whatever the
            # version of the store record it came from
            response["plan"] = reply.result.to_json()
        emit(response)

    async with service:
        await asyncio.gather(
            *(one(i, line) for i, line in enumerate(lines, 1))
        )
        stats = service.stats()
    emit({"stats": stats})
    if not args.quiet:
        c = stats["counters"]
        print(
            f"served {int(c.get('serve.requests', 0))} request(s): "
            f"{int(c.get('serve.solves', 0))} solved, "
            f"{int(c.get('serve.hits', 0))} cache hit(s), "
            f"{int(c.get('serve.coalesced', 0))} coalesced, "
            f"{int(c.get('serve.degraded', 0))} degraded, "
            f"{shed} shed, {failures} failed",
            file=sys.stderr,
        )
    return 0 if failures == 0 else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    if args.requests == "-":
        text = sys.stdin.read()
    else:
        try:
            text = Path(args.requests).read_text()
        except OSError as exc:
            print(f"cannot read {args.requests}: {exc}", file=sys.stderr)
            return 2
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if args.store:
        Path(args.store).parent.mkdir(parents=True, exist_ok=True)
    return asyncio.run(_serve_loop(args, lines))


def _cmd_cache_verify(args: argparse.Namespace) -> int:
    from .experiments import ResultCache, verify_cache

    try:
        report = verify_cache(args.cache)
    except ValueError as exc:  # a JSON array: refused, left untouched
        print(f"error: {exc}")
        return 2
    print(f"{report['path']}: format={report['format']} records={report['records']}")
    if report["statuses"]:
        hist = ", ".join(f"{k}={v}" for k, v in sorted(report["statuses"].items()))
        print(f"statuses: {hist}")
    for lineno, reason in report["corrupt"]:
        print(f"corrupt line {lineno}: {reason}")
    if report["duplicate_keys"]:
        print(f"duplicate keys: {report['duplicate_keys']} (last write wins)")
    if report["clean"]:
        print("clean")
        return 0
    if args.fix:
        cache = ResultCache(args.cache)
        if cache.repair():
            after = verify_cache(args.cache)
            print(f"repaired: {after['records']} record(s), clean={after['clean']}")
            return 0 if after["clean"] else 1
        print("nothing recoverable to write")
        return 1
    print("not clean (re-run with --fix to repair)")
    return 1


def _plan_options() -> argparse.ArgumentParser:
    """The planning flags ``repro schedule`` and ``repro certify`` share,
    defined once (read back by :func:`_plan_kwargs`)."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("profile")
    p.add_argument("-p", "--procs", type=int, required=True)
    p.add_argument("-m", "--memory-gb", type=float, required=True)
    p.add_argument("-b", "--bandwidth-gbps", type=float, default=12.0)
    p.add_argument(
        "-a", "--algorithm", choices=("madpipe", "pipedream"), default="madpipe"
    )
    _add_shared(
        p, "--grid", "--ilp-time-limit", "--iterations", "--schedule-family",
        **_SOLVER_DEFAULTS["plan"],
    )
    p.add_argument(
        "--memory-headroom", type=float, default=0.0, metavar="FRAC",
        help="plan against memory*(1-FRAC) per GPU, keeping FRAC in "
        "reserve against profile noise (madpipe only)",
    )
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    plan_options = _plan_options()

    p = sub.add_parser("profile", help="profile a zoo network to a JSON chain")
    p.add_argument("network", help=f"one of {sorted(_NETWORKS)}")
    p.add_argument("--image-size", type=int, default=1000)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("-o", "--out", default="chain.json")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("report", help="tabulate a profiled chain")
    p.add_argument("profile")
    p.add_argument("--top", type=int, default=None)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser(
        "ingest",
        help="ingest measured per-layer traces (JSONL/CSV) and calibrate a "
        "chain + per-layer noise model against a baseline profile; corrupt "
        "records are quarantined to sidecars, never fatal",
    )
    p.add_argument("traces", help="directory of *.jsonl / *.csv trace files")
    p.add_argument("profile", help="baseline chain profile (JSON)")
    _add_shared(p, "--min-samples", "--mad-k")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("-o", "--out", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser(
        "schedule", parents=[plan_options], help="schedule a profile on a platform"
    )
    p.add_argument(
        "--stats",
        action="store_true",
        help="print solver diagnostics (DP states/pruning, ILP probe timings)",
    )
    p.add_argument(
        "--stats-json", default=None, metavar="PATH",
        help="write the solver metrics registry as JSON to PATH",
    )
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write a Chrome-tracing JSON span tree to PATH "
        "(load in chrome://tracing or ui.perfetto.dev)",
    )
    p.add_argument("--gantt", action="store_true")
    p.add_argument("--width", type=int, default=100)
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=_cmd_schedule)

    p = sub.add_parser(
        "certify",
        parents=[plan_options],
        help="plan, certify via discrete-event simulation, and stress-test "
        "under seeded profile noise; emits a deterministic JSON report",
    )
    p.add_argument(
        "--samples", type=int, default=32,
        help="noise samples for the robustness report",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="RNG seed; the same seed reproduces the report bit for bit",
    )
    p.add_argument(
        "--sigma-compute", type=float, default=0.05, metavar="S",
        help="lognormal sigma on per-layer forward/backward times",
    )
    p.add_argument(
        "--sigma-activation", type=float, default=0.05, metavar="S",
        help="lognormal sigma on per-layer activation sizes",
    )
    p.add_argument(
        "--sigma-weight", type=float, default=0.0, metavar="S",
        help="lognormal sigma on per-layer weight sizes",
    )
    p.add_argument(
        "--no-robustness", action="store_true",
        help="verify only; skip the noise stress test",
    )
    p.add_argument(
        "--traces", default=None, metavar="DIR",
        help="calibrate chain + per-layer noise from measured traces in DIR "
        "first (see 'repro ingest'); the robustness report then reflects "
        "observed variance and a degraded calibration degrades the status",
    )
    _add_shared(p, "--min-samples", "--mad-k")
    p.add_argument("--stats", action="store_true")
    p.add_argument("-o", "--out", default=None, metavar="PATH")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser(
        "sweep",
        parents=[sweep_options()],
        help="run a (network, P, M, beta, algorithm) grid with a resumable cache",
    )
    p.add_argument(
        "--networks",
        nargs="+",
        default=["resnet50"],
        help="paper network names, or toy<L> for synthetic chains",
    )
    p.add_argument("--procs", nargs="+", type=int, default=[2, 4, 8])
    p.add_argument(
        "--memories", nargs="+", type=float, default=[4.0, 8.0, 16.0],
        metavar="GB",
    )
    p.add_argument(
        "--bandwidths", nargs="+", type=float, default=[12.0], metavar="GBPS"
    )
    p.add_argument(
        "--algorithms", nargs="+", choices=("pipedream", "madpipe"),
        default=["pipedream", "madpipe"],
    )
    p.add_argument("--out", default="results/sweep.jsonl", help="cache file (JSONL)")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser(
        "serve",
        help="answer a JSONL stream of plan requests through the caching, "
        "coalescing plan service (one JSON response per line, stats at end)",
    )
    p.add_argument(
        "requests",
        nargs="?",
        default="-",
        help="JSONL request file, or '-' (default) to read stdin; each line "
        'is e.g. {"id": 1, "network": "toy8", "procs": 4, "memory_gb": 8}',
    )
    p.add_argument(
        "--store", default=None, metavar="PATH",
        help="persistent plan cache (JSONL); restarting with the same store "
        "serves previously solved plans without re-solving",
    )
    _add_shared(p, "--workers")
    p.add_argument(
        "--concurrency", type=int, default=8,
        help="max requests admitted to the service at once",
    )
    _add_shared(
        p, "--instance-timeout", "--max-retries", "--no-warm-start",
        "--schedule-family",
    )
    p.add_argument(
        "--max-concurrency", type=int, default=None, metavar="N",
        help="enable admission control: at most N solves run at once, "
        "--max-pending more queue (priority-ordered), the rest are shed "
        'with an {"ok": false, "stage": "admission"} reply carrying a '
        "retry_after_s hint",
    )
    p.add_argument(
        "--max-pending", type=int, default=16, metavar="N",
        help="admission queue depth before shedding (with --max-concurrency)",
    )
    p.add_argument(
        "--deadline-budget", type=float, default=None, metavar="S",
        help="default per-request wall-clock budget including queue wait; "
        "a request's own 'deadline_s' field overrides it",
    )
    p.add_argument(
        "--breaker-threshold", type=int, default=None, metavar="N",
        help="enable per-(algorithm, schedule_family) circuit breakers "
        "tripping after N consecutive solve failures",
    )
    p.add_argument(
        "--breaker-cooldown", type=float, default=30.0, metavar="S",
        help="breaker cooldown before a half-open probe (seed-jittered)",
    )
    p.add_argument(
        "--degraded", action="store_true",
        help="answer budget-exhausted / breaker-open / failed requests with "
        "the certified contiguous fallback plan (served_from=degraded) "
        "instead of an error; degraded plans never enter the store",
    )
    p.add_argument(
        "--seed", type=int, default=0,
        help="seed for retry jitter and breaker probe scheduling "
        "(bit-reproducible replays)",
    )
    p.add_argument(
        "--emit-plans", action="store_true",
        help="include the full plan payload in each response line",
    )
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("trace", help="inspect trace files written by --trace")
    trace_sub = p.add_subparsers(dest="trace_command", required=True)
    ps = trace_sub.add_parser(
        "summary", help="aggregate a trace's spans by name (count, wall, CPU)"
    )
    ps.add_argument("file", help="Chrome trace JSON or sweep trace JSONL")
    ps.set_defaults(func=_cmd_trace_summary)

    p = sub.add_parser("cache", help="inspect/repair sweep result caches")
    cache_sub = p.add_subparsers(dest="cache_command", required=True)
    pv = cache_sub.add_parser(
        "verify", help="audit a cache file; exit 1 if it is not clean"
    )
    pv.add_argument("cache", help="cache file path (JSONL)")
    pv.add_argument(
        "--fix",
        action="store_true",
        help="rewrite the file clean (atomic; corrupt lines stay in the "
        ".quarantine sidecar)",
    )
    pv.set_defaults(func=_cmd_cache_verify)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
