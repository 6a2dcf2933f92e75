"""The stable public API facade.

This module is the supported way in:

* :func:`plan` — run one planning algorithm on one (chain, platform)
  instance and get a uniform :class:`PlanResult` back, with optional
  tracing/metrics;
* :func:`sweep` — run one or more scenario grids through the resilient
  experiment harness and get a :class:`SweepResult` back;
* :func:`certify` — (re-)certify a plan through the discrete-event
  verifier and optionally stress-test it under seeded profile noise
  (:class:`repro.robust.RobustnessReport`);
* :func:`ingest` — turn a directory of measured per-layer traces into a
  calibrated chain + fitted per-layer noise model
  (:class:`repro.profiles.CalibrationResult`), with quarantine and an
  explicit coverage report;
* :func:`serve` — a long-lived caching, coalescing planning service
  (:class:`repro.serve.PlanService` itself, not a wrapper);
* :func:`load_chain` — re-exported profile loader, so a typical script
  needs nothing beyond ``repro.api``.

:func:`plan` is the only code that turns ``(algorithm, options)`` into
an algorithm call: the CLI, the plan service and every sweep instance
plan through it.  :data:`PLAN_OPTIONS` — the options each algorithm
takes, read from the algorithm signatures at import time — is the one
table they check options against (:func:`plan_options`), so a bad
served request is rejected before anything is solved.

Every :func:`plan` result carries a ``certificate``: each
pattern-producing algorithm (``madpipe``, ``pipedream``) runs its own
certification gate and returns its own ``status``, ``notes`` and
``certificate``, and a failing plan is quarantined — never silently
emitted (see the quarantine semantics in the README).

Everything here delegates to the underlying algorithm modules without
altering numerics: ``plan(chain, platform, algorithm="madpipe")``
returns bit-identical periods/patterns to calling
:func:`repro.algorithms.madpipe.madpipe` directly.

Observability::

    result = plan(chain, platform, trace=True)
    obs.write_chrome_trace(result.trace, "plan.json")
    print(result.metrics["dp.states"])
"""

from __future__ import annotations

import inspect
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping, Sequence

from . import obs
from .algorithms.gpipe import gpipe
from .algorithms.madpipe import SCHEDULE_FAMILIES, madpipe
from .algorithms.pipedream import pipedream
from .core.chain import Chain
from .core.pattern import (
    B,
    CB,
    CF,
    F,
    OP_KINDS,
    OpKind,
    PeriodicPattern,
    W,
    is_comm,
    is_compute,
    split_backward,
)
from .core.platform import Platform
from .core.serialize import pattern_from_dict, pattern_to_dict
from .experiments.harness import ResultCache, RunResult, run_grid
from .profiles import CalibrationResult, calibrate, ingest_traces
from .profiling import LayerNoiseModel, NoiseModel, ProfileError, load_chain
from .robust import Certificate, RobustnessReport, certify_pattern, robustness_report
from .testing import faults

__all__ = [
    "ALGORITHMS",
    "B",
    "CB",
    "CF",
    "CalibrationResult",
    "Certificate",
    "F",
    "LayerNoiseModel",
    "NoiseModel",
    "CircuitOpenError",
    "DeadlineExceededError",
    "OP_KINDS",
    "OpKind",
    "OverloadedError",
    "PLAN_OPTIONS",
    "PLAN_SCHEMA_VERSION",
    "PlanResult",
    "PlanService",
    "PoolExhaustedError",
    "ProfileError",
    "ResilienceConfig",
    "RobustnessReport",
    "SCHEDULE_FAMILIES",
    "SweepResult",
    "SweepSpec",
    "W",
    "certify",
    "ingest",
    "is_comm",
    "is_compute",
    "load_chain",
    "plan",
    "plan_options",
    "serve",
    "split_backward",
    "sweep",
]

#: The keyword options :func:`plan` takes for each algorithm (besides
#: ``algorithm`` and ``trace``), read once from the algorithm's
#: signature.  ``schedule_family`` is always accepted: for GPipe the
#: facade implements it (only the ``"1f1b"`` family).
#: The sweep, the CLI and the plan service all check options against
#: this one table (:func:`plan_options`).
PLAN_OPTIONS: dict[str, frozenset[str]] = {
    name: frozenset(
        p.name for p in inspect.signature(fn).parameters.values()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    ) | {"schedule_family"}
    for name, fn in (("madpipe", madpipe), ("pipedream", pipedream), ("gpipe", gpipe))
}

#: Algorithms :func:`plan` dispatches on.
ALGORITHMS = tuple(PLAN_OPTIONS)

_ANY_OPTION = frozenset().union(*PLAN_OPTIONS.values())

#: Current :meth:`PlanResult.to_json` schema.  Version 2 added
#: ``schedule_family``; version-1 records (no family ⇒ ``"1f1b"``) are
#: still accepted by :meth:`PlanResult.from_json` and the plan store.
PLAN_SCHEMA_VERSION = 2

INF = float("inf")


@dataclass
class PlanResult:
    """Uniform outcome of :func:`plan`, independent of the algorithm.

    ``raw`` carries the algorithm's native result object
    (:class:`~repro.algorithms.madpipe.MadPipeResult`,
    :class:`~repro.algorithms.pipedream.PipeDreamResult` or
    :class:`~repro.algorithms.gpipe.GPipeResult`) for anything the
    uniform fields do not cover.  ``metrics`` is the run's counter
    snapshot; ``trace`` is populated when tracing was requested.

    ``certificate`` is the discrete-event certificate of the returned
    schedule: every plan is certified (``None`` only on a record read
    back without one).  Pattern-producing algorithms get a ``verified``
    (or, after a quarantine, ``fallback``) certificate; GPipe's
    fill-drain rounds have no periodic pattern and get a ``skipped``
    one.
    """

    algorithm: str
    period: float
    dp_period: float
    pattern: PeriodicPattern | None
    status: str
    raw: Any
    metrics: dict[str, float] = field(default_factory=dict)
    trace: "obs.Trace | None" = None
    certificate: Certificate | None = None
    schedule_family: str = "1f1b"

    @property
    def feasible(self) -> bool:
        return self.period != INF

    def to_json(self) -> dict:
        """The *plan* as a JSON-ready dict — deterministic and
        round-trippable through :meth:`from_json`.

        Serializes what the planner decided (algorithm, periods, status,
        pattern, certificate), not how the call went: ``metrics``,
        ``trace`` and the algorithm-native ``raw`` object are per-call
        observations and are deliberately excluded, so two solves of the
        same request (cold, warm or cached) serialize byte-identically.
        Infinite periods encode as ``null`` (the :class:`ResultCache`
        convention), keeping the payload strict JSON.  This is the wire
        format of the plan server's cache and protocol
        (:mod:`repro.serve`).

        Writes schema version ``2`` (adds ``schedule_family``);
        :meth:`from_json` still accepts version-1 records, which predate
        schedule families and always describe ``"1f1b"`` plans.
        """
        return {
            "version": PLAN_SCHEMA_VERSION,
            "schedule_family": self.schedule_family,
            "algorithm": self.algorithm,
            "period": None if self.period == INF else self.period,
            "dp_period": None if self.dp_period == INF else self.dp_period,
            "status": self.status,
            "pattern": None if self.pattern is None else pattern_to_dict(self.pattern),
            "certificate": (
                None if self.certificate is None else self.certificate.to_dict()
            ),
        }

    @classmethod
    def from_json(cls, data: dict) -> "PlanResult":
        """Inverse of :meth:`to_json`.

        The reloaded result carries the full plan (pattern, certificate,
        periods, status); ``raw``/``trace`` are ``None`` and ``metrics``
        empty — they do not survive serialization.  Raises ``ValueError``
        on malformed input (the plan store quarantines such records).
        """
        if not isinstance(data, dict):
            raise ValueError(
                f"plan payload must be a JSON object, got {type(data).__name__}"
            )
        version = data.get("version", 1)
        if version not in (1, PLAN_SCHEMA_VERSION):
            raise ValueError(
                f"unsupported plan schema version {version!r}; "
                f"this build reads versions 1..{PLAN_SCHEMA_VERSION}"
            )
        missing = [k for k in ("algorithm", "status") if k not in data]
        if missing:
            raise ValueError(f"plan payload missing fields {missing}")
        try:
            period = data.get("period")
            dp_period = data.get("dp_period")
            pattern = data.get("pattern")
            cert = data.get("certificate")
            return cls(
                algorithm=str(data["algorithm"]),
                period=INF if period is None else float(period),
                dp_period=INF if dp_period is None else float(dp_period),
                pattern=None if pattern is None else pattern_from_dict(pattern),
                status=str(data["status"]),
                raw=None,
                certificate=None if cert is None else Certificate.from_dict(cert),
                # v1 records predate schedule families: always 1f1b
                schedule_family=str(data.get("schedule_family", "1f1b")),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed plan payload: {exc!r}") from exc


def plan(
    chain: Chain,
    platform: Platform,
    *,
    algorithm: str = "madpipe",
    schedule_family: str = "1f1b",
    trace: "obs.Trace | bool | None" = None,
    **opts: Any,
) -> PlanResult:
    """Plan one (chain, platform) instance with the chosen algorithm.

    ``schedule_family`` selects the pattern family the planner builds
    and certifies: ``"1f1b"`` (the paper's monolithic backward, default)
    or ``"zero_bubble"`` (split-backward F/B/W patterns; see the README's
    *Schedule families* section).  GPipe has no periodic pattern, so it
    accepts only the default family.  ``schedule_family="1f1b"`` is
    bit-identical to omitting the argument.

    ``trace=True`` records a fresh :class:`repro.obs.Trace` onto the
    result; passing an existing ``Trace`` appends to it instead.  Extra
    keyword arguments go to the algorithm verbatim (``iterations``,
    ``grid``, ``ilp_time_limit``, ``allow_special``, ``memory_headroom``
    for MadPipe; ``micro_batches`` for GPipe), so results match the
    direct calls bit for bit.  Every plan is certified.  An unknown
    algorithm or schedule family raises ``ValueError`` and an option the
    algorithm does not take raises ``TypeError`` (see :func:`plan_options`).
    """
    opts = plan_options(algorithm, dict(opts, schedule_family=schedule_family))
    del opts["schedule_family"]  # checked; passed on by name below
    if trace is True:
        tr = obs.Trace(f"plan:{algorithm}")
    elif isinstance(trace, obs.Trace):  # note: an empty Trace is falsy
        tr = trace
    elif trace in (None, False):
        tr = None
    else:
        raise TypeError(f"trace must be a Trace, True or None, not {trace!r}")
    registry = obs.MetricsRegistry()
    outer = obs.active_metrics()
    with obs.use_metrics(registry), (obs.use_trace(tr) if tr is not None else nullcontext()):
        if algorithm == "gpipe":
            res = gpipe(chain, platform, **opts)
            result = PlanResult(
                algorithm=algorithm,
                period=res.period,
                dp_period=res.period,  # GPipe has no separate optimizer estimate
                pattern=None,  # fill-drain rounds, not a periodic pattern
                status="ok" if res.feasible else "infeasible",
                raw=res,
                certificate=Certificate(ok=True, mode="skipped",
                                        source=f"gpipe:{chain.name}"),
            )
        else:
            # the algorithm owns its certification gate and status
            run = madpipe if algorithm == "madpipe" else pipedream
            res = run(chain, platform, schedule_family=schedule_family, **opts)
            result = PlanResult(
                algorithm=algorithm,
                period=res.period,
                dp_period=res.dp_period,
                pattern=res.pattern,
                status=res.status,
                raw=res,
                certificate=res.certificate,
                schedule_family=schedule_family,
            )
    if outer is not None:
        outer.merge(registry.snapshot())
    result.metrics = registry.snapshot()
    result.trace = tr
    return result


def plan_options(
    algorithm: str, opts: Mapping[str, Any], *, shared: bool = False
) -> dict[str, Any]:
    """Check ``opts`` against :data:`PLAN_OPTIONS`; return the ones
    ``algorithm`` takes.

    Raises ``ValueError`` for an unknown algorithm or schedule family
    (GPipe takes only ``"1f1b"``) and ``TypeError`` for an option
    ``algorithm`` does not take.  ``shared=True`` is for one option set
    that serves several algorithms (a sweep, a CLI command): options
    only another algorithm takes are dropped (MadPipe's DP ``grid`` for
    PipeDream), and only a name no algorithm takes raises.  The check is
    a few set lookups, cheap enough for every served request.
    """
    accepted = PLAN_OPTIONS.get(algorithm)
    if accepted is None:
        raise ValueError(
            f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}"
        )
    family = opts.get("schedule_family", "1f1b")
    if family not in SCHEDULE_FAMILIES:
        raise ValueError(
            f"unknown schedule family {family!r}; expected one of {SCHEDULE_FAMILIES}"
        )
    if algorithm == "gpipe" and family != "1f1b":
        raise ValueError(
            f"algorithm 'gpipe' schedules fill-drain rounds, not periodic "
            f"patterns; it does not support schedule_family={family!r}"
        )
    if accepted.issuperset(opts):
        return dict(opts)
    unknown = sorted(set(opts) - (_ANY_OPTION if shared else accepted))
    if unknown:
        raise TypeError(
            f"algorithm {algorithm!r} takes no option(s) {unknown}; "
            f"it takes {sorted(accepted)}"
        )
    return {k: v for k, v in opts.items() if k in accepted}


def certify(
    chain: Chain,
    platform: Platform,
    plan_result: "PlanResult | PeriodicPattern | None",
    *,
    robustness: bool = True,
    noise: "NoiseModel | None" = None,
    samples: int = 32,
    seed: int = 0,
    **robust_opts: Any,
) -> Certificate:
    """(Re-)certify a plan and optionally stress-test it under noise.

    Accepts the :class:`PlanResult` from :func:`plan` (its
    ``certificate`` field is refreshed in place) or a bare
    :class:`~repro.core.pattern.PeriodicPattern`.  The pattern is
    re-executed through the discrete-event verifier; with
    ``robustness=True`` (the default) a seeded
    :class:`repro.robust.RobustnessReport` — worst-case period
    inflation, per-GPU OOM margins, the bisected breaking noise level —
    is attached to the certificate.  The same ``seed`` always produces
    a bit-identical report.  Extra keyword arguments
    (``break_inflation``, ``max_noise_scale``, ``bisect_iters``) pass
    to :func:`repro.robust.robustness_report`.
    """
    if isinstance(plan_result, PlanResult):
        pattern = plan_result.pattern
        source = f"certify:{plan_result.algorithm}:{chain.name}"
    else:
        pattern = plan_result
        source = f"certify:{chain.name}"
    fault = faults.fire("certify", key=source)
    if fault is not None and fault.action == "fail":
        obs.inc("certify.failures")
        cert = Certificate(
            ok=False,
            source=source,
            period=pattern.period if pattern is not None else None,
            violations=[f"injected certification failure at certify[{source}]"],
        )
    else:
        cert = certify_pattern(chain, platform, pattern, source=source)
        if cert.ok and pattern is not None and robustness:
            cert.robustness = robustness_report(
                chain,
                platform,
                pattern,
                noise=noise,
                samples=samples,
                seed=seed,
                **robust_opts,
            )
    if isinstance(plan_result, PlanResult):
        plan_result.certificate = cert
    return cert


def ingest(
    trace_dir: "str | Path",
    baseline: Chain,
    *,
    min_samples: int = 3,
    mad_k: float = 5.0,
    default_noise: "NoiseModel | None" = None,
) -> CalibrationResult:
    """Ingest measured traces and calibrate them against ``baseline``.

    Reads every ``*.jsonl``/``*.csv`` trace under ``trace_dir``
    (corrupt records are quarantined to sidecar files, never fatal) and
    fits a calibrated :class:`~repro.core.chain.Chain` plus a per-layer
    :class:`~repro.profiling.LayerNoiseModel` — see
    :mod:`repro.profiles` for the robustness contract.  The returned
    :class:`~repro.profiles.CalibrationResult` carries the coverage
    report and is marked ``degraded`` whenever any field fell back to
    the baseline; feed its ``chain``/``noise`` to :func:`plan` and
    :func:`certify` for observed-noise planning (CLI: ``repro ingest``,
    ``repro certify --traces``).

    Raises :class:`~repro.profiling.ProfileError` only for structural
    problems (missing directory, no trace files).
    """
    traces = ingest_traces(trace_dir)
    return calibrate(
        baseline,
        traces,
        min_samples=min_samples,
        mad_k=mad_k,
        default_noise=default_noise,
    )


# ------------------------------------------------------------------ sweeps


@dataclass(frozen=True)
class SweepSpec:
    """One scenario grid: the cross product of every axis.

    Accepted wherever :func:`sweep` takes specs; scalars are fine on any
    axis (``SweepSpec("vgg16", 4, 8.0, 12.0)`` is a single instance per
    algorithm).
    """

    networks: tuple[str, ...]
    procs: tuple[int, ...]
    memories_gb: tuple[float, ...]
    bandwidths_gbps: tuple[float, ...]
    algorithms: tuple[str, ...] = ("pipedream", "madpipe")

    def __init__(self, networks, procs, memories_gb, bandwidths_gbps,
                 algorithms=("pipedream", "madpipe")):
        object.__setattr__(self, "networks", _tup(networks, str))
        object.__setattr__(self, "procs", _tup(procs, int))
        object.__setattr__(self, "memories_gb", _tup(memories_gb, float))
        object.__setattr__(self, "bandwidths_gbps", _tup(bandwidths_gbps, float))
        object.__setattr__(self, "algorithms", _tup(algorithms, str))


def _tup(value, kind) -> tuple:
    if isinstance(value, (str, int, float)):
        return (kind(value),)
    return tuple(kind(v) for v in value)


def _as_spec(spec: "SweepSpec | Mapping | Sequence") -> SweepSpec:
    if isinstance(spec, SweepSpec):
        return spec
    if isinstance(spec, Mapping):
        return SweepSpec(**spec)
    if isinstance(spec, Sequence) and not isinstance(spec, str):
        return SweepSpec(*spec)
    raise TypeError(
        f"cannot interpret {type(spec).__name__} as a sweep spec; "
        "pass a SweepSpec, a mapping of its fields, or a "
        "(networks, procs, memories_gb, bandwidths_gbps[, algorithms]) sequence"
    )


@dataclass
class SweepResult:
    """Outcome of :func:`sweep`: flat results plus the metrics snapshot."""

    results: list[RunResult]
    specs: list[SweepSpec]
    metrics: dict[str, float] = field(default_factory=dict)

    @property
    def statuses(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for r in self.results:
            out[r.status] = out.get(r.status, 0) + 1
        return out

    def summary(self) -> dict:
        """Digest of the sweep: statuses plus the reuse counters.

        Surfaces what the raw ``metrics`` dict buries — how much work
        the harness *avoided*: ``cache_hits`` (served from the JSONL
        result cache), ``dedup_hits`` (duplicate specs solved once and
        fanned out) and ``retries``.
        """
        m = self.metrics
        return {
            "instances": len(self.results),
            "statuses": self.statuses,
            "cache_hits": int(m.get("sweep.cache_hits", 0)),
            "dedup_hits": int(m.get("sweep.dedup_hits", 0)),
            "retries": int(m.get("sweep.retries", 0)),
        }

    def render_summary(self) -> str:
        """One-line human rendering of :meth:`summary` (the ``repro
        sweep`` footer)."""
        s = self.summary()
        statuses = " ".join(f"{k}={v}" for k, v in sorted(s["statuses"].items()))
        line = (
            f"{s['instances']} instance(s) [{statuses or 'none'}] | "
            f"reuse: {s['cache_hits']} cached, {s['dedup_hits']} deduplicated"
        )
        if s["retries"]:
            line += f", {s['retries']} retried"
        return line

    def __len__(self) -> int:
        return len(self.results)


def sweep(
    specs: "SweepSpec | Mapping | Sequence | Iterable",
    *,
    cache: "ResultCache | str | Path | None" = None,
    trace_path: "str | Path | None" = None,
    warm_start: bool = True,
    **opts: Any,
) -> SweepResult:
    """Run one or more scenario grids through the resilient harness.

    ``specs`` is a single spec or an iterable of them (see
    :class:`SweepSpec` for the accepted forms).  ``cache`` takes a
    ready :class:`ResultCache` or just a path.  Remaining keyword
    arguments pass straight to :func:`repro.experiments.run_grid`: its
    runtime knobs (``n_workers``, ``instance_timeout``, ``max_retries``,
    ``retry_failed``, ``on_exhausted``, ``verbose``) and the sweep's
    solver options (``iterations``, ``grid``, ``ilp_time_limit``,
    ``schedule_family``), which every instance receives filtered by
    :func:`plan_options` to what its algorithm takes;
    ``trace_path`` streams per-instance span trees to a JSONL file.
    ``schedule_family`` is a solver option, not part of the cache
    identity — keep one cache file per family.

    ``warm_start`` (default on) solves neighboring instances against the
    per-process warm-start database (:mod:`repro.warmstart`), whose DP
    rows workspace is shared across instances: results and the counts in
    ``metrics`` stay identical to a cold sweep — only wall time (and the
    ``*_s`` timers) changes.  Pass
    ``warm_start=False`` (CLI: ``--no-warm-start``) for from-scratch
    solves, e.g. when timing single instances.
    """
    if isinstance(specs, (SweepSpec, Mapping)) or (
        isinstance(specs, Sequence)
        and specs
        and isinstance(specs[0], (str, int, float))
    ):
        spec_list = [_as_spec(specs)]
    elif isinstance(specs, Iterable) and not isinstance(specs, str):
        spec_list = [_as_spec(s) for s in specs]
    else:
        spec_list = [_as_spec(specs)]  # raises the descriptive TypeError
    if isinstance(cache, (str, Path)):
        cache = ResultCache(cache)
    registry = obs.MetricsRegistry()
    outer = obs.active_metrics()
    results: list[RunResult] = []
    with obs.use_metrics(registry):
        for spec in spec_list:
            results.extend(
                run_grid(
                    spec.networks,
                    spec.procs,
                    spec.memories_gb,
                    spec.bandwidths_gbps,
                    algorithms=spec.algorithms,
                    cache=cache,
                    trace_path=trace_path,
                    warm_start=warm_start,
                    **opts,
                )
            )
    if outer is not None:
        outer.merge(registry.snapshot())
    return SweepResult(results=results, specs=spec_list, metrics=registry.snapshot())


# placed last: repro.serve pulls the harness/obs layers in but never this
# module at import time, so the facade can re-export its service surface
from .serve import (  # noqa: E402  (import cycle guard)
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    PlanService,
    PoolExhaustedError,
    ResilienceConfig,
)

#: Build a long-lived planning service: ``serve(**kwargs)`` is
#: :class:`~repro.serve.PlanService` itself, so its constructor is the one
#: declaration of every service knob (see its docstring for usage).
serve = PlanService
