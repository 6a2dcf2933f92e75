"""Experiment harness: run algorithms over scenario grids, cache results.

Every (network, P, M, β, algorithm) instance yields a :class:`RunResult`
with both the optimizer's own estimate (``dp_period``, the dashed lines
of Fig. 6) and the certified valid-schedule period (``valid_period``, the
solid lines), plus a ``status`` recording how the instance ended:

``ok``
    a certified schedule with no solver-budget trouble;
``degraded``
    a certified schedule, but the phase-2 MILP exhausted its time budget
    somewhere along the way (the period carries the 1F1B\\* fallback or
    an uncertified search outcome — valid, possibly improvable);
``solver_timeout``
    no schedule, and the failure is a time-limit hit rather than proven
    infeasibility (re-running with a larger budget may succeed);
``infeasible``
    certified: no valid schedule exists for the instance;
``error``
    the instance crashed or exceeded its deadline repeatedly and was
    recorded instead of re-raised (``on_exhausted="record"``), *or* its
    schedule failed the discrete-event certification gate and no
    certified fallback existed — the quarantined period is withheld
    (``valid_period = inf``), never recorded as valid.

:func:`run_instance` plans every instance through the core of
:func:`repro.api.plan` (``repro.api._dispatch``, the one code path from
``(algorithm, options)`` to an algorithm call, without ``plan``'s
per-call trace and metrics snapshot) and only copies the plan's
``status`` and notes, so a sweep agrees with :func:`repro.api.plan` by
construction.  Solver options are one set for
every algorithm of the grid; :data:`repro.api.PLAN_OPTIONS` decides which
of them each algorithm takes.  A PipeDream partitioning no valid
schedule fits is ``infeasible`` (``dp_period`` kept).

Sweeps are built to *survive*:

* :func:`run_grid` fans uncached instances out over a
  ``ProcessPoolExecutor`` when ``n_workers > 1``, retries crashed or
  timed-out instances with exponential backoff and seeded jitter
  (``max_retries``), restarts the pool after a hard worker death
  (``BrokenProcessPool``), enforces a per-instance deadline *inside*
  the worker (``instance_timeout``), and flushes the cache on the way
  out even when interrupted — a sweep killed mid-run resumes from the
  cache and re-runs only missing (and, with ``retry_failed=True``,
  previously failed) instances.  Each attempt runs through
  :func:`repro.runtime.run_attempt`, the execution core the plan
  service shares;
* :class:`ResultCache` persists results to an *append-only* JSON-Lines
  file through :class:`repro.jsonl.JsonlCache` (fsync'd batched
  appends, quarantine of corrupt lines into a ``.quarantine`` sidecar),
  and :func:`verify_cache` audits a cache file without touching it.
  A JSON-array file (the format before 3.0.0) is refused, untouched.
"""

from __future__ import annotations

import functools
import json
import math
import random
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from pathlib import Path

from .. import obs
from ..core.chain import Chain
from ..core.platform import GB, GBPS, Platform
from ..jsonl import JsonlCache, parse_lines
from ..runtime import InstanceTimeoutError, backoff_delay, run_attempt
from ..testing import faults
from .scenarios import paper_chain

__all__ = [
    "RunResult",
    "RESULT_STATUSES",
    "SweepInstanceError",
    "InstanceTimeoutError",
    "run_instance",
    "run_grid",
    "load_results",
    "JsonlCache",
    "ResultCache",
    "verify_cache",
]

INF = float("inf")

#: The failure taxonomy; ``RunResult.status`` is always one of these.
RESULT_STATUSES = ("ok", "degraded", "solver_timeout", "infeasible", "error")

#: Cached statuses that ``run_grid(..., retry_failed=True)`` re-runs.
RETRY_STATUSES = ("solver_timeout", "error")

#: The solver options a sweep forwards to every instance.  The rest of
#: :data:`repro.api.PLAN_OPTIONS` keep the algorithms' defaults in every
#: sweep, so records cached under the same identity stay comparable.
_SWEEP_OPTIONS = frozenset(("grid", "iterations", "ilp_time_limit", "schedule_family"))


class SweepInstanceError(Exception):
    """One grid instance kept failing after every retry.

    Deliberately *not* a ``RuntimeError``: the pool-unavailable fallback
    in :func:`run_grid` catches ``RuntimeError`` and must never swallow
    this.
    """

    def __init__(self, spec: tuple, attempts: int, cause: BaseException):
        super().__init__(
            f"sweep instance {spec!r} failed after {attempts} attempt(s): "
            f"{type(cause).__name__}: {cause}"
        )
        self.spec = spec
        self.attempts = attempts
        self.cause = cause


@dataclass
class RunResult:
    """One algorithm run on one scenario."""

    network: str
    n_procs: int
    memory_gb: float
    bandwidth_gbps: float
    algorithm: str  # one of repro.api.ALGORITHMS
    dp_period: float  # the optimizer's internal estimate (dashed)
    valid_period: float  # certified schedule period (solid); inf if none
    n_stages: int
    runtime_s: float
    sequential: float  # U(1, L), for speedups
    status: str = "ok"  # one of RESULT_STATUSES
    failure: str | None = None  # human-readable reason when status != "ok"

    @property
    def feasible(self) -> bool:
        return self.valid_period != INF

    @property
    def speedup(self) -> float:
        return self.sequential / self.valid_period if self.feasible else 0.0

    @property
    def key(self) -> tuple:
        return (
            self.network,
            self.n_procs,
            self.memory_gb,
            self.bandwidth_gbps,
            self.algorithm,
        )


def run_instance(
    chain: Chain,
    platform: Platform,
    algorithm: str,
    *,
    network: str = "",
    **solver_opts,
) -> RunResult:
    """Plan one (chain, platform) instance the way :func:`repro.api.plan`
    does.

    ``solver_opts`` is one option set for every algorithm of a sweep
    (``grid``, ``iterations``, ``ilp_time_limit``, ``schedule_family``;
    any other name raises ``TypeError``): each algorithm receives the
    ones it takes, and the algorithm's own defaults apply to the rest.
    ``schedule_family`` selects the pattern family (1F1B or zero-bubble
    B/W split) but is not part of the instance's cache identity — sweeps
    of different families belong in different cache files.
    """
    from ..api import _dispatch  # deferred: repro.api imports this module

    opts = _plan_opts(algorithm, solver_opts)
    t0 = time.perf_counter()
    with obs.span(
        "instance",
        network=network or chain.name,
        algorithm=algorithm,
        n_procs=platform.n_procs,
        memory_gb=platform.memory / GB,
        bandwidth_gbps=platform.bandwidth / GBPS,
    ) as inst_span:
        res = _dispatch(chain, platform, algorithm, opts)
        inst_span.set(
            status=res.status, period=res.period if res.period != INF else None
        )
    obs.inc("sweep.instances")
    notes = getattr(res.raw, "notes", ())  # GPipe results carry none
    return RunResult(
        network=network or chain.name,
        n_procs=platform.n_procs,
        memory_gb=platform.memory / GB,
        bandwidth_gbps=platform.bandwidth / GBPS,
        algorithm=algorithm,
        dp_period=res.dp_period,
        valid_period=res.period,
        n_stages=res.raw.n_stages,
        runtime_s=time.perf_counter() - t0,
        sequential=chain.total_compute(),
        status=res.status,
        failure=None if res.status == "ok" else "; ".join(notes) or None,
    )


def _plan_opts(algorithm: str, solver_opts: dict) -> dict:
    """The ``solver_opts`` ``algorithm`` takes, checked against
    :data:`_SWEEP_OPTIONS` and :func:`repro.api.plan_options`."""
    from ..api import plan_options  # deferred: repro.api imports this module

    unknown = sorted(set(solver_opts) - _SWEEP_OPTIONS)
    if unknown:
        raise TypeError(
            f"a sweep takes no solver option(s) {unknown}; "
            f"it takes {sorted(_SWEEP_OPTIONS)}"
        )
    return plan_options(algorithm, solver_opts, shared=True)


def _spec_key(spec: tuple) -> str:
    return "|".join(str(s) for s in spec)


def _run_spec(
    spec: tuple,
    *,
    timeout: float | None,
    warm_start: bool,
    spans: bool,
    **solver_opts,
) -> tuple[RunResult, dict, list]:
    """Worker entry point: rebuild the (cached-per-process) chain from the
    network name and run one instance through
    :func:`repro.runtime.run_attempt` (fault site ``worker``, keyed by
    spec).  Module-level, so a bound ``functools.partial`` of it pickles
    across the process pool.  The warm-start database is per process:
    shared across a serial sweep, per worker under the pool."""
    network, p, m, b, algo = spec
    return run_attempt(
        lambda: run_instance(
            paper_chain(network), Platform.of(p, m, b), algo,
            network=network, **solver_opts,
        ),
        spec=spec, timeout=timeout, warm=warm_start,
        site="worker", key=_spec_key(spec), spans=spans,
    )


def _error_result(spec: tuple, exc: BaseException) -> RunResult:
    """Typed stand-in for an instance that exhausted its retries."""
    status = "solver_timeout" if isinstance(exc, InstanceTimeoutError) else "error"
    return RunResult(
        *spec, dp_period=INF, valid_period=INF, n_stages=0, runtime_s=0.0,
        sequential=0.0, status=status, failure=f"{type(exc).__name__}: {exc}",
    )


def run_grid(
    networks: tuple[str, ...],
    procs: tuple[int, ...],
    memories_gb: tuple[float, ...],
    bandwidths_gbps: tuple[float, ...],
    *,
    algorithms: tuple[str, ...] = ("pipedream", "madpipe"),
    cache: "ResultCache | None" = None,
    verbose: bool = False,
    n_workers: int = 1,
    instance_timeout: float | None = None,
    max_retries: int = 2,
    retry_backoff_s: float = 1.0,
    retry_failed: bool = False,
    on_exhausted: str = "raise",
    trace_path: str | Path | None = None,
    warm_start: bool = False,
    **solver_opts,
) -> list[RunResult]:
    """Run a full scenario grid, replaying cached instances if available.

    ``solver_opts`` are the sweep's options of :func:`repro.api.plan`
    (``grid``, ``iterations``, ``ilp_time_limit``, ``schedule_family``);
    every instance plans through :func:`run_instance`, which hands each
    algorithm the ones it takes, and the algorithms' own defaults apply
    to the rest.  An unknown algorithm or any other option raises before
    anything runs.  ``schedule_family`` selects the
    pattern family every instance builds (1F1B or the zero-bubble B/W
    split); like ``grid``/``iterations`` it is not part of the cache
    identity: sweeps of different families must use different cache
    files.

    ``n_workers > 1`` dispatches uncached instances to a process pool;
    results come back in the same deterministic (network, P, β, M,
    algorithm) order as the serial loop, and new results are written to
    ``cache`` as they complete so interrupted sweeps stay resumable.

    Resilience knobs:

    * ``instance_timeout`` — wall-clock deadline per instance, enforced
      with :func:`repro.runtime.deadline` inside the worker;
    * ``max_retries`` — each crashed or timed-out instance is retried
      this many times, in rounds with :func:`repro.runtime.backoff_delay`
      (capped at ``BACKOFF_CAP_S``, jitter seeded per call so replays
      sleep the same delays); a hard worker death (``BrokenProcessPool``)
      restarts the pool and charges one attempt to every unfinished
      instance of the round, so a sweep rebuilds its pool at most
      ``max_retries + 1`` times;
    * ``on_exhausted`` — ``"raise"`` (default) raises
      :class:`SweepInstanceError` identifying the failing spec once its
      retries are spent; ``"record"`` stores a typed ``error`` /
      ``solver_timeout`` result instead and lets the sweep complete;
    * ``retry_failed`` — also re-run cached instances whose status is in
      :data:`RETRY_STATUSES` (the ``--resume`` semantics).

    Observability: with ``trace_path`` set (or a metrics registry
    installed via :func:`repro.obs.use_metrics`), every instance —
    serial or pooled — runs under its own trace + registry; counters are
    merged into the caller's registry as results return (deterministic:
    counter sums are order-independent), and each finished instance's
    spans are appended to ``trace_path`` as one JSON-Lines record
    ``{"spec": […], "spans": […]}``.  The trace file is opened once for
    the whole sweep (on the first record) and flushed per record, so a
    killed sweep keeps every finished instance's spans.  Spans of
    attempts that failed and were retried are dropped; a resumed sweep
    appends to the same file.

    ``warm_start=True`` solves instances against the per-process
    warm-start database (:mod:`repro.warmstart`): phase 1 reuses the DP
    rows workspace of earlier instances with the same (network, P, β,
    grid).  Results and counts are identical to a cold sweep; only
    ``runtime_s`` and the ``*_s`` timers differ.  The default stays cold because a warm sweep
    leaves that workspace alive in the process after it returns; the
    :func:`repro.api.sweep` facade and the CLI default to warm.

    Duplicate specs (e.g. a grid with repeated memory values) are solved
    once and fanned out, counted as ``sweep.dedup_hits``.

    The cache is flushed on *every* exit path, including
    ``KeyboardInterrupt``, so completed instances are never lost.
    """
    if max_retries < 0:
        raise ValueError("max_retries must be >= 0")
    if on_exhausted not in ("raise", "record"):
        raise ValueError('on_exhausted must be "raise" or "record"')
    for algo in algorithms:  # fail fast, not once per instance after retries
        _plan_opts(algo, solver_opts)
    specs: list[tuple] = [
        (network, p, float(m), float(b), algo)
        for network in networks
        for p in procs
        for b in bandwidths_gbps
        for m in memories_gb
        for algo in algorithms
    ]
    out: list[RunResult | None] = [None] * len(specs)
    remaining: set[int] = set()
    primary: dict[tuple, int] = {}  # spec -> first index solving it
    dup_map: dict[int, list[int]] = {}  # primary index -> duplicate indices
    for i, spec in enumerate(specs):
        j = primary.setdefault(spec, i)
        if j != i:
            dup_map.setdefault(j, []).append(i)
            obs.inc("sweep.dedup_hits")
            continue
        hit = cache.get(spec) if cache is not None else None
        if hit is not None and not (retry_failed and hit.status in RETRY_STATUSES):
            out[i] = hit
            obs.inc("sweep.cache_hits")
        else:
            remaining.add(i)
    for j, dups in dup_map.items():  # fan cached primaries out right away
        if out[j] is not None:
            for i in dups:
                out[i] = out[j]

    attempts = dict.fromkeys(remaining, 0)
    n_recorded = 0
    trace_fh = None  # one handle for the sweep, opened on first record

    def finish(i: int, r: RunResult) -> None:
        nonlocal n_recorded
        out[i] = r
        if cache is not None:
            cache.put(r)
        n_recorded += 1
        if verbose:
            network, p, m, b, algo = specs[i]
            print(
                f"{network} P={p} M={m} beta={b} {algo}: "
                f"dp={r.dp_period:.4f} valid={r.valid_period:.4f} "
                f"[{r.status}] ({r.runtime_s:.1f}s)"
            )
        faults.fire("sweep_record", key=str(n_recorded))
        remaining.discard(i)
        for j in dup_map.get(i, ()):  # duplicates share the result (no re-put:
            out[j] = r  # a second cache.put of the same key forces a rewrite)

    def fail(i: int, exc: BaseException) -> None:
        attempts[i] += 1
        if attempts[i] <= max_retries:
            obs.inc("sweep.retries")
            if verbose:
                print(
                    f"instance {specs[i]!r} failed "
                    f"({type(exc).__name__}: {exc}); "
                    f"retry {attempts[i]}/{max_retries}"
                )
            return
        if on_exhausted == "record":
            if verbose:
                print(f"instance {specs[i]!r} exhausted retries; recording error")
            finish(i, _error_result(specs[i], exc))
        else:
            raise SweepInstanceError(specs[i], attempts[i], exc) from exc

    def settle(i: int, call) -> None:
        """Collect one attempt — a call or a future's ``result`` — and book
        it: merge its counters, append its spans, record the result; or
        charge the failure."""
        nonlocal trace_fh
        try:
            r, counts, spans = call()
            registry = obs.active_metrics()
            if registry is not None:
                registry.merge(counts)
            if spans:
                if trace_fh is None:
                    trace_fh = open(trace_path, "a")
                trace_fh.write(json.dumps({"spec": list(r.key), "spans": spans}) + "\n")
                trace_fh.flush()
            finish(i, r)
        except (BrokenProcessPool, SweepInstanceError):
            raise
        except Exception as exc:
            fail(i, exc)

    attempt = functools.partial(
        _run_spec, timeout=instance_timeout, warm_start=warm_start,
        spans=trace_path is not None, **solver_opts,
    )
    rng = random.Random(0)  # seeded jitter: same delays on every replay
    pool_ok = n_workers > 1
    round_no = 0
    try:
        while remaining:
            if round_no > 0:  # back off with jitter before any retry round
                time.sleep(backoff_delay(round_no, retry_backoff_s, rng))
            round_no += 1
            batch = sorted(remaining)
            if not (pool_ok and len(batch) > 1):
                for i in batch:
                    settle(i, functools.partial(attempt, specs[i]))
                continue
            try:
                with ProcessPoolExecutor(max_workers=n_workers) as pool:
                    futures = {pool.submit(attempt, specs[i]): i for i in batch}
                    for fut in as_completed(futures):
                        settle(futures[fut], fut.result)
            except BrokenProcessPool as exc:
                # a worker died hard (SIGKILL/os._exit): every unfinished
                # instance of the round is charged one attempt, then the
                # pool is rebuilt next round — so at most max_retries + 1
                # rebuilds before every instance is exhausted
                obs.inc("sweep.pool_restarts")
                if verbose:
                    print(f"process pool broke ({exc}); restarting")
                for i in [j for j in batch if j in remaining]:
                    fail(i, exc)
            except (OSError, RuntimeError) as exc:  # pool unavailable → serial
                if verbose:
                    print(f"process pool failed ({exc}); falling back to serial")
                pool_ok = False
    finally:
        try:
            if cache is not None:
                cache.flush()
        finally:
            if trace_fh is not None:
                trace_fh.close()
    return out


# ------------------------------------------------------------ serialization

#: Fields every cache record must carry (status/failure are optional for
#: records written before the failure taxonomy existed).
_CORE_FIELDS = (
    "network",
    "n_procs",
    "memory_gb",
    "bandwidth_gbps",
    "algorithm",
    "dp_period",
    "valid_period",
    "n_stages",
    "runtime_s",
    "sequential",
)
_FIELDS = _CORE_FIELDS + ("status", "failure")
#: Numeric fields; periods may be ``null`` (= inf), nothing may be NaN.
_NUMERIC_FIELDS = tuple(f for f in _CORE_FIELDS if f not in ("network", "algorithm"))


def _record_from_dict(d: object) -> RunResult:
    """Strict-parse one serialized record; raises ``ValueError`` on any
    missing field, NaN/Infinity constant, wrong type or unknown status."""
    if not isinstance(d, dict):
        raise ValueError(f"expected a JSON object, got {type(d).__name__}")
    missing = [f for f in _CORE_FIELDS if f not in d]
    if missing:
        raise ValueError(f"missing fields {missing}")
    d = {k: v for k, v in d.items() if k in _FIELDS}
    for k in _NUMERIC_FIELDS:
        v = d[k]
        if v is None and k in ("dp_period", "valid_period"):
            continue
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not math.isfinite(v):
            raise ValueError(f"field {k!r} must be a finite number, got {v!r}")
    for k in ("dp_period", "valid_period"):
        if d[k] is None:
            d[k] = INF
    d.setdefault("status", "ok" if d["valid_period"] != INF else "infeasible")
    d.setdefault("failure", None)
    if d["status"] not in RESULT_STATUSES:
        raise ValueError(f"unknown status {d['status']!r}")
    return RunResult(**d)


def _to_jsonable(r: RunResult) -> dict:
    d = asdict(r)
    for k in ("dp_period", "valid_period"):
        if d[k] == INF:
            d[k] = None
    return d


def _read_jsonl(path: Path) -> str:
    """The text of a result file; a JSON array (first byte ``[``, the
    format before 3.0.0) raises ``ValueError`` before anything parses
    or rewrites it, since line-by-line loading would quarantine every
    line and the next flush would overwrite the file."""
    text = path.read_text()
    if text.lstrip().startswith("["):
        raise ValueError(
            f"{path} is a JSON array; result files are JSONL since 3.0.0. "
            "Convert it with: python -c \"import json, sys; "
            "[print(json.dumps(r)) for r in json.load(open(sys.argv[1]))]\" "
            "OLD.json > NEW.jsonl"
        )
    return text


def load_results(path: str | Path) -> list[RunResult]:
    """Load the records of a JSONL :class:`ResultCache` file.

    Strict: a corrupt line, a NaN/Infinity constant or a malformed
    record raises ``ValueError`` naming the offending line, instead of
    propagating garbage into the figure generators, and so does a JSON
    array.  Use :class:`ResultCache` (which quarantines and recovers) or
    :func:`verify_cache` for damaged files.
    """
    records, bad = parse_lines(_read_jsonl(Path(path)), _record_from_dict)
    if bad:
        lineno, why, _ = bad[0]
        raise ValueError(f"{path}:{lineno}: corrupt cache line: {why}")
    return records


# ------------------------------------------------------------------ cache


class ResultCache(JsonlCache):
    """Append-only JSONL instance cache keyed by scenario tuple.

    The :class:`JsonlCache` hardening applies: fsync'd batched appends,
    quarantine + recovery of corrupt lines, atomic dedup rewrites.  A
    JSON-array file raises ``ValueError`` on open and stays untouched.
    """

    def _load(self) -> None:
        _read_jsonl(self.path)  # refuse a JSON array before quarantining it
        super()._load()

    def _encode(self, record: RunResult) -> dict:
        return _to_jsonable(record)

    def _decode(self, obj: dict) -> RunResult:
        return _record_from_dict(obj)

    def _key(self, record: RunResult) -> tuple:
        return record.key


def verify_cache(path: str | Path) -> dict:
    """Audit a cache file without modifying it.

    Returns a report dict: ``format`` (``jsonl`` / ``empty`` /
    ``missing``), ``records`` (valid), ``corrupt`` (list of
    ``(lineno, reason)``), ``duplicate_keys``, ``statuses`` (histogram)
    and ``clean`` (no corruption, no duplicates, proper trailing
    newline).  A JSON array raises ``ValueError``.  Surfaced as ``repro
    cache verify``.
    """
    path = Path(path)
    report: dict = {
        "path": str(path),
        "format": "missing",
        "records": 0,
        "corrupt": [],
        "duplicate_keys": 0,
        "statuses": {},
        "clean": False,
    }
    if not path.exists():
        return report
    text = _read_jsonl(path)
    if not text.strip():
        report["format"] = "empty"
        report["clean"] = True
        return report
    report["format"] = "jsonl"
    records, bad = parse_lines(text, _record_from_dict)
    report["corrupt"] = [(lineno, why) for lineno, why, _ in bad]
    if not text.endswith("\n"):
        report["corrupt"].append((text.count("\n") + 1, "missing trailing newline"))
    keys = Counter(r.key for r in records)
    report["statuses"] = dict(Counter(r.status for r in records))
    report["records"] = len(records)
    report["duplicate_keys"] = sum(n - 1 for n in keys.values())
    report["clean"] = not report["corrupt"] and report["duplicate_keys"] == 0
    return report
