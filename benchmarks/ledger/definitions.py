"""What the ledger measures: workloads, metrics, layers and their bounds.

This module is the single source of ``BENCHMARK.json`` (see
:func:`benchmark_json`), of the regression bounds ``compare.py``
applies, and of the layer table the traced run installs.  The README's
tables restate it for readers.
"""

from __future__ import annotations

#: Seconds one run measures.  Each workload sizes its load from this.
RUN_SECONDS = 20

#: The benchmark's directory, relative to the repository root.
PATH = "benchmarks/ledger"

#: name -> why the workload exists (one line each).
WORKLOADS = {
    "plan-resnet": (
        "cold api.plan on ResNet-50/101 for madpipe, pipedream and gpipe: "
        "phase-1 DP first, MILP second; no cache, no zero-bubble"
    ),
    "plan-gpt": (
        "cold madpipe on gpt24 under 1f1b and zero_bubble: MILP probes "
        "dominate and the only zero-bubble load"
    ),
    "sweep-grid": (
        "warm-started serial api.sweep runs, each into a fresh JSONL cache: "
        "the plan-resnet solver layers plus warm reuse and cache writes"
    ),
    "serve-zipf": (
        "open-loop Zipf traffic on a fresh api.serve with 2 workers, then "
        "closed-loop hits: the hit path, coalescing and cold-solve dispatch"
    ),
}

#: End-to-end metrics: name -> (unit, better, bound).  ``bound`` is the
#: share of the parent's median by which a change may worsen the metric.
#: Every workload reports every one of them (see the README for what
#: each means on each workload).  On a shared 2-vCPU machine the timings
#: still spread by up to 15% between runs after speed scaling, so their
#: bounds are 0.25, the most a ``BENCHMARK.json`` bound may be.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "p50_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}

#: Checked by ``compare.py`` and printed by the all-workload command, but
#: left out of ``BENCHMARK.json``.  Periods read the same on every run
#: and ratios read 0, and correctness already rejects any increase;
#: ``tail_ms`` spread by up to 20-23% between runs (serve-zipf's open
#: loop, plan-gpt's slowest instance), too close to 0.25 to gate on.
EXTRAS = {
    "tail_ms": ("ms", "lower", 0.25),
    "period_gmean": ("model_s", "lower", 1e-9),
    "fail_ratio": ("ratio", "lower", 0.0),
    "late_ratio": ("ratio", "lower", 0.0),
}

#: Layer name -> (entry points, [(end-to-end metric, workload) it should
#: move]).  An entry point is ``module:attr`` (a function, replaced at
#: every repro module that binds it), ``module:Class.method``, or
#: ``=module:attr`` (replaced in that module only).
LAYERS = {
    "api.plan": (
        ["repro.api:plan"],
        [("wall_s", "plan-resnet"), ("wall_s", "plan-gpt")],
    ),
    "algorithms.madpipe": (
        ["repro.algorithms.madpipe:madpipe"],
        [("wall_s", "plan-resnet"), ("wall_s", "plan-gpt"), ("wall_s", "sweep-grid")],
    ),
    "algorithms.pipedream": (
        ["repro.algorithms.pipedream:pipedream"],
        [("wall_s", "plan-resnet"), ("wall_s", "sweep-grid")],
    ),
    "algorithms.gpipe": (
        ["repro.algorithms.gpipe:gpipe"],
        [("wall_s", "plan-resnet")],
    ),
    "algorithms.madpipe_dp": (
        ["repro.algorithms.madpipe_dp:algorithm1"],
        [("wall_s", "plan-resnet"), ("wall_s", "sweep-grid")],
    ),
    "algorithms.onef1b": (
        ["repro.algorithms.onef1b:min_feasible_period"],
        [("wall_s", "plan-resnet")],
    ),
    "algorithms.zero_bubble": (
        ["repro.algorithms.zero_bubble:min_feasible_period_zb"],
        [("wall_s", "plan-gpt")],
    ),
    "ilp.search": (
        ["repro.ilp.solver:schedule_allocation"],
        [("wall_s", "plan-gpt"), ("tail_ms", "plan-gpt"), ("wall_s", "plan-resnet")],
    ),
    "ilp.build": (
        ["repro.ilp.formulation:build_skeleton"],
        [("wall_s", "plan-gpt"), ("wall_s", "plan-resnet")],
    ),
    "ilp.milp": (
        ["=repro.ilp.solver:milp"],
        [("wall_s", "plan-gpt"), ("tail_ms", "plan-gpt"), ("wall_s", "plan-resnet")],
    ),
    "ilp.lp": (
        ["=repro.ilp.solver:linprog"],
        [("wall_s", "plan-gpt"), ("wall_s", "plan-resnet")],
    ),
    "robust.certify": (
        ["repro.robust.certify:certify_pattern"],
        [("wall_s", "plan-resnet"), ("wall_s", "plan-gpt"), ("wall_s", "sweep-grid")],
    ),
    "experiments.harness": (
        ["repro.experiments.harness:run_grid"],
        [("wall_s", "sweep-grid")],
    ),
    "experiments.cache": (
        ["repro.experiments.harness:ResultCache.flush"],
        [("wall_s", "sweep-grid")],
    ),
    "api.json": (
        ["repro.api:PlanResult.to_json", "repro.api:PlanResult.from_json"],
        [("wall_s", "serve-zipf"), ("p50_ms", "serve-zipf")],
    ),
    "serve.fingerprint": (
        ["repro.warmstart:request_fingerprint"],
        [("wall_s", "serve-zipf"), ("p50_ms", "serve-zipf")],
    ),
    "serve.cache": (
        [
            "repro.serve.store:PlanCache.get",
            "repro.serve.store:PlanCache.put",
            "repro.serve.store:PlanCache.flush",
        ],
        [("wall_s", "serve-zipf"), ("p50_ms", "serve-zipf")],
    ),
    "serve.handle": (
        ["repro.serve.service:PlanService.handle"],
        [("wall_s", "serve-zipf"), ("p50_ms", "serve-zipf")],
    ),
    # everything between the cache lookup and the solve: mostly the wait
    # of requests coalesced onto a solve already in flight
    "serve.coalesce": (
        ["repro.serve.service:PlanService._resolve"],
        [("tail_ms", "serve-zipf")],
    ),
    "serve.dispatch": (
        ["repro.serve.service:PlanService._solve"],
        [("tail_ms", "serve-zipf")],
    ),
    "serve.worker": (
        ["repro.serve.service:_solve_in_worker"],
        [("tail_ms", "serve-zipf")],
    ),
}

#: A dispatch's self time excludes the worker-side time of the solve it
#: sent: both layers are paired across the process boundary by the
#: request fingerprint, read from each entry point's positional
#: arguments (``PlanService._solve(self, request, fingerprint, ...)``,
#: ``_solve_in_worker(payload)`` with the fingerprint at ``payload[6]``).
STITCH = {
    "serve.dispatch": lambda args: args[2],
    "serve.worker": lambda args: args[0][6],
}

#: Per-layer metrics beyond ``<layer>.calls`` / ``<layer>.self_s``:
#: name -> (unit, better).
COUNTERS = {
    "serve.pool_wait_s": ("s", "lower"),
    "dp.states": ("count", "lower"),
    "dp.probes": ("count", "lower"),
    "ilp.milp_probes": ("count", "lower"),
    "ilp.timeouts": ("count", "lower"),
    "warm.reuse_ratio": ("ratio", "higher"),
    "serve.hit_ratio": ("ratio", "higher"),
    "serve.coalesce_ratio": ("ratio", "higher"),
    "serve.retries": ("count", "lower"),
    "bench.gen_lag_p99_ms": ("ms", "lower"),
    "bench.trace_overhead": ("ratio", "lower"),
    "bench.layer_coverage": ("ratio", "higher"),
}


def per_layer_metrics() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better), in report order."""
    out: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.self_s"] = ("s", "lower")
    out.update(COUNTERS)
    return out


def bounds() -> dict[str, tuple[str, str, float]]:
    """name -> (unit, better, bound) for every metric ``compare.py`` judges."""
    return {**END_TO_END, **EXTRAS}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` document for this benchmark."""
    return {
        "command": ["python3", f"{PATH}/run.py"],
        "paths": [PATH],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": unit, "better": better, "bound": bound}
            for n, (unit, better, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": unit, "better": better}
            for n, (unit, better) in per_layer_metrics().items()
        ],
    }
