"""Planner observability: hierarchical tracing + a process-safe metrics
registry, threaded through every solver layer.

Quick tour::

    from repro import obs

    trace = obs.Trace("my-run")
    registry = obs.MetricsRegistry()
    with obs.use_trace(trace), obs.use_metrics(registry):
        result = repro.api.plan(chain, platform)

    obs.write_chrome_trace(trace, "out.json")   # chrome://tracing / Perfetto
    print(obs.render_summary(obs.summarize(trace)))
    print(registry.snapshot())                  # {"dp.states": …, …}

Instrumented modules call :func:`obs.span` / :func:`obs.inc`, both of
which are no-ops (one context-variable lookup) unless a trace/registry
is installed — the disabled path stays off the solver hot paths'
critical time (the layer ledger's ``bench.trace_overhead`` tracks
the traced/untraced ratio).
"""

from .export import (
    chrome_trace,
    load_trace_file,
    metrics_payload,
    render_summary,
    summarize,
    write_chrome_trace,
)
from .metrics import (
    MetricsRegistry,
    active_metrics,
    inc,
    time_block,
    use_metrics,
)
from .trace import NULL_SPAN, Span, Trace, active_trace, span, use_trace

__all__ = [
    "NULL_SPAN",
    "MetricsRegistry",
    "Span",
    "Trace",
    "active_metrics",
    "active_trace",
    "chrome_trace",
    "inc",
    "load_trace_file",
    "metrics_payload",
    "render_summary",
    "span",
    "summarize",
    "time_block",
    "use_metrics",
    "use_trace",
    "write_chrome_trace",
]
