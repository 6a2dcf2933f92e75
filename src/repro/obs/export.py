"""Trace/metrics exporters: Chrome tracing JSON, flat JSON, summary table.

Three views over one span tree:

* :func:`chrome_trace` / :func:`write_chrome_trace` — a Chrome Trace
  Event Format document (complete ``"ph": "X"`` events) loadable in
  ``chrome://tracing`` or https://ui.perfetto.dev.  The document also
  embeds the raw span trees under a ``reproSpans`` key (ignored by the
  viewers) so ``repro trace summary`` can read its own output without a
  lossy event-to-tree reconstruction;
* :func:`summarize` / :func:`render_summary` — per-span-name aggregates
  (count, total/self wall, CPU) as a human table, surfaced as
  ``repro trace summary``;
* :func:`metrics_payload` — a flat metrics JSON document
  (``repro schedule --stats-json``).

:func:`load_trace_file` sniffs both on-disk trace formats this package
writes: the Chrome document and the JSONL per-instance stream appended
by sweeps (one ``{"spec": …, "spans": […]}`` object per line).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterable, Mapping

from .metrics import MetricsRegistry
from .trace import Span, Trace

__all__ = [
    "chrome_trace",
    "load_trace_file",
    "metrics_payload",
    "render_summary",
    "summarize",
    "write_chrome_trace",
]


def _as_span_dicts(trace: "Trace | Iterable[Span | dict]") -> list[dict]:
    if isinstance(trace, Trace):
        return [s.to_dict() for s in trace.roots]
    out = []
    for s in trace:
        out.append(s.to_dict() if isinstance(s, Span) else s)
    return out


def _events(span: dict, pid: int, tid: int, out: list[dict]) -> None:
    args = dict(span.get("attrs", {}))
    args["cpu_s"] = span.get("cpu_s", 0.0)
    status = span.get("status", "ok")
    if status != "ok":
        args["status"] = status
    name = span["name"]
    out.append(
        {
            "name": name,
            "cat": name.split(".", 1)[0],
            "ph": "X",
            "ts": span.get("start_s", 0.0) * 1e6,  # microseconds
            "dur": span.get("wall_s", 0.0) * 1e6,
            "pid": pid,
            "tid": tid,
            "args": args,
        }
    )
    for child in span.get("children", ()):
        _events(child, pid, tid, out)


def chrome_trace(
    trace: "Trace | Iterable[Span | dict]", *, name: str | None = None
) -> dict:
    """Build a Chrome Trace Event Format document from a span tree.

    Every root span tree becomes one ``tid`` lane so concurrent
    per-instance traces (from sweep workers) render side by side.
    """
    roots = _as_span_dicts(trace)
    events: list[dict] = []
    pid = os.getpid()
    for tid, root in enumerate(roots):
        _events(root, pid, tid, events)
    doc_name = name or (trace.name if isinstance(trace, Trace) else "repro")
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"producer": "repro.obs", "name": doc_name},
        "reproSpans": roots,
    }


def write_chrome_trace(
    trace: "Trace | Iterable[Span | dict]",
    path: str | Path,
    *,
    name: str | None = None,
) -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(json.dumps(chrome_trace(trace, name=name), indent=1))
    return path


def load_trace_file(path: str | Path) -> list[dict]:
    """Load root span dicts from either on-disk format this package
    writes: the Chrome document of :func:`write_chrome_trace`, or a
    sweep's JSONL per-instance stream."""
    text = Path(path).read_text()
    if not text.strip():
        return []
    # the Chrome document is one (pretty-printed) JSON object; a sweep
    # stream is one object per line, so a whole-text parse disambiguates
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = None
    if isinstance(doc, dict):
        if "traceEvents" in doc or "reproSpans" in doc:
            spans = doc.get("reproSpans")
            if spans is None:
                raise ValueError(
                    f"{path}: Chrome trace without embedded reproSpans; "
                    "was it written by repro.obs?"
                )
            return spans
        return list(doc.get("spans", ()))  # a one-line sweep stream
    # JSONL per-instance stream from a sweep
    roots: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: corrupt trace line: {exc}") from exc
        if not isinstance(rec, dict):
            raise ValueError(f"{path}:{lineno}: not a trace record object")
        roots.extend(rec.get("spans", ()))
    return roots


def summarize(roots: "Trace | Iterable[Span | dict]") -> list[dict]:
    """Aggregate spans by name: count, total/self wall seconds, CPU seconds.

    Rows come back sorted by total wall time, descending.
    """
    totals: dict[str, dict] = {}

    def visit(span: dict) -> None:
        children = span.get("children", ())
        wall = float(span.get("wall_s", 0.0))
        row = totals.setdefault(
            span["name"],
            {"name": span["name"], "count": 0, "wall_s": 0.0, "self_s": 0.0,
             "cpu_s": 0.0, "errors": 0},
        )
        row["count"] += 1
        row["wall_s"] += wall
        row["self_s"] += max(
            0.0, wall - sum(float(c.get("wall_s", 0.0)) for c in children)
        )
        row["cpu_s"] += float(span.get("cpu_s", 0.0))
        if span.get("status", "ok") != "ok":
            row["errors"] += 1
        for child in children:
            visit(child)

    for root in _as_span_dicts(roots):
        visit(root)
    return sorted(totals.values(), key=lambda r: -r["wall_s"])


def render_summary(rows: list[dict]) -> str:
    """Human table over :func:`summarize` rows."""
    if not rows:
        return "(empty trace)"
    name_w = max(24, max(len(r["name"]) for r in rows))
    lines = [
        f"{'span':<{name_w}} {'count':>7} {'wall (s)':>10} "
        f"{'self (s)':>10} {'cpu (s)':>10} {'errors':>7}"
    ]
    for r in rows:
        lines.append(
            f"{r['name']:<{name_w}} {r['count']:>7d} {r['wall_s']:>10.4f} "
            f"{r['self_s']:>10.4f} {r['cpu_s']:>10.4f} {r['errors']:>7d}"
        )
    return "\n".join(lines)


def metrics_payload(
    metrics: "MetricsRegistry | Mapping[str, float]", **extra: object
) -> dict:
    """Flat metrics JSON document: ``{"metrics": {...}, **extra}``."""
    snap = (
        metrics.snapshot() if isinstance(metrics, MetricsRegistry) else dict(metrics)
    )
    return {"metrics": snap, **extra}
