"""Hierarchical tracing for the planner stack.

A :class:`Trace` collects a tree of :class:`Span` records — named
intervals with wall/CPU time and free-form attributes — describing where
one planning run spent its time: DP state expansion
(``madpipe.dp``), the contiguous period search (``onef1b.period_search``
or ``zero_bubble.period_search``),
every MILP feasibility probe (``ilp.probe`` with build/solve split), and
so on.  Traces export to Chrome ``chrome://tracing`` / Perfetto JSON and
to a human summary table (:mod:`repro.obs.export`).

Tracing is *opt-in* and context-local: instrumented code opens spans
through the module-level :func:`span` helper, which resolves the current
trace from a :class:`contextvars.ContextVar`.  When no trace is
installed (the production default) :func:`span` returns a shared
:data:`NULL_SPAN` singleton whose enter/exit/``set`` are empty methods —
the whole instrumentation layer then costs one context-variable lookup
per call site.
Hot kernels that cannot afford even that use :func:`active_trace` to
skip their instrumentation block entirely.

Spans survive exceptions: a span entered when its block raises is still
recorded, with ``status`` set to ``error:<ExceptionName>`` — this is what
lets traces survive the sweep retry/deadline machinery (a SIGALRM-killed
instance leaves a truncated but well-formed span tree).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "NULL_SPAN",
    "Span",
    "Trace",
    "active_trace",
    "span",
    "use_trace",
]


def _json_safe(v: Any):
    """Coerce one attribute value to something ``json.dumps`` accepts.

    Non-finite floats become ``None`` (JSON has no ``Infinity``), numpy
    scalars collapse to their Python equivalents via ``.item()``, and
    anything else exotic falls back to ``str``.
    """
    if v is None or isinstance(v, (bool, int, str)):
        return v
    if isinstance(v, float):
        return v if math.isfinite(v) else None
    item = getattr(v, "item", None)
    if callable(item):
        try:
            return _json_safe(item())
        except (TypeError, ValueError):
            pass
    return str(v)


@dataclass
class Span:
    """One traced interval.

    ``start_s`` is the offset from the owning trace's epoch;
    ``wall_s``/``cpu_s`` are the interval's wall-clock and process-CPU
    durations.  ``attrs`` carries solver-specific attributes (probe
    period, states expanded, probe status, …) attached via :meth:`set`.
    """

    name: str
    attrs: dict[str, Any] = field(default_factory=dict)
    start_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    status: str = "ok"
    children: list["Span"] = field(default_factory=list)

    def set(self, **attrs: Any) -> None:
        """Attach (or overwrite) attributes on the span."""
        self.attrs.update(attrs)

    def walk(self) -> Iterator["Span"]:
        """This span and all descendants, depth-first, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    @property
    def self_wall_s(self) -> float:
        """Wall time not covered by direct children."""
        return max(0.0, self.wall_s - sum(c.wall_s for c in self.children))

    def to_dict(self) -> dict:
        """JSON-ready representation (round-trips via :meth:`from_dict`)."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "status": self.status,
            "attrs": {k: _json_safe(v) for k, v in self.attrs.items()},
            "children": [c.to_dict() for c in self.children],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(
            name=d["name"],
            attrs=dict(d.get("attrs", {})),
            start_s=float(d.get("start_s", 0.0)),
            wall_s=float(d.get("wall_s", 0.0)),
            cpu_s=float(d.get("cpu_s", 0.0)),
            status=d.get("status", "ok"),
            children=[cls.from_dict(c) for c in d.get("children", ())],
        )


class _OpenSpan:
    """Context manager recording one span on a trace.

    The span is attached to the tree on *enter* (under the trace's
    current innermost open span), so an exception inside the block still
    leaves the span recorded — with an ``error:<Name>`` status.
    """

    __slots__ = ("_trace", "_span", "_t0", "_c0")

    def __init__(self, trace: "Trace", name: str, attrs: dict[str, Any]):
        self._trace = trace
        self._span = Span(name, attrs)

    def __enter__(self) -> Span:
        tr = self._trace
        sp = self._span
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        sp.start_s = self._t0 - tr.epoch
        (tr._stack[-1].children if tr._stack else tr.roots).append(sp)
        tr._stack.append(sp)
        return sp

    def __exit__(self, exc_type, exc, tb) -> bool:
        sp = self._span
        sp.wall_s = time.perf_counter() - self._t0
        sp.cpu_s = time.process_time() - self._c0
        if exc_type is not None:
            sp.status = f"error:{exc_type.__name__}"
        stack = self._trace._stack
        if stack and stack[-1] is sp:
            stack.pop()
        return False


class _NullSpan:
    """Shared do-nothing span handed out when tracing is disabled."""

    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False


#: The singleton returned by :func:`span` when no trace is active.
NULL_SPAN = _NullSpan()


class Trace:
    """A collection of root spans plus the open-span stack.

    Not thread-safe by design: each sweep worker process (and each CLI
    invocation) builds its own trace; cross-process assembly goes
    through :meth:`Span.to_dict` payloads.
    """

    def __init__(self, name: str = "trace"):
        self.name = name
        self.roots: list[Span] = []
        self._stack: list[Span] = []
        self.epoch = time.perf_counter()

    def span(self, name: str, **attrs: Any) -> _OpenSpan:
        """Open a span; use as ``with trace.span("ilp.probe", T=T) as sp:``."""
        return _OpenSpan(self, name, attrs)

    def add_root(self, span: Span) -> None:
        """Graft an externally-built span tree (e.g. from a worker)."""
        self.roots.append(span)

    def walk(self) -> Iterator[Span]:
        for root in self.roots:
            yield from root.walk()

    def find(self, name: str) -> list[Span]:
        """All spans with the given name, in pre-order."""
        return [s for s in self.walk() if s.name == name]

    def __len__(self) -> int:
        return sum(1 for _ in self.walk())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Trace({self.name!r}, {len(self)} spans)"


_current: ContextVar[Trace | None] = ContextVar("repro_obs_trace", default=None)


def active_trace() -> Trace | None:
    """The context-local trace, or ``None`` when tracing is disabled.

    Hot kernels use this to skip their whole instrumentation block with
    a single context-variable read.
    """
    return _current.get()


def span(name: str, **attrs: Any):
    """Open a span on the context trace; no-op when tracing is disabled."""
    tr = _current.get()
    if tr is None:
        return NULL_SPAN
    return tr.span(name, **attrs)


@contextmanager
def use_trace(trace: Trace):
    """Install ``trace`` as the context-local trace for the block."""
    token = _current.set(trace)
    try:
        yield trace
    finally:
        _current.reset(token)
