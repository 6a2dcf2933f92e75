"""Cross-instance warm starts for the solver stack.

A sweep solves many *neighboring* instances: the same chain at many
memory capacities, bandwidths and processor counts.  The MadPipe DP
(phase 1) builds candidate tables on every binary-search probe, and part
of them depends only on (chain, P, β, grid) — not on the probe target,
the period cap or the memory capacity.  This module holds the one table
that lets solves share that part:

* ``dp_rows`` — the MadPipe DP workspace: the per-cut constants both
  kernels read (:func:`repro.algorithms.madpipe_dp._cuts`) and the
  special-processor kernel's ``it`` tables over every cut
  (:meth:`repro.algorithms.madpipe_dp._LevelDP._loads`), keyed by
  (chain, P, β, grid) and shared across probes, searches and instances.

The reuse is exact (deterministic intermediates looked up by exact key),
so **warm starts never change results**: warm and cold probes run the
same DP code, and a warm one only finds more of its tables already built.
Every other layer — the contiguous period search, the MILP skeleton and
every MILP probe — runs the same code warm or cold.

Activation is explicit and context-local: the sweep harness wraps each
instance in :func:`activate` when ``run_grid(..., warm_start=True)``;
everything else (direct :func:`repro.algorithms.madpipe.madpipe` calls,
``warm_start=False`` sweeps) runs cold.  The context is a per-process
singleton, so serial sweeps share one database across instances and
pooled sweeps share one per worker process.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator, Mapping

import numpy as np

__all__ = [
    "LRU",
    "WarmContext",
    "activate",
    "active_warm",
    "canonical_value",
    "chain_fingerprint",
    "platform_fingerprint",
    "process_context",
    "request_fingerprint",
    "reset_process_context",
]

#: DP workspaces hold ``n_t × l`` tables per level (megabytes at the
#: paper grid); keep those of the most recent (chain, P, β, grid) keys.
_DP_ROWS_CAP = 16


def chain_fingerprint(chain) -> tuple:
    """A value-based identity for a chain, stable across processes.

    Sweep workers rebuild chains from network names, so object identity
    cannot key a cross-instance cache; the fingerprint hashes the cached
    prefix arrays every solver layer actually reads.
    """
    fp = getattr(chain, "_warm_fingerprint", None)
    if fp is not None:
        return fp
    h = hashlib.sha1()
    for arr in (chain._cum_u, chain._cum_w, chain._cum_a_in, chain._act):
        h.update(np.ascontiguousarray(arr).tobytes())
    fp = (chain.name, chain.L, h.hexdigest())
    try:
        object.__setattr__(chain, "_warm_fingerprint", fp)
    except (AttributeError, TypeError):
        pass  # frozen/slotted chains: recompute per call
    return fp


def platform_fingerprint(platform) -> tuple:
    """Value-based identity for a platform (exact raw bytes/s values)."""
    return canonical_value(
        (platform.n_procs, platform.memory, platform.bandwidth)
    )


def canonical_value(value):
    """Canonical, hashable form of a request value.

    Two structurally-equivalent values — regardless of dict key order,
    tuple-vs-list spelling or int-vs-float numeric type (``4`` vs
    ``4.0``) — map to the same canonical form; any value difference maps
    to a distinct one.  Numbers are compared as floats and rendered via
    ``float.hex`` so the canonical form is exact (no decimal rounding).
    Dataclasses (e.g. :class:`~repro.algorithms.madpipe_dp.Discretization`)
    canonicalize as their type name plus field mapping.  Used by the
    plan-server request fingerprints (:mod:`repro.serve`) and shared
    with the warm-start keys here.
    """
    if value is None or isinstance(value, str):
        return value
    if isinstance(value, bool):  # before int: True must not equal 1.0
        return ("bool", value)
    if isinstance(value, (int, float, np.integer, np.floating)):
        return ("num", float(value).hex())
    if isinstance(value, bytes):
        return ("bytes", value)
    if isinstance(value, Mapping):
        return ("map",) + tuple(
            sorted((str(k), canonical_value(v)) for k, v in value.items())
        )
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return (
            "obj",
            type(value).__name__,
            canonical_value(
                {f.name: getattr(value, f.name) for f in dataclasses.fields(value)}
            ),
        )
    if isinstance(value, (list, tuple)):
        return ("seq",) + tuple(canonical_value(v) for v in value)
    if isinstance(value, (set, frozenset)):
        return ("set",) + tuple(sorted(map(repr, map(canonical_value, value))))
    if isinstance(value, np.ndarray):
        return (
            "arr",
            value.shape,
            str(value.dtype),
            np.ascontiguousarray(value).tobytes(),
        )
    if hasattr(value, "to_dict"):  # Chain and friends
        return ("obj", type(value).__name__, canonical_value(value.to_dict()))
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for fingerprinting"
    )


def request_fingerprint(chain, platform, algorithm: str, opts: Mapping) -> str:
    """Canonical fingerprint of one planning request.

    A deterministic hex digest of (chain values, platform values,
    algorithm, options), independent of option key order and of
    int-vs-float numeric spelling.  Two requests with the same
    fingerprint produce bit-identical :func:`repro.api.plan` results
    (the chain fingerprint includes the chain *name* because certificate
    source labels embed it).  This is the key of the plan-server cache
    (:mod:`repro.serve`).
    """
    payload = (
        "plan/v1",
        chain_fingerprint(chain),
        platform_fingerprint(platform),
        str(algorithm),
        canonical_value(dict(opts)),
    )
    return hashlib.sha256(repr(payload).encode()).hexdigest()


class LRU(OrderedDict):
    """Tiny move-to-front dict with a capacity bound."""

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap

    def hit(self, key):
        if key not in self:
            return None
        self.move_to_end(key)
        return self[key]

    def put(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.cap:
            self.popitem(last=False)


class WarmContext:
    """The per-process warm-start database: the DP rows workspace.

    The context is only ever touched from code running under
    :func:`activate`, one instance at a time per process, so no locking
    is needed.
    """

    def __init__(self) -> None:
        self.dp_rows = LRU(_DP_ROWS_CAP)

    def dp_workspace(self, key: tuple) -> dict:
        """The shared DP workspace for one (chain, P, β, grid)."""
        ws = self.dp_rows.hit(key)
        if ws is None:
            ws = {}
            self.dp_rows.put(key, ws)
        return ws


_active: ContextVar[WarmContext | None] = ContextVar(
    "repro_warm_context", default=None
)
_process_ctx: WarmContext | None = None


def active_warm() -> WarmContext | None:
    """The context-local warm-start database, or ``None`` (cold)."""
    return _active.get()


def process_context() -> WarmContext:
    """The lazily-created per-process singleton database."""
    global _process_ctx
    if _process_ctx is None:
        _process_ctx = WarmContext()
    return _process_ctx


def reset_process_context() -> None:
    """Drop the process singleton (tests and benchmarks)."""
    global _process_ctx
    _process_ctx = None


@contextmanager
def activate(enabled: bool = True) -> Iterator[WarmContext | None]:
    """Install the process database for the block (``enabled=True``) or
    force the block cold (``enabled=False`` masks any outer context, so
    a ``warm_start=False`` sweep stays cold even after warm ones ran in
    the same process)."""
    ctx = process_context() if enabled else None
    token = _active.set(ctx)
    try:
        yield ctx
    finally:
        _active.reset(token)
