"""Deterministic fault injection for resilience testing.

The sweep runtime must survive worker crashes, solver time-limit hits and
torn cache writes; this module lets tests *cause* those failures at exact,
reproducible points instead of hoping for races.  A test declares faults
with :func:`install`, which serializes them into the ``REPRO_FAULTS``
environment variable — worker processes forked by the harness inherit the
plan automatically — and counts matching calls in a shared state
directory, so "fire on the 3rd matching call" stays deterministic across
process boundaries.

Production code calls :func:`fire` at named *sites*.  With no plan
installed that is one dict lookup; nothing else in the package behaves
differently.

Wired sites:

=================  =========================================  ===================
site               where                                      actions
=================  =========================================  ===================
``worker``         sweep worker entry, keyed by instance      raise, exit, sleep
``sweep_record``   after each grid result is recorded,        raise, exit
                   keyed by the running record count
``milp_solve``     before each HiGHS MILP probe               timeout
``cache_flush``    after each :class:`ResultCache` write,     truncate
                   keyed by the cache path
``sim_verify``     before each discrete-event verification    fail
                   in the certification gate, keyed by the
                   pattern's source label
``certify``        entry of :func:`repro.api.certify`,        fail
                   keyed by the plan's source label
``serve_solve``    plan service, before a cache-missed        raise, exit, sleep
                   request is dispatched to the worker
                   pool, keyed
                   ``algorithm:family:fingerprint`` so a
                   chaos schedule can storm one
                   (algorithm, schedule_family) breaker
                   key without knowing fingerprints
``serve_worker``   inside a plan-service worker (within       raise, exit, sleep
                   the solve deadline, so ``sleep``
                   models a hung solve), keyed by the
                   request fingerprint
``ingest_file``    trace ingestion, once per trace file,      raise, exit, sleep
                   keyed by the file path
``ingest_record``  trace ingestion, per decoded record,       fail
                   keyed by ``file:run:layer`` — ``fail``
                   forces the record into the quarantine
                   sidecar as if it had been corrupt
=================  =========================================  ===================

Actions ``raise`` (raise :class:`FaultInjected`), ``exit``
(``os._exit`` — a hard kill that skips all cleanup, like SIGKILL) and
``sleep`` (``time.sleep(param)`` seconds) are executed by :func:`fire`
itself.  ``timeout``, ``truncate`` and ``fail`` are returned to the call
site, which knows how to simulate a solver budget hit, tear its own
file, or report a failed certification (exercising the quarantine /
fallback path without needing a genuinely invalid pattern).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict, dataclass
from pathlib import Path

__all__ = ["Fault", "FaultInjected", "active", "clear", "fire", "install"]

ENV_VAR = "REPRO_FAULTS"

_ACTIONS = ("raise", "exit", "sleep", "timeout", "truncate", "fail")


class FaultInjected(RuntimeError):
    """Raised by a ``raise``-action fault (stands in for a worker crash)."""


@dataclass(frozen=True)
class Fault:
    """One injection rule.

    ``site`` names the call site; ``key`` is a substring that must occur
    in the site's call key (empty matches every call).  The rule skips
    the first ``after`` matching calls, then fires on the next ``times``
    of them (``times=-1`` fires forever).  ``param`` is the action
    argument: seconds for ``sleep``, bytes for ``truncate``, the exit
    code for ``exit``.
    """

    site: str
    action: str
    key: str = ""
    times: int = 1
    after: int = 0
    param: float = 0.0

    def __post_init__(self) -> None:
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown fault action {self.action!r}; choose from {_ACTIONS}")
        if self.times < -1 or self.times == 0:
            raise ValueError("times must be a positive count or -1 (unlimited)")
        if self.after < 0:
            raise ValueError("after must be >= 0")


# (raw env value, parsed faults, state dir) of the last parse, per process.
_parsed: tuple[str, list[Fault], Path] | None = None


def install(faults: list[Fault] | tuple[Fault, ...], state_dir: str | Path) -> None:
    """Activate ``faults`` for this process and every child it spawns.

    ``state_dir`` must be a writable directory (typically a pytest
    ``tmp_path``); it holds one counter file per fault so that call
    counts are shared between the installing process and forked workers.
    """
    state = Path(state_dir)
    state.mkdir(parents=True, exist_ok=True)
    payload = {"state": str(state), "faults": [asdict(f) for f in faults]}
    os.environ[ENV_VAR] = json.dumps(payload)


def clear() -> None:
    """Deactivate fault injection in this process (and future children)."""
    os.environ.pop(ENV_VAR, None)


def active() -> bool:
    """True when a fault plan is installed."""
    return bool(os.environ.get(ENV_VAR))


def _plan() -> tuple[list[Fault], Path] | None:
    global _parsed
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    if _parsed is None or _parsed[0] != raw:
        payload = json.loads(raw)
        faults = [Fault(**f) for f in payload["faults"]]
        _parsed = (raw, faults, Path(payload["state"]))
    return _parsed[1], _parsed[2]


def _bump(state: Path, index: int) -> int:
    """Count one matching call for fault ``index``; returns the new total.

    Appends a single byte under ``O_APPEND``, which places each write at
    the end atomically, so concurrent processes never lose counts; the
    descriptor's own offset after the write *is* the call sequence
    number (the file size may already include another process's byte).
    """
    fd = os.open(state / f"fault{index}.cnt", os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        os.write(fd, b"x")
        return os.lseek(fd, 0, os.SEEK_CUR)
    finally:
        os.close(fd)


def fire(site: str, key: str = "") -> Fault | None:
    """Evaluate the installed plan at one call site.

    Executes ``raise``/``exit``/``sleep`` faults in place.  Returns the
    matching :class:`Fault` for actions the call site must enact itself
    (``timeout``, ``truncate``, ``fail``), else ``None``.
    """
    plan = _plan()
    if plan is None:
        return None
    faults, state = plan
    for index, fault in enumerate(faults):
        if fault.site != site or (fault.key and fault.key not in key):
            continue
        seq = _bump(state, index)
        if seq <= fault.after or (fault.times != -1 and seq > fault.after + fault.times):
            continue
        if fault.action == "raise":
            raise FaultInjected(f"injected fault at {site}[{key}] (call #{seq})")
        if fault.action == "exit":
            os._exit(int(fault.param) or 86)
        if fault.action == "sleep":
            time.sleep(fault.param)
            return None
        return fault  # "timeout" / "truncate" / "fail": enacted by the call site
    return None
