"""The one execution core behind the sweep and the plan service.

:func:`repro.experiments.run_grid` and :class:`repro.serve.PlanService`
run every solve attempt through :func:`run_attempt` (under a
:func:`deadline`) and space retries with :func:`backoff_delay`.  The
retry loops stay with their callers: the sweep retries in synchronous
rounds over a batch, the service per request on the event loop.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
from contextlib import contextmanager, nullcontext
from typing import Any, Callable

from . import obs, warmstart
from .testing import faults

__all__ = [
    "BACKOFF_CAP_S",
    "InstanceTimeoutError",
    "backoff_delay",
    "deadline",
    "run_attempt",
]

#: Upper bound on one retry backoff before jitter (seconds).
BACKOFF_CAP_S = 30.0


class InstanceTimeoutError(RuntimeError):
    """A worker blew its per-instance deadline (``instance_timeout``)."""


@contextmanager
def deadline(seconds: float | None, spec: tuple):
    """Enforce a wall-clock deadline inside the current (worker) process.

    On the POSIX main thread this uses ``SIGALRM``, so it interrupts even
    a HiGHS solve stuck inside C code between Python byte codes.  Off the
    main thread (the plan service's ``max_workers=0`` inline mode solves
    on the event loop's thread pool) a watchdog thread arms instead and
    delivers :class:`InstanceTimeoutError` asynchronously — that fires
    only between byte codes, so it cannot cut short a wedged C call, but
    it bounds every pure-Python solve instead of silently doing nothing.
    """
    if not seconds or seconds <= 0:
        yield
        return
    if os.name == "posix" and threading.current_thread() is threading.main_thread():

        def _alarm(signum, frame):
            raise InstanceTimeoutError(
                f"instance {spec!r} exceeded its {seconds:g}s deadline"
            )

        old_handler = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old_handler)
        return

    with _thread_deadline(seconds, spec):
        yield


@contextmanager
def _thread_deadline(seconds: float, spec: tuple):
    """Wall-clock deadline for non-main-thread callers.

    A watchdog thread waits ``seconds``; if the protected block is still
    running it schedules :class:`InstanceTimeoutError` in the target
    thread via ``PyThreadState_SetAsyncExc`` (the same mechanism behind
    ``KeyboardInterrupt`` delivery).  The exit path runs under a lock so
    the watchdog can never fire into code *after* the block; a pending
    async exception that did not surface in time is cancelled.
    """
    import ctypes

    tid = threading.get_ident()
    cancel = threading.Event()
    lock = threading.Lock()
    fired = False

    def _watchdog() -> None:
        nonlocal fired
        if cancel.wait(seconds):
            return
        with lock:
            if cancel.is_set():
                return
            fired = True
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(tid), ctypes.py_object(InstanceTimeoutError)
            )

    watchdog = threading.Thread(
        target=_watchdog, name="repro-deadline", daemon=True
    )
    watchdog.start()
    try:
        yield
    except InstanceTimeoutError as exc:
        if exc.args:
            raise
        raise InstanceTimeoutError(
            f"instance {spec!r} exceeded its {seconds:g}s deadline"
        ) from None
    finally:
        with lock:
            cancel.set()
            if fired and sys.exc_info()[0] is None:
                # the async exception is scheduled but has not surfaced
                # yet: withdraw it so it cannot detonate downstream
                ctypes.pythonapi.PyThreadState_SetAsyncExc(
                    ctypes.c_ulong(tid), None
                )
        watchdog.join(timeout=1.0)


def backoff_delay(attempt: int, base_s: float, rng, cap_s: float = BACKOFF_CAP_S) -> float:
    """Seconds to wait before retry number ``attempt`` (1-based).

    ``base_s`` doubles per retry up to ``cap_s``, then gains up to 25%
    jitter from one ``rng.random()`` draw.
    """
    return min(base_s * 2 ** (attempt - 1), cap_s) * (1.0 + 0.25 * rng.random())


def run_attempt(
    solve: Callable[[], Any],
    *,
    spec: tuple,
    timeout: float | None = None,
    warm: bool = False,
    site: str | None = None,
    key: str = "",
    spans: bool = False,
) -> tuple[Any, dict, list]:
    """Run ``solve()`` once under the per-attempt setup.

    ``warm`` activates (or, when false, masks) the per-process warm-start
    database; ``timeout`` bounds the attempt (``spec`` names it in the
    timeout message); the fault ``site`` fires with ``key`` inside the
    deadline, so a ``sleep`` fault models a hung solve.  Counters go to a
    fresh registry; with ``spans=True`` the attempt also runs under its
    own trace named ``key``.  Returns ``(result, counts, spans)`` as
    plain data, ready to pickle.
    """
    registry = obs.MetricsRegistry()
    trace = obs.Trace(key) if spans else None
    with warmstart.activate(warm), obs.use_metrics(registry), (
        obs.use_trace(trace) if trace is not None else nullcontext()
    ):
        with deadline(timeout, spec):
            if site is not None:
                faults.fire(site, key=key)
            result = solve()
    roots = [s.to_dict() for s in trace.roots] if trace is not None else []
    return result, registry.snapshot(), roots
