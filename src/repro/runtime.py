"""The one execution core behind the sweep and the service.

:func:`repro.experiments.run_grid` and :class:`repro.serve.PlanService`
solve through one :class:`Supervisor`: it owns the worker pool, runs
each solve as a bounded series of attempts through :func:`run_attempt`
(under a :func:`deadline`), spaces retries with :func:`backoff_delay`
from the caller's seeded RNG, falls back to in-process solving when no
pool can be created, and applies one worker-death rule, so a dying
worker costs the same attempts in both.  What an attempt solves is the
caller's: both hand it a call into :mod:`repro.api`'s planner (the
service :func:`repro.api.plan`, the sweep its core), so the supervisor
never sees an algorithm or its options — invalid ones were rejected
before the first attempt.
"""

from __future__ import annotations

import asyncio
import contextvars
import os
import signal
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager, nullcontext
from typing import Any, Awaitable, Callable

from . import obs, warmstart
from .testing import faults

__all__ = [
    "BACKOFF_CAP_S",
    "DeadlineExceededError",
    "InstanceTimeoutError",
    "PoolExhaustedError",
    "Supervisor",
    "backoff_delay",
    "deadline",
    "run_attempt",
    "run_to_completion",
]

#: Upper bound on one retry backoff before jitter (seconds).
BACKOFF_CAP_S = 30.0


class InstanceTimeoutError(RuntimeError):
    """A worker blew its per-instance deadline (``instance_timeout``)."""


class DeadlineExceededError(RuntimeError):
    """A solve's deadline budget ran out before its next attempt could
    start."""


class PoolExhaustedError(RuntimeError):
    """The worker pool died too many consecutive times; rebuilding was
    capped (``max_pool_restarts``) instead of storming forever."""


@contextmanager
def deadline(seconds: float | None, spec: tuple):
    """Enforce a wall-clock deadline inside the current (worker) process.

    On the POSIX main thread this uses ``SIGALRM``, so it interrupts even
    a HiGHS solve stuck inside C code between Python byte codes.  Off the
    main thread (an in-thread :class:`Supervisor`, or a sweep called
    from a coroutine) a watchdog thread arms instead and
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


class Supervisor:
    """One worker pool, one attempt loop and one worker-death rule.

    With ``workers >= 1`` attempts run in a process pool, created on
    first use.  With ``workers == 0``, or once no pool can be created,
    they run in this process: on the loop's default thread pool if
    ``in_thread``, else on the calling thread, where a ``SIGALRM``
    :func:`deadline` can cut a stuck HiGHS call short.

    :meth:`run` makes up to ``max_retries + 1`` attempts, each bounded
    by ``timeout`` clipped to the solve's deadline on ``clock``; retry
    ``k`` first sleeps :func:`backoff_delay` drawn from the caller's
    seeded ``rng``.  The worker-death rule: a ``BrokenProcessPool``
    charges one attempt to every solve in flight on the dead pool; only
    the attempt whose pool is still current rebuilds it and counts the
    death; more than ``max_pool_restarts`` consecutive deaths end the
    solve that counted the last one with :class:`PoolExhaustedError`.
    ``count(name)`` receives ``retries``, ``pool_restarts`` and
    ``pool_exhausted``; ``active``/``peak`` are the attempts in flight
    now and at most.
    """

    def __init__(self, workers: int, *, in_thread: bool, timeout: float | None,
                 max_retries: int, backoff_s: float, rng, max_pool_restarts: int,
                 count: Callable[[str], None], backoff_cap_s: float = BACKOFF_CAP_S,
                 clock: Callable[[], float] = time.monotonic):
        for name, value in (("max_workers", workers), ("max_retries", max_retries),
                            ("max_pool_restarts", max_pool_restarts)):
            if value < 0:
                raise ValueError(f"{name} must be >= 0")
        if backoff_cap_s <= 0:
            raise ValueError("backoff_cap_s must be > 0")
        self.workers = workers
        self.in_thread = in_thread
        self.timeout = timeout
        self.max_retries = max_retries
        self.max_pool_restarts = max_pool_restarts
        self._backoff = (backoff_s, rng, backoff_cap_s)
        self._count = count
        self._clock = clock
        self._pool: ProcessPoolExecutor | None = None
        self._deaths = 0  # consecutive pool deaths
        self.active = self.peak = 0

    async def run(self, call_for: Callable[[float | None], Callable[[], Any]], *,
                  deadline_at: float | None = None, label: str = "solve") -> Any:
        """The first successful attempt's result, or the last error.
        ``call_for(timeout)`` returns one attempt's zero-argument call,
        picklable for the pool; ``label`` names the solve in errors."""
        last: BaseException | None = None
        for attempt in range(self.max_retries + 1):
            if attempt:
                self._count("retries")
                await asyncio.sleep(backoff_delay(attempt, *self._backoff))
            timeout = self.timeout
            if deadline_at is not None:
                remaining = deadline_at - self._clock()
                if remaining <= 0:
                    last = DeadlineExceededError(
                        f"deadline budget exhausted after {attempt} attempt(s) ({label})"
                    )
                    break
                timeout = remaining if timeout is None else min(timeout, remaining)
            call = call_for(timeout)
            if self._pool is None and self.workers > 0:
                try:
                    self._pool = ProcessPoolExecutor(max_workers=self.workers)
                except (OSError, NotImplementedError):  # no pool here: solve in-process
                    self.workers = 0
            pool = self._pool
            self.active += 1
            self.peak = max(self.peak, self.active)
            try:
                if pool is None and not self.in_thread:
                    result = call()
                else:
                    result = await asyncio.get_running_loop().run_in_executor(pool, call)
            except BrokenProcessPool as exc:
                last = exc
                if pool is not self._pool:
                    continue  # another attempt already counted this death
                self._count("pool_restarts")
                self._deaths += 1
                self.close()
                if self._deaths > self.max_pool_restarts:
                    self._count("pool_exhausted")
                    last = PoolExhaustedError(
                        f"worker pool died {self._deaths} consecutive "
                        f"times (max_pool_restarts={self.max_pool_restarts})"
                    )
                    break
            except Exception as exc:
                last = exc
            else:
                self._deaths = 0
                return result
            finally:
                self.active -= 1
        raise last

    def close(self, wait: bool = False) -> None:
        """Shut the pool down, cancelling queued attempts; ``wait``
        joins the workers once their running attempts finish."""
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=True)
            self._pool = None


def run_to_completion(main: Awaitable) -> Any:
    """Run the coroutine ``main`` on a new event loop on this thread, so
    a ``SIGALRM`` :func:`deadline` can still fire, and cancel the tasks
    it leaves behind.  Called from a coroutine, it blocks that loop and
    runs ``main`` on a helper thread, in the caller's context."""
    try:
        asyncio.get_running_loop()
    except RuntimeError:  # no loop runs here: the common case
        loop = asyncio.new_event_loop()
    else:
        with ThreadPoolExecutor(max_workers=1) as helper:  # in the caller's context
            return helper.submit(contextvars.copy_context().run, run_to_completion, main).result()
    task = loop.create_task(main)
    try:
        return loop.run_until_complete(task)
    finally:  # cancel what is left; retrieve every outcome, the main one included
        left = asyncio.all_tasks(loop)
        for pending in left:
            pending.cancel()
        try:
            loop.run_until_complete(asyncio.gather(task, *left, return_exceptions=True))
        finally:  # an interrupt raised inside a task surfaces here once more
            if task.done() and not task.cancelled():
                task.exception()
            loop.close()
