"""Per-layer self time, measured from outside the program.

A :class:`Ledger` replaces a layer's entry points with timing wrappers.
Each wrapper pushes a frame on a per-context stack (a ``ContextVar``, so
every thread and every asyncio task has its own), and on return charges
its duration to its parent frame.  A layer's self time is therefore its
duration minus the wrapped calls nested inside it.

Worker processes forked after :meth:`Ledger.install` inherit the
wrappers.  A forked process starts with an empty ledger and rewrites its
totals to ``<spool_dir>/<pid>.json`` whenever its outermost wrapped call
returns, so nothing depends on how the worker exits; :meth:`Ledger.collect`
merges the spools into the parent's totals.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path
from typing import Callable

_INHERITED = object()  # a patched method the class itself did not define


class Ledger:
    """Per-process ``layer -> [calls, self_s, total_s]`` totals.

    ``stitch`` maps a layer to a function of the wrapped call's
    positional arguments returning a key; calls of those layers are
    also logged as ``[layer, key, wall_start, elapsed]`` events so that
    :func:`stitch` can pair calls made on both sides of a process
    boundary.
    """

    def __init__(
        self,
        spool_dir: "str | Path | None" = None,
        stitch: "dict[str, Callable] | None" = None,
    ):
        self.spool_dir = None if spool_dir is None else Path(spool_dir)
        self.stitch = dict(stitch or {})
        self.owner = os.getpid()
        self.records: dict[str, list] = {}
        self.events: list[list] = []
        self._frame: contextvars.ContextVar = contextvars.ContextVar(
            "ledger_frame", default=None
        )
        self._patched: list[tuple[object, str, object]] = []
        os.register_at_fork(after_in_child=self._forked)

    def _forked(self) -> None:
        # the child continues inside the parent's open frames: start over
        self.records = {}
        self.events = []
        self._frame.set(None)

    # -- timing -------------------------------------------------------------

    def wrap(self, layer: str, fn: Callable) -> Callable:
        """``fn`` timed as ``layer`` (coroutine functions stay coroutines)."""
        key_of = self.stitch.get(layer)
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def timed_async(*args, **kwargs):
                frame, token, t0, wall = self._enter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    self._exit(layer, frame, token, t0, wall, key_of, args)

            return timed_async

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame, token, t0, wall = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(layer, frame, token, t0, wall, key_of, args)

        return timed

    def _enter(self):
        frame = [self._frame.get(), 0.0]  # [parent frame, nested seconds]
        token = self._frame.set(frame)
        return frame, token, time.perf_counter(), time.time()

    def _exit(self, layer, frame, token, t0, wall, key_of, args) -> None:
        elapsed = time.perf_counter() - t0
        self._frame.reset(token)
        parent = frame[0]
        if parent is not None:
            parent[1] += elapsed
        rec = self.records.get(layer)
        if rec is None:
            rec = self.records[layer] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed - frame[1]
        rec[2] += elapsed
        if key_of is not None:
            self.events.append([layer, key_of(args), wall, elapsed])
        if parent is None and self.spool_dir is not None and os.getpid() != self.owner:
            self.spool()

    # -- installing -------------------------------------------------------------

    def install(self, layers: "dict[str, list[str]]") -> None:
        """Wrap every entry point of ``layers`` (name -> targets).

        A target is ``module:function`` — replaced in every loaded
        ``repro`` module that binds that function object, so
        ``from x import f`` sites are covered — ``=module:function``
        (replaced in that module only) or ``module:Class.method``.
        Import everything that binds a target before calling this.
        """
        for layer, targets in layers.items():
            for target in targets:
                self._install(layer, target)

    def _install(self, layer: str, target: str) -> None:
        only_here = target.startswith("=")
        module_name, attr = target.lstrip("=").split(":")
        module = importlib.import_module(module_name)
        if "." in attr:
            cls_name, name = attr.split(".")
            cls = getattr(module, cls_name)
            raw = inspect.getattr_static(cls, name)  # may be inherited
            if isinstance(raw, classmethod):
                self._patch(cls, name, classmethod(self.wrap(layer, raw.__func__)))
            else:
                self._patch(cls, name, self.wrap(layer, raw))
            return
        original = getattr(module, attr)
        timed = self.wrap(layer, original)
        sites = [module] if only_here else [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "repro" or name.startswith("repro."))
        ]
        for site in sites:
            for name, value in list(vars(site).items()):
                if value is original:
                    self._patch(site, name, timed)

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patched.append((owner, name, owner.__dict__.get(name, _INHERITED)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        """Put every replaced entry point back."""
        while self._patched:
            owner, name, value = self._patched.pop()
            if value is _INHERITED:
                delattr(owner, name)
            else:
                setattr(owner, name, value)

    # -- spools -------------------------------------------------------------

    def spool(self) -> None:
        """Rewrite this process's totals to its spool file (atomically)."""
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"{os.getpid()}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps({"records": self.records, "events": self.events}))
        os.replace(tmp, path)

    def collect(self) -> tuple[dict[str, list], list[list]]:
        """This process's totals merged with every spooled worker's."""
        records = {layer: list(rec) for layer, rec in self.records.items()}
        events = list(self.events)
        if self.spool_dir is not None and self.spool_dir.is_dir():
            for path in sorted(self.spool_dir.glob("*.json")):
                data = json.loads(path.read_text())
                for layer, rec in data["records"].items():
                    merge_record(records, layer, rec)
                events.extend(data["events"])
        return records, events


def merge_record(records: dict[str, list], layer: str, rec: list) -> None:
    """Add one ``[calls, self_s, total_s]`` record into ``records``."""
    into = records.setdefault(layer, [0, 0.0, 0.0])
    for i, value in enumerate(rec):
        into[i] += value


def stitch(records: dict[str, list], events: list[list], parent: str, child: str) -> float:
    """Charge each ``child`` call to the ``parent`` call that sent it.

    A child call (in another process) belongs to the latest parent call
    with the same key that started before it.  Its duration comes off
    the parent's self time; the returned total is how long children
    waited between being sent and starting.
    """
    sent: dict[object, list[float]] = {}
    for layer, key, wall, _ in events:
        if layer == parent:
            sent.setdefault(key, []).append(wall)
    waited = 0.0
    for layer, key, wall, elapsed in events:
        if layer != child:
            continue
        starts = [s for s in sent.get(key, ()) if s <= wall]
        if starts:
            waited += wall - max(starts)
            if parent in records:
                records[parent][1] -= elapsed
    return waited
