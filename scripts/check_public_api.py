#!/usr/bin/env python
"""CI guard for the public API surface.

Checks, in order:

1. ``import repro`` succeeds and every name in ``repro.__all__`` (and
   ``repro.api.__all__``) resolves;
2. no ``DeprecationWarning`` escapes the internal modules: planning an
   instance through :func:`repro.api.plan` with warnings promoted to
   errors must not raise;
3. the facade works end to end on a toy instance;
4. the certification surface is pinned: ``repro.api.certify`` is
   callable, every ``plan()`` result carries an ``ok`` certificate,
   and two same-seed robustness reports are identical;
5. the serving surface is pinned: ``repro.api.serve`` constructs a
   ``PlanService``, a served plan round-trips through
   ``PlanResult.to_json()``/``from_json()`` and matches a direct
   ``api.plan`` call bit for bit;
6. the resilience surface is pinned: the typed overload errors are
   exported, ``ResilienceConfig()`` defaults disable every mechanism,
   ``serve()`` accepts the resilience knobs, and a degraded reply is
   an explicit ``status="degraded"`` with a real certificate;
7. names removed in 4.0.0 stay removed: ``repro.algorithms.hybrid``
   does not import and ``repro`` has no ``hybrid`` attribute;
8. names removed in 5.0.0 stay removed: ``repro.serve`` has no
   ``CachedPlan`` (nor ``repro.serve.store`` its ``decode_plan``),
   ``ServeReply`` no ``payload`` field, ``PlanStore``
   no ``get_cached``/``get_plan``/``put_plan`` and ``PlanCache`` no
   ``flush_every`` parameter.

Exit code 0 on success; any failure raises and exits non-zero.

Usage::

    PYTHONPATH=src python scripts/check_public_api.py
"""

from __future__ import annotations

import sys
import warnings

# third-party deps emit their own deprecation chatter during first
# import; get them loaded before promoting DeprecationWarning to error
# (phase 2 imports SciPy's optimizer lazily, possibly inside a check)
import numpy  # noqa: F401
import scipy.optimize  # noqa: F401


def main() -> int:
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        import repro
        from repro import api, obs  # noqa: F401

    # 1. every public name resolves
    for name in repro.__all__:
        assert getattr(repro, name) is not None, f"repro.{name} is None"
    for name in api.__all__:
        assert getattr(api, name) is not None, f"repro.api.{name} is None"
    print(f"resolved {len(repro.__all__)} top-level + {len(api.__all__)} api names")

    # the sweep warm-start knob is part of the stable surface: a
    # keyword-only parameter defaulting to True (CLI: --no-warm-start)
    import inspect

    sig = inspect.signature(api.sweep)
    ws = sig.parameters.get("warm_start")
    assert ws is not None, "api.sweep() lost its warm_start parameter"
    assert ws.default is True, f"api.sweep(warm_start=...) default changed: {ws.default!r}"
    assert ws.kind is inspect.Parameter.KEYWORD_ONLY, "warm_start must be keyword-only"
    print("api.sweep(warm_start=True) surface pinned")

    # the schedule-family surface: plan() takes a keyword-only
    # schedule_family defaulting to "1f1b", both families are registered,
    # and the op-kind registry is re-exported with its stable entries
    sf = inspect.signature(api.plan).parameters.get("schedule_family")
    assert sf is not None, "api.plan() lost its schedule_family parameter"
    assert sf.default == "1f1b", f"schedule_family default changed: {sf.default!r}"
    assert sf.kind is inspect.Parameter.KEYWORD_ONLY, "schedule_family must be keyword-only"
    assert api.SCHEDULE_FAMILIES == ("1f1b", "zero_bubble"), (
        f"SCHEDULE_FAMILIES changed: {api.SCHEDULE_FAMILIES!r}"
    )
    for kind in (api.F, api.B, api.W, api.CF, api.CB):
        meta = api.OP_KINDS[kind]
        assert meta.name == kind and meta.category in ("compute", "comm")
        assert api.is_compute(kind) != api.is_comm(kind)
    d_b, d_w = api.split_backward(2.0, fraction=0.5)
    assert d_b == 1.0 and d_w == 1.0, "split_backward(2.0) must halve"
    assert api.PLAN_SCHEMA_VERSION == 2, "plan schema version pin"
    print("api.plan(schedule_family=...) + op-kind registry surface pinned")

    # 2. planning through the facade emits no DeprecationWarning
    chain = repro.uniform_chain(6)
    platform = repro.Platform.of(2, 8.0, 12.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        result = api.plan(chain, platform, iterations=2,
                          grid=repro.Discretization.coarse(), trace=True)
    assert result.feasible, "toy plan came back infeasible"
    assert result.trace is not None and len(result.trace) > 0
    assert result.metrics.get("madpipe.runs") == 1
    print(f"plan ok: period={result.period:.4f}, {len(result.trace)} spans")
    # snapshot before certify() below refreshes the certificate in place
    plan_json = result.to_json()

    # 4. the certification surface: api.certify is callable, plan results
    # carry an ok certificate, same-seed robustness reports are identical
    assert callable(api.certify), "repro.api.certify is not callable"
    cert = result.certificate
    assert cert is not None and cert.ok, "plan() result lacks an ok certificate"
    assert cert.mode in ("verified", "fallback")
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        c1 = api.certify(chain, platform, result, samples=8, seed=3)
        c2 = api.certify(chain, platform, result, samples=8, seed=3)
    assert c1.ok and c1.robustness is not None
    assert c1.to_dict() == c2.to_dict(), "same-seed certify reports differ"
    assert result.certificate is c2, "certify() must refresh PlanResult"
    print(
        f"certify ok: worst period inflation "
        f"{c1.robustness.worst_period_inflation:.4f}, deterministic"
    )

    # 5. the serving surface: api.serve() builds a PlanService whose
    # replies are bit-identical to direct api.plan, and the PlanResult
    # JSON wire format round-trips
    import asyncio

    assert callable(api.serve), "repro.api.serve is not callable"
    assert api.PlanService is not None, "repro.api.PlanService missing"
    reloaded = api.PlanResult.from_json(plan_json)
    assert reloaded.to_json() == plan_json, "PlanResult JSON round-trip"

    async def _served():
        async with api.serve(max_workers=0) as service:
            return await service.submit(
                chain, platform, iterations=2, grid=repro.Discretization.coarse()
            )

    served = asyncio.run(_served())
    assert served.to_json() == plan_json, (
        "served plan differs from direct api.plan"
    )
    print("serve ok: served plan bit-identical to api.plan, JSON round-trips")

    # 6. the resilience surface: typed errors exported, the default
    # config disables every mechanism (PR 7 behaviour preserved), and a
    # degraded answer is explicit and certified
    for name in ("OverloadedError", "CircuitOpenError",
                 "DeadlineExceededError", "PoolExhaustedError",
                 "ResilienceConfig"):
        assert name in api.__all__, f"api.__all__ lost {name}"
    for exc in (api.OverloadedError, api.CircuitOpenError,
                api.DeadlineExceededError, api.PoolExhaustedError):
        assert issubclass(exc, RuntimeError), f"{exc.__name__} not a RuntimeError"
    assert api.OverloadedError("x", retry_after_s=2.0).retry_after_s == 2.0
    default_cfg = api.ResilienceConfig()
    assert not default_cfg.admission_enabled and not default_cfg.breaker_enabled
    assert not default_cfg.degraded_fallback
    for knob in ("resilience", "seed", "backoff_cap_s", "max_pool_restarts"):
        assert knob in inspect.signature(api.serve).parameters, (
            f"api.serve() lost its {knob} parameter"
        )

    async def _degraded():
        from repro.testing import Fault, faults
        import tempfile

        with tempfile.TemporaryDirectory() as tmp:
            faults.install(
                [Fault(site="serve_solve", action="raise", times=-1)], tmp
            )
            try:
                async with api.serve(
                    max_workers=0, max_retries=0,
                    resilience=api.ResilienceConfig(degraded_fallback=True),
                ) as service:
                    return await service.handle(service.request(
                        chain, platform, iterations=2,
                        grid=repro.Discretization.coarse(),
                    ))
            finally:
                faults.clear()

    degraded = asyncio.run(_degraded())
    assert degraded.served_from == "degraded" and degraded.degraded
    assert degraded.result.status == "degraded"
    assert degraded.result.certificate is not None
    assert degraded.result.certificate.ok, "degraded reply lacks ok certificate"
    print("resilience ok: typed errors, inert defaults, certified degraded reply")

    # 7. the hybrid data+pipeline planner was removed in 4.0.0
    import importlib

    try:
        importlib.import_module("repro.algorithms.hybrid")
    except ModuleNotFoundError:
        pass
    else:
        raise AssertionError("repro.algorithms.hybrid still imports")
    assert not hasattr(repro, "hybrid"), "repro.hybrid still exists"
    print("removed in 4.0.0: repro.algorithms.hybrid, repro.hybrid")

    # 8. the plan cache holds each plan once, decoded: the payload copy
    # and its accessors were removed in 5.0.0
    import dataclasses

    import repro.serve as serve

    assert not hasattr(serve, "CachedPlan"), "repro.serve.CachedPlan still exists"
    assert not hasattr(serve.store, "decode_plan"), "serve.store.decode_plan still exists"
    reply_fields = {f.name for f in dataclasses.fields(serve.ServeReply)}
    assert "payload" not in reply_fields, "ServeReply.payload still exists"
    for name in ("get_cached", "get_plan", "put_plan"):
        assert not hasattr(serve.PlanStore, name), f"PlanStore.{name} still exists"
    assert "flush_every" not in inspect.signature(serve.PlanCache).parameters, (
        "PlanCache(flush_every=) still exists"
    )
    print("removed in 5.0.0: CachedPlan, ServeReply.payload, "
          "PlanStore.get_cached/get_plan/put_plan, PlanCache(flush_every=)")

    print("public API check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
