"""The certification gate: discrete-event verification on the emission path.

The analytic checks of :class:`repro.core.pattern.PeriodicPattern` and the
discrete-event simulator of :mod:`repro.sim` have always been redundant
with each other — but the simulator was only exercised by tests, never by
the planners.  :func:`certify_pattern` puts it on the emission path: a
single call that runs :func:`repro.sim.verify_pattern`, converts the
outcome into a :class:`Certificate` (per-GPU OOM margins on success, the
violation report on failure), threads ``certify.*`` counters and a
``certify.verify`` span through :mod:`repro.obs`, and honours the
``sim_verify`` fault-injection site so the quarantine path can be forced
deterministically.

It never raises: callers branch on ``Certificate.ok`` and decide what
graceful degradation means for them (quarantine + 1F1B* fallback in
:func:`repro.algorithms.madpipe.madpipe`, probe rejection in the MILP
search, a withheld pattern with status ``error`` in
:func:`repro.algorithms.pipedream.pipedream`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

from .. import obs
from ..core.chain import Chain
from ..core.pattern import PatternError, PeriodicPattern
from ..core.platform import Platform
from ..core.tolerances import CHECK_RTOL
from ..sim.validator import verify_pattern
from ..testing import faults

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from .perturb import RobustnessReport

__all__ = ["Certificate", "certify_pattern"]


@dataclass
class Certificate:
    """Outcome of certifying one plan.

    ``mode`` records how the certificate was obtained: ``verified`` (the
    plan's own pattern passed the discrete-event gate), ``fallback`` (the
    original pattern was quarantined and this certificate belongs to the
    1F1B* replacement), ``skipped`` (nothing to verify — fill-drain
    schedules like GPipe have no periodic pattern, and infeasible plans
    have no schedule at all; ``ok`` then only states that nothing
    *invalid* was emitted).

    ``oom_margin`` is ``capacity − executed peak`` per GPU, in bytes.
    ``quarantined`` carries the violation report of a rejected pattern
    when graceful degradation replaced it.  ``wall_s`` is measured wall
    time and deliberately excluded from :meth:`to_dict` so serialized
    certificates stay bit-reproducible run to run.
    """

    ok: bool
    mode: str = "verified"
    source: str = ""
    period: float | None = None
    periods_simulated: int = 0
    violations: list[str] = field(default_factory=list)
    peak_memory: dict[int, float] = field(default_factory=dict)
    oom_margin: dict[int, float] = field(default_factory=dict)
    robustness: "RobustnessReport | None" = None
    quarantined: "Certificate | None" = None
    wall_s: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form (deterministic: no timing fields)."""
        out: dict[str, Any] = {
            "ok": self.ok,
            "mode": self.mode,
            "source": self.source,
            "period": self.period,
            "periods_simulated": self.periods_simulated,
            "violations": list(self.violations),
            "peak_memory": {str(p): m for p, m in sorted(self.peak_memory.items())},
            "oom_margin": {str(p): m for p, m in sorted(self.oom_margin.items())},
        }
        if self.robustness is not None:
            out["robustness"] = self.robustness.to_dict()
        if self.quarantined is not None:
            out["quarantined"] = self.quarantined.to_dict()
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "Certificate":
        """Inverse of :meth:`to_dict` (``wall_s`` is not serialized and
        reloads as 0).  Raises ``ValueError`` on malformed input."""
        from .perturb import RobustnessReport

        if not isinstance(data, dict):
            raise ValueError(
                f"certificate must be a JSON object, got {type(data).__name__}"
            )
        try:
            rob = data.get("robustness")
            quar = data.get("quarantined")
            period = data.get("period")
            return cls(
                ok=bool(data["ok"]),
                mode=str(data.get("mode", "verified")),
                source=str(data.get("source", "")),
                period=None if period is None else float(period),
                periods_simulated=int(data.get("periods_simulated", 0)),
                violations=[str(v) for v in data.get("violations", ())],
                peak_memory={
                    int(p): float(m)
                    for p, m in dict(data.get("peak_memory", {})).items()
                },
                oom_margin={
                    int(p): float(m)
                    for p, m in dict(data.get("oom_margin", {})).items()
                },
                robustness=None if rob is None else RobustnessReport.from_dict(rob),
                quarantined=None if quar is None else cls.from_dict(quar),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed certificate: {exc!r}") from exc


def certify_pattern(
    chain: Chain,
    platform: Platform,
    pattern: PeriodicPattern | None,
    *,
    periods: int | None = None,
    tol: float = CHECK_RTOL,
    source: str = "",
) -> Certificate:
    """Run ``pattern`` through the discrete-event verifier.

    Returns a :class:`Certificate` — never raises.  A ``None`` pattern
    yields a ``skipped`` certificate (``ok=True``: there is nothing to
    reject).  Margins are measured against the platform's *full*
    capacity, so plans produced with a ``memory_headroom`` show their
    reserved margin here.
    """
    if pattern is None:
        return Certificate(ok=True, mode="skipped", source=source)
    t0 = time.perf_counter()
    with obs.span("certify.verify", source=source) as sp:
        obs.inc("certify.checks")
        fault = faults.fire("sim_verify", key=source)
        try:
            if fault is not None and fault.action == "fail":
                raise PatternError(
                    f"injected certification failure at sim_verify[{source}]"
                )
            report = verify_pattern(chain, platform, pattern, periods=periods, tol=tol)
        except PatternError as exc:
            obs.inc("certify.failures")
            sp.set(ok=False)
            return Certificate(
                ok=False,
                mode="verified",
                source=source,
                period=pattern.period,
                violations=[str(exc)],
                wall_s=time.perf_counter() - t0,
            )
        sp.set(ok=True, periods=round(report.horizon / pattern.period))
    return Certificate(
        ok=True,
        mode="verified",
        source=source,
        period=pattern.period,
        periods_simulated=round(report.horizon / pattern.period),
        peak_memory=dict(sorted(report.peak_memory.items())),
        oom_margin={
            p: platform.memory - m for p, m in sorted(report.peak_memory.items())
        },
        wall_s=time.perf_counter() - t0,
    )
