"""Seeded robustness analysis of a certified plan under profile noise.

A plan is a *timing structure*: start times ``t``, shifts ``h`` and a
period ``T``.  Scaling the whole structure uniformly — ``t → s·t``,
``T → s·T`` — preserves every dependency inequality
``(h_v − h_u)·T + t_v − t_u ≥ d_u`` and every circular resource gap
``(t_b − t_a) mod T ≥ d_a`` up to the same factor ``s``, because both
left-hand sides are homogeneous of degree 1 in ``(t, T)`` while the
durations ``d`` are the inhomogeneous part.  So for perturbed durations
``d'`` the *minimal uniform stretch* that restores validity is simply

    s* = max over constraints of d'_u / (nominal LHS of that constraint)

— a closed-form worst-case period inflation, no solver needed.  Memory
is then evaluated on the stretched pattern with the perturbed chain
(batch counts are scale-invariant; activation/weight bytes carry the
sampled noise), giving a per-GPU OOM margin per sample.

Sampling uses common random numbers: one seeded draw matrix is reused
across noise scales, so per-sample outcomes are (near-)monotone in the
scale and the "noise level at which the plan first breaks" can be
bisected deterministically — the same seed always yields the exact same
:class:`RobustnessReport`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .. import obs
from ..core.chain import Chain
from ..core.pattern import Op, PeriodicPattern
from ..core.platform import Platform
from ..core.tolerances import memory_slack
from ..profiling.cost_model import NoiseModel
from ..sim.engine import simulate

__all__ = ["RobustnessReport", "robustness_report"]

INF = float("inf")

#: A sample "breaks" the plan when its required period inflation exceeds
#: this factor (or when any GPU runs out of memory).
DEFAULT_BREAK_INFLATION = 1.05

#: Upper end of the bisection bracket, as a multiple of the noise
#: model's sigmas.
DEFAULT_MAX_NOISE_SCALE = 4.0


@dataclass
class RobustnessReport:
    """Seeded stress-test outcome for one certified plan.

    All fields are deterministic functions of ``(plan, noise, samples,
    seed)`` — no timestamps, no wall times — so the same seed reproduces
    the report bit for bit.

    * ``worst_period_inflation`` / ``mean_period_inflation``: the
      maximal/mean uniform stretch ``s*`` over the nominal-scale samples
      (``inf`` when some sample cannot be fixed by stretching at all);
    * ``oom_margin`` / ``worst_oom_margin``: per-GPU ``capacity − peak``
      in bytes, for the unperturbed profile and the worst sample;
    * ``oom_samples``: how many samples exceed some GPU's capacity even
      after stretching;
    * ``breaking_noise_scale``: smallest multiple of the noise model's
      sigmas at which a sample breaks (period inflation beyond
      ``break_inflation`` or an OOM), bisected over ``[0,
      max_noise_scale]``; ``None`` when the plan survives the whole
      bracket.
    * ``worst_sample_sim_violations``: violations the discrete-event
      simulator reports when *executing* the worst nominal-scale sample
      (stretched timing, perturbed memory) — the re-simulation
      cross-check of the analytic stretch; 0 when the sample is broken
      beyond repair (``inf`` stretch) and skipped.
    """

    seed: int
    samples: int
    noise: dict[str, Any]
    period: float
    break_inflation: float
    max_noise_scale: float
    worst_period_inflation: float = 1.0
    mean_period_inflation: float = 1.0
    oom_margin: dict[int, float] = field(default_factory=dict)
    worst_oom_margin: dict[int, float] = field(default_factory=dict)
    oom_samples: int = 0
    breaking_noise_scale: float | None = None
    worst_sample_sim_violations: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            "seed": self.seed,
            "samples": self.samples,
            "noise": dict(self.noise),
            "period": self.period,
            "break_inflation": self.break_inflation,
            "max_noise_scale": self.max_noise_scale,
            "worst_period_inflation": self.worst_period_inflation,
            "mean_period_inflation": self.mean_period_inflation,
            "oom_margin": {str(p): m for p, m in sorted(self.oom_margin.items())},
            "worst_oom_margin": {
                str(p): m for p, m in sorted(self.worst_oom_margin.items())
            },
            "oom_samples": self.oom_samples,
            "breaking_noise_scale": self.breaking_noise_scale,
            "worst_sample_sim_violations": self.worst_sample_sim_violations,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RobustnessReport":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` when malformed."""
        if not isinstance(data, dict):
            raise ValueError(
                f"robustness report must be a JSON object, got {type(data).__name__}"
            )
        try:
            breaking = data.get("breaking_noise_scale")
            return cls(
                seed=int(data["seed"]),
                samples=int(data["samples"]),
                noise=dict(data["noise"]),
                period=float(data["period"]),
                break_inflation=float(data["break_inflation"]),
                max_noise_scale=float(data["max_noise_scale"]),
                worst_period_inflation=float(data["worst_period_inflation"]),
                mean_period_inflation=float(data["mean_period_inflation"]),
                oom_margin={
                    int(p): float(m) for p, m in dict(data["oom_margin"]).items()
                },
                worst_oom_margin={
                    int(p): float(m)
                    for p, m in dict(data["worst_oom_margin"]).items()
                },
                oom_samples=int(data["oom_samples"]),
                breaking_noise_scale=None if breaking is None else float(breaking),
                worst_sample_sim_violations=int(
                    data["worst_sample_sim_violations"]
                ),
            )
        except (KeyError, TypeError, AttributeError) as exc:
            raise ValueError(f"malformed robustness report: {exc!r}") from exc


def _op_durations(
    chain: Chain, platform: Platform, pattern: PeriodicPattern
) -> dict[tuple[str, int], float]:
    """Duration of every op of ``pattern`` under ``chain``, read from
    the pattern's op table (:func:`~repro.core.pattern.allocation_ops`):
    a pattern with ``W`` ops splits each backward into ``B`` (grad-input
    half) and ``W`` (grad-weight half), otherwise ``B`` is the whole
    backward."""
    table = pattern.op_table(chain, platform)
    return {key: table[key][0] for key in pattern.ops}


def _required_stretch(
    pattern: PeriodicPattern, dur: dict[tuple[str, int], float]
) -> float:
    """Minimal uniform scale of ``(t, T)`` under which the pattern is
    valid with durations ``dur``: every
    :meth:`~repro.core.pattern.PeriodicPattern.timing_rules` room, scaled
    by ``s``, covers its op's new duration, and no op outgrows ``s·T``.
    ``inf`` when no stretch can fix it (a rule with zero nominal room
    against a positive duration).
    """
    s = 1.0
    for _, op, _, room in pattern.timing_rules():
        d = dur[op.key]
        if d > 0.0:
            if room <= 0.0:
                return INF
            s = max(s, d / room)
    T = pattern.period
    for key, op in pattern.ops.items():  # no op may outgrow the period
        d = dur[key]
        if d > 0.0:
            s = max(s, d / T)
    return s


def _stretched_pattern(
    pattern: PeriodicPattern, dur: dict[tuple[str, int], float], s: float
) -> PeriodicPattern:
    """The pattern with starts and period scaled by ``s`` and durations
    replaced by ``dur`` (shifts and structure unchanged)."""
    ops = {
        key: Op(
            kind=op.kind,
            index=op.index,
            resource=op.resource,
            start=op.start * s,
            duration=dur[key],
            shift=op.shift,
        )
        for key, op in pattern.ops.items()
    }
    return PeriodicPattern(
        allocation=pattern.allocation, period=pattern.period * s, ops=ops
    )


def _evaluate(
    chain: Chain,
    platform: Platform,
    pattern: PeriodicPattern,
    noise: NoiseModel,
    draws: np.ndarray,
    scale: float,
) -> list[tuple[float, dict[int, float]]]:
    """(stretch, per-GPU margin) per sample at one noise scale."""
    out: list[tuple[float, dict[int, float]]] = []
    procs = sorted(pattern.allocation.procs_used())
    for i in range(draws.shape[0]):
        chain_p = noise.apply(chain, draws[i], scale)
        dur = _op_durations(chain_p, platform, pattern)
        s = _required_stretch(pattern, dur)
        if not math.isfinite(s):
            out.append((INF, {p: -INF for p in procs}))
            continue
        peaks = _stretched_pattern(pattern, dur, s).memory_peaks(chain_p)
        out.append((s, {p: platform.memory - m for p, m in peaks.items()}))
    return out


def robustness_report(
    chain: Chain,
    platform: Platform,
    pattern: PeriodicPattern,
    *,
    noise: NoiseModel | None = None,
    samples: int = 32,
    seed: int = 0,
    break_inflation: float = DEFAULT_BREAK_INFLATION,
    max_noise_scale: float = DEFAULT_MAX_NOISE_SCALE,
    bisect_iters: int = 12,
) -> RobustnessReport:
    """Stress-test ``pattern`` under seeded multiplicative profile noise.

    See :class:`RobustnessReport` for what comes back.  ``noise``
    defaults to :class:`repro.profiling.NoiseModel` (5% lognormal on
    compute and activations); a calibrated per-layer
    :class:`repro.profiling.LayerNoiseModel` (fitted by
    :func:`repro.profiles.calibrate`) flows through the same draw/apply
    machinery unchanged, so observed-noise reports share seeds and
    bisection with the assumed-noise ones.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    noise = noise or NoiseModel()
    calibrated_for = getattr(noise, "n_layers", None)
    if calibrated_for is not None and calibrated_for != chain.L:
        # fail before burning samples: a calibrated model must never be
        # stretched onto a chain it was not fitted for
        raise ValueError(
            f"noise model is calibrated for {calibrated_for} layer(s) "
            f"but was applied to a chain with {chain.L}"
        )
    with obs.span(
        "certify.robustness", samples=samples, seed=seed
    ) as sp:
        obs.inc("certify.robustness_runs")
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        draws = noise.draw(rng, samples, chain.L)
        slack = memory_slack(platform.memory)

        def breaks(results: list[tuple[float, dict[int, float]]]) -> bool:
            return any(
                s > break_inflation or min(m.values()) < -slack for s, m in results
            )

        nominal = _evaluate(chain, platform, pattern, noise, draws, 1.0)
        stretches = [s for s, _ in nominal]
        procs = sorted(pattern.allocation.procs_used())
        worst_margin = {
            p: min(m[p] for _, m in nominal) for p in procs
        }
        zero = _evaluate(chain, platform, pattern, noise, draws[:1], 0.0)[0]

        report = RobustnessReport(
            seed=seed,
            samples=samples,
            noise=noise.to_dict(),
            period=pattern.period,
            break_inflation=break_inflation,
            max_noise_scale=max_noise_scale,
            worst_period_inflation=max(stretches),
            mean_period_inflation=(
                INF if any(not math.isfinite(s) for s in stretches)
                else sum(stretches) / len(stretches)
            ),
            oom_margin=dict(zero[1]),
            worst_oom_margin=worst_margin,
            oom_samples=sum(1 for _, m in nominal if min(m.values()) < -slack),
        )

        # bisect the smallest breaking noise scale over [0, max_noise_scale];
        # reusing `draws` keeps every level on the same random numbers, so
        # the predicate is effectively monotone and the bisection lands on
        # a genuine threshold
        if breaks(_evaluate(chain, platform, pattern, noise, draws, max_noise_scale)):
            lo, hi = 0.0, max_noise_scale
            for _ in range(bisect_iters):
                mid = 0.5 * (lo + hi)
                if breaks(_evaluate(chain, platform, pattern, noise, draws, mid)):
                    hi = mid
                else:
                    lo = mid
            report.breaking_noise_scale = hi

        # re-simulate the worst nominal-scale sample end to end: stretched
        # timing + perturbed memory through the discrete-event engine
        worst_i = max(range(samples), key=lambda i: stretches[i])
        if math.isfinite(stretches[worst_i]):
            chain_w = noise.apply(chain, draws[worst_i], 1.0)
            dur_w = _op_durations(chain_w, platform, pattern)
            stretched = _stretched_pattern(pattern, dur_w, stretches[worst_i])
            sim = simulate(chain_w, platform, stretched)
            report.worst_sample_sim_violations = len(sim.violations)
        sp.set(
            worst_inflation=report.worst_period_inflation
            if math.isfinite(report.worst_period_inflation)
            else None,
            oom_samples=report.oom_samples,
            breaking_scale=report.breaking_noise_scale,
        )
    return report
