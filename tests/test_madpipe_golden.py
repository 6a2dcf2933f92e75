"""Golden outcomes of the complete MadPipe pipeline (phase 1 + phase 2 + gate).

``tests/golden/madpipe_outcomes.json`` pins, for every run, what
:func:`~repro.algorithms.madpipe.madpipe` returns: ``period``, phase 1's
``dp_period``, ``status``, ``notes``, the allocation, a digest of
``pattern_to_dict(pattern)``, the certificate's ``ok``/``mode``/violations
and its quarantined report, and the phase-2 ``ilp`` status.  The runs
cover seeded random chains × P ∈ {2, 3, 4} × tight-to-roomy memory × both
schedule families × ``allow_special`` on/off, plus fault-injected runs:
every MILP probe timing out (the contiguous-restriction path), and the
certification gate failing once (quarantine + fallback) or always
(nothing certifiable).  The DP never returns a non-contiguous allocation
that leaves a GPU idle, whose contiguous restriction phase 2 can still
schedule; ``idle_gpu`` runs swap one in for phase 1's allocation so that
path is pinned too.  The contiguous DP's period caps the MILP search, so
a budget-exhausted MILP only falls back to that restriction when there
is no contiguous candidate: ``idle_gpu_uncapped`` runs also stub the
contiguous DP infeasible, which leaves the search uncapped.  The
``headroom`` part plans with ``memory_headroom`` ∈ {0.1, 0.3}: every
planning layer fits its schedule into the derated capacity while
certification measures the full one; it holds MILP searches ending
``ok`` and ``capped``.  Phase 1 runs bracketed by the contiguous
candidate's period; the ``bracket`` part pins a run whose bracketed
phase 1 finds nothing below it.  Every MILP here finishes far inside its
time limit, so the answers are deterministic.  Floats are compared exactly:
JSON stores the shortest repr, which round-trips.

Differential tests beside the golden run ``madpipe()`` again with the
MILP search uncapped, with phase 1 unbracketed (the paper's search), or
with the contiguous candidate held to the contiguous DP's own pick
instead of the best allocation its probes visited, and check the period
never gets worse.

Regenerate only when a change is meant to move MadPipe's selection::

    PYTHONPATH=src python tests/test_madpipe_golden.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import importlib
import json
import re
import tempfile
from contextlib import contextmanager, nullcontext
from pathlib import Path

import pytest

from repro import obs
from repro.algorithms.madpipe import madpipe
from repro.algorithms.madpipe_dp import Discretization, DPAllocation
from repro.cli import main as cli_main
from repro.core.partition import Partitioning
from repro.core.platform import Platform
from repro.core.serialize import allocation_to_dict, pattern_to_dict
from repro.experiments.scenarios import paper_chain
from repro.models.synthetic import random_chain
from repro.profiling import save_chain
from repro.testing import Fault, faults

from tests.oracles.bruteforce import best_contiguous

# the module, not the function ``repro.algorithms`` re-exports by that name
madpipe_mod = importlib.import_module("repro.algorithms.madpipe")

GOLDEN = Path(__file__).parent / "golden" / "madpipe_outcomes.json"

COARSE = Discretization.coarse()
FAMILIES = ("1f1b", "zero_bubble")
HEADROOMS = (0.1, 0.3)

#: Fault plans of the fault-injected runs, by name.
FAULTS = {
    "milp_timeout": [Fault(site="milp_solve", action="timeout", times=-1)],
    "verify_fail_once": [Fault(site="sim_verify", action="fail", key="madpipe:", times=1)],
    "verify_fail_always": [Fault(site="sim_verify", action="fail", key="madpipe", times=-1)],
}

#: Every note ``madpipe()`` can emit; ``{c}`` is the construction label
#: of the schedule family, pinned for both families, and ``{detail}`` is
#: free text.
NOTE_TEMPLATES = (
    "phase 1 found no memory-feasible allocation",
    "phase 1 found no allocation below the contiguous candidate's period",
    "phase-1 contiguous allocation via {c}",
    "{c} infeasible for phase-1 allocation",
    "phase-1 non-contiguous allocation via ILP",
    "ILP could not schedule phase-1 allocation (infeasible)",
    "ILP could not schedule phase-1 allocation (timeout)",
    "ILP could not schedule phase-1 allocation (capped)",
    "ILP skipped: phase-1 allocation's bottleneck bound is within rel_tol of the "
    "contiguous candidate's period",
    "ILP time budget exhausted; fell back to the certified {c} contiguous restriction",
    "contiguous memory-aware candidate won",
    "certification failed for the chosen pattern; quarantined ({detail})",
    "{c} fallback failed certification too",
    "replaced by the certified {c} contiguous fallback",
)
LABELS = ("1F1B*", "zero-bubble")


def _note_patterns() -> list[re.Pattern]:
    out = []
    for template in NOTE_TEMPLATES:
        for label in LABELS if "{c}" in template else ("",):
            pieces = template.replace("{c}", label).split("{detail}")
            out.append(re.compile(".+".join(map(re.escape, pieces))))
    return out


#: Phase-1 stubs, by key prefix: ``uncapped`` also makes the contiguous
#: DP infeasible.
STUBS = {"idle_gpu": False, "idle_gpu_uncapped": True}


@contextmanager
def _idle_gpu_phase1(uncapped: bool = False):
    """Make phase 1 with the special processor return layers 1–4 on GPU 0
    and layers 5–6 and 7–8 as two stages sharing GPU P−1, GPUs 1 … P−2
    idle: non-contiguous, yet its contiguous restriction fits P ≥ 3.
    With ``uncapped``, the contiguous DP finds nothing, so no incumbent
    caps the MILP search."""
    real = madpipe_mod.algorithm1
    stages = Partitioning.from_cuts(8, [4, 6]).stages
    idle_gpu = DPAllocation(stages, (False, True, True))

    def phase1(chain, platform, *, allow_special=True, **opts):
        res = real(chain, platform, allow_special=allow_special, **opts)
        if allow_special and res.feasible:
            res = dataclasses.replace(res, allocation=idle_gpu)
        elif uncapped and not allow_special:
            res = dataclasses.replace(res, allocation=None, period=float("inf"))
        return res

    madpipe_mod.algorithm1 = phase1
    try:
        yield
    finally:
        madpipe_mod.algorithm1 = real


def _instances(
    n_procs=(2, 3, 4), memories=(0.5, 0.8, 1.5), specials=(True, False), seeds=range(4)
):
    """``(key, chain, platform, opts)`` of seeded small instances."""
    for seed in seeds:
        chain = random_chain(8, seed=seed, decay=0.2)
        for p in n_procs:
            for mem in memories:
                platform = Platform.of(p, mem, 12)
                for family in FAMILIES:
                    for special in specials:
                        key = f"random{seed}|P{p}|mem{mem}|{family}|special={special}"
                        opts = dict(schedule_family=family, allow_special=special)
                        yield key, chain, platform, opts


def _fault_instances(name: str):
    # the MILP only runs with the special processor enabled
    specials = (True,) if name == "milp_timeout" else (True, False)
    return _instances(n_procs=(2, 4), memories=(0.8, 1.5), specials=specials)


def _idle_gpu_instances():
    return _instances(n_procs=(3, 4), memories=(0.8, 1.5), specials=(True,), seeds=range(2))


def _headroom_instances():
    for headroom in HEADROOMS:
        for key, chain, plat, opts in _instances(
            n_procs=(2, 3, 4), memories=(0.8, 1.5), specials=(True,), seeds=range(2)
        ):
            yield f"headroom{headroom}|{key}", chain, plat, dict(opts, memory_headroom=headroom)


def _bracket_instances():
    """Instances whose bracketed phase 1 finds nothing below the
    contiguous candidate's period under 1F1B* (no clean instance does)."""
    return _instances(n_procs=(4,), memories=(0.8,), specials=(True,), seeds=(6,))


def _certificate(cert) -> dict | None:
    if cert is None:
        return None
    return {
        "ok": cert.ok,
        "mode": cert.mode,
        "violations": list(cert.violations),
        "quarantined": None if cert.quarantined is None else list(cert.quarantined.violations),
    }


def _outcome(chain, platform, opts) -> dict:
    res = madpipe(chain, platform, grid=COARSE, iterations=6, ilp_time_limit=30, **opts)
    digest = None
    if res.pattern is not None:
        text = json.dumps(pattern_to_dict(res.pattern), sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
    return {
        "period": None if res.period == float("inf") else res.period,
        "dp_period": None if res.dp_period == float("inf") else res.dp_period,
        "status": res.status,
        "notes": list(res.notes),
        "allocation": None if res.allocation is None else allocation_to_dict(res.allocation),
        "pattern": digest,
        "certificate": _certificate(res.certificate),
        "ilp": None if res.ilp is None else res.ilp.status,
    }


def _compute_clean() -> dict:
    return {key: _outcome(chain, plat, opts) for key, chain, plat, opts in _instances()}


def _compute_headroom() -> dict:
    return {
        key: _outcome(chain, plat, opts) for key, chain, plat, opts in _headroom_instances()
    }


def _compute_bracket() -> dict:
    return {
        key: _outcome(chain, plat, opts) for key, chain, plat, opts in _bracket_instances()
    }


def _compute_faulted(name: str, state_root: Path, *, stub: str | None = None) -> dict:
    """Outcomes under fault plan ``name`` (``"none"``: no plan), on the
    fault instances or, with a ``stub`` of :data:`STUBS`, on that
    idle-GPU phase 1."""
    out = {}
    prefix = f"{stub}:{name}" if stub else name
    cases = _idle_gpu_instances() if stub else _fault_instances(name)
    with _idle_gpu_phase1(STUBS[stub]) if stub else nullcontext():
        for i, (key, chain, plat, opts) in enumerate(cases):
            faults.install(FAULTS.get(name, []), state_root / f"{prefix}-{i}")
            try:
                out[f"{prefix}|{key}"] = _outcome(chain, plat, opts)
            finally:
                faults.clear()
    return out


def _compute() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        faulted = {}
        for name in FAULTS:
            faulted.update(_compute_faulted(name, Path(tmp)))
        for name in ("none", *FAULTS):
            faulted.update(_compute_faulted(name, Path(tmp), stub="idle_gpu"))
        for name in ("none", "milp_timeout"):
            faulted.update(_compute_faulted(name, Path(tmp), stub="idle_gpu_uncapped"))
    return {
        "clean": _compute_clean(), "faulted": faulted, "headroom": _compute_headroom(),
        "bracket": _compute_bracket(),
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def _first_mismatch(got: dict, want: dict) -> str:
    assert got.keys() == want.keys()
    moved = [k for k in want if got[k] != want[k]]
    return f"{len(moved)} outcomes moved, e.g. {moved[0]}: {got[moved[0]]}" if moved else ""


def test_every_note_pinned(golden):
    """Each note template occurs in the golden (so no branch of the
    candidate list goes unpinned), and no golden note is unaccounted for."""
    notes = [
        n for part in golden.values() for outcome in part.values() for n in outcome["notes"]
    ]
    patterns = _note_patterns()
    unpinned = [p.pattern for p in patterns if not any(p.fullmatch(n) for n in notes)]
    assert not unpinned, f"note never emitted by a golden run: {unpinned}"
    unknown = sorted({n for n in notes if not any(p.fullmatch(n) for p in patterns)})
    assert not unknown, f"note missing from NOTE_TEMPLATES: {unknown}"


def test_golden_covers_every_status(golden):
    statuses = {o["status"] for part in golden.values() for o in part.values()}
    assert statuses == {"ok", "degraded", "infeasible", "solver_timeout", "error"}


def test_headroom_covers_ok_and_capped_milp_searches(golden):
    ilp = {o["ilp"] for o in golden["headroom"].values()}
    assert {"ok", "capped"} <= ilp


def test_special_processor_never_worse(golden):
    """MadPipe's answer is never worse than its contiguous-only run (the
    special processor can only help): the contiguous candidate is among
    the full run's candidates and caps its MILP search."""
    clean = golden["clean"]
    pairs = [(clean[k], clean[k.replace("special=True", "special=False")])
             for k in clean if k.endswith("special=True")]
    compared = [(full, contig) for full, contig in pairs if contig["period"] is not None]
    assert len(compared) > 40
    for full, contig in compared:
        assert full["period"] <= contig["period"] * (1 + 1e-9)


def test_clean_outcomes_match_golden(golden):
    assert not _first_mismatch(_compute_clean(), golden["clean"])


def test_headroom_outcomes_match_golden(golden):
    assert not _first_mismatch(_compute_headroom(), golden["headroom"])


def test_bracket_outcomes_match_golden(golden):
    assert not _first_mismatch(_compute_bracket(), golden["bracket"])


@pytest.mark.faultinject
@pytest.mark.parametrize("name", sorted(FAULTS))
def test_faulted_outcomes_match_golden(golden, name, tmp_path):
    want = {k: v for k, v in golden["faulted"].items() if k.startswith(name + "|")}
    assert want
    assert not _first_mismatch(_compute_faulted(name, tmp_path), want)


@pytest.mark.faultinject
@pytest.mark.parametrize("name", ["none", *sorted(FAULTS)])
def test_idle_gpu_outcomes_match_golden(golden, name, tmp_path):
    prefix = f"idle_gpu:{name}|"
    want = {k: v for k, v in golden["faulted"].items() if k.startswith(prefix)}
    assert want
    assert not _first_mismatch(_compute_faulted(name, tmp_path, stub="idle_gpu"), want)


@pytest.mark.faultinject
@pytest.mark.parametrize("name", ["none", "milp_timeout"])
def test_uncapped_outcomes_match_golden(golden, name, tmp_path):
    """Without a contiguous candidate the MILP search runs uncapped, so a
    budget-exhausted search still falls back to the contiguous restriction."""
    prefix = f"idle_gpu_uncapped:{name}|"
    want = {k: v for k, v in golden["faulted"].items() if k.startswith(prefix)}
    assert want
    got = _compute_faulted(name, tmp_path, stub="idle_gpu_uncapped")
    assert not _first_mismatch(got, want)


@pytest.mark.faultinject
@pytest.mark.parametrize("family", FAMILIES)
def test_quarantine_reuses_the_contiguous_candidate(family, tmp_path):
    """The quarantine tail tries the contiguous candidate from the schedule
    ``madpipe()`` already holds: with every certification failing, one
    fallback fewer is searched than is tried."""
    chain, platform = random_chain(8, seed=0, decay=0.2), Platform.of(4, 1.5, 12)
    faults.install(FAULTS["verify_fail_always"], tmp_path)
    trace = obs.Trace()
    try:
        with obs.use_trace(trace):
            res = madpipe(chain, platform, schedule_family=family, **GOLDEN_SOLVER)
    finally:
        faults.clear()
    assert res.status == "error"
    tried = sum(n.endswith("fallback failed certification too") for n in res.notes)
    searched = sum(
        s.attrs.get("kind") == "onef1b_quarantine_fallback"
        for s in trace.find("madpipe.phase2")
    )
    assert tried >= 1 and searched == tried - 1


@contextmanager
def _uncapped_phase2():
    """Make MadPipe's MILP search drop its ``period_cap``: the uncapped
    phase 2 of the strict paper pipeline."""
    real = madpipe_mod.schedule_allocation

    def uncapped(*args, period_cap=float("inf"), **kwargs):
        return real(*args, **kwargs)

    madpipe_mod.schedule_allocation = uncapped
    try:
        yield
    finally:
        madpipe_mod.schedule_allocation = real


@contextmanager
def _dp_pick_only():
    """Make MadPipe's contiguous candidate the contiguous DP's own pick:
    the DP search reports no other visited allocation to rank."""
    real = madpipe_mod.algorithm1

    def pick_only(*args, **kwargs):
        res = real(*args, **kwargs)
        return dataclasses.replace(res, visited=[res.allocation] if res.feasible else [])

    madpipe_mod.algorithm1 = pick_only
    try:
        yield
    finally:
        madpipe_mod.algorithm1 = real


def _regressions(cases, baseline, **solver) -> list[tuple[str, float, float]]:
    """``(key, period, baseline period)`` where ``madpipe()`` loses to its
    run under the ``baseline`` context."""
    out = []
    for key, chain, platform, opts in cases:
        period = madpipe(chain, platform, **solver, **opts).period
        with baseline():
            base = madpipe(chain, platform, **solver, **opts).period
        if not period <= base * (1 + 1e-9):
            out.append((key, period, base))
    return out


GOLDEN_SOLVER = dict(grid=COARSE, iterations=6, ilp_time_limit=30)
#: The ledger's solver options.
LEDGER_SOLVER = dict(grid=COARSE, iterations=8, ilp_time_limit=30)


def _gpt24(n_procs: int, memory_gb: float, family: str):
    return (f"gpt24|P{n_procs}|mem{memory_gb}|{family}", paper_chain("gpt24"),
            Platform.of(n_procs, memory_gb, 12), dict(schedule_family=family))


def test_capped_phase2_never_worse_on_seeded_instances():
    """Differential: capping the MILP at the contiguous candidate's period
    never worsens MadPipe's period (only ``allow_special`` runs reach the
    MILP)."""
    cases = list(_instances(specials=(True,)))
    assert not _regressions(cases, _uncapped_phase2, **GOLDEN_SOLVER)


@pytest.mark.parametrize("family", FAMILIES)
def test_capped_phase2_never_worse_on_gpt24(family):
    """The ledger's gpt24 (P=4, 2 GB) instance, with the ledger's options."""
    assert not _regressions([_gpt24(4, 2.0, family)], _uncapped_phase2, **LEDGER_SOLVER)


def test_milp_skipped_within_rel_tol_on_gpt24():
    """The ledger's gpt24 (P=4, 2 GB) 1F1B\\* instance: phase 1's
    allocation has a bottleneck bound within the MILP search's
    ``rel_tol`` of the contiguous candidate's period, so the search is
    skipped and the candidate stands (two MILP probes used to find a
    pattern 0.004 % below it)."""
    registry = obs.MetricsRegistry()
    with obs.use_metrics(registry):
        res = madpipe(paper_chain("gpt24"), Platform.of(4, 2.0, 12), **LEDGER_SOLVER)
    snap = registry.snapshot()
    assert res.status == "ok" and res.certificate.ok
    assert res.period == 3.1050156728533316
    assert res.ilp.status == "capped" and res.ilp.trace == [] and res.ilp.skipped
    assert snap.get("ilp.milp_probes", 0) == 0
    assert snap["ilp.searches_skipped"] == 1
    # the notes name the skip, not an ILP attempt that never ran
    assert res.notes[:2] == [
        "ILP skipped: phase-1 allocation's bottleneck bound is within rel_tol "
        "of the contiguous candidate's period",
        "contiguous memory-aware candidate won",
    ]


def test_schedule_stats_report_skipped_searches(tmp_path, capsys):
    profile = tmp_path / "gpt24.json"
    save_chain(paper_chain("gpt24"), profile)
    rc = cli_main([
        "schedule", str(profile), "-p", "4", "-m", "2", "-b", "12",
        "--grid", "coarse", "--iterations", "8", "--stats",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert re.search(
        r"^phase-2 ILP: 0 MILP probes \(0 hit the time limit\), 0 LP jumps "
        r"\(0 failed\), 1 searches skipped, build 0\.000s, solve 0\.000s, "
        r"search status: capped$",
        out, re.MULTILINE,
    )
    assert "ILP skipped: " in out and "ILP could not schedule" not in out
    assert "certificate: ok" in out


def test_ranked_candidate_never_worse_on_seeded_instances():
    """Differential: ranking the contiguous DP's visited allocations never
    worsens MadPipe's period against keeping the DP's own pick, with and
    without the special processor."""
    assert not _regressions(list(_instances()), _dp_pick_only, **GOLDEN_SOLVER)


@pytest.mark.parametrize("family", FAMILIES)
def test_ranked_candidate_never_worse_on_gpt24(family):
    """The ledger's gpt24 (P=8, 1 GB) instance, where ranking wins."""
    assert not _regressions([_gpt24(8, 1.0, family)], _dp_pick_only, **LEDGER_SOLVER)


@contextmanager
def _unbracketed_phase1():
    """Make phase 1 the paper's search (``upper=inf``) instead of the one
    bracketed by the contiguous candidate's period."""
    real = madpipe_mod.algorithm1

    def unbracketed(*args, upper=float("inf"), **kwargs):
        return real(*args, **kwargs)

    madpipe_mod.algorithm1 = unbracketed
    try:
        yield
    finally:
        madpipe_mod.algorithm1 = real


#: The layer ledger's ``madpipe`` instances (``benchmarks/ledger``):
#: ``(network, P, memory in GB, family)``.
LEDGER_INSTANCES = sorted({
    *((net, p, m, "1f1b") for net in ("resnet50", "resnet101")
      for p, m in ((4, 8.0), (8, 6.0), (8, 12.0), (4, 16.0))),
    *(("resnet50", 4, m, "1f1b") for m in (14.0, 12.0, 10.0, 6.0, 4.0, 3.0)),
    *(("gpt24", p, m, family) for p, m in ((4, 2.0), (8, 1.0), (8, 1.5))
      for family in FAMILIES),
})


def test_bracketed_phase1_never_worse_on_seeded_instances():
    """Differential: bracketing phase 1 by the contiguous candidate's
    period never worsens MadPipe's period on the golden's clean
    instances (both families, with and without the special processor)."""
    assert not _regressions(list(_instances()), _unbracketed_phase1, **GOLDEN_SOLVER)


@pytest.mark.parametrize("instance", LEDGER_INSTANCES, ids=str)
def test_bracketed_phase1_never_worse_on_ledger_instances(instance):
    network, n_procs, memory_gb, family = instance
    case = (str(instance), paper_chain(network), Platform.of(n_procs, memory_gb, 12),
            dict(schedule_family=family))
    assert not _regressions([case], _unbracketed_phase1, **LEDGER_SOLVER)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("n_procs, memory_gb", [(2, 1.0), (3, 0.6), (3, 1.2), (4, 0.8)])
def test_ranked_candidate_between_dp_pick_and_oracle(seed, n_procs, memory_gb):
    """Oracle: without the special processor MadPipe's answer is its
    contiguous candidate, which lies between the DP's own pick and the
    exhaustive contiguous optimum (1F1B\\* is optimal per partitioning)."""
    chain = random_chain(9, seed=seed, decay=0.2)
    platform = Platform.of(n_procs, memory_gb, 12)
    opts = dict(GOLDEN_SOLVER, allow_special=False)
    ranked = madpipe(chain, platform, **opts).period
    with _dp_pick_only():
        pick = madpipe(chain, platform, **opts).period
    oracle = best_contiguous(chain, platform).period
    assert oracle <= ranked * (1 + 1e-9) and ranked <= pick * (1 + 1e-9)


#: Instances (``random_chain(9, seed, decay=0.2)``, P=3, 0.6 GB) where every
#: bisection probe of the contiguous DP search fails: ``seed -> period``.
RESCUED_PERIODS = {0: 0.7897325373668833, 1: 0.8266708682356114, 3: 0.7644451644091936}


@pytest.mark.parametrize("seed", sorted(RESCUED_PERIODS))
def test_rescue_probe_schedules_failed_searches(seed):
    """A search whose probes all fail makes one more at T̂ = 2·(ΣU + ΣC),
    where every stage keeps one activation copy; its allocation is
    scheduled, at the exhaustive contiguous optimum for seeds 0 and 1."""
    chain, platform = random_chain(9, seed=seed, decay=0.2), Platform.of(3, 0.6, 12)
    registry = obs.MetricsRegistry()
    with obs.use_metrics(registry):
        res = madpipe(chain, platform, allow_special=False, **GOLDEN_SOLVER)
    assert registry.snapshot()["dp.rescue_probes"] == 1
    assert len(res.phase1.history) == GOLDEN_SOLVER["iterations"] + 1
    assert all(T == float("inf") for _, T in res.phase1.history[:-1])
    assert res.status == "ok" and res.period == RESCUED_PERIODS[seed]
    oracle = best_contiguous(chain, platform).period
    assert oracle <= res.period and (seed == 3 or res.period == oracle)
    if seed == 0:  # phase 1 with the special processor answered infeasible
        assert madpipe(chain, platform, **GOLDEN_SOLVER).period == RESCUED_PERIODS[0]


def test_no_rescue_probe_when_a_probe_succeeds():
    chain, platform = random_chain(9, seed=2, decay=0.2), Platform.of(3, 0.6, 12)
    registry = obs.MetricsRegistry()
    with obs.use_metrics(registry):
        res = madpipe(chain, platform, allow_special=False, **GOLDEN_SOLVER)
    assert res.status == "ok"
    assert len(res.phase1.history) == GOLDEN_SOLVER["iterations"]
    assert "dp.rescue_probes" not in registry.snapshot()


#: Ledger instances whose contiguous candidate moves under ranking:
#: ``(network, P, memory in GB, family) -> ranked period``.
RANKED_PERIODS = {
    ("gpt24", 8, 1.0, "1f1b"): 2.5935894495999987,  # DP pick: 3.105015672853333
    ("gpt24", 8, 1.0, "zero_bubble"): 2.583172782933333,  # 2.5884111162666654
    ("resnet101", 8, 6.0, "1f1b"): 0.46869474752609536,  # 0.5022310641980954
}


@pytest.mark.parametrize("instance", sorted(RANKED_PERIODS), ids=str)
def test_ranked_periods_on_ledger_instances(instance):
    network, n_procs, memory_gb, family = instance
    registry = obs.MetricsRegistry()
    with obs.use_metrics(registry):
        res = madpipe(paper_chain(network), Platform.of(n_procs, memory_gb, 12),
                      schedule_family=family, **LEDGER_SOLVER)
    snap = registry.snapshot()
    assert res.status == "ok" and res.certificate.ok
    assert res.period == RANKED_PERIODS[instance]
    assert snap["madpipe.rank_wins"] == 1
    if family == "zero_bubble":
        # phase 1, bracketed by the incumbent, finds nothing below it, so
        # no allocation reaches the MILP
        assert not res.phase1.feasible and res.ilp is None
        assert res.notes[0] == (
            "phase 1 found no allocation below the contiguous candidate's period"
        )
        assert res.dp_period == res.bracket.period < float("inf")
        assert snap.get("ilp.milp_probes", 0) == 0


def test_schedule_stats_report_the_ranking(tmp_path, capsys):
    profile = tmp_path / "gpt24.json"
    save_chain(paper_chain("gpt24"), profile)
    rc = cli_main([
        "schedule", str(profile), "-p", "8", "-m", "1", "--grid", "coarse",
        "--iterations", "8", "--schedule-family", "zero_bubble", "--stats",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert (
        "contiguous ranking: 3 visited allocations scored; "
        "one beat the DP's pick in 1 of 1 runs"
    ) in out
    assert (
        "phase-1 bracket: 1 of 1 runs bracketed by the contiguous candidate's "
        "period, 1 found nothing below it; 0 rescue probes"
    ) in out
    # the bracketed search's 8 probes all fail, each without a value sweep
    assert (
        "phase-1 DP: 12686 states over 16 probes "
        "(2 searches, 11 value sweeps skipped), "
    ) in out
    # the load bound's dropped states, which the state count no longer holds
    assert "by memory; 3234 states by load" in out


@pytest.mark.parametrize("allow_special", [True, False])
def test_dp_pick_wins_ties(allow_special, monkeypatch):
    """When every visited allocation scores the same period, the DP's own
    pick is the contiguous candidate."""
    chain, platform = paper_chain("gpt24"), Platform.of(8, 1.0, 12)
    real_search = madpipe_mod.contiguous_search

    def flat_search(family):
        search = real_search(family)

        def flat(*args, **kwargs):
            res = search(*args, **kwargs)
            return None if res is None else dataclasses.replace(res, period=1.0)

        return flat

    monkeypatch.setattr(madpipe_mod, "contiguous_search", flat_search)
    registry = obs.MetricsRegistry()
    with obs.use_metrics(registry):
        res = madpipe(chain, platform, allow_special=allow_special, **LEDGER_SOLVER)
    contig = res.phase1 if not allow_special else madpipe_mod.algorithm1(
        chain, platform, allow_special=False, grid=COARSE, iterations=8
    )
    assert len(contig.visited) > 1
    snap = registry.snapshot()
    assert snap["madpipe.contiguous_ranked"] == len(contig.visited)
    assert snap.get("madpipe.rank_wins", 0) == 0
    assert res.allocation == contig.allocation.to_allocation(platform)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
