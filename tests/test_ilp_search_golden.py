"""Golden probe trajectories of the phase-2 period search (§4.3).

``tests/golden/ilp_searches.json`` pins, for every search of
:func:`~repro.ilp.solver.schedule_allocation`, the result's ``status``,
``period`` and a digest of ``pattern_to_dict(pattern)``, plus every
trace record's ``(kind, period, feasible, status)`` — the whole probe
trajectory, timings left out.  The allocations are phase 1's
non-contiguous ones on seeded random chains × P ∈ {2, 3, 4} ×
tight-to-roomy memory (coarse grid, 6 iterations); each is searched in
both schedule families, uncapped and capped at the contiguous period
of the contiguous DP's own pick (``algorithm1(allow_special=False)``'s
``allocation``).  :func:`~repro.algorithms.madpipe.madpipe` caps its
search lower, at the best allocation that DP search visited; this file
pins the search against a fixed cap, so it stays byte-identical when
only the ranking moves.  The searches end ``ok``, ``capped`` and
``infeasible``.
Every MILP finishes far inside its time limit, so the trajectories are
deterministic.  Floats are compared exactly: JSON stores the shortest
repr, which round-trips.

Regenerate only when a change is meant to move the search::

    PYTHONPATH=src python tests/test_ilp_search_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.algorithms.madpipe_dp import Discretization, algorithm1
from repro.algorithms.onef1b import contiguous_search
from repro.core.platform import Platform
from repro.core.serialize import pattern_to_dict
from repro.ilp import schedule_allocation
from repro.models.synthetic import random_chain

GOLDEN = Path(__file__).parent / "golden" / "ilp_searches.json"

FAMILIES = ("1f1b", "zero_bubble")
SEEDS = range(5)
DP_OPTS = dict(grid=Discretization.coarse(), iterations=6)


def _searches():
    """``(key, chain, platform, allocation, opts)`` of every pinned search."""
    for seed in SEEDS:
        chain = random_chain(9, seed=seed)
        for p in (2, 3, 4):
            for mem in (0.5, 0.8, 1.5):
                platform = Platform.of(p, mem, 12)
                phase1 = algorithm1(chain, platform, allow_special=True, **DP_OPTS)
                if not phase1.feasible:
                    continue
                allocation = phase1.allocation.to_allocation(platform)
                if allocation.is_contiguous():
                    continue
                contig = algorithm1(chain, platform, allow_special=False, **DP_OPTS)
                for family in FAMILIES:
                    key = f"random{seed}|P{p}|mem{mem}|{family}"
                    opts = dict(schedule_family=family, time_limit=30)
                    yield key, chain, platform, allocation, opts
                    if not contig.feasible:
                        continue
                    sched = contiguous_search(family)(
                        chain, platform, contig.allocation.to_allocation(platform).partitioning
                    )
                    if sched is not None:
                        yield f"{key}|capped", chain, platform, allocation, dict(
                            opts, period_cap=sched.period
                        )


def _outcome(chain, platform, allocation, opts) -> dict:
    res = schedule_allocation(chain, platform, allocation, **opts)
    digest = None
    if res.pattern is not None:
        text = json.dumps(pattern_to_dict(res.pattern), sort_keys=True)
        digest = hashlib.sha256(text.encode()).hexdigest()
    return {
        "status": res.status,
        "period": None if res.period == float("inf") else res.period,
        "pattern": digest,
        "trace": [[p.kind, p.period, p.feasible, p.status] for p in res.trace],
    }


def _compute() -> dict:
    return {key: _outcome(*case) for key, *case in _searches()}


@pytest.fixture(scope="module")
def computed() -> dict:
    return _compute()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_ok_capped_and_infeasible(golden):
    assert {o["status"] for o in golden.values()} == {"ok", "capped", "infeasible"}


def test_searches_match_golden(computed, golden):
    assert computed.keys() == golden.keys()
    moved = [k for k in golden if computed[k] != golden[k]]
    assert not moved, f"{len(moved)} searches moved, e.g. {moved[0]}: {computed[moved[0]]}"


def test_no_search_repeats_a_milp_probe_period(computed):
    """Rungs are distinct and probed only above every refuted period, and
    gap probes lie strictly inside the open bracket, so a search never
    asks the MILP about one period twice."""
    for key, outcome in computed.items():
        periods = [rec[1] for rec in outcome["trace"] if rec[0] == "milp"]
        assert len(periods) == len(set(periods)), key


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
