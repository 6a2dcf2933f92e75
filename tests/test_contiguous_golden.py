"""Golden bit-identity of the contiguous period search, both families.

``tests/golden/contiguous_search.json`` pins ``(period, groups, memory)``
of :func:`~repro.algorithms.onef1b.min_feasible_period` (1F1B\\*) and
:func:`~repro.algorithms.zero_bubble.min_feasible_period_zb`
(zero-bubble) on seeded random and uniform chains × P ∈ {2, 4, 6} ×
tight-to-roomy memory, infeasible (``None``) answers included, plus the
full ``pattern_to_dict`` output of a few built patterns.  Every float is
compared exactly: JSON stores the shortest repr, which round-trips.

Regenerate only when a change is meant to move the search::

    PYTHONPATH=src python tests/test_contiguous_golden.py
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import numpy as np
import pytest

from repro.algorithms.onef1b import min_feasible_period
from repro.algorithms.zero_bubble import min_feasible_period_zb
from repro.core.partition import Partitioning
from repro.core.platform import Platform
from repro.core.serialize import pattern_to_dict
from repro.models.synthetic import random_chain, uniform_chain

GOLDEN = Path(__file__).parent / "golden" / "contiguous_search.json"

SEARCHES = {"1f1b": min_feasible_period, "zero_bubble": min_feasible_period_zb}

#: Per-GPU memory as a share of the whole chain's single-copy footprint
#: ``3·ΣW + Σā``, divided by the stage count: the low end leaves most
#: partitionings infeasible, the high end fits every grouping.
MEMORY_SHARES = (1.0, 1.25, 1.6, 2.2, 3.5)



def _chains():
    """``(name, chain, bandwidth)``: each link is slow enough that a cut
    boundary weighs about as much as a layer's forward."""
    for seed in range(3):
        yield f"random{seed}", random_chain(12, seed=seed, decay=0.2), 4e9
    yield "uniform", uniform_chain(12, u_f=1.0, u_b=2.0, weights=4e6, activation=8e6), 8e6
    yield "uniform-lopsided", uniform_chain(
        12, u_f=0.5, u_b=3.0, weights=1e6, activation=16e6, input_activation=4e6
    ), 8e6


def _partitionings(L: int, n_procs: int, rng: random.Random) -> list[Partitioning]:
    parts = [Partitioning.from_cuts(L, [])]
    for _ in range(5):
        n_cuts = rng.randint(1, n_procs - 1)
        parts.append(Partitioning.from_cuts(L, sorted(rng.sample(range(1, L), n_cuts))))
    return parts


def _cases():
    """``(key, chain, platform, partitioning)`` for every pinned search."""
    rng = random.Random(14)
    for name, chain, bandwidth in _chains():
        whole = 3.0 * float(chain.weight_ranges(np.array([1]), np.array([chain.L]))[0])
        whole += float(chain.stored_activation_ranges(np.array([1]), np.array([chain.L]))[0])
        for n_procs in (2, 4, 6):
            for part in _partitionings(chain.L, n_procs, rng):
                cuts = ",".join(str(s.end) for s in part.stages[:-1])
                for share in MEMORY_SHARES:
                    memory = whole * share / part.n_stages
                    platform = Platform(n_procs, memory, bandwidth)
                    key = f"{name}|P{n_procs}|cuts={cuts}|mem{share}"
                    yield key, chain, platform, part


def _outcome(family: str, chain, platform, part, *, build: bool):
    res = SEARCHES[family](chain, platform, part, build=build)
    if res is None:
        return None
    out = {
        "period": res.period,
        "groups": [res.groups[i] for i in sorted(res.groups)],
        "memory": [[p, res.memory[p]] for p in sorted(res.memory)],
    }
    if build:
        out["pattern"] = pattern_to_dict(res.pattern)
    return out


def _compute() -> dict:
    searches: dict = {}
    patterns: dict = {}
    for key, chain, platform, part in _cases():
        for family in SEARCHES:
            got = _outcome(family, chain, platform, part, build=False)
            searches[f"{family}|{key}"] = got
            # pin the first feasible multi-stage case per (family, chain, P)
            # in full
            head = f"{family}|{key.split('|cuts')[0]}"
            pinned = any(k.startswith(head) for k in patterns)
            if got is not None and part.n_stages > 1 and not pinned:
                patterns[f"{family}|{key}"] = _outcome(
                    family, chain, platform, part, build=True
                )
    return {"searches": searches, "patterns": patterns}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def computed() -> dict:
    return _compute()


def test_golden_covers_both_families_and_outcomes(golden):
    outcomes = golden["searches"].values()
    assert sum(v is None for v in outcomes) > 20
    assert sum(v is not None for v in outcomes) > 200
    for family in SEARCHES:
        assert sum(k.startswith(family + "|") for k in golden["patterns"]) >= 12


@pytest.mark.parametrize("family", sorted(SEARCHES))
def test_search_bit_identical_to_golden(golden, computed, family):
    want = {k: v for k, v in golden["searches"].items() if k.startswith(family + "|")}
    got = {k: v for k, v in computed["searches"].items() if k.startswith(family + "|")}
    assert got.keys() == want.keys()
    mismatched = [k for k in want if got[k] != want[k]]
    assert not mismatched, f"{len(mismatched)} searches moved, e.g. {mismatched[0]}"


def test_built_patterns_bit_identical_to_golden(golden, computed):
    assert computed["patterns"] == golden["patterns"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
