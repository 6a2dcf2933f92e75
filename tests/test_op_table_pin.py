"""Digest pins of the layers that read an allocation's op table.

``tests/golden/op_table_pin.json`` holds one SHA-256 digest per case of

* :func:`repro.sim.eager_1f1b` — executions, makespan, steady period and
  peak memory — over seeded ``random_chain(12, seed)`` contiguous
  allocations × ``depth ∈ {None, 1, 2}``;
* ``api.certify(..., samples=8, seed=seed).to_dict()`` of certified 1F1B
  MadPipe and PipeDream plans on seeded small chains (MadPipe's include
  non-contiguous MILP plans).

Every float enters the digest through ``repr`` (exact), so a case moves
when any bit of its result moves.  Zero-bubble robustness reports are
not pinned here.

Regenerate only when a change is meant to move these results::

    PYTHONPATH=src python tests/test_op_table_pin.py
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from repro import api
from repro.algorithms.madpipe_dp import Discretization
from repro.core.partition import Allocation, Partitioning
from repro.core.platform import Platform
from repro.models.synthetic import random_chain
from repro.sim import eager_1f1b

GOLDEN = Path(__file__).parent / "golden" / "op_table_pin.json"

COARSE = Discretization.coarse()


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _eager_cases():
    rng = random.Random(23)
    for seed in range(4):
        chain = random_chain(12, seed=seed, decay=0.2)
        for n_procs in (2, 3, 4):
            cuts = sorted(rng.sample(range(1, 12), n_procs - 1))
            alloc = Allocation.contiguous(Partitioning.from_cuts(12, cuts))
            platform = Platform(n_procs, 4e9, 4e9)
            for depth in (None, 1, 2):
                key = f"eager|seed{seed}|cuts={','.join(map(str, cuts))}|depth={depth}"
                yield key, chain, platform, alloc, depth


def _eager_outcome(chain, platform, alloc, depth) -> dict:
    rep = eager_1f1b(chain, platform, alloc, n_batches=12, depth=depth)
    return {
        "executions": [[k, i, b, repr(s), repr(e)] for k, i, b, s, e in rep.executions],
        "makespan": repr(rep.makespan),
        "steady_period": repr(rep.steady_period),
        "peak_memory": {str(p): repr(m) for p, m in sorted(rep.peak_memory.items())},
    }


def _certify_cases():
    for seed in range(3):
        chain = random_chain(10, seed=seed, decay=0.2)
        for n_procs, memory in ((3, 1.5e9), (3, 1.0e9), (4, 0.8e9), (4, 1.2e9)):
            platform = Platform(n_procs, memory, 4e9)
            for algorithm in ("madpipe", "pipedream"):
                key = f"certify|{algorithm}|seed{seed}|P{n_procs}|mem{memory:g}"
                yield key, chain, platform, algorithm, seed


def _certify_outcome(chain, platform, algorithm, seed) -> dict | None:
    opts = (
        dict(iterations=4, grid=COARSE, ilp_time_limit=10)
        if algorithm == "madpipe"
        else {}
    )
    res = api.plan(chain, platform, algorithm=algorithm, **opts)
    if res.pattern is None:
        return None
    cert = api.certify(chain, platform, res, samples=8, seed=seed)
    assert cert.ok
    return cert.to_dict()


def _compute() -> dict[str, str]:
    out = {}
    for key, chain, platform, alloc, depth in _eager_cases():
        out[key] = _digest(_eager_outcome(chain, platform, alloc, depth))
    for key, chain, platform, algorithm, seed in _certify_cases():
        out[key] = _digest(_certify_outcome(chain, platform, algorithm, seed))
    return out


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case", list(_eager_cases()), ids=lambda c: c[0])
def test_eager_1f1b_pinned(golden, case):
    key, chain, platform, alloc, depth = case
    assert _digest(_eager_outcome(chain, platform, alloc, depth)) == golden[key]


def test_certify_reports_pinned(golden):
    moved = [
        key
        for key, chain, platform, algorithm, seed in _certify_cases()
        if _digest(_certify_outcome(chain, platform, algorithm, seed)) != golden[key]
    ]
    assert not moved


def test_golden_covers_every_case(golden):
    keys = {c[0] for c in _eager_cases()} | {c[0] for c in _certify_cases()}
    assert keys == set(golden)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(_compute(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
