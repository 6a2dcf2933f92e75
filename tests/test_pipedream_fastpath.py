"""Differential test: the table PipeDream DP against its scalar oracle.

``pipedream_partition`` builds its stage tables from the chain's prefix
sums and takes one masked ``argmin`` per stage count.  It must return
the same cuts and the same ``dp_period`` (compared with ``==``) as the
triple loop kept in :mod:`tests.oracles.pipedream_reference`, on seeded
chains, processor counts (``P > L`` included), memories from infeasible
to roomy, memories equal to a stage's own ``stage_memory`` and
bandwidths from slow (one stage wins) to fast.
"""

import numpy as np
import pytest

from repro.algorithms.pipedream import pipedream_partition
from repro.core import Platform
from repro.core.memory import stage_memory
from repro.core.platform import GBPS
from repro.models import random_chain, uniform_chain

from tests.oracles.pipedream_reference import pipedream_partition_reference

MB = float(2**20)

LENGTHS = (1, 2, 3, 5, 9, 16, 40)
PROCS = range(1, 9)
BANDWIDTHS_GBPS = (0.5, 12.0, 1e4)
# memory as a share of the whole chain on one GPU: infeasible to roomy
FRACTIONS = (0.01, 0.05, 0.2, 0.6, 2.0)

CHAINS = [
    *(
        random_chain(L, seed=seed, decay=0.1 * seed, name=f"random{L}s{seed}")
        for L in LENGTHS
        for seed in ((0, 1) if L < 40 else (0,))
    ),
    # identical layers: equal bottlenecks everywhere, so ties decide
    uniform_chain(8, u_f=1.0, u_b=2.0, weights=4 * MB, activation=8 * MB),
    uniform_chain(13, u_f=0.5, u_b=1.0, weights=64 * MB, activation=16 * MB),
    # compute so light that at 0.5 GB/s every cut costs more than no cut
    random_chain(9, seed=2, time_scale=0.002, name="slowlink9"),
]


def _cuts(part):
    return None if part is None else part.cut_layers()


def _check(chain, platform):
    """Assert table == scalar DP on one instance; return the partitioning."""
    part, period = pipedream_partition(chain, platform)
    want_part, want_period = pipedream_partition_reference(chain, platform)
    assert period == want_period, (chain.name, platform)
    assert _cuts(part) == _cuts(want_part), (chain.name, platform)
    return part


def _stage_memories(chain, part):
    """Each stage's ``stage_memory`` under PipeDream's estimate: the
    ``s``-th stage from the end keeps ``s`` activation copies."""
    n = part.n_stages
    return {
        stage_memory(chain, stage.start, stage.end, n - idx)
        for idx, stage in enumerate(part)
    }


@pytest.mark.parametrize("chain", CHAINS, ids=lambda c: c.name)
def test_table_dp_matches_scalar_oracle(chain):
    """15 chains × 8 processor counts × 3 bandwidths × 5 memories, plus
    the 40-layer chain at 3 of the memories: 1,872 instances."""
    whole = stage_memory(chain, 1, chain.L, 1)
    fractions = FRACTIONS if chain.L < 40 else FRACTIONS[::2]  # the oracle is O(P·L²)
    for P in PROCS:
        for gbps in BANDWIDTHS_GBPS:
            for fraction in fractions:
                _check(chain, Platform(P, whole * fraction, gbps * GBPS))


@pytest.mark.parametrize("chain", [c for c in CHAINS if c.L <= 9], ids=lambda c: c.name)
def test_memory_equal_to_a_stage_memory(chain):
    """At ``M`` equal to a stage's memory the stage fits (``<=``); one
    ulp below, it does not.  Both DPs must draw that line alike."""
    for P in PROCS:
        for gbps in BANDWIDTHS_GBPS:
            bandwidth = gbps * GBPS
            memories = _stage_memories(chain, _check(chain, Platform(P, 1e18, bandwidth)))
            for memory in memories:
                at = _check(chain, Platform(P, memory, bandwidth))
                if memory == max(memories):  # the roomy answer's binding stage
                    assert at is not None
                _check(chain, Platform(P, float(np.nextafter(memory, 0.0)), bandwidth))


def test_single_stage_wins_on_a_slow_link():
    chain = CHAINS[-1]
    part = _check(chain, Platform.of(4, 1024.0, BANDWIDTHS_GBPS[0]))
    assert part.n_stages == 1

