"""Validate the dynamic programs against exhaustive-search oracles."""

import pytest

from repro.algorithms import Discretization, madpipe, pipedream
from repro.core import Platform
from repro.models import random_chain

from tests.oracles.bruteforce import best_contiguous, best_special

FINE = Discretization(101, 21, 101)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("mem_gb", [0.6, 1.2, 8.0])
def test_contiguous_dp_matches_oracle(seed, mem_gb):
    """MadPipe's contiguous restriction (accurate memory model) must land
    within discretization error of the exhaustive contiguous optimum."""
    chain = random_chain(8, seed=seed, decay=0.2)
    plat = Platform.of(3, mem_gb, 12)
    oracle = best_contiguous(chain, plat)
    res = madpipe(
        chain, plat, grid=FINE, iterations=12, allow_special=False,
    )
    if not oracle.feasible:
        assert not res.feasible
        return
    assert res.feasible
    assert res.period >= oracle.period * (1 - 1e-9)  # oracle is a true bound
    assert res.period <= oracle.period * 1.06  # within grid slack


@pytest.mark.parametrize("seed", [0, 3])
def test_pipedream_never_beats_oracle(seed):
    chain = random_chain(8, seed=seed, decay=0.2)
    plat = Platform.of(3, 1.0, 12)
    oracle = best_contiguous(chain, plat)
    pd = pipedream(chain, plat)
    if pd.feasible:
        assert pd.period >= oracle.period * (1 - 1e-9)


def test_special_oracle_bounds_madpipe():
    """Full MadPipe explores a subset of the special-processor space, so
    the exhaustive optimum bounds it from below; and MadPipe must come
    reasonably close on a tiny instance."""
    chain = random_chain(6, seed=4, decay=0.2)
    plat = Platform.of(3, 1.0, 12)
    oracle = best_special(chain, plat, ilp_time_limit=5)
    res = madpipe(chain, plat, grid=FINE, iterations=12, ilp_time_limit=10)
    assert oracle.feasible
    assert res.feasible
    assert res.period >= oracle.period * (1 - 1e-6)
    assert res.period <= oracle.period * 1.35

    contiguous = best_contiguous(chain, plat)
    # the wider space can only help
    assert oracle.period <= contiguous.period * (1 + 1e-9)


def test_refuses_large_instances():
    chain = random_chain(20, seed=0)
    plat = Platform.of(3, 8.0, 12)
    with pytest.raises(ValueError, match="exponential"):
        best_contiguous(chain, plat)
    with pytest.raises(ValueError, match="exponential"):
        best_special(chain, plat)
