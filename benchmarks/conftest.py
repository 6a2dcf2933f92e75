"""Shared benchmark fixtures.

The figure benchmarks replay ``results/paper_grid.json`` (produced by
``scripts/run_paper_sweep.py``) when it exists, so the full paper grid is
rendered; otherwise they compute a reduced grid on the fly.  Rendered
tables are also written to ``results/figN.txt``.
"""

from __future__ import annotations

import sys

import pytest

from _util import GRID_PATH, REDUCED, REPO_ROOT

from repro.algorithms import Discretization
from repro.experiments import RunResult, load_results, run_grid

# the hot-path suites import their oracles from tests.oracles
sys.path.insert(0, str(REPO_ROOT))


@pytest.fixture(scope="session")
def paper_results() -> list[RunResult]:
    """Full cached sweep if present, else a freshly computed reduced grid."""
    if GRID_PATH.exists():
        results = load_results(GRID_PATH)
        if results:
            return results
    return run_grid(
        grid=Discretization.coarse(),
        iterations=8,
        ilp_time_limit=30.0,
        **REDUCED,
    )
