"""Shared benchmark setup.

The figure benchmarks write their rendered tables to ``results/``; Figs.
6-8 come from ``scripts/run_paper_sweep.py`` instead, which renders them
from the paper grid it sweeps.
"""

from __future__ import annotations

import sys

from _util import REPO_ROOT

# the hot-path suites import their oracles from tests.oracles
sys.path.insert(0, str(REPO_ROOT))
