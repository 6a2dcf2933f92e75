"""Shared benchmark setup: the repository root on ``sys.path``.

The hot-path suites import their oracles from ``tests.oracles``, and
``pytest benchmarks/ledger`` loads this file too.
"""

from __future__ import annotations

import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

sys.path.insert(0, str(REPO_ROOT))
