"""Experiment harness reproducing the paper's evaluation (§5)."""

from .figures import (
    Fig6Panel,
    fig6_data,
    fig7_data,
    fig8_data,
    render_fig6,
    render_fig7,
    render_fig8,
)
from .harness import (
    RESULT_STATUSES,
    InstanceTimeoutError,
    JsonlCache,
    ResultCache,
    RunResult,
    SweepInstanceError,
    load_results,
    run_grid,
    run_instance,
    verify_cache,
)
from .scenarios import (
    FIG8_PROCS,
    PAPER_BANDWIDTHS_GBPS,
    PAPER_MEMORIES_GB,
    PAPER_NETWORKS,
    PAPER_PROCS,
    paper_chain,
    paper_platforms,
)

__all__ = [
    "Fig6Panel",
    "fig6_data",
    "fig7_data",
    "fig8_data",
    "render_fig6",
    "render_fig7",
    "render_fig8",
    "RESULT_STATUSES",
    "InstanceTimeoutError",
    "JsonlCache",
    "ResultCache",
    "RunResult",
    "SweepInstanceError",
    "load_results",
    "run_grid",
    "run_instance",
    "verify_cache",
    "FIG8_PROCS",
    "PAPER_BANDWIDTHS_GBPS",
    "PAPER_MEMORIES_GB",
    "PAPER_NETWORKS",
    "PAPER_PROCS",
    "paper_chain",
    "paper_platforms",
]
