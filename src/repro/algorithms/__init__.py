"""Scheduling algorithms: 1F1B*, PipeDream baseline, MadPipe, GPipe."""

from .gpipe import GPipeResult, gpipe, gpipe_period
from .madpipe import SCHEDULE_FAMILIES, MadPipeResult, madpipe
from .madpipe_dp import (
    Algorithm1Result,
    Discretization,
    DPAllocation,
    MadPipeDPResult,
    algorithm1,
    madpipe_dp,
)
from .onef1b import OneF1BResult, build_pattern, min_feasible_period
from .pipedream import PipeDreamResult, pipedream, pipedream_partition
from .zero_bubble import ZeroBubbleResult, build_pattern_zb, min_feasible_period_zb

__all__ = [
    "GPipeResult",
    "gpipe",
    "gpipe_period",
    "MadPipeResult",
    "SCHEDULE_FAMILIES",
    "madpipe",
    "Algorithm1Result",
    "Discretization",
    "DPAllocation",
    "MadPipeDPResult",
    "algorithm1",
    "madpipe_dp",
    "OneF1BResult",
    "build_pattern",
    "min_feasible_period",
    "PipeDreamResult",
    "pipedream",
    "pipedream_partition",
    "ZeroBubbleResult",
    "build_pattern_zb",
    "min_feasible_period_zb",
]
