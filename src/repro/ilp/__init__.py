"""Phase-2 scheduling ILP (periodic pattern MILP on HiGHS)."""

from .formulation import MilpSkeleton, ScheduleMILP, build_milp, build_skeleton
from .solver import (
    ILPScheduleResult,
    ProbeRecord,
    schedule_allocation,
    solve_fixed_period,
)

__all__ = [
    "MilpSkeleton",
    "ScheduleMILP",
    "build_milp",
    "build_skeleton",
    "ILPScheduleResult",
    "ProbeRecord",
    "schedule_allocation",
    "solve_fixed_period",
]
