"""JSON serialization of allocations and periodic patterns.

The optimizer runs once per (network, machine); training jobs then need
the decisions in a durable, tool-agnostic form.  ``pattern_to_dict`` /
``pattern_from_dict`` round-trip everything a runtime needs: the stage
partitioning, the stage→GPU map, and per-operation (resource, start,
duration, shift).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from .partition import Allocation, Partitioning, Stage
from .pattern import Op, PeriodicPattern

__all__ = [
    "allocation_to_dict",
    "allocation_from_dict",
    "pattern_to_dict",
    "pattern_from_dict",
    "save_pattern",
    "load_pattern",
]


def allocation_to_dict(allocation: Allocation) -> dict:
    return {
        "stages": [[s.start, s.end] for s in allocation.stages],
        "procs": list(allocation.procs),
    }


def allocation_from_dict(data: dict) -> Allocation:
    stages = tuple(Stage(int(a), int(b)) for a, b in data["stages"])
    return Allocation(Partitioning(stages), tuple(int(p) for p in data["procs"]))


def pattern_to_dict(pattern: PeriodicPattern) -> dict:
    return {
        "period": pattern.period,
        "allocation": allocation_to_dict(pattern.allocation),
        "ops": [
            {
                "kind": op.kind,
                "index": op.index,
                "resource": list(op.resource),
                "start": op.start,
                "duration": op.duration,
                "shift": op.shift,
            }
            for op in pattern.ops.values()
        ],
    }


def pattern_from_dict(data: dict) -> PeriodicPattern:
    pattern = PeriodicPattern(
        allocation=allocation_from_dict(data["allocation"]),
        period=float(data["period"]),
    )
    # kinds and resource tags are interned: a store of decoded plans
    # would otherwise hold one copy of each per op
    for o in data["ops"]:
        tag, *ids = o["resource"]
        resource = (sys.intern(tag), *(int(x) for x in ids))
        pattern.add(
            Op(
                kind=sys.intern(o["kind"]),
                index=int(o["index"]),
                resource=resource,
                start=float(o["start"]),
                duration=float(o["duration"]),
                shift=int(o["shift"]),
            )
        )
    return pattern


def save_pattern(pattern: PeriodicPattern, path: str | Path) -> None:
    """Write a schedule to ``path`` as JSON."""
    Path(path).write_text(json.dumps(pattern_to_dict(pattern), indent=1))


def load_pattern(path: str | Path) -> PeriodicPattern:
    """Read a schedule written by :func:`save_pattern`."""
    return pattern_from_dict(json.loads(Path(path).read_text()))
