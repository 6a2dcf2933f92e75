"""Zero-bubble B–W-split periodic patterns for contiguous allocations.

The classic 1F1B\\* construction treats a stage's backward as one
monolithic op of duration ``u_b``.  Splitting it — grad-input ``B``
(duration ``d_B``, on the critical path towards earlier stages) and
grad-weight ``W`` (duration ``d_W = u_b − d_B``, no downstream
dependents) — shortens the backward chain of every group "V" from
``Σ u_b`` to ``Σ d_B``, as in the zero-bubble schedulers (ZB-H1) and
2BP.  In the periodic model this means groups merge at smaller periods:
a stage in group ``g`` stores ``g`` activation copies, so at a tight
memory budget the split family reaches a *smaller feasible period* than
1F1B\\* by trading one boundary-sized grad-input buffer per stage
(``ĝ_s = a_end``, held from B start to W completion) for a whole
activation set (``ā_s``, typically ≫ ``ĝ_s``).

Construction (the ZB-H1-style ``auto_schedule`` analogue for periodic
patterns): items (stages ∪ cut boundaries) are grouped back-to-front
greedily on the *V-load* ``u_f + d_B`` under two fit conditions — the
group's V-load total fits in ``T``, and for every stage item ``i`` the
suffix ``Σ_{k∈group, k≥i} (u_f_k + d_B_k) + d_W_i ≤ T`` so that ``W_i``
placed immediately after ``B_i`` still clears the next period's
``F_i``.  Each group schedules forwards in chain order back-to-back,
then grad-input backwards in reverse order back-to-back, with ``W_i``
directly after ``B_i`` on the same GPU at the same shift.  Validity
follows the 1F1B\\* argument (cross-group backward slack is
``T − Σ_{k∈group} (u_f_k + d_B_k) ≥ 0``); every produced pattern also
passes the full analytic validator and the discrete-event certification
gate downstream.

There is one contiguous period search for both families, in
:mod:`repro.algorithms.onef1b`; this family is its W-tail variant.
Candidate periods are the greedy grouping's breakpoints — contiguous
V-load range sums ``S(a, b)`` plus ``S(a, b) + d_W_a`` — and per-GPU
memory ``(3W + g·ā) + buffers + ĝ`` is non-increasing in ``T``, so the
first feasible candidate is the answer.  The entry points below are that
search, builder and grouping under the zero-bubble family.
"""

from __future__ import annotations

import numpy as np

from ..core.chain import Chain
from ..core.partition import Allocation, Partitioning
from ..core.pattern import SPLIT_FRACTION, PeriodicPattern
from ..core.platform import Platform
from .onef1b import FAMILIES, OneF1BResult, _build_pattern, _search, assign_groups_kernel

__all__ = [
    "SPLIT_FRACTION",
    "ZeroBubbleResult",
    "assign_groups_zb",
    "build_pattern_zb",
    "min_feasible_period_zb",
]

_FAMILY = FAMILIES["zero_bubble"]

#: Outcome of the zero-bubble minimal-feasible-period search.
ZeroBubbleResult = OneF1BResult


def assign_groups_zb(
    v_loads: list[float], d_ws: list[float], period: float
) -> list[int]:
    """Group index (1 = last group) per item, back-to-front greedy.

    A group absorbs earlier items while (a) its total V-load stays
    ≤ ``period`` and (b) for the item being added, the group's current
    V-load suffix plus the item's grad-weight tail stays ≤ ``period``.
    A single item violating both as a singleton makes the period
    infeasible (``ValueError``).
    """
    rows = assign_groups_kernel(v_loads, period, np.asarray(d_ws, dtype=float))
    return [int(g) for g in rows[0]]


def build_pattern_zb(
    chain: Chain, platform: Platform, allocation: Allocation, period: float
) -> PeriodicPattern:
    """The zero-bubble split-backward pattern of a contiguous allocation
    at ``period``; see :func:`repro.algorithms.onef1b.build_pattern`."""
    return _build_pattern(chain, platform, allocation, period, _FAMILY)


def min_feasible_period_zb(
    chain: Chain,
    platform: Platform,
    partitioning: Partitioning,
    *,
    build: bool = True,
) -> ZeroBubbleResult | None:
    """Smallest period at which the zero-bubble split-backward schedule of
    ``partitioning`` fits in memory on every GPU; ``None`` if none works.

    The search of :func:`repro.algorithms.onef1b.min_feasible_period`
    under this family: a ``zero_bubble.period_search`` span and
    ``zero_bubble.*`` counters.
    """
    return _search(_FAMILY, chain, platform, partitioning, build)
