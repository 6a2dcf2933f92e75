"""1F1B\\* — optimal periodic pattern for a contiguous allocation (paper §4.1).

Given a contiguous partitioning and a feasible period ``T``, the algorithm
builds the pattern using the fewest active batches on every GPU among all
valid periodic patterns (Proposition 1):

1. communications are turned into pseudo-layers of duration
   ``C(l) = 2 a_l/β`` (forward half ``a_l/β``, backward half ``a_l/β``),
   giving at most ``2P − 1`` *items* on as many resources;
2. items are grouped from the back: a group absorbs preceding items while
   its total load stays ≤ ``T``;
3. each group is scheduled as a "V": forwards in chain order back-to-back,
   then backwards in reverse order back-to-back; groups are connected at
   the forward chain, and starting times ≥ ``T`` wrap (shift += 1).

A stage in group ``g`` stores exactly ``g`` activation copies, so the
minimal feasible period of a partitioning is the smallest ``T`` (at least
the bottleneck load) whose induced groups fit in memory everywhere.

This module holds the one contiguous period search of both schedule
families.  The zero-bubble family (:mod:`repro.algorithms.zero_bubble`)
is the same construction with each stage's backward split into
``d_B + d_W``: items group on their V-load ``u_f + d_B``, a group's fit
test also checks the W tail ``d_W`` of the item it absorbs, and memory
adds one grad-input buffer ``ĝ = a_end`` per stage.  For 1F1B\\* the tail
and ``ĝ`` are absent, so both families share the grouping kernel, the
search, the pattern builder and the instrumented wrapper.

The minimal-period search is the inner loop of every contiguous planner
(``pipedream``, ``best_contiguous``, MadPipe's contiguous fallback), so it
is implemented as a NumPy kernel: candidate periods come from prefix-sum
range sums, group assignment runs batched across *all* candidates at once,
and per-processor memory is evaluated vectorized from the chain's cached
prefix arrays.  The original pure-Python 1F1B\\* implementation is
preserved in ``tests/oracles/onef1b_reference.py`` and golden tests pin
the kernel to it bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.chain import Chain
from ..core.memory import stage_memory_terms
from ..obs.metrics import active_metrics
from ..obs.trace import active_trace
from ..core.partition import Allocation, Partitioning
from ..core.pattern import B, CB, CF, F, W, Op, PeriodicPattern, allocation_ops, split_backward
from ..core.platform import Platform

__all__ = [
    "GROUP_FIT_RTOL",
    "CANDIDATE_ATOL",
    "MEMORY_FIT_RTOL",
    "SCHEDULE_FAMILIES",
    "Item",
    "extended_items",
    "assign_groups",
    "assign_groups_kernel",
    "build_pattern",
    "contiguous_search",
    "min_feasible_period",
    "OneF1BResult",
]

# Feasibility tolerances, shared by the NumPy kernel and the reference
# implementation (tests/oracles/onef1b_reference.py) so both make bit-identical decisions.
#: Relative slack when packing items into a group: a group fits in ``T``
#: when its load is ≤ ``T·(1 + GROUP_FIT_RTOL)``.
GROUP_FIT_RTOL = 1e-12
#: Absolute slack when generating 1F1B\\* candidate periods: a range sum
#: counts as a candidate when it is ≥ ``lower − CANDIDATE_ATOL``.
CANDIDATE_ATOL = 1e-15
#: Relative slack of the per-GPU memory check: a schedule fits when every
#: processor uses ≤ ``capacity·(1 + MEMORY_FIT_RTOL)`` bytes.
MEMORY_FIT_RTOL = 1e-9


@dataclass(frozen=True)
class Family:
    """What sets a contiguous schedule family apart inside the one search."""

    #: construction name in errors and MadPipe's notes
    label: str
    #: prefix of the period-search span and counters
    obs: str
    #: split each stage's backward into ``B`` + ``W`` (with a W tail in
    #: the grouping and a grad-input buffer ``ĝ = a_end`` in memory)
    split: bool
    #: candidate periods are kept down to ``lower − candidate_atol``
    candidate_atol: float


#: The schedule families, by ``schedule_family`` name: the paper's
#: monolithic backward and the zero-bubble B–W split.  The family selects
#: phase 2's contiguous construction and the MILP formulation; phase 1's
#: partition search is family-agnostic.
FAMILIES = {
    "1f1b": Family("1F1B*", "onef1b", split=False, candidate_atol=CANDIDATE_ATOL),
    "zero_bubble": Family("zero-bubble", "zero_bubble", split=True, candidate_atol=0.0),
}
SCHEDULE_FAMILIES = tuple(FAMILIES)


def contiguous_search(family: str):
    """The public minimal-period search of schedule ``family``:
    :func:`min_feasible_period` or
    :func:`~repro.algorithms.zero_bubble.min_feasible_period_zb`.

    Both are read from their module at call time, so a caller gets the
    binding in force then (the ledger's timers replace them in place).
    """
    if family not in FAMILIES:
        raise ValueError(
            f"unknown schedule family {family!r}; expected one of {SCHEDULE_FAMILIES}"
        )
    if family == "1f1b":
        return min_feasible_period
    from . import zero_bubble

    return zero_bubble.min_feasible_period_zb


@dataclass(frozen=True)
class Item:
    """One resource of the transformed chain: a compute stage or a
    communication boundary."""

    kind: str  # "stage" or "comm"
    index: int  # stage index, or boundary index (cut after stage `index`)
    u_f: float
    u_b: float

    @property
    def load(self) -> float:
        return self.u_f + self.u_b


def extended_items(
    chain: Chain, platform: Platform, allocation: Allocation
) -> list[Item]:
    """The ≤ 2N−1 items of the transformed chain (stages ∪ cut
    boundaries), in chain order, read from the allocation's
    :func:`~repro.core.pattern.allocation_ops`."""
    ops = allocation_ops(chain, platform, allocation, split=False)
    items: list[Item] = []
    for i in range(allocation.n_stages):
        items.append(Item("stage", i, ops[(F, i)][0], ops[(B, i)][0]))
        if (CF, i) in ops:
            items.append(Item("comm", i, ops[(CF, i)][0], ops[(CB, i)][0]))
    return items


def assign_groups_kernel(
    loads: np.ndarray, periods: np.ndarray, tails: np.ndarray | None = None
) -> np.ndarray:
    """Batched greedy grouping: group index per item for *every* period.

    ``loads`` has shape ``(n,)``; ``periods`` shape ``(m,)``.  Returns an
    ``(m, n)`` int array where row ``c`` equals the reference
    ``assign_groups(items, periods[c])``.  The scan walks the items once,
    back to front, carrying the per-period accumulator and group counter as
    vectors — each period's accumulation performs the exact float additions
    of the scalar loop, so rows are bit-identical to the reference.

    ``tails`` (zero-bubble) is each item's W tail: an item joins the
    group only if the group's load with it, plus its tail, also fits
    (so ``W_i`` run right after ``B_i`` clears the next period's
    ``F_i``).  Without tails this is exactly the 1F1B\\* grouping.

    Raises ``ValueError`` when any single load (plus tail) exceeds the
    smallest period's threshold (the reference raises on that period too).
    """
    loads = np.asarray(loads, dtype=float)
    periods = np.atleast_1d(np.asarray(periods, dtype=float))
    n, m = loads.size, periods.size
    out = np.empty((n, m), dtype=np.int64)
    if n == 0:
        return out.T
    thresh = periods * (1 + GROUP_FIT_RTOL)
    alone = loads if tails is None else loads + tails
    if alone.max() > thresh.min():
        raise ValueError(
            f"item load {alone.max():.4g} exceeds period {periods.min():.4g}"
        )
    loads_l = loads.tolist()
    tails_l = None if tails is None else tails.tolist()
    g = np.ones(m, dtype=np.int64)
    acc, grown = np.zeros(m), np.empty(m)
    over = np.empty(m, dtype=bool)
    for i in range(n - 1, -1, -1):
        # grown = acc + load is both the overflow test and (when it fits)
        # the new accumulator — exactly the scalar loop's additions
        np.add(acc, loads_l[i], out=grown)
        if tails_l is None:
            np.greater(grown, thresh, out=over)
        else:
            # tails are ≥ 0, so "grown + tail fits" implies "grown fits"
            np.greater(grown + tails_l[i], thresh, out=over)
        g += over
        out[i] = g
        np.copyto(grown, loads_l[i], where=over)  # an overflow opens a group
        acc, grown = grown, acc
    return out.T


def assign_groups(items: list[Item], period: float) -> list[int]:
    """Group index (1 = last group, as in the paper) per item.

    Built iteratively from the last item; a group absorbs earlier items
    while its total load stays ≤ ``period``.  Any single item with load
    > ``period`` makes the period infeasible (ValueError).
    """
    return _item_groups(items, period, FAMILIES["1f1b"])


def _item_groups(items: list[Item], period: float, family: Family) -> list[int]:
    """:func:`assign_groups` under ``family``, whose V-loads and W tails
    come from :func:`_split`."""
    if not items:
        return []
    loads, tails = _split(
        np.fromiter((it.u_f for it in items), dtype=float, count=len(items)),
        np.fromiter((it.u_b for it in items), dtype=float, count=len(items)),
        np.fromiter((it.kind == "stage" for it in items), dtype=bool, count=len(items)),
        family,
    )
    alone = loads if tails is None else loads + tails
    thresh = period * (1 + GROUP_FIT_RTOL)
    if alone.max() > thresh:
        # the backward scan of the reference hits the highest-index
        # oversized item first — report that one
        i = int(np.nonzero(alone > thresh)[0].max())
        raise ValueError(
            f"item {items[i].kind}{items[i].index} load {alone[i]:.4g} "
            f"exceeds period {period:.4g}"
        )
    row = assign_groups_kernel(loads, np.array([period]), tails)[0]
    return [int(g) for g in row]


def _split(
    u_f: np.ndarray, u_b: np.ndarray, stages, family: Family
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-item V-loads and W tails of ``family``; ``stages`` indexes the
    stage items among all items (the rest are comm boundaries).

    1F1B\\*: the V-load is the whole load ``u_f + u_b`` and there is no
    tail.  Zero-bubble: a stage contributes ``u_f + d_B`` and trails
    ``d_W``; a comm boundary keeps its whole load and a zero tail.
    """
    loads = u_f + u_b
    if not family.split:
        return loads, None
    d_b, d_w = split_backward(u_b[stages])
    loads[stages] = u_f[stages] + d_b
    tails = np.zeros(loads.size)
    tails[stages] = d_w
    return loads, tails


def build_pattern(
    chain: Chain,
    platform: Platform,
    allocation: Allocation,
    period: float,
) -> PeriodicPattern:
    """Construct the 1F1B\\* pattern for a contiguous allocation.

    Raises ``ValueError`` when the period is below the bottleneck load.
    The caller is responsible for checking memory feasibility (see
    :func:`min_feasible_period`).
    """
    return _build_pattern(chain, platform, allocation, period, FAMILIES["1f1b"])


def _build_pattern(
    chain: Chain,
    platform: Platform,
    allocation: Allocation,
    period: float,
    family: Family,
) -> PeriodicPattern:
    """:func:`build_pattern` under ``family``: a split family follows each
    stage's grad-input ``B`` with its grad-weight ``W`` on the same GPU
    at the same shift."""
    if not allocation.is_contiguous():
        raise ValueError(f"{family.label} requires a contiguous allocation")
    ops = allocation_ops(chain, platform, allocation, split=family.split)
    items = extended_items(chain, platform, allocation)
    groups = _item_groups(items, period, family)

    pattern = PeriodicPattern(allocation=allocation, period=period)
    t = 0.0
    # walk groups from the front of the chain (largest group number first)
    i = 0
    while i < len(items):
        g = groups[i]
        j = i
        while j < len(items) and groups[j] == g:
            j += 1
        # forwards of items[i:j]
        tf = t
        for item in items[i:j]:
            kind = F if item.kind == "stage" else CF
            d, res = ops[(kind, item.index)]
            pattern.add(Op(kind, item.index, res, tf, d, 0))
            tf += d
        # backwards immediately after, reverse order, shift g-1; a split
        # stage's W runs right after its B, off the backward chain
        tb = tf
        for item in reversed(items[i:j]):
            kind = B if item.kind == "stage" else CB
            d, res = ops[(kind, item.index)]
            pattern.add(Op(kind, item.index, res, tb, d, g - 1))
            if kind == B and family.split:
                d_w, _ = ops[(W, item.index)]
                pattern.add(Op(W, item.index, res, tb + d, d_w, g - 1))
            tb += d
        t = tf  # next group's forwards connect right after our last forward
        i = j
    pattern.normalize()
    return pattern


# small per-size cache for the hot enumeration loops (best_contiguous
# calls min_feasible_period thousands of times on tiny item counts)
_TRI_CACHE: dict[int, np.ndarray] = {}


def _upper_triangle(n: int) -> np.ndarray:
    tri = _TRI_CACHE.get(n)
    if tri is None:
        tri = np.arange(n) >= np.arange(n)[:, None]
        _TRI_CACHE[n] = tri
    return tri


@dataclass
class OneF1BResult:
    """Outcome of the minimal-feasible-period search (either family)."""

    period: float
    pattern: PeriodicPattern | None
    groups: dict[int, int]  # stage index -> group number
    memory: dict[int, float]  # processor -> bytes used (analytic, §4.2.1)


def min_feasible_period(
    chain: Chain,
    platform: Platform,
    partitioning: Partitioning,
    *,
    build: bool = True,
) -> OneF1BResult | None:
    """Smallest period at which the 1F1B\\* schedule of ``partitioning``
    fits in memory on every GPU; ``None`` if no period works.

    Instrumented: emits a ``onef1b.period_search`` span and
    ``onef1b.searches`` counter when tracing/metrics are active.  This
    is the innermost loop of every contiguous planner, so the disabled
    path is two context-variable reads before any span machinery runs.
    """
    return _search(FAMILIES["1f1b"], chain, platform, partitioning, build)


def _search(
    family: Family,
    chain: Chain,
    platform: Platform,
    partitioning: Partitioning,
    build: bool,
) -> OneF1BResult | None:
    """The instrumented search of ``family``; see
    :func:`min_feasible_period`.  Span and counter names carry the
    family's ``obs`` prefix."""
    tr = active_trace()
    reg = active_metrics()
    if reg is not None:
        reg.inc(f"{family.obs}.searches")
    if tr is None:
        res = _period_search(family, chain, platform, partitioning, build)
    else:
        with tr.span(
            f"{family.obs}.period_search", n_stages=partitioning.n_stages, build=build
        ) as sp:
            res = _period_search(family, chain, platform, partitioning, build)
            sp.set(
                feasible=res is not None,
                period=res.period if res is not None else None,
            )
    if res is not None and reg is not None:
        reg.inc(f"{family.obs}.feasible")
    return res


def _period_search(
    family: Family,
    chain: Chain,
    platform: Platform,
    partitioning: Partitioning,
    build: bool,
) -> OneF1BResult | None:
    """The uninstrumented search; see :func:`min_feasible_period`.

    Candidate periods are the group-structure breakpoints: sums of item
    V-loads over contiguous item ranges (grouping only changes there),
    for a split family also each such sum plus its first item's W tail
    (where the tail test flips), plus the bottleneck lower bound
    ``max(u_f + u_b, c_f + c_b)``.  Increasing T can only merge groups,
    so memory usage is non-increasing in T and the first feasible
    candidate is the answer.

    Vectorized: stage loads come from the chain's cached prefix arrays and
    memory terms from :func:`~repro.core.memory.stage_memory_terms` (O(1)
    per stage), candidates from one masked 2-D
    ``cumsum``, group assignment from the batched kernel across all
    candidates, and memory feasibility from one array comparison — for
    1F1B\\* all with float arithmetic identical to
    ``min_feasible_period_reference`` (``tests/oracles/onef1b_reference.py``).

    Two early exits bracket the batched scan, both justified by memory
    monotonicity (greedy domination: raising ``T`` can only merge groups,
    so every stage's group count — hence every GPU's memory — is
    non-increasing in ``T``): if the smallest candidate fits, it is the
    answer; if the largest does not, none does.
    """
    if partitioning.n_stages > platform.n_procs:
        raise ValueError("more stages than processors")
    n_stages = partitioning.n_stages
    ends = np.fromiter(
        (s.end for s in partitioning.stages), dtype=np.int64, count=n_stages
    )
    starts = np.empty(n_stages, dtype=np.int64)
    starts[0] = 1
    starts[1:] = ends[:-1] + 1

    # item arrays, interleaved [stage 0, comm 0, stage 1, …, stage S−1]:
    # a contiguous allocation has a comm boundary after every stage but the
    # last, matching extended_items order
    n_items = 2 * n_stages - 1
    half = chain.activation_values(ends[:-1]) / platform.bandwidth
    u_f = np.empty(n_items)
    u_b = np.empty(n_items)
    u_f[0::2] = chain.u_f_ranges(starts, ends)
    u_b[0::2] = chain.u_b_ranges(starts, ends)
    u_f[1::2] = u_b[1::2] = half
    loads, tails = _split(u_f, u_b, np.s_[0::2], family)
    lower = float((u_f + u_b).max())
    alone = loads if tails is None else loads + tails

    # candidate periods: contiguous range sums ≥ lower (− the family's
    # atol), plus lower.  Row a of the masked cumsum accumulates loads[a:]
    # with the same left-to-right additions as a scalar loop (the leading
    # zeros are exact), so sums match the reference float-for-float.
    tri = _upper_triangle(n_items)
    sums = np.cumsum(np.where(tri, loads, 0.0), axis=1)
    cands = sums[tri]
    if tails is not None:
        cands = np.concatenate((cands, (sums + tails[:, None])[tri]))
    periods = np.unique(
        np.concatenate(([lower], cands[cands >= lower - family.candidate_atol]))
    )

    # The smallest 1F1B* candidate can sit CANDIDATE_ATOL below the
    # bottleneck load; the reference then raises out of assign_groups while
    # scanning it — replicate that exactly (larger candidates can never
    # raise).
    thresh0 = periods[0] * (1 + GROUP_FIT_RTOL)
    if alone.max() > thresh0:
        i = int(np.nonzero(alone > thresh0)[0].max())
        kind = "stage" if i % 2 == 0 else "comm"
        raise ValueError(
            f"item {kind}{i // 2} load {alone[i]:.4g} "
            f"exceeds period {float(periods[0]):.4g}"
        )

    # memory terms of MemoryBreakdown, as arrays over stages; the total is
    # evaluated in the breakdown's float order: (weights + activations) +
    # buffers, then a split family adds one grad-input buffer ĝ = a_end
    # (Stage.grad_buffer) per stage
    w3, abar, b_in, b_out = stage_memory_terms(chain, starts, ends)
    buf = b_in + b_out
    ghat = chain.activation_values(ends) if family.split else np.zeros(n_stages)
    cap = platform.memory * (1 + MEMORY_FIT_RTOL)

    # scalar single-candidate probe (same IEEE-double ops as the kernel;
    # a zero tail and a zero ĝ add nothing)
    loads_l, w3_l, abar_l, buf_l, ghat_l = (
        loads.tolist(), w3.tolist(), abar.tolist(), buf.tolist(), ghat.tolist()
    )
    tails_l = [0.0] * n_items if tails is None else tails.tolist()

    def probe(T: float) -> tuple[bool, list[int]]:
        thresh = T * (1 + GROUP_FIT_RTOL)
        g, acc = 1, 0.0
        gs = [0] * n_stages
        for i in range(n_items - 1, -1, -1):
            grown = acc + loads_l[i]
            if grown + tails_l[i] > thresh:
                g += 1
                acc = loads_l[i]
            else:
                acc = grown
            if i % 2 == 0:
                gs[i // 2] = g
        ok = all(
            (w3_l[i] + gs[i] * abar_l[i]) + buf_l[i] + ghat_l[i] <= cap
            for i in range(n_stages)
        )
        return ok, gs

    m = periods.size
    ok, gs = probe(float(periods[0]))
    if ok:
        k, stage_groups = 0, gs
    elif m == 1:
        return None
    else:
        ok, gs = probe(float(periods[-1]))
        if not ok:
            return None  # memory is monotone in T: nothing larger helps
        k, stage_groups = m - 1, gs
        if m > 2:
            # the boundary lies strictly inside: batch the interior scan
            rows = assign_groups_kernel(loads, periods[1:-1], tails)[:, 0::2]
            mem = (w3 + rows * abar) + buf + ghat  # (m−2, n_stages)
            hits = np.nonzero((mem <= cap).all(axis=1))[0]
            if hits.size:
                j = int(hits[0])
                k, stage_groups = 1 + j, [int(g) for g in rows[j]]

    T = float(periods[k])
    # Allocation.contiguous puts stage i on processor i, so per-stage
    # memory is per-processor memory
    mem = (w3 + np.asarray(stage_groups, dtype=np.int64) * abar) + buf + ghat
    pattern = (
        _build_pattern(chain, platform, Allocation.contiguous(partitioning), T, family)
        if build
        else None
    )
    return OneF1BResult(
        period=T,
        pattern=pattern,
        groups={i: int(g) for i, g in enumerate(stage_groups)},
        memory={i: float(mem[i]) for i in range(n_stages)},
    )

