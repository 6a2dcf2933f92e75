"""MadPipe phase 1 — memory-aware DP for non-contiguous allocations (§4.2).

The dynamic program allocates the chain back-to-front into stages.  All
processors are *normal* (one stage each) except one *special* processor
that may receive any number of stages.  The state is

``T(l, p, t_P, m_P, V)`` — the smallest achievable period for the first
``l`` layers on ``p`` remaining normal processors, given that the special
processor already carries compute load ``t_P`` and memory ``m_P``, and
that at least ``V`` seconds elapse between the end of ``F_l`` and the
start of ``B_l`` for one batch.

Memory is estimated against a *target* period ``T̂`` via the 1F1B\\*
analysis: a stage ``k..l`` whose forward→backward delay is ``V`` keeps
``g(k,l,V) = ⌈(V + U(k,l))/T̂⌉`` activation copies (``g − 1`` on the
special processor — a deliberate under-estimate, repaired by the phase-2
ILP).  Delays propagate through the group-rounding operator

``x ⊕ y = x + y``                     if ``⌈x/T̂⌉ = ⌈(x+y)/T̂⌉``
``x ⊕ y = T̂·⌈x/T̂⌉ + y``              otherwise.

Algorithm 1 then binary-searches the target ``T̂`` for
``min max(MadPipe-DP(T̂), T̂)``.

The continuous coordinates ``t_P``, ``m_P``, ``V`` are snapped to a
:class:`Discretization` grid (the paper uses 101 × 11 × 51 points).

Implementation
--------------
The DP is evaluated *iteratively* and *vectorized* — there is no Python
recursion and no ``sys.setrecursionlimit``.  Every transition moves to a
strictly smaller layer index ``l``, so the state graph is stratified by
``l`` and solved one *level* (all states sharing ``l``) at a time.  Two
kernels do this; :func:`madpipe_dp` picks one by ``allow_special``.
Both are bit-identical to ``madpipe_dp_reference``
(``tests/oracles/madpipe_dp_reference.py``), ``states`` included: the
number of grid states reachable from the root, exactly the states the
memoized recursion evaluates.

Every float quantity of a ``(state, k)`` candidate depends on one grid
coordinate and the cut ``k`` only: ``V ⊕ U(k,l) ⊕ C``, ``g``,
``mem(k,l,g)`` and the snapped ``iv2`` on ``iv``; ``t_P + U``, ``it2``
and ``max(t_P + U, C)`` on ``it``; ``m_P + mem(k,l,g−1)`` and ``im2`` on
``(im, iv)``.  Both kernels compute these once per probe as small
*coordinate tables*, with the same operations on the same operands as a
per-state evaluation.  ``U(k,l)`` never decreases as the cut moves left
and ``t_P ≥ 0``, so only each level's first ``jm`` cuts, those with
``U(k,l)`` under the period cap, can yield a candidate: the tables cover
those columns only.  First-minimum ``argmin`` over candidates ordered
``k = l … 1`` (normal before special) reproduces the naive scan's
tie-breaking.  The pruning counters count one per rejected ``(state,
k)`` candidate of a reachable state.

**With the special processor** (:class:`_LevelDP`), states are packed
into one integer key ``((((l·(P+1) + p)·n_t + it)·n_m + im)·n_v + iv``
and only reachable ones are touched:

1. a **downward reachability sweep** (``l = L … 1``) expands whole
   levels as 2-D ``(state, k)`` arrays, scattering the valid children
   into one flat bitmap over the packed key space, so each level's
   sorted key array is a single ``flatnonzero``;
2. a **closing check** (:meth:`_LevelDP.closes`) decides feasibility
   from reachability alone, and an infeasible probe stops here;
3. an **upward value sweep** (``l = 1 … L``) re-expands each reachable
   level, gathers child values from a dense value table over the packed
   key space (level 0 is prefilled closed-form; lower levels are solved
   first) and reduces the interleaved ``(normal, special)`` candidate
   matrix with one ``argmin`` per level.

A level's tables (``n_v × jm``, ``n_t × jm``, ``n_m·n_v × jm``) are
built on first use and expanded by row gathers plus packed-key offsets.

The closing check is exact.  A state's value is a min over its valid
candidates of the max of finite local costs and its child's value, so
the root's value is finite exactly when a path of valid candidates leads
from it to a *closing* state: a level-0 state (``T(0, ·)`` is the
special processor's finite load), or a ``p == 0`` state whose
single-stage base case fits in memory.  The reachability sweep scatters
exactly the valid candidates, so the level-0 segment of its bitmap plus
the reachable ``p == 0`` states' base cases decide it without reading a
value.  ``states`` and both pruning counters come from the reachability
sweep, so skipping the value sweep changes no field of the result.  Most
low-``T̂`` and bracketed probes are infeasible, and the value sweep is
about half of a probe.

**Without the special processor** (:func:`_contiguous`), every state
keeps ``it = im = 0``, so the DP lives on ``(l, p, iv)``: at most
``(P+1)·n_v`` states per level.  The kernel builds one probe's tables
for all levels at once, in whole-array operations over the kept cuts;
a downward pass over the reachable states counts ``states`` and the
pruned candidates first, and ends the probe when no level-0 state is
reachable (a ``p == 0`` state with layers left cannot close the chain
without the special processor, so level 0 is the only closing level).
Otherwise one upward loop fills a dense ``(L+1, P+1, n_v)`` value table,
one gather and one ``argmin``/``min`` over a ``(P, n_v, jm)`` candidate
matrix per level, and the traceback reads the stored ``argmin``
decisions.  Its values are those of every grid state, which equal the
reachable ones' exactly, since a state's value depends on the state
alone.

The tables that depend on neither ``T̂``, the period cap nor the memory
capacity (``V + U``; ``t_P + U``, its snapped and packed ``it2`` and
``max(t_P + U, C)``; the contiguous kernel's per-cut constants) live in
a *workspace* dict that one :func:`algorithm1` search shares across its
probes and a warm-start context shares across searches and instances.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .. import obs
from ..core.chain import Chain
from ..core.partition import Allocation, Partitioning, Stage
from ..core.platform import Platform
from ..warmstart import active_warm, chain_fingerprint

__all__ = [
    "Discretization",
    "DPAllocation",
    "madpipe_dp",
    "MadPipeDPResult",
    "algorithm1",
]

INF = float("inf")
_EPS = 1e-9

_NO_CHILD = -1  # decision sentinel: stage closes the chain (p == 0 base)
_NO_DEC = -2  # decision sentinel: state is infeasible


@dataclass(frozen=True)
class Discretization:
    """Grid sizes for the continuous DP coordinates (paper §5.1)."""

    n_t: int = 101  # special-processor load, over [0, U(1,L)]
    n_m: int = 11  # special-processor memory, over [0, M]
    n_v: int = 51  # forward→backward delay, over [0, U(1,L) + ΣC]

    def __post_init__(self) -> None:
        if min(self.n_t, self.n_m, self.n_v) < 2:
            raise ValueError("each grid needs at least 2 points")

    @classmethod
    def paper(cls) -> "Discretization":
        """The granularity used in the paper's experiments."""
        return cls(101, 11, 51)

    @classmethod
    def default(cls) -> "Discretization":
        """A good speed/quality trade-off for pure-Python runs."""
        return cls(51, 11, 31)

    @classmethod
    def coarse(cls) -> "Discretization":
        """Fast grid for tests and wide parameter sweeps."""
        return cls(25, 7, 15)


@dataclass(frozen=True)
class DPAllocation:
    """Decisions of one DP solution: stages in chain order, each flagged
    normal (own GPU) or special (shared GPU)."""

    stages: tuple[Stage, ...]
    special: tuple[bool, ...]

    def to_allocation(self, platform: Platform) -> Allocation:
        """Materialize on a platform: normal stages take GPUs ``0, 1, …``
        in chain order; all special stages share GPU ``P − 1``."""
        procs = []
        normal = 0
        for is_special in self.special:
            if is_special:
                procs.append(platform.n_procs - 1)
            else:
                procs.append(normal)
                normal += 1
        if normal > platform.n_procs - 1 and any(self.special):
            raise ValueError("allocation uses more normal GPUs than available")
        if normal > platform.n_procs:
            raise ValueError("allocation uses more GPUs than available")
        return Allocation(Partitioning(self.stages), tuple(procs))

    @property
    def n_stages(self) -> int:
        return len(self.stages)


@dataclass
class MadPipeDPResult:
    """Result of one ``MadPipe-DP(T̂)`` evaluation."""

    target: float  # T̂ used for the memory estimates
    dp_period: float  # load-based period of the returned allocation (T)
    allocation: DPAllocation | None
    states: int = 0  # reachable (evaluated) grid states (diagnostics)
    wall_time_s: float = 0.0  # solver wall time (diagnostics)
    pruned_cap: int = 0  # candidates rejected by the period cap
    pruned_mem: int = 0  # candidates rejected by the memory check
    # whether the value sweep ran: False when the reachability pass proved
    # that nothing closes the chain (diagnostics)
    swept: bool = True

    @property
    def effective_period(self) -> float:
        """max(T, T̂): a schedule needs T for load and T̂ for memory."""
        return max(self.dp_period, self.target)

    @property
    def feasible(self) -> bool:
        return self.allocation is not None


def _delay_tables(That, V_grid, v_step, VU, U, dw3, da, comm, b1, b2) -> tuple:
    """``g``, ``mem(k, l, g)`` and the snapped ``iv2`` of ``V ⊕ U(k,l) ⊕
    C(k-1)`` over ``(iv, cut)``, shaped like ``VU``; the other operands are
    per cut (``b2`` may be a scalar).  Both kernels build their ``iv``
    tables here, with the reference's float operations elementwise."""
    cVU = np.ceil(VU / That - 1e-9)
    g = np.maximum(cVU, 1.0)
    mem_g = dw3 + g * da
    mem_g += b1
    mem_g += b2
    # V2 = (V ⊕ U(k,l)) ⊕ C(k-1), elementwise group rounding
    cV = np.ceil(V_grid / That - 1e-9)[:, None]
    r1 = np.where(cV == cVU, VU, That * cV + U)
    cr1 = np.ceil(r1 / That - 1e-9)
    V2 = np.where(cr1 == np.ceil((r1 + comm) / That - 1e-9), r1 + comm, That * cr1 + comm)
    iv2 = np.minimum(np.ceil(V2 / v_step - 1e-9), len(V_grid) - 1).astype(np.int64)
    return g, mem_g, iv2


class _Rows(NamedTuple):
    """Level constants independent of ``T̂``, ``M`` and the cap (see
    :meth:`_LevelDP._static_rows`); ``(l,)`` rows over ``k = l … 1``."""

    U: np.ndarray  # U(k, l)
    dw3: np.ndarray  # 3·W(k, l)
    da: np.ndarray  # Σ a_{i-1} over k..l
    comm: np.ndarray  # C(k-1) = 2·a^{(k-1)}/β, zero at k == 1
    b1: np.ndarray  # first-boundary buffers 2·a^{(k-1)}
    b2: float  # last-boundary buffers 2·a^{(l)}
    local_n: np.ndarray  # max(U, C): a normal stage's local period
    kb: np.ndarray  # (k-1)·S_l
    VU: np.ndarray  # (n_v, l) V + U
    t2: np.ndarray  # (n_t, l) t_P + U
    kit2: np.ndarray  # (n_t, l) (k-1)·S_l + it2·S_t
    local_s: np.ndarray  # (n_t, l) max(t_P + U, C)


class _Tables(NamedTuple):
    """One probe's per-coordinate tables for one level (see
    :meth:`_LevelDP._tables`); every array has ``jm`` columns over the
    cuts ``k = l … l − jm + 1`` whose ``U(k, l)`` is under the cap."""

    valid_n: np.ndarray  # (n_v, jm) normal candidate passes cap and memory
    kiv2: np.ndarray  # (n_v, jm) (k-1)·S_l + iv2
    local_n: np.ndarray  # (jm,) max(U, C)
    cap_fail_n: int  # cuts over the period cap (same for every state)
    mem_fail_n: np.ndarray  # (n_v,) memory rejects among the cap passes
    cap_ok_s: np.ndarray  # (n_t, jm) t_P + U < cap
    cap_pass_s: np.ndarray  # (n_t,) row sums of cap_ok_s
    mem_ok_s: np.ndarray  # (n_m·n_v, jm) m_P + mem(g-1) fits
    imv2: np.ndarray  # (n_m·n_v, jm) im2·S_m + iv2
    kit2: np.ndarray  # (n_t, jm) (k-1)·S_l + it2·S_t
    local_s: np.ndarray  # (n_t, jm) max(t_P + U, C)


class _LevelDP:
    """One MadPipe-DP(T̂) evaluation with the special processor, batched
    level by level.

    Packed state key layout (most→least significant digit):
    ``l · S_l + p · S_p + it · S_t + im · S_m + iv``.
    """

    def __init__(
        self,
        chain: Chain,
        platform: Platform,
        target: float,
        grid: Discretization,
        period_cap: float,
        rows_cache: dict | None = None,
    ):
        self.L, self.P, self.M = chain.L, platform.n_procs, platform.memory
        self.beta = platform.bandwidth
        self.That = target
        self.cap = period_cap

        t_max = chain.total_compute()
        v_max = t_max + chain.total_comm(self.beta)
        self.t_step = t_max / (grid.n_t - 1)
        self.m_step = self.M / (grid.n_m - 1)
        self.v_step = v_max / (grid.n_v - 1)
        self.it_top = grid.n_t - 1
        self.im_top = grid.n_m - 1
        self.iv_top = grid.n_v - 1
        # coordinate values of the whole grid, as a per-state unpack
        # would compute them (int index × step)
        self.t_grid = np.arange(grid.n_t) * self.t_step
        self.m_grid = np.arange(grid.n_m) * self.m_step
        self.V_grid = np.arange(grid.n_v) * self.v_step

        # packed-key strides
        self.S_m = grid.n_v
        self.S_t = grid.n_m * self.S_m
        self.S_p = grid.n_t * self.S_t
        self.S_l = (self.P + 1) * self.S_p
        self.n_t = grid.n_t

        self.cumU = chain._cum_u
        self.cumW = chain._cum_w
        self.cumA = chain._cum_a_in
        self.act = chain._act

        # per-level static candidate rows, index j = l - k (k descending);
        # pure functions of (chain, beta, strides, grid), so a workspace may
        # share one dict across probes, searches and instances (keyed by l;
        # the contiguous kernel keeps its _Cuts there under _CUTS = 0).
        # Nothing that depends on M, the headroom, T̂ or the cap may go in.
        self._rows: dict = {} if rows_cache is None else rows_cache
        # this probe's per-coordinate tables, shared by discover and reduce
        self._tabs: dict[int, _Tables] = {}

        # per-level solved state: packed keys (sorted), values, decisions
        self.level_keys: list[np.ndarray | None] = [None] * (self.L + 1)
        self.level_vals: list[np.ndarray | None] = [None] * (self.L + 1)
        self.level_k: list[np.ndarray | None] = [None] * (self.L + 1)
        self.level_spec: list[np.ndarray | None] = [None] * (self.L + 1)
        self.level_child: list[np.ndarray | None] = [None] * (self.L + 1)

        self.states = 0
        self.pruned_cap = 0
        self.pruned_mem = 0
        self.reached_level0 = False
        self.swept = False  # whether solve() ran the value sweep

    # -- per-level tables ---------------------------------------------------

    def _static_rows(self, l: int) -> _Rows:
        """Candidate-stage constants for level ``l``: arrays over the cut
        layer ``k = l … 1`` (index ``j = l − k``), plus the per-coordinate
        tables that do not depend on ``T̂``, ``M`` or the period cap —
        ``V + U`` over the ``iv`` grid, and ``t_P + U``, its snapped
        ``it2`` (pre-packed with ``(k−1)·S_l``) and ``max(t_P + U, C)``
        over the ``it`` grid."""
        rows = self._rows.get(l)
        if rows is not None:
            return rows
        # cumU[k-1], cumW[k-1], cumA[k-1] for k = l..1  →  reversed prefixes
        U = self.cumU[l] - self.cumU[l - 1 :: -1]
        dw3 = 3.0 * (self.cumW[l] - self.cumW[l - 1 :: -1])
        da = self.cumA[l] - self.cumA[l - 1 :: -1]
        a_in = self.act[: l][::-1].copy()  # a^{(k-1)}, zeroed at k == 1
        a_in[l - 1] = 0.0
        comm = 2.0 * a_in / self.beta
        b1 = 2.0 * a_in  # first-boundary buffers (k > 1 only)
        b2 = 2.0 * self.act[l] if l < self.L else 0.0
        local_n = np.maximum(U, comm)
        kb = np.arange(l - 1, -1, -1, dtype=np.int64) * self.S_l  # (k-1)·S_l
        VU = self.V_grid[:, None] + U[None, :]  # (n_v, l)
        t2 = self.t_grid[:, None] + U[None, :]  # (n_t, l)
        it2 = np.minimum(np.ceil(t2 / self.t_step - 1e-9), self.it_top).astype(np.int64)
        kit2 = kb + it2 * self.S_t
        local_s = np.maximum(t2, comm)
        rows = _Rows(U, dw3, da, comm, b1, b2, local_n, kb, VU, t2, kit2, local_s)
        self._rows[l] = rows
        return rows

    def _tables(self, l: int) -> _Tables:
        """This probe's per-coordinate tables for level ``l``.

        Every float quantity of a ``(state, k)`` candidate depends on a
        single grid coordinate (``iv``, ``it`` or the ``(im, iv)`` pair)
        and the cut ``k``, so it is computed here once per coordinate —
        with the same operations on the same operands as a per-state
        evaluation, hence bit-identical — and :meth:`_expand` only
        gathers rows.  Built on first use and shared by both passes.

        ``U(k, l)`` never decreases along the cut index ``j = l − k`` and
        ``t_P ≥ 0``, so every candidate under the cap, normal or special,
        lies in the first ``jm = #{j : U < cap}`` columns: the tables
        cover only those (``jm = 0`` leaves every ``p ≥ 1`` state of the
        level infeasible).  The static rows are sliced, never rebuilt.
        """
        tab = self._tabs.get(l)
        if tab is not None:
            return tab
        rows = self._static_rows(l)
        That, cap, M = self.That, self.cap, self.M
        jm = int(np.count_nonzero(rows.U < cap))
        U, dw3, da, comm, b1 = (a[:jm] for a in rows[:5])
        b2, kb, VU, t2 = rows.b2, rows.kb[:jm], rows.VU[:, :jm], rows.t2[:, :jm]

        g, mem_g, iv2 = _delay_tables(
            That, self.V_grid, self.v_step, VU, U, dw3, da, comm, b1, b2
        )

        # normal processor: child (k-1, p-1, it, im, iv2); every kept cut
        # passes the cap, which also subsumes the naive loop's break
        mem_ok_n = mem_g <= M + _EPS
        # special processor: child (k-1, p, it2, im2, iv2); the (im, iv)
        # tables keep row im·n_v + iv
        mem_gm1 = dw3 + (g - 1.0) * da
        mem_gm1 += b1
        mem_gm1 += b2
        m2 = self.m_grid[:, None, None] + mem_gm1  # (n_m, n_v, l)
        im2 = np.minimum(np.ceil(m2 / self.m_step - 1e-9), self.im_top).astype(np.int64)
        cap_ok_s = t2 < cap
        tab = _Tables(
            valid_n=mem_ok_n,
            kiv2=kb + iv2,
            local_n=rows.local_n[:jm],
            cap_fail_n=l - jm,
            mem_fail_n=np.count_nonzero(~mem_ok_n, axis=1),
            cap_ok_s=cap_ok_s,
            cap_pass_s=np.count_nonzero(cap_ok_s, axis=1),
            mem_ok_s=(m2 <= M + _EPS).reshape(self.S_t, jm),
            imv2=(im2 * self.S_m + iv2).reshape(self.S_t, jm),
            kit2=np.ascontiguousarray(rows.kit2[:, :jm]),
            local_s=np.ascontiguousarray(rows.local_s[:, :jm]),
        )
        self._tabs[l] = tab
        return tab

    def _unpack(self, keys: np.ndarray) -> tuple:
        p = (keys // self.S_p) % (self.P + 1)
        it = (keys // self.S_t) % self.n_t
        im = (keys // self.S_m) % (self.S_t // self.S_m)
        iv = keys % self.S_m
        return p, it, im, iv

    # -- level expansion ----------------------------------------------------

    def _expand(self, l: int, keys: np.ndarray, count: bool = False) -> tuple:
        """Candidate generation for all ``p ≥ 1`` states of one level:
        validity masks, packed child keys and local costs, shaped
        ``(n_states, jm)`` with ``k`` descending along axis 1 (the cuts
        under the cap, see :meth:`_tables`) — row gathers from
        :meth:`_tables` plus integer key offsets.

        ``count=True`` accumulates the pruning counters, one per
        rejected ``(state, k)`` candidate (the expansion runs once per
        pass, so only the discovery pass counts).
        """
        tab = self._tables(l)
        p = (keys // self.S_p) % (self.P + 1)
        it = (keys // self.S_t) % self.n_t
        imv = keys % self.S_t  # im·n_v + iv
        iv = imv % self.S_m
        n = len(keys)

        valid_n = tab.valid_n.take(iv, axis=0)
        child_n = tab.kiv2.take(iv, axis=0)
        child_n += ((p - 1) * self.S_p + it * self.S_t + (imv - iv))[:, None]
        if count:
            self.pruned_cap += n * tab.cap_fail_n
            self.pruned_mem += int(tab.mem_fail_n.take(iv).sum())
        valid_s = tab.cap_ok_s.take(it, axis=0)
        valid_s &= tab.mem_ok_s.take(imv, axis=0)
        child_s = tab.kit2.take(it, axis=0)
        child_s += tab.imv2.take(imv, axis=0)
        child_s += (p * self.S_p)[:, None]
        if count:
            passed = int(tab.cap_pass_s.take(it).sum())
            self.pruned_cap += n * l - passed
            self.pruned_mem += passed - int(np.count_nonzero(valid_s))
        local_s = tab.local_s.take(it, axis=0)
        return valid_n, child_n, tab.local_n, valid_s, child_s, local_s

    def _base_p0(self, l: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Values of the ``p == 0`` states of one level: all remaining
        layers become one stage on the special processor."""
        _, it, im, iv = self._unpack(keys)
        V = iv * self.v_step
        t_P = it * self.t_step
        m_P = im * self.m_step
        U_1l = float(self.cumU[l])
        g = np.maximum(np.ceil((V + U_1l) / self.That - 1e-9), 1.0)
        m = 3.0 * float(self.cumW[l]) + (g - 1.0) * float(self.cumA[l])
        if l < self.L:
            m = m + 2.0 * float(self.act[l])
        feasible = m_P + m <= self.M + _EPS
        vals = np.where(feasible, U_1l + t_P, INF)
        return vals, feasible

    # -- passes -------------------------------------------------------------

    def discover(self, root: int) -> None:
        """Downward sweep: compute the reachable state set of every level.

        Reachability lives in one flat bitmap over the packed key space:
        valid child matrices are scattered wholesale (``seen[kids] =
        True`` dedups for free), and each level's sorted key array is a
        single ``flatnonzero`` over its segment of the bitmap — levels
        are processed in descending ``l``, so every parent has been
        expanded by the time a segment is read.
        """
        S_l = self.S_l
        seen = np.zeros((self.L + 1) * S_l, dtype=bool)
        seen[root] = True
        for l in range(self.L, 0, -1):
            keys = np.flatnonzero(seen[l * S_l : (l + 1) * S_l])
            if not len(keys):
                self.level_keys[l] = np.empty(0, dtype=np.int64)
                continue
            keys = keys + l * S_l  # sorted, deduped by construction
            self.level_keys[l] = keys
            self.states += len(keys)
            p = (keys // self.S_p) % (self.P + 1)
            keys_b = keys[p >= 1]
            if not len(keys_b):
                continue
            valid_n, child_n, _, valid_s, child_s, _ = self._expand(
                l, keys_b, count=True
            )
            # level-0 children land in the bitmap too; reduce() never reads
            # their segment back (T(0, ·) is closed-form), closes() does
            seen[child_n[valid_n]] = True
            seen[child_s[valid_s]] = True
        self.reached_level0 = bool(seen[:S_l].any())

    def closes(self) -> bool:
        """Whether the root's value is finite, from reachability alone:
        whether :meth:`discover` reached a level-0 state or a ``p == 0``
        state whose :meth:`_base_p0` is feasible (exact, see the module
        docstring).  A probe it refutes skips :meth:`reduce`."""
        if self.reached_level0:
            return True
        for l in range(1, self.L + 1):
            keys = self.level_keys[l]
            keys = keys[(keys // self.S_p) % (self.P + 1) == 0]
            if len(keys) and self._base_p0(l, keys)[1].any():
                return True
        return False

    def reduce(self) -> None:
        """Upward sweep: solve every reachable level bottom-up.

        Child values are gathered by direct indexing into a dense value
        table over the packed key space.  ``np.empty`` is safe: level 0
        is prefilled closed-form, every other child a level references
        was scattered during discovery (the expansion is deterministic,
        so both passes produce the same validity masks), and lower
        levels are written before higher levels read them.
        """
        S_l, S_t, n_t = self.S_l, self.S_t, self.n_t
        dense = np.empty((self.L + 1) * S_l, dtype=float)
        # T(0, p, it, im, iv) = it · t_step — closing the chain leaves
        # only the special-processor load (same formula for every p/im/iv)
        dense[:S_l] = ((np.arange(S_l) // S_t) % n_t) * self.t_step
        for l in range(1, self.L + 1):
            keys = self.level_keys[l]
            if keys is None or not len(keys):
                self.level_keys[l] = np.empty(0, dtype=np.int64)
                self.level_vals[l] = np.empty(0, dtype=float)
                self.level_k[l] = np.empty(0, dtype=np.int64)
                self.level_spec[l] = np.empty(0, dtype=bool)
                self.level_child[l] = np.empty(0, dtype=np.int64)
                continue
            n = len(keys)
            vals = np.empty(n, dtype=float)
            best_k = np.full(n, _NO_DEC, dtype=np.int64)
            best_spec = np.zeros(n, dtype=bool)
            best_child = np.full(n, _NO_CHILD, dtype=np.int64)

            p = (keys // self.S_p) % (self.P + 1)
            mask0 = p == 0
            if mask0.any():
                v0, feas0 = self._base_p0(l, keys[mask0])
                vals[mask0] = v0
                idx0 = np.flatnonzero(mask0)
                best_k[idx0[feas0]] = 1
                best_spec[idx0[feas0]] = True
            maskB = ~mask0
            if maskB.any():
                exp = self._expand(l, keys[maskB])
                del self._tabs[l]
                bv, jk, spec, child = self._best(exp, dense)
                vals[maskB] = bv
                idxB = np.flatnonzero(maskB)
                ok = bv < INF
                best_k[idxB[ok]] = (l - jk)[ok]
                best_spec[idxB[ok]] = spec[ok]
                best_child[idxB[ok]] = child[ok]

            self.level_vals[l] = vals
            self.level_k[l] = best_k
            self.level_spec[l] = best_spec
            self.level_child[l] = best_child
            dense[keys] = vals

    @staticmethod
    def _best(exp: tuple, dense: np.ndarray) -> tuple:
        """The first-minimum candidate of every state of one expanded
        level: ``(value, column j, special?, child key)``; the value is
        ``INF`` where no candidate is valid."""
        valid_n, child_n, local_n, valid_s, child_s, local_s = exp
        nb, jm = valid_n.shape
        if not jm:  # every cut is over the period cap
            none = np.zeros(nb, dtype=np.int64)
            return np.full(nb, INF), none, none.astype(bool), none
        sub_n = dense.take(child_n)
        cand_n = np.where(valid_n, np.maximum(local_n[None, :], sub_n), INF)
        sub_s = dense.take(child_s)
        cand_s = np.where(valid_s, np.maximum(local_s, sub_s), INF)
        cand = np.empty((nb, 2 * jm), dtype=float)
        cand[:, 0::2] = cand_n  # naive scan order: k desc,
        cand[:, 1::2] = cand_s  # normal before special
        j = np.argmin(cand, axis=1)
        rows = np.arange(nb)
        jk = j >> 1
        spec = (j & 1).astype(bool)
        child = np.where(spec, child_s[rows, jk], child_n[rows, jk])
        return cand[rows, j], jk, spec, child

    def solve(self, root: int) -> tuple[float, list[Stage], list[bool]]:
        self.discover(root)
        self.swept = self.closes()
        if not self.swept:
            return INF, [], []
        self.reduce()
        S_l = self.S_l
        stages: list[Stage] = []
        special: list[bool] = []
        key = root
        period = INF
        first = True
        while True:
            l = int(key // S_l)
            if l == 0:
                break
            keys = self.level_keys[l]
            i = int(np.searchsorted(keys, key))
            if first:
                period = float(self.level_vals[l][i])
                first = False
                if period == INF:
                    break
            k = int(self.level_k[l][i])
            if k == _NO_DEC:
                break
            stages.append(Stage(k, l))
            special.append(bool(self.level_spec[l][i]))
            child = int(self.level_child[l][i])
            if child == _NO_CHILD:
                break
            key = child
        stages.reverse()
        special.reverse()
        return period, stages, special


# -- the contiguous kernel -------------------------------------------------

#: Workspace key of the contiguous kernel's :class:`_Cuts`.  The special
#: kernel keys its ``_Rows`` by level ``l ≥ 1`` in the same dict; level 0
#: has no cuts, so its key is free.
_CUTS = 0


class _Cuts(NamedTuple):
    """Candidate-stage constants of every level for the contiguous kernel
    (see :func:`_cuts`): flat arrays over the columns ``(k, l)``, level
    after level, ``k = l … 1`` inside level ``l`` (the order of
    :class:`_Rows`).  Pure functions of (chain, β, P, grid)."""

    start: np.ndarray  # (L+2,) first column of level l; start[L+1] = N
    U: np.ndarray  # U(k, l)
    dw3: np.ndarray  # 3·W(k, l)
    da: np.ndarray  # Σ a_{i-1} over k..l
    comm: np.ndarray  # C(k-1) = 2·a^{(k-1)}/β, zero at k == 1
    b1: np.ndarray  # first-boundary buffers 2·a^{(k-1)}
    b2: np.ndarray  # last-boundary buffers 2·a^{(l)}, zero at l == L
    local: np.ndarray  # max(U, C): the stage's local period
    base: np.ndarray  # (k-1)·(P+1)·n_v: level k−1 in the value table
    VU: np.ndarray  # (n_v, N) V + U


def _cuts(chain: Chain, beta: float, P: int, V_grid: np.ndarray) -> _Cuts:
    """The :class:`_Cuts` of one (chain, β, P, grid), built in whole-array
    operations that repeat :meth:`_LevelDP._static_rows`' per element."""
    L = chain.L
    sizes = np.arange(L + 1)  # level l has l cuts
    start = np.zeros(L + 2, dtype=np.int64)
    start[1:] = np.cumsum(sizes)
    ls = np.repeat(sizes, sizes)
    ks = ls - (np.arange(len(ls)) - start[ls])
    act = chain._act
    U = chain._cum_u[ls] - chain._cum_u[ks - 1]
    a_in = np.where(ks > 1, act[ks - 1], 0.0)
    comm = 2.0 * a_in / beta
    return _Cuts(
        start=start,
        U=U,
        dw3=3.0 * (chain._cum_w[ls] - chain._cum_w[ks - 1]),
        da=chain._cum_a_in[ls] - chain._cum_a_in[ks - 1],
        comm=comm,
        b1=2.0 * a_in,
        b2=np.where(ls < L, 2.0 * act[ls], 0.0),
        local=np.maximum(U, comm),
        base=(ks - 1) * ((P + 1) * len(V_grid)),
        VU=V_grid[:, None] + U[None, :],
    )


def _contiguous(
    chain: Chain,
    platform: Platform,
    That: float,
    grid: Discretization,
    cap: float,
    workspace: dict | None,
) -> tuple[float, list[Stage], int, int, int, bool]:
    """MadPipe-DP(T̂) without the special processor, as a dense sweep.

    Every state keeps ``it = im = 0``, so the DP lives on ``(l, p, iv)``.
    The probe's tables cover every level at once, in the columns whose
    ``U(k, l)`` is under the cap (``U`` never decreases along ``k = l …
    1``, so those are each level's first ``jm_l``); their float operations
    are :meth:`_LevelDP._tables`' on the same operands, hence
    bit-identical.  A downward pass walks the reachable states for the
    counters; when none of them is a level-0 state, nothing closes the
    chain and the probe returns ``INF`` without a value sweep.  Otherwise
    the upward loop fills the value table ``T[l, p, iv]`` level by level,
    with one first-minimum ``argmin`` over the ``(p, iv) × k`` candidate
    matrix (``k`` descending, the naive scan's tie-break).  Returns
    ``(period, stages, states, pruned_cap, pruned_mem, swept)``.
    """
    L, P, n_v = chain.L, platform.n_procs, grid.n_v
    v_step = (chain.total_compute() + chain.total_comm(platform.bandwidth)) / (n_v - 1)
    V_grid = np.arange(n_v) * v_step
    cuts = workspace.get(_CUTS) if workspace is not None else None
    if cuts is None:
        cuts = _cuts(chain, platform.bandwidth, P, V_grid)
        if workspace is not None:
            workspace[_CUTS] = cuts

    keep = cuts.U < cap
    sel = np.flatnonzero(keep)
    # level l's kept cuts are columns off[l] … off[l+1]-1 of the tables
    off = np.concatenate(([0], np.cumsum(keep)))[cuts.start].tolist()
    _, mem, iv2 = _delay_tables(
        That, V_grid, v_step, cuts.VU[:, sel],
        *(a[sel] for a in (cuts.U, cuts.dw3, cuts.da, cuts.comm, cuts.b1, cuts.b2)),
    )
    ok = mem <= platform.memory + _EPS  # (n_v, n_kept)
    child = cuts.base[sel] + iv2  # flat index of (k-1, 0, iv2)

    # downward: the reachable states and their rejected candidates
    seen = np.zeros((L + 1, P + 1, n_v), dtype=bool)
    seen[L, P, 0] = True
    reach = seen.reshape(-1)
    states = pruned_cap = pruned_mem = 0
    for l in range(L, 0, -1):
        states += int(np.count_nonzero(seen[l]))
        pm1, iv = np.nonzero(seen[l, 1:])
        if not len(iv):
            continue
        a, b = off[l], off[l + 1]
        pruned_cap += len(iv) * (l - (b - a))
        valid = ok[iv, a:b]
        pruned_mem += valid.size - int(np.count_nonzero(valid))
        reach[(child[iv, a:b] + (pm1 * n_v)[:, None])[valid]] = True
    # only a level-0 state closes the chain (T(l ≥ 1, 0, ·) is INF below),
    # so the root's value is finite exactly when one is reachable
    if not seen[0].any():
        return INF, [], states, pruned_cap, pruned_mem, False

    # upward: T(0, p, iv) = it·t_step = 0; a p == 0 state with layers left
    # could only close the chain on the special processor.  A cut that
    # fails the memory check costs INF whatever its child's value.
    cost = np.where(ok, cuts.local[sel], INF)
    T = np.empty((L + 1, P + 1, n_v))
    T[0] = 0.0
    T[1:, 0] = INF
    flat = T.reshape(-1)
    p_off = (np.arange(P) * n_v)[:, None, None]  # child p − 1 = 0 … P − 1
    arg = np.zeros((L + 1, P, n_v), dtype=np.intp)
    for l in range(1, L + 1):
        a, b = off[l], off[l + 1]
        if a == b:  # every cut is over the period cap
            T[l, 1:] = INF
            continue
        cand = flat.take(child[:, a:b] + p_off)  # (P, n_v, jm)
        np.maximum(cost[:, a:b], cand, out=cand)
        arg[l] = cand.argmin(axis=2)
        T[l, 1:] = cand.min(axis=2)

    period = float(T[L, P, 0])
    stages: list[Stage] = []
    l, p, iv = L, P, 0
    while period < INF and l:
        j = int(arg[l, p - 1, iv])
        stages.append(Stage(l - j, l))
        l, p, iv = l - j - 1, p - 1, int(iv2[iv, off[l] + j])
    stages.reverse()
    return period, stages, states, pruned_cap, pruned_mem, True


def madpipe_dp(
    chain: Chain,
    platform: Platform,
    target: float,
    *,
    grid: Discretization | None = None,
    period_cap: float = INF,
    allow_special: bool = True,
    workspace: dict | None = None,
) -> MadPipeDPResult:
    """Evaluate ``MadPipe-DP(T̂)`` (§4.2.2).

    ``period_cap`` prunes candidate stages that cannot beat an incumbent
    period (the cap must over-estimate the optimum; ``inf`` disables).
    ``allow_special=False`` restricts the DP to contiguous allocations
    (ablation: memory-aware PipeDream, and MadPipe's contiguous
    candidate); it runs the dense contiguous kernel, the default runs the
    special-processor kernel (module docstring).  ``states`` counts the
    grid states reachable from the root.

    ``workspace`` is a dict shared across evaluations of the same
    (chain, P, β, grid): each kernel keeps there the tables that depend
    on neither ``T̂``, the cap nor the memory capacity, under its own
    keys, so both may share one dict.  The result does not depend on
    whether a workspace is passed or what it already holds (golden tests
    enforce it).
    """
    if target <= 0:
        raise ValueError("target period must be positive")
    grid = grid or Discretization.default()
    t0 = time.perf_counter()
    if allow_special:
        dp = _LevelDP(chain, platform, target, grid, period_cap, rows_cache=workspace)
        # P-1 normal processors plus the special one
        root = chain.L * dp.S_l + (platform.n_procs - 1) * dp.S_p
        period, stages, special = dp.solve(root)
        states, pruned_cap, pruned_mem = dp.states, dp.pruned_cap, dp.pruned_mem
        swept = dp.swept
    else:
        period, stages, states, pruned_cap, pruned_mem, swept = _contiguous(
            chain, platform, target, grid, period_cap, workspace
        )
        special = [False] * len(stages)
    return MadPipeDPResult(
        target,
        period,
        DPAllocation(tuple(stages), tuple(special)) if period < INF else None,
        states=states,
        wall_time_s=time.perf_counter() - t0,
        pruned_cap=pruned_cap,
        pruned_mem=pruned_mem,
        swept=swept,
    )


@dataclass
class Algorithm1Result:
    """Outcome of the T̂ binary search (phase 1 of MadPipe)."""

    period: float  # best max(T_i, T̂_i)
    target: float  # the T̂ achieving it
    allocation: DPAllocation | None
    history: list[tuple[float, float]] = field(default_factory=list)  # (T̂_i, T_i)
    states: int = 0  # reachable DP states, summed over probes
    wall_time_s: float = 0.0  # total phase-1 wall time
    pruned_cap: int = 0  # cap-pruned candidates, summed over probes
    pruned_mem: int = 0  # memory-pruned candidates, summed over probes
    # the distinct feasible allocations the probes returned, in probe
    # order; ``allocation`` is one of them
    visited: list[DPAllocation] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return self.allocation is not None


def algorithm1(
    chain: Chain,
    platform: Platform,
    *,
    iterations: int = 10,
    grid: Discretization | None = None,
    allow_special: bool = True,
    upper: float = INF,
    dp=None,
) -> Algorithm1Result:
    """Algorithm 1: modified binary search over the target period T̂.

    For each probe, ``min(T, T̂)`` is a lower bound of the optimal
    ``T̂*`` and ``max(T, T̂)`` an upper bound; the next probe bisects.
    ``period``/``allocation`` are the DP's own pick: the lowest DP period
    over the probes, the earliest on a tie.  ``visited`` lists every
    distinct feasible allocation the probes returned, in probe order, so
    a caller can rank them by another measure (MadPipe ranks them by
    their certified period).

    ``upper`` brackets the search by a known period (MadPipe passes its
    certified contiguous candidate's): ``ub`` starts at ``min(ΣU + ΣC,
    upper)`` and every probe, the first included, is capped at
    ``min(best period, ub·(1 + 1e-9))``: stages whose load reaches the
    bound are pruned from the first probe on, and the search may find
    nothing.  ``upper=inf`` (the
    default) is the paper's search: the first probe is uncapped and the
    bisection starts at the sequential period ``ΣU + ΣC``.

    That bisection never probes above ``ΣU + ΣC``, where a stage can still
    be charged two activation copies.  When every probe of an unbracketed
    search fails, one rescue probe runs at ``T̂ = 2·(ΣU + ΣC)``: there
    ``V + U ≤ T̂`` at every grid state, so each stage keeps ``g = 1``
    copy, the least memory the DP can charge it (counter
    ``dp.rescue_probes``).  A search that finds something keeps the
    paper's trajectory exactly.

    Each probe's ``madpipe.dp`` span records ``swept``, and the counter
    ``dp.value_sweeps_skipped`` counts the probes whose reachability pass
    proved them infeasible, so they skipped their value sweep.

    ``dp`` swaps the ``MadPipe-DP(T̂)`` evaluator (same signature and
    result type as :func:`madpipe_dp`) — used by the golden tests and
    benchmarks to drive the search with the reference implementation.

    ``iterations`` must be at least 1: with no probe the search has no
    answer, and ``ValueError`` is raised rather than reporting nothing
    feasible.

    Under an active warm-start context (:mod:`repro.warmstart`) and the
    default evaluator, probes share the context's per-level DP workspace
    across searches and instances; a cold search shares one workspace
    across its own probes only.  Warm and cold probes run the same code,
    and both return bit-identical results to evaluating every probe
    afresh.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations!r}")
    dp = dp or madpipe_dp
    # cold: the probes share one rows dict
    dp_opts = {"workspace": {}} if dp is madpipe_dp else {}
    warm = active_warm() if dp is madpipe_dp else None
    if warm is not None:
        g = grid or Discretization.default()
        dp_opts["workspace"] = warm.dp_workspace(
            (chain_fingerprint(chain), platform.n_procs, platform.bandwidth,
             g.n_t, g.n_m, g.n_v)
        )
    t0 = time.perf_counter()
    lb = chain.total_compute() / platform.n_procs
    seq = chain.total_compute() + chain.total_comm(platform.bandwidth)
    ub = min(seq, upper)
    That = lb
    best = Algorithm1Result(INF, That, None)
    skipped = 0  # probes whose value sweep was skipped

    def probe(That: float, period_cap: float) -> float:
        """One ``MadPipe-DP(T̂)`` evaluation, folded into ``best``."""
        nonlocal skipped
        with obs.span("madpipe.dp", target=That) as probe_span:
            res = dp(
                chain,
                platform,
                That,
                grid=grid,
                period_cap=period_cap,
                allow_special=allow_special,
                **dp_opts,
            )
            probe_span.set(
                period=res.dp_period if res.dp_period != INF else None,
                states=res.states,
                pruned_cap=res.pruned_cap,
                pruned_mem=res.pruned_mem,
                feasible=res.feasible,
                swept=res.swept,
            )
        skipped += not res.swept
        best.history.append((That, res.dp_period))
        best.states += res.states
        best.pruned_cap += res.pruned_cap
        best.pruned_mem += res.pruned_mem
        if res.feasible and res.allocation not in best.visited:
            best.visited.append(res.allocation)
        if res.feasible and res.effective_period < best.period:
            best.period = res.effective_period
            best.target = That
            best.allocation = res.allocation
        return res.dp_period

    bracketed = upper != INF
    with obs.span(
        "madpipe.algorithm1", iterations=iterations, allow_special=allow_special,
        upper=upper if bracketed else None,
    ) as search_span:
        for _ in range(iterations):
            capped = best.feasible or bracketed
            T = probe(That, min(best.period, ub * (1 + 1e-9)) if capped else INF)
            lb = max(lb, min(T, That))
            ub = min(ub, max(T, That))
            if ub <= lb * (1 + 1e-9):
                That = ub
            else:
                That = (lb + ub) / 2
        if not best.feasible and not bracketed:
            # every probe failed; at T̂ = 2·(ΣU + ΣC) every grid state has
            # V + U ≤ T̂, so each stage keeps g = 1 activation copy, the
            # least memory the DP can charge it
            obs.inc("dp.rescue_probes")
            probe(2.0 * seq, INF)
        search_span.set(
            period=best.period if best.period != INF else None,
            target=best.target,
            states=best.states,
            feasible=best.feasible,
        )
    best.wall_time_s = time.perf_counter() - t0
    obs.inc("dp.searches")
    obs.inc("dp.probes", len(best.history))
    obs.inc("dp.value_sweeps_skipped", skipped)
    obs.inc("dp.states", best.states)
    obs.inc("dp.pruned_cap", best.pruned_cap)
    obs.inc("dp.pruned_mem", best.pruned_mem)
    obs.inc("dp.wall_s", best.wall_time_s)
    return best
