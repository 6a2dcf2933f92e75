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
number of grid states reachable from the root (within the state bounds
below), exactly the states the memoized recursion evaluates, since the
reference carries the same rules.

**The period cap holds.**  A probe with ``period_cap = c`` returns a
period strictly below ``c``, or nothing.  Both kernels keep only what can
still end under the cap, so every rule below drops a candidate or a
state worth at least ``c``, and the first minimum under ``c`` at each
state on the returned path does not move:

* a candidate stage whose local cost reaches ``c`` is pruned (counter
  ``pruned_cap``): ``max(U(k,l), C(k-1)) ≥ c`` on a normal processor,
  ``max(t_P + U(k,l), C(k-1)) ≥ c`` on the special one;
* the special kernel drops a state whose ``t_P = it·t_step`` reaches
  ``c``: its value is at least ``t_P``, since ``it2 ≥ it`` on every
  special stage and ``T(0, ·) = it·t_step``;
* it also drops a state outside **the load bound**, Algorithm 1's
  average-load bound ``ΣU/P`` per state: any completion of ``(l, p, t_P,
  …)`` spreads ``t_P + U(1,l)`` of load over at most ``p + 1``
  processors, every local cost is at least its stage's load, and the snap
  of ``it2`` rounds up, less at most ``1e-9·t_step`` per special stage.
  So a state with ``t_P + U(1,l) ≥ (p+1)·c + l·1e-9·t_step`` has a value
  of at least ``c``.

The two state bounds read ``(l, p, it)`` only, one boolean table per
probe (:meth:`_LevelDP._tables`).  A dropped state is counted in
``pruned_load``, not in ``states``; it is not expanded, and reads ``INF``
as a child.  The contiguous kernel's states keep ``t_P = 0`` and are not
dropped.  :func:`madpipe_dp` also turns a period at or above ``c`` into
infeasibility, one check for both kernels.

Every float quantity of a ``(state, k)`` candidate depends on one grid
coordinate and the cut ``k`` only: ``V ⊕ U(k,l) ⊕ C``, ``g``,
``mem(k,l,g)`` and the snapped ``iv2`` on ``iv``; ``t_P + U``, ``it2``
and ``max(t_P + U, C)`` on ``it``; ``m_P + mem(k,l,g−1)`` and ``im2`` on
``(im, iv)``.  Both kernels compute these once per probe, for every
level at once, as *coordinate tables* built in whole-array operations,
with the same operations on the same operands as a per-state
evaluation.  ``U(k,l)`` never decreases as the cut moves left and ``t_P
≥ 0``, so only each level's first ``jm`` cuts, those with ``U(k,l)``
under the period cap, can yield a candidate: the tables cover those
columns only (:func:`_delay_tables`), and a level reads a column slice.
First-minimum ``argmin`` over candidates ordered ``k = l … 1`` (normal
before special) reproduces the naive scan's tie-breaking.  The candidate
counters count one per rejected ``(state, k)`` candidate of a reachable
state.

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
   matrix with one ``argmin`` per level.  Each state keeps one
   decision, its chosen child's key (see :data:`_NO_CHILD`), from which
   the traceback reads the stage's cut ``k`` and whether it is special.

A probe's tables (``n_v × K``, ``n_t × K``, ``n_m·n_v × K`` over the
``K`` kept cuts of all levels) are expanded by row gathers of a level's
column slice plus packed-key offsets, and freed with the probe.

The closing check is exact.  A state's value is a min over its valid
candidates of the max of their local costs, each under the cap, and the
child's value, so the root's value is under the cap exactly when a path
of valid candidates leads from it to a *closing* state worth less than
the cap:

* a level-0 state with ``it·t_step < c`` (``T(0, ·)`` is the special
  processor's load), or
* a ``p == 0`` state whose single-stage base case fits in memory, with
  ``U(1,l) + t_P < c``.

The reachability sweep scatters exactly the valid candidates, so the
level-0 segment of its bitmap plus the kept ``p == 0`` states' base cases
decide it without reading a value.  A probe therefore sweeps values
exactly when it returns an allocation (``swept == feasible``).
``states`` and the pruning counters come from the reachability sweep, so
skipping the value sweep changes no field of the result.  Most
low-``T̂`` and bracketed probes are infeasible, and the value sweep is
about half of a probe.

**Without the special processor** (:func:`_contiguous`), every state
keeps ``it = im = 0``, so the DP lives on ``(l, p, iv)``: at most
``(P+1)·n_v`` states per level.  The kernel builds one probe's tables
for all levels at once, in whole-array operations over the kept cuts;
a downward pass over the reachable states counts ``states`` and the
pruned candidates first, and ends the probe when no level-0 state is
reachable (a ``p == 0`` state with layers left cannot close the chain
without the special processor, so level 0 is the only closing level, and
its value is 0: the root's value is under the cap exactly when a level-0
state is reachable).
Otherwise one upward loop fills a dense ``(L+1, P+1, n_v)`` value table,
one gather and one ``argmin``/``min`` over a ``(P, n_v, jm)`` candidate
matrix per level, and the traceback reads the stored ``argmin``
decisions.  Its values are those of every grid state, which equal the
reachable ones' exactly, since a state's value depends on the state
alone.

The tables that depend on neither ``T̂``, the period cap nor the memory
capacity live in a *workspace* dict that one :func:`algorithm1` search
shares across its probes and a warm-start context shares across searches
and instances: one per-cut table both kernels read (:class:`_Cuts`: ``U``,
:func:`~repro.core.memory.stage_memory_terms`, ``C``, ``V + U``) and
the special kernel's ``it`` tables over every cut (:class:`_Loads`: the
packed ``it2`` of ``t_P + U`` and ``max(t_P + U, C)``).  A probe gathers
its kept columns from them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .. import obs
from ..core.chain import Chain
from ..core.memory import stage_memory_terms
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

# A decision is the chosen child's packed key, or one of these sentinels.
_NO_CHILD = -1  # the state's p == 0 base closes the chain: stage 1..l, special
_NO_DEC = -2  # the state is infeasible


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
    pruned_load: int = 0  # reached states dropped by the state bounds
    # whether the value sweep ran, which is exactly when the probe returns
    # an allocation: the reachability pass decides whether anything closes
    # the chain under the cap (diagnostics)
    swept: bool = True

    @property
    def effective_period(self) -> float:
        """max(T, T̂): a schedule needs T for load and T̂ for memory."""
        return max(self.dp_period, self.target)

    @property
    def feasible(self) -> bool:
        return self.allocation is not None


#: Workspace keys (ints, so a workspace's keys sort): the :class:`_Cuts`
#: both kernels read and the special kernel's :class:`_Loads`.
_CUTS = 0
_LOADS = 1


class _Cuts(NamedTuple):
    """Candidate-stage constants of every level, the per-cut tables of both
    kernels (see :func:`_cuts`): flat arrays over the columns ``(k, l)``,
    level after level, ``k = l … 1`` inside level ``l``.  Pure functions
    of (chain, β, P, grid)."""

    start: np.ndarray  # (L+2,) first column of level l; start[L+1] = N
    U: np.ndarray  # U(k, l)
    dw3: np.ndarray  # 3·W(k, l)
    da: np.ndarray  # Σ a_{i-1} over k..l
    comm: np.ndarray  # C(k-1) = 2·a^{(k-1)}/β, zero at k == 1
    b1: np.ndarray  # first-boundary buffers 2·a^{(k-1)}, zero at k == 1
    b2: np.ndarray  # last-boundary buffers 2·a^{(l)}, zero at l == L
    local: np.ndarray  # max(U, C): a normal stage's local period
    base: np.ndarray  # (k-1)·(P+1)·n_v: level k−1 in the value table
    VU: np.ndarray  # (n_v, N) V + U


def _cuts(workspace: dict, chain: Chain, beta: float, P: int, V_grid: np.ndarray) -> _Cuts:
    """The workspace's :class:`_Cuts`, built on first use in whole-array
    operations: the memory terms come from
    :func:`~repro.core.memory.stage_memory_terms`, and the cut cost
    ``C(k-1)`` is the first-boundary buffer over ``β``."""
    cuts = workspace.get(_CUTS)
    if cuts is not None:
        return cuts
    L = chain.L
    sizes = np.arange(L + 1)  # level l has l cuts
    start = np.zeros(L + 2, dtype=np.int64)
    start[1:] = np.cumsum(sizes)
    ls = np.repeat(sizes, sizes)
    ks = ls - (np.arange(len(ls)) - start[ls])
    U = chain.u_ranges(ks, ls)
    dw3, da, b1, b2 = stage_memory_terms(chain, ks, ls)
    comm = b1 / beta
    base = (ks - 1) * ((P + 1) * len(V_grid))
    cuts = workspace[_CUTS] = _Cuts(
        start, U, dw3, da, comm, b1, b2, np.maximum(U, comm), base, V_grid[:, None] + U[None, :]
    )
    return cuts


def _delay_tables(cuts: _Cuts, cap: float, That: float, V_grid, v_step) -> tuple:
    """One probe's delay tables over the cuts whose ``U(k, l)`` is under
    the cap, for both kernels: ``(sel, off, g, mem, iv2)``.

    ``U`` never decreases along ``k = l … 1`` and ``t_P ≥ 0``, so every
    candidate under the cap, normal or special, lies in each level's first
    ``jm_l`` cuts: ``sel`` lists those columns of ``cuts``, and level
    ``l``'s are the table columns ``off[l] … off[l+1] − 1``.  ``g``,
    ``mem(k, l, g)`` and the snapped ``iv2`` of ``V ⊕ U(k,l) ⊕ C(k-1)`` are
    ``(n_v, len(sel))`` arrays, with the reference's float operations
    elementwise."""
    keep = cuts.U < cap
    sel = np.flatnonzero(keep)
    off = np.concatenate(([0], np.cumsum(keep)))[cuts.start].tolist()
    VU = cuts.VU[:, sel]
    U, comm = cuts.U[sel], cuts.comm[sel]
    cVU = np.ceil(VU / That - 1e-9)
    g = np.maximum(cVU, 1.0)
    mem_g = cuts.dw3[sel] + g * cuts.da[sel]
    mem_g += cuts.b1[sel]
    mem_g += cuts.b2[sel]
    # V2 = (V ⊕ U(k,l)) ⊕ C(k-1), elementwise group rounding
    cV = np.ceil(V_grid / That - 1e-9)[:, None]
    r1 = np.where(cV == cVU, VU, That * cV + U)
    cr1 = np.ceil(r1 / That - 1e-9)
    V2 = np.where(cr1 == np.ceil((r1 + comm) / That - 1e-9), r1 + comm, That * cr1 + comm)
    iv2 = np.minimum(np.ceil(V2 / v_step - 1e-9), len(V_grid) - 1).astype(np.int64)
    return sel, off, g, mem_g, iv2


class _Loads(NamedTuple):
    """The special kernel's ``it`` tables over every column of
    :class:`_Cuts`: pure functions of (chain, β, P, grid), built once per
    workspace (see :meth:`_LevelDP._loads`)."""

    kb: np.ndarray  # (N,) (k-1)·S_l
    kit2: np.ndarray  # (n_t, N) (k-1)·S_l + it2·S_t
    local_s: np.ndarray  # (n_t, N) max(t_P + U, C)


class _Tables(NamedTuple):
    """One probe's special-kernel tables over the kept cuts of every level
    (see :meth:`_LevelDP._tables`); level ``l``'s columns are ``off[l] …
    off[l+1] − 1``.  The ``it`` tables are read from :class:`_Loads`."""

    off: list  # (L+2,) first kept column of level l
    cap_ok_n: np.ndarray  # (K,) max(U, C) < cap
    valid_n: np.ndarray  # (n_v, K) normal candidate under the cap and fits
    kiv2: np.ndarray  # (n_v, K) (k-1)·S_l + iv2
    local_n: np.ndarray  # (K,) max(U, C)
    cap_ok_s: np.ndarray  # (n_t, K) max(t_P + U, C) < cap
    mem_ok_s: np.ndarray  # (n_m·n_v, K) m_P + mem(g-1) fits
    imv2: np.ndarray  # (n_m·n_v, K) im2·S_m + iv2
    keep: np.ndarray  # (L+1, (P+1)·n_t) state (l, p, it) passes the state bounds


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
        workspace: dict | None = None,
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

        # the workspace (module docstring): _Cuts and _Loads; nothing that
        # depends on M, the headroom, T̂ or the cap
        workspace = {} if workspace is None else workspace
        self.cuts = _cuts(workspace, chain, self.beta, self.P, self.V_grid)
        self.loads = self._loads(workspace)
        self.start = self.cuts.start.tolist()
        # U(1, l), the load of the whole prefix 1..l (column start[l+1] − 1)
        self.U1 = [0.0] + self.cuts.U[self.cuts.start[2:] - 1].tolist()
        # this probe's tables, shared by discover and reduce
        self.tab = self._tables()

        # per-level solved state: packed keys (sorted), where its p ≥ 1
        # suffix starts and the decisions; reduce() leaves every state's
        # value in the dense table
        self.level_keys: list[np.ndarray | None] = [None] * (self.L + 1)
        self.level_b: list[int] = [0] * (self.L + 1)
        self.level_dec: list[np.ndarray | None] = [None] * (self.L + 1)
        # per level, the reached states the state bounds dropped
        self.level_pruned: list[np.ndarray | None] = [None] * (self.L + 1)
        self.dense: np.ndarray | None = None

        self.states = 0
        self.pruned_cap = 0
        self.pruned_mem = 0
        self.pruned_load = 0
        self.reached_level0 = False
        self.swept = False  # whether solve() ran the value sweep

    # -- tables -------------------------------------------------------------

    def _loads(self, workspace: dict) -> _Loads:
        """The workspace's :class:`_Loads`, built on first use in
        whole-array operations: the snapped ``it2`` of ``t_P + U`` over the
        ``it`` grid and every cut (pre-packed with ``(k−1)·S_l``) and
        ``max(t_P + U, C)``; they depend on neither ``T̂``, ``M`` nor the
        period cap."""
        loads = workspace.get(_LOADS)
        if loads is not None:
            return loads
        cut = self.cuts
        kb = cut.base // ((self.P + 1) * self.S_m) * self.S_l  # (k-1)·S_l
        t2 = self.t_grid[:, None] + cut.U[None, :]  # (n_t, N)
        it2 = np.minimum(np.ceil(t2 / self.t_step - 1e-9), self.it_top).astype(np.int64)
        kit2 = kb + it2 * self.S_t
        loads = workspace[_LOADS] = _Loads(kb, kit2, np.maximum(t2, cut.comm))
        return loads

    def _tables(self) -> _Tables:
        """This probe's tables, for every level at once.

        Every float quantity of a ``(state, k)`` candidate depends on a
        single grid coordinate (``iv``, ``it`` or the ``(im, iv)`` pair)
        and the cut ``k``, so it is computed here once per coordinate —
        with the same operations on the same operands as a per-state
        evaluation, hence bit-identical — and :meth:`_expand` only
        gathers rows of a level's column slice.  The tables cover the cuts
        under the cap (:func:`_delay_tables`; ``jm = 0`` leaves every
        ``p ≥ 1`` state of a level infeasible); the static ``it`` tables
        stay in the workspace's :class:`_Loads`, never rebuilt.  ``keep``
        holds the state bounds of the module docstring per ``(l, p, it)``,
        the only digits they read.
        """
        cut, loads, M, cap = self.cuts, self.loads, self.M, self.cap
        sel, off, g, mem_g, iv2 = _delay_tables(
            cut, cap, self.That, self.V_grid, self.v_step
        )
        # special processor: child (k-1, p, it2, im2, iv2); the (im, iv)
        # tables keep row im·n_v + iv
        mem_gm1 = cut.dw3[sel] + (g - 1.0) * cut.da[sel]
        mem_gm1 += cut.b1[sel]
        mem_gm1 += cut.b2[sel]
        m2 = self.m_grid[:, None, None] + mem_gm1  # (n_m, n_v, K)
        im2 = np.minimum(np.ceil(m2 / self.m_step - 1e-9), self.im_top).astype(np.int64)
        K = len(sel)
        local_n = cut.local[sel]
        cap_ok_n = local_n < cap
        # t_P + U(1,l) under (p+1)·cap plus the snap's slack, and t_P under
        # the cap, in the reference's float operations
        load = self.t_grid[None, :] + np.array(self.U1)[:, None]  # (L+1, n_t)
        bound = (np.arange(self.P + 1) + 1) * cap  # (P+1,)
        slack = np.arange(self.L + 1) * _EPS * self.t_step  # (L+1,)
        keep = load[:, None, :] < bound[None, :, None] + slack[:, None, None]
        keep &= self.t_grid < cap
        return _Tables(
            off=off,
            # normal processor: child (k-1, p-1, it, im, iv2); every kept
            # cut's U passes the cap, which also subsumes the naive loop's break
            cap_ok_n=cap_ok_n,
            valid_n=(mem_g <= M + _EPS) & cap_ok_n,
            kiv2=loads.kb[sel] + iv2,
            local_n=local_n,
            cap_ok_s=loads.local_s[:, sel] < cap,
            mem_ok_s=(m2 <= M + _EPS).reshape(self.S_t, K),
            imv2=(im2 * self.S_m + iv2).reshape(self.S_t, K),
            keep=keep.reshape(self.L + 1, (self.P + 1) * self.n_t),
        )

    # -- level expansion ----------------------------------------------------

    def _expand(self, l: int, local: np.ndarray, pt: np.ndarray, count: bool = False) -> tuple:
        """Candidate generation for ``p ≥ 1`` states of one level, given by
        their level-local keys ``local`` (``key − l·S_l``) and ``pt =
        local // S_t = p·n_t + it``: validity masks, packed child keys and
        local costs, shaped ``(n_states, jm)`` with ``k`` descending along
        axis 1 (the cuts under the cap, see :meth:`_tables`) — row gathers
        from the level's columns of :meth:`_tables` plus integer key
        offsets.

        ``count=True`` accumulates the pruning counters, one per
        rejected ``(state, k)`` candidate (the expansion runs once per
        pass, so only the discovery pass counts).
        """
        tab, loads = self.tab, self.loads
        cols = slice(tab.off[l], tab.off[l + 1])
        # the same cuts among the level's columns of _Loads
        lcols = slice(self.start[l], self.start[l] + cols.stop - cols.start)
        it = pt % self.n_t
        imv = local - pt * self.S_t  # im·n_v + iv
        iv = imv % self.S_m

        valid_n = tab.valid_n[:, cols].take(iv, axis=0)
        child_n = tab.kiv2[:, cols].take(iv, axis=0)
        child_n += (local - iv - self.S_p)[:, None]  # (p-1, it, im) of the parent
        valid_s = tab.cap_ok_s[:, cols].take(it, axis=0)
        if count:
            n = len(local)
            # normal and special candidates under the cap
            ok_n = n * int(np.count_nonzero(tab.cap_ok_n[cols]))
            ok_s = int(np.count_nonzero(valid_s))
            self.pruned_cap += 2 * n * l - ok_n - ok_s
            self.pruned_mem += ok_n - int(np.count_nonzero(valid_n))
        valid_s &= tab.mem_ok_s[:, cols].take(imv, axis=0)
        if count:
            self.pruned_mem += ok_s - int(np.count_nonzero(valid_s))
        child_s = loads.kit2[:, lcols].take(it, axis=0)
        child_s += tab.imv2[:, cols].take(imv, axis=0)
        child_s += ((pt - it) * self.S_t)[:, None]  # p·S_p
        local_s = loads.local_s[:, lcols].take(it, axis=0)
        return valid_n, child_n, tab.local_n[cols], valid_s, child_s, local_s

    def _base_p0(self, l: int, local: np.ndarray) -> np.ndarray:
        """Values of ``p == 0`` states of one level, given by their
        level-local keys (``it·S_t + im·S_m + iv``): all remaining layers
        become one stage on the special processor, ``INF`` where it does
        not fit."""
        it, imv = np.divmod(local, self.S_t)
        im, iv = np.divmod(imv, self.S_m)
        V = iv * self.v_step
        t_P = it * self.t_step
        m_P = im * self.m_step
        c = self.start[l + 1] - 1  # the column of the stage 1..l
        U_1l = float(self.cuts.U[c])
        g = np.maximum(np.ceil((V + U_1l) / self.That - 1e-9), 1.0)
        m = float(self.cuts.dw3[c]) + (g - 1.0) * float(self.cuts.da[c])
        m = m + float(self.cuts.b2[c])
        return np.where(m_P + m <= self.M + _EPS, U_1l + t_P, INF)

    # -- passes -------------------------------------------------------------

    def discover(self, root: int) -> None:
        """Downward sweep: compute the reachable state set of every level.

        Reachability lives in one flat bitmap over the packed key space:
        valid child matrices are scattered wholesale (``seen[kids] =
        True`` dedups for free), and each level's sorted level-local keys
        are a single ``flatnonzero`` over its segment of the bitmap —
        levels are processed in descending ``l``, so every parent has been
        expanded by the time a segment is read.  One ``take`` of the
        ``keep`` table sets aside the states that fail the state bounds
        (module docstring), neither counted nor expanded.  ``p`` is a
        level's leading digit, so its ``p ≥ 1`` states are the sorted
        suffix from ``searchsorted(local, S_p)`` (``level_b``).
        """
        S_l, S_t = self.S_l, self.S_t
        seen = np.zeros((self.L + 1) * S_l, dtype=bool)
        seen[root] = True
        for l in range(self.L, 0, -1):
            local = np.flatnonzero(seen[l * S_l : (l + 1) * S_l])
            pt = local // S_t
            ok = self.tab.keep[l].take(pt)
            if not ok.all():
                self.level_pruned[l] = local[~ok] + l * S_l
                self.pruned_load += len(self.level_pruned[l])
                local, pt = local[ok], pt[ok]
            b = int(np.searchsorted(local, self.S_p))
            self.level_keys[l] = local + l * S_l  # sorted, deduped by construction
            self.level_b[l] = b
            self.states += len(local)
            if b == len(local):
                continue
            valid_n, child_n, _, valid_s, child_s, _ = self._expand(
                l, local[b:], pt[b:], count=True
            )
            # level-0 children land in the bitmap too; reduce() never reads
            # their segment back (T(0, ·) is closed-form), closes() does
            seen[child_n[valid_n]] = True
            seen[child_s[valid_s]] = True
        level0 = np.flatnonzero(seen[:S_l])
        # keep[0] is it·t_step < cap: T(0, ·) = it·t_step
        self.reached_level0 = bool(self.tab.keep[0].take(level0 // S_t).any())

    def closes(self) -> bool:
        """Whether the root's value is under the cap: whether
        :meth:`discover` reached a level-0 state with ``it·t_step`` under
        it, or a ``p == 0`` state whose :meth:`_base_p0` is (see the module
        docstring).  A probe it refutes skips :meth:`reduce`."""
        if self.reached_level0:
            return True
        for l in range(1, self.L + 1):
            b = self.level_b[l]
            if b and (self._base_p0(l, self.level_keys[l][:b] - l * self.S_l) < self.cap).any():
                return True
        return False

    def reduce(self) -> None:
        """Upward sweep: solve every reachable level bottom-up.

        Child values are gathered by direct indexing into a dense value
        table over the packed key space.  ``np.empty`` is safe: level 0
        is prefilled closed-form, every other child a level references
        was scattered during discovery (the expansion is deterministic,
        so both passes produce the same validity masks) and is either one
        of its level's states or a state the state bounds dropped, which
        reads ``INF``; lower levels are written before higher levels read
        them.
        """
        S_l, S_t, n_t = self.S_l, self.S_t, self.n_t
        dense = np.empty((self.L + 1) * S_l, dtype=float)
        # T(0, p, it, im, iv) = it · t_step — closing the chain leaves
        # only the special-processor load (same formula for every p/im/iv)
        dense[:S_l] = ((np.arange(S_l) // S_t) % n_t) * self.t_step
        for l in range(1, self.L + 1):
            if self.level_pruned[l] is not None:
                dense[self.level_pruned[l]] = INF
            keys, b = self.level_keys[l], self.level_b[l]
            n = len(keys)
            vals = np.empty(n, dtype=float)
            dec = np.full(n, _NO_DEC, dtype=np.int64)
            if b:  # the p == 0 prefix
                vals[:b] = self._base_p0(l, keys[:b] - l * S_l)
                dec[:b][vals[:b] < INF] = _NO_CHILD
            if b < n:
                local = keys[b:] - l * S_l
                bv, child = self._best(self._expand(l, local, local // S_t), dense)
                vals[b:] = bv
                ok = bv < INF
                dec[b:][ok] = child[ok]
            self.level_dec[l] = dec
            dense[keys] = vals
        self.dense = dense

    @staticmethod
    def _best(exp: tuple, dense: np.ndarray) -> tuple:
        """The first-minimum candidate of every state of one expanded
        level: ``(value, child key)``; the value is ``INF`` (and the key
        meaningless) where no candidate is valid."""
        valid_n, child_n, local_n, valid_s, child_s, local_s = exp
        nb, jm = valid_n.shape
        if not jm:  # every cut is over the period cap
            return np.full(nb, INF), np.zeros(nb, dtype=np.int64)
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
        child = np.where(j & 1, child_s[rows, jk], child_n[rows, jk])
        return cand[rows, j], child

    def solve(self, root: int) -> tuple[float, list[Stage], list[bool]]:
        self.discover(root)
        self.swept = self.closes()
        if not self.swept:
            return INF, [], []
        self.reduce()
        period = float(self.dense[root])  # under the cap: closes() is exact
        S_l, S_p, P1 = self.S_l, self.S_p, self.P + 1
        stages: list[Stage] = []
        special: list[bool] = []
        key = root
        while key >= S_l:  # a state above level 0 on the root's path
            l = key // S_l
            child = int(self.level_dec[l][np.searchsorted(self.level_keys[l], key)])
            if child == _NO_CHILD:
                stages.append(Stage(1, l))
                special.append(True)
                break
            stages.append(Stage(child // S_l + 1, l))
            # a special stage keeps its p; a normal one hands p - 1 down
            special.append((child // S_p) % P1 == (key // S_p) % P1)
            key = child
        stages.reverse()
        special.reverse()
        return period, stages, special


# -- the contiguous kernel -------------------------------------------------


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
    The probe's tables cover every level at once (the workspace's
    :class:`_Cuts`), in the columns whose ``U(k, l)`` is under the cap
    (``U`` never decreases along ``k = l … 1``, so those are each level's
    first ``jm_l``); their float operations
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
    cuts = _cuts({} if workspace is None else workspace, chain, platform.bandwidth, P, V_grid)

    # level l's kept cuts are columns off[l] … off[l+1]-1 of the tables
    sel, off, _, mem, iv2 = _delay_tables(cuts, cap, That, V_grid, v_step)
    local = cuts.local[sel]
    cap_ok = local < cap  # max(U, C) under the cap
    ok = (mem <= platform.memory + _EPS) & cap_ok  # (n_v, n_kept)
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
        under = len(iv) * int(np.count_nonzero(cap_ok[a:b]))
        pruned_cap += len(iv) * l - under
        valid = ok[iv, a:b]
        pruned_mem += under - int(np.count_nonzero(valid))
        reach[(child[iv, a:b] + (pm1 * n_v)[:, None])[valid]] = True
    # only a level-0 state closes the chain (T(l ≥ 1, 0, ·) is INF below),
    # T(0, ·) = 0 and every valid candidate's cost is under the cap, so the
    # root's value is under the cap exactly when one is reachable
    if not seen[0].any():
        return INF, [], states, pruned_cap, pruned_mem, False

    # upward: T(0, p, iv) = it·t_step = 0; a p == 0 state with layers left
    # could only close the chain on the special processor.  A cut that
    # fails the cap or the memory check costs INF whatever its child's value.
    cost = np.where(ok, local, INF)
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

    ``period_cap`` is an incumbent period to beat (``inf`` disables): the
    result's ``dp_period`` is strictly below it, or the result is
    infeasible.  Under a finite cap the DP prunes the candidate stages
    whose local cost reaches it, and the special kernel the states whose
    load bound or ``t_P`` does (``pruned_load``, module docstring); a
    capped probe whose uncapped period is under the cap returns that
    period and allocation.  The value sweep runs only for a probe that
    returns an allocation (``swept``).
    ``allow_special=False`` restricts the DP to contiguous allocations
    (ablation: memory-aware PipeDream, and MadPipe's contiguous
    candidate); it runs the dense contiguous kernel, the default runs the
    special-processor kernel (module docstring).  ``states`` counts the
    grid states reachable from the root, the ones the state bounds drop
    excluded.

    ``workspace`` is a dict shared across evaluations of the same
    (chain, P, β, grid): it holds the tables that depend on neither
    ``T̂``, the cap nor the memory capacity — the per-cut table both
    kernels read and the special kernel's ``it`` tables over every cut,
    under their own int keys.  The result does not depend on whether a workspace is passed or
    what it already holds (golden tests enforce it).
    """
    if target <= 0:
        raise ValueError("target period must be positive")
    grid = grid or Discretization.default()
    t0 = time.perf_counter()
    if allow_special:
        dp = _LevelDP(chain, platform, target, grid, period_cap, workspace)
        # P-1 normal processors plus the special one
        root = chain.L * dp.S_l + (platform.n_procs - 1) * dp.S_p
        period, stages, special = dp.solve(root)
        states, pruned_cap, pruned_mem = dp.states, dp.pruned_cap, dp.pruned_mem
        pruned_load, swept = dp.pruned_load, dp.swept
    else:
        period, stages, states, pruned_cap, pruned_mem, swept = _contiguous(
            chain, platform, target, grid, period_cap, workspace
        )
        special = [False] * len(stages)
        pruned_load = 0
    if period >= period_cap:  # the cap holds: a period under it, or nothing
        period = INF
    return MadPipeDPResult(
        target,
        period,
        DPAllocation(tuple(stages), tuple(special)) if period < INF else None,
        states=states,
        wall_time_s=time.perf_counter() - t0,
        pruned_cap=pruned_cap,
        pruned_mem=pruned_mem,
        pruned_load=pruned_load,
        swept=swept,
    )


@dataclass
class Algorithm1Result:
    """Outcome of the T̂ binary search (phase 1 of MadPipe)."""

    period: float  # best max(T_i, T̂_i)
    target: float  # the T̂ achieving it
    allocation: DPAllocation | None
    history: list[tuple[float, float]] = field(default_factory=list)  # (T̂_i, T_i)
    states: int = 0  # reachable DP states, summed over evaluated probes
    wall_time_s: float = 0.0  # total phase-1 wall time
    # pruned candidates and dropped states, summed over evaluated probes
    pruned_cap: int = 0
    pruned_mem: int = 0
    pruned_load: int = 0
    # the distinct feasible allocations the probes returned, in probe
    # order (each under its probe's cap); ``allocation`` is one of them
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
    their certified period).  A capped probe returns only a DP period
    under its cap, so an allocation at or above the cap is never
    visited.

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

    A probe whose exact ``(T̂, cap)`` an earlier probe of the same search
    asked is answered from that probe's result, without calling the
    evaluator: the DP is a pure function of (chain, platform, grid, T̂,
    cap), and the workspace never changes a result.  Once ``lb`` and
    ``ub`` meet, every later probe is such a repeat.  ``history`` keeps
    every probe, so the iteration count is the paper's; ``states`` and the
    pruning counters sum the evaluated probes only.  The counters
    ``dp.probes`` and ``dp.probes_reused`` count the search's probes and
    the reused ones.

    Each probe's ``madpipe.dp`` span records ``reused``, ``period`` and
    ``feasible``; an evaluated one adds ``swept`` and the pruning counters
    (``pruned_cap``, ``pruned_mem``, ``pruned_load``).  The counter
    ``dp.value_sweeps_skipped`` counts the evaluated probes whose
    reachability pass proved them infeasible, so they skipped their value
    sweep.

    ``dp`` swaps the ``MadPipe-DP(T̂)`` evaluator (same signature and
    result type as :func:`madpipe_dp`) — used by the golden tests and
    benchmarks to drive the search with the reference implementation.

    ``iterations`` must be at least 1: with no probe the search has no
    answer, and ``ValueError`` is raised rather than reporting nothing
    feasible.

    Under an active warm-start context (:mod:`repro.warmstart`) and the
    default evaluator, probes share the context's DP workspace
    across searches and instances; a cold search shares one workspace
    across its own probes only.  Warm and cold probes run the same code,
    and both return bit-identical results to evaluating every probe
    afresh.
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations!r}")
    dp = dp or madpipe_dp
    # cold: the probes share one workspace
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
    # the search's answers by exact (T̂, cap): the DP is a pure function of
    # them here, so a repeated probe is answered without an evaluation
    answers: dict[tuple[float, float], MadPipeDPResult] = {}

    def probe(That: float, period_cap: float) -> float:
        """One ``MadPipe-DP(T̂)`` probe, folded into ``best``."""
        nonlocal skipped
        res = answers.get((That, period_cap))
        with obs.span("madpipe.dp", target=That, reused=res is not None) as probe_span:
            if res is None:
                res = answers[That, period_cap] = dp(
                    chain,
                    platform,
                    That,
                    grid=grid,
                    period_cap=period_cap,
                    allow_special=allow_special,
                    **dp_opts,
                )
                probe_span.set(
                    states=res.states,
                    pruned_cap=res.pruned_cap,
                    pruned_mem=res.pruned_mem,
                    pruned_load=res.pruned_load,
                    swept=res.swept,
                )
                skipped += not res.swept
                best.states += res.states
                best.pruned_cap += res.pruned_cap
                best.pruned_mem += res.pruned_mem
                best.pruned_load += res.pruned_load
            probe_span.set(
                period=res.dp_period if res.dp_period != INF else None,
                feasible=res.feasible,
            )
        best.history.append((That, res.dp_period))
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
    obs.inc("dp.probes_reused", len(best.history) - len(answers))
    obs.inc("dp.value_sweeps_skipped", skipped)
    obs.inc("dp.states", best.states)
    obs.inc("dp.pruned_cap", best.pruned_cap)
    obs.inc("dp.pruned_mem", best.pruned_mem)
    obs.inc("dp.pruned_load", best.pruned_load)
    obs.inc("dp.wall_s", best.wall_time_s)
    return best
