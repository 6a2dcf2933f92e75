"""Reference (naive) MadPipe-DP — the original recursive implementation.

This module preserves the straightforward top-down memoized recursion
exactly as first written, as an executable specification for the
vectorized fast path in :mod:`repro.algorithms.madpipe_dp`.  The golden
tests (``tests/test_dp_fastpath.py``) assert that both implementations
return *identical* ``(dp_period, allocation, effective_period)`` across
randomized chains, platforms and grids, and the benchmark harness
(``benchmarks/bench_dp_hotpath.py``) measures the speedup against it.

These rules bound a capped probe, and the fast path shares them:

* **the cap holds** — a probe with ``period_cap = c`` returns a period
  strictly below ``c``, or nothing;
* **the local cost** — a candidate stage whose local cost reaches ``c``
  is not taken: ``max(U(k,l), C(k-1))`` on a normal processor,
  ``max(t_P + U(k,l), C(k-1))`` on the special one;
* **the state bounds** — with the special processor, a state whose load
  ``t_P + U(1, l)`` reaches ``(p + 1)·c + l·1e-9·t_step``, or whose
  ``t_P`` alone reaches ``c``, is worth at least ``c``, so it is valued
  ``INF`` unexplored and never memoized.  ``states`` (the memoized
  states) and ``pruned_load`` (the distinct dropped ones) therefore match
  the fast path's counters exactly.

Every candidate or state these rules drop is worth at least ``c``, so no
period under the cap moves, nor the first minimum that picks it.

It is intentionally slow — do not use it outside tests and benchmarks.
"""

from __future__ import annotations

import math
import sys

from repro.algorithms.madpipe_dp import Discretization, DPAllocation, MadPipeDPResult
from repro.core.chain import Chain
from repro.core.partition import Stage
from repro.core.platform import Platform

__all__ = ["madpipe_dp_reference"]

INF = float("inf")
_EPS = 1e-9


def madpipe_dp_reference(
    chain: Chain,
    platform: Platform,
    target: float,
    *,
    grid: Discretization | None = None,
    period_cap: float = INF,
    allow_special: bool = True,
) -> MadPipeDPResult:
    """Evaluate ``MadPipe-DP(T̂)`` with the naive recursive DP (§4.2.2)."""
    if target <= 0:
        raise ValueError("target period must be positive")
    grid = grid or Discretization.default()
    L, P, M = chain.L, platform.n_procs, platform.memory
    beta = platform.bandwidth
    That = target

    t_max = chain.total_compute()
    v_max = t_max + chain.total_comm(beta)
    t_step = t_max / (grid.n_t - 1)
    m_step = M / (grid.n_m - 1)
    v_step = v_max / (grid.n_v - 1)
    it_top, im_top, iv_top = grid.n_t - 1, grid.n_m - 1, grid.n_v - 1

    # hot-loop locals: O(1) range queries from prefix sums, no method calls
    cumU = chain._cum_u.tolist()  # U(k,l) = cumU[l] - cumU[k-1]
    cumW = chain._cum_w.tolist()
    cumA = chain._cum_a_in.tolist()  # Σ a_{i-1} over k..l
    act = chain._act.tolist()  # a^{(l)}, index 0..L
    ceil = math.ceil

    def mem(k: int, l: int, g: int) -> float:
        """``M(k, l, g)`` of §4.2.1 (buffers dropped at chain ends)."""
        m = 3.0 * (cumW[l] - cumW[k - 1]) + g * (cumA[l] - cumA[k - 1])
        if k > 1:
            m += 2.0 * act[k - 1]
        if l < L:
            m += 2.0 * act[l]
        return m

    def oplus(x: float, y: float) -> float:
        """Group-rounding delay addition (paper §4.2.2)."""
        cx = ceil(x / That - 1e-9)
        if cx == ceil((x + y) / That - 1e-9):
            return x + y
        return That * cx + y

    # memo[(l, p, it, im, iv)] = (period, decision)
    # decision: (k, is_special, child_key) or None at base cases
    memo: dict[tuple, tuple[float, tuple | None]] = {}
    # states the load bound drops: valued INF, never memoized
    pruned: set[tuple] = set()

    sys.setrecursionlimit(max(sys.getrecursionlimit(), 10 * L + 1000))

    def solve(l: int, p: int, it: int, im: int, iv: int) -> tuple[float, tuple | None]:
        if l == 0:
            return (it * t_step, None)
        key = (l, p, it, im, iv)
        hit = memo.get(key)
        if hit is not None:
            return hit
        t_P, m_P, V = it * t_step, im * m_step, iv * v_step
        # the state bounds: t_P + U(1,l) spread over at most p + 1
        # processors, less the snap's slack of at most l special stages;
        # and t_P, since it2 ≥ it on every special stage and T(0, ·) = t_P
        if allow_special and (
            t_P >= period_cap
            or t_P + cumU[l] >= (p + 1) * period_cap + l * _EPS * t_step
        ):
            pruned.add(key)
            return (INF, None)
        best: float = INF
        best_dec: tuple | None = None

        if p == 0:
            # all remaining layers become one stage on the special processor
            U_1l = cumU[l]
            g = max(1, ceil((V + U_1l) / That - 1e-9))
            if allow_special and m_P + mem(1, l, g - 1) <= M + _EPS:
                best = U_1l + t_P
                best_dec = (1, True, None)
            memo[key] = (best, best_dec)
            return memo[key]

        cumU_l = cumU[l]
        for k in range(l, 0, -1):
            U_kl = cumU_l - cumU[k - 1]
            comm = 2.0 * act[k - 1] / beta if k > 1 else 0.0
            if U_kl >= period_cap and t_P + U_kl >= period_cap:
                break  # larger stages only get worse
            g = ceil((V + U_kl) / That - 1e-9)
            if g < 1:
                g = 1
            V2 = oplus(oplus(V, U_kl), comm)
            iv2 = ceil(V2 / v_step - 1e-9)
            if iv2 > iv_top:
                iv2 = iv_top
            # normal processor
            if max(U_kl, comm) < period_cap and mem(k, l, g) <= M + _EPS:
                sub, _ = solve(k - 1, p - 1, it, im, iv2)
                cand = max(U_kl, comm, sub)
                if cand < best:
                    best = cand
                    best_dec = (k, False, (k - 1, p - 1, it, im, iv2))
            # special processor
            if allow_special:
                t2 = t_P + U_kl
                m2 = m_P + mem(k, l, g - 1)
                if max(t2, comm) < period_cap and m2 <= M + _EPS:
                    it2 = ceil(t2 / t_step - 1e-9)
                    if it2 > it_top:
                        it2 = it_top
                    im2 = ceil(m2 / m_step - 1e-9)
                    if im2 > im_top:
                        im2 = im_top
                    sub, _ = solve(k - 1, p, it2, im2, iv2)
                    cand = max(t2, comm, sub)
                    if cand < best:
                        best = cand
                        best_dec = (k, True, (k - 1, p, it2, im2, iv2))
        entry = (best, best_dec)
        memo[key] = entry
        return entry

    # P-1 normal processors plus the special one; without the special
    # processor all P processors are normal.
    root = (L, P - 1 if allow_special else P, 0, 0, 0)
    period, _ = solve(*root)
    if period >= period_cap:  # the cap holds: a period under it, or nothing
        return MadPipeDPResult(
            target, INF, None, states=len(memo), pruned_load=len(pruned)
        )

    # traceback — every state on the optimal path below the root is
    # memoized (solve() stored it while computing the root), so a plain
    # lookup suffices.
    stages: list[Stage] = []
    special: list[bool] = []
    key = root
    while True:
        l = key[0]
        if l == 0:
            break
        _, dec = memo[key]
        if dec is None:
            break
        k, is_special, child = dec
        stages.append(Stage(k, l))
        special.append(is_special)
        if child is None:
            break
        key = child
    stages.reverse()
    special.reverse()
    return MadPipeDPResult(
        target, period, DPAllocation(tuple(stages), tuple(special)),
        states=len(memo), pruned_load=len(pruned),
    )
