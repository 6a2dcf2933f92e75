"""MILP formulation of periodic-pattern scheduling at a fixed period (§4.3).

Adapted from the ILP of ref. [1] to the stage chains produced by MadPipe's
phase 1: stages are super-layers with durations ``U_F(s)/U_B(s)``,
communication ops carry ``a_s`` (the boundary activation), while memory
constraints charge the *stored activation cost* ``ā_s = Σ_{i∈s} a_{i-1}``.

For a fixed period ``T`` the pattern semantics of §3 become linear:

* start times ``t_o ∈ [0, T − d_o]`` (operations do not wrap) and integer
  index shifts ``h_o ≥ 0``;
* a same-batch dependency ``u → v`` is
  ``(h_v − h_u)·T + t_v − t_u ≥ d_u``;
* two ops on one resource get a disjunction binary ``y``
  (``y = 1`` ⇔ first op precedes the second inside the period);
* the per-GPU memory peak is checked just after every forward start,
  where the number of active batches of stage ``s'`` is
  ``h_{B_{s'}} − h_{F_{s'}} + [F_{s'} before event] − [B_{s'} before
  event]`` and the bracket indicators are exactly the ``y`` binaries of
  the GPU's resource disjunctions.

The objective minimizes the total number of in-flight batches
``Σ_s (h_B_s − h_F_s)``, which steers the solver toward low-memory
patterns among the feasible ones.

Because ``schedule_allocation`` probes many periods for one allocation,
the model is split in two: :func:`build_skeleton` assembles everything
that does not depend on ``T`` (operations, dependency edges, the dense
constraint matrix with its T-independent coefficients, memory rows,
variable classes) once per allocation, and
:meth:`MilpSkeleton.instantiate` fills in the few T-scaled coefficients
(``±T`` on shift and disjunction variables, ``d_a − T`` disjunction
bounds, ``T − d_o`` start-time bounds) in O(nnz) per probe.
:func:`build_milp` is the composition of the two, for one-off models.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.chain import Chain
from ..core.memory import static_memory
from ..core.partition import Allocation
from ..core.pattern import OpKey, allocation_ops, dependency_edges
from ..core.platform import Platform

if TYPE_CHECKING:
    from scipy.optimize import Bounds, LinearConstraint

__all__ = ["ScheduleMILP", "MilpSkeleton", "build_skeleton", "build_milp"]


@dataclass
class ScheduleMILP:
    """A ready-to-solve MILP instance for one (allocation, period) pair."""

    period: float
    ops: list[OpKey]
    durations: dict[OpKey, float]
    resources: dict[OpKey, tuple]
    t_index: dict[OpKey, int]
    h_index: dict[OpKey, int]
    y_index: dict[tuple[OpKey, OpKey], int]
    c: np.ndarray
    constraints: list[LinearConstraint]
    integrality: np.ndarray
    bounds: Bounds

    @property
    def n_vars(self) -> int:
        return len(self.c)


@dataclass
class MilpSkeleton:
    """Period-independent structure of the scheduling MILP for one
    allocation, plus the recipe to reparametrize it at any period.

    ``a_const`` holds every T-independent coefficient; the T-scaled
    entries live at ``(t_rows, t_cols)`` with per-entry factors
    ``t_scale`` (each such slot is zero in ``a_const`` and appears only
    once, so plain fancy-index assignment reconstructs the full matrix).
    Row lower bounds decompose as ``lb_const + lb_scale·T``; row upper
    bounds are T-independent.
    """

    ops: list[OpKey]
    durations: dict[OpKey, float]
    resources: dict[OpKey, tuple]
    t_index: dict[OpKey, int]
    h_index: dict[OpKey, int]
    y_index: dict[tuple[OpKey, OpKey], int]
    dep_edges: list[tuple[OpKey, OpKey]]
    a_const: np.ndarray  # (n_rows, n_vars)
    t_rows: np.ndarray
    t_cols: np.ndarray
    t_scale: np.ndarray
    lb_const: np.ndarray
    lb_scale: np.ndarray
    row_ub: np.ndarray
    var_ub: np.ndarray  # h/y/anchor bounds; t slots overwritten per period
    dur_arr: np.ndarray  # durations in t-variable order
    integrality: np.ndarray
    c: np.ndarray

    @property
    def n_ops(self) -> int:
        return len(self.ops)

    @property
    def n_vars(self) -> int:
        return len(self.c)

    def instantiate(self, period: float) -> ScheduleMILP:
        """The full MILP at ``period``.  The skeleton is not modified, so
        one skeleton serves every period of a search."""
        if period <= 0:
            raise ValueError("period must be positive")
        from scipy.optimize import Bounds, LinearConstraint  # phase 2 only

        T = period
        A = self.a_const.copy()
        A[self.t_rows, self.t_cols] = self.t_scale * T
        lb_rows = self.lb_const + self.lb_scale * T
        constraints = [LinearConstraint(A, lb_rows, self.row_ub.copy())]

        ub = self.var_ub.copy()
        ub[: self.n_ops] = np.maximum(T - self.dur_arr, 0.0)
        # re-anchor: F of stage 0 has shift 0 (the paper's convention)
        ub[self.h_index[("F", 0)]] = 0.0

        return ScheduleMILP(
            period=T,
            ops=self.ops,
            durations=self.durations,
            resources=self.resources,
            t_index=self.t_index,
            h_index=self.h_index,
            y_index=self.y_index,
            c=self.c,
            constraints=constraints,
            integrality=self.integrality,
            bounds=Bounds(np.zeros(self.n_vars), ub),
        )


def build_skeleton(
    chain: Chain,
    platform: Platform,
    allocation: Allocation,
    *,
    schedule_family: str = "1f1b",
) -> MilpSkeleton:
    """Assemble the period-independent part of the MILP for ``allocation``.

    The ops (in variable order), their durations and resources are
    :func:`~repro.core.pattern.allocation_ops`, and the dependency rows
    are :func:`~repro.core.pattern.dependency_edges` of that table.
    Raises ``ValueError`` when static memory (weights + buffers) alone
    exceeds some GPU's capacity — no period can fix that.

    ``schedule_family="zero_bubble"`` formulates the split-backward model
    (the table with ``split=True``): every stage carries ``F``/``B``/``W``
    ops with ``B → W`` dependency rows, activations are freed by ``W``
    instead of ``B``, memory events are checked after ``B`` starts as
    well (that is where grad-input buffers allocate), and the objective
    minimizes ``Σ (h_W − h_F)``.
    """
    from ..algorithms.onef1b import FAMILIES

    if schedule_family not in FAMILIES:
        raise ValueError(f"unknown schedule family {schedule_family!r}")
    split = FAMILIES[schedule_family].split
    table = allocation_ops(chain, platform, allocation, split=split)
    ops = list(table)
    dur = {o: d for o, (d, _) in table.items()}
    res = {o: r for o, (_, r) in table.items()}
    n_ops = len(ops)

    t_index = {o: i for i, o in enumerate(ops)}
    h_index = {o: n_ops + i for i, o in enumerate(ops)}
    n_vars = 2 * n_ops

    # resource disjunction binaries
    by_resource: dict[tuple, list[OpKey]] = {}
    for o in ops:
        by_resource.setdefault(res[o], []).append(o)
    y_index: dict[tuple[OpKey, OpKey], int] = {}
    for r_ops in by_resource.values():
        for a_i in range(len(r_ops)):
            for b_i in range(a_i + 1, len(r_ops)):
                y_index[(r_ops[a_i], r_ops[b_i])] = n_vars
                n_vars += 1

    rows: list[dict[int, float]] = []
    lbs: list[float] = []
    ubs: list[float] = []
    lb_scales: list[float] = []
    t_entries: list[tuple[int, int, float]] = []  # (row, col, scale): adds scale·T

    def add_row(
        coeffs: dict[int, float],
        lb: float,
        ub: float = np.inf,
        *,
        lb_scale: float = 0.0,
    ) -> None:
        rows.append(coeffs)
        lbs.append(lb)
        ubs.append(ub)
        lb_scales.append(lb_scale)

    # dependencies: T*(h_v - h_u) + t_v - t_u >= d_u
    dep_edges = dependency_edges(table, allocation.n_stages)
    for u, v in dep_edges:
        r = len(rows)
        t_entries.append((r, h_index[v], 1.0))
        t_entries.append((r, h_index[u], -1.0))
        # u == v is impossible; t coefficients may collide only if u == v
        add_row({t_index[v]: 1.0, t_index[u]: -1.0}, dur[u])

    # resource disjunctions:
    #   a before b (y=1): t_b - t_a - T*y >= d_a - T
    #   b before a (y=0): t_a - t_b + T*y >= d_b
    for (a, b), yi in y_index.items():
        r = len(rows)
        t_entries.append((r, yi, -1.0))
        add_row({t_index[b]: 1.0, t_index[a]: -1.0}, dur[a], lb_scale=-1.0)
        t_entries.append((r + 1, yi, 1.0))
        add_row({t_index[a]: 1.0, t_index[b]: -1.0}, dur[b])

    # memory: for each GPU p and each stage s on p, just after F_s starts
    def order_var(before: OpKey, after: OpKey) -> tuple[int, float, float]:
        """Return (var, coeff, const) such that [before precedes after]
        equals coeff*y[var] + const."""
        if (before, after) in y_index:
            return y_index[(before, after)], 1.0, 0.0
        return y_index[(after, before)], -1.0, 1.0

    M = platform.memory
    statics = static_memory(chain, allocation)
    for p in sorted(statics):
        stage_idxs = allocation.stages_on_proc(p)
        static = statics[p]

        def add_event(event: OpKey, p: int = p, stage_idxs=stage_idxs, static=static) -> None:
            coeffs: dict[int, float] = {}
            const = static
            for s_j in stage_idxs:
                # activations: allocated at F start, freed by B (1F1B) or
                # W (split backward, which consumes them too)
                free = ("W", s_j) if split else ("B", s_j)
                abar = allocation.stages[s_j].stored_activations(chain)
                if abar != 0.0:
                    coeffs[h_index[free]] = coeffs.get(h_index[free], 0.0) + abar
                    coeffs[h_index[("F", s_j)]] = coeffs.get(h_index[("F", s_j)], 0.0) - abar
                    if ("F", s_j) == event:
                        const += abar  # the event op itself has just started
                    else:
                        var, coef, cst = order_var(("F", s_j), event)
                        coeffs[var] = coeffs.get(var, 0.0) + abar * coef
                        const += abar * cst
                    var, coef, cst = order_var(free, event)
                    coeffs[var] = coeffs.get(var, 0.0) - abar * coef
                    const -= abar * cst
                if split:
                    # grad-input buffers: allocated at B start, freed at W
                    ghat = allocation.stages[s_j].grad_buffer(chain)
                    if ghat != 0.0:
                        coeffs[h_index[("W", s_j)]] = (
                            coeffs.get(h_index[("W", s_j)], 0.0) + ghat
                        )
                        coeffs[h_index[("B", s_j)]] = (
                            coeffs.get(h_index[("B", s_j)], 0.0) - ghat
                        )
                        if ("B", s_j) == event:
                            const += ghat
                        else:
                            var, coef, cst = order_var(("B", s_j), event)
                            coeffs[var] = coeffs.get(var, 0.0) + ghat * coef
                            const += ghat * cst
                        var, coef, cst = order_var(("W", s_j), event)
                        coeffs[var] = coeffs.get(var, 0.0) - ghat * coef
                        const -= ghat * cst
            if coeffs:
                add_row(coeffs, -np.inf, M - const)
            elif const > M:
                raise ValueError(
                    f"static memory {const:.3g} exceeds capacity on GPU {p}"
                )

        for s_i in stage_idxs:  # events: F starts, plus B starts when split
            add_event(("F", s_i))
            if split:
                add_event(("B", s_i))

    # assemble the T-independent matrix; T-scaled slots stay zero here
    a_const = np.zeros((len(rows), n_vars))
    for r, coeffs in enumerate(rows):
        for idx, val in coeffs.items():
            a_const[r, idx] = val
    t_rows = np.array([e[0] for e in t_entries], dtype=np.intp)
    t_cols = np.array([e[1] for e in t_entries], dtype=np.intp)
    t_scale = np.array([e[2] for e in t_entries])

    var_ub = np.empty(n_vars)
    dur_arr = np.array([dur[o] for o in ops])
    for o in ops:
        var_ub[h_index[o]] = 2 * n_ops  # generous: depth never exceeds the op count
    for yi in y_index.values():
        var_ub[yi] = 1.0

    integrality = np.zeros(n_vars)
    for o in ops:
        integrality[h_index[o]] = 1
    for yi in y_index.values():
        integrality[yi] = 1

    c = np.zeros(n_vars)
    for i in range(allocation.n_stages):
        free = ("W", i) if split else ("B", i)
        c[h_index[free]] += 1.0
        c[h_index[("F", i)]] -= 1.0

    return MilpSkeleton(
        ops=ops,
        durations=dur,
        resources=res,
        t_index=t_index,
        h_index=h_index,
        y_index=y_index,
        dep_edges=dep_edges,
        a_const=a_const,
        t_rows=t_rows,
        t_cols=t_cols,
        t_scale=t_scale,
        lb_const=np.array(lbs),
        lb_scale=np.array(lb_scales),
        row_ub=np.array(ubs),
        var_ub=var_ub,
        dur_arr=dur_arr,
        integrality=integrality,
        c=c,
    )


def build_milp(
    chain: Chain,
    platform: Platform,
    allocation: Allocation,
    period: float,
    *,
    schedule_family: str = "1f1b",
) -> ScheduleMILP:
    """Assemble the MILP for scheduling ``allocation`` with period ``T``:
    :func:`build_skeleton` instantiated at ``period``.  A caller probing
    several periods builds the skeleton once and instantiates it per
    period instead.
    """
    skeleton = build_skeleton(chain, platform, allocation, schedule_family=schedule_family)
    return skeleton.instantiate(period)
