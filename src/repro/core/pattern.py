"""Periodic schedule patterns (paper §3, Fig. 2).

A pattern of period ``T`` specifies, for every operation (forward ``F_s`` /
backward ``B_s`` of each stage, and the activation/gradient transfers of
every cut boundary), the resource in charge, a starting time ``t ∈ [0, T)``
and an integer *index shift* ``h``: in the ``k``-th period the operation
starts at ``kT + t`` and processes mini-batch ``k − h``.

The pattern is *valid* when, repeated indefinitely, it satisfies the
dependencies of Fig. 1 and never overlaps two operations on one resource.
For a same-batch dependency ``u → v`` this reduces to the batch-independent
inequality ``(h_v − h_u)·T + t_v − t_u ≥ d_u``.

The steady-state number of active batches a stage keeps in memory at
in-period time ``τ`` is ``(h_B − h_F) + [τ ≥ t_F] − [τ ≥ t_B + d_B]``
(activation storage is charged from forward start to backward completion).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .chain import Chain
from .memory import static_memory
from .partition import Allocation
from .platform import Platform
from .tolerances import CHECK_RTOL, EPS, memory_slack

__all__ = [
    "Op",
    "OpKind",
    "OP_KINDS",
    "PeriodicPattern",
    "PatternError",
    "gpu",
    "link",
    "EPS",
    "F",
    "B",
    "W",
    "CF",
    "CB",
    "is_compute",
    "is_comm",
    "SPLIT_FRACTION",
    "split_backward",
    "allocation_ops",
    "dependency_edges",
]

# Operation kinds: stage compute and boundary communications.  ``W`` is
# the grad-weight half of a split backward (zero-bubble families); in the
# classic 1F1B model ``B`` is the whole backward and no ``W`` op exists.
F, B, W, CF, CB = "F", "B", "W", "CF", "CB"


@dataclass(frozen=True)
class OpKind:
    """Registry entry describing one operation kind.

    ``category`` is ``"compute"`` (runs on a GPU, indexed by stage) or
    ``"comm"`` (runs on a link, indexed by cut boundary).  ``glyph`` is
    the single character used by the Gantt renderer.  New schedule
    families extend the model by registering kinds here rather than
    scattering string literals — the validator, simulator, MILP and
    renderer all classify ops through this table.
    """

    name: str
    category: str
    glyph: str
    description: str

    @property
    def is_compute(self) -> bool:
        return self.category == "compute"

    @property
    def is_comm(self) -> bool:
        return self.category == "comm"


#: Central op-kind registry.  Keys are the wire/legacy string constants.
OP_KINDS: dict[str, OpKind] = {
    F: OpKind(F, "compute", "#", "forward pass of a stage"),
    B: OpKind(B, "compute", "=", "backward (grad-input, or full backward)"),
    W: OpKind(W, "compute", "~", "grad-weight half of a split backward"),
    CF: OpKind(CF, "comm", "#", "activation transfer across a cut"),
    CB: OpKind(CB, "comm", "=", "gradient transfer across a cut"),
}


def is_compute(kind: str) -> bool:
    """True iff ``kind`` is a stage-compute op (runs on a GPU)."""
    return OP_KINDS[kind].is_compute


def is_comm(kind: str) -> bool:
    """True iff ``kind`` is a boundary-communication op (runs on a link)."""
    return OP_KINDS[kind].is_comm


#: Grad-input share of a split backward: ``d_B = 0.5·u_b`` (the 2BP
#: measurement — grad-input and grad-weight costs are roughly equal).
#: The zero-bubble period search, its pattern builder and the MILP all
#: split at this share.
SPLIT_FRACTION = 0.5


def split_backward(
    backward: float, fraction: float = SPLIT_FRACTION
) -> tuple[float, float]:
    """Split a monolithic backward duration into ``(d_B, d_W)``.

    ``d_B`` is the grad-input half (stays on the critical path), ``d_W``
    the grad-weight half (has no downstream dependents except freeing the
    grad-input buffer).  The two always sum exactly to ``backward``.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    d_b = fraction * backward
    return d_b, backward - d_b


def gpu(p: int) -> tuple:
    """Resource key of processor ``p``."""
    return ("gpu", p)


def link(p: int, q: int) -> tuple:
    """Resource key of the (unordered) link between processors p and q."""
    return ("link", min(p, q), max(p, q))


OpKey = tuple[str, int]


def allocation_ops(
    chain: Chain, platform: Platform, allocation: Allocation, *, split: bool
) -> dict[OpKey, tuple[float, tuple]]:
    """The operations of ``allocation``: ``(kind, index) -> (duration,
    resource)``, in the MILP's op order.

    Every stage ``i`` runs ``F_i`` (its forward) and ``B_i`` (its
    backward) on its GPU; with ``split`` the backward becomes ``B_i`` +
    ``W_i`` (:func:`split_backward`).  Every cut between two GPUs, after
    stage ``i``, carries ``CF_i`` and ``CB_i`` of duration ``a_i / β`` on
    their link.  This table is the one op model of the planners, the
    validator, the eager simulator and the robustness stress.
    """
    ops: dict[OpKey, tuple[float, tuple]] = {}
    stages, procs = allocation.stages, allocation.procs
    for i, s in enumerate(stages):
        res = gpu(procs[i])
        ops[(F, i)] = (s.forward(chain), res)
        if split:
            d_b, d_w = split_backward(s.backward(chain))
            ops[(B, i)] = (d_b, res)
            ops[(W, i)] = (d_w, res)
        else:
            ops[(B, i)] = (s.backward(chain), res)
    for i in range(len(stages) - 1):
        if procs[i] != procs[i + 1]:
            half = chain.activation(stages[i].end) / platform.bandwidth
            ops[(CF, i)] = ops[(CB, i)] = (half, link(procs[i], procs[i + 1]))
    return ops


def dependency_edges(ops, n_stages: int) -> list[tuple[OpKey, OpKey]]:
    """Same-batch dependency edges between the op keys of ``ops`` (any
    container of keys, e.g. a pattern's ops or :func:`allocation_ops`)
    over ``n_stages`` stages (Fig. 1 semantics, lifted to stages):
    ``F_i → (CF_i →) F_{i+1}``, ``F_N → B_N``, ``B_{i+1} → (CB_i →) B_i``,
    and ``F_i → B_i`` (a stage's backward needs its own stored
    activations).  When a stage carries a split backward, its grad-weight
    op adds ``B_i → W_i`` — ``W`` has no downstream dependents, it only
    frees the grad-input buffer.
    """
    edges: list[tuple[OpKey, OpKey]] = []
    for i in range(n_stages - 1):
        if (CF, i) in ops:
            edges.append(((F, i), (CF, i)))
            edges.append(((CF, i), (F, i + 1)))
        else:
            edges.append(((F, i), (F, i + 1)))
        if (CB, i) in ops:
            edges.append(((B, i + 1), (CB, i)))
            edges.append(((CB, i), (B, i)))
        else:
            edges.append(((B, i + 1), (B, i)))
    for i in range(n_stages):
        edges.append(((F, i), (B, i)))
        if (W, i) in ops:
            edges.append(((B, i), (W, i)))
    return edges


class PatternError(ValueError):
    """Raised when a pattern violates the periodic-schedule semantics."""


@dataclass
class Op:
    """One operation of a periodic pattern.

    ``kind`` is a key of :data:`OP_KINDS`; ``index`` is the stage index
    for compute ops and the boundary index ``i`` (the cut after stage
    ``i``) for communication ops.
    """

    kind: str
    index: int
    resource: tuple
    start: float
    duration: float
    shift: int

    @property
    def end(self) -> float:
        return self.start + self.duration

    @property
    def key(self) -> tuple[str, int]:
        return (self.kind, self.index)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Op({self.kind}{self.index} on {self.resource} "
            f"@{self.start:.4f}+{self.duration:.4f} h={self.shift})"
        )


@dataclass
class PeriodicPattern:
    """A periodic pattern for a given allocation.

    ``ops`` maps ``(kind, index)`` to :class:`Op`.  Communication ops exist
    only for boundaries whose adjacent stages live on different processors.
    """

    allocation: Allocation
    period: float
    ops: dict[tuple[str, int], Op] = field(default_factory=dict)

    # -- construction --------------------------------------------------------

    def add(self, op: Op) -> None:
        if op.key in self.ops:
            raise PatternError(f"duplicate op {op.key}")
        self.ops[op.key] = op

    def normalize(self) -> None:
        """Fold starting times into ``[0, T)`` by adjusting shifts (the
        paper's "if any operation starts later than T, lower its start by T
        and increase its shift by 1"), then shift all indices so that ``F``
        of stage 0 has shift 0.  Operations may still *end* past ``T``:
        they wrap around the period boundary.
        """
        T = self.period
        for op in self.ops.values():
            while op.start >= T - EPS:
                op.start -= T
                op.shift += 1
            while op.start < -EPS:
                op.start += T
                op.shift -= 1
        base = self.ops[(F, 0)].shift
        if base:
            for op in self.ops.values():
                op.shift -= base

    # -- dependency structure -------------------------------------------------

    def op_table(self, chain: Chain, platform: Platform) -> dict[OpKey, tuple[float, tuple]]:
        """:func:`allocation_ops` of this pattern's allocation, split when
        the pattern carries any ``W`` op: the ops it must consist of."""
        split = any(kind == W for kind, _ in self.ops)
        return allocation_ops(chain, platform, self.allocation, split=split)

    def dependency_edges(self) -> list[tuple[OpKey, OpKey]]:
        """Same-batch dependency edges between op keys; see
        :func:`dependency_edges`."""
        return dependency_edges(self.ops, self.allocation.n_stages)

    # -- validation -----------------------------------------------------------

    def validate(self, chain: Chain, platform: Platform, tol: float = CHECK_RTOL) -> None:
        """Raise :class:`PatternError` on any violation of the semantics."""
        self._validate_structure(chain, platform, tol)
        self._validate_dependencies(tol)
        self._validate_resources(tol)

    def _validate_structure(self, chain: Chain, platform: Platform, tol: float) -> None:
        """Compare the pattern's ops with :meth:`op_table`: the same op
        set, each op on its resource with its duration (within
        ``tol·max(1, d)``), and every start in ``[0, T)``.  A pattern
        with any ``W`` op is read as a split backward, which must then
        cover every stage."""
        alloc = self.allocation
        alloc.validate(chain, platform)
        table = self.op_table(chain, platform)
        for kind, i in table:
            if (kind, i) in self.ops:
                continue
            if kind == W:
                n_w = sum(1 for key in self.ops if key[0] == W)
                raise PatternError(
                    f"split backward must cover every stage: {n_w} W ops for "
                    f"{alloc.n_stages} stages"
                )
            what = "communication" if is_comm(kind) else "op"
            raise PatternError(f"missing {what} {kind}{i}")
        for op in self.ops.values():
            if op.kind not in OP_KINDS:
                raise PatternError(f"{op} has unregistered kind {op.kind!r}")
            if op.key not in table:
                what = "communication" if is_comm(op.kind) else "op"
                raise PatternError(f"spurious {what} {op.kind}{op.index}")
            duration, resource = table[op.key]
            if op.start < -tol or op.start >= self.period + tol:
                raise PatternError(f"{op} starts outside [0, {self.period})")
            if op.duration > self.period + tol:
                raise PatternError(f"{op} is longer than the period")
            if op.resource != resource:
                raise PatternError(f"{op} on wrong resource (expected {resource})")
            if abs(op.duration - duration) > tol * max(1.0, duration):
                raise PatternError(
                    f"{op} duration differs from the chain's {duration:.6g}s"
                )

    def _validate_dependencies(self, tol: float) -> None:
        T = self.period
        for u_key, v_key in self.dependency_edges():
            u, v = self.ops[u_key], self.ops[v_key]
            slack = (v.shift - u.shift) * T + v.start - u.start - u.duration
            if slack < -tol:
                raise PatternError(
                    f"dependency {u_key} -> {v_key} violated by {-slack:.3g}s"
                )

    def _validate_resources(self, tol: float) -> None:
        T = self.period
        by_resource: dict[tuple, list[Op]] = {}
        for op in self.ops.values():
            by_resource.setdefault(op.resource, []).append(op)
        for resource, ops in by_resource.items():
            # circular (mod T) pairwise overlap test: [s, s+d) and
            # [s', s'+d') intersect on the period circle iff either start
            # falls strictly inside the other interval:
            # (s' - s) mod T < d  or  (s - s') mod T < d'.
            for i, a in enumerate(ops):
                for b in ops[i + 1 :]:
                    gap_ab = (b.start - a.start) % T
                    gap_ba = (a.start - b.start) % T
                    if gap_ab < a.duration - tol or gap_ba < b.duration - tol:
                        raise PatternError(f"overlap on {resource}: {a} and {b}")

    # -- memory accounting ------------------------------------------------------

    def active_batches(self, stage_idx: int, tau: float) -> int:
        """Steady-state number of active batches stage ``stage_idx`` stores
        at in-period time ``tau``.

        Counting batches whose ``F`` has started and whose ``B`` has not
        completed at absolute time ``kT + tau`` gives, for any large ``k``,
        ``floor((tau − t_F)/T) − floor((tau − t_B − d_B)/T) + (h_B − h_F)``
        — valid also when the backward wraps past the period boundary.

        For a split-backward stage the stored activations are consumed by
        the grad-weight op as well, so they are freed at ``W`` completion
        instead of ``B`` completion.
        """
        T = self.period
        f = self.ops[(F, stage_idx)]
        b = self.ops.get((W, stage_idx)) or self.ops[(B, stage_idx)]
        started = math.floor((tau - f.start + EPS) / T)
        freed = math.floor((tau - b.end + EPS) / T)
        return b.shift - f.shift + started - freed

    def active_grad_batches(self, stage_idx: int, tau: float) -> int:
        """Steady-state number of grad-input buffers stage ``stage_idx``
        holds at in-period time ``tau``.

        Only meaningful for split-backward stages: the buffer is
        allocated when ``B`` starts and freed when ``W`` completes.
        Returns 0 for stages without a ``W`` op.
        """
        if (W, stage_idx) not in self.ops:
            return 0
        T = self.period
        b = self.ops[(B, stage_idx)]
        w = self.ops[(W, stage_idx)]
        started = math.floor((tau - b.start + EPS) / T)
        freed = math.floor((tau - w.end + EPS) / T)
        return w.shift - b.shift + started - freed

    def memory_peaks(self, chain: Chain) -> dict[int, float]:
        """Steady-state peak memory (bytes) per processor.

        Static terms (weights, communication buffers) follow the §3 model;
        the activation term is evaluated at every forward-start and
        backward-end event of the period.  Split-backward stages add a
        grad-input buffer held from B start to W completion, evaluated at
        the B-start and W-end events as well.
        """
        alloc = self.allocation
        peaks: dict[int, float] = {}
        for p, static in static_memory(chain, alloc).items():
            stage_idxs = alloc.stages_on_proc(p)
            w_idxs = [i for i in stage_idxs if (W, i) in self.ops]
            events = {0.0}
            for i in stage_idxs:
                events.add(self.ops[(F, i)].start % self.period)
                events.add(self.ops[(B, i)].end % self.period)
            for i in w_idxs:
                events.add(self.ops[(B, i)].start % self.period)
                events.add(self.ops[(W, i)].end % self.period)
            peak = 0.0
            for tau in events:
                act = sum(
                    self.active_batches(i, tau) * alloc.stages[i].stored_activations(chain)
                    for i in stage_idxs
                )
                if w_idxs:
                    act += sum(
                        self.active_grad_batches(i, tau) * alloc.stages[i].grad_buffer(chain)
                        for i in w_idxs
                    )
                peak = max(peak, static + act)
            peaks[p] = peak
        return peaks

    def check_memory(self, chain: Chain, platform: Platform, tol: float = CHECK_RTOL) -> None:
        """Raise :class:`PatternError` if any GPU exceeds its capacity.

        The slack is the combined absolute + relative tolerance of
        :func:`repro.core.tolerances.memory_slack`, so the check stays
        meaningful on tiny synthetic capacities where a relative-only
        slack degenerates to float noise.
        """
        cap = platform.memory + memory_slack(platform.memory, tol)
        for p, peak in self.memory_peaks(chain).items():
            if peak > cap:
                raise PatternError(
                    f"GPU {p} peak memory {peak / 2**30:.2f} GiB exceeds "
                    f"capacity {platform.memory / 2**30:.2f} GiB"
                )

    @property
    def throughput(self) -> float:
        """Mini-batches per second in steady state (``1 / T``)."""
        return 1.0 / self.period
