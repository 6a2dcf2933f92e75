"""GPU memory model (paper §3 and §4.2.1).

A stage made of layers ``k..l`` held on a GPU that keeps ``g`` active
batches occupies

``M(k, l, g) = Σ_{i=k}^{l} (3·W_i + g·a_{i-1}) + 2·(a_{k-1} + a_l)``

* ``3·W_i`` — two versions of the parameters plus one accumulated gradient
  (the 2BW scheme of PipeDream-2BW adopted by the paper);
* ``g·a_{i-1}`` — ``g`` copies of each stored input activation;
* ``2·(a_{k-1} + a_l)`` — send/receive communication buffers at the stage
  boundaries (dropped when ``k = 1`` / ``l = L``, where no communication
  takes place).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .chain import Chain
from .partition import Allocation

__all__ = [
    "MemoryBreakdown",
    "effective_capacity",
    "stage_memory",
    "stage_memory_breakdown",
    "stage_memory_terms",
    "static_memory",
]


def effective_capacity(memory: float, headroom: float = 0.0) -> float:
    """Capacity (bytes) left for *planning* after reserving a safety margin.

    ``headroom`` is the fraction of each GPU reserved for profile drift,
    fragmentation and allocator overhead.  ``madpipe()`` plans on
    :meth:`~repro.core.platform.Platform.with_headroom`, so every planning
    layer fits its schedule into ``memory * (1 - headroom)``, while
    certification still measures margins against the full capacity.
    ``headroom = 0`` returns ``memory`` unchanged (bit-identical default).
    """
    if not 0.0 <= headroom < 1.0:
        raise ValueError(f"memory_headroom must be in [0, 1), got {headroom!r}")
    if headroom == 0.0:
        return memory
    return memory * (1.0 - headroom)


@dataclass(frozen=True)
class MemoryBreakdown:
    """Per-component memory usage of a stage, in bytes.

    A split backward's grad-input buffer is not a term here: it lives
    from ``B`` start to ``W`` completion, so the pattern's live-interval
    accounting charges it (:meth:`~repro.core.partition.Stage.grad_buffer`).
    """

    weights: float
    activations: float
    buffers: float

    @property
    def total(self) -> float:
        return self.weights + self.activations + self.buffers


def stage_memory_breakdown(
    chain: Chain,
    k: int,
    l: int,
    g: int,
    *,
    in_buffer: bool | None = None,
    out_buffer: bool | None = None,
) -> MemoryBreakdown:
    """Memory breakdown of stage ``k..l`` keeping ``g`` active batches.

    ``in_buffer`` / ``out_buffer`` control whether the communication buffers
    at the stage boundaries are counted.  By default they follow the paper's
    rule: present unless the boundary is the start (k = 1) or end (l = L)
    of the chain.  A non-contiguous allocation may override them (e.g. two
    stages of the special processor that are adjacent in the chain still
    exchange data through memory, but we keep the paper's conservative
    accounting and always charge buffers at internal boundaries).
    """
    if k > l:
        raise ValueError("empty stage")
    if g < 0:
        raise ValueError("negative active batch count")
    if in_buffer is None:
        in_buffer = k > 1
    if out_buffer is None:
        out_buffer = l < chain.L
    weights = 3.0 * chain.weights(k, l)
    activations = g * chain.stored_activations(k, l)
    buffers = 0.0
    if in_buffer:
        buffers += 2.0 * chain.activation(k - 1)
    if out_buffer:
        buffers += 2.0 * chain.activation(l)
    return MemoryBreakdown(weights=weights, activations=activations, buffers=buffers)


def stage_memory(
    chain: Chain,
    k: int,
    l: int,
    g: int,
    *,
    in_buffer: bool | None = None,
    out_buffer: bool | None = None,
) -> float:
    """Total ``M(k, l, g)`` in bytes (see :func:`stage_memory_breakdown`)."""
    return stage_memory_breakdown(
        chain, k, l, g, in_buffer=in_buffer, out_buffer=out_buffer
    ).total


def stage_memory_terms(
    chain: Chain, starts: np.ndarray, ends: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`stage_memory_breakdown`'s terms ``(3·W, ā, 2·a_{k-1}, 2·a_l)``
    over stages ``starts..ends`` (broadcastable arrays), with its float
    operations elementwise; a boundary buffer is 0 where the paper drops it
    and shaped by its own bound only.  Callers sum the terms in their own
    order: ``(w3 + g·ā) + (b_in + b_out)`` is the breakdown's ``total`` bit
    for bit, the DP kernels' ``((w3 + g·ā) + b_in) + b_out`` the reference's.
    """
    w3 = 3.0 * chain.weight_ranges(starts, ends)
    abar = chain.stored_activation_ranges(starts, ends)
    b_in = np.where(starts > 1, 2.0 * chain.activation_values(starts - 1), 0.0)
    b_out = np.where(ends < chain.L, 2.0 * chain.activation_values(ends), 0.0)
    return w3, abar, b_in, b_out


def static_memory(chain: Chain, allocation: Allocation) -> dict[int, float]:
    """Per-GPU bytes held with no batch active: the weights and buffers of
    the GPU's stages, summed in stage order."""
    static: dict[int, float] = {}
    for p in allocation.procs_used():
        total = 0.0
        for i in allocation.stages_on_proc(p):
            s = allocation.stages[i]
            bd = stage_memory_breakdown(chain, s.start, s.end, 0)
            total += bd.weights + bd.buffers
        static[p] = total
    return static
