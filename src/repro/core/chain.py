"""Linearized DNN chain model (paper §3).

A :class:`Chain` describes a linear (or linearized) network of ``L`` layers,
numbered ``1..L`` as in the paper.  Each layer ``l`` carries:

* ``u_F[l]`` / ``u_B[l]`` — durations (seconds) of the forward / backward
  task on a mini-batch of size ``B``;
* ``W[l]`` — parameter weight size (bytes);
* ``a[l]`` — size (bytes) of the activation tensor produced by ``F_l``.
  ``a[0]`` is the size of the network input.  The gradient ``b^{(l)}``
  consumed by ``B_l`` has the same size as ``a^{(l)}``.

All range quantities used by the algorithms (``U(k,l)``, stored-activation
sums, weight sums) are served in O(1) from prefix sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LayerProfile", "Chain"]


@dataclass(frozen=True)
class LayerProfile:
    """Profile of a single chain layer.

    Attributes mirror the paper's notation: ``u_f``/``u_b`` are the forward
    and backward durations in seconds, ``weights`` the parameter bytes
    (one copy — the training-time factor of 3 is applied by the memory
    model, not here), ``activation`` the bytes of the output tensor
    ``a^{(l)}`` for the profiled mini-batch size.
    """

    name: str
    u_f: float
    u_b: float
    weights: float
    activation: float

    def __post_init__(self) -> None:
        for attr in ("u_f", "u_b", "weights", "activation"):
            v = getattr(self, attr)
            try:
                finite = math.isfinite(v)
            except TypeError:
                raise ValueError(
                    f"layer {self.name!r}: {attr} must be a number, got {v!r}"
                ) from None
            if not finite:
                raise ValueError(f"layer {self.name!r}: non-finite {attr} ({v!r})")
        if self.u_f < 0 or self.u_b < 0:
            raise ValueError(f"layer {self.name!r}: negative duration")
        if self.weights < 0 or self.activation < 0:
            raise ValueError(f"layer {self.name!r}: negative size")


@dataclass
class Chain:
    """A chain of ``L`` layers plus the input activation size ``a[0]``.

    Layers are addressed with the paper's 1-based indices throughout the
    public API.
    """

    layers: list[LayerProfile]
    input_activation: float
    name: str = "chain"

    # prefix sums, filled in __post_init__ (index 0 == empty prefix)
    _cum_u: np.ndarray = field(init=False, repr=False)
    _cum_uf: np.ndarray = field(init=False, repr=False)
    _cum_ub: np.ndarray = field(init=False, repr=False)
    _cum_w: np.ndarray = field(init=False, repr=False)
    _cum_a_in: np.ndarray = field(init=False, repr=False)
    _act: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("a chain needs at least one layer")
        try:
            finite = math.isfinite(self.input_activation)
        except TypeError:
            raise ValueError(
                f"input activation size must be a number, "
                f"got {self.input_activation!r}"
            ) from None
        if not finite:
            raise ValueError(
                f"input activation size must be finite, got {self.input_activation!r}"
            )
        if self.input_activation < 0:
            raise ValueError("negative input activation size")
        u_f = np.array([l.u_f for l in self.layers], dtype=float)
        u_b = np.array([l.u_b for l in self.layers], dtype=float)
        w = np.array([l.weights for l in self.layers], dtype=float)
        # _act[l] == a^{(l)} for l in 0..L
        self._act = np.concatenate(
            ([self.input_activation], [l.activation for l in self.layers])
        ).astype(float)
        zero = np.zeros(1)
        self._cum_uf = np.concatenate((zero, np.cumsum(u_f)))
        self._cum_ub = np.concatenate((zero, np.cumsum(u_b)))
        self._cum_u = self._cum_uf + self._cum_ub
        self._cum_w = np.concatenate((zero, np.cumsum(w)))
        # stored ("input") activation of layer i is a^{(i-1)}; prefix over that
        self._cum_a_in = np.concatenate((zero, np.cumsum(self._act[:-1])))

    # -- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.layers)

    @property
    def L(self) -> int:
        """Number of layers."""
        return len(self.layers)

    def layer(self, l: int) -> LayerProfile:
        """Return the profile of layer ``l`` (1-based)."""
        self._check_layer(l)
        return self.layers[l - 1]

    def u_f(self, l: int) -> float:
        """Forward duration of layer ``l``."""
        self._check_layer(l)
        return float(self._cum_uf[l] - self._cum_uf[l - 1])

    def u_b(self, l: int) -> float:
        """Backward duration of layer ``l``."""
        self._check_layer(l)
        return float(self._cum_ub[l] - self._cum_ub[l - 1])

    def weight(self, l: int) -> float:
        """Parameter bytes of layer ``l`` (single copy)."""
        self._check_layer(l)
        return float(self._cum_w[l] - self._cum_w[l - 1])

    def activation(self, l: int) -> float:
        """Size of ``a^{(l)}`` for ``l`` in ``0..L`` (``a[0]`` = input)."""
        if not 0 <= l <= self.L:
            raise IndexError(f"activation index {l} out of range 0..{self.L}")
        return float(self._act[l])

    # -- range queries (paper notation) ------------------------------------

    def U(self, k: int, l: int) -> float:
        """Total compute cost ``Σ_{i=k}^{l} u_F_i + u_B_i`` (paper §4.2).

        Returns 0 for the empty range ``k > l``.
        """
        if k > l:
            return 0.0
        self._check_layer(k)
        self._check_layer(l)
        return float(self._cum_u[l] - self._cum_u[k - 1])

    def U_f(self, k: int, l: int) -> float:
        """Forward-only cost of layers ``k..l``."""
        if k > l:
            return 0.0
        self._check_layer(k)
        self._check_layer(l)
        return float(self._cum_uf[l] - self._cum_uf[k - 1])

    def U_b(self, k: int, l: int) -> float:
        """Backward-only cost of layers ``k..l``."""
        if k > l:
            return 0.0
        self._check_layer(k)
        self._check_layer(l)
        return float(self._cum_ub[l] - self._cum_ub[k - 1])

    def weights(self, k: int, l: int) -> float:
        """Parameter bytes of layers ``k..l`` (single copy)."""
        if k > l:
            return 0.0
        self._check_layer(k)
        self._check_layer(l)
        return float(self._cum_w[l] - self._cum_w[k - 1])

    def stored_activations(self, k: int, l: int) -> float:
        """``ā = Σ_{i=k}^{l} a_{i-1}`` — bytes one active batch keeps for
        the backward pass of layers ``k..l`` (paper §4.3)."""
        if k > l:
            return 0.0
        self._check_layer(k)
        self._check_layer(l)
        return float(self._cum_a_in[l] - self._cum_a_in[k - 1])

    # -- vectorized range queries (NumPy fast paths) ------------------------
    #
    # These serve whole arrays of (start, end) ranges in one shot from the
    # cached prefix sums, with the *same* float arithmetic as the scalar
    # accessors (``cum[l] - cum[k-1]`` per range), so kernels built on them
    # are bit-identical to loops over ``U_f``/``U_b``/``weights``/…

    def u_ranges(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`U`: compute cost of layers ``starts[i]..ends[i]``."""
        return self._cum_u[ends] - self._cum_u[starts - 1]

    def u_f_ranges(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`U_f`: forward cost of layers ``starts[i]..ends[i]``."""
        return self._cum_uf[ends] - self._cum_uf[starts - 1]

    def u_b_ranges(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`U_b`: backward cost of layers ``starts[i]..ends[i]``."""
        return self._cum_ub[ends] - self._cum_ub[starts - 1]

    def weight_ranges(self, starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`weights` (single copy) over layer ranges."""
        return self._cum_w[ends] - self._cum_w[starts - 1]

    def stored_activation_ranges(
        self, starts: np.ndarray, ends: np.ndarray
    ) -> np.ndarray:
        """Vectorized :meth:`stored_activations` (``ā``) over layer ranges."""
        return self._cum_a_in[ends] - self._cum_a_in[starts - 1]

    def activation_values(self, ls: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`activation`: ``a^{(l)}`` for each ``l`` in ``0..L``."""
        return self._act[ls]

    def comm_time(self, l: int, bandwidth: float) -> float:
        """``C(l) = 2·a_l / β`` — the total link time of the boundary after
        layer ``l`` (activation forward + gradient backward), for ``l`` in
        ``0..L``.  ``C(0)`` and ``C(L)`` denote the (non-existent) chain
        boundaries and are 0.
        """
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        if l <= 0 or l >= self.L:
            return 0.0
        return 2.0 * float(self._act[l]) / bandwidth

    def total_compute(self) -> float:
        """``U(1, L)`` — the sequential execution time of one mini-batch."""
        return self.U(1, self.L)

    def total_comm(self, bandwidth: float) -> float:
        """``Σ_{l=1}^{L-1} C(l)`` — total link time if every boundary cut."""
        if bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        return float(2.0 * self._act[1 : self.L].sum() / bandwidth)

    # -- helpers ------------------------------------------------------------

    def _check_layer(self, l: int) -> None:
        if not 1 <= l <= self.L:
            raise IndexError(f"layer index {l} out of range 1..{self.L}")

    def subchain(self, k: int, l: int, name: str | None = None) -> "Chain":
        """Chain consisting of layers ``k..l``; input activation ``a[k-1]``."""
        self._check_layer(k)
        self._check_layer(l)
        if k > l:
            raise ValueError("empty subchain")
        return Chain(
            layers=self.layers[k - 1 : l],
            input_activation=float(self._act[k - 1]),
            name=name or f"{self.name}[{k}:{l}]",
        )

    def to_dict(self) -> dict:
        """JSON-serializable representation; its one decoder is
        :func:`repro.profiling.io.chain_from_dict`."""
        return {
            "name": self.name,
            "input_activation": self.input_activation,
            "layers": [
                {
                    "name": l.name,
                    "u_f": l.u_f,
                    "u_b": l.u_b,
                    "weights": l.weights,
                    "activation": l.activation,
                }
                for l in self.layers
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Chain({self.name!r}, L={self.L}, "
            f"U={self.total_compute():.4f}s, "
            f"weights={self.weights(1, self.L) / 2**20:.1f}MiB)"
        )
