"""Turn a shape-annotated :class:`ModelGraph` into per-node timings.

``profile_model`` attaches, to every graph node, the quantities the chain
model needs (paper §3): forward/backward durations for a mini-batch of
size ``B``, parameter bytes, and output activation bytes.

Profiles are noisy in practice — kernel autotuning, clock throttling and
allocator variance all move the measured ``u_F``/``u_B``/``a_l``/``W_l``
between runs.  :class:`NoiseModel` describes that uncertainty as
independent multiplicative noise per profiled quantity;
:mod:`repro.robust` samples it to stress-test certified plans.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.chain import Chain, LayerProfile
from ..models.graph import ModelGraph
from ..models.layers import numel
from .device import DeviceSpec

__all__ = ["LayerNoiseModel", "NoiseModel", "profile_model"]

_DISTRIBUTIONS = ("lognormal", "uniform")


@dataclass(frozen=True)
class NoiseModel:
    """Multiplicative noise on a profiled chain.

    Each quantity of each layer gets an independent factor: for the
    ``lognormal`` distribution ``exp(sigma · z)`` with ``z`` standard
    normal (median 1, always positive); for ``uniform`` it is
    ``1 + sigma · u`` with ``u ~ U(−1, 1)`` (clipped below at a tiny
    positive value when ``sigma > 1``).  ``sigma_compute`` drives
    ``u_F``/``u_B``, ``sigma_activation`` the activation sizes ``a_l``
    (including the input activation ``a_0``), ``sigma_weight`` the
    parameter bytes ``W_l``.

    Sampling is split into :meth:`draw` (the raw standard draws) and
    :meth:`apply` (turn one draw into a perturbed :class:`Chain`, with an
    optional ``scale`` multiplying every sigma) so callers can reuse one
    set of draws across noise levels — the common-random-numbers scheme
    the robustness bisection needs for a deterministic, monotone sweep.
    """

    sigma_compute: float = 0.05
    sigma_activation: float = 0.05
    sigma_weight: float = 0.0
    distribution: str = "lognormal"

    def __post_init__(self) -> None:
        for attr in ("sigma_compute", "sigma_activation", "sigma_weight"):
            v = getattr(self, attr)
            if not isinstance(v, (int, float)) or not np.isfinite(v) or v < 0:
                raise ValueError(f"{attr} must be a finite non-negative number, got {v!r}")
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; choose from {_DISTRIBUTIONS}"
            )

    def to_dict(self) -> dict:
        return {
            "sigma_compute": self.sigma_compute,
            "sigma_activation": self.sigma_activation,
            "sigma_weight": self.sigma_weight,
            "distribution": self.distribution,
        }

    def draw(self, rng: np.random.Generator, samples: int, n_layers: int) -> np.ndarray:
        """Standard draws of shape ``(samples, n_layers + 1, 4)``.

        Row 0 holds the input-activation draw (column 3); rows ``1..L``
        hold per-layer draws in column order ``(u_f, u_b, W, a)``.
        """
        shape = (samples, n_layers + 1, 4)
        if self.distribution == "lognormal":
            return rng.standard_normal(shape)
        return rng.uniform(-1.0, 1.0, size=shape)

    def sigma_for(self, n_layers: int) -> np.ndarray:
        """Sigma matrix of shape ``(n_layers + 1, 4)`` matching the draw
        layout of :meth:`draw` — uniform here: every layer gets the same
        ``(sigma_compute, sigma_compute, sigma_weight,
        sigma_activation)`` row.  :class:`LayerNoiseModel` overrides this
        with per-layer rows; the scalar model is its uniform special
        case."""
        sigma = np.array([
            self.sigma_compute,
            self.sigma_compute,
            self.sigma_weight,
            self.sigma_activation,
        ])
        return np.broadcast_to(sigma, (n_layers + 1, 4))

    def factors(self, draws: np.ndarray, scale: float = 1.0) -> np.ndarray:
        """Multiplicative factors for one draw matrix (any leading shape,
        trailing axis = the 4 quantity columns)."""
        sigma = self.sigma_for(draws.shape[-2] - 1)
        z = draws * (scale * sigma)
        if self.distribution == "lognormal":
            return np.exp(z)
        return np.maximum(1.0 + z, 1e-12)

    def apply(self, chain: Chain, draws: np.ndarray, scale: float = 1.0) -> Chain:
        """A perturbed copy of ``chain`` for one draw matrix of shape
        ``(L + 1, 4)`` (see :meth:`draw`)."""
        if draws.shape != (chain.L + 1, 4):
            raise ValueError(
                f"draws must have shape ({chain.L + 1}, 4), got {draws.shape}"
            )
        fac = self.factors(draws, scale)
        layers = [
            LayerProfile(
                name=layer.name,
                u_f=layer.u_f * f[0],
                u_b=layer.u_b * f[1],
                weights=layer.weights * f[2],
                activation=layer.activation * f[3],
            )
            for layer, f in zip(chain.layers, fac[1:])
        ]
        return Chain(
            layers=layers,
            input_activation=chain.input_activation * fac[0, 3],
            name=chain.name,
        )


@dataclass(frozen=True)
class LayerNoiseModel(NoiseModel):
    """Heteroscedastic per-layer noise, fitted from measured traces.

    The scalar :class:`NoiseModel` applies one sigma per quantity to
    every layer; this subclass carries one sigma per *(layer, quantity)*
    pair — the shape real variance has (an IO-bound embedding layer and
    an autotuned conv do not jitter alike).  Fields:

    * ``sigma_compute`` — length ``L``, drives ``u_F``/``u_B`` of layer
      ``l`` (1-based ``l`` ↔ index ``l-1``);
    * ``sigma_weight`` — length ``L``, drives ``W_l``;
    * ``sigma_activation`` — length ``L + 1``: index 0 is the input
      activation ``a_0``, index ``l`` the output of layer ``l``.

    The draw/apply/common-random-numbers machinery is inherited
    unchanged, so :mod:`repro.robust` stress-tests calibrated noise
    exactly like the assumed model — same seeds, same bisection.  A
    model built with :meth:`uniform` reproduces the scalar model's
    factors bit for bit.  Applying the model to a chain whose length
    differs from the calibrated one raises ``ValueError`` (a calibrated
    model must never silently stretch onto a different network).
    """

    sigma_compute: tuple = ()
    sigma_activation: tuple = ()
    sigma_weight: tuple = ()
    distribution: str = "lognormal"

    def __post_init__(self) -> None:
        for attr in ("sigma_compute", "sigma_activation", "sigma_weight"):
            raw = getattr(self, attr)
            if isinstance(raw, (int, float)):
                raise ValueError(
                    f"{attr} must be a per-layer sequence; use NoiseModel "
                    f"for scalar sigmas (got {raw!r})"
                )
            values = tuple(float(v) for v in raw)
            for v in values:
                if not np.isfinite(v) or v < 0:
                    raise ValueError(
                        f"{attr} must hold finite non-negative numbers, got {v!r}"
                    )
            object.__setattr__(self, attr, values)
        L = len(self.sigma_compute)
        if L < 1:
            raise ValueError("sigma_compute needs at least one layer")
        if len(self.sigma_weight) != L:
            raise ValueError(
                f"sigma_weight has {len(self.sigma_weight)} entries for "
                f"{L} layer(s)"
            )
        if len(self.sigma_activation) != L + 1:
            raise ValueError(
                f"sigma_activation needs L + 1 = {L + 1} entries "
                f"(index 0 is the input activation), got "
                f"{len(self.sigma_activation)}"
            )
        if self.distribution not in _DISTRIBUTIONS:
            raise ValueError(
                f"unknown distribution {self.distribution!r}; choose from "
                f"{_DISTRIBUTIONS}"
            )

    @property
    def n_layers(self) -> int:
        """The chain length this model was calibrated for."""
        return len(self.sigma_compute)

    def sigma_for(self, n_layers: int) -> np.ndarray:
        if n_layers != self.n_layers:
            raise ValueError(
                f"noise model is calibrated for {self.n_layers} layer(s) "
                f"but was applied to a chain with {n_layers}"
            )
        m = np.zeros((n_layers + 1, 4))
        m[1:, 0] = self.sigma_compute
        m[1:, 1] = self.sigma_compute
        m[1:, 2] = self.sigma_weight
        m[:, 3] = self.sigma_activation
        return m

    def to_dict(self) -> dict:
        return {
            "per_layer": True,
            "sigma_compute": list(self.sigma_compute),
            "sigma_activation": list(self.sigma_activation),
            "sigma_weight": list(self.sigma_weight),
            "distribution": self.distribution,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LayerNoiseModel":
        """Inverse of :meth:`to_dict`; raises ``ValueError`` when malformed."""
        if not isinstance(data, dict):
            raise ValueError(
                f"noise model must be a JSON object, got {type(data).__name__}"
            )
        try:
            return cls(
                sigma_compute=tuple(data["sigma_compute"]),
                sigma_activation=tuple(data["sigma_activation"]),
                sigma_weight=tuple(data["sigma_weight"]),
                distribution=str(data.get("distribution", "lognormal")),
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed noise model: {exc!r}") from exc

    @classmethod
    def uniform(cls, base: NoiseModel, n_layers: int) -> "LayerNoiseModel":
        """The per-layer spelling of a scalar model: every layer carries
        ``base``'s sigmas, so chains perturbed with the same draws match
        ``base`` bit for bit."""
        if n_layers < 1:
            raise ValueError("n_layers must be >= 1")
        return cls(
            sigma_compute=(base.sigma_compute,) * n_layers,
            sigma_activation=(base.sigma_activation,) * (n_layers + 1),
            sigma_weight=(base.sigma_weight,) * n_layers,
            distribution=base.distribution,
        )


def profile_model(graph: ModelGraph, device: DeviceSpec, batch_size: int) -> None:
    """Annotate ``graph`` nodes in place with ``u_f``, ``u_b``,
    ``weight_bytes`` and ``act_bytes`` for the given device and batch size.

    The backward pass moves roughly twice the forward traffic (it reads the
    stored activations and the incoming gradient and writes the outgoing
    gradient); compute-bound layers pay their analytic backward FLOPs.
    """
    if batch_size < 1:
        raise ValueError("batch size must be >= 1")
    graph.propagate_shapes()
    bpe = device.bytes_per_element
    for node in graph.topo_order():
        data = graph.node_data(node)
        ltype = type(data["spec"]).__name__
        fwd_traffic = data["mem_traffic"] * batch_size * bpe
        data["act_bytes"] = float(numel(data["shape"]) * batch_size * bpe)
        data["weight_bytes"] = float(data["params"] * bpe)
        if ltype == "Input":
            data["u_f"] = 0.0
            data["u_b"] = 0.0
            continue
        data["u_f"] = device.duration(ltype, data["fwd_flops"] * batch_size, fwd_traffic)
        data["u_b"] = device.duration(
            ltype, data["bwd_flops"] * batch_size, 2.0 * fwd_traffic
        )
