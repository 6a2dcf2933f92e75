"""Profiling substrate: device cost model and profile persistence."""

from .cost_model import LayerNoiseModel, NoiseModel, profile_model
from .device import RTX8000, V100, DeviceSpec
from .io import (
    ProfileError,
    chain_from_dict,
    dumps_chain,
    load_chain,
    loads_chain,
    save_chain,
)

__all__ = [
    "LayerNoiseModel",
    "NoiseModel",
    "ProfileError",
    "profile_model",
    "DeviceSpec",
    "V100",
    "RTX8000",
    "chain_from_dict",
    "save_chain",
    "load_chain",
    "dumps_chain",
    "loads_chain",
]
