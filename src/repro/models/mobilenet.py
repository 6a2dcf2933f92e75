"""MobileNetV1 builder — depthwise-separable convolutions.

A purely sequential network (every tensor is a serialization point) with
a very different cost profile from the ResNets: almost no weights, lots
of memory-bound depthwise kernels — a useful stress case for the memory
model.
"""

from __future__ import annotations

from .graph import ModelGraph
from .layers import (
    BatchNorm2d,
    Conv2d,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    ReLU,
)

__all__ = ["mobilenet_v1"]

# (out_channels, stride) per depthwise-separable block
_CFG = (
    (64, 1),
    (128, 2),
    (128, 1),
    (256, 2),
    (256, 1),
    (512, 2),
    (512, 1),
    (512, 1),
    (512, 1),
    (512, 1),
    (512, 1),
    (1024, 2),
    (1024, 1),
)


def _conv_bn_relu(g, x, out_ch, kernel, stride, padding, tag, groups=1):
    x = g.add_layer(
        Conv2d(out_ch, kernel, stride, padding, groups=groups), x, name=f"{tag}.conv"
    )
    x = g.add_layer(BatchNorm2d(), x, name=f"{tag}.bn")
    return g.add_layer(ReLU(), x, name=f"{tag}.relu")


def mobilenet_v1(
    *, image_size: int = 1000, num_classes: int = 1000, width: float = 1.0
) -> ModelGraph:
    """MobileNetV1 with optional width multiplier."""

    def ch(c: int) -> int:
        scaled = int(c * width)
        return max(8, scaled - scaled % 8)

    g = ModelGraph("mobilenet_v1")
    x = g.input((3, image_size, image_size))
    x = _conv_bn_relu(g, x, ch(32), 3, 2, 1, "stem")
    c_in = ch(32)
    for i, (c_out, stride) in enumerate(_CFG):
        tag = f"b{i + 1}"
        # depthwise 3x3 then pointwise 1x1
        x = _conv_bn_relu(g, x, c_in, 3, stride, 1, f"{tag}.dw", groups=c_in)
        x = _conv_bn_relu(g, x, ch(c_out), 1, 1, 0, f"{tag}.pw")
        c_in = ch(c_out)
    x = g.add_layer(GlobalAvgPool2d(), x, name="gap")
    x = g.add_layer(Flatten(), x, name="flatten")
    g.add_layer(Linear(num_classes), x, name="fc")
    return g
