"""Unit tests for graph → chain linearization."""

import pytest

from repro.models import coarsen, linearize, vgg16
from repro.models.graph import ModelGraph
from repro.models.layers import Add, Conv2d, Flatten, GlobalAvgPool2d, Linear, ReLU
from repro.profiling import V100, profile_model


def residual_net(n_blocks: int = 3) -> ModelGraph:
    g = ModelGraph("resnetlet")
    x = g.input((3, 32, 32))
    x = g.add_layer(Conv2d(8, 3, padding=1), x, name="stem")
    for i in range(n_blocks):
        a = g.add_layer(Conv2d(8, 3, padding=1), x, name=f"b{i}.conv1")
        a = g.add_layer(ReLU(), a, name=f"b{i}.relu")
        a = g.add_layer(Conv2d(8, 3, padding=1), a, name=f"b{i}.conv2")
        x = g.add_layer(Add(), a, x, name=f"b{i}.add")
    x = g.add_layer(GlobalAvgPool2d(), x, name="gap")
    x = g.add_layer(Flatten(), x, name="flat")
    g.add_layer(Linear(10), x, name="fc")
    return g


class TestLinearize:
    def test_requires_profile(self):
        g = residual_net()
        g.propagate_shapes()
        with pytest.raises(ValueError, match="profiled"):
            linearize(g)

    def test_pure_chain_is_identity(self):
        g = vgg16(image_size=64)
        profile_model(g, V100, 2)
        chain = linearize(g)
        # every non-input node is its own serialization point
        assert chain.L == len(g) - 1

    def test_residual_blocks_grouped(self):
        g = residual_net(3)
        profile_model(g, V100, 2)
        chain = linearize(g)
        # stem, 3 blocks, gap, flat, fc -> 7 chain layers
        assert chain.L == 7
        block_layers = [l for l in chain.layers if "conv1" in l.name]
        assert len(block_layers) == 3
        # each grouped block contains its 4 member nodes
        assert all("[4]" in l.name for l in block_layers)

    def test_totals_preserved(self):
        g = residual_net(4)
        profile_model(g, V100, 2)
        chain = linearize(g)
        total_uf = sum(g.node_data(n)["u_f"] for n in g.topo_order())
        total_w = sum(g.node_data(n)["weight_bytes"] for n in g.topo_order())
        assert chain.U_f(1, chain.L) == pytest.approx(total_uf)
        assert chain.weights(1, chain.L) == pytest.approx(total_w)

    def test_input_activation_is_network_input(self):
        g = residual_net()
        profile_model(g, V100, 2)
        chain = linearize(g)
        assert chain.activation(0) == 3 * 32 * 32 * 2 * 4  # C*H*W*batch*fp32

    def test_boundary_activations_match_graph(self):
        g = residual_net(2)
        profile_model(g, V100, 2)
        chain = linearize(g)
        # all residual-block boundaries carry the 8x32x32 tensor
        for l in range(1, chain.L - 2):
            assert chain.activation(l) == 8 * 32 * 32 * 2 * 4


class TestCoarsen:
    def test_reduces_length(self):
        g = vgg16(image_size=64)
        profile_model(g, V100, 2)
        chain = linearize(g)
        small = coarsen(chain, 10)
        assert small.L == 10

    def test_preserves_totals(self):
        g = vgg16(image_size=64)
        profile_model(g, V100, 2)
        chain = linearize(g)
        small = coarsen(chain, 8)
        assert small.total_compute() == pytest.approx(chain.total_compute())
        assert small.weights(1, 8) == pytest.approx(chain.weights(1, chain.L))
        assert small.activation(0) == chain.activation(0)
        assert small.activation(8) == chain.activation(chain.L)

    def test_noop_when_small_enough(self):
        g = residual_net(1)
        profile_model(g, V100, 2)
        chain = linearize(g)
        assert coarsen(chain, 100).L == chain.L

    def test_invalid_target(self):
        g = residual_net(1)
        profile_model(g, V100, 2)
        chain = linearize(g)
        with pytest.raises(ValueError):
            coarsen(chain, 0)
