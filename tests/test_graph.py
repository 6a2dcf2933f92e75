"""Unit tests for the ModelGraph DAG."""

import pytest

from repro.models.graph import ModelGraph
from repro.models.layers import Add, Conv2d, Flatten, GlobalAvgPool2d, Linear, ReLU


def diamond() -> ModelGraph:
    """input -> conv -> (branch a, branch b) -> add -> gap -> fc."""
    g = ModelGraph("diamond")
    x = g.input((3, 16, 16))
    x = g.add_layer(Conv2d(8, 3, padding=1), x, name="stem")
    a = g.add_layer(Conv2d(8, 3, padding=1), x, name="a")
    b = g.add_layer(ReLU(), x, name="b")
    y = g.add_layer(Add(), a, b, name="add")
    y = g.add_layer(GlobalAvgPool2d(), y, name="gap")
    y = g.add_layer(Flatten(), y, name="flat")
    g.add_layer(Linear(10), y, name="fc")
    return g


class TestConstruction:
    def test_single_input_enforced(self):
        g = ModelGraph("t")
        g.input((3, 4, 4))
        with pytest.raises(ValueError):
            g.input((3, 4, 4))

    def test_unknown_predecessor(self):
        g = ModelGraph("t")
        g.input((3, 4, 4))
        with pytest.raises(KeyError):
            g.add_layer(ReLU(), "nope")

    def test_unary_arity_enforced(self):
        g = ModelGraph("t")
        x = g.input((3, 4, 4))
        y = g.add_layer(ReLU(), x)
        with pytest.raises(ValueError):
            g.add_layer(ReLU(), x, y)

    def test_needs_predecessor(self):
        g = ModelGraph("t")
        g.input((3, 4, 4))
        with pytest.raises(ValueError):
            g.add_layer(ReLU())

    def test_len(self):
        assert len(diamond()) == 8


class TestAnalysis:
    def test_topo_order_starts_at_input(self):
        g = diamond()
        order = g.topo_order()
        assert order[0] == g.source
        assert order[-1] == g.sink
        pos = {n: i for i, n in enumerate(order)}
        for u, v in g.edges():
            assert pos[u] < pos[v]

    def test_shapes(self):
        g = diamond()
        g.propagate_shapes()
        assert g.shape(g.sink) == (10,)

    def test_params_total(self):
        g = diamond()
        # stem conv 3*3*3*8, branch conv 3*3*8*8, fc 8*10+10
        assert g.total_params() == 216 + 576 + 90

    def test_fwd_flops_positive(self):
        assert diamond().total_fwd_flops() > 0

    def test_predecessor_order_preserved(self):
        g = ModelGraph("t")
        x = g.input((3, 4, 4))
        a = g.add_layer(Conv2d(4, 1), x, name="a")
        b = g.add_layer(Conv2d(6, 1), x, name="b")
        from repro.models.layers import Concat

        y = g.add_layer(Concat(), a, b, name="cat")
        g.propagate_shapes()
        assert g.shape(y)[0] == 10
        assert g.predecessors_in_order(y) == [a, b]

    def test_source_without_input_raises(self):
        g = ModelGraph("t")
        with pytest.raises(ValueError):
            g.source
