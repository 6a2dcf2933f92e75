"""Unit tests for the chain model (paper §3 notation)."""

import math

import pytest

from repro.core import Chain, LayerProfile
from repro.profiling import chain_from_dict

MB = float(2**20)


class TestLayerProfile:
    def test_valid(self):
        l = LayerProfile("x", 1.0, 2.0, 3.0, 4.0)
        assert l.u_f == 1.0 and l.u_b == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(u_f=-1.0, u_b=1.0, weights=1.0, activation=1.0),
            dict(u_f=1.0, u_b=-1.0, weights=1.0, activation=1.0),
            dict(u_f=1.0, u_b=1.0, weights=-1.0, activation=1.0),
            dict(u_f=1.0, u_b=1.0, weights=1.0, activation=-1.0),
        ],
    )
    def test_negative_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LayerProfile("x", **kwargs)


class TestChainBasics:
    def test_length(self, tiny_chain):
        assert len(tiny_chain) == 4
        assert tiny_chain.L == 4

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Chain(layers=[], input_activation=1.0)

    def test_negative_input_activation_rejected(self):
        with pytest.raises(ValueError):
            Chain(
                layers=[LayerProfile("a", 1, 1, 1, 1)],
                input_activation=-1.0,
            )

    def test_layer_accessors(self, tiny_chain):
        assert tiny_chain.u_f(1) == 1.0
        assert tiny_chain.u_b(2) == 3.0
        assert tiny_chain.weight(3) == 30 * MB
        assert tiny_chain.layer(4).name == "d"

    def test_activation_indices(self, tiny_chain):
        assert tiny_chain.activation(0) == 50 * MB  # input
        assert tiny_chain.activation(4) == 10 * MB
        with pytest.raises(IndexError):
            tiny_chain.activation(5)
        with pytest.raises(IndexError):
            tiny_chain.activation(-1)

    @pytest.mark.parametrize("l", [0, 5, -1])
    def test_layer_bounds(self, tiny_chain, l):
        with pytest.raises(IndexError):
            tiny_chain.u_f(l)


class TestRangeQueries:
    def test_U_matches_naive(self, tiny_chain):
        for k in range(1, 5):
            for l in range(k, 5):
                naive = sum(
                    tiny_chain.u_f(i) + tiny_chain.u_b(i) for i in range(k, l + 1)
                )
                assert tiny_chain.U(k, l) == pytest.approx(naive)

    def test_U_empty_range(self, tiny_chain):
        assert tiny_chain.U(3, 2) == 0.0

    def test_forward_backward_split(self, tiny_chain):
        assert tiny_chain.U(1, 4) == pytest.approx(
            tiny_chain.U_f(1, 4) + tiny_chain.U_b(1, 4)
        )
        assert tiny_chain.U_f(2, 3) == pytest.approx(3.5)
        assert tiny_chain.U_b(2, 3) == pytest.approx(5.5)

    def test_weights_range(self, tiny_chain):
        assert tiny_chain.weights(1, 4) == 100 * MB
        assert tiny_chain.weights(2, 3) == 50 * MB

    def test_stored_activations_is_input_sum(self, tiny_chain):
        # layers 2..3 store a1 + a2 = 40 + 30 MB
        assert tiny_chain.stored_activations(2, 3) == 70 * MB
        # layer 1 stores the network input a0
        assert tiny_chain.stored_activations(1, 1) == 50 * MB

    def test_total_compute(self, tiny_chain):
        assert tiny_chain.total_compute() == pytest.approx(13.5)


class TestComm:
    def test_comm_time_formula(self, tiny_chain):
        beta = 12 * 2**30
        assert tiny_chain.comm_time(1, beta) == pytest.approx(2 * 40 * MB / beta)

    def test_chain_ends_have_no_comm(self, tiny_chain):
        assert tiny_chain.comm_time(0, 1.0) == 0.0
        assert tiny_chain.comm_time(4, 1.0) == 0.0

    def test_total_comm(self, tiny_chain):
        beta = 1e9
        expected = sum(tiny_chain.comm_time(l, beta) for l in (1, 2, 3))
        assert tiny_chain.total_comm(beta) == pytest.approx(expected)

    def test_bad_bandwidth(self, tiny_chain):
        with pytest.raises(ValueError):
            tiny_chain.comm_time(1, 0.0)


class TestSubchainAndSerialization:
    def test_subchain(self, tiny_chain):
        sub = tiny_chain.subchain(2, 3)
        assert sub.L == 2
        assert sub.activation(0) == tiny_chain.activation(1)
        assert sub.total_compute() == pytest.approx(tiny_chain.U(2, 3))

    def test_subchain_empty_rejected(self, tiny_chain):
        with pytest.raises(ValueError):
            tiny_chain.subchain(3, 2)

    def test_dict_roundtrip(self, tiny_chain):
        clone = chain_from_dict(tiny_chain.to_dict())
        assert clone.L == tiny_chain.L
        assert clone.total_compute() == pytest.approx(tiny_chain.total_compute())
        assert clone.activation(0) == tiny_chain.activation(0)
        assert [l.name for l in clone.layers] == [l.name for l in tiny_chain.layers]

    def test_prefix_sums_finite(self, cnnlike16):
        assert math.isfinite(cnnlike16.total_compute())
        assert cnnlike16.total_compute() > 0


class TestNonFiniteRejection:
    @pytest.mark.parametrize("field", ["u_f", "u_b", "weights", "activation"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_layer_rejects_non_finite(self, field, bad):
        kwargs = dict(u_f=1.0, u_b=2.0, weights=3.0, activation=4.0)
        kwargs[field] = bad
        with pytest.raises(ValueError, match="non-finite"):
            LayerProfile("x", **kwargs)

    def test_layer_rejects_non_numbers(self):
        with pytest.raises(ValueError, match="must be a number"):
            LayerProfile("x", u_f="fast", u_b=1.0, weights=1.0, activation=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "big", None])
    def test_chain_rejects_bad_input_activation(self, bad):
        layers = [LayerProfile("a", 1.0, 2.0, 1.0, 1.0)]
        with pytest.raises(ValueError):
            Chain(layers=layers, input_activation=bad)
