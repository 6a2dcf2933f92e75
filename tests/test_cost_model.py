"""Cost model and profile persistence tests."""

import json

import numpy as np
import pytest

from repro.models import vgg16, linearize, random_chain
from repro.models.graph import ModelGraph
from repro.models.layers import Conv2d, ReLU
from repro.profiling import (
    RTX8000,
    V100,
    DeviceSpec,
    LayerNoiseModel,
    NoiseModel,
    ProfileError,
    dumps_chain,
    load_chain,
    loads_chain,
    profile_model,
    save_chain,
)


class TestDeviceSpec:
    def test_duration_roofline(self):
        dev = DeviceSpec("toy", peak_flops=1e12, mem_bandwidth=1e11, kernel_overhead=0.0)
        # compute-bound conv: 1e12 flops at 50% eff -> 2s; traffic negligible
        assert dev.duration("Conv2d", 1e12, 1e3) == pytest.approx(
            1e12 / (1e12 * dev.eff("Conv2d"))
        )
        # memory-bound relu: 1e10 bytes / 1e11 B/s = 0.1 s
        assert dev.duration("ReLU", 1e3, 1e10) == pytest.approx(0.1)

    def test_overhead_added(self):
        dev = DeviceSpec("toy", peak_flops=1e12, mem_bandwidth=1e11, kernel_overhead=1e-5)
        assert dev.duration("ReLU", 0.0, 0.0) == pytest.approx(1e-5)

    def test_unknown_type_default_eff(self):
        assert V100.eff("SomethingNew") == 0.10

    def test_invalid_device(self):
        with pytest.raises(ValueError):
            DeviceSpec("bad", peak_flops=0, mem_bandwidth=1)
        with pytest.raises(ValueError):
            DeviceSpec("bad", peak_flops=1, mem_bandwidth=1, kernel_overhead=-1)

    def test_builtin_devices_differ(self):
        assert V100.peak_flops != RTX8000.peak_flops


class TestProfileModel:
    def small_graph(self) -> ModelGraph:
        g = ModelGraph("t")
        x = g.input((3, 32, 32))
        x = g.add_layer(Conv2d(8, 3, padding=1), x, name="conv")
        g.add_layer(ReLU(), x, name="relu")
        return g

    def test_annotations_present(self):
        g = self.small_graph()
        profile_model(g, V100, 4)
        for n in g.topo_order():
            data = g.node_data(n)
            assert "u_f" in data and "u_b" in data
            assert data["u_f"] >= 0 and data["u_b"] >= 0
            assert "act_bytes" in data and "weight_bytes" in data

    def test_input_node_free(self):
        g = self.small_graph()
        profile_model(g, V100, 4)
        assert g.node_data(g.source)["u_f"] == 0.0

    def test_durations_scale_with_batch(self):
        g1, g2 = self.small_graph(), self.small_graph()
        profile_model(g1, V100, 1)
        profile_model(g2, V100, 64)
        conv1 = [n for n in g1.topo_order() if "conv" in n][0]
        assert g2.node_data(conv1)["u_f"] > g1.node_data(conv1)["u_f"]
        assert g2.node_data(conv1)["act_bytes"] == 64 * g1.node_data(conv1)["act_bytes"]

    def test_backward_at_least_forward_for_conv(self):
        g = vgg16(image_size=64)
        profile_model(g, V100, 2)
        for n in g.topo_order():
            if "conv" in n:
                assert g.node_data(n)["u_b"] >= g.node_data(n)["u_f"]

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            profile_model(self.small_graph(), V100, 0)


class TestProfileIO:
    def test_json_roundtrip_string(self):
        chain = random_chain(6, seed=3)
        clone = loads_chain(dumps_chain(chain))
        assert clone.L == chain.L
        assert clone.total_compute() == pytest.approx(chain.total_compute())

    def test_file_roundtrip(self, tmp_path):
        g = vgg16(image_size=64)
        profile_model(g, V100, 2)
        chain = linearize(g)
        path = tmp_path / "vgg.json"
        save_chain(chain, path)
        clone = load_chain(path)
        assert clone.L == chain.L
        assert clone.name == chain.name
        for l in range(chain.L + 1):
            assert clone.activation(l) == chain.activation(l)


class TestProfileErrors:
    """Every load failure surfaces as one typed ProfileError naming the
    source and field — never a raw KeyError/JSONDecodeError traceback."""

    def good(self) -> dict:
        return json.loads(dumps_chain(random_chain(3, seed=0)))

    def test_malformed_json_names_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"layers": [')
        with pytest.raises(ProfileError, match="broken.json.*invalid JSON"):
            load_chain(path)

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_chain(tmp_path / "absent.json")

    def test_missing_top_level_field(self):
        data = self.good()
        del data["input_activation"]
        with pytest.raises(ProfileError, match="'input_activation'") as exc:
            loads_chain(json.dumps(data))
        assert exc.value.field == "input_activation"

    def test_missing_layer_key(self):
        data = self.good()
        del data["layers"][1]["u_b"]
        with pytest.raises(ProfileError, match=r"layers\[1\].*u_b"):
            loads_chain(json.dumps(data))

    def test_unknown_layer_key_rejected(self):
        data = self.good()
        data["layers"][0]["extra"] = 1
        with pytest.raises(ProfileError, match=r"layers\[0\].*extra"):
            loads_chain(json.dumps(data))

    def test_nan_constant_rejected(self):
        data = self.good()
        data["layers"][0]["u_f"] = float("nan")
        text = json.dumps(data)  # emits a bare NaN token
        with pytest.raises(ProfileError, match="NaN"):
            loads_chain(text)

    def test_negative_duration_names_layer(self):
        data = self.good()
        data["layers"][2]["u_f"] = -0.5
        with pytest.raises(ProfileError, match=r"layers\[2\].*negative"):
            loads_chain(text := json.dumps(data))
        # the same failure through a file names the file
        with pytest.raises(ProfileError, match="bad.json"):
            loads_chain(text, source="bad.json")

    def test_empty_layers_rejected(self):
        with pytest.raises(ProfileError, match="layers"):
            loads_chain('{"layers": [], "input_activation": 1.0}')

    def test_non_object_rejected(self):
        with pytest.raises(ProfileError, match="object"):
            loads_chain("[1, 2, 3]")

    def test_profile_error_is_value_error(self):
        # existing `except ValueError` call sites must keep working
        assert issubclass(ProfileError, ValueError)


class TestNoiseModelEdgeCases:
    def test_zero_sigma_exactly_deterministic(self):
        chain = random_chain(5, seed=1)
        noise = NoiseModel(sigma_compute=0.0, sigma_activation=0.0, sigma_weight=0.0)
        draws = noise.draw(np.random.default_rng(0), 1, chain.L)
        out = noise.apply(chain, draws[0])
        for a, b in zip(out.layers, chain.layers):
            assert (a.u_f, a.u_b, a.weights, a.activation) == (
                b.u_f, b.u_b, b.weights, b.activation
            )
        assert out.input_activation == chain.input_activation

    def test_scalar_sigma_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(sigma_compute=-0.1)
        with pytest.raises(ValueError):
            NoiseModel(sigma_compute=float("nan"))
        with pytest.raises(ValueError):
            NoiseModel(distribution="gaussian")


class TestLayerNoiseModel:
    def model(self, L=4) -> LayerNoiseModel:
        return LayerNoiseModel(
            sigma_compute=tuple(0.01 * (i + 1) for i in range(L)),
            sigma_activation=tuple(0.02 * (i + 1) for i in range(L + 1)),
            sigma_weight=(0.0,) * L,
        )

    def test_length_mismatches_rejected(self):
        with pytest.raises(ValueError, match="sigma_weight"):
            LayerNoiseModel(
                sigma_compute=(0.1, 0.1),
                sigma_activation=(0.1, 0.1, 0.1),
                sigma_weight=(0.1,),
            )
        with pytest.raises(ValueError, match="sigma_activation"):
            LayerNoiseModel(
                sigma_compute=(0.1, 0.1),
                sigma_activation=(0.1, 0.1),
                sigma_weight=(0.1, 0.1),
            )
        with pytest.raises(ValueError, match="per-layer"):
            LayerNoiseModel(
                sigma_compute=0.1, sigma_activation=0.1, sigma_weight=0.1
            )
        with pytest.raises(ValueError, match="at least one layer"):
            LayerNoiseModel(
                sigma_compute=(), sigma_activation=(0.1,), sigma_weight=()
            )

    def test_wrong_chain_length_rejected(self):
        chain = random_chain(6, seed=0)
        noise = self.model(L=4)
        draws = noise.draw(np.random.default_rng(0), 1, chain.L)
        with pytest.raises(ValueError, match="calibrated for 4"):
            noise.apply(chain, draws[0])

    def test_same_seed_bit_reproducible(self):
        chain = random_chain(4, seed=2)
        noise = self.model(L=4)

        def one():
            rng = np.random.default_rng(42)
            return noise.apply(chain, noise.draw(rng, 3, chain.L)[2])

        a, b = one(), one()
        for la, lb in zip(a.layers, b.layers):
            assert (la.u_f, la.u_b, la.weights, la.activation) == (
                lb.u_f, lb.u_b, lb.weights, lb.activation
            )
        assert a.input_activation == b.input_activation

    def test_uniform_matches_scalar_bit_for_bit(self):
        chain = random_chain(5, seed=3)
        base = NoiseModel(sigma_compute=0.07, sigma_activation=0.03, sigma_weight=0.01)
        per_layer = LayerNoiseModel.uniform(base, chain.L)
        draws = base.draw(np.random.default_rng(7), 4, chain.L)
        for i in range(4):
            a = base.apply(chain, draws[i])
            b = per_layer.apply(chain, draws[i])
            for la, lb in zip(a.layers, b.layers):
                assert (la.u_f, la.u_b, la.weights, la.activation) == (
                    lb.u_f, lb.u_b, lb.weights, lb.activation
                )
            assert a.input_activation == b.input_activation

    def test_to_from_dict_roundtrip(self):
        noise = self.model()
        clone = LayerNoiseModel.from_dict(noise.to_dict())
        assert clone == noise
        assert clone.to_dict()["per_layer"] is True
        with pytest.raises(ValueError):
            LayerNoiseModel.from_dict({"sigma_compute": [0.1]})
