"""Model-zoo builders: parameter counts vs published values, structure."""

import pytest

from repro.models import densenet121, inception, resnet50, resnet101, vgg16
from repro.models.resnet import resnet
from repro.models.densenet import densenet


class TestResNet:
    def test_resnet50_params(self):
        g = resnet50(image_size=224)
        g.propagate_shapes()
        # torchvision resnet50: 25.557M parameters
        assert g.total_params() == pytest.approx(25.557e6, rel=0.01)

    def test_resnet101_params(self):
        g = resnet101(image_size=224)
        g.propagate_shapes()
        # torchvision resnet101: 44.549M parameters
        assert g.total_params() == pytest.approx(44.549e6, rel=0.01)

    def test_output_shape(self):
        g = resnet50(image_size=224, num_classes=10)
        g.propagate_shapes()
        assert g.shape(g.sink) == (10,)

    def test_custom_config(self):
        g = resnet((1, 1, 1, 1), image_size=64)
        g.propagate_shapes()
        assert g.shape(g.sink) == (1000,)

    def test_stage_downsampling(self):
        g = resnet50(image_size=224)
        g.propagate_shapes()
        # final spatial size before pooling: 224/32 = 7
        gap_pred = g.predecessors_in_order([n for n in g.topo_order() if "gap" in n][0])[0]
        assert g.shape(gap_pred) == (2048, 7, 7)


class TestInception:
    def test_params_order_of_magnitude(self):
        g = inception(image_size=224)
        g.propagate_shapes()
        # GoogLeNet ~6.6M conv/fc params (BN adds a little)
        assert 5.5e6 < g.total_params() < 8.5e6

    def test_output(self):
        g = inception(image_size=224, num_classes=42)
        g.propagate_shapes()
        assert g.shape(g.sink) == (42,)

    def test_concat_channels(self):
        g = inception(image_size=224)
        g.propagate_shapes()
        inc3a = [n for n in g.topo_order() if "inc3a.concat" in n][0]
        # 64 + 128 + 32 + 32 = 256
        assert g.shape(inc3a)[0] == 256


class TestDenseNet:
    def test_params(self):
        g = densenet121(image_size=224)
        g.propagate_shapes()
        # torchvision densenet121: 7.979M parameters
        assert g.total_params() == pytest.approx(7.979e6, rel=0.02)

    def test_channel_growth(self):
        g = densenet((2, 2), growth=4, image_size=64)
        g.propagate_shapes()
        assert g.shape(g.sink) == (1000,)

    def test_output(self):
        g = densenet121(image_size=224, num_classes=5)
        g.propagate_shapes()
        assert g.shape(g.sink) == (5,)


class TestVGG:
    def test_params(self):
        g = vgg16(image_size=224)
        g.propagate_shapes()
        # torchvision vgg16: 138.358M parameters
        assert g.total_params() == pytest.approx(138.358e6, rel=0.01)

    def test_output(self):
        g = vgg16(image_size=224, num_classes=7)
        g.propagate_shapes()
        assert g.shape(g.sink) == (7,)
