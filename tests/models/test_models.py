"""Model architectures: shapes, layer counts, scaling knobs."""

import numpy as np

from repro import nn
from repro.autograd import Tensor
from repro.models import (
    MLP,
    VGG_CONFIGS,
    resnet50,
    resnet50_mini,
    vgg11,
    vgg19,
)


def count_convs(model):
    return sum(1 for m in model.modules() if isinstance(m, nn.Conv2d))


def count_linears(model):
    return sum(1 for m in model.modules() if isinstance(m, nn.Linear))


class TestMLP:
    def test_forward_shape(self):
        model = MLP(in_features=12, hidden=(8,), num_classes=3, seed=0)
        out = model(Tensor(np.zeros((5, 12), dtype=np.float32)))
        assert out.shape == (5, 3)

    def test_flattens_images(self):
        model = MLP(in_features=3 * 4 * 4, hidden=(8,), num_classes=2, seed=0)
        out = model(Tensor(np.zeros((2, 3, 4, 4), dtype=np.float32)))
        assert out.shape == (2, 2)

    def test_deterministic_init(self):
        a = MLP(12, (8,), 3, seed=5)
        b = MLP(12, (8,), 3, seed=5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa.data, pb.data)


class TestVGG:
    def test_vgg19_has_16_convs(self):
        model = vgg19(num_classes=10, width_mult=0.1, input_size=12, seed=0)
        assert count_convs(model) == 16

    def test_vgg11_has_8_convs(self):
        model = vgg11(num_classes=10, width_mult=0.1, input_size=12, seed=0)
        assert count_convs(model) == 8

    def test_config_is_paper_layout(self):
        config = VGG_CONFIGS["vgg19"]
        assert config.count("M") == 5
        assert sum(1 for item in config if item != "M") == 16

    def test_forward_shape(self):
        model = vgg19(num_classes=7, width_mult=0.1, input_size=12, seed=0)
        out = model(Tensor(np.zeros((2, 3, 12, 12), dtype=np.float32)))
        assert out.shape == (2, 7)

    def test_full_width_channel_counts(self):
        model = vgg19(num_classes=10, width_mult=1.0, input_size=32, seed=0)
        convs = [m for m in model.modules() if isinstance(m, nn.Conv2d)]
        assert convs[0].out_channels == 64
        assert convs[-1].out_channels == 512

    def test_width_mult_scales(self):
        small = vgg19(10, width_mult=0.25, input_size=32, seed=0)
        convs = [m for m in small.modules() if isinstance(m, nn.Conv2d)]
        assert convs[-1].out_channels == 128

    def test_minimum_width_respected(self):
        tiny = vgg19(10, width_mult=0.01, input_size=32, seed=0)
        convs = [m for m in tiny.modules() if isinstance(m, nn.Conv2d)]
        assert min(c.out_channels for c in convs) >= 8

    def test_small_input_does_not_vanish(self):
        model = vgg19(num_classes=4, width_mult=0.1, input_size=8, seed=0)
        out = model(Tensor(np.zeros((1, 3, 8, 8), dtype=np.float32)))
        assert out.shape == (1, 4)

    def test_gradient_reaches_first_conv(self):
        model = vgg11(num_classes=3, width_mult=0.1, input_size=8, seed=0)
        out = model(Tensor(np.random.default_rng(0).standard_normal((2, 3, 8, 8)).astype(np.float32)))
        nn.cross_entropy(out, np.array([0, 1])).backward()
        first_conv = next(m for m in model.modules() if isinstance(m, nn.Conv2d))
        assert first_conv.weight.grad is not None
        assert np.abs(first_conv.weight.grad).sum() > 0


class TestResNet:
    def test_resnet50_block_count(self):
        model = resnet50(num_classes=10, width_mult=0.125, seed=0)
        # 3+4+6+3 bottlenecks à 3 convs + stem + 4 projection shortcuts = 53
        assert count_convs(model) == 1 + 16 * 3 + 4

    def test_resnet50_mini_block_count(self):
        model = resnet50_mini(num_classes=10, width_mult=0.125, seed=0)
        assert count_convs(model) == 1 + 4 * 3 + 4

    def test_forward_shape(self):
        model = resnet50_mini(num_classes=6, width_mult=0.125, seed=0)
        out = model(Tensor(np.zeros((2, 3, 12, 12), dtype=np.float32)))
        assert out.shape == (2, 6)

    def test_bottleneck_expansion(self):
        from repro.models import Bottleneck

        assert Bottleneck.expansion == 4

    def test_train_step_decreases_loss(self):
        from repro.optim import SGD

        rng = np.random.default_rng(0)
        model = resnet50_mini(num_classes=3, width_mult=0.125, seed=0)
        x = Tensor(rng.standard_normal((8, 3, 8, 8)).astype(np.float32))
        y = rng.integers(0, 3, 8)
        opt = SGD(model.parameters(), lr=0.05, momentum=0.9)
        losses = []
        for _ in range(8):
            model.zero_grad()
            loss = nn.cross_entropy(model(x), y)
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0]
