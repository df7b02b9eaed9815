"""Weight initializers."""

import math

import numpy as np
import pytest

import repro.nn as nn
from repro.nn import Tensor, init


class TestFanCalculation:
    def test_linear_fans(self):
        weight = Tensor(np.zeros((8, 4)))
        assert init.calculate_fan(weight) == (4, 8)

    def test_conv_fans_include_receptive_field(self):
        weight = Tensor(np.zeros((16, 3, 5, 5)))
        assert init.calculate_fan(weight) == (3 * 25, 16 * 25)

    def test_1d_tensor_rejected(self):
        with pytest.raises(ValueError):
            init.calculate_fan(Tensor(np.zeros(4)))


class TestDistributions:
    def test_uniform_bounds(self):
        t = init.uniform_(Tensor(np.zeros(10_000)), -2.0, 3.0)
        assert t.data.min() >= -2.0 and t.data.max() <= 3.0
        assert t.data.mean() == pytest.approx(0.5, abs=0.1)

    def test_normal_moments(self):
        t = init.normal_(Tensor(np.zeros(50_000)), mean=1.0, std=2.0)
        assert t.data.mean() == pytest.approx(1.0, abs=0.1)
        assert t.data.std() == pytest.approx(2.0, abs=0.1)

    def test_constants(self):
        assert np.all(init.zeros_(Tensor(np.ones(4))).data == 0)
        assert np.all(init.ones_(Tensor(np.zeros(4))).data == 1)
        assert np.all(init.constant_(Tensor(np.zeros(4)), 7.5).data == 7.5)

    def test_kaiming_uniform_bound(self):
        weight = Tensor(np.zeros((64, 64)))
        init.kaiming_uniform_(weight, nonlinearity="relu")
        bound = math.sqrt(2.0) * math.sqrt(3.0 / 64)
        assert np.abs(weight.data).max() <= bound + 1e-6

    def test_kaiming_normal_std(self):
        weight = Tensor(np.zeros((400, 400)))
        init.kaiming_normal_(weight, mode="fan_in", nonlinearity="relu")
        assert weight.data.std() == pytest.approx(math.sqrt(2.0 / 400), rel=0.1)

    def test_xavier_uniform_bound(self):
        weight = Tensor(np.zeros((10, 30)))
        init.xavier_uniform_(weight)
        bound = math.sqrt(6.0 / 40)
        assert np.abs(weight.data).max() <= bound + 1e-6

    def test_xavier_normal_std(self):
        weight = Tensor(np.zeros((300, 300)))
        init.xavier_normal_(weight)
        assert weight.data.std() == pytest.approx(math.sqrt(2.0 / 600), rel=0.15)

    def test_unknown_nonlinearity_raises(self):
        with pytest.raises(ValueError):
            init.kaiming_uniform_(Tensor(np.zeros((4, 4))), nonlinearity="swish")


class TestSeededness:
    def test_initializers_respect_global_seed(self):
        nn.manual_seed(1)
        a = init.normal_(Tensor(np.zeros(32))).data.copy()
        nn.manual_seed(1)
        b = init.normal_(Tensor(np.zeros(32))).data.copy()
        assert np.array_equal(a, b)


class TestTruncatedNormal:
    def test_googlenet_truncnorm_respects_bound(self):
        t = Tensor(np.zeros(20_000))
        init.trunc_normal_(t, std=0.01, bound=2.0)
        assert np.abs(t.data).max() <= 0.02 + 1e-6
        assert t.data.std() == pytest.approx(0.0088, rel=0.2)  # truncated sigma
