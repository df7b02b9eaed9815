"""GoogLeNet / Inception v1 (Szegedy et al., 2015), torchvision layout.

Includes the two auxiliary classifiers, giving the Table 2 parameter count
of 6,624,904 at ``scale=1.0`` / ``num_classes=1000``.  Like torchvision, the
"5x5" inception branch actually uses a 3x3 convolution (a known deviation of
the reference implementation that the paper's models inherit).

The paper's Figure 12 notes that GoogLeNet's *initialization* routine is
disproportionately slow, which shows up as a recover-time peak.  The
torchvision original draws every weight from a truncated normal via scipy;
we reproduce the cost profile with an explicit truncated-normal rejection
sampler (:func:`repro.nn.init.trunc_normal_`), which is similarly far more
expensive than the plain initializers used by the other architectures.
"""

from __future__ import annotations

from .. import init
from ..modules import (
    AdaptiveAvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Linear,
    MaxPool2d,
    Module,
    ReLU,
    Sequential,
)
from ..tensor import Tensor, cat

__all__ = ["GoogLeNet", "Inception", "InceptionAux", "BasicConv2d", "googlenet"]


def _scaled(channels: int, scale: float) -> int:
    if scale == 1.0:
        return channels
    return max(8, int(round(channels * scale / 8)) * 8)


class BasicConv2d(Module):
    """Conv (no bias) + BatchNorm + ReLU, the GoogLeNet building block."""

    def __init__(self, in_channels: int, out_channels: int, **conv_kwargs):
        super().__init__()
        self.conv = Conv2d(in_channels, out_channels, bias=False, **conv_kwargs)
        self.bn = BatchNorm2d(out_channels, eps=0.001)
        self.relu = ReLU()
        init.trunc_normal_(self.conv.weight)

    def forward(self, x: Tensor) -> Tensor:
        return self.relu(self.bn(self.conv(x)))


class Inception(Module):
    """Four parallel branches concatenated along the channel dimension."""

    def __init__(
        self,
        in_channels: int,
        ch1x1: int,
        ch3x3red: int,
        ch3x3: int,
        ch5x5red: int,
        ch5x5: int,
        pool_proj: int,
    ):
        super().__init__()
        self.branch1 = BasicConv2d(in_channels, ch1x1, kernel_size=1)
        self.branch2 = Sequential(
            BasicConv2d(in_channels, ch3x3red, kernel_size=1),
            BasicConv2d(ch3x3red, ch3x3, kernel_size=3, padding=1),
        )
        self.branch3 = Sequential(
            BasicConv2d(in_channels, ch5x5red, kernel_size=1),
            # torchvision uses kernel_size=3 here despite the "5x5" name.
            BasicConv2d(ch5x5red, ch5x5, kernel_size=3, padding=1),
        )
        self.branch4 = Sequential(
            MaxPool2d(kernel_size=3, stride=1, padding=1),
            BasicConv2d(in_channels, pool_proj, kernel_size=1),
        )

    def forward(self, x: Tensor) -> Tensor:
        return cat(
            [self.branch1(x), self.branch2(x), self.branch3(x), self.branch4(x)],
            dim=1,
        )


class InceptionAux(Module):
    """Auxiliary classifier attached to intermediate feature maps."""

    def __init__(self, in_channels: int, num_classes: int, fc_in: int = 2048, fc_hidden: int = 1024):
        super().__init__()
        self.conv = BasicConv2d(in_channels, fc_in // 16, kernel_size=1)
        self.avgpool = AdaptiveAvgPool2d((4, 4))
        self.fc1 = Linear(fc_in, fc_hidden)
        self.fc2 = Linear(fc_hidden, num_classes)
        self.relu = ReLU()
        self.dropout = Dropout(0.7)
        init.trunc_normal_(self.fc1.weight, std=0.001)
        init.trunc_normal_(self.fc2.weight, std=0.001)

    def forward(self, x: Tensor) -> Tensor:
        x = self.conv(self.avgpool(x))
        x = x.flatten(1)
        x = self.dropout(self.relu(self.fc1(x)))
        return self.fc2(x)


class GoogLeNet(Module):
    """GoogLeNet over ``(N, 3, H, W)`` images.

    In training mode :meth:`forward` returns ``(logits, aux2, aux1)``; in
    eval mode only the main logits, as in torchvision.
    """

    def __init__(self, num_classes: int = 1000, scale: float = 1.0, aux_logits: bool = True):
        super().__init__()
        self.num_classes = num_classes
        self.scale = scale
        self.aux_logits = aux_logits

        def s(c: int) -> int:
            return _scaled(c, scale)

        self.conv1 = BasicConv2d(3, s(64), kernel_size=7, stride=2, padding=3)
        self.maxpool1 = MaxPool2d(3, stride=2, padding=1)
        self.conv2 = BasicConv2d(s(64), s(64), kernel_size=1)
        self.conv3 = BasicConv2d(s(64), s(192), kernel_size=3, padding=1)
        self.maxpool2 = MaxPool2d(3, stride=2, padding=1)

        channels = s(192)

        def inception(ch1x1, ch3x3red, ch3x3, ch5x5red, ch5x5, pool_proj):
            nonlocal channels
            block = Inception(
                channels, s(ch1x1), s(ch3x3red), s(ch3x3), s(ch5x5red), s(ch5x5), s(pool_proj)
            )
            channels = s(ch1x1) + s(ch3x3) + s(ch5x5) + s(pool_proj)
            return block

        self.inception3a = inception(64, 96, 128, 16, 32, 32)
        self.inception3b = inception(128, 128, 192, 32, 96, 64)
        self.maxpool3 = MaxPool2d(3, stride=2, padding=1)
        self.inception4a = inception(192, 96, 208, 16, 48, 64)
        aux1_in = channels
        self.inception4b = inception(160, 112, 224, 24, 64, 64)
        self.inception4c = inception(128, 128, 256, 24, 64, 64)
        self.inception4d = inception(112, 144, 288, 32, 64, 64)
        aux2_in = channels
        self.inception4e = inception(256, 160, 320, 32, 128, 128)
        self.maxpool4 = MaxPool2d(2, stride=2)
        self.inception5a = inception(256, 160, 320, 32, 128, 128)
        self.inception5b = inception(384, 192, 384, 48, 128, 128)

        if aux_logits:
            fc_in = s(128) * 16
            self.aux1 = InceptionAux(aux1_in, num_classes, fc_in=fc_in, fc_hidden=s(1024))
            self.aux2 = InceptionAux(aux2_in, num_classes, fc_in=fc_in, fc_hidden=s(1024))
        else:
            self._modules["aux1"] = None
            self._modules["aux2"] = None

        self.avgpool = AdaptiveAvgPool2d((1, 1))
        self.dropout = Dropout(0.2)
        self.fc = Linear(channels, num_classes)
        init.trunc_normal_(self.fc.weight, std=0.001)

    def forward(self, x: Tensor):
        x = self.maxpool1(self.conv1(x))
        x = self.maxpool2(self.conv3(self.conv2(x)))
        x = self.inception3b(self.inception3a(x))
        x = self.maxpool3(x)
        x = self.inception4a(x)
        aux1 = None
        aux2 = None
        if self.training and self.aux_logits:
            aux1 = self.aux1(x)
        x = self.inception4c(self.inception4b(x))
        x = self.inception4d(x)
        if self.training and self.aux_logits:
            aux2 = self.aux2(x)
        x = self.inception4e(x)
        x = self.maxpool4(x)
        x = self.inception5b(self.inception5a(x))
        x = self.avgpool(x).flatten(1)
        logits = self.fc(self.dropout(x))
        if self.training and self.aux_logits:
            return logits, aux2, aux1
        return logits

    def final_classifier(self) -> Linear:
        """The layer retrained for *partially updated* model versions."""
        return self.fc


def googlenet(num_classes: int = 1000, scale: float = 1.0, aux_logits: bool = False) -> GoogLeNet:
    """Construct a GoogLeNet.

    ``aux_logits`` defaults to ``False``: the paper's Table 2 count
    (6,624,904 parameters) matches torchvision's *pretrained* GoogLeNet,
    which strips the auxiliary classifiers after training.
    """
    return GoogLeNet(num_classes=num_classes, scale=scale, aux_logits=aux_logits)
