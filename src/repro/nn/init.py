"""Weight initializers drawing from the substrate's seeded generator.

All functions mutate the tensor in place and return it, mirroring
``torch.nn.init``.  Because every draw comes from the generator controlled by
:func:`repro.nn.rng.manual_seed`, model construction is reproducible.

Every initializer bottoms out in :func:`uniform_`, :func:`normal_`,
:func:`trunc_normal_` or :func:`constant_`; under :func:`skip_init` those
four return the tensor untouched and draw nothing, so an architecture's
skeleton is built without computing values nobody reads.
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager

import numpy as np

from . import rng
from .tensor import Tensor

__all__ = [
    "skip_init",
    "calculate_fan",
    "uniform_",
    "normal_",
    "trunc_normal_",
    "constant_",
    "zeros_",
    "ones_",
    "kaiming_uniform_",
    "kaiming_normal_",
    "xavier_uniform_",
    "xavier_normal_",
]


_skip = threading.local()


@contextmanager
def skip_init():
    """Make every initializer on this thread a no-op until the block exits.

    Re-entrant and per-thread.  The tensors keep whatever their allocation
    left in them and the generator state does not move, so nothing built
    under it may reach a caller with those values.  Its one caller is the
    skeleton cache's miss, :meth:`repro.core.save_info.ArchitectureRef.skeleton`,
    which replaces every array of the model it builds with a placeholder
    and assembles models from it around a strictly checked state.  It
    relies on the contract of architecture factories: all learned or
    derived state lives in parameters/buffers, and constructors draw only
    through this module.
    """
    depth = getattr(_skip, "depth", 0)
    _skip.depth = depth + 1
    try:
        yield
    finally:
        _skip.depth = depth


def _skipping() -> bool:
    return getattr(_skip, "depth", 0) > 0


def calculate_fan(tensor: Tensor) -> tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for linear or convolution weights."""
    shape = tensor.shape
    if len(shape) < 2:
        raise ValueError("fan calculation requires at least a 2D tensor")
    receptive = int(np.prod(shape[2:])) if len(shape) > 2 else 1
    fan_in = shape[1] * receptive
    fan_out = shape[0] * receptive
    return fan_in, fan_out


def uniform_(tensor: Tensor, low: float = 0.0, high: float = 1.0) -> Tensor:
    if _skipping():
        return tensor
    tensor.data[...] = rng.generator().uniform(low, high, size=tensor.shape).astype(
        tensor.dtype
    )
    return tensor


def normal_(tensor: Tensor, mean: float = 0.0, std: float = 1.0) -> Tensor:
    if _skipping():
        return tensor
    tensor.data[...] = rng.generator().normal(mean, std, size=tensor.shape).astype(
        tensor.dtype
    )
    return tensor


def trunc_normal_(tensor: Tensor, std: float = 0.01, bound: float = 2.0) -> Tensor:
    """Fill with N(0, std) truncated to ``[-bound*std, bound*std]``.

    Rejection sampling mirrors the cost of the reference implementation's
    scipy-based truncnorm initialization (the source of GoogLeNet's slow
    initialization highlighted in the paper's Figure 12).
    """
    if _skipping():
        return tensor
    generator = rng.generator()
    out = np.empty(tensor.data.size, dtype=np.float64)
    filled = 0
    while filled < out.size:
        draw = generator.standard_normal(max(1024, out.size - filled))
        draw = draw[np.abs(draw) <= bound]
        take = min(draw.size, out.size - filled)
        out[filled : filled + take] = draw[:take]
        filled += take
    tensor.data[...] = (out * std).reshape(tensor.shape).astype(tensor.dtype)
    return tensor


def constant_(tensor: Tensor, value: float) -> Tensor:
    if _skipping():
        return tensor
    tensor.data[...] = value
    return tensor


def zeros_(tensor: Tensor) -> Tensor:
    return constant_(tensor, 0.0)


def ones_(tensor: Tensor) -> Tensor:
    return constant_(tensor, 1.0)


def _kaiming_gain(a: float, nonlinearity: str) -> float:
    if nonlinearity == "relu":
        return math.sqrt(2.0)
    if nonlinearity == "leaky_relu":
        return math.sqrt(2.0 / (1.0 + a * a))
    if nonlinearity == "linear":
        return 1.0
    raise ValueError(f"unsupported nonlinearity: {nonlinearity}")


def kaiming_uniform_(
    tensor: Tensor, a: float = 0.0, mode: str = "fan_in", nonlinearity: str = "leaky_relu"
) -> Tensor:
    """He-uniform initialization (PyTorch's conv/linear default)."""
    fan_in, fan_out = calculate_fan(tensor)
    fan = fan_in if mode == "fan_in" else fan_out
    gain = _kaiming_gain(a, nonlinearity)
    bound = gain * math.sqrt(3.0 / fan)
    return uniform_(tensor, -bound, bound)


def kaiming_normal_(
    tensor: Tensor, a: float = 0.0, mode: str = "fan_out", nonlinearity: str = "relu"
) -> Tensor:
    """He-normal initialization (ResNet-style)."""
    fan_in, fan_out = calculate_fan(tensor)
    fan = fan_in if mode == "fan_in" else fan_out
    gain = _kaiming_gain(a, nonlinearity)
    return normal_(tensor, 0.0, gain / math.sqrt(fan))


def xavier_uniform_(tensor: Tensor, gain: float = 1.0) -> Tensor:
    """Glorot-uniform initialization."""
    fan_in, fan_out = calculate_fan(tensor)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return uniform_(tensor, -bound, bound)


def xavier_normal_(tensor: Tensor, gain: float = 1.0) -> Tensor:
    fan_in, fan_out = calculate_fan(tensor)
    return normal_(tensor, 0.0, gain * math.sqrt(2.0 / (fan_in + fan_out)))
