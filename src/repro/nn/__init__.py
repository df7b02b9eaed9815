"""``repro.nn`` — a numpy-based deep-learning substrate.

A from-scratch stand-in for the PyTorch subset that MMlib (EDBT 2022)
depends on: autograd tensors, convolutional network modules with state
dicts, stateful optimizers, data loading, deterministic serialization, and
seeded/deterministic execution control.
"""

from . import functional, init, models, optim, rng, schedulers, serialization, testing
from .autograd import enable_grad, is_grad_enabled, no_grad
from .data import DataLoader, Dataset, Subset, TensorDataset
from .embedding import Embedding, embedding
from .modules import (
    AdaptiveAvgPool2d,
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    Dropout,
    Flatten,
    Identity,
    LayerNorm,
    LegacyDropout,
    Linear,
    MaxPool2d,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    ReLU6,
    Sequential,
    Skeleton,
)
from .optim import SGD, Adam, Optimizer
from .rng import (
    deterministic_algorithms_enabled,
    deterministic_mode,
    fork_rng,
    manual_seed,
    use_deterministic_algorithms,
)
from .tensor import Tensor, arange, cat, ones, randn, stack, tensor, zeros

__all__ = [
    "functional",
    "schedulers",
    "testing",
    "init",
    "models",
    "optim",
    "rng",
    "serialization",
    "enable_grad",
    "is_grad_enabled",
    "no_grad",
    "DataLoader",
    "Dataset",
    "Embedding",
    "embedding",
    "Subset",
    "TensorDataset",
    "AdaptiveAvgPool2d",
    "AvgPool2d",
    "BatchNorm2d",
    "Conv2d",
    "Dropout",
    "Flatten",
    "Identity",
    "LayerNorm",
    "LegacyDropout",
    "Linear",
    "MaxPool2d",
    "Module",
    "ModuleList",
    "Parameter",
    "ReLU",
    "ReLU6",
    "Sequential",
    "Skeleton",
    "SGD",
    "Adam",
    "Optimizer",
    "deterministic_algorithms_enabled",
    "deterministic_mode",
    "fork_rng",
    "manual_seed",
    "use_deterministic_algorithms",
    "Tensor",
    "arange",
    "cat",
    "ones",
    "randn",
    "stack",
    "tensor",
    "zeros",
]
