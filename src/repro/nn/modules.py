"""Module system: composable layers with state dicts and layer granularity.

The design mirrors ``torch.nn``: a :class:`Module` owns parameters, buffers,
and child modules; :meth:`Module.state_dict` flattens the tree into an
ordered mapping of dotted names to numpy arrays.  MMlib operates exclusively
on this interface — per-layer hashing, parameter updates, and serialization
all consume state dicts.
"""

from __future__ import annotations

import copy
import math
import numbers
import types
from collections import OrderedDict
from typing import Iterator

import numpy as np

from . import functional as F
from . import init, rng
from .tensor import Tensor

__all__ = [
    "Parameter",
    "Module",
    "Sequential",
    "ModuleList",
    "Identity",
    "Linear",
    "Conv2d",
    "BatchNorm2d",
    "LayerNorm",
    "ReLU",
    "ReLU6",
    "MaxPool2d",
    "AvgPool2d",
    "AdaptiveAvgPool2d",
    "Dropout",
    "LegacyDropout",
    "Flatten",
    "Skeleton",
]


class Parameter(Tensor):
    """A tensor registered as a learnable parameter (grad-enabled)."""

    def __init__(self, data, requires_grad: bool = True):
        super().__init__(data, requires_grad=requires_grad)


def _adopt_or_copy(value: np.ndarray, assign: bool) -> np.ndarray:
    """``value`` itself when ``assign`` and its layout allow, else a copy."""
    flags = value.flags
    if assign and flags.writeable and flags.c_contiguous and flags.aligned:
        return value
    return value.copy()


def _loaded(key: str, value, like: np.ndarray, assign: bool) -> np.ndarray:
    """``value`` as the array a layer shaped and typed like ``like`` holds:
    cast to its dtype, its shape checked, adopted or copied."""
    array = np.asarray(value, dtype=like.dtype)
    if array.shape != like.shape:
        raise ValueError(f"shape mismatch for {key}: {array.shape} vs {like.shape}")
    return _adopt_or_copy(array, assign)


class HookHandle:
    """Removable registration handle returned by hook installers."""

    _next_id = 0

    def __init__(self, registry: OrderedDict):
        self._registry = registry
        HookHandle._next_id += 1
        self.id = HookHandle._next_id

    def remove(self) -> None:
        self._registry.pop(self.id, None)


class Module:
    """Base class for all neural-network modules."""

    def __init__(self):
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_forward_hooks", OrderedDict())
        object.__setattr__(self, "training", True)

    # -- attribute plumbing ----------------------------------------------------

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self.__dict__.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self.__dict__.pop(name, None)
        else:
            if name in self._parameters and value is None:
                self._parameters[name] = None
                return
            object.__setattr__(self, name, value)

    def __getattr__(self, name: str):
        for registry_name in ("_parameters", "_buffers", "_modules"):
            registry = self.__dict__.get(registry_name)
            if registry is not None and name in registry:
                return registry[name]
        raise AttributeError(f"{type(self).__name__} has no attribute {name!r}")

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-learnable state saved in the state dict (e.g. BN stats)."""
        self._buffers[name] = value

    def add_module(self, name: str, module: "Module") -> None:
        self._modules[name] = module

    # -- traversal ----------------------------------------------------------------

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            if param is not None:
                yield prefix + name, param
        for name, module in self._modules.items():
            if module is not None:
                yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> Iterator[Parameter]:
        for _, param in self.named_parameters():
            yield param

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        for name, buffer in self._buffers.items():
            yield prefix + name, buffer
        for name, module in self._modules.items():
            if module is not None:
                yield from module.named_buffers(prefix + name + ".")

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        yield prefix, self
        for name, module in self._modules.items():
            if module is None:
                continue
            child_prefix = prefix + ("." if prefix else "") + name
            yield from module.named_modules(child_prefix)

    def children(self) -> Iterator["Module"]:
        yield from (m for m in self._modules.values() if m is not None)

    def apply(self, fn) -> "Module":
        """Apply ``fn`` to every module in the subtree (children first)."""
        for module in self._modules.values():
            if module is not None:
                module.apply(fn)
        fn(self)
        return self

    # -- mode & gradients -----------------------------------------------------------

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects BN statistics, dropout)."""
        object.__setattr__(self, "training", mode)
        for module in self._modules.values():
            if module is not None:
                module.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.grad = None

    def requires_grad_(self, flag: bool = True) -> "Module":
        for param in self.parameters():
            param.requires_grad = flag
        return self

    def freeze(self) -> "Module":
        """Mark every parameter in this subtree as not trainable."""
        return self.requires_grad_(False)

    # -- state dict -------------------------------------------------------------------

    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Flattened mapping of dotted parameter/buffer names to arrays."""
        state: OrderedDict[str, np.ndarray] = OrderedDict()
        self._collect_state(state, "")
        return state

    def _collect_state(self, state: OrderedDict, prefix: str) -> None:
        for name, param in self._parameters.items():
            if param is not None:
                state[prefix + name] = param.data
        for name, buffer in self._buffers.items():
            state[prefix + name] = buffer
        for name, module in self._modules.items():
            if module is not None:
                module._collect_state(state, prefix + name + ".")

    def load_state_dict(
        self, state: dict, strict: bool = True, assign: bool = False
    ) -> None:
        """Load arrays from ``state`` into parameters and buffers by name.

        Every array is copied unless ``assign`` is set (PyTorch's
        ``assign=``): then a value that is a writable, C-contiguous,
        aligned ``ndarray`` of the parameter's dtype and shape becomes the
        parameter's data (or the buffer) as is, and anything else is still
        copied.  Pass it only for state nobody else holds.
        """
        own = self.state_dict()
        missing = [k for k in own if k not in state]
        unexpected = [k for k in state if k not in own]
        if strict and (missing or unexpected):
            raise KeyError(
                f"state dict mismatch: missing={missing[:5]} unexpected={unexpected[:5]}"
            )
        self._load_state(state, "", assign)

    def _load_state(self, state: dict, prefix: str, assign: bool) -> None:
        for name, param in self._parameters.items():
            key = prefix + name
            if param is not None and key in state:
                param.data = _loaded(key, state[key], param.data, assign)
        for name, buffer in self._buffers.items():
            key = prefix + name
            if key in state:
                self._buffers[name] = _loaded(key, state[key], buffer, assign)
        for name, module in self._modules.items():
            if module is not None:
                module._load_state(state, prefix + name + ".", assign)

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of parameter elements in the subtree."""
        return sum(
            p.data.size
            for p in self.parameters()
            if p.requires_grad or not trainable_only
        )

    # -- call -----------------------------------------------------------------------------

    def register_forward_hook(self, hook) -> "HookHandle":
        """Register ``hook(module, inputs, output)`` to run after forward."""
        handle = HookHandle(self._forward_hooks)
        self._forward_hooks[handle.id] = hook
        return handle

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        output = self.forward(*args, **kwargs)
        for hook in list(self._forward_hooks.values()):
            hook(self, args, output)
        return output

    def __repr__(self) -> str:
        child_lines = [
            f"  ({name}): {module!r}".replace("\n", "\n  ")
            for name, module in self._modules.items()
        ]
        header = self._repr_header()
        if not child_lines:
            return header
        return header[:-1].rstrip("(") + "(\n" + "\n".join(child_lines) + "\n)"

    def _repr_header(self) -> str:
        return f"{type(self).__name__}()"


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        for index, module in enumerate(modules):
            self.add_module(str(index), module)

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]

    def forward(self, x: Tensor) -> Tensor:
        for module in self._modules.values():
            x = module(x)
        return x


class ModuleList(Module):
    """List container registering each element as a child module."""

    def __init__(self, modules=()):
        super().__init__()
        for module in modules:
            self.append(module)

    def append(self, module: Module) -> "ModuleList":
        self.add_module(str(len(self._modules)), module)
        return self

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self) -> Iterator[Module]:
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]


class Identity(Module):
    """Pass-through module (placeholder in optional slots)."""

    def forward(self, x: Tensor) -> Tensor:
        return x


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(np.empty((out_features, in_features), dtype=np.float32))
        if bias:
            self.bias = Parameter(np.empty(out_features, dtype=np.float32))
        else:
            self._parameters["bias"] = None
        self.reset_parameters()

    def reset_parameters(self) -> None:
        init.kaiming_uniform_(self.weight, a=math.sqrt(5))
        if self.bias is not None:
            bound = 1.0 / math.sqrt(self.in_features)
            init.uniform_(self.bias, -bound, bound)

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)

    def _repr_header(self) -> str:
        return (
            f"Linear(in_features={self.in_features}, "
            f"out_features={self.out_features}, bias={self.bias is not None})"
        )


class Conv2d(Module):
    """2D convolution layer.

    ``kernel_impl="legacy"`` selects the kernel variant whose deterministic
    implementation is substantially slower (see :mod:`repro.nn.functional`).
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        groups: int = 1,
        bias: bool = True,
        kernel_impl: str = "standard",
    ):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        self.kernel_impl = kernel_impl
        self.weight = Parameter(
            np.empty(
                (out_channels, in_channels // groups, kernel_size, kernel_size),
                dtype=np.float32,
            )
        )
        if bias:
            self.bias = Parameter(np.empty(out_channels, dtype=np.float32))
        else:
            self._parameters["bias"] = None
        self.reset_parameters()

    def reset_parameters(self) -> None:
        init.kaiming_uniform_(self.weight, a=math.sqrt(5))
        if self.bias is not None:
            fan_in = self.in_channels // self.groups * self.kernel_size**2
            bound = 1.0 / math.sqrt(fan_in)
            init.uniform_(self.bias, -bound, bound)

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            groups=self.groups,
            kernel_impl=self.kernel_impl,
        )

    def _repr_header(self) -> str:
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, "
            f"kernel_size={self.kernel_size}, stride={self.stride}, "
            f"padding={self.padding}, groups={self.groups})"
        )


class BatchNorm2d(Module):
    """Batch normalization with running statistics stored as buffers."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1):
        super().__init__()
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features, dtype=np.float32))
        self.bias = Parameter(np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_mean", np.zeros(num_features, dtype=np.float32))
        self.register_buffer("running_var", np.ones(num_features, dtype=np.float32))
        self.register_buffer("num_batches_tracked", np.zeros((), dtype=np.int64))

    def forward(self, x: Tensor) -> Tensor:
        if self.training:
            self._buffers["num_batches_tracked"] = (
                self._buffers["num_batches_tracked"] + 1
            )
        return F.batch_norm(
            x,
            self._buffers["running_mean"],
            self._buffers["running_var"],
            self.weight,
            self.bias,
            training=self.training,
            momentum=self.momentum,
            eps=self.eps,
        )

    def _repr_header(self) -> str:
        return f"BatchNorm2d({self.num_features}, eps={self.eps})"


class LayerNorm(Module):
    """Layer normalization over the last dimension (per-sample statistics)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5):
        super().__init__()
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape, dtype=np.float32))
        self.bias = Parameter(np.zeros(normalized_shape, dtype=np.float32))

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)

    def _repr_header(self) -> str:
        return f"LayerNorm({self.normalized_shape}, eps={self.eps})"


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class ReLU6(Module):
    """ReLU clipped at 6 (MobileNet activations)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu6(x)


class MaxPool2d(Module):
    """Max pooling over spatial windows."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)

    def _repr_header(self) -> str:
        return f"MaxPool2d(kernel_size={self.kernel_size}, stride={self.stride})"


class AvgPool2d(Module):
    """Average pooling over spatial windows."""

    def __init__(self, kernel_size: int, stride: int | None = None, padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = stride or kernel_size
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.avg_pool2d(x, self.kernel_size, self.stride, self.padding)


class AdaptiveAvgPool2d(Module):
    """Average pooling to a fixed output grid (PyTorch semantics)."""

    def __init__(self, output_size):
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_avg_pool2d(x, self.output_size)


class Dropout(Module):
    """Standard dropout; reproducible because it draws from the seeded RNG."""

    def __init__(self, p: float = 0.5):
        super().__init__()
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training)

    def _repr_header(self) -> str:
        return f"Dropout(p={self.p})"


class LegacyDropout(Module):
    """A *deprecated* dropout with no deterministic implementation.

    It draws its mask from the unseeded generator even in deterministic
    mode, modelling the paper's finding (Section 2.4) that some models are
    not reproducible because they use deprecated layers for which the
    framework provides no deterministic implementation.  The probe tool
    flags models containing this layer as non-reproducible.
    """

    def __init__(self, p: float = 0.5):
        super().__init__()
        self.p = p

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, generator=rng.nondet_generator())

    def _repr_header(self) -> str:
        return f"LegacyDropout(p={self.p})"


class Flatten(Module):
    """Flatten trailing dimensions starting at ``start_dim``."""

    def __init__(self, start_dim: int = 1):
        super().__init__()
        self.start_dim = start_dim

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(self.start_dim)


# -- skeleton assembly ---------------------------------------------------------------

#: Attribute values an assembled module shares with its skeleton, since none
#: can be changed in place; every other plain attribute is deep-copied.
_IMMUTABLE = (
    type(None), numbers.Number, str, bytes, type,
    types.FunctionType, types.BuiltinFunctionType,
)
_REGISTRIES = ("_parameters", "_buffers", "_modules", "_forward_hooks")


def _immutable(value) -> bool:
    if isinstance(value, (tuple, frozenset)):
        return all(_immutable(item) for item in value)
    return isinstance(value, _IMMUTABLE)


def _names_if_none(registry: OrderedDict) -> tuple[str, ...]:
    """Every name of ``registry`` if one of them holds None, else none."""
    return tuple(registry) if any(value is None for value in registry.values()) else ()


_ZEROS: dict[np.dtype, np.ndarray] = {}


def _placeholder(array: np.ndarray) -> np.ndarray:
    """A read-only array of ``array``'s dtype and shape whose strides are
    all zero: one element of memory, whatever the shape, shared by every
    placeholder of that dtype."""
    zero = _ZEROS.get(array.dtype)
    if zero is None:
        zero = _ZEROS[array.dtype] = np.zeros((), dtype=array.dtype)
    return np.broadcast_to(zero, array.shape)


class Skeleton:
    """An architecture built once, holding no parameter bytes, from which
    models are assembled around a state (DESIGN.md §14).

    Made from a model whose values nobody reads — built under
    :func:`~repro.nn.init.skip_init` — it keeps a plan of that model: each
    distinct module once, parents first, with its type and instance dict,
    and each parameter and buffer as a zero-stride placeholder of its
    dtype and shape.  ``spec`` maps each state-dict name to its
    placeholder, in state-dict order.  The model itself is let go unless
    an attribute to deep-copy may refer to one of its modules.
    """

    def __init__(self, model: Module):
        self.spec: OrderedDict[str, np.ndarray] = OrderedDict()
        # per module: (type, instance-dict template, parameter names, buffer names)
        self._nodes: list[tuple] = []
        # per module with attributes to deep-copy: (module, their names)
        self._mutable: list[tuple[int, tuple[str, ...]]] = []
        # per registered child: (parent, name, child or None)
        self._links: list[tuple[int, str, int | None]] = []
        # per distinct parameter: (type, requires_grad)
        self._params: list[tuple[type, bool]] = []
        # per state-dict entry: (module, key, name, placeholder, parameter
        # slot or None for a buffer)
        self._tensors: list[tuple] = []
        modules: list[Module] = []
        params: list[Parameter] = []
        self._visit(model, "", {}, {}, modules, params)
        # a deep copy maps the skeleton's modules and parameters to the
        # model's own by identity, so they must outlive the skeleton
        self._originals = (modules, params) if self._mutable else None

    def _visit(self, module: Module, prefix: str, seen: dict, slots: dict,
               modules: list, params: list) -> int:
        index = seen.get(id(module))
        first = index is None
        if first:
            index = seen[id(module)] = len(modules)
            modules.append(module)
            template = {
                name: None if name in _REGISTRIES else value
                for name, value in module.__dict__.items()
            }
            mutable = tuple(
                name for name, value in template.items()
                if name not in _REGISTRIES and not _immutable(value)
            )
            if mutable:
                self._mutable.append((index, mutable))
            # a registry is built up in order by the tensors, unless it
            # holds a None entry for them to fill in around
            self._nodes.append((
                type(module), template,
                _names_if_none(module._parameters), _names_if_none(module._buffers),
            ))
        for name, param in module._parameters.items():
            if param is None:
                continue
            slot = slots.get(id(param))
            if slot is None:
                slot = slots[id(param)] = len(params)
                params.append(param)
                self._params.append((type(param), param.requires_grad))
                param.data = _placeholder(param.data)
            self._add(index, prefix + name, name, param.data, slot)
        for name, buffer in module._buffers.items():
            if buffer is None:
                continue
            if first:
                buffer = module._buffers[name] = _placeholder(buffer)
            self._add(index, prefix + name, name, buffer, None)
        for name, child in module._modules.items():
            child_index = None
            if child is not None:
                child_index = self._visit(
                    child, prefix + name + ".", seen, slots, modules, params)
            if first:
                self._links.append((index, name, child_index))
        return index

    def _add(self, index: int, key: str, name: str, placeholder, slot) -> None:
        self.spec[key] = placeholder
        self._tensors.append((index, key, name, placeholder, slot))

    def assemble(
        self, state: dict, assign: bool = False
    ) -> tuple[Module, "OrderedDict[str, np.ndarray]"]:
        """A new model holding exactly ``state``, and the layers it copied.

        One pass over the plan.  Each module is a new instance of its
        skeleton module's type with a copy of its instance dict, new
        registries and no forward hooks; immutable attributes are shared,
        every other one is deep-copied.  The load is
        :meth:`Module.load_state_dict`'s, strict: a key set other than
        ``spec``'s raises ``KeyError`` before anything is built, a shape
        other than the layer's ``ValueError``; each value is cast to the
        layer's dtype (an ``ndarray`` of exactly its dtype and shape needs
        no cast) and adopted under ``assign`` if its layout allows, else
        copied.  ``requires_grad`` is the skeleton's.  The second
        value maps every layer the model does not hold as ``state``'s own
        array to the array it holds instead.
        """
        if state.keys() != self.spec.keys():
            missing = [key for key in self.spec if key not in state]
            unexpected = [key for key in state if key not in self.spec]
            raise KeyError(
                f"state dict mismatch: missing={missing[:5]} unexpected={unexpected[:5]}"
            )
        modules = []
        for cls, template, parameters, buffers in self._nodes:
            module = cls.__new__(cls)
            attributes = module.__dict__
            attributes.update(template)
            attributes["_parameters"] = (
                OrderedDict.fromkeys(parameters) if parameters else OrderedDict())
            attributes["_buffers"] = OrderedDict.fromkeys(buffers) if buffers else OrderedDict()
            attributes["_modules"] = OrderedDict()
            attributes["_forward_hooks"] = OrderedDict()
            modules.append(module)
        for parent, name, child in self._links:
            modules[parent]._modules[name] = None if child is None else modules[child]
        params: list[Parameter | None] = [None] * len(self._params)
        copies: OrderedDict[str, np.ndarray] = OrderedDict()
        for index, key, name, placeholder, slot in self._tensors:
            value = state[key]
            if (assign and type(value) is np.ndarray and value.dtype == placeholder.dtype
                    and value.shape == placeholder.shape):
                array = _adopt_or_copy(value, assign)  # exactly typed: nothing to cast
            else:
                array = _loaded(key, value, placeholder, assign)
            if array is not value:
                copies[key] = array
            if slot is None:
                modules[index]._buffers[name] = array
                continue
            param = params[slot]
            if param is None:
                cls, requires_grad = self._params[slot]
                param = params[slot] = cls.__new__(cls)
                param.grad = None
                param.requires_grad = requires_grad
                param._node = None
            param.data = array  # a tied parameter holds its last key's array
            modules[index]._parameters[name] = param
        if self._mutable:
            originals, parameters = self._originals
            memo = {id(old): new for old, new in zip(originals, modules)}
            memo.update((id(old), new) for old, new in zip(parameters, params))
            for index, names in self._mutable:
                template = self._nodes[index][1]
                target = modules[index].__dict__
                for name in names:
                    target[name] = copy.deepcopy(template[name], memo)
        return modules[0], copies
