"""Module/Parameter system — the layer-composition substrate.

Mirrors the familiar PyTorch contract at the scale this project needs:
parameters and sub-modules auto-register on attribute assignment, modules
expose ``parameters()`` / ``named_parameters()`` / ``state_dict()``, and
``train()`` / ``eval()`` toggle batch-norm between batch and running
statistics.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from repro.autograd.tensor import Tensor


class Parameter(Tensor):
    """A :class:`Tensor` that is a trainable leaf of a :class:`Module`."""

    __slots__ = ()

    def __init__(self, data, requires_grad: bool = True, name: str | None = None):
        super().__init__(data, requires_grad=requires_grad, name=name)


class Module:
    """Base class for all neural-network layers and models.

    Subclasses implement :meth:`forward`; assigning :class:`Parameter`,
    :class:`Module` or buffer (plain ndarray via :meth:`register_buffer`)
    attributes registers them for traversal, serialization, and mode
    switching.
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_buffers", OrderedDict())
        object.__setattr__(self, "training", True)

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
            self._modules.pop(name, None)
            self._buffers.pop(name, None)
        elif isinstance(value, Module):
            self._modules[name] = value
            self._parameters.pop(name, None)
            self._buffers.pop(name, None)
        elif name in getattr(self, "_buffers", {}):
            self._buffers[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. batch-norm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    def add_module(self, name: str, module: "Module") -> None:
        """Register a sub-module under a dynamic name."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # ------------------------------------------------------------------
    # traversal
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters in this module and its children."""
        for _, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(dotted_name, parameter)`` pairs, depth-first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all descendants, depth-first."""
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(dotted_name, module)`` pairs including self (empty name)."""
        yield (prefix.rstrip("."), self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        """Yield direct sub-modules."""
        yield from self._modules.values()

    def named_buffers(self, prefix: str = "") -> Iterator[tuple[str, np.ndarray]]:
        """Yield ``(dotted_name, buffer)`` pairs, depth-first."""
        for name in self._buffers:
            yield (f"{prefix}{name}", getattr(self, name))
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix=f"{prefix}{name}.")

    # ------------------------------------------------------------------
    # mode & gradients
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects batch-norm)."""
        object.__setattr__(self, "training", mode)
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        """Set inference mode recursively."""
        return self.train(False)

    def zero_grad(self) -> None:
        """Clear gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self, trainable_only: bool = False) -> int:
        """Total number of scalar parameters."""
        return sum(
            p.size for p in self.parameters() if p.requires_grad or not trainable_only
        )

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        """Copy of all parameters and buffers keyed by dotted name."""
        state: OrderedDict[str, np.ndarray] = OrderedDict()
        for name, param in self.named_parameters():
            state[name] = param.data.copy()
        for name, buffer in self.named_buffers():
            state[name] = np.array(buffer, copy=True)
        return state

    def load_state_dict(self, state: dict) -> None:
        """Load parameters/buffers in-place from :meth:`state_dict` output."""
        params = dict(self.named_parameters())
        missing = []
        for name, value in state.items():
            if name in params:
                target = params[name]
                if target.shape != value.shape:
                    raise ValueError(
                        f"shape mismatch for {name!r}: model {target.shape}, state {value.shape}"
                    )
                target.data = np.array(value, dtype=target.dtype, copy=True)
            else:
                missing.append(name)
        if missing:
            buffer_owners = self._buffer_owners()
            remaining = []
            for name in missing:
                if name in buffer_owners:
                    owner, attr = buffer_owners[name]
                    owner.register_buffer(attr, np.array(state[name], copy=True))
                else:
                    remaining.append(name)
            if remaining:
                raise KeyError(f"state entries not found in model: {remaining}")

    def _buffer_owners(self) -> dict[str, tuple["Module", str]]:
        owners: dict[str, tuple[Module, str]] = {}

        def visit(module: "Module", prefix: str) -> None:
            for attr in module._buffers:
                owners[f"{prefix}{attr}"] = (module, attr)
            for name, child in module._modules.items():
                visit(child, f"{prefix}{name}.")

        visit(self, "")
        return owners

    # ------------------------------------------------------------------
    # call protocol
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError(f"{type(self).__name__} must implement forward()")

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def __repr__(self) -> str:
        lines = [type(self).__name__ + "("]
        for name, module in self._modules.items():
            child = repr(module).replace("\n", "\n  ")
            lines.append(f"  ({name}): {child}")
        lines.append(")")
        return "\n".join(lines) if len(lines) > 2 else f"{type(self).__name__}()"


class Sequential(Module):
    """Chain modules, feeding each output into the next."""

    def __init__(self, *modules: Module):
        super().__init__()
        for index, module in enumerate(modules):
            self.add_module(str(index), module)

    def forward(self, x):
        for module in self._modules.values():
            x = module(x)
        return x

    def __len__(self) -> int:
        return len(self._modules)

    def __iter__(self):
        return iter(self._modules.values())

    def __getitem__(self, index: int) -> Module:
        return list(self._modules.values())[index]


class Identity(Module):
    """Pass-through module (used for optional branches)."""

    def forward(self, x):
        return x
