"""A vectorised reverse-mode autograd engine on numpy.

This is the substrate under the transformer and PPO: a :class:`Tensor` wraps
an ``ndarray``, records the operations applied to it, and
:meth:`Tensor.backward` runs reverse-mode differentiation over the recorded
graph.  The op set is exactly what a GPT-2-with-value-head + PPO training
loop needs — broadcast-aware arithmetic, batched matmul, indexing/gather,
log-softmax, layernorm, GELU, clip/minimum/where — nothing speculative.

Design notes
------------
- Gradients are accumulated in float32; graphs are freed after backward.
- Broadcasting follows numpy; ``_unbroadcast`` folds gradients back to the
  operand's shape.
- ``no_grad()`` disables graph recording (used for generation rollouts,
  which would otherwise leak memory across hundreds of sampling steps).
"""

from __future__ import annotations

import contextlib
from typing import Iterable

import numpy as np

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over the axes numpy broadcast to reach its shape."""
    if grad.shape == shape:
        return grad
    # Sum away leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were 1 in the original shape.
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """An autograd-tracked numpy array."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float32)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def zeros(cls, *shape: int, requires_grad: bool = False) -> "Tensor":
        return cls(np.zeros(shape, dtype=np.float32), requires_grad)

    @classmethod
    def param(cls, array: np.ndarray) -> "Tensor":
        """A trainable parameter (requires_grad regardless of no_grad)."""
        tensor = cls(array)
        tensor.requires_grad = True
        return tensor

    # -- graph plumbing ------------------------------------------------------------

    def _make(self, data: np.ndarray, parents: Iterable["Tensor"], backward):
        """Create a result node; records the edge only when grads are on."""
        parents = tuple(parents)
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data)
        out.requires_grad = requires
        if requires:
            out._parents = parents
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = grad.astype(np.float32, copy=True)
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Reverse-mode differentiation from this (typically scalar) node."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self._accumulate(np.asarray(grad, dtype=np.float32))
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)
            # Free the graph edge eagerly; parameters keep their grads.
            node._backward = None
            node._parents = ()

    # -- shape utilities ------------------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def reshape(self, *shape: int) -> "Tensor":
        original = self.data.shape

        def backward(grad):
            self._accumulate(grad.reshape(original))

        return self._make(self.data.reshape(shape), (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        axes = axes or tuple(reversed(range(self.data.ndim)))
        inverse = np.argsort(axes)

        def backward(grad):
            self._accumulate(grad.transpose(inverse))

        return self._make(self.data.transpose(axes), (self,), backward)

    def swap_last(self) -> "Tensor":
        """Swap the last two axes (matmul transpose helper)."""
        order = tuple(range(self.data.ndim - 2)) + (
            self.data.ndim - 1,
            self.data.ndim - 2,
        )
        return self.transpose(*order)

    def __getitem__(self, key) -> "Tensor":
        data = self.data[key]

        def backward(grad):
            full = np.zeros_like(self.data)
            np.add.at(full, key, grad)
            self._accumulate(full)

        return self._make(data, (self,), backward)

    # -- arithmetic -------------------------------------------------------------------

    def _coerce(self, other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    def __add__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.data.shape))

        return self._make(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad):
            self._accumulate(-grad)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Tensor":
        return self._coerce(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._coerce(other)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

        return self._make(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._coerce(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return self._coerce(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def backward(grad):
            self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

        return self._make(data, (self,), backward)

    def matmul(self, other: "Tensor") -> "Tensor":
        other = self._coerce(other)
        data = self.data @ other.data

        def backward(grad):
            if self.requires_grad:
                ga = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(ga, self.data.shape))
            if other.requires_grad:
                gb = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(gb, other.data.shape))

        return self._make(data, (self, other), backward)

    __matmul__ = matmul

    # -- reductions ---------------------------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad):
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    # -- nonlinearities ------------------------------------------------------------------

    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad):
            self._accumulate(grad * data)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad):
            self._accumulate(grad / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad):
            self._accumulate(grad * (1.0 - data * data))

        return self._make(data, (self,), backward)

    def gelu(self) -> "Tensor":
        """GPT-2's tanh-approximated GELU."""
        x = self.data
        c = np.sqrt(2.0 / np.pi).astype(np.float32)
        inner = c * (x + 0.044715 * (x * x * x))
        t = np.tanh(inner)
        data = 0.5 * x * (1.0 + t)

        def backward(grad):
            dinner = c * (1.0 + 3 * 0.044715 * x**2)
            dt = (1.0 - t * t) * dinner
            self._accumulate(grad * (0.5 * (1.0 + t) + 0.5 * x * dt))

        return self._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp with straight-through gradient inside the bounds."""
        data = np.clip(self.data, low, high)
        pass_mask = (self.data >= low) & (self.data <= high)

        def backward(grad):
            self._accumulate(grad * pass_mask)

        return self._make(data, (self,), backward)

    def minimum(self, other: "Tensor") -> "Tensor":
        """Elementwise min; gradient flows to the smaller operand (ties: self)."""
        other = self._coerce(other)
        take_self = self.data <= other.data
        data = np.where(take_self, self.data, other.data)

        def backward(grad):
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * take_self, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * ~take_self, other.data.shape))

        return self._make(data, (self, other), backward)

    # -- softmax family --------------------------------------------------------------------

    def log_softmax(self) -> "Tensor":
        """Numerically-stable log-softmax over the last axis."""
        shifted = self.data - self.data.max(axis=-1, keepdims=True)
        log_z = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        data = shifted - log_z

        def backward(grad):
            softmax = np.exp(data)
            self._accumulate(grad - softmax * grad.sum(axis=-1, keepdims=True))

        return self._make(data, (self,), backward)

    def softmax(self) -> "Tensor":
        return self.log_softmax().exp()

    def gather_last(self, index: np.ndarray) -> "Tensor":
        """Select one element along the last axis per leading position.

        ``index`` has the tensor's shape minus the last axis; the result has
        that same shape.  This is the log-prob lookup used everywhere in LM
        training and PPO.
        """
        index = np.asarray(index)
        expanded = np.expand_dims(index, -1)
        data = np.take_along_axis(self.data, expanded, axis=-1).squeeze(-1)

        def backward(grad):
            full = np.zeros_like(self.data)
            np.put_along_axis(
                full, expanded, np.expand_dims(grad, -1), axis=-1
            )
            self._accumulate(full)

        return self._make(data, (self,), backward)

    # -- layernorm (fused custom op for speed and stability) ----------------------------------

    def layernorm(self, gain: "Tensor", bias: "Tensor", eps: float = 1e-5) -> "Tensor":
        """Layer normalisation over the last axis with affine parameters."""
        mu = self.data.mean(axis=-1, keepdims=True)
        var = self.data.var(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        normed = (self.data - mu) * inv
        data = normed * gain.data + bias.data

        def backward(grad):
            if gain.requires_grad:
                axes = tuple(range(grad.ndim - 1))
                gain._accumulate((grad * normed).sum(axis=axes))
            if bias.requires_grad:
                axes = tuple(range(grad.ndim - 1))
                bias._accumulate(grad.sum(axis=axes))
            if self.requires_grad:
                n = self.data.shape[-1]
                g = grad * gain.data
                term1 = g
                term2 = g.mean(axis=-1, keepdims=True)
                term3 = normed * (g * normed).mean(axis=-1, keepdims=True)
                self._accumulate((term1 - term2 - term3) * inv)

        return self._make(data, (self, gain, bias), backward)

    # -- misc -------------------------------------------------------------------------------

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"
