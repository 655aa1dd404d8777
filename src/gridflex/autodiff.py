"""Minimal reverse-mode autodiff over float64 numpy arrays.

Supports the handful of ops the networks need: broadcast arithmetic, batched
matmul, the usual activations, row softmax, reductions, reshape/stack/concat
and basic slicing. Gradients are checked against central finite differences
in the test suite.
"""

from __future__ import annotations

from collections.abc import Iterable
from contextlib import contextmanager

import numpy as np

from .errors import NumericalError, ShapeError


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(self.data)):
            raise NumericalError("tensor holds non-finite values")
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()

    @property
    def shape(self):
        return self.data.shape

    def _accumulate(self, g: np.ndarray) -> None:
        # The first write copies: backward closures hand the same upstream
        # array to several parents, and a later `+=` must not reach the others.
        if self.grad is None:
            self.grad = np.empty_like(self.data)
            self.grad[...] = g
        else:
            self.grad += g

    # -- graph construction helpers ------------------------------------------

    @staticmethod
    def _lift(x) -> "Tensor":
        return x if isinstance(x, Tensor) else Tensor(x)

    @staticmethod
    def _make(data: np.ndarray, parents: tuple["Tensor", ...], backward) -> "Tensor":
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(p for p in parents if p.requires_grad)
            out._backward = backward
        return out

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        other = self._lift(other)
        out_data = self.data + other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.shape))

        return self._make(out_data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        def backward(g):
            self._accumulate(-g)

        return self._make(-self.data, (self,), backward)

    def __sub__(self, other):
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return self._lift(other) + (-self)

    def __mul__(self, other):
        other = self._lift(other)
        out_data = self.data * other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.shape))

        return self._make(out_data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        out_data = self.data / other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g / other.data, self.shape))
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(-g * self.data / other.data**2, other.shape)
                )

        return self._make(out_data, (self, other), backward)

    def __matmul__(self, other):
        other = self._lift(other)
        out_data = self.data @ other.data

        def backward(g):
            if self.requires_grad:
                self._accumulate(
                    _unbroadcast(g @ np.swapaxes(other.data, -1, -2), self.shape)
                )
            if other.requires_grad:
                other._accumulate(
                    _unbroadcast(np.swapaxes(self.data, -1, -2) @ g, other.shape)
                )

        return self._make(out_data, (self, other), backward)

    def __getitem__(self, key):
        out_data = self.data[key]

        def backward(g):
            full = np.zeros_like(self.data)
            np.add.at(full, key, g)
            self._accumulate(full)

        return self._make(out_data, (self,), backward)

    # -- elementwise nonlinearities ------------------------------------------

    def tanh(self):
        y = np.tanh(self.data)

        def backward(g):
            self._accumulate(g * (1.0 - y**2))

        return self._make(y, (self,), backward)

    def sigmoid(self):
        y = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g):
            self._accumulate(g * y * (1.0 - y))

        return self._make(y, (self,), backward)

    def relu(self):
        y = np.maximum(self.data, 0.0)

        def backward(g):
            self._accumulate(g * (self.data > 0))

        return self._make(y, (self,), backward)

    def exp(self):
        y = np.exp(self.data)

        def backward(g):
            self._accumulate(g * y)

        return self._make(y, (self,), backward)

    def log(self):
        def backward(g):
            self._accumulate(g / self.data)

        return self._make(np.log(self.data), (self,), backward)

    def pow_const(self, p: float):
        def backward(g):
            self._accumulate(g * p * self.data ** (p - 1))

        return self._make(self.data**p, (self,), backward)

    def sqrt(self):
        return self.pow_const(0.5)

    def softmax(self, axis: int = -1):
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        e = np.exp(shifted)
        y = e / e.sum(axis=axis, keepdims=True)

        def backward(g):
            dot = (g * y).sum(axis=axis, keepdims=True)
            self._accumulate(y * (g - dot))

        return self._make(y, (self,), backward)

    # -- reductions and reshaping --------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                self._accumulate(np.full_like(self.data, 1.0) * g)
            else:
                if not keepdims:
                    g = np.expand_dims(g, axis)
                self._accumulate(np.broadcast_to(g, self.shape).copy())

        return self._make(out_data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        n = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        old = self.shape

        def backward(g):
            self._accumulate(g.reshape(old))

        return self._make(self.data.reshape(*shape), (self,), backward)

    def transpose(self, *axes):
        axes = axes or tuple(reversed(range(self.data.ndim)))
        inv = np.argsort(axes)

        def backward(g):
            self._accumulate(g.transpose(inv))

        return self._make(self.data.transpose(axes), (self,), backward)

    @property
    def mT(self):
        """Swap the last two axes."""
        nd = self.data.ndim
        axes = tuple(range(nd - 2)) + (nd - 1, nd - 2)
        return self.transpose(*axes)

    # -- combination ----------------------------------------------------------

    @staticmethod
    def concat(tensors: list["Tensor"], axis: int = 0):
        tensors = [Tensor._lift(t) for t in tensors]
        out_data = np.concatenate([t.data for t in tensors], axis=axis)
        sizes = [t.data.shape[axis] for t in tensors]

        def backward(g):
            pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
            for t, piece in zip(tensors, pieces):
                if t.requires_grad:
                    t._accumulate(piece)

        return Tensor._make(out_data, tuple(tensors), backward)

    @staticmethod
    def stack(tensors: list["Tensor"], axis: int = 0):
        tensors = [Tensor._lift(t) for t in tensors]
        out_data = np.stack([t.data for t in tensors], axis=axis)

        def backward(g):
            pieces = np.split(g, len(tensors), axis=axis)
            for t, piece in zip(tensors, pieces):
                if t.requires_grad:
                    t._accumulate(np.squeeze(piece, axis=axis))

        return Tensor._make(out_data, tuple(tensors), backward)

    # -- backward pass ---------------------------------------------------------

    def backward(self):
        if self.data.size != 1:
            raise ShapeError("backward() requires a scalar loss")
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in seen:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._backward is not None:
                node._backward(node.grad)


@contextmanager
def no_grad(tensors: Iterable[Tensor]):
    """Build no backward graph through `tensors` inside the block.

    Clears their `requires_grad` flags and puts them back on exit, also when
    the block raises. For forward passes whose result is never differentiated.
    """
    tensors = list(tensors)
    saved = [t.requires_grad for t in tensors]
    for t in tensors:
        t.requires_grad = False
    try:
        yield
    finally:
        for t, flag in zip(tensors, saved):
            t.requires_grad = flag


def parameter(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    """Seeded uniform(+-1/sqrt(fan_in)) parameter tensor."""
    bound = 1.0 / np.sqrt(max(fan_in, 1))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)
